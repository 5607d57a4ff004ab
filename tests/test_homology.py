import itertools

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, QQ, ZZ
from sympy.polys.matrices import DomainMatrix

from edgebetti.betti import _faces_within, _union_closure
from edgebetti.homology import homology_from_faces
from edgebetti.ideals import mark_supersets

# Minimal 6-vertex triangulation of the real projective plane: 2-torsion in
# H_1, so the rational and GF(2) answers genuinely differ.
RP2_FACETS = [
    (1, 2, 3),
    (1, 3, 4),
    (1, 4, 5),
    (1, 5, 6),
    (1, 2, 6),
    (2, 3, 5),
    (3, 5, 6),
    (3, 4, 6),
    (2, 4, 6),
    (2, 4, 5),
]


def faces_from_facets(ground, facets):
    """Face table of the complex with these facet masks, via _faces_within.

    With no facets the complex is {emptyset}.
    """
    nonface = bytearray(1 << ground)
    for m in range(1, 1 << ground):
        nonface[m] = all(m & ~f for f in facets)
    return _faces_within((1 << ground) - 1, nonface)


def cx_from_vertex_facets(ground, facets):
    masks = [sum(1 << (v - 1) for v in f) for f in facets]
    return faces_from_facets(ground, masks)


def test_hollow_triangle_is_a_circle():
    faces = cx_from_vertex_facets(3, [(1, 2), (1, 3), (2, 3)])
    assert homology_from_faces(faces) == [0, 0, 1]


def test_two_points():
    faces = cx_from_vertex_facets(2, [(1,), (2,)])
    assert homology_from_faces(faces) == [0, 1]


def test_full_simplex_contractible():
    for k in (1, 2, 3, 4):
        faces = cx_from_vertex_facets(k, [tuple(range(1, k + 1))])
        assert not any(homology_from_faces(faces))


def test_empty_complex():
    assert cx_from_vertex_facets(3, []) == [[0]]
    assert homology_from_faces([[0]]) == [1]


def test_projective_plane_torsion():
    faces = cx_from_vertex_facets(6, RP2_FACETS)
    assert [len(level) for level in faces] == [1, 6, 15, 10]
    assert homology_from_faces(faces, "q") == [0, 0, 0, 0]
    assert homology_from_faces(faces, "f2") == [0, 0, 1, 1]
    assert homology_from_faces(faces, "fp:3") == [0, 0, 0, 0]


def test_sphere_boundary():
    # boundary of the tetrahedron: a 2-sphere
    facets = list(itertools.combinations(range(1, 5), 3))
    faces = cx_from_vertex_facets(4, facets)
    assert homology_from_faces(faces, "q") == [0, 0, 0, 1]
    assert homology_from_faces(faces, "f2") == [0, 0, 0, 1]


@st.composite
def small_complexes(draw):
    ground = draw(st.integers(1, 5))
    all_faces = [m for m in range(1, 1 << ground)]
    facets = draw(st.lists(st.sampled_from(all_faces), min_size=1, max_size=6))
    return faces_from_facets(ground, facets)


@given(small_complexes())
@settings(max_examples=60, deadline=None)
def test_gf2_dominates_rational_dims(faces):
    """Ranks only drop mod p, so GF(2) homology bounds Q homology above."""
    over_q = homology_from_faces(faces, "q")
    over_f2 = homology_from_faces(faces, "f2")
    assert len(over_q) == len(over_f2)
    assert all(a <= b for a, b in zip(over_q, over_f2))


@given(small_complexes())
@settings(max_examples=30, deadline=None)
def test_euler_characteristic_is_field_free(faces):
    euler = sum((-1) ** c * len(level) for c, level in enumerate(faces))
    for field_tag in ("q", "f2", "fp:5"):
        h = homology_from_faces(faces, field_tag)
        # positions are dimension + 1, so this alternating sum equals euler
        assert sum((-1) ** pos * v for pos, v in enumerate(h)) == euler


def full_signed_boundary(faces, c):
    """The whole signed boundary map from cardinality c, dense."""
    idx = {f: i for i, f in enumerate(faces[c - 1])}
    mat = [[0] * len(faces[c]) for _ in faces[c - 1]]
    for col, f in enumerate(faces[c]):
        slots = [v for v in range(f.bit_length()) if f >> v & 1]
        for k, v in enumerate(slots):
            mat[idx[f & ~(1 << v)]][col] = (-1) ** k
    return mat


def assert_homology_exact(faces):
    """homology_from_faces against f_c - rank d_c - rank d_{c+1}, with
    sympy's ranks of the full signed boundary matrices."""
    for field, domain in (("q", QQ), ("f2", GF(2)), ("fp:3", GF(3)), ("fp:5", GF(5))):
        ranks = [0] * (len(faces) + 1)
        for c in range(1, len(faces)):
            full = DomainMatrix.from_list(full_signed_boundary(faces, c), ZZ)
            ranks[c] = full.convert_to(domain).rank()
        want = [len(faces[c]) - ranks[c] - ranks[c + 1] for c in range(len(faces))]
        assert homology_from_faces(faces, field) == want, field


@st.composite
def complexes_up_to_seven(draw):
    ground = draw(st.integers(1, 7))
    facets = draw(
        st.lists(st.integers(1, (1 << ground) - 1), min_size=1, max_size=8)
    )
    return faces_from_facets(ground, facets)


@given(complexes_up_to_seven())
@settings(max_examples=150, deadline=None)
def test_cleared_gf2_ranks_match_full_matrices(faces):
    assert_homology_exact(faces)


def test_cleared_gf2_ranks_on_named_complexes():
    # RP^2 has H_1 = Z/2, so its GF(2) and GF(3) ranks differ
    sphere = [tuple(f) for f in itertools.combinations(range(1, 5), 3)]
    for ground, facets in ((6, RP2_FACETS), (4, sphere)):
        assert_homology_exact(cx_from_vertex_facets(ground, facets))
    # a full 6-simplex: 128 faces with the empty one, acyclic over every field
    assert_homology_exact(cx_from_vertex_facets(7, [tuple(range(1, 8))]))


@st.composite
def generators_up_to_seven(draw):
    k = draw(st.integers(1, 7))
    return k, draw(st.lists(st.integers(1, (1 << k) - 1), min_size=1, max_size=6))


@given(generators_up_to_seven())
@settings(max_examples=80, deadline=None)
def test_faces_within_has_no_empty_top_level(ideal):
    k, gens = ideal
    nonface = mark_supersets(gens, k)
    for w in _union_closure(gens):
        faces = _faces_within(w, nonface)
        assert faces[0] == [0] and faces[-1]
        want = [m for m in range(1 << k) if m & ~w == 0 and not nonface[m]]
        assert sorted(f for level in faces for f in level) == want
        assert all(f.bit_count() == c for c, level in enumerate(faces) for f in level)
