from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, ZZ, Matrix
from sympy.polys.matrices import DomainMatrix

from edgebetti.linalg import rank_gf2, rank_mod_p, rank_rational

# Mostly non-unit entries, so the rational eliminator often runs out of +-1
# pivots and has to finish a core fraction-free.
ENTRIES = [0, 1, -1, 2, 3, -4, 6, 9]


@st.composite
def integer_matrices(draw):
    ncols = draw(st.integers(1, 6))
    rows = draw(
        st.lists(
            st.lists(st.sampled_from(ENTRIES), min_size=ncols, max_size=ncols),
            min_size=1,
            max_size=6,
        )
    )
    # dependent rows: integer combinations of two rows already drawn
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        x, y = draw(st.sampled_from([1, -1, 2, 3])), draw(st.sampled_from([1, -2, 5]))
        rows.append([x * u + y * v for u, v in zip(rows[a], rows[b])])
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order]


@given(integer_matrices())
@settings(max_examples=200, deadline=None)
def test_ranks_match_sympy(mat):
    rows = [{j: v for j, v in enumerate(r) if v} for r in mat]
    copy = [dict(r) for r in rows]
    assert rank_rational(rows) == Matrix(mat).rank()
    for p in (2, 3, 5, 7):
        want = DomainMatrix.from_list(mat, ZZ).convert_to(GF(p)).rank()
        assert rank_mod_p(rows, p) == want
        if p == 2:
            assert rank_gf2(rows) == want
    assert rows == copy  # the sparse input is left alone

