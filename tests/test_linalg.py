from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, ZZ, Matrix
from sympy.polys.matrices import DomainMatrix

from edgebetti.linalg import _rank, rank_gf2, rank_mod_p, rank_rational

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
    assert rows == copy  # the sparse input is left alone


@given(integer_matrices())
@settings(max_examples=100, deadline=None)
def test_pivot_columns_carry_the_rank(mat):
    """Reported pivot columns carry the whole rank, as clearing needs."""
    rows = [{j: v for j, v in enumerate(r) if v} for r in mat]
    packed = [sum(1 << j for j, v in r.items() if v % 2) for r in rows]
    for p in (0, 2, 3, 5):
        pivots = []
        if p == 2:
            rank = rank_gf2(packed, pivots)
            assert rank == _rank(rows, 2)
        else:
            rank = _rank(rows, p, pivots)
        assert len(set(pivots)) == len(pivots) == rank
        block = DomainMatrix.from_list([[r[j] for j in pivots] for r in mat], ZZ)
        assert (block.convert_to(GF(p)) if p else block).rank() == rank
