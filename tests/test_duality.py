"""Alexander duality as an oracle for Hochster's formula.

For a squarefree monomial ideal I, its Alexander dual I^v is generated by
the monomials x_T for T a minimal transversal of the generator supports of
I (a minimal set meeting every support), and (I^v)^v = I.  Terai's theorem
("Alexander duality theorem and Stanley-Reisner rings", 1999; see also
Eagon-Reiner 1998) gives, over every field,

    pd(S/I) = reg(S/I^v) + 1,

and with I and I^v swapped, reg(S/I) + 1 = pd(S/I^v).  The duals of the
initial ideals of binomial edge ideals are not shaped like those ideals
(at n = 6 they have up to 38 generators of mixed degrees), so the engine's
link and deletion reductions run on a second family of complexes here.
"""

import pytest

from edgebetti.atlas import enumerate_graphs
from edgebetti.betti import betti_table_hochster
from edgebetti.graphs import breadth_first, complete, cycle, path
from edgebetti.ideals import MonomialIdeal, initial_ideal, minimalize


def minimal_transversals(supports):
    """Berge's algorithm: the minimal sets meeting every support, as masks."""
    transversals = [0]
    for e in supports:
        grown = []
        for t in transversals:
            if t & e:
                grown.append(t)
                continue
            b = e
            while b:
                low = b & -b
                grown.append(t | low)
                b ^= low
        transversals = minimalize(grown)
    return transversals


def alexander_dual(ideal):
    return MonomialIdeal(ideal.num_vars, tuple(minimal_transversals(ideal.generators)))


def assert_terai(ideal, field_tag):
    """Both directions of Terai's identity; returns the dual's generator count."""
    dual = alexander_dual(ideal)
    assert alexander_dual(dual) == ideal
    table = betti_table_hochster(ideal, field_tag)
    dual_table = betti_table_hochster(dual, field_tag)
    assert table.quotient_pd == dual_table.quotient_reg + 1
    assert dual_table.quotient_pd == table.quotient_reg + 1
    return len(dual.generators)


def test_transversals_of_a_triangle_and_a_path():
    # edges of a triangle: every pair of vertices is a minimal cover
    assert minimal_transversals([0b011, 0b110, 0b101]) == (0b011, 0b101, 0b110)
    # path 1-2-3: {2} and {1, 3}
    assert minimal_transversals([0b011, 0b110]) == (0b010, 0b101)


@pytest.mark.parametrize(
    "max_n, field_tag, classes, largest_dual",
    [(6, "q", 155, 38), (5, "f2", 33, 16), (5, "fp:3", 33, 16)],
)
def test_terai_on_every_class(max_n, field_tag, classes, largest_dual):
    sizes = [
        assert_terai(initial_ideal(breadth_first(g)), field_tag)
        for n in range(2, max_n + 1)
        for g in enumerate_graphs(n, dedup=True)
    ]
    assert (len(sizes), max(sizes)) == (classes, largest_dual)


@pytest.mark.parametrize("graph", [complete(7), cycle(8), path(9)], ids=["K7", "C8", "P9"])
def test_terai_on_larger_graphs(graph):
    assert_terai(initial_ideal(graph), "q")
