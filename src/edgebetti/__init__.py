"""Betti-table sizes of binomial edge ideals, computed combinatorially.

The public surface: graph construction and operations (graphs), the lex
initial ideal (ideals), exact Betti tables via Hochster's formula (betti,
homology, linalg), witness families and the realizer (families), theorem
checkers (checks), exhaustive atlases (atlas), and graph6 / report / CLI
plumbing.  A Koszul-complex oracle that the tests check the tables against
lives in ``edgebetti.oracles`` and is not exported here.
"""

from .betti import (
    BettiTable,
    EdgelessGraphError,
    PdRegPair,
    betti_table_hochster,
    pd_reg,
)
from .families import (
    RealizeCert,
    RealizeError,
    pdreg_closed_form,
    realize,
)
from .graph6 import Graph6Error, graph6_decode, graph6_encode
from .graphs import Graph, canonical_form, from_edges
from .ideals import MonomialIdeal, initial_ideal

__all__ = [
    "BettiTable",
    "EdgelessGraphError",
    "Graph",
    "Graph6Error",
    "MonomialIdeal",
    "PdRegPair",
    "RealizeCert",
    "RealizeError",
    "betti_table_hochster",
    "canonical_form",
    "from_edges",
    "graph6_decode",
    "graph6_encode",
    "initial_ideal",
    "pd_reg",
    "pdreg_closed_form",
    "realize",
]
