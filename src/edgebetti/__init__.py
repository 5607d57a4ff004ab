"""Betti-table sizes of binomial edge ideals, computed combinatorially.

The public surface: graph construction and operations (graphs), the lex
initial ideal (ideals), exact Betti tables via Hochster's formula with a
Koszul-complex oracle (betti, homology, linalg), witness families and the
realizer (families), theorem checkers (checks), exhaustive atlases
(atlas), and graph6 / report / CLI plumbing.
"""

from .betti import (
    BettiTable,
    EdgelessGraphError,
    PdRegPair,
    betti_table_hochster,
    betti_table_koszul,
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
    "betti_table_koszul",
    "canonical_form",
    "from_edges",
    "graph6_decode",
    "graph6_encode",
    "initial_ideal",
    "pd_reg",
    "pdreg_closed_form",
    "realize",
]
