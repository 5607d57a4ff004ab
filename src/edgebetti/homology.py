"""Reduced simplicial homology ranks from boundary-matrix ranks.

Faces arrive grouped by cardinality (cardinality = dimension + 1, with the
empty face at cardinality 0), so dim H~_d = f_{d+1} - rank d_{d+1} -
rank d_{d+2} in that indexing, where d_c is the boundary map from
cardinality c to c-1.  Including the empty face makes the augmentation map
just another boundary matrix.

Faces come from one enumerator, ``betti._faces_within``; boundaries from
one row builder, ``_boundary_rows``; and every signed rank, over Q or
GF(p), from the one sparse eliminator in ``linalg``.

Over every finite field the ranks are reduced from the top cardinality
down, with clearing (Chen-Kerber, "Persistent homology computation with a
twist", 2011; Bauer-Kerber-Reininghaus, "Clear and compress", 2014).  The
rows reduced for d_c are the boundaries of the c-faces, one row per face
over the positions of the (c-1)-faces.  Eliminating them leaves r = rank
d_c pivot rows z_1, ..., z_r with distinct pivot columns, the pivot
(c-1)-faces p_1, ..., p_r.  Each z_k is a combination of boundaries, hence
a cycle: d_{c-1}(z_k) = 0.  Restricted to the pivot columns, the z_k form
a triangular matrix with nonzero diagonal (see ``linalg`` for the order),
so that block is invertible, and solving the r equations for the terms in
the pivot faces writes each boundary d_{c-1}(p_k) as a combination of
boundaries of non-pivot faces.  The pivot faces add nothing to the column
space of d_{c-1}: their rows are never built or reduced, and the rank of
d_{c-1} is the rank over the remaining faces.  The argument uses only
d o d = 0 and the invertibility of that block, so it holds over any
field; GF(2) reduces packed-int rows with ``rank_gf2``, GF(p) sparse
signed rows with ``rank_mod_p``.  Clearing changes which rows are reduced,
never a rank, so every rank is that of the full boundary matrix, and the
Q filter and pinned escalation below read exact GF(2) ranks.

Over Q a GF(2) pass is also used as a certified vanishing filter: ranks
can only drop modulo a prime, so every reduced homology dimension over
GF(2) bounds the one over Q from above, and a complex that is
GF(2)-acyclic is Q-acyclic.  The filter never contributes a value, only a
skip.
"""

from __future__ import annotations

from .linalg import parse_field, rank_gf2, rank_mod_p, rank_rational


def _boundary_rows(faces: list[list[int]], c: int, p: int, skip=frozenset()) -> list:
    """Boundary of each c-face not in ``skip``, one row per face.

    A row is over the positions of the (c-1)-faces: a packed int when
    p == 2, else a sparse signed dict {position: +-1}, where removing the
    k-th vertex of the face (counting from the lowest slot, k >= 0) has
    sign (-1)^k.  Both forms list the same (c-1)-faces, so every field
    reduces the same matrix up to sign.
    """
    idx = {f: i for i, f in enumerate(faces[c - 1])}
    rows: list = []
    for f in faces[c]:
        if f in skip:
            continue
        t = f
        if p == 2:
            row = 0
            while t:
                low = t & -t
                row |= 1 << idx[f ^ low]
                t ^= low
        else:
            row = {}
            sign = 1
            while t:
                low = t & -t
                row[idx[f ^ low]] = sign
                sign = -sign
                t ^= low
        rows.append(row)
    return rows


def _cleared_ranks(faces: list[list[int]], p: int) -> list[int]:
    """ranks[c] = rank over GF(p) of the boundary map from cardinality c.

    Reduces from the top cardinality down with clearing (see the module
    docstring): the faces whose position is a pivot column of the map
    above get no row.
    """
    top = len(faces) - 1
    ranks = [0] * (top + 2)
    cleared: set[int] = set()
    for c in range(top, 0, -1):
        rows = _boundary_rows(faces, c, p, cleared)
        pivots: list[int] = []
        ranks[c] = rank_gf2(rows, pivots) if p == 2 else rank_mod_p(rows, p, pivots)
        cleared = {faces[c - 1][j] for j in pivots}
    return ranks


def _rational_ranks_pinned(faces: list[list[int]], gf2_ranks: list[int]) -> list[int]:
    """Exact rational boundary ranks, reusing GF(2) ranks where forced.

    Ranks only drop modulo a prime, and reduced homology dimensions are
    nonnegative, so a dimension with vanishing GF(2) homology pins BOTH its
    boundary ranks to the GF(2) values.  Exact elimination is then needed
    only where two consecutive dimensions have nonzero GF(2) homology (the
    signature of possible torsion).
    """
    h2 = _ranks_to_homology(faces, gf2_ranks)
    top = len(faces) - 1
    ranks = list(gf2_ranks)
    for c in range(1, top + 1):
        if h2[c - 1] == 0 or h2[c] == 0:
            continue  # pinned: rank_Q equals the GF(2) rank here
        ranks[c] = rank_rational(_boundary_rows(faces, c, 0))
    return ranks


def _ranks_to_homology(faces: list[list[int]], ranks: list[int]) -> list[int]:
    return [
        len(faces[c]) - ranks[c] - ranks[c + 1] for c in range(len(faces))
    ]


def homology_from_faces(faces: list[list[int]], field: str = "q") -> list[int]:
    """Reduced homology dims indexed by dimension -1, 0, ..., top-1.

    ``faces[c]`` lists the cardinality-c faces; ``faces[0]`` must be ``[0]``
    (the empty face).
    """
    kind, p = parse_field(field)
    if kind == "fp":
        return _ranks_to_homology(faces, _cleared_ranks(faces, p))
    gf2_ranks = _cleared_ranks(faces, 2)
    filtered = _ranks_to_homology(faces, gf2_ranks)
    if not any(filtered):
        return filtered
    return _ranks_to_homology(faces, _rational_ranks_pinned(faces, gf2_ranks))

