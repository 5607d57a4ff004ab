"""Reduced simplicial homology ranks from boundary-matrix ranks.

Faces arrive grouped by cardinality (cardinality = dimension + 1, with the
empty face at cardinality 0), so dim H~_d = f_{d+1} - rank d_{d+1} -
rank d_{d+2} in that indexing, where d_c is the boundary map from
cardinality c to c-1.  Including the empty face makes the augmentation map
just another boundary matrix.

Faces come from one enumerator, ``betti._faces_within``, and every signed
rank, over Q or GF(p), from the one sparse eliminator in ``linalg``.

GF(2) ranks are reduced from the top cardinality down, with clearing
(Chen-Kerber, "Persistent homology computation with a twist", 2011;
Bauer-Kerber-Reininghaus, "Clear and compress", 2014).  Reducing the
boundaries of the c-faces by lowest set bit leaves rows z_1, ..., z_r that
are boundaries, hence cycles of d_{c-1}, with distinct lowest bits: the
pivot (c-1)-faces p_1, ..., p_r.  Ordered by pivot, the z_k restricted to
the pivot faces form a triangular matrix with nonzero diagonal, so solving
d_{c-1}(z_k) = 0 for the pivot terms writes each boundary d_{c-1}(p_k) as a
combination of boundaries of non-pivot faces.  The pivot faces add nothing
to the column space of d_{c-1}: their rows are never built or reduced, and
the rank of d_{c-1} is the rank over the remaining faces.  The argument
uses only d o d = 0 and the invertibility of that triangular block, so it
holds over any field.  It is applied to GF(2) only, where ``rank_gf2``
hands back the pivots it computes anyway; the signed Q and GF(p) routes
build full matrices.  Clearing changes which rows are reduced, never a
rank, so every GF(2) rank, and the Q filter and pinned escalation below
that read them, are those of the full boundary matrices.

Over Q a GF(2) pass is also used as a certified vanishing filter: ranks
can only drop modulo a prime, so every reduced homology dimension over
GF(2) bounds the one over Q from above, and a complex that is
GF(2)-acyclic is Q-acyclic.  The filter never contributes a value, only a
skip.
"""

from __future__ import annotations

from .linalg import parse_field, rank_gf2, rank_mod_p, rank_rational


def _sign_position(face: int, v_bit: int) -> int:
    """Index of bit v among the set bits of face, for the boundary sign."""
    return (face & (v_bit - 1)).bit_count()


def _gf2_boundary_ranks(faces: list[list[int]]) -> list[int]:
    """ranks[c] = rank of the boundary map from cardinality c, over GF(2).

    Reduces from the top cardinality down with clearing (see the module
    docstring): a row is the boundary of one c-face, packed over the
    positions of the (c-1)-faces, and the faces whose position is a pivot
    of the map above get no row.
    """
    top = len(faces) - 1
    ranks = [0] * (top + 2)
    cleared: set[int] = set()
    for c in range(top, 0, -1):
        idx = {f: i for i, f in enumerate(faces[c - 1])}
        rows = []
        for f in faces[c]:
            if f in cleared:
                continue
            row = 0
            t = f
            while t:
                low = t & -t
                row |= 1 << idx[f ^ low]
                t ^= low
            rows.append(row)
        pivots: dict[int, int] = {}
        ranks[c] = rank_gf2(rows, pivots)
        lower = faces[c - 1]
        cleared = {lower[low.bit_length() - 1] for low in pivots}
    return ranks


def _signed_boundary_matrix(faces: list[list[int]], c: int) -> list[list[int]]:
    idx = {f: i for i, f in enumerate(faces[c - 1])}
    mat = [[0] * len(faces[c]) for _ in faces[c - 1]]
    for col, f in enumerate(faces[c]):
        t = f
        while t:
            low = t & -t
            sign = -1 if _sign_position(f, low) & 1 else 1
            mat[idx[f ^ low]][col] = sign
            t ^= low
    return mat


def _signed_boundary_ranks(faces: list[list[int]], p: int) -> list[int]:
    """Boundary ranks with signs over GF(p), p an odd prime."""
    top = len(faces) - 1
    ranks = [0] * (top + 2)
    for c in range(1, top + 1):
        ranks[c] = rank_mod_p(_signed_boundary_matrix(faces, c), p)
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
        ranks[c] = rank_rational(_signed_boundary_matrix(faces, c))
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
    if kind == "fp" and p == 2:
        return _ranks_to_homology(faces, _gf2_boundary_ranks(faces))
    if kind == "fp":
        return _ranks_to_homology(faces, _signed_boundary_ranks(faces, p))
    gf2_ranks = _gf2_boundary_ranks(faces)
    filtered = _ranks_to_homology(faces, gf2_ranks)
    if not any(filtered):
        return filtered
    return _ranks_to_homology(faces, _rational_ranks_pinned(faces, gf2_ranks))

