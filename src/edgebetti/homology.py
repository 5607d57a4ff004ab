"""Reduced simplicial homology ranks from boundary-matrix ranks.

Faces arrive grouped by cardinality (cardinality = dimension + 1, with the
empty face at cardinality 0), so dim H~_d = f_{d+1} - rank d_{d+1} -
rank d_{d+2} in that indexing, where d_c is the boundary map from
cardinality c to c-1.  Including the empty face makes the augmentation map
just another boundary matrix.

Faces come from one enumerator, ``betti._faces_within``; boundaries from
one row builder, ``_boundary_rows``, as sparse signed rows; and every rank
from the one sparse eliminator in ``linalg``, over Q fraction-free and over
GF(p) modulo p, p = 2 included.  Every field reduces the same signed
matrices, in full.  Faces are built only for the residues of Hochster's
formula, the complexes on which no link or deletion reduction fires (see
``betti``), so the matrices are small.
"""

from __future__ import annotations

from .linalg import parse_field, rank_gf2, rank_mod_p, rank_rational


def _boundary_rows(faces: list[list[int]], c: int) -> list[dict[int, int]]:
    """Boundary of each c-face, one sparse signed row {position: +-1} per face.

    Positions index the (c-1)-faces; removing the k-th vertex of the face
    (counting from the lowest slot, k >= 0) has sign (-1)^k.
    """
    idx = {f: i for i, f in enumerate(faces[c - 1])}
    rows = []
    for f in faces[c]:
        row = {}
        sign = 1
        t = f
        while t:
            low = t & -t
            row[idx[f ^ low]] = sign
            sign = -sign
            t ^= low
        rows.append(row)
    return rows


def homology_from_faces(faces: list[list[int]], field: str = "q") -> list[int]:
    """Reduced homology dims indexed by dimension -1, 0, ..., top-1.

    ``faces[c]`` lists the cardinality-c faces; ``faces[0]`` must be ``[0]``
    (the empty face).
    """
    _, p = parse_field(field)
    ranks = [0] * (len(faces) + 1)
    for c in range(1, len(faces)):
        rows = _boundary_rows(faces, c)
        if p == 0:
            ranks[c] = rank_rational(rows)
        elif p == 2:
            ranks[c] = rank_gf2(rows)
        else:
            ranks[c] = rank_mod_p(rows, p)
    return [len(faces[c]) - ranks[c] - ranks[c + 1] for c in range(len(faces))]
