"""Exact helpers that only the tests use: GF(p) rank and the arc table of
an expanded graph."""

from __future__ import annotations

import numpy as np

from drackn.arith import gfp_rref
from drackn.covers import ArcMatrix
from drackn.errors import CoverStructureError
from drackn.groups import AbelianGroup


def gfp_rank(rows: list[list[int]], p: int) -> int:
    return len(gfp_rref(rows, p)[0])


def arc_from_adjacency(adj, fibres, group: AbelianGroup) -> ArcMatrix:
    """Recover an arc table from an adjacency matrix and a fibre partition.

    ``fibres`` lists, per quotient vertex, the expanded-graph vertices of its
    fibre; the i-th vertex of each fibre is labelled with the i-th group
    element (in the group's element order).  The labelling of fibre 0 is
    arbitrary, but out of the r! orderings of each later fibre only those
    compatible with the deck action make every matching a group translation;
    the given order is checked as-is, and a ``CoverStructureError`` with
    condition ``non-translation-matching`` reports incompatibility.  For
    r = 2 every ordering works.
    """
    A = np.asarray(adj)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise CoverStructureError("not-square", f"adjacency shape {A.shape}")
    size = A.shape[0]
    if not np.array_equal(A, A.T):
        raise CoverStructureError("not-symmetric", "adjacency matrix must be symmetric")
    if A.diagonal().any():
        raise CoverStructureError("diagonal", "adjacency matrix must have zero diagonal")
    if not np.isin(A, (0, 1)).all():
        raise CoverStructureError("entry-outside-group", "adjacency entries must be 0/1")
    r = group.order
    n = len(fibres)
    if r < 2 or n < 2:
        raise CoverStructureError("too-small", "need n >= 2 fibres of size r >= 2")
    fl = [tuple(int(x) for x in fb) for fb in fibres]
    flat = sorted(x for fb in fl for x in fb)
    if any(len(fb) != r for fb in fl) or flat != list(range(size)) or size != n * r:
        raise CoverStructureError(
            "fibre-partition", f"fibres must partition 0..{size - 1} into {n} cells of size {r}"
        )
    F = np.array(fl)
    blocks = A[F[:, None, :, None], F[None, :, None, :]]  # [u, v, i, j]: F[u, i] ~ F[v, j]
    inner = blocks[np.arange(n), np.arange(n)].any(axis=(1, 2))
    if inner.any():
        raise CoverStructureError("fibre-internal-edge", f"edge inside fibre {np.argmax(inner)}")
    later = np.triu(np.ones((n, n), dtype=bool), 1)
    bad = later & ~((blocks.sum(axis=2) == 1) & (blocks.sum(axis=3) == 1)).all(axis=2)
    if bad.any():
        u, v = (int(i) for i in np.argwhere(bad)[0])
        raise CoverStructureError(
            "non-matching", f"fibres {u} and {v} are not joined by a perfect matching"
        )
    # the i-th vertex of each fibre carries element i: the matching's differences
    diff = group.add_table()[blocks.argmax(axis=3), group.neg_table()[np.arange(r)]]
    bad = later & (diff != diff[..., :1]).any(axis=2)
    if bad.any():
        u, v = (int(i) for i in np.argwhere(bad)[0])
        raise CoverStructureError(
            "non-translation-matching",
            f"the matching between fibres {u} and {v} is not a translation; "
            "the vertex order inside the fibres is incompatible with the "
            "deck action (any order works only for r = 2)",
        )
    index = diff[..., 0]
    np.fill_diagonal(index, -1)
    return ArcMatrix(group, index)
