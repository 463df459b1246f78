"""Exact helpers that only the tests use: GF(p) rank, subgroup closure, the
arc table of an expanded graph, and Seidel and Gram matrices as exact
``CycNum``/``ExactMatrix`` values."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

import numpy as np

from drackn.arith import gfp_rref, is_prime, sqrt_exact
from drackn.covers import ArcMatrix
from drackn.cyclotomic import CycNum
from drackn.errors import CoverStructureError, VerificationError
from drackn.exact_matrix import ExactMatrix
from drackn.groups import AbelianGroup
from drackn.lines import LineSet, SeidelMatrix, SeidelSpectrum
from drackn.quadratic import QuadNum


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


def subgroup_closure(group: AbelianGroup, generators: Iterable) -> set[tuple[int, ...]]:
    """The subgroup generated by the given elements (breadth-first closure)."""
    gens = [group.coerce(g) for g in generators]
    seen = {group.identity}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                s = group.add(h, g)
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return seen


def rational_of(x) -> Fraction | None:
    """Exact rational value of x, or None when x is irrational."""
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (QuadNum, CycNum)):
        return x.rational_value() if x.is_rational() else None
    return None


def signed_root(i: int, root_order: int | None):
    """The entry (-1)^h zeta_q^k with index i = h*q + k."""
    h, k = divmod(i, root_order or 2)
    if root_order is None:
        return Fraction(1 - 2 * h)
    return (1 - 2 * h) * CycNum.zeta_pow(root_order, k)


def seidel_of_values(entries, root_order: int | None = None) -> SeidelMatrix:
    """The Seidel matrix of nested rows of ints, ``Fraction`` and ``CycNum``
    values, with the ``ValueError`` texts of ``SeidelMatrix``."""
    rows = [list(row) for row in entries]
    n = len(rows)
    if n < 2 or any(len(row) != n for row in rows):
        shape = (n, len(rows[0]) if rows else 0)
        raise ValueError(f"Seidel matrix must be square of order >= 2, got {shape}")
    if root_order is not None and not is_prime(root_order):
        raise ValueError(f"root_order must be a prime or None, got {root_order}")
    q = root_order or 2
    valid = [i for i in range(2 * q) if q > 2 or i % 2 == 0]  # zeta_2 = -1 is h = 1
    u = next((u for u, row in enumerate(rows) if row[u] != 0), None)
    if u is not None:
        raise ValueError(f"diagonal entry ({u},{u}) is {rows[u][u]!r}, not 0")
    table = {signed_root(i, root_order): i for i in valid}
    index = np.array([[table.get(e, -1) for e in row] for row in rows], dtype=np.int64)
    np.fill_diagonal(index, 0)
    bad = np.argwhere(index < 0)
    if len(bad):
        u, v = (int(i) for i in bad[0])
        raise ValueError(f"entry ({u},{v}) = {rows[u][v]!r} is not +-zeta_{q}^k")
    return SeidelMatrix(index, root_order)


def _exact(s: SeidelMatrix, fn, diagonal) -> ExactMatrix:
    """``diagonal`` on the diagonal and fn(S[u, v]) off it."""
    values = {i: fn(signed_root(i, s.root_order)) for i in np.unique(s.index).tolist()}
    return ExactMatrix(
        tuple(
            tuple(diagonal if u == v else values[i] for v, i in enumerate(row))
            for u, row in enumerate(s.index.tolist())
        )
    )


def seidel_mat(s: SeidelMatrix) -> ExactMatrix:
    """S as an exact matrix."""
    return _exact(s, lambda e: e, Fraction(0))


def gram(ls: LineSet) -> ExactMatrix:
    """The Gram matrix G = I - S/lam of a line set, as an exact matrix."""
    lam = ls.lam
    # QuadNum and CycNum do not mix: with a surd lam the entries are +-1
    rational = isinstance(lam, QuadNum) and not lam.is_rational()
    return _exact(ls.seidel, lambda e: -((rational_of(e) if rational else e) / lam), Fraction(1))


def exact_square_two_eigenvalue_data(s: SeidelMatrix) -> SeidelSpectrum:
    """The exact-square route that ``two_eigenvalue_data`` replaced: verify
    S^2 = aS + (n-1)I on exact entries, in row-major order, and return the
    eigenvalue data.

    Raises ``VerificationError`` with condition ``not-two-eigenvalue`` when S
    has more than two eigenvalues (witnessed by the first nonzero entry of
    S^2 - aS - (n-1)I, or by a multiplicity obstruction in the irrational
    case).
    """
    n = s.n
    rows = seidel_mat(s).rows

    def square(u, v):
        return sum(rows[u][w] * rows[w][v] for w in range(n))

    a_val = square(0, 1) / rows[0][1]
    a = rational_of(a_val)
    if a is None:
        raise VerificationError(
            "not-two-eigenvalue", f"S^2[0,1]/S[0,1] = {a_val!r} is not rational"
        )
    for u in range(n):
        for v in range(n):
            diff = square(u, v) - rows[u][v] * a - (n - 1 if u == v else 0)
            if diff != 0:
                raise VerificationError(
                    "not-two-eigenvalue", f"(S^2 - {a}S - {n - 1}I)[{u},{v}] = {diff!r}"
                )
    disc = a * a + 4 * (n - 1)
    num, den = sqrt_exact(disc.numerator), sqrt_exact(disc.denominator)
    if num is not None and den is not None:
        root = Fraction(num, den)
        theta: Fraction | QuadNum = (a + root) / 2
        tau: Fraction | QuadNum = (a - root) / 2
        mt = n * (-tau) / (theta - tau)
        mtau = n * theta / (theta - tau)
        if mt.denominator != 1 or mtau.denominator != 1 or mt < 1 or mtau < 1:
            raise VerificationError(
                "not-two-eigenvalue",
                f"multiplicities {mt}, {mtau} are not positive integers",
            )
        return SeidelSpectrum(theta, tau, int(mt), int(mtau))
    if a != 0:
        raise VerificationError(
            "not-two-eigenvalue",
            f"irrational eigenvalues with trace {a}*m != 0 cannot balance",
        )
    if n % 2:
        raise VerificationError(
            "not-two-eigenvalue", f"eigenvalues +-sqrt({n - 1}) need even order, got {n}"
        )
    root_q = QuadNum.sqrt(Fraction(n - 1))
    return SeidelSpectrum(root_q, -root_q, n // 2, n // 2)
