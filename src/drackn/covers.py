"""Arc functions, cover verification, quotients, and adjacency import.

A cover of K_n with abelian deck group G is stored as an ``ArcMatrix``: an
n x n table whose (u, v) entry, u != v, is the group element f(u, v) with
f(v, u) = -f(u, v).  The expanded graph has vertex set {0..n-1} x G, with
(u, g) adjacent to (v, h) iff u != v and h - g = f(u, v).

``drackn_verify`` proves the defining regularity conditions from one exact
integer table, the group-ring counts
N_uv(x) = #{w not in {u, v} : f(u, w) + f(w, v) = x}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import gfp_rref
from .errors import (
    CoverStructureError,
    RoutesDisagreeError,
    UnsupportedError,
    VerificationError,
)
from .feasibility import ParameterSet, spectral_params, _as_fraction, _fmt
from .groups import AbelianGroup, subgroup_closure
from .quadratic import QuadNum


def _check_arc_table(group: AbelianGroup, rows) -> None:
    n = len(rows)
    if n < 2:
        raise CoverStructureError("too-small", f"need at least 2 fibres, got {n}")
    for u, row in enumerate(rows):
        if len(row) != n:
            raise CoverStructureError("not-square", f"row {u} has {len(row)} entries, want {n}")
    for u in range(n):
        if rows[u][u] is not None:
            raise CoverStructureError("diagonal", f"entry ({u},{u}) must be None")
        for v in range(n):
            if u == v:
                continue
            if not group.contains(rows[u][v]):
                raise CoverStructureError(
                    "entry-outside-group", f"f({u},{v}) = {rows[u][v]!r} is not in {group}"
                )
    for u in range(n):
        for v in range(u + 1, n):
            if group.coerce(rows[v][u]) != group.neg(rows[u][v]):
                raise CoverStructureError(
                    "inverse-pair", f"f({v},{u}) != -f({u},{v}) at ({u},{v})"
                )


class ArcMatrix:
    """Validated arc function of an n-fibre cover with abelian deck group."""

    __slots__ = ("group", "entries")

    def __init__(self, group: AbelianGroup, entries):
        rows = tuple(
            tuple(None if e is None else group.coerce(e) for e in row) for row in entries
        )
        _check_arc_table(group, rows)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("ArcMatrix is immutable")

    @property
    def n(self) -> int:
        return len(self.entries)

    def entry(self, u: int, v: int):
        return self.entries[u][v]

    def is_normalized(self) -> bool:
        e = self.group.identity
        return all(self.entries[0][v] == e for v in range(1, self.n))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ArcMatrix):
            return NotImplemented
        return self.group == other.group and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.group, self.entries))

    def __repr__(self) -> str:
        return f"ArcMatrix(n={self.n}, group={self.group})"


def normalize(f: ArcMatrix) -> ArcMatrix:
    """Gauge-equivalent arc table whose first row is the identity.

    Replaces f(u, v) by f(u, v) + h_v - h_u with h_v = -f(0, v); the expanded
    graph is unchanged up to relabelling within fibres.
    """
    g = f.group
    n = f.n
    shifts = [g.identity] + [g.neg(f.entry(0, v)) for v in range(1, n)]
    entries = [
        [
            None if u == v else g.add(g.sub(f.entry(u, v), shifts[u]), shifts[v])
            for v in range(n)
        ]
        for u in range(n)
    ]
    return ArcMatrix(g, entries)


@dataclass(frozen=True)
class CoverCertificate:
    """Successful verification summary: parameters, spectrum, checks run."""

    params: ParameterSet
    spectrum: tuple[tuple[Fraction | QuadNum, int], ...]
    checks_passed: tuple[str, ...]

    def __post_init__(self):
        n, r = self.params.n, self.params.r
        total = sum(m for _, m in self.spectrum)
        trace = sum(ev * m for ev, m in self.spectrum)
        assert total == r * n, "spectrum multiplicities must sum to rn"
        assert trace == 0, "spectrum must have zero trace"

    def spectrum_str(self) -> str:
        return " ".join(f"{_fmt(ev)}^{m}" for ev, m in self.spectrum)


def _count_table(idx: np.ndarray, add: np.ndarray) -> np.ndarray:
    """N[u, v, x] = #{w not in {u, v} : f(u, w) + f(w, v) = x}.

    ``idx`` holds the element index of f(u, v) (the diagonal is ignored) and
    ``add`` is the group's addition table on element indices.  One bincount
    per fibre u keeps the working memory at O(n^2) beside the n x n x r table.
    """
    n, r = idx.shape[0], add.shape[0]
    off = ~np.eye(n, dtype=bool)
    rows = np.arange(n)[:, None] * r
    table = np.empty((n, n, r), dtype=np.int64)
    for u in range(n):
        keep = off & off[u][None, :] & off[u][:, None]  # [v, w]: w, v, u distinct
        keys = rows + add[idx[u][None, :], idx.T]  # [v, w]: f(u, w) + f(w, v)
        table[u] = np.bincount(keys[keep], minlength=n * r).reshape(n, r)
    return table


def drackn_verify(f: ArcMatrix) -> CoverCertificate:
    """Fully verify a cover from its group-ring count table.

    The expanded graph of any arc table is (n-1)-regular, its fibres are
    independent sets joined by perfect matchings, and fibre mates share no
    neighbour.  Write vertex (u, g) as u*r + index(g) after normalizing.
    Then (u, g) and (v, g + x), u != v, have N_uv(x) common neighbours, and
    fibre mates (u, g), (u, g + x) are at distance 3 iff
    N_uv(x + f(u, v)) > 0 for some v.  By Godsil and Hensel (JCTB 56, 1992)
    the graph is an (n, r, c) cover iff every non-adjacent cross-fibre pair
    has exactly c >= 1 common neighbours, i.e. N_uv(x) = c for x != f(u, v).

    The checks read the table in the order of a scan over the expanded
    graph: fibre by fibre, first the fibre's mates and then its pairs with
    later fibres; c is the count of the first such pair.  The first fibre-0
    mate not reached at distance 3 is ``not-connected`` when it lies outside
    the subgroup generated by the arc values, else ``not-antipodal``; a
    later miss is ``not-antipodal`` and a count other than c >= 1 is
    ``not-distance-regular``.

    The character blocks follow without a matrix product (Fourier lemma):
    (B_chi^2)[u, v] = sum_x N_uv(x) chi(x) for u != v, and the diagonal is
    n - 1.  Constant counts force N_uv(f(u, v)) = n - 2 - (r - 1)c, and
    sum_x chi(x) = 0 for chi != 1, so B_chi^2 = delta*B_chi + (n-1)I with
    delta = n - rc - 2 for every non-trivial character at once.

    Returns the certificate on success; raises ``VerificationError`` with a
    condition keyword and witness when the expanded graph is not a cover with
    the required regularity, and ``UnsupportedError`` for deck groups without
    prime exponent.
    """
    g = normalize(f)
    n = g.n
    G = g.group
    r = G.order
    if r < 2:
        raise UnsupportedError("verification needs fibre size r >= 2")
    if G.prime_exponent is None:
        raise UnsupportedError(
            f"deck group with orders {G.orders} does not have prime exponent"
        )
    els = G.elements()
    idx = np.array(
        [[0 if u == v else G.index(g.entry(u, v)) for v in range(n)] for u in range(n)],
        dtype=np.int64,
    )
    add = np.array([[G.index(G.add(a, b)) for b in els] for a in els], dtype=np.int64)
    table = _count_table(idx, add)
    c = int(table[0, 1, 1])  # pair (0, e), (1, els[1]); f(0, 1) = e after normalizing
    for u in range(n):
        others = np.flatnonzero(np.arange(n) != u)
        # [v, x]: some w gives f(u, w) + f(w, v) = x + f(u, v)
        reached = (table[u][others[:, None], add[:, idx[u, others]].T] > 0).any(axis=0)
        if not reached[1:].all():
            x = int(np.argmin(reached[1:])) + 1
            arcs = {a for row in g.entries for a in row if a is not None}
            if u == 0 and els[x] not in subgroup_closure(G, arcs):
                raise VerificationError("not-connected", f"no path joins 0 and {x}")
            raise VerificationError(
                "not-antipodal", f"fibre mates {u * r},{u * r + x} are not at distance 3"
            )
        later = table[u, u + 1:]
        bad = (later != c) | (later < 1)
        bad[np.arange(n - u - 1), idx[u, u + 1:]] = False
        if bad.any():
            v, x = (int(k) for k in np.argwhere(bad)[0])
            pair = f"{u * r},{(u + 1 + v) * r + x}"
            k = int(later[v, x])
            raise VerificationError(
                "not-distance-regular",
                f"cross-fibre pair {pair} has no common neighbour"
                if k < 1
                else f"pair {pair} has {k} common neighbours, pair (0, {r + 1}) has {c}",
            )
    checks = [
        "arc-structure",
        "regular",
        "connected",
        "antipodal",
        "distance-regular",
        "character-blocks",
    ]

    params = spectral_params(n, r, c)
    mt, mtau = params.m_theta, params.m_tau
    for name, m in (("m_theta", mt), ("m_tau", mtau)):
        q = m.rational_value() if isinstance(m, QuadNum) and m.is_rational() else m
        if isinstance(q, QuadNum) or q.denominator != 1 or q.numerator % (r - 1):
            raise RoutesDisagreeError(f"verified cover has inadmissible {name} = {m}")
    mt_i, mtau_i = int(_as_fraction(mt)), int(_as_fraction(mtau))
    checks.append("multiplicities-integral")

    spectrum = (
        (Fraction(n - 1), 1),
        (params.theta, mt_i),
        (Fraction(-1), n - 1),
        (params.tau, mtau_i),
    )
    return CoverCertificate(params=params, spectrum=spectrum, checks_passed=tuple(checks))


def quotient(f: ArcMatrix, generators) -> ArcMatrix:
    """Cover obtained by factoring the deck group by <generators>.

    An (n, r, c) cover maps onto an (n, r/s, sc) cover for each subgroup of
    order s.  Implemented for elementary abelian deck groups (and the trivial
    cases): the generated subgroup is row-reduced over GF(p) and the
    non-pivot coordinates form the quotient group.
    """
    G = f.group
    gens = [G.coerce(x) for x in generators]
    gens = [x for x in gens if x != G.identity]
    if not gens:
        return f
    p = G.prime_exponent
    if p is None or any(d != p for d in G.orders):
        raise UnsupportedError(
            f"quotients need an elementary abelian deck group, got orders {G.orders}"
        )
    s = G.rank
    rows, pivots = gfp_rref([list(x) for x in gens], p)
    if len(rows) == s:
        quot: AbelianGroup = AbelianGroup(())
    else:
        quot = AbelianGroup((p,) * (s - len(rows)))
    nonpivots = [j for j in range(s) if j not in pivots]

    def project(el):
        v = list(el)
        for row, pc in zip(rows, pivots):
            coef = v[pc] % p
            if coef:
                v = [(x - coef * y) % p for x, y in zip(v, row)]
        return tuple(v[j] for j in nonpivots)

    n = f.n
    entries = [
        [None if u == v else project(f.entry(u, v)) for v in range(n)] for u in range(n)
    ]
    return ArcMatrix(quot, entries)


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
    for u, fb in enumerate(fl):
        if A[np.ix_(fb, fb)].any():
            raise CoverStructureError("fibre-internal-edge", f"edge inside fibre {u}")
    for u in range(n):
        for v in range(u + 1, n):
            block = A[np.ix_(fl[u], fl[v])]
            if not (block.sum(axis=0) == 1).all() or not (block.sum(axis=1) == 1).all():
                raise CoverStructureError(
                    "non-matching", f"fibres {u} and {v} are not joined by a perfect matching"
                )
    els = group.elements()
    label = {}
    for k, x in enumerate(fl[0]):
        label[x] = els[k]
    for u in range(1, n):
        for k, y in enumerate(fl[u]):
            label[y] = els[k]
    entries: list[list] = [[None] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            diffs = {
                group.sub(label[y], label[x])
                for x in fl[u]
                for y in fl[v]
                if A[x, y]
            }
            if len(diffs) != 1:
                raise CoverStructureError(
                    "non-translation-matching",
                    f"the matching between fibres {u} and {v} is not a translation; "
                    "the vertex order inside the fibres is incompatible with the "
                    "deck action (any order works only for r = 2)",
                )
            d = diffs.pop()
            entries[u][v] = d
            entries[v][u] = group.neg(d)
    return ArcMatrix(group, entries)
