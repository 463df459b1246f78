"""Arc tables, gauge normalization, full cover verification, and quotients."""

from __future__ import annotations

import functools
import math
import random
import re
import tracemalloc
from collections import Counter, deque
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from count_routes import ROUTES, SETTINGS, count_route
from oracles import (
    arc_from_adjacency,
    check_arc_index,
    fibre_zero_switches,
    one_arc_change,
    subgroup_closure,
)

from drackn import covers
from drackn.arith import is_prime
from drackn.constructions import cover_to_gh, dcff, gh_to_cover, thas_somma
from drackn.covers import (
    ArcMatrix,
    _count_blocks,
    cover_certificate,
    drackn_verify,
    normalize,
    quotient,
)
from drackn.errors import (
    CoverStructureError,
    GroupMismatchError,
    RoutesDisagreeError,
    UnsupportedError,
    VerificationError,
)
from drackn.feasibility import feasibility_battery
from drackn.lines import cover_to_lines, two_eigenvalue_data
from drackn.groups import AbelianGroup, regular_expand


def cover_933() -> ArcMatrix:
    return thas_somma(3, 2)


def test_verify_933_certificate():
    cert = drackn_verify(cover_933())
    p = cert.params
    assert (p.n, p.r, p.c) == (9, 3, 3)
    assert p.delta == -2
    assert p.theta == 2
    assert p.tau == -4
    assert cert.spectrum_str() == "8^1 2^12 -1^8 -4^6"
    assert cert.checks_passed == (
        "arc-structure",
        "regular",
        "connected",
        "antipodal",
        "distance-regular",
        "character-blocks",
        "multiplicities-integral",
    )


def test_certificate_spectrum_invariants():
    cert = drackn_verify(cover_933())
    n, r = cert.params.n, cert.params.r
    assert sum(m for _, m in cert.spectrum) == r * n
    assert sum(ev * m for ev, m in cert.spectrum) == 0
    assert cert.spectrum[0] == (Fraction(8), 1)


def test_normalize_first_row_is_identity():
    f = cover_933()
    g = normalize(f)
    ident = g.group.identity
    assert all(g.entry(0, v) == ident for v in range(1, g.n))
    assert g.is_normalized()
    # normalizing twice changes nothing
    assert normalize(g) == g


def test_gauge_shift_leaves_certificate_unchanged():
    f = cover_933()
    base = drackn_verify(f)
    rng = random.Random(41)
    G = f.group
    els = G.elements()
    shifts = [rng.choice(els) for _ in range(f.n)]
    entries = [
        [
            None
            if u == v
            else G.add(G.sub(f.entry(u, v), shifts[u]), shifts[v])
            for v in range(f.n)
        ]
        for u in range(f.n)
    ]
    shifted = ArcMatrix(G, entries)
    cert = drackn_verify(shifted)
    assert cert == base
    assert normalize(shifted) == normalize(f)


def test_arc_matrix_rejects_bad_tables():
    Z2 = AbelianGroup((2,))
    e, x = (0,), (1,)
    # diagonal must be None
    with pytest.raises(CoverStructureError):
        ArcMatrix(Z2, [[e, x], [x, e]])
    # antisymmetry: f(v, u) must equal -f(u, v)
    Z3 = AbelianGroup((3,))
    with pytest.raises(CoverStructureError):
        ArcMatrix(Z3, [[None, (1,)], [(1,), None]])
    # ragged rows
    with pytest.raises(CoverStructureError):
        ArcMatrix(Z2, [[None, x], [x]])
    # entries of the wrong shape for the group are rejected outright
    with pytest.raises(GroupMismatchError):
        ArcMatrix(Z2, [[None, (2, 0)], [(2, 0), None]])


def test_verify_disconnected_expansion_fails():
    # all-identity arc table expands to r disjoint copies of K_n
    Z2 = AbelianGroup((2,))
    e = (0,)
    n = 5
    entries = [[None if u == v else e for v in range(n)] for u in range(n)]
    f = ArcMatrix(Z2, entries)
    with pytest.raises(VerificationError) as exc:
        drackn_verify(f)
    assert exc.value.condition == "not-connected"


def test_verify_needs_prime_exponent_group():
    Z4 = AbelianGroup((4,))
    n = 3
    e = (0,)
    entries = [[None if u == v else e for v in range(n)] for u in range(n)]
    with pytest.raises(UnsupportedError):
        drackn_verify(ArcMatrix(Z4, entries))


def test_verify_irregular_c_fails():
    # swap one arc of the (9,3,3) table: the expansion stays a cover of K_9
    # wrt matchings but the distance partition degenerates
    f = cover_933()
    G = f.group
    entries = [list(row) for row in f.entries]
    u, v = 0, 1
    bad = G.add(f.entry(u, v), (1,))
    entries[u][v] = bad
    entries[v][u] = G.neg(bad)
    with pytest.raises(VerificationError):
        drackn_verify(ArcMatrix(G, entries))


def test_quotient_no_generators_is_identity():
    f = cover_933()
    assert quotient(f, []) is f
    assert quotient(f, [(0,)]) is f  # identity generator is discarded


def test_quotient_by_full_group_gives_trivial_cover():
    f = dcff(1, 1)  # (4, 2, 2) with deck group Z/2
    q = quotient(f, [(1,)])
    assert q.group.order == 1
    assert q.group.orders == ()
    assert all(q.entry(u, v) == () for u in range(q.n) for v in range(q.n) if u != v)


def test_every_proper_quotient_of_dcff15_is_a_cover():
    """Godsil and Hensel's quotient lattice: an (n, r, c) cover maps onto an
    (n, r/s, sc) cover for each subgroup of order s.  All 372 subgroups of
    order 1 < s < 32 of the deck group of dcff(1, 5), a (64, 32, 2) cover;
    each quotient, stored unchecked, also passes ``ArcMatrix``'s checks."""
    f = dcff(1, 5)
    G, add = f.group, f.group.add_table()
    subgroups, level = set(), {frozenset([0])}  # as element indices
    while level:  # in (Z/2)^5, S and S + x make up the span of S and x
        level = {S | frozenset(add[sorted(S), x].tolist()) for S in level for x in range(G.order)}
        level -= subgroups
        subgroups |= level
    proper = [S for S in subgroups if 1 < len(S) < G.order]
    assert len(proper) == 31 + 155 + 155 + 31
    els = G.elements()
    for S in proper:
        q = quotient(f, [els[i] for i in sorted(S)])
        assert ArcMatrix(q.group, np.array(q.index)) == q
        p = drackn_verify(q).params
        assert (p.n, p.r, p.c) == (64, 32 // len(S), 2 * len(S))


def _normalized_tables(n: int, G: AbelianGroup):
    """Every arc table over G on n fibres whose row 0 is the identity: one
    index array per choice of f(u, v), 1 <= u < v, built in one numpy call."""
    iu = np.triu_indices(n - 1, 1)
    choices = np.indices((G.order,) * len(iu[0])).reshape(len(iu[0]), -1).T
    index = np.zeros((len(choices), n, n), dtype=np.int64)
    index[:, iu[0] + 1, iu[1] + 1] = choices
    index[:, iu[1] + 1, iu[0] + 1] = G.neg_table()[choices]
    index[:, np.arange(n), np.arange(n)] = -1
    return [ArcMatrix(G, table) for table in index]


def test_census_of_small_normalized_tables():
    """Every normalized arc table at (5, Z/2), (6, Z/2), (5, Z/3) and
    (5, (Z/2)^2), 5,913 in all: ``drackn_verify`` has the verdict and tag of
    the expanded-graph scan and the tag and witness of the per-fibre scan,
    and the covers it finds are exactly the triples that pass the
    feasibility battery with 1 <= c <= n - 2."""
    found, tags = Counter(), Counter()
    for n, orders in ((5, (2,)), (6, (2,)), (5, (3,)), (5, (2, 2))):
        G = AbelianGroup(orders)
        tables = _normalized_tables(n, G)
        assert len(tables) == G.order ** ((n - 1) * (n - 2) // 2)
        for f in tables:
            got = _outcome(lambda t: drackn_verify(t).params.c, f)
            assert got == _outcome(_expanded_graph_scan, f), (n, orders, f.entries)
            assert _verdict(drackn_verify, f)[1] == _verdict(_per_fibre_scan, f)[1], f.entries
            c, tag = got
            if tag is None:
                found[n, G.order, c] += 1
            else:
                tags[n, orders, tag] += 1
        feasible = {
            (n, G.order, c) for c in range(1, n - 1) if feasibility_battery(n, G.order, c).passed
        }
        assert {t for t in found if t[:2] == (n, G.order)} == feasible
    assert found == {(5, 2, 3): 1, (6, 2, 2): 12, (6, 2, 4): 1}
    assert tags[5, (2, 2), "not-connected"] == 190 and tags[5, (2, 2), "not-antipodal"] == 1806


def test_quotient_order_two_subgroups_of_dcff13():
    f = dcff(1, 3)  # (16, 8, 2) with deck group (Z/2)^3
    G = f.group
    for gen in G.elements():
        if gen == G.identity:
            continue
        q = quotient(f, [gen])
        cert = drackn_verify(q)
        assert (cert.params.n, cert.params.r, cert.params.c) == (16, 4, 4)


def test_quotient_composition():
    f = dcff(1, 3)
    g1 = (1, 0, 0)
    both = quotient(f, [g1, (0, 1, 0)])
    step1 = quotient(f, [g1])  # pivot coord 0 dropped; coords (1, 2) remain
    step2 = quotient(step1, [(1, 0)])  # original (0, 1, 0) in the new coords
    assert both == step2
    cert = drackn_verify(both)
    assert (cert.params.n, cert.params.r, cert.params.c) == (16, 2, 8)


def test_quotient_needs_elementary_abelian():
    Z4 = AbelianGroup((4,))
    n = 3
    e = (0,)
    entries = [[None if u == v else e for v in range(n)] for u in range(n)]
    f = ArcMatrix(Z4, entries)
    with pytest.raises(UnsupportedError):
        quotient(f, [(2,)])


def test_arc_from_adjacency_round_trip():
    f = cover_933()
    adj = regular_expand(f)
    r = f.group.order
    fibres = [tuple(range(u * r, (u + 1) * r)) for u in range(f.n)]
    g = arc_from_adjacency(adj, fibres, f.group)
    assert g == f
    cert = drackn_verify(g)
    assert (cert.params.n, cert.params.r, cert.params.c) == (9, 3, 3)


def test_arc_from_adjacency_shuffled_fibre_order_r2():
    # for r = 2 any vertex order inside fibres is compatible with the deck action
    f = dcff(1, 1)
    adj = regular_expand(f)
    fibres = [(1, 0), (2, 3), (5, 4), (6, 7)]
    g = arc_from_adjacency(adj, fibres, f.group)
    cert = drackn_verify(g)
    assert (cert.params.n, cert.params.r, cert.params.c) == (4, 2, 2)


def test_arc_from_adjacency_rejects_fibre_internal_edge():
    # complete graph on 8 vertices has edges inside any claimed fibre
    size = 8
    adj = np.ones((size, size), dtype=np.int64) - np.eye(size, dtype=np.int64)
    fibres = [(0, 1), (2, 3), (4, 5), (6, 7)]
    with pytest.raises(CoverStructureError) as exc:
        arc_from_adjacency(adj, fibres, AbelianGroup((2,)))
    assert exc.value.condition == "fibre-internal-edge"


def test_arc_from_adjacency_rejects_bad_inputs():
    Z2 = AbelianGroup((2,))
    with pytest.raises(CoverStructureError) as exc:
        arc_from_adjacency(np.zeros((3, 4), dtype=np.int64), [(0, 1)], Z2)
    assert exc.value.condition == "not-square"
    # partition must cover 0..size-1 with cells of size r
    adj = regular_expand(dcff(1, 1))
    with pytest.raises(CoverStructureError) as exc:
        arc_from_adjacency(adj, [(0, 1), (2, 3), (4, 5), (6, 6)], Z2)
    assert exc.value.condition == "fibre-partition"
    asym = np.zeros((4, 4), dtype=np.int64)
    asym[0, 1] = 1
    with pytest.raises(CoverStructureError) as exc:
        arc_from_adjacency(asym, [(0, 1), (2, 3)], Z2)
    assert exc.value.condition == "not-symmetric"


def test_arc_from_adjacency_rejects_non_matching():
    # doubled edge pattern between two fibres: not a perfect matching
    adj = np.zeros((4, 4), dtype=np.int64)
    for x, y in ((0, 2), (0, 3), (1, 2), (1, 3)):
        adj[x, y] = adj[y, x] = 1
    with pytest.raises(CoverStructureError) as exc:
        arc_from_adjacency(adj, [(0, 1), (2, 3)], AbelianGroup((2,)))
    assert exc.value.condition == "non-matching"


def test_arc_from_adjacency_rejects_non_translation_matching():
    # r = 3: reorder one fibre so its matchings are no longer translations
    f = cover_933()
    adj = regular_expand(f)
    r = 3
    fibres = [tuple(range(u * r, (u + 1) * r)) for u in range(f.n)]
    fibres[3] = (fibres[3][0], fibres[3][2], fibres[3][1])
    with pytest.raises(CoverStructureError) as exc:
        arc_from_adjacency(adj, fibres, f.group)
    assert exc.value.condition == "non-translation-matching"


# -- differential test: the count table against a scan of the expanded graph --


def _bfs_dist(nbrs: list[list[int]], src: int, size: int) -> list[int]:
    dist = [-1] * size
    dist[src] = 0
    q = deque([src])
    while q:
        x = q.popleft()
        dx = dist[x]
        for y in nbrs[x]:
            if dist[y] < 0:
                dist[y] = dx + 1
                q.append(y)
    return dist


def _combinatorial_route(adj: np.ndarray, n: int, r: int) -> int:
    """Check the distance partition of the expanded graph; return c."""
    rn = n * r
    deg = adj.sum(axis=1)
    if not (deg == n - 1).all():
        v = int(np.argmax(deg != n - 1))
        raise VerificationError(
            "not-regular", f"vertex {v} has degree {int(deg[v])}, expected {n - 1}"
        )
    nbrs = [np.flatnonzero(adj[i]).tolist() for i in range(rn)]
    common = adj @ adj
    c = None
    first_pair = None
    for u in range(rn):
        dist = _bfs_dist(nbrs, u, rn)
        for v in range(u + 1, rn):
            if dist[v] < 0:
                raise VerificationError("not-connected", f"no path joins {u} and {v}")
            if adj[u, v]:
                continue
            k = int(common[u, v])
            if u // r == v // r:
                if k != 0 or dist[v] != 3:
                    raise VerificationError(
                        "not-antipodal",
                        f"fibre mates {u},{v}: distance {dist[v]}, "
                        f"{k} common neighbours (want 3, 0)",
                    )
            else:
                if dist[v] != 2 or k < 1:
                    raise VerificationError(
                        "not-distance-regular",
                        f"cross-fibre pair {u},{v} at distance {dist[v]}",
                    )
                if c is None:
                    c, first_pair = k, (u, v)
                elif k != c:
                    raise VerificationError(
                        "not-distance-regular",
                        f"pair {u},{v} has {k} common neighbours, "
                        f"pair {first_pair} has {c}",
                    )
    if c is None:
        raise VerificationError(
            "not-antipodal", "every cross-fibre pair is adjacent (complete quotient fibre)"
        )
    return c


def _outcome(check, f):
    try:
        return check(f), None
    except VerificationError as exc:
        return None, exc.condition


def _expanded_graph_scan(f: ArcMatrix) -> int:
    g = normalize(f)
    return _combinatorial_route(regular_expand(g), g.n, g.group.order)


def _random_tables(count: int, seed: int):
    rng = random.Random(seed)
    groups = [AbelianGroup(o) for o in ((2,), (3,), (5,), (7,), (2, 2), (2, 2, 2), (3, 3))]
    for _ in range(count):
        G = rng.choice(groups)
        n = rng.randint(2, 10)
        els = G.elements()
        entries = [[None] * n for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                entries[u][v] = rng.choice(els)
                entries[v][u] = G.neg(entries[u][v])
        yield ArcMatrix(G, entries)


def _one_arc_changes(f: ArcMatrix):
    G = f.group
    for u in range(f.n):
        for v in range(u + 1, f.n):
            for x in G.elements():
                if x == f.entry(u, v):
                    continue
                entries = [list(row) for row in f.entries]
                entries[u][v], entries[v][u] = x, G.neg(x)
                yield ArcMatrix(G, entries)


def test_count_table_agrees_with_expanded_graph_scan():
    tables = list(_random_tables(1000, seed=20261018))
    tables += list(_one_arc_changes(cover_933())) + [cover_933(), dcff(1, 1), dcff(1, 3)]
    accepted = []
    tags = set()
    for f in tables:
        want = _outcome(_expanded_graph_scan, f)
        got = _outcome(lambda t: drackn_verify(t).params.c, f)
        assert got == want, (f.group, f.entries)
        tags.add(got[1])
        if got[0] is not None:
            accepted.append((f, got[0]))
    assert {"not-connected", "not-antipodal", "not-distance-regular", None} <= tags
    assert len(accepted) >= 10
    for f, c in accepted:
        n, r = f.n, f.group.order
        graph = nx.from_numpy_array(regular_expand(f))
        assert nx.intersection_array(graph) == ([n - 1, (r - 1) * c, 1], [1, c, n - 1])


# The per-fibre count table and scan loop that ``_count_blocks`` and the
# blockwise checks of ``drackn_verify`` replaced, kept as their oracle.


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


def _per_fibre_scan(f: ArcMatrix) -> int:
    """c of the cover f, or the ``VerificationError`` of the first failing fibre."""
    g = normalize(f)
    n = g.n
    G = g.group
    r = G.order
    els = G.elements()
    idx, add = g.index, G.add_table()
    table = _count_table(idx, add)
    c = int(table[0, 1, 1])  # pair (0, e), (1, els[1]); f(0, 1) = e after normalizing
    for u in range(n):
        others = np.flatnonzero(np.arange(n) != u)
        # [v, x]: some w gives f(u, w) + f(w, v) = x + f(u, v)
        reached = (table[u][others[:, None], add[:, idx[u, others]].T] > 0).any(axis=0)
        if not reached[1:].all():
            x = int(np.argmin(reached[1:])) + 1
            arcs = [els[i] for i in np.unique(idx[idx >= 0])]
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
    return c


# 1: one fibre per block; 150: ragged last blocks (gathers for n = 6, 7,
# characters for n r in 38..75); None: default.  Each test runs both routes.
BLOCK_SIZES = pytest.mark.parametrize("block", [1, 150, None], ids=["1", "150", "default"])

# Every group shape the count table is built over: deck groups of verify
# and the constructions, and the Z/2 x Z/q of ``two_eigenvalue_data``.
COUNT_GROUPS = ((2,), (3,), (7,), (11,), (2, 2, 2), (3, 3), (2, 3), (2, 5))


@functools.cache
def _count_inputs() -> tuple[tuple[AbelianGroup, np.ndarray], ...]:
    """(group, index) pairs: random arc tables, random index arrays over
    ``COUNT_GROUPS`` (not antisymmetric, as the tables of ``gh_to_cover``
    and ``two_eigenvalue_data`` need not be), one-arc changes of ts32, and
    switches that keep fibre 0's counts, with the ladder covers."""
    rng = np.random.default_rng(11)
    tables = [*_random_tables(1000, seed=20261018), *_one_arc_changes(cover_933())]
    tables += [*_switched_covers(), cover_933(), dcff(1, 3)]
    pairs = [(f.group, f.index) for f in tables]
    for orders in COUNT_GROUPS:
        G = AbelianGroup(orders)
        pairs += [(G, rng.integers(0, G.order, (n, n))) for n in (2, 3, 7, 12)]
    return tuple(pairs)


@BLOCK_SIZES
def test_count_blocks_match_per_fibre_table(block):
    inputs = _count_inputs()
    assert {G.orders for G, _ in inputs} >= set(COUNT_GROUPS)
    for route in ROUTES:
        rng = np.random.default_rng(5)
        ragged = dict.fromkeys((0, 1), False)
        with count_route(route, block):
            for G, index in inputs:
                add = G.add_table()
                idx = np.array(index)
                np.fill_diagonal(idx, rng.integers(0, G.order, len(idx)))  # the diagonal is ignored
                want = _count_table(index, add)
                for start in ragged:  # start 1: drackn_verify once fibre 0 has passed
                    blocks = list(_count_blocks(idx, G, start))
                    los = [lo for lo, _ in blocks]
                    assert los == list(np.cumsum([start] + [len(N) for _, N in blocks[:-1]]))
                    # callers write through flat views of the block and of N != c
                    assert all(N.dtype == np.int64 and N.flags.c_contiguous for _, N in blocks)
                    ragged[start] |= len(blocks[-1][1]) < len(blocks[0][1])
                    table = np.concatenate([N for _, N in blocks])
                    assert np.array_equal(table, want[start:]), (route, start, G)
        assert all(ragged.values()) or block != 150, route  # 150 makes ragged blocks


@BLOCK_SIZES
def test_count_blocks_yield_exactly_the_blocks_that_miscount(block):
    """The c contract of ``_count_blocks``, on random arc tables over every
    ``COUNT_GROUPS`` shape and each c in [0, n - 2], and on switched ladder
    covers at their own c: the character route yields exactly the blocks
    that hold a pair with N_uv(x) != c at some x != f(u, v), and the gathers
    yield every block.  A c outside [0, n - 2] trips the assertion."""
    rng = np.random.default_rng(34)
    cases = []
    for orders in COUNT_GROUPS:
        G = AbelianGroup(orders)
        for n in (2, 3, 5, 7, 12):
            for _ in range(2):
                upper = np.triu(rng.integers(0, G.order, (n, n)), 1)
                index = upper + G.neg_table()[upper.T]
                np.fill_diagonal(index, -1)
                cases += [(G, index, c) for c in range(n - 1)]
    for f in _switched_covers():  # fibre 0 passes: c = N_01(x) for x != f(0, 1) = e
        g = normalize(f)
        cases.append((f.group, f.index, int(_count_table(g.index, g.group.add_table())[0, 1, 1])))
    skipped = yielded = 0
    for G, index, c in cases:
        n, r = len(index), G.order
        want = _count_table(index, G.add_table())
        miss = want != c
        miss[np.arange(n)[:, None], np.arange(n), index % r] = False  # x = f(u, v)
        miss[np.arange(n), np.arange(n)] = False
        failing = miss.any(axis=(1, 2))
        for start in (0, 1):
            with count_route("gather", block):
                gathered = list(_count_blocks(index, G, start, c))
            assert np.array_equal(np.concatenate([N for _, N in gathered]), want[start:])
            with count_route("characters", block, identity=False):
                every = [(lo, len(N)) for lo, N in _count_blocks(index, G, start, c)]
            with count_route("characters", block):
                got = list(_count_blocks(index, G, start, c))
            assert [lo for lo, _ in got] == [
                lo for lo, h in every if failing[lo:lo + h].any()
            ], (G, c, index)
            for lo, N in got:
                assert np.array_equal(N, want[lo:lo + len(N)])
            yielded += len(got)
            skipped += len(every) - len(got)
        for bad_c in (-1, n - 1):
            with pytest.raises(AssertionError, match="c in \\[0, n - 2\\]"):
                list(_count_blocks(index, G, 0, bad_c))
    assert skipped and yielded


def _verdict(check, f):
    try:
        return check(f), None
    except VerificationError as exc:
        return None, (exc.condition, exc.witness)


def _failing_fibre(verdict, r: int) -> int | None:
    """None for an accept, else the fibre u of the witness's first vertex u r + g."""
    if verdict[1] is None:
        return None
    first = re.search(r"(\d+),", verdict[1][1])
    return int(first[1]) // r if first else 0  # not-connected: "no path joins 0 and x"


@functools.cache
def _switched_covers() -> tuple[ArcMatrix, ...]:
    """Switches of ts32, ts52, dcff13 and ts26 that keep fibre 0's counts,
    so they fail, if at all, at a later fibre."""
    ladder = (cover_933(), thas_somma(5, 2), dcff(1, 3), thas_somma(2, 6))
    return tuple(s for f in ladder for s in fibre_zero_switches(f, 6))


@functools.cache
def _ladder() -> tuple[ArcMatrix, ...]:
    """The benchmark's ladder covers ts32, ts52, ts72, ts26 and dcff13."""
    return (cover_933(), thas_somma(5, 2), thas_somma(7, 2), thas_somma(2, 6), dcff(1, 3))


def _relabelled(f: ArcMatrix, seed: int) -> ArcMatrix:
    """f(p u, p v) + g(u) - g(v) for a seeded fibre permutation p and gauge g."""
    rng = np.random.default_rng(seed)
    G = f.group
    add, neg = G.add_table(), G.neg_table()
    p, g = rng.permutation(f.n), rng.integers(0, G.order, f.n)
    index = add[add[f.index[np.ix_(p, p)], g[:, None]], neg[g]]
    np.fill_diagonal(index, -1)
    return ArcMatrix(G, index)


@BLOCK_SIZES
def test_verify_matches_per_fibre_scan(block):
    """Both routes, with the identity step on and off: the certificate, or
    the tag and witness, of the per-fibre scan."""
    tables = [*_one_arc_changes(cover_933()), *_random_tables(1000, seed=20261018)]
    switched = _switched_covers()
    ladder = [g for f in _ladder() for g in (f, _relabelled(f, 1), _relabelled(f, 2))]
    tags, fibres = set(), []
    for f in [*tables, *switched, *ladder]:
        want = _verdict(lambda t: cover_certificate(t.n, t.group.order, _per_fibre_scan(t)), f)
        for route, identity in SETTINGS:
            with count_route(route, block, identity):
                got = _verdict(drackn_verify, f)
            assert got == want, (route, identity, f.group, f.entries)
        tags.add(want[1][0] if want[1] else None)
        fibres.append(_failing_fibre(want, f.group.order))
    assert tags == {"not-connected", "not-antipodal", "not-distance-regular", None}
    later = fibres[len(tables):len(tables) + len(switched)]
    assert 0 not in later and any(later)
    assert fibres[len(tables) + len(switched):] == [None] * len(ladder)
    # accepts, fibre-0 failures (column histograms) and later-fibre ones (kernel)
    assert {None, 0} < set(fibres)


def test_ladder_accepts_build_no_count_table(monkeypatch):
    """``drackn_verify``, ``two_eigenvalue_data`` on a character block and
    ``gh_to_cover`` accept every ladder rung from the identity alone: the
    character kernel yields no count block.  With the identity step skipped,
    each call counts one block."""
    blocks = []
    character_counts = covers._character_counts

    def counted(*args):
        for lo, N in character_counts(*args):
            blocks.append(lo)
            yield lo, N

    monkeypatch.setattr(covers, "_character_counts", counted)

    def accept_all():
        for f in _ladder():
            drackn_verify(f)
            two_eigenvalue_data(cover_to_lines(f).seidel)
            gh_to_cover(cover_to_gh(f))  # every rung has delta = -2

    accept_all()
    assert blocks == []
    with count_route(identity=False):
        accept_all()
    # cover_to_lines and cover_to_gh verify too
    assert len(blocks) == 5 * len(_ladder())


def test_certificate_is_derived_once_per_triple():
    """Two verifies of one (n, r, c) return one certificate; a refusal is
    not cached, so it raises on every call."""
    f = thas_somma(5, 2)
    first = drackn_verify(f)
    assert drackn_verify(_relabelled(f, 3)) is first
    assert first == cover_certificate(25, 5, 5)
    for _ in range(2):
        with pytest.raises(RoutesDisagreeError, match="inadmissible m_theta"):
            cover_certificate(5, 3, 1)


def test_fibre_zero_rejects_without_the_count_kernel(monkeypatch):
    """A one-arc change of a character-route cover fails at fibre 0, which its
    column histograms decide: the count kernel never runs.  A switch that
    keeps fibre 0's counts needs it."""
    f = thas_somma(5, 2)
    assert covers._count_plan(f.n, f.group.order)[0]
    changed = one_arc_change(f, 3, 7)
    want = _verdict(_per_fibre_scan, changed)

    def refuse(*args):
        raise AssertionError("count kernel entered")

    monkeypatch.setattr(covers, "_character_counts", refuse)
    monkeypatch.setattr(covers, "_gather_counts", refuse)
    witness = "pair 0,17 has 6 common neighbours, pair (0, 6) has 5"
    assert _verdict(drackn_verify, changed) == want == (None, ("not-distance-regular", witness))
    with pytest.raises(AssertionError, match="count kernel entered"):
        drackn_verify(fibre_zero_switches(f, 1)[0])


def test_count_plan_rule():
    """The route and block size of ``_count_blocks`` as a pure function of
    (n, r): no table is built."""
    plan = covers._count_plan
    # the ladder, every dcff(1, d) quotient of order <= 32 and the large
    # thas_somma covers take the characters
    assert plan(64, 2) == (True, 4096)  # ts26: the whole table is one block
    assert plan(49, 7) == (True, 1528)  # ts72
    assert plan(16, 8) == (True, 4096)  # dcff(1, 3)
    assert plan(729, 3) == (True, 239)  # thas_somma(3, 6)
    assert plan(1024, 2) == (True, 256)  # thas_somma(2, 10): 256-row blocks
    assert plan(121, 11) == (True, 393)
    assert plan(169, 13) == (True, 238)
    assert plan(64, 16) == (True, 512)
    assert plan(64, 32) == (True, 256)  # dcff(1, 5): r = 32, the crossover
    assert plan(1025, 4) == (True, 127)
    assert plan(2048, 2) == (True, 128)  # the r n^2 <= 2^23 stack bound, attained
    assert plan(512, 32) == (True, 32)  # attained at the crossover
    # r above 32, or a stack above 2^23 float64 entries: gathers
    assert plan(64, 33) == (False, 8)
    assert plan(256, 64) == (False, 1)  # dcff(2, 3)
    assert plan(1024, 512) == (False, 1)  # dcff(1, 9)
    assert plan(2049, 2) == (False, 1)
    assert plan(513, 32) == (False, 1)


def test_count_plan_refuses_characters_past_the_exactness_bound(monkeypatch):
    """With the stack bound lifted, r n (q - 1)^3 < 2^51 alone refuses: for
    r = 2, q is the least odd prime above n - 2, and 5792 (q = 5791) is the
    last n it admits (q = 5801 for n = 5793).  Nothing is built."""
    monkeypatch.setattr(covers, "_CHAR_STACK", math.inf)
    assert covers._field_prime(2, 5792) == 5791 and covers._field_prime(2, 5793) == 5801
    assert covers._count_plan(5792, 2)[0]
    assert covers._count_plan(5793, 2) == (False, 1)
    assert covers._count_plan(5234, 3)[0] and not covers._count_plan(5235, 3)[0]
    with pytest.raises(AssertionError, match="2\\^51"):
        covers._transform((2,), 5793)


@pytest.mark.parametrize("orders", COUNT_GROUPS, ids=lambda o: "x".join(map(str, o)))
def test_character_transform_over_gf_q(orders):
    """For each group the callers count over and a range of n: q is the
    least prime = 1 (mod e) above n - 2, chi is a table of the r distinct
    characters into the e-th roots of unity of GF(q), with a zero sentinel
    column, and inv is the transpose of its inverse mod q.  No count table
    is built."""
    G = AbelianGroup(orders)
    r, e = G.order, G.exponent
    add = G.add_table()
    for n in (2, 5, 9, 49, 121, 1024):
        q, chi, inv = covers._transform(orders, n)
        assert q > n - 2 and q % e == 1 and is_prime(q)
        assert not any(is_prime(p) for p in range(q - e, n - 2, -e))  # the least such prime
        assert r * n * (q - 1) ** 3 < 1 << 51
        assert not chi.flags.writeable and not inv.flags.writeable
        assert chi.shape == (r, r + 1) and not chi[:, r].any()
        W = chi[:, :r].astype(np.int64)
        assert np.array_equal(W, chi[:, :r]) and np.array_equal(inv, inv.astype(np.int64))
        # the values are exactly the e-th roots of unity: omega has order e
        roots = {int(w) for w in W.ravel()}
        assert len(roots) == e and all(pow(w, e, q) == 1 for w in roots)
        # each row is a homomorphism G -> GF(q)^x, and the rows are distinct
        assert (W[:, 0] == 1).all() and len({row.tobytes() for row in W}) == r
        assert np.array_equal(W[:, add] % q, W[:, :, None] * W[:, None, :] % q)
        assert np.array_equal(W @ inv.T.astype(np.int64) % q, np.eye(r, dtype=np.int64))


def test_count_routes_give_one_certificate():
    """thas_somma(2, 8), n = 256: the same table and certificate both ways."""
    f = thas_somma(2, 8)
    idx = normalize(f).index
    tables, certs = [], []
    for route in ROUTES:
        with count_route(route):
            tables.append(np.concatenate([N for _, N in _count_blocks(idx, f.group)]))
            certs.append(drackn_verify(f))
    assert np.array_equal(*tables)
    assert certs[0] == certs[1]
    assert (certs[0].params.n, certs[0].params.r, certs[0].params.c) == (256, 2, 128)


@pytest.mark.parametrize("orders", [(2,), (3,) * 4], ids=["r2-characters", "r81-gathers"])
def test_verify_rejects_large_non_cover_in_bounded_memory_on_either_route(orders):
    """Random n = 256 tables under the default rule: r = 2 takes the
    characters (a 1 MB stack), r = 81 the gathers; both stop in the first
    block."""
    G = AbelianGroup(orders)
    upper = np.triu(np.random.default_rng(2).integers(0, G.order, (256, 256)), 1)
    index = upper + G.neg_table()[upper.T]
    np.fill_diagonal(index, -1)
    f = ArcMatrix(G, index)
    assert covers._count_plan(256, G.order)[0] == (G.order == 2)
    tracemalloc.start()
    try:
        with pytest.raises(VerificationError) as exc:
            drackn_verify(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.condition == "not-distance-regular"
    assert peak < 8 << 20, peak


def test_verify_rejects_large_non_cover_in_bounded_memory():
    """A random table of dcff(2, 3) size (n = 256, r = 64) fails in the
    first block: its full count table alone would take 32 MB."""
    G = AbelianGroup((2,) * 6)
    upper = np.triu(np.random.default_rng(1).integers(0, 64, (256, 256)), 1)
    index = upper + G.neg_table()[upper.T]
    np.fill_diagonal(index, -1)
    f = ArcMatrix(G, index)
    assert not covers._count_plan(256, 64)[0]  # the rule keeps r = 64 on gathers
    tracemalloc.start()
    try:
        with pytest.raises(VerificationError) as exc:
            drackn_verify(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.condition == "not-distance-regular"
    assert peak < 8 << 20, peak


@pytest.mark.parametrize(
    "build, characters",
    [(lambda: thas_somma(2, 8), True), (lambda: dcff(2, 3), False)],
    ids=["ts28-characters", "dcff23-gathers"],
)
def test_verify_rejects_large_switched_cover_in_the_first_kernel_block(build, characters):
    """A switch of thas_somma(2, 8) (n = 256, r = 2, characters) or dcff(2, 3)
    (n = 256, r = 64, gathers) keeps fibre 0's counts, so the count kernel
    runs; it fails at fibre 1, in the kernel's first block."""
    f = build()
    assert covers._count_plan(f.n, f.group.order)[0] == characters
    switched = fibre_zero_switches(f, 1)[0]
    tracemalloc.start()
    try:
        with pytest.raises(VerificationError) as exc:
            drackn_verify(switched)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    verdict = (None, (exc.value.condition, exc.value.witness))
    assert verdict[1][0] == "not-distance-regular"
    assert _failing_fibre(verdict, f.group.order) == 1
    assert peak < 8 << 20, peak


# The tuple formula that ``normalize``'s two gathers replaced, kept as its oracle.
def _tuple_normalize(f: ArcMatrix):
    """f'(u, v) = f(u, v) + f(0, u) - f(0, v), reading f(0, 0) as the identity."""
    G = f.group
    row0 = [G.identity] + [f.entry(0, v) for v in range(1, f.n)]
    return tuple(
        tuple(
            None if u == v else G.sub(G.add(f.entry(u, v), row0[u]), row0[v])
            for v in range(f.n)
        )
        for u in range(f.n)
    )


def test_normalize_matches_tuple_formula():
    for f in [*_random_tables(300, seed=13), cover_933(), dcff(1, 3)]:
        g = normalize(f)
        assert g.entries == _tuple_normalize(f)
        assert g.is_normalized()


def test_arc_matrix_stores_one_index_array():
    f = cover_933()
    assert ArcMatrix.__slots__ == ("group", "index")
    assert f.index.dtype == np.int64 and f.index.shape == (9, 9)
    assert not f.index.flags.writeable
    assert (f.index.diagonal() == -1).all()
    els = f.group.elements()
    assert all(f.entry(u, v) == els[f.index[u, v]] for u in range(9) for v in range(9) if u != v)
    assert ArcMatrix(f.group, f.index) == f == ArcMatrix(f.group, f.entries)
    # nested rows are reduced mod the orders, as before
    Z3 = AbelianGroup((3,))
    assert ArcMatrix(Z3, [[None, (4,)], [(-1,), None]]).index.tolist() == [[-1, 1], [2, -1]]


@pytest.mark.parametrize(
    "rows, condition, witness",
    [
        ([[None]], "too-small", "need at least 2 fibres, got 1"),
        ([[None, (1,), (2,)], [(2,), None]], "not-square", "row 0 has 3 entries, want 2"),
        ([[(0,), (1,)], [(2,), None]], "diagonal", "entry (0,0) must be None"),
        (
            [[None, None], [(2,), (0,)]],
            "entry-outside-group",
            "f(0,1) = None is not in AbelianGroup(orders=(3,))",
        ),
        (
            [[None, (1,), (1,)], [(2,), None, (2,)], [(2,), (2,), None]],
            "inverse-pair",
            "f(2,1) != -f(1,2) at (1,2)",
        ),
    ],
)
def test_arc_matrix_tags_and_witnesses(rows, condition, witness):
    Z3 = AbelianGroup((3,))
    # the same table as an index array (a ragged table has none)
    arrays = [] if condition == "not-square" else [
        np.array([[-1 if e is None else e[0] for e in row] for row in rows])
    ]
    for entries in (rows, *arrays):
        with pytest.raises(CoverStructureError) as exc:
            ArcMatrix(Z3, entries)
        assert (exc.value.condition, exc.value.witness) == (condition, witness)


@pytest.mark.parametrize("orders", [(2,), (3,), (2, 2), ()], ids=str)
def test_arc_check_matches_the_row_by_row_check(orders):
    # valid tables with 0-2 changes: an entry set to a value in [-r - 3, r + 2],
    # a symmetric pair set to -1, or that and two diagonal entries set to 0;
    # the same verdict and witness as the row scan
    G, rng = AbelianGroup(orders), random.Random(f"arc check {orders}")
    for _ in range(600):
        n = rng.randint(2, 6)
        index = np.full((n, n), -1)
        for u in range(n):
            for v in range(u + 1, n):
                index[u, v] = rng.randrange(G.order)
                index[v, u] = G.neg_table()[index[u, v]]
        for _ in range(rng.randint(0, 2)):
            u, v, change = rng.randrange(n), rng.randrange(n), rng.random()
            if change < 0.3:
                index[u, v] = index[v, u] = -1
            if change < 0.15:
                index[u, u] = index[v, v] = 0
            if change >= 0.3:
                index[u, v] = rng.randint(-G.order - 3, G.order + 2)
        outcomes = []
        for check in (lambda: ArcMatrix(G, index), lambda: check_arc_index(G, index)):
            try:
                check()
                outcomes.append(None)
            except CoverStructureError as exc:
                outcomes.append((exc.condition, exc.witness))
        assert outcomes[0] == outcomes[1], index.tolist()
