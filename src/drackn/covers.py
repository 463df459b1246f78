"""Arc functions, cover verification, and quotients.

A cover of K_n with abelian deck group G is stored as an ``ArcMatrix``: one
n x n integer array whose (u, v) entry, u != v, is the element index of the
arc value f(u, v), with f(v, u) = -f(u, v) and -1 on the diagonal.  The
expanded graph has vertex set {0..n-1} x G, with (u, g) adjacent to (v, h)
iff u != v and h - g = f(u, v).  Normalizing and quotienting are gathers
through the group's addition, negation and projection tables.

The same index table holds a generalized Hadamard matrix
(``constructions.GHMatrix``) and a Seidel matrix (``lines.SeidelMatrix``, an
arc table over Z/2 x Z/q: conjugation negates (h, k) in (-1)^h zeta_q^k, so
``_arc_defect`` proves Hermitian-ness).  A table proven valid by its
construction is stored through ``_proven`` unchecked.

``drackn_verify`` proves the defining regularity conditions on the counts
N_uv(x) = #{w not in {u, v} : f(u, w) + f(w, v) = x}; fibre 0's are the
column histograms of the gauged table, and ``_first_miscount`` finds the
first later pair with N_uv(x) != c off f(u, v), in blocks.  For deck groups
of order up to 32 a block is proven by B_chi (B_chi - (n - rc - 2)I) =
(n - 1)I (mod q) over a prime field GF(q), in float64 products of residues
whose sums stay below 2^51, so are exact; ``_count_blocks`` counts only the
blocks that fail it, and every block when r > 32.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import np
from .arith import factorize, gfp_rref, is_prime
from .errors import (
    CoverStructureError,
    GroupMismatchError,
    RoutesDisagreeError,
    UnsupportedError,
    VerificationError,
)
from .feasibility import ParameterSet, spectral_params, _fmt
from .groups import AbelianGroup
from .quadratic import QuadNum

#: Most fibres a construction builds: its n x n tables and self-verify stay
#: within memory and minutes (thas_somma(2, 10) and dcff(1, 9) have 1,024).
#: The parsers refuse deck groups of larger order (``formats``).
_MAX_FIBRES = 1 << 11


def _index_of_rows(group: AbelianGroup, rows) -> np.ndarray:
    """Element indices of nested rows of exponent tuples, -1 where None."""
    n = len(rows)
    _check_shape([len(row) for row in rows])
    filled = [[group.identity if e is None else e for e in row] for row in rows]
    try:
        coords = np.array(filled, dtype=np.int64)
    except (TypeError, ValueError):
        coords = None
    if coords is None or coords.shape != (n, n, group.rank):
        raise GroupMismatchError(f"arc values are not {group.rank}-tuples of integers")
    index = group.index_array(coords)
    index[np.array([[e is None for e in row] for row in rows], dtype=bool)] = -1
    return index


def _check_shape(lengths: list[int]) -> None:
    n = len(lengths)
    if n < 2:
        raise CoverStructureError("too-small", f"need at least 2 fibres, got {n}")
    for u, m in enumerate(lengths):
        if m != n:
            raise CoverStructureError("not-square", f"row {u} has {m} entries, want {n}")


def _arc_defect(group: AbelianGroup, index: np.ndarray):
    """(``CoverStructureError``, u, v) for the first failure of an (n, n) arc
    index array, n >= 2, or None: diagonal -1, every other entry an element
    index, f(v, u) = -f(u, v).  Whole-array checks pass a valid table; a
    failing one is scanned, and its first failing row (then entry) is the
    witness."""
    n = index.shape[0]
    if index.min() >= -1 and index.max() < group.order:
        # neg[-1] is an element, so the diagonal never matches; a valid table matches elsewhere
        mismatch = group.neg_table()[index] != index.T
        if np.array_equal(index < 0, np.eye(n, dtype=bool)) and np.count_nonzero(mismatch) == n:
            return None
    bad_diag = index.diagonal() != -1
    bad_entry = ~np.eye(n, dtype=bool) & ((index < 0) | (index >= group.order))
    bad_row = bad_diag | bad_entry.any(axis=1)
    if bad_row.any():
        u = int(np.argmax(bad_row))
        if bad_diag[u]:
            return CoverStructureError("diagonal", f"entry ({u},{u}) must be None"), u, u
        v = int(np.argmax(bad_entry[u]))
        e = None if index[u, v] < 0 else int(index[u, v])
        witness = f"f({u},{v}) = {e!r} is not in {group}"
        return CoverStructureError("entry-outside-group", witness), u, v
    bad_pair = np.triu(group.neg_table()[index] != index.T, 1)
    if bad_pair.any():
        u, v = (int(i) for i in np.argwhere(bad_pair)[0])
        return CoverStructureError("inverse-pair", f"f({v},{u}) != -f({u},{v}) at ({u},{v})"), u, v
    return None


def _check_arc_index(group: AbelianGroup, index: np.ndarray) -> None:
    if index.ndim != 2 or index.shape[0] < 2 or index.shape[1] != index.shape[0]:
        _check_shape([len(row) for row in index])
    defect = _arc_defect(group, index)
    if defect is not None:
        raise defect[0]


class _IndexTable:
    """An n x n table over an abelian group ``group``: ``index`` is a
    read-only (n, n) int64 array of element indices (``AbelianGroup.elements``
    order), -1 where the table has no entry.  Subclasses validate, then store
    through this constructor; equal tables share type, ``_key`` and array."""

    __slots__ = ()
    _key = ("group",)

    def __init__(self, group: AbelianGroup, index: np.ndarray, **fields):
        index.flags.writeable = False
        for name, value in dict(fields, group=group, index=index).items():
            object.__setattr__(self, name, value)

    @classmethod
    def _proven(cls, group: AbelianGroup, index: np.ndarray, **fields):
        """The table of an int64 index array proven valid by its caller."""
        table = object.__new__(cls)
        _IndexTable.__init__(table, group, index, **fields)
        return table

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def n(self) -> int:
        return self.index.shape[0]

    @property
    def entries(self) -> tuple[tuple, ...]:
        """Nested rows of exponent tuples, None where the index is -1."""
        els = self.group.elements() + (None,)
        return tuple(tuple(els[i] for i in row) for row in self.index.tolist())

    def entry(self, u: int, v: int):
        i = int(self.index[u, v])
        return None if i < 0 else self.group.elements()[i]

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._key)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields() and np.array_equal(self.index, other.index)

    def __hash__(self) -> int:
        return hash((self._fields(), self.index.tobytes()))

    def __repr__(self) -> str:
        fields = "".join(f", {name}={value}" for name, value in zip(self._key, self._fields()))
        return f"{type(self).__name__}(n={self.n}{fields})"


class ArcMatrix(_IndexTable):
    """Validated arc function of an n-fibre cover with abelian deck group.

    ``index`` holds the element index of f(u, v), -1 on the diagonal.  The
    constructor takes such an array, or nested rows of exponent tuples
    with None on the diagonal (coordinates are reduced mod the orders).
    """

    __slots__ = ("group", "index")

    def __init__(self, group: AbelianGroup, entries):
        if not isinstance(entries, np.ndarray):
            entries = _index_of_rows(group, entries)
        index = np.array(entries, dtype=np.int64)
        _check_arc_index(group, index)
        super().__init__(group, index)

    def is_normalized(self) -> bool:
        return not self.index[0, 1:].any()


def normalize(f: ArcMatrix) -> ArcMatrix:
    """Gauge-equivalent arc table whose first row is the identity.

    f'(u, v) = f(u, v) + f(0, u) - f(0, v), reading f(0, 0) as the identity:
    the expanded graph is unchanged up to relabelling within fibres.
    """
    return ArcMatrix._proven(f.group, _gauged(f))


def _gauged(f: ArcMatrix) -> np.ndarray:
    """The index array of ``normalize(f)``.  A gauge switch keeps
    f(v, u) = -f(u, v), so the array is valid without a second check."""
    G = f.group
    h = np.append(0, f.index[0, 1:])  # f(0, u), with f(0, 0) read as the identity
    index = G.add_table()[G.add_table()[f.index, h[:, None]], G.neg_table()[h]]
    np.fill_diagonal(index, -1)
    return index


@dataclass(frozen=True)
class CoverCertificate:
    """Successful verification summary: parameters, spectrum, checks run."""

    params: ParameterSet
    spectrum: tuple[tuple[Fraction | QuadNum, int], ...]
    checks_passed: tuple[str, ...]

    def __post_init__(self):
        n, r = self.params.n, self.params.r
        total = sum(m for _, m in self.spectrum)
        # integral eigenvalues (every rational one of a cover) sum as ints
        trace = sum(
            (ev.numerator if isinstance(ev, Fraction) and ev.denominator == 1 else ev) * m
            for ev, m in self.spectrum
        )
        assert total == r * n, "spectrum multiplicities must sum to rn"
        assert trace == 0, "spectrum must have zero trace"

    def spectrum_str(self) -> str:
        return " ".join(f"{_fmt(ev)}^{m}" for ev, m in self.spectrum)


# Gather route: keys per count block; b fibres make b*n*n keys, about 256 KB
# of int64 temporaries; when one fibre has more, blocks hold one fibre each.
_BLOCK = 1 << 15
# Character route: counts N[u, v, x] per block (b*n*r, about 4 MB for each of
# the float64 character sums, their transform and the int64 counts), and its
# limits: r, above which the gathers win, and r n^2, the float64 entries of
# the character stack (64 MB).
_CHAR_BLOCK = 1 << 19
_CHAR_R = 32
_CHAR_STACK = 1 << 23
# Sums below 2^51 are exact in float64, with room for the floor residue.
_EXACT = 1 << 51


@lru_cache(maxsize=None)
def _field_prime(e: int, n: int) -> int:
    """The least prime q = 1 (mod e) with q > n - 2."""
    q = e * max(0, (n - 3) // e) + 1
    while q <= n - 2 or not is_prime(q):
        q += e
    return q


def _count_plan(n: int, r: int) -> tuple[bool, int]:
    """(character route?, fibres per block) of ``_count_blocks`` for n fibres
    and a deck group of order r; see there for the rule.  The exponent e of
    the group divides r, so ``_field_prime(r, n)`` bounds its prime q."""
    characters = (
        r <= _CHAR_R
        and r * n * n <= _CHAR_STACK
        and r * n * (_field_prime(r, n) - 1) ** 3 < _EXACT
    )
    b = max(1, _CHAR_BLOCK // (n * r) if characters else _BLOCK // (n * n))
    assert b * n * (r + 1) <= np.iinfo(np.intp).max, "count keys overflow"
    return characters, b


@lru_cache(maxsize=64)
def _transform(orders: tuple[int, ...], n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(q, chi, inv): the characters of Z/d_1 x ... x Z/d_k over GF(q), for
    n fibres.  q is ``_field_prime(e, n)`` with e = lcm(d_i), and omega has
    order e mod q; chi[a, x] = chi_a(x) = omega^(sum_i a_i x_i e / d_i),
    with a zero column r for the sentinel, and inv[a, x] = r^-1 chi_a(-x),
    the transpose of the inverse transform.  Entries are residues in
    [0, q - 1], as read-only float64 arrays."""
    G = AbelianGroup(orders)
    r, e = G.order, G.exponent
    q = _field_prime(e, n)
    assert r * n * (q - 1) ** 3 < _EXACT, "character sums must stay below 2^51"
    candidates = (pow(g, (q - 1) // e, q) for g in range(1, q))
    omega = next(w for w in candidates if all(pow(w, e // p, q) != 1 for p in factorize(e)))
    powers = np.array([pow(omega, j, q) for j in range(e)], dtype=np.int64)
    els = np.array(G.elements(), dtype=np.int64).reshape(r, G.rank)
    exps = (els * (e // np.array(orders, dtype=np.int64))) @ els.T % e  # [a, x]
    chi = np.zeros((r, r + 1))
    chi[:, :r] = powers[exps]
    inv = (pow(r, -1, q) * powers[-exps % e] % q).astype(np.float64)
    chi.flags.writeable = inv.flags.writeable = False
    return q, chi, inv


def _residue(y: np.ndarray, q: int, out: np.ndarray) -> np.ndarray:
    """y mod q into ``out`` for float64 integers 0 <= y < 2^51 (``_count_blocks``);
    ``out`` must not overlap y."""
    np.add(y, 0.5, out=out)
    out *= 1 / q
    np.floor(out, out=out)
    out *= -q
    out += y
    return out


def _count_blocks(idx: np.ndarray, group: AbelianGroup, start: int = 0, c: int | None = None):
    """Yield (lo, N[lo:hi]) for blocks of consecutive fibres u >= ``start``,
    where N[u, v, x] = #{w not in {u, v} : f(u, w) + f(w, v) = x} and
    N[u, u] = 0.  Each block is a C-contiguous int64 array.

    ``idx`` holds the element index of f(u, v) in ``group`` (the diagonal
    is ignored).  The first block starts at fibre ``start``: the fibres
    before it are never counted, which ``drackn_verify`` uses once fibre 0
    has passed.  A sentinel index r, written on the diagonal of ``idx``,
    matches no element, which drops the terms w = u and w = v.  Each call
    takes one of two routes:

    * gathers: the addition table is padded so that r absorbs every sum,
      and each block is one gather, one offset add and one bincount
      (n^3 gathers in all, whatever r is);
    * characters, an exact transform over a prime field (``_transform``):
      q is the least prime = 1 (mod e), e the exponent, above n - 2, and
      the r characters chi_a(x) = omega^(a.x) of the group take values in
      GF(q).  With B_a[u, w] = chi_a(f(u, w)) and 0 for the sentinel,
      (B_a B_a)[u, v] = sum_x N_uv(x) chi_a(x) mod q, and the trivial
      character's sum is n - 2, so each block is r - 1 float64 products
      B_a[rows] @ B_a (2 (r - 1) n^3 flops in all), one product by the
      inverse transform r^-1 chi_a(-x) (r is a unit mod q, as q > e), and
      one residue pass.  Every term is a nonnegative integer and every sum
      is below r n (q - 1)^3 < 2^51 (asserted), so BLAS adds exactly in
      whatever order; floor((y + 1/2) * fl(1/q)) is then the exact
      quotient, since (y + 1/2)/q lies at least 1/(2q) from an integer and
      the two roundings move it by at most (2^-52 + 2^-106)(y + 1/2)/q,
      which is below 1/(2q) for y + 1/2 < 2^51.  A count lies in
      [0, n - 2] and q > n - 2, so the residue y mod q is the count.

    With a count ``c`` in [0, n - 2] (asserted) on the character route, a
    block is yielded only if its rows fail B_a (B_a - delta I) = (n - 1)I
    (mod q), delta = n - rc - 2, for some a != 0: the products plus
    (-delta mod q) B_a[rows], less n - 1 on the diagonal, whose n - 1 terms
    of B_a^2 are = 1 (mod q) as f(v, u) = -f(u, v), so >= 1; every sum stays
    below (n + 1)(q - 1)^2, and the residue tests it.  As the trivial sum is
    n - 2, a pair passes iff N_uv(x) = r^-1 (n - 2 - delta) = c (mod q), so
    N_uv(x) = c, for x != f(u, v) (counts lie in [0, n - 2], below q).  So a
    yielded block holds a pair with a count other than c off f(u, v), and a
    skipped one holds none.  The gathers yield every block.

    The cost rule (``_count_plan``) takes the characters when r <= 32, the
    stack of the B_a fits r n^2 <= 2^23 float64 entries (64 MB) and the bound
    holds for the least prime = 1 (mod r) above n - 2, which bounds q; the
    README lists timings on both sides.  Blocks hold about ``_CHAR_BLOCK``
    counts on the character route (256 rows at n r = 2048) and ``_BLOCK``
    keys on the gather route, so a rejection stops at its first failing
    block on either.
    """
    n, r = idx.shape[0], group.order
    assert c is None or 0 <= c <= n - 2, "the count identity is exact for c in [0, n - 2]"
    characters, b = _count_plan(n, r)
    ind = np.array(idx, dtype=np.intp)
    np.fill_diagonal(ind, r)
    if characters:
        delta = None if c is None else n - r * c - 2
        blocks = _character_counts(ind, group.orders, b, start, delta)
    else:
        blocks = _gather_counts(ind, group.add_table(), b, start)
    for lo, counts in blocks:
        counts[np.arange(len(counts)), np.arange(lo, lo + len(counts))] = 0
        yield lo, counts


def _gather_counts(ind: np.ndarray, add: np.ndarray, b: int, start: int):
    n, r = ind.shape[0], add.shape[0]
    pad = np.full((r + 1, r + 1), r, dtype=np.intp)
    pad[:r, :r] = add
    pad = pad.ravel()
    left, right = ind * (r + 1), np.ascontiguousarray(ind.T)  # [u, w] and [v, w]
    for lo in range(start, n, b):
        h = min(b, n - lo)
        keys = pad[left[lo:lo + h, None, :] + right]  # [u, v, w]: f(u, w) + f(w, v)
        keys += np.arange(0, h * n * (r + 1), r + 1).reshape(h, n, 1)
        counts = np.bincount(keys.ravel(), minlength=h * n * (r + 1))
        yield lo, np.ascontiguousarray(counts.reshape(h, n, r + 1)[:, :, :r])


def _character_counts(
    ind: np.ndarray, orders: tuple[int, ...], b: int, start: int, delta: int | None
):
    n = ind.shape[0]
    q, chi, inv = _transform(orders, n)
    r = len(chi)
    stack = chi[1:].take(ind, axis=1)  # [a - 1, u, w]: chi_a(f(u, w)), 0 on the diagonal
    for lo in range(start, n, b):
        h = min(b, n - lo)
        rows = stack[:, lo:lo + h]
        sums, y = np.empty((r, h, n)), np.empty((h * n, r))
        sums[0] = n - 2  # the trivial character counts every w off the diagonal
        np.matmul(rows, stack, out=sums[1:])  # [a, u, v]: sum_x N_uv(x) chi_a(x) mod q
        if delta is not None:
            # B_a (B_a - delta I) - (n - 1)I on the rows, in the buffers of sums and y
            t, spare = sums[1:], y.reshape(r, h, n)[1:]
            t += np.multiply(rows, -delta % q, out=spare)
            t.reshape(r - 1, h * n)[:, lo::n + 1] -= n - 1
            if not _residue(t, q, spare).any():
                continue
            np.matmul(rows, stack, out=t)  # a failing block is counted
        np.matmul(sums.reshape(r, h * n).T, inv, out=y)  # [(u, v), x]: N_uv(x) mod q
        # the residue is computed in the buffer of sums and cast into that of
        # y: fresh temporaries of this size made glibc return and refault
        # heap pages on every call, which tripled the time at ts72
        res = _residue(y, q, sums.reshape(h * n, r))
        counts = y.view(np.int64)
        np.copyto(counts, res, casting="unsafe")
        yield lo, counts.reshape(h, n, r)


def _first_miscount(idx: np.ndarray, group: AbelianGroup, c: int, start: int = 0):
    """(u, v, x, N_uv) for the first pair u >= ``start``, in row order, with
    N_uv(x) != c at some x != f(u, v), x the least such; None if no pair fails.
    ``idx`` is an arc index array (-1 on the diagonal, f(v, u) = -f(u, v)),
    as the identity step of ``_count_blocks`` needs.  A c above n - 2
    (``gh_to_cover`` at n = 2 or r = 1) fails every pair with an x != f(u, v),
    and is counted without that step."""
    n, r = idx.shape[0], group.order
    for lo, N in _count_blocks(idx, group, start, c if c <= n - 2 else None):
        h = len(N)
        bad = N != c
        # x = f(u, v) is free; the diagonal's -1 reads x = r - 1 of (u, u), cleared whole
        bad.reshape(-1)[np.arange(0, h * n * r, r) + idx[lo:lo + h].ravel() % r] = False
        bad[np.arange(h), np.arange(lo, lo + h)] = False
        if bad.any():
            k, v, x = (int(i) for i in np.argwhere(bad)[0])
            return lo + k, v, x, N[k, v]
    return None


def _fibre_zero_counts(idx: np.ndarray, r: int) -> np.ndarray:
    """N[0] of a gauged table (f(0, w) = e for every w), without the kernel:
    N_0v(x) = #{w not in {0, v} : f(w, v) = x}, the histogram of column v
    over the rows w >= 1, whose diagonal entry -1 is masked; N_00 = 0."""
    n = idx.shape[0]
    keys = idx[1:] + np.arange(0, n * r, r)  # [w - 1, v]: v r + f(w, v)
    counts = np.bincount(keys[idx[1:] >= 0], minlength=n * r).reshape(n, r)
    counts[0] = 0
    return counts


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

    The verdict is that of a scan over the expanded graph: fibre by fibre,
    first the fibre's mates and then its pairs with later fibres; c is the
    count of the first such pair.  Only fibre 0 can miss a mate before some
    count fails: a fibre whose counts with later fibres are all c >= 1
    reaches its mates through the next fibre, and once fibre 0 passes,
    N_u0(x) = N_0u(-x) = c for x != f(u, 0) lets every later fibre reach
    its mates through fibre 0.  So the first fibre with a count other than
    c >= 1 is the first failing one, and it fails ``not-distance-regular``
    unless it is fibre 0 and misses a mate: the first such mate is
    ``not-connected`` when it lies outside the subgroup generated by the arc
    values, else ``not-antipodal``.

    Fibre 0 needs no count kernel (``_fibre_zero_counts``).  After the
    gauge f(0, w) = e, so N_0v(x) = #{w not in {0, v} : f(w, v) = x} is the
    histogram of column v, one bincount in O(n^2).  Fibre 0 is checked
    from it, mates first: a missed mate makes fibre 0 fail, since a passing
    fibre 0 reaches every mate x through fibre 1 (N_01(x) = c >= 1).  Only
    if fibre 0 passes are the later fibres checked, in blocks from fibre 1
    on (``_first_miscount``).  Its pairs with earlier fibres need no mask:
    as N_uv(x) = N_vu(-x), a count other than c at v < u fails fibre v
    first.  It scans in row order, so the first failing fibre, its first
    failing pair and so the tag and witness are those of the scan.  A
    typical non-cover fails at fibre 0: every change of one arc pair of a
    cover does (n >= 3), as one count of N_0u moves to c +- 1 when 0 is
    neither end of the arc, and N_0w moves for every other w when it is.

    A block is counted only if it fails the ``character-blocks`` identity
    B_chi^2 = delta B_chi + (n - 1)I mod q, delta = n - rc - 2
    (``_count_blocks``), exact as c is a count of fibre 0, in [1, n - 2].

    Returns the certificate on success; raises ``VerificationError`` with a
    condition keyword and witness when the expanded graph is not a cover with
    the required regularity, and ``UnsupportedError`` for deck groups without
    prime exponent.
    """
    n, G = f.n, f.group
    r = G.order
    check_deck_group(G)
    els = G.elements()
    idx = _gauged(f)
    N0 = _fibre_zero_counts(idx, r)
    c = int(N0[1, 1])  # pair (0, e), (1, els[1]); f(0, 1) = e after normalizing
    bad = (N0[1:, 1:] != c) | (c < 1)  # [v - 1, x - 1]: f(0, v) = e for v >= 1
    if bad.any():
        # mates x of fibre 0 with no N_0v(x) > 0
        missed = np.flatnonzero(~N0[:, 1:].any(axis=0)) + 1
        if len(missed):
            x = int(missed[0])
            # G is elementary abelian: x lies in the span of the arc values
            # iff adding it keeps their GF(p) rank
            arcs = [list(els[i]) for i in np.flatnonzero(np.bincount(idx[idx >= 0]))]
            span = len(gfp_rref(arcs, G.prime_exponent)[0])
            if len(gfp_rref(arcs + [list(els[x])], G.prime_exponent)[0]) > span:
                raise VerificationError("not-connected", f"no path joins 0 and {x}")
            raise VerificationError("not-antipodal", f"fibre mates 0,{x} are not at distance 3")
        v, x = (int(i) + 1 for i in np.argwhere(bad)[0])
        raise _count_failure(0, v, x, int(N0[v, x]), c, r)
    miss = _first_miscount(idx, G, c, 1)
    if miss is not None:
        u, v, x, counts = miss
        raise _count_failure(u, v, x, int(counts[x]), c, r)
    return cover_certificate(n, r, c)


def _count_failure(u: int, v: int, x: int, count: int, c: int, r: int) -> VerificationError:
    """The ``not-distance-regular`` failure of N_uv(x) = count != c."""
    pair = f"{u * r},{v * r + x}"
    return VerificationError(
        "not-distance-regular",
        f"cross-fibre pair {pair} has no common neighbour"
        if count < 1
        else f"pair {pair} has {count} common neighbours, pair (0, {r + 1}) has {c}",
    )


def check_deck_group(G: AbelianGroup) -> None:
    """``UnsupportedError`` unless the deck group has order r >= 2 and prime exponent."""
    if G.order < 2:
        raise UnsupportedError("verification needs fibre size r >= 2")
    if G.prime_exponent is None:
        raise UnsupportedError(f"deck group with orders {G.orders} does not have prime exponent")


_CHECKS = (
    "arc-structure", "regular", "connected", "antipodal", "distance-regular",
    "character-blocks", "multiplicities-integral",
)


@lru_cache(maxsize=256)
def cover_certificate(n: int, r: int, c: int) -> CoverCertificate:
    """The certificate of a proven (n, r, c) cover, derived once per triple
    (a refusal is not cached): parameters, spectrum and the checks passed."""
    params = spectral_params(n, r, c)
    mults = []
    for name, m in (("m_theta", params.m_theta), ("m_tau", params.m_tau)):
        if not isinstance(m, Fraction) or m.denominator != 1 or m.numerator % (r - 1):
            raise RoutesDisagreeError(f"verified cover has inadmissible {name} = {m}")
        mults.append(m.numerator)
    mt, mtau = mults
    spectrum = ((Fraction(n - 1), 1), (params.theta, mt), (Fraction(-1), n - 1), (params.tau, mtau))
    return CoverCertificate(params=params, spectrum=spectrum, checks_passed=_CHECKS)


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

    proj = np.array([quot.index(project(el)) for el in G.elements()] + [-1])
    # a homomorphism keeps f(v, u) = -f(u, v); the diagonal's -1 reads the last entry
    return ArcMatrix._proven(quot, proj[f.index])
