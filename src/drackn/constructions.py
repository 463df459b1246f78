"""Explicit cover constructions and the generalized Hadamard bridge.

Two infinite families are built here:

* ``thas_somma(p, m, s)``: vertices GF(p)^m, deck group (Z/p)^s, arc values
  B(v, w) for an s-tuple B of alternating bilinear forms such that
  w -> B(v, w) is onto for every v != 0.  Parameters (p^m, p^s, p^(m-s)).

* ``dcff(t, d)``: a characteristic-2 family from a skew product on
  K = GF(2^(td)) over F = GF(2^t) and a symmetric Latin square on F.
  Vertices K x F, deck group (Z/2)^(td), parameters
  (2^(t(d+1)), 2^(td), 2^t), with d odd.

Both build the n x n arc index array as integer tables, with no per-pair
loop and no field arithmetic per pair, and verify it before returning it.

A cover with delta = -2 (equivalently n = rc) is the same thing as a
self-adjoint generalized Hadamard matrix with constant diagonal over the
deck group; ``cover_to_gh`` / ``gh_to_cover`` convert between the two views.
``gh_to_cover`` checks the Hadamard row-pair identity as ``drackn_verify``
checks a cover (``covers._count_blocks``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import gf, np
from .arith import is_prime
from .covers import (
    ArcMatrix,
    CoverCertificate,
    _MAX_FIBRES,
    _count_blocks,
    _frozen,
    check_deck_group,
    cover_certificate,
    drackn_verify,
)
from .errors import (
    CoverStructureError,
    GroupMismatchError,
    RoutesDisagreeError,
    UnsupportedError,
    VerificationError,
)
from .groups import AbelianGroup

#: Largest field size for which the exhaustive skew-product checks run.
_SKEW_CHECK_LIMIT = 1 << 10


def _check_fibres(p: int, e: int, what: str) -> None:
    """Refuse p^e > _MAX_FIBRES fibres (for p >= 2) without computing a huge p^e."""
    if p > 1 and (e >= _MAX_FIBRES.bit_length() or p**e > _MAX_FIBRES):
        raise UnsupportedError(
            f"{what} gives a cover with {p}^{e} fibres, more than the limit of {_MAX_FIBRES}"
        )


def _self_verified(arc: ArcMatrix, want: tuple[int, int, int], family: str) -> ArcMatrix:
    """``arc`` once ``drackn_verify`` certifies it with parameters ``want``."""
    cert = drackn_verify(arc)
    got = (cert.params.n, cert.params.r, cert.params.c)
    if got != want:
        raise RoutesDisagreeError(f"{family} cover verified as {got}, want {want}")
    return arc


# -- alternating-form covers --------------------------------------------------


def _vectors(p: int, m: int) -> np.ndarray:
    """The p^m x m matrix of GF(p)^m in lexicographic order."""
    return np.indices((p,) * m).reshape(m, -1).T


@dataclass(frozen=True)
class AlternatingForm:
    """An s-tuple of alternating m x m matrices over GF(p), onto as a pencil.

    Encodes B: GF(p)^m x GF(p)^m -> GF(p)^s by B(v, w)_k = v M_k w^T.  Each
    M_k must be alternating (M^T = -M with zero diagonal, stated explicitly
    so p = 2 is covered), and for every v != 0 the stacked s x m matrix
    (v M_1; ...; v M_s) must have rank s, making w -> B(v, w) onto.
    """

    p: int
    m: int
    s: int
    mats: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if not 1 <= self.s <= self.m:
            raise ValueError(f"need 1 <= s <= m, got s={self.s}, m={self.m}")
        _check_fibres(self.p, self.m, f"a form pencil on GF({self.p})^{self.m}")
        mats = tuple(
            tuple(tuple(int(x) % self.p for x in row) for row in mat) for mat in self.mats
        )
        object.__setattr__(self, "mats", mats)
        if len(mats) != self.s:
            raise ValueError(f"expected {self.s} matrices, got {len(mats)}")
        for k, mat in enumerate(mats):
            if len(mat) != self.m or any(len(row) != self.m for row in mat):
                raise ValueError(f"matrix {k} is not {self.m} x {self.m}")
            for i in range(self.m):
                if mat[i][i] != 0:
                    raise ValueError(f"matrix {k} has nonzero diagonal entry at {i}")
                for j in range(self.m):
                    if (mat[i][j] + mat[j][i]) % self.p != 0:
                        raise ValueError(f"matrix {k} is not alternating at ({i},{j})")
        # (v M_1; ...; v M_s) has rank < s iff v (sum_k l_k M_k) = 0 for some l != 0
        vs, stack = _vectors(self.p, self.m), np.array(mats, dtype=np.int64)
        singular = np.zeros(len(vs), dtype=bool)
        for lam in itertools.product(range(self.p), repeat=self.s):
            if any(lam):
                member = np.tensordot(lam, stack, 1) % self.p
                singular |= ~(vs @ member % self.p).any(axis=1)
        singular[0] = False
        if singular.any():
            v = tuple(int(x) for x in vs[np.argmax(singular)])
            raise ValueError(f"form pencil is not onto at v = {v}: rank < {self.s}")


def standard_symplectic(p: int, m: int) -> AlternatingForm:
    """The block-diagonal symplectic form on GF(p)^m (m even), as s = 1 pencil."""
    if m % 2 or m < 2:
        raise ValueError(f"the standard symplectic form needs even m >= 2, got {m}")
    _check_fibres(p, m, f"a form pencil on GF({p})^{m}")
    mat = [[0] * m for _ in range(m)]
    for b in range(0, m, 2):
        mat[b][b + 1] = 1
        mat[b + 1][b] = p - 1
    return AlternatingForm(p, m, 1, (tuple(tuple(row) for row in mat),))


def thas_somma(p: int, m: int, s: int = 1, form: AlternatingForm | None = None) -> ArcMatrix:
    """Cover of K_{p^m} with deck group (Z/p)^s from an alternating form pencil.

    With the default (s = 1, m even) standard symplectic form, or any valid
    ``AlternatingForm``, this produces a verified (p^m, p^s, p^(m-s)) cover.
    The arc values of all vertex pairs are the s tables V M_k V^T mod p, with
    V the p^m x m vertex matrix; alternating M_k make f(w, v) = -f(v, w).
    """
    if form is None:
        if s != 1 or m % 2:
            raise UnsupportedError(
                "no default form for s > 1 or odd m: pass an AlternatingForm"
            )
        form = standard_symplectic(p, m)
    if (form.p, form.m, form.s) != (p, m, s):
        raise ValueError(
            f"form is over (p={form.p}, m={form.m}, s={form.s}), "
            f"requested (p={p}, m={m}, s={s})"
        )
    vs = _vectors(p, m)
    values = (vs @ np.array(form.mats, dtype=np.int64) % p) @ vs.T % p  # [k, v, w]
    group = AbelianGroup((p,) * s)
    index = group.index_array(np.moveaxis(values, 0, -1))
    np.fill_diagonal(index, -1)
    return _self_verified(ArcMatrix(group, index), (p**m, p**s, p ** (m - s)), "alternating-form")


# -- characteristic-2 skew-product covers -------------------------------------


def _xor_span(values: np.ndarray) -> np.ndarray:
    """out[x] = XOR of values[a] over the bits a of x, bit 0 the most
    significant: the table of the GF(2)-linear map sending basis vector a
    to values[a], on all of GF(2)^k in ``gf`` index order."""
    out = np.zeros((1,) + values.shape[1:], dtype=np.int64)
    for v in values:
        out = np.stack([out, out ^ v], axis=1).reshape((-1,) + values.shape[1:])
    return out


@dataclass(frozen=True)
class SkewProduct:
    """A biadditive product K x K -> K (K = GF(2^(td)), F = GF(2^t)) that is

    * F-homogeneous in each slot: (sx)*y = s(x*y) = x*(sy) for s in F,
    * square-bijective: x -> x*x is a bijection of K, and
    * F-commuting: x*y = y*x exactly when x and y are F-dependent.

    The product is stored by its values on basis pairs, table[a][b] =
    x^a * x^b as a ``gf`` index of K, and extended biadditively.
    ``default_skew`` uses x*y = x . y^(2^t).
    """

    t: int
    d: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        td = self.t * self.d
        if len(self.table) != td or any(len(row) != td for row in self.table):
            raise ValueError(f"skew table must be {td} x {td} over GF(2^{td})")
        table = tuple(tuple(int(e) for e in row) for row in self.table)
        if any(not 0 <= e < 1 << td for row in table for e in row):
            raise GroupMismatchError(f"skew table entries must lie in GF(2^{td})")
        object.__setattr__(self, "table", table)

    def validate(self) -> tuple[np.ndarray, np.ndarray]:
        """Check the three axioms exhaustively and return the tables checked,
        on ``gf`` indices: the product table prod[x, y] = x*y and the scalar
        table mul[s, x] = s x."""
        t, k = self.t, self.t * self.d
        if 1 << k > _SKEW_CHECK_LIMIT:
            raise UnsupportedError(
                f"exhaustive skew validation is limited to |K| <= {_SKEW_CHECK_LIMIT}"
            )
        # x*y is GF(2)-linear in x for each basis y, then in y for each x
        prod = _xor_span(_xor_span(np.array(self.table)).T).T
        mul = gf.mul(gf.embedding(t, k)[:, None], np.arange(1 << k), k)
        e = 1 << np.arange(k - 1, -1, -1)  # 1, x, ..., x^(k-1)
        want = mul[:, prod[e[:, None], e]]  # [s, a, b]: s (e_a * e_b)
        homogeneous = (prod[mul[:, e, None], e] == want) & (
            prod[e[:, None], mul[:, None, e]] == want
        )
        if not homogeneous.all():
            s, a, b = np.argwhere(~homogeneous)[0]
            raise ValueError(
                f"skew product is not F-homogeneous at s={gf.coeffs(s, t)}, "
                f"basis pair ({gf.coeffs(e[a], k)}, {gf.coeffs(e[b], k)})"
            )
        if (np.sort(prod.diagonal()) != np.arange(1 << k)).any():
            raise ValueError("x -> x*x is not a bijection")
        dependent = np.zeros_like(prod, dtype=bool)
        dependent[np.arange(1 << k), mul] = True  # y = s x
        bad = (prod == prod.T) != (dependent | dependent.T)
        if bad.any():
            x, y = np.argwhere(bad)[0]
            raise ValueError(
                f"commuting/F-dependence mismatch at ({gf.coeffs(x, k)}, {gf.coeffs(y, k)})"
            )
        return prod, mul


def default_skew(t: int, d: int) -> SkewProduct:
    """The skew product x*y = x . y^(2^t) on GF(2^(td))."""
    k = t * d
    basis = frob = 1 << np.arange(k - 1, -1, -1)  # 1, x, ..., x^(k-1)
    for _ in range(t):
        frob = gf.mul(frob, frob, k)
    return SkewProduct(t=t, d=d, table=gf.mul(basis[:, None], frob, k))


@dataclass(frozen=True)
class LatinSquare:
    """A symmetric Latin square on GF(2^t), as a table of ``gf`` indices."""

    t: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        q = 1 << self.t
        if len(self.table) != q or any(len(row) != q for row in self.table):
            raise ValueError(f"latin table must be {q} x {q}")
        table = np.array(self.table, dtype=np.int64)
        object.__setattr__(self, "table", tuple(map(tuple, table.tolist())))
        # row by row: a row's permutation check, then its symmetry
        not_perm = (np.sort(table, axis=1) != np.arange(q)).any(axis=1)
        asym = table != table.T
        bad = not_perm | asym.any(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            if not_perm[i]:
                raise ValueError(f"row {i} is not a permutation of the field")
            raise ValueError(f"latin square is not symmetric at ({i},{np.argmax(asym[i])})")


def default_latin(t: int) -> LatinSquare:
    """s(i, j) = i + j on GF(2^t)."""
    q = np.arange(1 << t)
    return LatinSquare(t=t, table=q[:, None] ^ q)


def dcff(
    t: int,
    d: int,
    skew: SkewProduct | None = None,
    latin: LatinSquare | None = None,
) -> ArcMatrix:
    """Characteristic-2 cover with parameters (2^(t(d+1)), 2^(td), 2^t), d odd.

    Vertices are pairs (a, i) in GF(2^(td)) x GF(2^t), numbered a * 2^t + i;
    the arc value is

        f((a,i), (b,j)) = a*b + b*a + s(i,j) (a*a + b*b)

    computed in GF(2^(td)) and read off as a (Z/2)^(td) element.  The ``gf``
    index of the one is the element index of the other, and addition is XOR
    on them, so every arc value is a gather from the tables that
    ``SkewProduct.validate`` checked.
    """
    if t < 1 or d < 1:
        raise ValueError(f"need t >= 1 and d >= 1, got t={t}, d={d}")
    if d % 2 == 0:
        raise UnsupportedError(f"the skew-product family needs odd d, got {d}")
    _check_fibres(2, t * (d + 1), f"dcff(t={t}, d={d})")
    if skew is None:
        skew = default_skew(t, d)
    if (skew.t, skew.d) != (t, d):
        raise ValueError(f"skew product is for (t={skew.t}, d={skew.d})")
    if latin is None:
        latin = default_latin(t)
    if latin.t != skew.t:
        raise ValueError("latin square must live on the skew product's subfield")
    prod, mul = skew.validate()
    n, q = 2 ** (t * (d + 1)), 2**t
    a, i = np.divmod(np.arange(n), q)
    ab, square = prod[np.ix_(a, a)], prod.diagonal()[a]
    s_ij = np.array(latin.table)[np.ix_(i, i)]
    index = ab ^ ab.T ^ mul[s_ij, square[:, None] ^ square]
    np.fill_diagonal(index, -1)
    group = AbelianGroup((2,) * (t * d))
    return _self_verified(ArcMatrix(group, index), (n, 2 ** (t * d), q), "skew-product")


# -- generalized Hadamard bridge ----------------------------------------------


class GHMatrix:
    """A square matrix with entries in an abelian group (diagonal included).

    ``index`` is a read-only (n, n) int64 array of element indices
    (``AbelianGroup.elements`` order).  The constructor takes such an array
    or nested rows of exponent tuples (coordinates are reduced mod the orders).
    """

    __slots__ = ("group", "index")

    def __init__(self, group: AbelianGroup, entries):
        if isinstance(entries, np.ndarray):
            if ((entries < 0) | (entries >= group.order)).any():
                raise GroupMismatchError(f"element index out of range for {group}")
        else:
            entries = [[group.index(group.coerce(e)) for e in row] for row in entries]
        n = len(entries)
        if n < 1 or any(len(row) != n for row in entries):
            raise CoverStructureError("not-square", f"need a square table, got {n} rows")
        _frozen(self, group=group, index=np.array(entries, dtype=np.int64))

    def __setattr__(self, name, value):
        raise AttributeError("GHMatrix is immutable")

    @property
    def n(self) -> int:
        return self.index.shape[0]

    @property
    def entries(self) -> tuple[tuple, ...]:
        """Nested rows of exponent tuples."""
        els = self.group.elements()
        return tuple(tuple(els[i] for i in row) for row in self.index.tolist())

    def entry(self, u: int, v: int):
        return self.group.elements()[int(self.index[u, v])]

    def __eq__(self, other):
        if not isinstance(other, GHMatrix):
            return NotImplemented
        return self.group == other.group and np.array_equal(self.index, other.index)

    def __hash__(self):
        return hash((self.group, self.index.tobytes()))

    def __repr__(self):
        return f"GHMatrix(n={self.n}, group={self.group})"


def _row_pair_defect(group: AbelianGroup, f: np.ndarray) -> str | None:
    """None if the arc index array ``f`` of ``gh_to_cover`` has
    N_uv(x) = n/r for x != f(u, v) (the row sum n - 2 then forces n/r - 2 at
    f(u, v)), else a witness: the first failing row pair u < v and the worst
    of its row differences, which hit x N_uv(x) + 2[x = f(u, v)] times.

    A block is counted only if it fails B (B + 2I) = (n - 1)I (mod q)
    (``covers._count_blocks``), exact with c = lam, in [0, n - 2] for n >= 3
    and r >= 2 (at r = 1 every table passes).  Pair (v, u) fails iff (u, v)
    does, so the first failing block holds the first failing pair u < v."""
    n, r = f.shape[0], group.order
    if n % r:
        return f"order {n} is not a multiple of the group order {r}"
    lam = n // r
    fibres, xs = np.arange(n), np.arange(r)
    for lo, N in _count_blocks(f, group, 0, -2):
        block = f[lo:lo + len(N)]
        bad = (N != lam) & (xs != block[:, :, None])
        bad = bad.any(axis=2) & (fibres > fibres[lo:lo + len(N), None])
        if bad.any():
            k, v = (int(i) for i in np.argwhere(bad)[0])
            diffs = N[k, v] + 2 * (xs == block[k, v])  # times rows lo + k, v differ by x
            worst = int(np.argmax(abs(diffs - lam)))
            return (
                f"rows {lo + k},{v}: difference {group.elements()[worst]} appears "
                f"{diffs[worst]} times, want {lam}"
            )
    return None


def cover_to_gh(f: ArcMatrix) -> GHMatrix:
    """View a delta = -2 cover (n = rc) as a generalized Hadamard matrix.

    The arc table with identity diagonal is itself the Hadamard matrix, and
    ``drackn_verify`` already proves its row-pair identity: x appears
    N_uv(x) + 2[x = f(u, v)] times among the differences of rows u != v
    (``gh_to_cover``).  A cover has N_uv(x) = c off f(u, v) and
    N_uv(f(u, v)) = n - 2 - (r - 1)c, which is c - 2 exactly when
    delta = -2.  Other covers raise ``UnsupportedError``.
    """
    cert = drackn_verify(f)
    if cert.params.delta != -2:
        raise UnsupportedError(
            f"the Hadamard view needs delta = -2 (n = rc), got delta = {cert.params.delta}"
        )
    return GHMatrix(f.group, np.maximum(f.index, 0))  # the diagonal's -1 reads the identity


def gh_to_cover(h: GHMatrix) -> tuple[ArcMatrix, CoverCertificate]:
    """Rebuild the cover of a self-adjoint generalized Hadamard matrix with
    constant diagonal, certified by the row-pair identity itself, checked on
    the count table of its arc values (``_row_pair_defect``).

    Requires h(v,u) = -h(u,v) for all u, v (so twice the diagonal is zero)
    and a constant diagonal g0; the arc table is f(u, v) = h(u,v) - g0 off
    the diagonal.  In rows u != v the differences h(u, k) - h(v, k) are
    f(u, k) + f(k, v) for k not in {u, v} and f(u, v) for k in {u, v}, so x
    appears N_uv(x) + 2[x = f(u, v)] times.  The identity makes that n/r
    for every x, so N_uv(x) = n/r off f(u, v): by Godsil and Hensel an
    (n, r, n/r) cover, and delta = n - rc - 2 = -2.
    """
    group, idx = h.group, h.index
    bad = np.argwhere(group.neg_table()[idx] != idx.T)
    if len(bad):
        u, v = (int(i) for i in bad[0])
        raise VerificationError("gh-not-self-adjoint", f"h({v},{u}) != -h({u},{v})")
    if (idx.diagonal() != idx[0, 0]).any():
        raise VerificationError("gh-diagonal", "diagonal is not constant")
    idx = group.add_table()[idx, group.neg_table()[idx[0, 0]]]  # h(u, v) - g0
    np.fill_diagonal(idx, -1)
    defect = _row_pair_defect(group, idx)
    if defect is not None:
        raise VerificationError("gh-row-pairs", defect)
    arc = ArcMatrix(group, idx)
    check_deck_group(group)
    return arc, cover_certificate(h.n, group.order, h.n // group.order)
