"""Seidel matrices, equiangular line systems, and their cover bridges.

A Seidel matrix here is a Hermitian n x n matrix with zero diagonal and
off-diagonal entries +-zeta_p^k for a prime p (just +-1 in the rational
case), stored as an arc table over Z/2 x Z/p (``covers``): (-1)^h zeta_p^k
is the element (h, k), and conjugation is its negation, so Hermitian is
f(v, u) = -f(u, v).  Everything here reads that array and integer count
tables; failure witnesses print exact values straight from integer
coefficient vectors (``_value_repr``).  If S has exactly two eigenvalues theta > 0 > tau,
then for each eigenvalue lambda the matrix

    G = I - S / lambda

is positive semidefinite with unit diagonal and constant off-diagonal modulus
1/|lambda|: the Gram matrix of n equiangular unit lines spanning a space of
dimension equal to the multiplicity of the *other* eigenvalue.  G^2 is a
multiple of G, so the lines form a tight frame and attain the relative bound.

S^2 = aS + (n-1)I is proven from an integer count table by one lemma: for
prime p the only rational relation among 1, zeta_p, ..., zeta_p^(p-1) is
the all-equal one.  The table is built over the smallest of Z/2, Z/p and
Z/2 x Z/p that holds every entry: Z/2 for +-1 matrices, Z/p when no entry
has a sign (every character block of a cover).  Its index array is a
gather onto that subgroup (``_subgroup_projection``), and so are the
exponents of r-th roots of unity, which form Z/2, Z/p or 1.
``drackn_verify`` proves the identity for the character blocks of a cover,
which gives ``cover_to_lines``; conversely a two-eigenvalue Seidel matrix
whose entries are r-th roots of unity folds back into an arc table over Z/r
(``lines_to_cover``), and the same lemma makes it a cover with
c = (n - 2 - a)/r.
Both directions only relabel indices: a character block's entry is
<e_chi, f(u, v)> mod p, and a Seidel entry zeta_r^k is the arc value k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import np
from .covers import ArcMatrix, CoverCertificate, _IndexTable, _arc_defect, _count_blocks
from .covers import _MAX_FIBRES, cover_certificate, drackn_verify
from .errors import UnsupportedError, VerificationError
from .feasibility import _is_positive_integer, quadratic_spectrum
from .groups import AbelianGroup, regular_expand
from .arith import is_prime
from .quadratic import QuadNum


def _root_index(k, p: int):
    """Index of zeta_p^k in Z/2 x Z/p (k is reduced mod p); zeta_2 = -1."""
    return 2 * (k % 2) if p == 2 else k % p


def _zeta_coeffs(value, q: int) -> list[int]:
    """Coefficients on 1, zeta, ..., zeta^(q-2) of sum_k value[k] zeta_q^k,
    reduced by zeta^(q-1) = -(1 + zeta + ... + zeta^(q-2)).  An int
    ``value`` is the entry index h*q + k, that is (-1)^h zeta_q^k."""
    if isinstance(value, int):
        h, k = divmod(value, q)
        value = [0] * q
        value[k] = 1 - 2 * h
    top = int(value[-1])
    return [int(x) - top for x in value[:-1]]


def _value_repr(root_order: int | None, value) -> str:
    """``repr`` of the exact number sum_k value[k] zeta_q^k (or of the entry
    with index ``value``): a ``Fraction`` for +-1 matrices (root_order None),
    else a ``CycNum``, which lists its ``_zeta_coeffs`` as strings."""
    coeffs = _zeta_coeffs(value, root_order or 2)
    if root_order is None:
        return repr(Fraction(coeffs[0]))
    return f"CycNum({root_order}, {tuple(str(c) for c in coeffs)!r})"


class SeidelMatrix(_IndexTable):
    """Hermitian matrix with zero diagonal and entries +-zeta_p^k.

    ``root_order`` is None for +-1 entries, or a prime p.  The matrix is an
    arc table over ``group`` = Z/2 x Z/q, q = p (q = 2 for +-1 entries): its
    ``index`` holds each off-diagonal entry (-1)^h zeta_q^k as h*q + k, the
    element (h, k), and -1 on the diagonal.  Conjugation negates (h, k), so
    S is Hermitian iff the table has f(v, u) = -f(u, v).  The constructor
    takes such an (n, n) array (its diagonal is ignored) and nothing else;
    for q = 2 the entries are +-1, so k = 0.
    """

    __slots__ = ("group", "index", "root_order")
    _key = ("root_order",)  # None and 2 share the group Z/2 x Z/2

    def __init__(self, entries, root_order: int | None = None):
        if not isinstance(entries, np.ndarray) or entries.ndim != 2:
            raise TypeError(
                f"SeidelMatrix takes an (n, n) index array, got {type(entries).__name__}"
            )
        n = entries.shape[0]
        if n < 2 or entries.shape[1] != n:
            raise ValueError(f"Seidel matrix must be square of order >= 2, got {entries.shape}")
        if root_order is not None and not is_prime(root_order):
            raise ValueError(f"root_order must be a prime or None, got {root_order}")
        q = root_order or 2
        with np.errstate(invalid="ignore"):  # nan, inf or out of int64 range: refused below
            index = entries.astype(np.int64)
        # an index h*q + k, exactly: a cast that changed a value, or zeta_2 as
        # k = 1 (it is h = 1), moves the entry out of the group
        bad = index != entries
        if q == 2:
            bad |= (index & 1) == 1
        index[bad] = -2
        np.fill_diagonal(index, -1)
        group = AbelianGroup((2, q))
        defect = _arc_defect(group, index)
        if defect is not None:
            error, u, v = defect
            if error.condition == "inverse-pair":
                raise ValueError(f"matrix is not Hermitian at ({u},{v})")
            raise ValueError(f"entry ({u},{v}) = {entries[u, v].item()!r} is not +-zeta_{q}^k")
        super().__init__(group, index, root_order=root_order)

    def _entry_repr(self, u: int, v: int) -> str:
        """repr of the exact entry S[u, v], u != v, for refusal messages."""
        return _value_repr(self.root_order, int(self.index[u, v]))


@lru_cache(maxsize=64)
def _subgroup_projection(q: int, H: int, K: int) -> np.ndarray:
    """The gather from element indices h*q + k of Z/2 x Z/q onto h*K + k in
    its subgroup Z/H x Z/K (H in {1, 2}, K in {1, q}), as in
    ``covers.quotient``: -2 for an element outside it, and -1 for the index
    -1 of a diagonal (read-only)."""
    h, k = divmod(np.arange(2 * q), q)
    proj = np.append(np.where((h < H) & (k < K), h * K + k, -2), -1)
    proj.flags.writeable = False
    return proj


def _root_exponents(s: SeidelMatrix, r: int) -> tuple[np.ndarray, tuple[int, int] | None]:
    """k with S[u, v] = zeta_r^k for prime r (-1 on the diagonal), and the
    first (u, v) whose entry is no r-th root of unity, or None.  The r-th
    roots in Z/2 x Z/q are Z/2 for r = 2, Z/q for r = q, else the identity."""
    q = s.group.orders[1]
    H, K = (2, 1) if r == 2 else (1, q) if r == q else (1, 1)
    exps = _subgroup_projection(q, H, K)[s.index]
    bad = exps == -2
    if not bad.any():
        return exps, None
    return exps, tuple(int(i) for i in np.argwhere(bad)[0])


@dataclass(frozen=True)
class SeidelSpectrum:
    """The two eigenvalues of a Seidel matrix with their multiplicities."""

    theta: Fraction | QuadNum
    tau: Fraction | QuadNum
    m_theta: int
    m_tau: int


def two_eigenvalue_data(s: SeidelMatrix) -> SeidelSpectrum:
    """Verify S^2 = aS + (n-1)I and return the eigenvalue data.

    Write S[u, v] = e_uv zeta^k_uv (``S.index``) and let
    M_uv(k) = N_uv(+, k) - N_uv(-, k) on the count table of the entries, so
    S^2[u, v] = sum_k M_uv(k) zeta^k for u != v; the diagonal is n - 1
    since the entries are units.  The table is over the smallest group that
    holds every entry: Z/2 when every k_uv is 0 (+-1 matrices, and every
    matrix with q = 2), Z/q when every e_uv is +1 (as in every character
    block of a cover), else Z/2 x Z/q.  A product of entries stays in the
    group of its factors, so the missing factor only adds zero counts:
    M_uv(k) = 0 for k != 0 over Z/2, and N_uv(-, k) = 0 over Z/q.  For
    prime q the only rational relation among 1, zeta, ..., zeta^(q-1) is
    the all-equal one, so the identity holds with rational a iff
    M_uv(k) - a e_uv [k = k_uv] is constant in k for every u != v, and a is
    read off the pair (0, 1), whose counts over w >= 2 are one bincount.

    Over Z/2 and Z/q (order r) a block is counted only if a pair in it has
    N_uv(x) != c at some x != f(u, v), for c = N_01(f(0, 1) + 1)
    (``covers._count_blocks``).  When pair (0, 1) passes,
    a = N_01(f(0, 1)) - c = n - 2 - rc, so these are exactly the pairs that
    fail; when it fails, so does block 0, which holds it.

    The spectrum is ``feasibility.quadratic_spectrum(a, n, n)``, as for a
    character block of a cover.

    Raises ``VerificationError`` with condition ``not-two-eigenvalue`` when S
    has more than two eigenvalues, witnessed by the first failing entry (its
    vector M_uv read as an exact number) or by a multiplicity obstruction.
    """
    n = s.n
    q = s.group.orders[1]
    for H, K in ((2, 1), (1, q), (2, q)):  # the first that holds every entry
        table = _subgroup_projection(q, H, K)[s.index]  # (-1)^h zeta^k is h*K + k
        if table.min() >= -1:
            break
    group = AbelianGroup(tuple(d for d in (H, K) if d > 1))
    np.fill_diagonal(table, 0)  # read as +1 below, and ignored by the counts
    h = table >= K
    sign, k = 1 - 2 * h, table - K * h
    n01 = np.bincount(group.add_table()[table[0, 2:], table[2:, 1]], minlength=H * K)
    m01, k01 = np.zeros(q, dtype=np.int64), k[0, 1]
    m01[:K] = n01[:K] - n01[K:] if H == 2 else n01
    a = int(sign[0, 1] * (m01[k01] - m01[(k01 + 1) % q]))
    c = int(n01[(table[0, 1] + 1) % group.order]) if group.rank == 1 else None
    for lo, counts in _count_blocks(table, group, 0, c):
        rows = len(counts)
        by_sign = counts.reshape(rows, n, H, K)
        # [u, v, k]: M_uv(k) for k < K; over Z/2 (K = 1), M_uv(k) = 0 for k != 0
        if H == 2:
            m = by_sign[:, :, 0] - by_sign[:, :, 1]
        else:
            m = np.ascontiguousarray(by_sign[:, :, 0])  # the flat write below must land in m
        # m[u, v] - a e_uv [k = k_uv], the entry of S^2 - aS - (n-1)I off the diagonal
        flat = np.arange(0, rows * n * K, K) + k[lo:lo + rows].ravel()
        m.reshape(-1)[flat] -= a * sign[lo:lo + rows].ravel()
        # constant in k; for K = 1 the zeros at k != 0 make that m = 0
        bad = (m[:, :, 1:] != m[:, :, :1]).any(axis=2) if K > 1 else m[:, :, 0] != 0
        bad[np.arange(rows), np.arange(lo, lo + rows)] = False
        if bad.any():
            # a fails on the pair (0, 1) itself exactly when S^2[0,1]/S[0,1] is irrational
            u, v = (int(i) for i in np.argwhere(bad)[0])
            if (lo + u, v) == (0, 1):
                # S^2[0,1]/S[0,1] = e_01 sum_k M_01(k) zeta^(k - k_01)
                ratio = sign[0, 1] * np.roll(m01, -k01)
                witness = f"S^2[0,1]/S[0,1] = {_value_repr(s.root_order, ratio)} is not rational"
            else:
                value = _value_repr(s.root_order, np.append(m[u, v], [0] * (q - K)))
                witness = f"(S^2 - {a}S - {n - 1}I)[{lo + u},{v}] = {value}"
            raise VerificationError("not-two-eigenvalue", witness)
    theta, tau, mt, mtau = quadratic_spectrum(a, n, n)
    if not (_is_positive_integer(mt) and _is_positive_integer(mtau)):
        # irrational eigenvalues have irrational multiplicities unless a = 0,
        # and then n/2 each
        if isinstance(theta, Fraction):
            witness = f"multiplicities {mt}, {mtau} are not positive integers"
        elif a != 0:
            witness = f"irrational eigenvalues with trace {a}*m != 0 cannot balance"
        else:
            witness = f"eigenvalues +-sqrt({n - 1}) need even order, got {n}"
        raise VerificationError("not-two-eigenvalue", witness)
    return SeidelSpectrum(theta, tau, int(mt), int(mtau))


@dataclass(frozen=True)
class LineSet:
    """n equiangular unit lines spanning dimension d, with |<x,y>|^2 = alpha_sq.

    The lines have Gram matrix G = I - S/lam for the Seidel matrix S and one
    of its eigenvalues lam.
    """

    n: int
    d: int
    alpha_sq: Fraction
    field: str  # "real" or "complex"
    seidel: SeidelMatrix
    lam: Fraction | QuadNum


def _line_sets(s: SeidelMatrix, spec: SeidelSpectrum) -> tuple[LineSet, LineSet]:
    """The lines with Gram G = I - S/lam for lam = tau, then theta.

    G is 0 on the lam-eigenspace and 1 - mu/lam on the mu-eigenspace, so
    G^2 = (n/d) G and rank G = d = m_mu: the caller's spectrum gives d.
    """
    field = "real" if s.root_order in (None, 2) else "complex"
    if isinstance(spec.theta, QuadNum) and _root_exponents(s, 2)[1] is not None:
        raise UnsupportedError(
            "irrational eigenvalue with non-rational Seidel entries is not supported"
        )
    return tuple(
        LineSet(s.n, d, 1 / (lam * lam), field, s, lam)
        for lam, d in ((spec.tau, spec.m_theta), (spec.theta, spec.m_tau))
    )


def seidel_to_linesets(s: SeidelMatrix) -> tuple[LineSet, LineSet]:
    """The two equiangular line systems of a two-eigenvalue Seidel matrix.

    Returns ``(lines_tau, lines_theta)`` where ``lines_tau`` comes from
    G = I - S/tau (dimension m_theta) and ``lines_theta`` from I - S/theta
    (dimension m_tau).
    """
    return _line_sets(s, two_eigenvalue_data(s))


def relative_bound(n: int, d: int) -> Fraction:
    """Critical squared angle of the relative bound for n lines in dimension d.

    n unit lines in dimension d with common squared angle alpha_sq < 1/d
    satisfy alpha_sq >= (n-d)/((n-1)d); equality holds exactly for tight
    frames, and then n = d(1-alpha_sq)/(1-d*alpha_sq).
    """
    if not 0 < d <= n:
        raise ValueError(f"need 0 < d <= n, got d={d}, n={n}")
    if n == 1:
        raise ValueError("need at least two lines")
    return Fraction(n - d, (n - 1) * d)


def absolute_bound(d: int, field: str = "complex") -> int:
    """Maximum number of equiangular lines in dimension d: d^2 over the
    complex numbers, d(d+1)/2 over the reals."""
    if d < 1:
        raise ValueError("dimension must be positive")
    if field == "complex":
        return d * d
    if field == "real":
        return d * (d + 1) // 2
    raise ValueError(f"field must be 'real' or 'complex', got {field!r}")


def tight_frame_check(lines: LineSet) -> bool:
    """True iff the line vectors form a tight frame: G^2 = (n/d) G.

    With S^2 = aS + (n-1)I (``two_eigenvalue_data``) and G = I - S/lam,
    G^2 = (1 + (n-1)/lam^2) I + (a/lam^2 - 2/lam) S.  S has zero diagonal
    and unit entries, so I and S are linearly independent, and G^2 = (n/d) G
    is two scalar identities: lam^2 + n - 1 = (n/d) lam^2 on I, and
    a - 2 lam = -(n/d) lam on S.  A Seidel matrix that ``two_eigenvalue_data``
    refuses has no such rational a, so G is no tight frame for rational lam
    (it would give a = (2 - n/d) lam) nor for +-1 entries (a = S^2[0,1]/S[0,1]).
    """
    try:
        spec = two_eigenvalue_data(lines.seidel)
    except VerificationError:
        return False
    lam, ratio = lines.lam, Fraction(lines.n, lines.d)
    a = spec.theta + spec.tau
    return lam * lam + (lines.n - 1) == ratio * lam * lam and a - 2 * lam == -ratio * lam


@dataclass(frozen=True)
class CoverLines:
    """A verified cover together with one character block's line systems."""

    certificate: CoverCertificate
    seidel: SeidelMatrix
    lines_tau: LineSet
    lines_theta: LineSet


def cover_to_lines(f: ArcMatrix, char_index: int = 1) -> CoverLines:
    """Equiangular lines from one non-trivial character block of a cover.

    ``drackn_verify`` proves B^2 = delta*B + (n-1)I for every non-trivial
    character block B, so B has the cover's theta and tau with
    multiplicities m_theta/(r-1) and m_tau/(r-1): its tau-lines span
    dimension m_theta/(r-1) and its theta-lines m_tau/(r-1).

    B is the block of the gauged table f(u, v) + f(0, u) - f(0, v), which
    ``drackn_verify`` builds.  chi is a homomorphism, so B needs no second
    gauge of the table: its exponents are k(u, v) + k(0, u) - k(0, v) mod p
    for the exponents k of chi(f(u, v)).
    """
    cert = drackn_verify(f)
    G = f.group
    p, els = G.prime_exponent, G.elements()
    if not 1 <= char_index < len(els):
        raise ValueError(
            f"char_index must be in 1..{len(els) - 1} (0 is the trivial character)"
        )
    # chi(x) = zeta_p^<e_chi, x> with e_chi = els[char_index] (``characters_of``)
    ks = np.array(els).reshape(len(els), G.rank) @ np.array(els[char_index])
    k = ks[f.index]  # the diagonal is ignored
    k0 = np.append(0, k[0, 1:])  # k(0, u), with k(0, 0) = 0
    index = _root_index(k + k0[:, None] - k0, p)
    np.fill_diagonal(index, -1)
    s = SeidelMatrix._proven(AbelianGroup((2, p)), index, root_order=p)
    ps = cert.params
    spec = SeidelSpectrum(ps.theta, ps.tau, int(ps.mbar_theta), int(ps.mbar_tau))
    return CoverLines(cert, s, *_line_sets(s, spec))


def lines_to_cover(s: SeidelMatrix, r: int) -> tuple[ArcMatrix, CoverCertificate]:
    """Fold a two-eigenvalue Seidel matrix with r-th root entries into a cover.

    r must be prime.  ``two_eigenvalue_data`` proves S^2 = aS + (n-1)I with
    rational a.  With entries S[u, v] = zeta_r^f(u, v), S^2[u, v] for u != v
    is sum_x N_uv(x) zeta_r^x on the count table of the arc values f over
    Z/r, and the prime-root lemma makes N_uv(x) - a[x = f(u, v)] constant
    in x.  As sum_x N_uv(x) = n - 2, N_uv(x) = c = (n - 2 - a)/r off
    f(u, v): by Godsil and Hensel an (n, r, c) cover once c >= 1.  This is
    the eigenvalue formula c = ((n - 2) + (2d - n)|tau|/d)/r, d = m_theta,
    since m_theta theta + m_tau tau = 0.  The failure conditions are
    ``not-two-eigenvalue``, ``parameters`` (c not a positive integer) and
    ``entry-not-root-of-unity``, in that order.  An r above the size limit
    of the SEIDEL format (``covers._MAX_FIBRES``) is refused before r is
    tested for primality.
    """
    if r > _MAX_FIBRES:  # before the trial division of is_prime
        raise UnsupportedError(f"deck order r = {r} is above the size limit of {_MAX_FIBRES}")
    if not is_prime(r):
        raise UnsupportedError(f"deck order r must be prime, got {r}")
    spec = two_eigenvalue_data(s)
    n = s.n
    c = (n - 2 - (spec.theta + spec.tau)) / r
    if c.denominator != 1 or c < 1:
        raise VerificationError("parameters", f"derived c = {c} is not a positive integer")
    exps, bad = _root_exponents(s, r)
    if bad is not None:
        u, v = bad
        raise VerificationError(
            "entry-not-root-of-unity",
            f"entry ({u},{v}) = {s._entry_repr(u, v)} is not an order-{r} root of unity",
        )
    return ArcMatrix._proven(AbelianGroup((r,)), exps), cover_certificate(n, r, int(c))


def double_real(s: SeidelMatrix) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Double a +-1 Seidel matrix into the adjacency of a 2-fold cover of K_n.

    Vertex pair (2u, 2u+1) is the fibre over u.  An entry +1 joins the pairs
    straight ((2u,2v), (2u+1,2v+1)); -1 joins them crossed.  Returns the
    (2n x 2n) adjacency matrix and the fibre list; the result equals the
    expansion of ``lines_to_cover(s, 2)``'s arc table.
    """
    exps, bad = _root_exponents(s, 2)
    if bad is not None:
        u, v = bad
        raise VerificationError(
            "entry-not-root-of-unity",
            f"doubling needs +-1 entries, got {s._entry_repr(u, v)} at ({u},{v})",
        )
    adj = regular_expand(ArcMatrix._proven(AbelianGroup((2,)), exps))
    return adj, [(2 * u, 2 * u + 1) for u in range(s.n)]


def paley_conference(q: int) -> SeidelMatrix:
    """The Paley conference matrix of order q + 1 for a prime q = 1 (mod 4).

    Rows and columns are infinity, then 0, ..., q - 1; entry (x, y) is the
    Legendre symbol of y - x mod q, and the row and column at infinity are
    ones.  q = 1 (mod 4) makes -1 a square, so the matrix is symmetric, and
    S^2 = q I: a Seidel matrix with the two eigenvalues +-sqrt(q) (Paley 1933).
    """
    if not is_prime(q) or q % 4 != 1:
        raise ValueError(f"Paley conference matrices need a prime q = 1 (mod 4), got {q}")
    x = np.arange(q)
    legendre = np.full(q, -1, dtype=np.int64)
    legendre[x**2 % q] = 1
    s = np.ones((q + 1, q + 1), dtype=np.int64)
    s[1:, 1:] = legendre[(x - x[:, None]) % q]
    return SeidelMatrix(1 - s, root_order=None)  # +1 -> 0, -1 -> 2; the diagonal is ignored
