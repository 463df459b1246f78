"""Seidel matrices, equiangular line systems, and their cover bridges.

A Seidel matrix here is a Hermitian n x n matrix with zero diagonal and
off-diagonal entries +-zeta_p^k for a prime p (just +-1 in the rational
case).  If S has exactly two eigenvalues theta > 0 > tau, then for each
eigenvalue lambda the matrix

    G = I - S / lambda

is positive semidefinite with unit diagonal and constant off-diagonal modulus
1/|lambda|: the Gram matrix of n equiangular unit lines spanning a space of
dimension equal to the multiplicity of the *other* eigenvalue.  G^2 is a
multiple of G, so the lines form a tight frame and attain the relative bound.

S^2 = aS + (n-1)I is proven from an integer count table by one lemma: for
prime p the only rational relation among 1, zeta_p, ..., zeta_p^(p-1) is
the all-equal one.  ``drackn_verify`` proves it for the character blocks of
a cover, which gives ``cover_to_lines``; conversely a two-eigenvalue Seidel
matrix whose entries are r-th roots of unity folds back into an arc table
over Z/r (``lines_to_cover``), with the multiplicity count determining c.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .covers import ArcMatrix, CoverCertificate, _count_table, drackn_verify, normalize
from .cyclotomic import CycNum
from .errors import DracknError, RoutesDisagreeError, UnsupportedError, VerificationError
from .exact_matrix import ExactMatrix
from .feasibility import _as_fraction
from .groups import AbelianGroup, char_apply, characters_of
from .arith import is_prime, sqrt_exact
from .quadratic import QuadNum


def _rational_of(x) -> Fraction | None:
    """Exact rational value of x, or None when x is irrational."""
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (QuadNum, CycNum)):
        return x.rational_value() if x.is_rational() else None
    return None


class SeidelMatrix:
    """Hermitian matrix with zero diagonal and entries +-zeta_p^k.

    ``root_order`` is None for +-1 entries, or a prime p for entries stored
    as ``CycNum``.  ``index`` holds each off-diagonal entry (-1)^h zeta_q^k
    as h*q + k in Z/2 x Z/q, where q = p, or q = 2 and k = 0 for +-1 entries.
    """

    __slots__ = ("mat", "root_order", "index")

    def __init__(self, entries, root_order: int | None = None):
        rows = tuple(
            tuple(Fraction(e) if isinstance(e, int) else e for e in row) for row in entries
        )
        mat = ExactMatrix(rows)
        n = mat.nrows
        if not mat.is_square() or n < 2:
            raise ValueError(f"Seidel matrix must be square of order >= 2, got {mat.shape}")
        if root_order is not None and not is_prime(root_order):
            raise ValueError(f"root_order must be a prime or None, got {root_order}")
        q = root_order or 2
        ks = range(1 if q == 2 else q)  # zeta_2 = -1: +-1 entries have k = 0
        table = {(1 - 2 * h) * CycNum.zeta_pow(q, k): h * q + k for h in (0, 1) for k in ks}
        index = np.zeros((n, n), dtype=np.int64)
        for u, row in enumerate(rows):
            if row[u] != 0:
                raise ValueError(f"diagonal entry ({u},{u}) is {row[u]!r}, not 0")
            for v, e in enumerate(row):
                if v == u:
                    continue
                if isinstance(e, CycNum) and e.r != root_order:
                    raise ValueError(
                        f"entry ({u},{v}) is a root of unity of order {e.r}, "
                        f"but root_order={root_order}"
                    )
                if e not in table:
                    raise ValueError(f"entry ({u},{v}) = {e!r} is not +-zeta_{q}^k")
                index[u, v] = table[e]
        # conj((-1)^h zeta^k) = (-1)^h zeta^(-k)
        bad = index.T != index - index % q + (-index) % q
        if bad.any():
            u, v = (int(i) for i in np.argwhere(bad)[0])
            raise ValueError(f"matrix is not Hermitian at ({u},{v})")
        index.flags.writeable = False
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "root_order", root_order)
        object.__setattr__(self, "index", index)

    def __setattr__(self, name, value):
        raise AttributeError("SeidelMatrix is immutable")

    @property
    def n(self) -> int:
        return self.mat.nrows

    def entry(self, u: int, v: int):
        return self.mat.entry(u, v)

    def negate(self) -> "SeidelMatrix":
        return SeidelMatrix(
            tuple(tuple(-e for e in row) for row in self.mat.rows), self.root_order
        )

    def __eq__(self, other):
        if not isinstance(other, SeidelMatrix):
            return NotImplemented
        return self.mat == other.mat and self.root_order == other.root_order

    def __hash__(self):
        return hash((self.mat, self.root_order))

    def __repr__(self):
        return f"SeidelMatrix(n={self.n}, root_order={self.root_order})"


@dataclass(frozen=True)
class SeidelSpectrum:
    """The two eigenvalues of a Seidel matrix with their multiplicities."""

    theta: Fraction | QuadNum
    tau: Fraction | QuadNum
    m_theta: int
    m_tau: int


def two_eigenvalue_data(s: SeidelMatrix) -> SeidelSpectrum:
    """Verify S^2 = aS + (n-1)I and return the eigenvalue data.

    No matrix product: write S[u, v] = e_uv zeta^k_uv (``S.index``) and let
    M_uv(k) = N_uv(+, k) - N_uv(-, k) from the count table over Z/2 x Z/q
    (``covers._count_table``), so S^2[u, v] = sum_k M_uv(k) zeta^k for
    u != v; the diagonal is n - 1 since the entries are units.  For prime q
    the only rational relation among 1, zeta, ..., zeta^(q-1) is the
    all-equal one, so the identity holds with rational a iff
    M_uv(k) - a e_uv [k = k_uv] is constant in k for every u != v, and a is
    read off the pair (0, 1).  +-1 matrices are the case q = 2, k_uv = 0.

    Raises ``VerificationError`` with condition ``not-two-eigenvalue`` when S
    has more than two eigenvalues, witnessed by the first failing entry (one
    exact row-column product) or by a multiplicity obstruction.
    """
    n = s.n
    q = s.root_order or 2
    els = np.arange(2 * q)
    add = (els[:, None] // q ^ els // q) * q + (els[:, None] + els) % q
    counts = _count_table(s.index, add)
    m = counts[:, :, :q] - counts[:, :, q:]
    sign, k = 1 - 2 * (s.index // q), s.index % q
    a_int = int(sign[0, 1] * (m[0, 1, k[0, 1]] - m[0, 1, (k[0, 1] + 1) % q]))
    a = Fraction(a_int)
    m[(*np.indices((n, n)), k)] -= a_int * sign
    bad = (m != m[:, :, :1]).any(axis=2)
    np.fill_diagonal(bad, False)
    if bad.any():
        # a fails on the pair (0, 1) itself exactly when S^2[0,1]/S[0,1] is irrational
        u, v = (int(i) for i in np.argwhere(bad)[0])
        sq = sum(s.entry(u, w) * s.entry(w, v) for w in range(n))
        raise VerificationError(
            "not-two-eigenvalue",
            f"S^2[0,1]/S[0,1] = {sq / s.entry(0, 1)!r} is not rational"
            if (u, v) == (0, 1)
            else f"(S^2 - {a}S - {n - 1}I)[{u},{v}] = {sq - s.entry(u, v) * a!r}",
        )
    root = sqrt_exact(a_int * a_int + 4 * (n - 1))
    if root is not None:
        theta: Fraction | QuadNum = Fraction(a_int + root, 2)
        tau: Fraction | QuadNum = Fraction(a_int - root, 2)
        mt, mtau = Fraction(n * (root - a_int), 2 * root), Fraction(n * (root + a_int), 2 * root)
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


@dataclass(frozen=True)
class LineSet:
    """n equiangular unit lines spanning dimension d, with |<x,y>|^2 = alpha_sq."""

    gram: ExactMatrix
    d: int
    alpha_sq: Fraction
    field: str  # "real" or "complex"

    @property
    def n(self) -> int:
        return self.gram.nrows


def _line_sets(s: SeidelMatrix, spec: SeidelSpectrum) -> tuple[LineSet, LineSet]:
    """The lines with Gram G = I - S/lam for lam = tau, then theta.

    G is 0 on the lam-eigenspace and 1 - mu/lam on the mu-eigenspace, so
    G^2 = (n/d) G and rank G = d = m_mu: the caller's spectrum gives d.
    """
    n = s.n
    field = "real" if s.root_order in (None, 2) else "complex"
    entries = s.mat.rows
    if isinstance(spec.theta, QuadNum) and not spec.theta.is_rational():
        # QuadNum and CycNum do not mix: divide the rational values
        entries = tuple(tuple(_rational_of(e) for e in row) for row in entries)
        if any(e is None for row in entries for e in row):
            raise UnsupportedError(
                "irrational eigenvalue with non-rational Seidel entries is not supported"
            )
    out = []
    for lam, d in ((spec.tau, spec.m_theta), (spec.theta, spec.m_tau)):
        rows = tuple(
            tuple(Fraction(1) if u == v else -(entries[u][v] / lam) for v in range(n))
            for u in range(n)
        )
        lam_sq = _rational_of(lam * lam)
        assert lam_sq is not None and lam_sq > 0
        out.append(LineSet(gram=ExactMatrix(rows), d=d, alpha_sq=1 / lam_sq, field=field))
    return out[0], out[1]


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
    """True iff the line vectors form a tight frame: G^2 = (n/d) G."""
    g = lines.gram
    return (g * g - g * Fraction(lines.n, lines.d)).is_zero()


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
    """
    cert = drackn_verify(f)
    g = normalize(f)
    p = g.group.prime_exponent
    chars = characters_of(g.group)
    if not 1 <= char_index < len(chars):
        raise ValueError(
            f"char_index must be in 1..{len(chars) - 1} (0 is the trivial character)"
        )
    block = char_apply(g, chars[char_index])
    s = SeidelMatrix(block.rows, root_order=p)
    ps = cert.params
    spec = SeidelSpectrum(
        ps.theta, ps.tau, int(_as_fraction(ps.mbar_theta)), int(_as_fraction(ps.mbar_tau))
    )
    return CoverLines(cert, s, *_line_sets(s, spec))


def _root_exponent(e, r: int) -> int | None:
    """Exponent k with e = zeta_r^k, or None if e is no such root of unity."""
    if isinstance(e, CycNum) and not e.is_rational():
        if e.r != r:
            return None
        return e.root_of_unity_exponent()
    q = _rational_of(e)
    if q == 1:
        return 0
    if q == -1 and r == 2:
        return 1
    return None


def lines_to_cover(s: SeidelMatrix, r: int) -> tuple[ArcMatrix, CoverCertificate]:
    """Fold a two-eigenvalue Seidel matrix with r-th root entries into a cover.

    r must be prime.  The entries become arc values over Z/r; the parameter
    c is computed from the eigenvalue data as

        c = ((n - 2) + (2d - n) |tau| / d) / r,    d = n - m_tau,

    and the rebuilt cover is fully verified; its certificate must reproduce
    the same c, otherwise ``RoutesDisagreeError`` is raised.
    """
    if not is_prime(r):
        raise UnsupportedError(f"deck order r must be prime, got {r}")
    spec = two_eigenvalue_data(s)
    n = s.n
    d = n - spec.m_tau
    if 2 * d == n:
        c_frac = Fraction(n - 2, r)
    else:
        tau_q = _rational_of(spec.tau)
        if tau_q is None:
            raise VerificationError(
                "parameters",
                f"irrational tau = {spec.tau!r} with 2d != n cannot give integer c",
            )
        c_frac = (Fraction(n - 2) + Fraction(2 * d - n) * (-tau_q) / d) / r
    if c_frac.denominator != 1 or c_frac < 1:
        raise VerificationError(
            "parameters", f"derived c = {c_frac} is not a positive integer"
        )
    c = int(c_frac)
    group = AbelianGroup((r,))
    entries: list[list] = [[None] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            k = _root_exponent(s.entry(u, v), r)
            if k is None:
                raise VerificationError(
                    "entry-not-root-of-unity",
                    f"entry ({u},{v}) = {s.entry(u, v)!r} is not an order-{r} root of unity",
                )
            entries[u][v] = (k,)
    arc = ArcMatrix(group, entries)
    cert = drackn_verify(arc)
    if cert.params.c != c:
        raise RoutesDisagreeError(
            f"verified c = {cert.params.c} but the eigenvalue formula gave c = {c}"
        )
    return arc, cert


def double_real(s: SeidelMatrix) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Double a +-1 Seidel matrix into the adjacency of a 2-fold cover of K_n.

    Vertex pair (2u, 2u+1) is the fibre over u.  An entry +1 joins the pairs
    straight ((2u,2v), (2u+1,2v+1)); -1 joins them crossed.  Returns the
    (2n x 2n) adjacency matrix and the fibre list; the result equals the
    expansion of ``lines_to_cover(s, 2)``'s arc table.
    """
    n = s.n
    adj = np.zeros((2 * n, 2 * n), dtype=np.int64)
    for u in range(n):
        for v in range(u + 1, n):
            q = _rational_of(s.entry(u, v))
            if q == 1:
                pairs = ((2 * u, 2 * v), (2 * u + 1, 2 * v + 1))
            elif q == -1:
                pairs = ((2 * u, 2 * v + 1), (2 * u + 1, 2 * v))
            else:
                raise VerificationError(
                    "entry-not-root-of-unity",
                    f"doubling needs +-1 entries, got {s.entry(u, v)!r} at ({u},{v})",
                )
            for x, y in pairs:
                adj[x, y] = adj[y, x] = 1
    fibres = [(2 * u, 2 * u + 1) for u in range(n)]
    return adj, fibres


def find_symmetric_conference(
    n: int, seed: int = 0, max_tries: int = 200_000
) -> SeidelMatrix:
    """Search for a symmetric conference matrix of order n (S^2 = (n-1) I).

    Seeded random search over symmetric +-1 matrices with zero diagonal,
    with an exhaustive sweep as fallback for very small n.  The result is a
    Seidel matrix whose two eigenvalues are +-sqrt(n-1).
    """
    if n < 2 or n % 2:
        raise ValueError(f"conference matrices need even order >= 2, got {n}")
    rng = random.Random(seed)
    m = n * (n - 1) // 2
    target = (n - 1) * np.eye(n, dtype=np.int64)

    def build(bits) -> np.ndarray:
        a = np.zeros((n, n), dtype=np.int64)
        k = 0
        for u in range(n):
            for v in range(u + 1, n):
                a[u, v] = a[v, u] = 1 if bits[k] else -1
                k += 1
        return a

    for _ in range(max_tries):
        cand = build([rng.randrange(2) for _ in range(m)])
        if np.array_equal(cand @ cand, target):
            return SeidelMatrix(cand.tolist(), root_order=None)
    if m <= 21:
        for code in range(1 << m):
            cand = build([(code >> k) & 1 for k in range(m)])
            if np.array_equal(cand @ cand, target):
                return SeidelMatrix(cand.tolist(), root_order=None)
    raise DracknError(f"no symmetric conference matrix of order {n} found")
