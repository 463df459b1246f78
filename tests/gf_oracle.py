"""Finite fields GF(p) and GF(p^t) with exact tuple-coefficient arithmetic:
the test oracle of ``drackn.gf``, whose tables it must reproduce.

Field elements are coefficient tuples (a_0, ..., a_{t-1}) of polynomials in
the generator, low degree first, reduced modulo a fixed irreducible modulus.
A table of standard minimal-weight irreducible polynomials covers GF(2^t) for
t <= 8; larger binary degrees fall back to a deterministic search for the
lexicographically smallest irreducible, and odd-characteristic extensions
require an explicit modulus.  Moduli are validated with Rabin's
irreducibility test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from drackn.arith import factorize, is_prime
from drackn.errors import GroupMismatchError, UnsupportedError

# Modulus coefficients low -> high (monic).  t=8 is the AES polynomial.
IRREDUCIBLE_GF2: dict[int, tuple[int, ...]] = {
    2: (1, 1, 1),                    # x^2 + x + 1
    3: (1, 1, 0, 1),                 # x^3 + x + 1
    4: (1, 1, 0, 0, 1),              # x^4 + x + 1
    5: (1, 0, 1, 0, 0, 1),           # x^5 + x^2 + 1
    6: (1, 1, 0, 0, 0, 0, 1),        # x^6 + x + 1
    7: (1, 1, 0, 0, 0, 0, 0, 1),     # x^7 + x + 1
    8: (1, 1, 0, 1, 1, 0, 0, 0, 1),  # x^8 + x^4 + x^3 + x + 1
}


# -- polynomial helpers over GF(p), coefficients as trimmed low-first lists --


def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _psub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _ptrim(out)


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a, f, p):
    a = list(a)
    df = len(f) - 1
    inv_lead = pow(f[-1], p - 2, p)
    while len(a) - 1 >= df and a:
        _ptrim(a)
        if len(a) - 1 < df or not a:
            break
        coef = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - df
        for i, fi in enumerate(f):
            a[shift + i] = (a[shift + i] - coef * fi) % p
        _ptrim(a)
    return a


def _pgcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _pmod(a, b, p)
    if a:  # normalise monic
        inv = pow(a[-1], p - 2, p)
        a = [(c * inv) % p for c in a]
    return a


def _ppowmod(base, e: int, f, p):
    result = [1]
    base = _pmod(base, f, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), f, p)
        base = _pmod(_pmul(base, base, p), f, p)
        e >>= 1
    return result


def is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Rabin's irreducibility test for a polynomial over GF(p)."""
    f = _ptrim([c % p for c in poly])
    t = len(f) - 1
    if t < 1:
        return False
    if t == 1:
        return True
    x = [0, 1]
    if _ppowmod(x, p**t, f, p) != _pmod(x, f, p):
        return False
    for q in factorize(t):
        h = _psub(_ppowmod(x, p ** (t // q), f, p), x, p)
        if len(_pgcd(h, f, p)) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def _search_irreducible_gf2(t: int) -> tuple[int, ...]:
    """Lexicographically smallest (by low coefficients) monic irreducible of degree t."""
    for val in range(1, 2**t, 2):  # constant term must be 1
        poly = tuple((val >> i) & 1 for i in range(t)) + (1,)
        if is_irreducible(poly, 2):
            return poly
    raise RuntimeError(f"no irreducible polynomial of degree {t} found")  # unreachable


def default_modulus(p: int, t: int) -> tuple[int, ...]:
    if p != 2:
        raise UnsupportedError(
            f"no default modulus for GF({p}^{t}); supply one explicitly"
        )
    if t in IRREDUCIBLE_GF2:
        return IRREDUCIBLE_GF2[t]
    return _search_irreducible_gf2(t)


class FiniteField:
    """GF(p^t).  For t = 1 no modulus is involved; for t > 1 one is fixed."""

    def __init__(self, p: int, t: int = 1, modulus: tuple[int, ...] | None = None):
        if not is_prime(p):
            raise ValueError(f"field characteristic must be prime, got {p}")
        if t < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.t = t
        if t == 1:
            self.modulus: tuple[int, ...] | None = None
        else:
            if modulus is None:
                modulus = default_modulus(p, t)
            mod = tuple(c % p for c in modulus)
            if len(mod) != t + 1 or mod[-1] == 0:
                raise ValueError(f"modulus must have degree exactly {t}")
            if mod[-1] != 1:  # make monic
                inv = pow(mod[-1], p - 2, p)
                mod = tuple((c * inv) % p for c in mod)
            if not is_irreducible(mod, p):
                raise ValueError(f"modulus {mod} is reducible over GF({p})")
            self.modulus = mod

    @property
    def order(self) -> int:
        return self.p**self.t

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and (self.p, self.t, self.modulus) == (other.p, other.t, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.t, self.modulus))

    def __repr__(self):
        if self.t == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.t})"

    # -- element plumbing -------------------------------------------------

    def element(self, coeffs) -> "FFElement":
        cs = tuple(int(c) % self.p for c in coeffs)
        if len(cs) != self.t:
            raise ValueError(f"expected {self.t} coefficients, got {len(cs)}")
        return FFElement(self, cs)

    def scalar(self, a: int) -> "FFElement":
        return self.element((a,) + (0,) * (self.t - 1))

    @property
    def zero(self) -> "FFElement":
        return self.element((0,) * self.t)

    @property
    def one(self) -> "FFElement":
        return self.scalar(1)

    @property
    def gen(self) -> "FFElement":
        """The class of x (for t > 1) or 1 (for the prime field)."""
        if self.t == 1:
            return self.one
        return self.element((0, 1) + (0,) * (self.t - 2))

    def elements(self):
        """All field elements in lexicographic coefficient order."""
        for cs in product(range(self.p), repeat=self.t):
            yield FFElement(self, cs)

    # -- tuple-level arithmetic -------------------------------------------

    def _add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def _sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def _mul(self, a, b):
        if self.t == 1:
            return ((a[0] * b[0]) % self.p,)
        prod = _pmod(_pmul(list(a), list(b), self.p), list(self.modulus), self.p)
        return tuple(prod) + (0,) * (self.t - len(prod))


@dataclass(frozen=True)
class FFElement:
    """An element of a fixed FiniteField, as a reduced coefficient tuple."""

    field: FiniteField
    coeffs: tuple[int, ...]

    def _check(self, other: "FFElement"):
        if not isinstance(other, FFElement):
            raise TypeError(f"expected FFElement, got {type(other).__name__}")
        if other.field != self.field:
            raise GroupMismatchError(f"elements of {self.field} and {other.field} mixed")

    def __add__(self, other):
        self._check(other)
        return FFElement(self.field, self.field._add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._check(other)
        return FFElement(self.field, self.field._sub(self.coeffs, other.coeffs))

    def __neg__(self):
        return FFElement(self.field, tuple((-c) % self.field.p for c in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        return FFElement(self.field, self.field._mul(self.coeffs, other.coeffs))

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def inverse(self) -> "FFElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        return self ** (self.field.order - 2)

    def frobenius(self, k: int = 1) -> "FFElement":
        """self ** (p^k)."""
        return self ** (self.field.p**k)

    def __repr__(self):
        return f"FFElement({self.field!r}, {self.coeffs})"


def embed_subfield(sub: FiniteField, big: FiniteField) -> dict[FFElement, FFElement]:
    """The canonical embedding GF(p^s) -> GF(p^(s*k)) as an element map.

    The image of the subfield generator is the lexicographically smallest root
    of the subfield modulus in the big field, which makes the embedding
    deterministic.  Mapping a root of the same irreducible polynomial extends
    to a field homomorphism, so no further validation is needed.
    """
    if big.p != sub.p:
        raise GroupMismatchError("subfield embedding needs equal characteristic")
    if big.t % sub.t != 0:
        raise UnsupportedError(f"GF({sub.p}^{sub.t}) is not a subfield of GF({big.p}^{big.t})")
    if sub.t == 1:
        return {e: big.scalar(e.coeffs[0]) for e in sub.elements()}
    root = None
    mod = [int(c) for c in sub.modulus]
    for cand in big.elements():
        acc = big.zero
        power = big.one
        for c in mod:
            if c:
                acc = acc + power * big.scalar(c)
            power = power * cand
        if acc.is_zero():
            root = cand
            break
    if root is None:  # unreachable when degrees divide
        raise RuntimeError("no root of subfield modulus found")
    out: dict[FFElement, FFElement] = {}
    for e in sub.elements():
        acc = big.zero
        power = big.one
        for c in e.coeffs:
            if c:
                acc = acc + power * big.scalar(c)
            power = power * root
        out[e] = acc
    return out


def index_of(e: FFElement) -> int:
    """The ``drackn.gf`` index of a GF(2^k) element: its coefficients as
    binary digits, the constant term most significant."""
    return int("".join(map(str, e.coeffs)), 2)
