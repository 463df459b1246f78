"""Exact arithmetic in prime-order cyclotomic fields Q(zeta_r).

Elements are written on the rational basis 1, zeta, ..., zeta^(r-2), where
zeta = exp(2*pi*i/r) and r is prime.  The reduction

    zeta^(r-1) = -(1 + zeta + ... + zeta^(r-2))

makes coefficient vectors unique, so equality of field elements is equality
of coefficient tuples.  All coefficients are ``fractions.Fraction``; nothing
here ever touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .arith import is_prime
from .errors import GroupMismatchError

_ZERO = Fraction(0)
_ONE = Fraction(1)


class CycNum:
    """An element of Q(zeta_r) for a fixed prime root order r.

    The constructor accepts either a canonical coefficient vector of length
    r-1 or a full cyclic vector of length r (which is reduced).  Arithmetic
    with ``int`` and ``Fraction`` promotes the rational operand; elements of
    different root orders never mix.
    """

    __slots__ = ("r", "coeffs")

    def __init__(self, r: int, coeffs: Sequence[Fraction | int]):
        if not is_prime(r):
            raise ValueError(f"cyclotomic root order must be prime, got {r}")
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) == r:
            top = cs[-1]
            cs = tuple(c - top for c in cs[:-1])
        elif len(cs) != r - 1:
            raise ValueError(
                f"expected {r - 1} (or {r}) coefficients for root order {r}, got {len(cs)}"
            )
        self.r = r
        self.coeffs = cs

    @classmethod
    def _raw(cls, r: int, coeffs: tuple[Fraction, ...]) -> "CycNum":
        self = object.__new__(cls)
        self.r = r
        self.coeffs = coeffs
        return self

    @classmethod
    def zero(cls, r: int) -> "CycNum":
        return cls(r, (_ZERO,) * (r - 1))

    @classmethod
    def one(cls, r: int) -> "CycNum":
        return cls.from_rational(r, _ONE)

    @classmethod
    def from_rational(cls, r: int, q: Fraction | int) -> "CycNum":
        cs = [_ZERO] * (r - 1)
        cs[0] = Fraction(q)
        return cls(r, cs)

    @classmethod
    def zeta_pow(cls, r: int, k: int) -> "CycNum":
        """zeta_r ** k, reduced to canonical form."""
        full = [_ZERO] * r
        full[k % r] = _ONE
        return cls(r, full)

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def root_of_unity_exponent(self) -> int | None:
        """k with self == zeta^k, or None if self is not a root of unity."""
        return _power_table(self.r).get(self.coeffs)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "CycNum | None":
        if isinstance(other, CycNum):
            if other.r != self.r:
                raise GroupMismatchError(
                    f"cyclotomic root orders differ: {self.r} vs {other.r}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycNum.from_rational(self.r, other)
        return None

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            cs = list(self.coeffs)
            cs[0] += other
            return CycNum._raw(self.r, tuple(cs))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNum._raw(self.r, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycNum._raw(self.r, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            cs = list(self.coeffs)
            cs[0] -= other
            return CycNum._raw(self.r, tuple(cs))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNum._raw(self.r, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycNum._raw(self.r, tuple(c * other for c in self.coeffs))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        r = self.r
        prod = [_ZERO] * r
        for i, ai in enumerate(self.coeffs):
            if not ai:
                continue
            for j, bj in enumerate(o.coeffs):
                if not bj:
                    continue
                k = i + j
                if k >= r:
                    k -= r
                prod[k] += ai * bj
        top = prod[r - 1]
        if top:
            return CycNum._raw(r, tuple(prod[i] - top for i in range(r - 1)))
        return CycNum._raw(r, tuple(prod[: r - 1]))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            inv = Fraction(1) / Fraction(other)
            return CycNum._raw(self.r, tuple(c * inv for c in self.coeffs))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def galois(self, k: int) -> "CycNum":
        """Apply the Galois automorphism zeta -> zeta^k (k not divisible by r)."""
        r = self.r
        k %= r
        if k == 0:
            raise ValueError("k must be invertible mod r")
        out = [_ZERO] * r
        for j, cj in enumerate(self.coeffs):
            if cj:
                out[(j * k) % r] += cj
        top = out[r - 1]
        return CycNum._raw(r, tuple(out[i] - top for i in range(r - 1)))

    def conjugate(self) -> "CycNum":
        """Complex conjugation, zeta -> zeta^(r-1)."""
        if self.r == 2:
            return self
        return self.galois(self.r - 1)

    def abs2(self) -> "CycNum":
        """self * conj(self) (squared modulus; rational for roots of unity)."""
        return self * self.conjugate()

    def inverse(self) -> "CycNum":
        """Multiplicative inverse, via the product of Galois conjugates."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational():
            return CycNum.from_rational(self.r, Fraction(1) / self.coeffs[0])
        prod = CycNum.one(self.r)
        for k in range(2, self.r):
            prod = prod * self.galois(k)
        norm = self * prod
        nv = norm.rational_value()  # field norm, rational by Galois theory
        return prod * (Fraction(1) / nv)

    # -- comparisons / hashing / display ---------------------------------

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except GroupMismatchError:
            return False
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.r, self.coeffs))

    def __repr__(self):
        return f"CycNum({self.r}, {tuple(str(c) for c in self.coeffs)})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                parts.append(str(c))
            else:
                mag = "z" if j == 1 else f"z^{j}"
                if c == 1:
                    parts.append(mag)
                elif c == -1:
                    parts.append(f"-{mag}")
                else:
                    parts.append(f"{c}*{mag}")
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out


@lru_cache(maxsize=None)
def _power_table(r: int) -> dict[tuple[Fraction, ...], int]:
    return {CycNum.zeta_pow(r, k).coeffs: k for k in range(r)}


def zeta(r: int) -> CycNum:
    """The primitive r-th root of unity exp(2*pi*i/r), r prime."""
    return CycNum.zeta_pow(r, 1)

