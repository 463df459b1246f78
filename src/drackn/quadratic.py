"""Exact arithmetic with real quadratic surds a + b*sqrt(m).

These show up as the eigenvalues theta = -tau = sqrt(n-1) of covers with
delta = 0 and as the sqrt(5)-parametrised sporadic feasible row.  The radicand
is normalised to be squarefree (and to 0 when the value is rational), so
equality of values is equality of the (a, b, m) triples.

One form per value: arithmetic (+ - * / **) and ``QuadNum.sqrt`` return a
``Fraction`` whenever the result is rational, so a value is a ``QuadNum``
only when it is irrational.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import sqrt_exact, squarefree_split
from .errors import GroupMismatchError


def _surd(a: Fraction, b: Fraction, m: int) -> "Fraction | QuadNum":
    """a + b*sqrt(m) for an already squarefree m: the Fraction a when b = 0."""
    if not b:
        return a
    x = object.__new__(QuadNum)
    x.a, x.b, x.m = a, b, m
    return x


class QuadNum:
    """The real number a + b*sqrt(m), with a, b rational and m squarefree.

    Arithmetic and ``sqrt`` return a ``Fraction`` for each rational result,
    so every QuadNum they return is irrational; only the constructor takes
    b = 0.
    """

    __slots__ = ("a", "b", "m")

    def __init__(self, a: Fraction | int, b: Fraction | int = 0, m: int = 0):
        a = Fraction(a)
        b = Fraction(b)
        if b != 0:
            if m <= 0:
                raise ValueError("radicand must be positive when b != 0")
            s, m0 = squarefree_split(m)
            b *= s
            if m0 == 1:
                a += b
                b = Fraction(0)
                m = 0
            else:
                m = m0
        else:
            m = 0
        self.a = a
        self.b = b
        self.m = m

    @classmethod
    def sqrt(cls, n: Fraction | int) -> "Fraction | QuadNum":
        """Exact sqrt(n) for a non-negative rational n."""
        q = Fraction(n)
        if q < 0:
            raise ValueError("sqrt of a negative rational")
        # sqrt(p/q) = sqrt(p*q) / q
        pq = q.numerator * q.denominator
        root = sqrt_exact(pq)
        if root is not None:
            return Fraction(root, q.denominator)
        return cls(0, Fraction(1, q.denominator), pq)

    # -- queries ---------------------------------------------------------

    def sign(self) -> int:
        # the larger of |a| and |b| sqrt(m) decides; they differ unless both
        # are 0, since a squarefree m > 1 is no rational square
        x = self.a if self.a * self.a > self.b * self.b * self.m else self.b
        return (x > 0) - (x < 0)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "QuadNum | None":
        if isinstance(other, QuadNum):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadNum(other)
        return None

    def _join_radicand(self, o: "QuadNum") -> int:
        if self.b and o.b and self.m != o.m:
            raise GroupMismatchError(f"incompatible radicands: {self.m} vs {o.m}")
        return self.m if self.b else o.m

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _surd(self.a + o.a, self.b + o.b, self._join_radicand(o))

    __radd__ = __add__

    def __neg__(self):
        return _surd(-self.a, -self.b, self.m)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = self._join_radicand(o)
        return _surd(self.a * o.a + self.b * o.b * m, self.a * o.b + self.b * o.a, m)

    __rmul__ = __mul__

    def inverse(self) -> "Fraction | QuadNum":
        denom = self.a * self.a - self.b * self.b * self.m
        if denom == 0:  # only for 0: m is squarefree > 1 when b != 0
            raise ZeroDivisionError("inverse of zero")
        return _surd(self.a / denom, -self.b / denom, self.m)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out, base = Fraction(1), self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "QuadNum":
        """Complex conjugation: these are real numbers, so the identity."""
        return self

    def algebraic_conjugate(self) -> "Fraction | QuadNum":
        """The field conjugate a - b*sqrt(m)."""
        return _surd(self.a, -self.b, self.m)

    # -- comparisons / hashing / display ---------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.a, self.b, self.m) == (o.a, o.b, o.m)

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.m))

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare QuadNum with {type(other).__name__}")
        d = self - o
        return d.sign() if isinstance(d, QuadNum) else (d > 0) - (d < 0)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __repr__(self):
        return f"QuadNum({self.a!r}, {self.b!r}, {self.m})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.b == 1:
            root = f"sqrt({self.m})"
        elif self.b == -1:
            root = f"-sqrt({self.m})"
        else:
            root = f"{self.b}*sqrt({self.m})"
        if self.a == 0:
            return root
        sep = "+" if self.b > 0 else ""
        return f"{self.a}{sep}{root}"
