"""Exact arithmetic and ordering in real quadratic extensions Q(sqrt(m))."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from drackn.errors import GroupMismatchError
from drackn.quadratic import QuadNum


def test_sqrt_constructor():
    r5 = QuadNum.sqrt(5)
    assert r5 * r5 == 5
    assert QuadNum.sqrt(4) == 2
    assert QuadNum.sqrt(0) == 0
    assert QuadNum.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    r = QuadNum.sqrt(Fraction(1, 2))
    assert r * r == Fraction(1, 2)


def test_no_float_conversion():
    with pytest.raises(TypeError):
        float(QuadNum.sqrt(5))


def test_sqrt_negative_raises():
    with pytest.raises(ValueError):
        QuadNum.sqrt(-1)


def test_radicand_normalization():
    # sqrt(8) = 2 sqrt(2), so QuadNum(0, 1, 8) must equal 2 * sqrt(2)
    assert QuadNum(0, 1, 8) == 2 * QuadNum.sqrt(2)
    assert QuadNum(0, 1, 12) == QuadNum(0, 2, 3)
    assert QuadNum.sqrt(18) == 3 * QuadNum.sqrt(2)


def _parts(x) -> tuple[Fraction, Fraction]:
    return (x, Fraction(0)) if isinstance(x, Fraction) else (x.a, x.b)


def _times(u, v, m):
    (a1, b1), (a2, b2) = u, v
    return a1 * a2 + b1 * b2 * m, a1 * b2 + b1 * a2


def test_rational_results_are_fractions():
    """A result is a Fraction exactly when its sqrt(m) part is 0, and a
    QuadNum otherwise: one form per value."""

    def check(got, a, b, m):
        assert isinstance(got, Fraction) == (b == 0), (got, a, b)
        assert got == (a if b == 0 else QuadNum(a, b, m))

    rng = random.Random(30)

    def rand(m):
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.7 else 0
        return QuadNum(Fraction(rng.randint(-5, 5), rng.randint(1, 3)), b, m)

    for m in (2, 5, 21):
        for _ in range(40):
            x, y = rand(m), rand(m)
            for u, v in ((x, y), (x, x), (x, x.algebraic_conjugate()), (y.algebraic_conjugate(), x)):
                (a1, b1), (a2, b2) = _parts(u), _parts(v)
                check(u + v, a1 + a2, b1 + b2, m)
                check(u - v, a1 - a2, b1 - b2, m)
                check(u * v, *_times((a1, b1), (a2, b2), m), m)
                norm = a2 * a2 - b2 * b2 * m
                if norm:
                    a, b = _times((a1, b1), (a2, -b2), m)
                    check(u / v, a / norm, b / norm, m)
                k = rng.randint(0, 4)
                power = (Fraction(1), Fraction(0))
                for _ in range(k):
                    power = _times(power, (a1, b1), m)
                check(u**k, *power, m)
    for n, root in ((0, 0), (4, 2), (Fraction(9, 4), Fraction(3, 2))):
        check(QuadNum.sqrt(n), root, 0, 0)
    check(QuadNum.sqrt(Fraction(1, 2)), 0, Fraction(1, 2), 2)


def test_norm_product_is_rational():
    x = QuadNum(Fraction(3, 2), Fraction(-1, 4), 21)
    prod = x * x.algebraic_conjugate()
    assert isinstance(prod, Fraction)
    assert prod == Fraction(9, 4) - Fraction(1, 16) * 21


def test_field_identities_random():
    rng = random.Random(5)
    for m in (2, 5, 21):
        for _ in range(25):
            a = QuadNum(Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5), rng.randint(1, 4)), m)
            b = QuadNum(Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5), rng.randint(1, 4)), m)
            assert (a + b) - b == a
            assert a * b == b * a
            if b != 0:
                assert (a / b) * b == a
            if a != 0:
                assert a * a.inverse() == 1


def test_pow():
    r2 = QuadNum.sqrt(2)
    assert r2**2 == 2
    assert r2**3 == 2 * r2
    assert (1 + r2) ** 2 == 3 + 2 * r2
    assert r2**0 == 1


def test_exact_ordering():
    r2 = QuadNum.sqrt(2)
    assert Fraction(7, 5) < r2 < Fraction(3, 2)
    # the classic close call: 99/70 is slightly above sqrt(2)
    assert r2 < Fraction(99, 70)
    assert QuadNum.sqrt(5) > 2
    assert -QuadNum.sqrt(5) < -2
    # comparisons are confined to a single quadratic field Q(sqrt(m))
    with pytest.raises(GroupMismatchError):
        QuadNum.sqrt(2) < QuadNum.sqrt(3)


def test_sign():
    assert QuadNum.sqrt(3).sign() == 1
    assert (-QuadNum.sqrt(3)).sign() == -1
    assert (QuadNum.sqrt(2) - Fraction(3, 2)).sign() == -1
    assert QuadNum(0, 0, 0).sign() == 0
    # 2 - sqrt(2) - (sqrt(2) - 1) + (2 sqrt(2) - 3) = 0 exactly, as a Fraction
    r2 = QuadNum.sqrt(2)
    zero = (2 - r2) - (r2 - 1) + (2 * r2 - 3)
    assert isinstance(zero, Fraction) and zero == 0


def test_rational_interop():
    r5 = QuadNum.sqrt(5)
    assert 1 + r5 == r5 + 1
    assert Fraction(1, 2) * r5 == r5 / 2
    assert (3 - r5) + r5 == 3
    assert 10 / (QuadNum.sqrt(5) + 1) / (QuadNum.sqrt(5) - 1) == Fraction(10, 4)


def test_conjugate_vs_algebraic_conjugate():
    x = QuadNum(1, 2, 5)
    # real numbers: complex conjugation is the identity
    assert x.conjugate() == x
    assert x.algebraic_conjugate() == QuadNum(1, -2, 5)


def test_is_rational_and_value():
    # a rational value is a Fraction, an irrational one a QuadNum
    assert QuadNum(Fraction(7, 3), 0, 5) == Fraction(7, 3)
    assert QuadNum(0, 1, 5) + 0 == QuadNum.sqrt(5)
    assert isinstance(QuadNum(Fraction(7, 3), 0, 5) + 0, Fraction)
    assert QuadNum(Fraction(7, 3), 0, 5) + 0 == Fraction(7, 3)
    assert isinstance(QuadNum(0, 1, 5) + 0, QuadNum)
    assert isinstance(QuadNum(0, 1, 5) * QuadNum(0, 1, 5), Fraction)
    assert QuadNum(0, 1, 5) * QuadNum(0, 1, 5) == 5


def test_str_forms():
    assert str(QuadNum.sqrt(5)) == "sqrt(5)"
    assert str(-QuadNum.sqrt(5)) == "-sqrt(5)"
    assert str(QuadNum(6, Fraction(-2, 7), 21)) == "6-2/7*sqrt(21)"
    assert str(QuadNum(Fraction(3), 0, 5)) == "3"
