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


def test_norm_product_is_rational():
    x = QuadNum(Fraction(3, 2), Fraction(-1, 4), 21)
    prod = x * x.algebraic_conjugate()
    assert prod.is_rational()
    assert prod.rational_value() == Fraction(9, 4) - Fraction(1, 16) * 21


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
    # 2 - sqrt(2) - (sqrt(2) - 1) + (2 sqrt(2) - 3) = 0 exactly
    r2 = QuadNum.sqrt(2)
    assert ((2 - r2) - (r2 - 1) + (2 * r2 - 3)).sign() == 0


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
    assert QuadNum(Fraction(7, 3), 0, 5).is_rational()
    assert QuadNum(Fraction(7, 3), 0, 5).rational_value() == Fraction(7, 3)
    assert not QuadNum(0, 1, 5).is_rational()
    with pytest.raises(ValueError):
        QuadNum(0, 1, 5).rational_value()


def test_str_forms():
    assert str(QuadNum.sqrt(5)) == "sqrt(5)"
    assert str(-QuadNum.sqrt(5)) == "-sqrt(5)"
    assert str(QuadNum(6, Fraction(-2, 7), 21)) == "6-2/7*sqrt(21)"
    assert str(QuadNum(Fraction(3), 0, 5)) == "3"
