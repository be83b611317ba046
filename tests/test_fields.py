"""Exact scalar fields: rationals and odd-prime finite fields."""

from fractions import Fraction

import pytest

from metanov import GF, QQ, parse_field


def test_rational_arithmetic_is_exact():
    a = QQ.coerce(Fraction(1, 3))
    b = QQ.coerce(Fraction(1, 6))
    assert QQ.add(a, b) == Fraction(1, 2)
    assert QQ.mul(a, b) == Fraction(1, 18)
    assert QQ.neg(a) == Fraction(-1, 3)
    assert QQ.char == 0


def test_rational_coerce_accepts_ints_and_strings():
    assert QQ.coerce(7) == Fraction(7)
    assert QQ.coerce("2/3") == Fraction(2, 3)


def test_prime_field_arithmetic():
    F = GF(7)
    assert F.add(5, 4) == 2
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.neg(2) == 5
    assert F.coerce(-1) == 6
    assert F.coerce(Fraction(1, 2)) == F.inv(2)
    assert F.char == 7


def test_characteristic_two_is_rejected():
    with pytest.raises(ValueError):
        GF(2)


def test_composite_modulus_is_rejected():
    with pytest.raises(ValueError):
        GF(9)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF(5).inv(0)


def test_parse_field():
    assert parse_field("q") is QQ
    assert parse_field("fp:1009").char == 1009
    with pytest.raises(ValueError):
        parse_field("fp:2")
    with pytest.raises(ValueError):
        parse_field("r64")


def test_field_equality_and_repr():
    assert GF(101) == GF(101)
    assert GF(101) != GF(103)
    assert QQ != GF(101)
    assert "101" in repr(GF(101))
