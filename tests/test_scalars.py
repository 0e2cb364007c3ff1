from fractions import Fraction

import pytest

from eorec import format_rational, parse_rational


def test_small_fraction_arithmetic():
    assert Fraction(1, 6) + Fraction(-1, 30) == Fraction(2, 15)


def test_absorbing_element_is_canonical():
    z = Fraction(1, 2) * 0
    assert z == 0
    assert z.numerator == 0 and z.denominator == 1


def test_inverse():
    assert 1 / Fraction(1, 5760) == Fraction(5760)


def test_canonical_invariants():
    x = Fraction(-6, -10)
    assert x.denominator > 0
    from math import gcd
    assert gcd(abs(x.numerator), x.denominator) == 1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Fraction(1) / Fraction(0)


def test_format_parse_roundtrip():
    for x in (Fraction(1, 8), Fraction(-1, 12), Fraction(-36), Fraction(0)):
        assert Fraction(*parse_rational(format_rational(x))) == x
    assert format_rational(Fraction(-36)) == "-36"
    assert format_rational(Fraction(1, 8)) == "1/8"



@pytest.mark.parametrize("text", ["+1/8", " 1/8", "1/8 ", "1/08", "08", "1_0/3", "1/-8",
                                  "-0", "0/5", "2/16", "3/1", "1/", "/8", "1/2/3", "1.5"])
def test_parse_rejects_what_format_never_writes(text):
    """Each string is one that ``Fraction`` reads but ``format_rational``
    never writes, or one neither reads."""
    with pytest.raises(ValueError):
        parse_rational(text)
