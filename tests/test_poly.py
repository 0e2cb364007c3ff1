from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eorec import Poly, RatFn

from oracles import lagrange_interpolate

Q = Fraction

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
polys = st.lists(small_fractions, max_size=5).map(Poly)


def test_canonical_length():
    assert Poly([1, 2, 0, 0]).coeffs == (Q(1), Q(2))
    assert Poly([0, 0]).is_zero()
    assert Poly([]).degree == -1


def test_gcd_linear_factor():
    # gcd(z^2 - 1/4, z + 1/2) = z + 1/2, monic
    a = Poly([Q(-1, 4), 0, 1])
    b = Poly([Q(1, 2), 1])
    assert a.gcd(b) == b


def test_quotient_rule_derivative():
    # d/dy 1/(2y + 1) = -2/(2y + 1)^2
    r = RatFn(Poly([1]), Poly([1, 2]))
    d = r.derivative()
    want = RatFn(Poly([-2]), Poly([1, 2]) * Poly([1, 2]))
    assert d == want


def test_eval_direct_substitution():
    # -y^2 (1 + y) at y = 1
    p = Poly([0, 0, -1, -1])
    assert p.eval(Q(1)) == -2


def test_divmod_and_gcd_consistency():
    a = Poly([1, 0, -2, 1])
    b = Poly([-1, 1])
    q, r = a.divmod(b)
    assert q * b + r == a


def test_taylor_shift():
    p = Poly([0, 0, 1])  # y^2
    shifted = p.taylor_shift(Q(1))  # (y+1)^2
    assert shifted == Poly([1, 2, 1])


def test_ratfn_normalization_idempotent():
    r = RatFn(Poly([0, 2, 2]), Poly([0, 0, 4]))  # (2y + 2y^2) / 4y^2
    again = RatFn(r.num, r.den)
    assert r == again
    assert r.den.coeffs[-1] == 1


def test_ratfn_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        RatFn(Poly([1]), Poly())


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys)
@settings(max_examples=40, deadline=None)
def test_monic_idempotent(p):
    assert p.monic().monic() == p.monic()


@given(polys, polys)
@settings(max_examples=40, deadline=None)
def test_gcd_divides_both(a, b):
    if a.is_zero() and b.is_zero():
        return
    g = a.gcd(b)
    assert a.divmod(g)[1].is_zero()
    assert b.divmod(g)[1].is_zero()


def test_lagrange_interpolation_exact():
    p = Poly([Q(1, 3), -2, 0, 5])
    points = [(Q(k), p.eval(Q(k))) for k in range(1, 6)]
    assert lagrange_interpolate(points) == p
