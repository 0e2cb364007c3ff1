"""Polynomials are exact ``Series``: canonical form, ring laws, derivative,
and the tests' Taylor-shift and interpolation oracles."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from eorec import Series

from oracles import lagrange_interpolate, taylor_shift

Q = Fraction

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
polys = st.lists(small_fractions, max_size=5).map(lambda cs: Series(0, cs, exact=True))


def P(*coeffs) -> Series:
    return Series(0, [Q(c) for c in coeffs], exact=True)


def test_canonical_length():
    assert P(1, 2, 0, 0).coeffs == (Q(1), Q(2))
    assert P(0, 0).is_known_zero()
    assert P().coeff_dict() == {}


def test_eval_direct_substitution():
    # -y^2 (1 + y) at y = 1
    assert taylor_shift(P(0, 0, -1, -1), Q(1)).coeff(0) == -2


def test_derivative():
    # d/dy (1 - 3y + y^3) = -3 + 3y^2
    assert P(1, -3, 0, 1).derive().coeff_dict() == {0: Q(-3), 2: Q(3)}
    assert P(5).derive().is_known_zero()


def test_taylor_shift():
    shifted = taylor_shift(P(0, 0, 1), Q(1))  # (y+1)^2
    assert (shifted.start, shifted.coeffs) == (0, (Q(1), Q(2), Q(1)))
    # read by exponent: the stored zero at -1 that derive() leaves
    assert taylor_shift(P(2, 1).derive(), Q(3)).coeff_dict() == {0: Q(1)}


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    def same(x, y):
        return x.coeff_dict() == y.coeff_dict()

    assert same(a + b, b + a)
    assert same(a * b, b * a)
    assert same((a + b) + c, a + (b + c))
    assert same((a * b) * c, a * (b * c))
    assert same(a * (b + c), a * b + a * c)


def test_lagrange_interpolation_exact():
    p = P(Q(1, 3), -2, 0, 5)
    points = [(Q(k), taylor_shift(p, Q(k)).coeff(0)) for k in range(1, 6)]
    assert lagrange_interpolate(points).coeff_dict() == p.coeff_dict()
