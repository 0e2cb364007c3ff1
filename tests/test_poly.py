from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from eorec import Poly

from oracles import lagrange_interpolate

Q = Fraction

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
polys = st.lists(small_fractions, max_size=5).map(Poly)


def test_canonical_length():
    assert Poly([1, 2, 0, 0]).coeffs == (Q(1), Q(2))
    assert Poly([0, 0]).is_zero()
    assert Poly([]).degree == -1


def test_eval_direct_substitution():
    # -y^2 (1 + y) at y = 1
    p = Poly([0, 0, -1, -1])
    assert p.eval(Q(1)) == -2


def test_derivative():
    # d/dy (1 - 3y + y^3) = -3 + 3y^2
    assert Poly([1, -3, 0, 1]).derivative() == Poly([-3, 0, 3])
    assert Poly([5]).derivative().is_zero()


def test_taylor_shift():
    p = Poly([0, 0, 1])  # y^2
    shifted = p.taylor_shift(Q(1))  # (y+1)^2
    assert shifted == Poly([1, 2, 1])


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_lagrange_interpolation_exact():
    p = Poly([Q(1, 3), -2, 0, 5])
    points = [(Q(k), p.eval(Q(k))) for k in range(1, 6)]
    assert lagrange_interpolate(points) == p
