from fractions import Fraction
from math import gcd

import pytest

from eorec import (FramedCurve, MLaurent, Series, bergman_self_pairing,
                   conjugate_series, omega_diff_series, recursion_kernel)
from eorec.series import integer_powers, substitute

from oracles import (as_fractions, conjugate_series_by_powers, invert,
                     kernel_by_laurent_products, omega_diff_by_log1p, taylor_shift)

Q = Fraction


def _omega_diff(curve, window):
    """D on the involution of the given window, as a frame builds it."""
    return as_fractions(omega_diff_series(curve, conjugate_series(curve, window)))


def _kernel(curve, window, sign=1):
    """K on the involution of the given window, as a frame builds it."""
    s = conjugate_series(curve, window)
    return recursion_kernel(omega_diff_series(curve, s), s, sign)


class TestCurveData:
    def test_framing_one(self):
        c = FramedCurve(1)
        assert c.y_star == Q(-1, 2)
        assert c.x_star == Q(1, 4)

    def test_framing_two(self):
        c = FramedCurve(2)
        assert c.y_star == Q(-2, 3)
        assert c.x_star == Q(-4, 27)

    def test_degenerate_framing_rejected(self):
        with pytest.raises(ValueError):
            FramedCurve(0)
        with pytest.raises(ValueError):
            FramedCurve(-2)

    def test_point_evaluation(self):
        # x(1) = -2 at f = 2, read off x(y* + z) at z = 1 - y*
        c = FramedCurve(2)
        assert taylor_shift(as_fractions(c.x_shifted()), 1 - c.y_star).coeff(0) == -2

    def test_shifted_expansion_f1(self):
        X = FramedCurve(1).x_shifted()
        assert (X.den, X.coeff_dict()) == (4, {0: 1, 2: -4})

    def test_shifted_expansion_f2(self):
        X = FramedCurve(2).x_shifted()
        assert (X.den, X.coeff_dict()) == (27, {0: -4, 2: 27, 3: -27})

    def test_critical_point_is_unique(self):
        # dx/dy = -y^(f-1) (f + (f+1) y), so X'(z) = -(f+1) z (y* + z)^(f-1):
        # z = 0 is the only root with y(y+1) != 0
        for f in (1, 2, 3):
            c = FramedCurve(f)
            y = Series(0, [c.y_star, Q(1)], exact=True)
            want = Series.monomial(Q(-(f + 1)), 1)
            # the other factor is (y* + z)^(f-1): all its roots at the puncture y = 0
            for _ in range(f - 1):
                want = want * y
            d = as_fractions(c.x_shifted()).derive()
            assert d.coeff_dict() == want.coeff_dict()
            assert d.coeff(0) == 0


class TestInvolution:
    def test_symmetric_framing_is_exact_flip(self):
        s = conjugate_series(FramedCurve(1), 20)
        assert (s.den, s.coeff(1)) == (1, -1)
        assert all(not s.coeff(k) for k in range(2, 21))

    def test_framing_two_leading_terms(self):
        s = as_fractions(conjugate_series(FramedCurve(2), 8))
        assert s.coeff(1) == -1
        assert s.coeff(2) == 1

    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_fixes_the_projection(self, f):
        c = FramedCurve(f)
        X = c.x_shifted()
        diff = substitute(X, integer_powers(conjugate_series(c, 20))) - X
        assert diff.window_end >= 20
        assert all(not v for v in diff.coeffs)

    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_is_an_involution(self, f):
        s = conjugate_series(FramedCurve(f), 20)
        ss = substitute(s, integer_powers(s))
        assert ss.window_end == 20
        assert (ss.den, ss.coeff(1)) == (1, 1)
        assert all(not ss.coeff(k) for k in range(2, 21))

    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_truncation_stability(self, f):
        c = FramedCurve(f)
        a = as_fractions(conjugate_series(c, 12))
        b = as_fractions(conjugate_series(c, 16))
        for k in range(1, 13):
            assert a.coeff(k) == b.coeff(k)


class TestOneFormDifference:
    def test_oracle_framing_one(self):
        D = _omega_diff(FramedCurve(1), 10)
        assert D.coeff(2) == 32
        assert D.coeff(4) == Q(512, 3)

    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_valuation_two(self, f):
        D = _omega_diff(FramedCurve(f), 8)
        assert D.eff_start() == 2
        assert D.coeff(2) != 0

    def test_even_at_symmetric_framing(self):
        D = _omega_diff(FramedCurve(1), 12)
        assert all(not D.coeff(k) for k in range(3, 12, 2))

    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_truncation_stability(self, f):
        c = FramedCurve(f)
        a = _omega_diff(c, 10)
        b = _omega_diff(c, 14)
        for k in range(2, 10):
            assert a.coeff(k) == b.coeff(k)


class TestKernel:
    def test_oracle_framing_one(self):
        K = _kernel(FramedCurve(1), 10)
        assert K.coeff(-1) == MLaurent(1, {(-2,): Q(-1, 32)})
        assert not K.coeff(0)
        assert K.coeff(1) == MLaurent(1, {(-4,): Q(-1, 32), (-2,): Q(1, 6)})

    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_simple_pole_in_z(self, f):
        K = _kernel(FramedCurve(f), 8)
        assert K.eff_start() == -1

    def test_sign_flip_negates(self):
        c = FramedCurve(2)
        plus = _kernel(c, 8, sign=1)
        minus = _kernel(c, 8, sign=-1)
        for k in range(-1, 5):
            assert plus.coeff(k) == -minus.coeff(k)

    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_coefficients_polar_in_w(self, f):
        K = _kernel(FramedCurve(f), 8)
        for k in range(-1, 5):
            for exps in K.coeff(k).terms:
                assert exps[0] <= -2

    def test_truncation_stability(self):
        c = FramedCurve(2)
        a = _kernel(c, 10)
        b = _kernel(c, 14)
        for k in range(-1, 6):
            assert a.coeff(k) == b.coeff(k)


def _windowed(series: Series) -> tuple:
    return series.start, series.coeffs, series.window_end


def test_bergman_self_pairing_f1():
    s = conjugate_series(FramedCurve(1), 10)
    b = as_fractions(bergman_self_pairing(s))
    assert b.coeff(-2) == Q(-1, 4)
    assert all(not b.coeff(k) for k in range(-1, 3))


@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_bergman_self_pairing_matches_squared_gap(f):
    """z^2 - 2 z s + s^2 over the integers gives the pairing of (z - s)
    squared."""
    curve, z = FramedCurve(f), Series(1, [Q(1)], exact=True)
    for window in range(4, 31):
        s = conjugate_series(curve, window)
        q = as_fractions(s)
        assert _windowed(as_fractions(bergman_self_pairing(s))) == \
            _windowed(q.derive() * invert((z - q) * (z - q))), window


@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_involution_matches_power_recomputation(f):
    """Keeping the powers of s gives the coefficients of recomputing them,
    over a denominator in lowest terms, as x(y* + z) is."""
    curve = FramedCurve(f)
    X = curve.x_shifted()
    assert gcd(X.den, *X.coeffs) == 1
    for window in range(2, 31):
        s = conjugate_series(curve, window)
        assert gcd(s.den, *s.coeffs) == 1, window
        got, want = as_fractions(s), conjugate_series_by_powers(curve, window)
        assert (got.start, got.coeffs, got.window_end) == \
            (want.start, want.coeffs, want.window_end), window


@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_one_form_difference_matches_log1p_route(f):
    """The primitive of the log's derivative gives the log1p series' D."""
    curve = FramedCurve(f)
    for window in range(4, 31):
        s = conjugate_series(curve, window)
        assert _windowed(as_fractions(omega_diff_series(curve, s))) == \
            _windowed(omega_diff_by_log1p(curve, window, as_fractions(s))), window


@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_kernel_matches_laurent_product_route(f):
    """Columns summed over the integers give the MLaurent product's kernel."""
    curve = FramedCurve(f)
    for window in range(4, 31):
        s = conjugate_series(curve, window)
        D = omega_diff_series(curve, s)
        assert _windowed(recursion_kernel(D, s, -1)) == \
            _windowed(kernel_by_laurent_products(window, -1, as_fractions(s),
                                                 as_fractions(D))), window
