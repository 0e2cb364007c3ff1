from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eorec import PsiTable, Series, psi_table, shift_step
from eorec import psi as psi_module
from eorec.psi import peel
from eorec.errors import CalibrationError, PeelError

from oracles import (fraction_dict, integer_pair, lagrange_interpolate,
                     operator_forms_by_taylor_shift, peel_by_fractions, peel_fractions,
                     taylor_shift)

Q = Fraction


def _operator_form(n, f):
    """psihat_n from a fresh operator chain."""
    return next(islice(psi_module._operator_forms(f), n, None))


def _y_numerator(n, f):
    """Numerator of psihat_n over lin^(2n+2), lin = f + (f+1) y, as {degree:
    coefficient}, read back from the z-form of the operator chain: at
    z = y + f/(1+f) the linear factor is (1+f) z."""
    top = 2 * n + 2
    form = fraction_dict(_operator_form(n, f))
    assert set(form) <= set(range(-top, -1))
    z_num = Series(0, [Q(form.get(i - top, 0)) for i in range(top - 1)], exact=True)
    return taylor_shift(z_num, Q(f, f + 1)).scale((1 + f) ** top).coeff_dict()


class TestOperatorDefinition:
    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_index_zero_matches_display(self, f):
        # psihat_0 = -1 / (f + (f+1) y)^2
        assert _y_numerator(0, f) == {0: -1}

    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_index_one_matches_display(self, f):
        # psihat_1 = (3(1+f) y(y+1) - (1+2y)(f+(f+1)y)) / (f+(f+1)y)^4
        lin = Series(0, [f, f + 1], exact=True)
        yy1 = Series(1, [1, 1], exact=True)  # y (y + 1)
        num = yy1.scale(3 * (1 + f)) - Series(0, [1, 2], exact=True) * lin
        assert _y_numerator(1, f) == num.coeff_dict()

    def test_shifted_forms_framing_one(self):
        t = psi_table(1)
        # -1/4; 1/8 - 3/32; -1/16 + 3/16 - 15/256, each in lowest terms
        assert integer_pair(t.shifted(0)) == (4, {-2: -1})
        assert integer_pair(t.shifted(1)) == (32, {-2: 4, -4: -3})
        assert integer_pair(t.shifted(2)) == (256, {-2: -16, -4: 48, -6: -15})

    def test_shifted_base_is_squared_pole(self):
        # -1/((1+f) z)^2, not a simple pole
        for f in (1, 2, 3):
            assert integer_pair(psi_table(f).shifted(0)) == ((1 + f) ** 2, {-2: -1})


class TestShiftRecursion:
    def test_calibrated_sign_is_global(self):
        for f in (1, 2, 3):
            assert psi_table(f).sign == 1

    def test_single_step_framing_one(self):
        out = shift_step(Series(-2, [-1], exact=True, den=4), 1, 1)
        assert integer_pair(out) == (32, {-2: 4, -4: -3})

    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_agrees_with_operator_to_ten(self, f):
        # through index 17; free-energy --g-max 6 reads up to index 16
        t = psi_table(f)
        operator = psi_module._operator_forms(f)
        next(operator)
        for n in range(1, 18):
            stepped = integer_pair(shift_step(t.shifted(n - 1), f, t.sign))
            assert stepped == integer_pair(t.shifted(n))
            assert stepped == integer_pair(next(operator))

    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_disagreement_after_calibration_raises(self, f, monkeypatch):
        real = psi_module.shift_step
        want = integer_pair(psi_table(f).shifted(2))

        def perturbed(prev, f, sign):
            out = real(prev, f, sign)
            if -prev.start // 2 >= 3:  # stepping psihat_(m-1), lead -2m, to m
                out = out + Series.monomial(1, -2)
            return out

        monkeypatch.setattr(psi_module, "shift_step", perturbed)
        t = PsiTable(f)
        assert integer_pair(t.shifted(2)) == want
        with pytest.raises(CalibrationError, match="n=3"):
            t.shifted(5)

    def test_forced_opposite_sign_alternates(self):
        t = PsiTable(1, forced_sign=-1)
        ref = psi_table(1)
        for n in range(4):
            den, nums = integer_pair(ref.shifted(n))
            assert integer_pair(t.shifted(n)) == (den, {e: c * (-1) ** n for e, c in nums.items()})

    def test_forced_matching_sign_keeps_checks(self):
        t = PsiTable(2, forced_sign=1)
        assert not t.forced
        assert integer_pair(t.shifted(3)) == integer_pair(psi_table(2).shifted(3))


class TestShape:
    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_exponent_range_and_lead(self, f):
        t = psi_table(f)
        for n in range(0, 13):
            d = t.shifted(n).coeff_dict()
            assert min(d) == -(2 * n + 2)
            assert max(d) <= -2
            assert d[-(2 * n + 2)] != 0

    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_no_residue_term(self, f):
        t = psi_table(f)
        for n in range(0, 11):
            assert t.shifted(n).coeff(-1) == 0

    def test_numerators_are_polynomial_in_framing(self):
        # a_i(f) := [z^(i - 2n - 2)] psihat_n * (1+f)^(3n+2) z^(2n+2) is a
        # polynomial of degree <= 2n, verified by interpolating with zero
        # remainder; the (1+f)^n beyond the displayed normalization is needed
        # to clear the denominators (a_0 = -3f/(1+f) already at n = 1)
        for n in (1, 2, 3):
            samples = list(range(1, 2 * n + 5))
            tables = {f: fraction_dict(psi_table(f).shifted(n)) for f in samples}
            for i in range(0, 2 * n + 1):
                pts = []
                for f in samples:
                    v = tables[f].get(i - 2 * n - 2, Q(0)) * (1 + f) ** (3 * n + 2)
                    pts.append((Q(f), v))
                fit = lagrange_interpolate(pts[:-1])
                assert taylor_shift(fit, pts[-1][0]).coeff(0) == pts[-1][1]
                assert max(fit.coeff_dict(), default=-1) <= 2 * n


@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_operator_forms_match_taylor_shift_chain(f):
    """The integer operator chain gives the forms of the Fraction chain."""
    for n, got, want in zip(range(21), psi_module._operator_forms(f),
                            operator_forms_by_taylor_shift(f)):
        assert fraction_dict(got) == want, n


def test_check_shape_rejects_a_residue_term():
    # the cap at z^-2 is what keeps every pairing with a basis form residue free
    good = Series.from_dict({-4: Q(-3, 32), -2: Q(1, 8)})
    psi_module._check_shape(good, 1)
    with pytest.raises(ArithmeticError, match="top <= -2"):
        psi_module._check_shape(good + Series.monomial(Q(1), -1), 1)


class TestPeel:
    def test_identity_case(self):
        t = psi_table(1)
        assert peel(t.shifted(2), t) == (1, {2: 1})

    def test_known_combination(self):
        # peel of -(W(1,1) scalar) at f=1 recovers its coefficients
        combo = {-2: Q(-1, 24), -4: Q(1, 128)}
        assert peel_fractions(combo, psi_table(1)) == {0: Q(1, 8), 1: Q(-1, 12)}
        # over one denominator, in lowest terms: 1/8 = 3/24, -1/12 = -2/24
        combo = Series(-4, [3, 0, -16], exact=True, den=384)
        assert peel(combo, psi_table(1)) == (24, {0: 3, 1: -2})

    def test_odd_exponent_rejected(self):
        with pytest.raises(PeelError):
            peel(Series.monomial(1, -3), psi_table(1))

    def test_exponent_above_minus_two_rejected(self):
        with pytest.raises(PeelError):
            peel(Series.monomial(1, -1), psi_table(1))
        with pytest.raises(PeelError):
            peel(Series.constant(1), psi_table(2))

    def test_out_of_span_remainder_rejected(self):
        # the f=2 basis has an odd subleading term; killing the lead of
        # index 1 alone leaves an odd remainder exponent
        with pytest.raises(PeelError):
            peel(Series.monomial(1, -4), psi_table(2))

    @pytest.mark.parametrize("peeler", [peel_fractions, peel_by_fractions],
                             ids=["peel", "peel_by_fractions"])
    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_peel_errors_keep_their_messages(self, peeler, f):
        t = psi_table(f)
        odd = "^odd leading exponent {} is outside the basis span$"
        with pytest.raises(PeelError, match=odd.format(-7)):
            peeler({-7: Q(2, 3), -4: Q(1)}, t)
        with pytest.raises(PeelError,
                           match="^exponent -1 above -2 cannot be matched by the basis$"):
            peeler({-1: Q(1), 3: Q(5)}, t)
        # a combination of psihat_0..psihat_4 moved off the span by one unit
        # at the inner odd exponent -5: -10, -8 and -6 peel, then -5 is left
        combo = {}
        for n in range(5):
            for e, a in fraction_dict(t.shifted(n)).items():
                combo[e] = combo.get(e, Q(0)) + Q(n + 1, 3) * a
        combo[-5] = combo.get(-5, Q(0)) + 1
        with pytest.raises(PeelError, match=odd.format(-5)):
            peeler(combo, t)

    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_roundtrip_dense(self, f):
        t = psi_table(f)
        coeffs = {n: Q(n * n + 1, n + 2) for n in range(0, 9)}
        combo = {}
        for n, c in coeffs.items():
            for e, a in fraction_dict(t.shifted(n)).items():
                combo[e] = combo.get(e, Q(0)) + c * a
        assert peel_fractions(combo, psi_table(f)) == coeffs


coeff_lists = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    min_size=1, max_size=8)


@given(coeff_lists, st.sampled_from([1, 2, 3]))
@settings(max_examples=50, deadline=None)
def test_peel_roundtrip_random(cs, f):
    t = psi_table(f)
    coeffs = {n: c for n, c in enumerate(cs) if c}
    combo = {}
    for n, c in coeffs.items():
        for e, a in fraction_dict(t.shifted(n)).items():
            combo[e] = combo.get(e, Q(0)) + c * a
    combo = {e: v for e, v in combo.items() if v}
    assert peel_fractions(combo, psi_table(f)) == coeffs
