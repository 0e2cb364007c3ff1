"""The integer-numerator versions of substitution into a series, the basis
shift recursion and peeling agree with their ``Fraction`` oracles: values,
windows and errors alike."""

import random
from fractions import Fraction

import pytest

from eorec import FramedCurve, PsiTable, Series, conjugate_series, psi_table, shift_step
from eorec import recursion as rec_module
from eorec import verify as verify_module
from eorec.errors import PeelError
from eorec.psi import peel
from eorec.recursion import CorrStore, window_policy
from eorec.series import integer_powers, substitute

from oracles import peel_by_fractions, shift_step_by_fractions

Q = Fraction


def _fraction_powers(s: Series, k: int) -> list:
    """[1, s, s^2, ..., s^k] by series products in ``Fraction`` arithmetic."""
    pows = [Series.constant(Q(1)), s]
    while len(pows) <= k:
        pows.append(pows[-1] * s)
    return pows


@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_substitute_matches_fraction_powers_on_random_laurent_polynomials(f):
    """sum_e c_e s^e over the integers equals the sum of the ``Fraction``
    powers of s and 1/s: coefficients and windows."""
    rng = random.Random(20260 + f)
    curve = FramedCurve(f)
    for window in range(4, 26):
        s = conjugate_series(curve, window)
        pows, inv_pows = integer_powers(s), integer_powers(s.invert())
        up, down = _fraction_powers(s, 8), _fraction_powers(s.invert(), 8)
        for _ in range(6):
            poly = {e: Q(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
                    for e in rng.sample(range(-8, 9), rng.randint(1, 6))}
            want = Series(0, [], exact=True)
            for e, c in poly.items():
                want = want + (up[e] if e >= 0 else down[-e]).scale(c)
            den, got = substitute(poly, pows, inv_pows)
            assert (got.start, [Q(c, den) for c in got.coeffs], got.window_end) == \
                (want.start, list(want.coeffs), want.window_end), (window, poly)


def test_the_involution_probes_are_certified_through_z20(stores, monkeypatch):
    """Both substitutions of verify's involution probe know every
    coefficient through z^20, at every framing."""
    results = []

    def recorded(poly, pows, inv_pows=None):
        out = substitute(poly, pows, inv_pows)
        results.append(out[1])
        return out

    monkeypatch.setattr(verify_module, "substitute", recorded)
    report = verify_module.run_verification(stores, g_max=0)
    assert all(c.passed for c in report.checks if c.name == "involution")
    assert len(results) == 2 * len(stores)
    assert all(t.window_end >= 20 for t in results)


@pytest.mark.parametrize("f", [1, 2, 3])
def test_shift_step_matches_the_fraction_oracle(f):
    calibrated = psi_table(f)
    audit = PsiTable(f, forced_sign=-calibrated.sign)
    for table in (calibrated, audit):
        for n in range(1, 18):
            prev = table.shifted(n - 1)
            for sign in (1, -1):
                assert shift_step(prev, f, sign) == shift_step_by_fractions(prev, f, sign)
            assert shift_step(prev, f, table.sign) == table.shifted(n)


def _combination(table, coeffs):
    combo: dict = {}
    for n, c in coeffs.items():
        for e, a in table.shifted(n).items():
            combo[e] = combo.get(e, Q(0)) + c * a
    return {e: v for e, v in combo.items() if v}


def _peel_outcome(peeler, slices, table):
    try:
        return peeler(slices, table)
    except PeelError as exc:
        return PeelError, str(exc)


@pytest.mark.parametrize("f", [1, 2, 3])
def test_peel_matches_the_fraction_oracle_on_dense_combinations(f):
    rng = random.Random(f)
    table = psi_table(f)
    for _ in range(40):
        coeffs = {n: Q(rng.randint(-50, 50), rng.randint(1, 30)) for n in range(18)}
        coeffs = {n: c for n, c in coeffs.items() if c}
        combo = _combination(table, coeffs)
        assert peel(combo, table) == peel_by_fractions(combo, table) == coeffs
        # an arbitrary Laurent polynomial is mostly off the span: same error
        noise = {e: Q(rng.randint(-5, 5), rng.randint(1, 5)) for e in range(-36, 1)
                 if rng.random() < 0.5}
        assert _peel_outcome(peel, noise, table) == _peel_outcome(peel_by_fractions, noise,
                                                                  table)


@pytest.mark.parametrize("f", [1, 2, 3])
def test_peel_matches_the_oracle_on_every_column_of_a_frame(monkeypatch, f):
    """Every kernel column, E[b] polynomial and W03 leg that a frame peels."""
    inputs = []

    def recorded(slices, table):
        inputs.append(dict(slices))
        return peel(slices, table)

    monkeypatch.setattr(rec_module, "peel", recorded)
    store = CorrStore(f, conventions=rec_module.calibrate(f))
    window = window_policy(4, 1)
    frame = store.frame(window)
    for j in range(window - 1):
        frame.kernel_basis(j)
    for b in range(9):
        frame.e_table(b)
    frame.w03_table()
    assert len(inputs) >= window - 1 + 9
    for slices in inputs:
        assert peel(slices, store.psi) == peel_by_fractions(slices, store.psi)
