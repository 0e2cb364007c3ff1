"""The integer-numerator versions of series composition, the basis shift
recursion and peeling agree with their ``Fraction`` oracles: values,
windows and errors alike."""

import random
from fractions import Fraction

import pytest

from eorec import FramedCurve, PsiTable, Series, conjugate_series, psi_table, shift_step
from eorec import recursion as rec_module
from eorec.errors import PeelError, WindowError
from eorec.psi import peel
from eorec.recursion import CorrStore, window_policy

from oracles import compose_by_fractions, peel_by_fractions, shift_step_by_fractions

Q = Fraction


def _outcome(fn, *args):
    """What a series operation gives: its window and coefficients, or the
    type and text of the error it raises."""
    try:
        s = fn(*args)
    except (WindowError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return s.start, s.coeffs, s.exact, s.window_end, s.eff_start()


def _random_coeffs(rng, length):
    kind = rng.random()
    if kind < 0.1:
        return [Q(0)] * length                       # an all-zero window
    zeros = 0.2 if kind < 0.6 else 0.6
    return [Q(0) if rng.random() < zeros else Q(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(length)]


def _random_series(rng, starts):
    # length 0 with exact=False is an empty window
    return Series(rng.choice(starts), _random_coeffs(rng, rng.randint(0, 7)),
                  exact=rng.random() < 0.4)


def test_compose_matches_the_fraction_oracle_on_a_random_battery():
    rng = random.Random(20111)
    seen = set()
    for _ in range(2400):
        outer = _random_series(rng, range(-3, 3))
        inner = _random_series(rng, (0, 1, 1, 1, 2, 3))
        want = _outcome(compose_by_fractions, outer, inner)
        assert _outcome(Series.compose, outer, inner) == want, (outer, inner)
        seen.add(want[0] if isinstance(want[0], type) else "value")
        if not outer.exact and not any(outer.coeffs):
            seen.add("all-zero outer")
        if not inner.exact and not inner.coeffs:
            seen.add("empty inner window")
    assert {"value", WindowError, "all-zero outer", "empty inner window"} <= seen


@pytest.mark.parametrize("f", [1, 2, 3])
def test_compose_matches_the_oracle_on_the_involution_probes(f):
    curve = FramedCurve(f)
    s = conjugate_series(curve, 20)
    X = curve.x_shifted()
    for outer in (X, s, s.invert()):
        assert _outcome(Series.compose, outer, s) == _outcome(compose_by_fractions, outer, s)


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
