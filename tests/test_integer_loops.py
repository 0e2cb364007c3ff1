"""The integer-numerator versions of the series reciprocal and primitive,
substitution into a series, the theta residue, the basis shift recursion,
peeling and the top lambda-word coefficient agree with their ``Fraction``
oracles: values, windows and errors alike.  Building a frame and pairing
theta do no ``Fraction`` arithmetic beyond the kernel's closing scale, and
a basis table and the residue tables of a frame create no ``Fraction``
outside the kernel."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from eorec import (FramedCurve, PsiTable, Series, conjugate_series, lambda_top_coefficient,
                   omega_diff_series, psi_table, residue_theta_psi, shift_step)
from eorec import hodge
from eorec import recursion as rec_module
from eorec import verify as verify_module
from eorec.errors import PeelError
from eorec.psi import peel
from eorec.recursion import Conventions, CorrStore, window_policy
from eorec.series import integer_powers, substitute

from oracles import (antiderive, as_fractions, fraction_dict, integer_pair, integer_series, invert,
                     lambda_top_coefficient_by_series, peel_by_fractions, peel_fractions,
                     series_outcome, shift_step_by_fractions, theta_by_series)

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
        q = as_fractions(s)
        pows, inv_pows = integer_powers(s), integer_powers(integer_series(invert(q)))
        up, down = _fraction_powers(q, 8), _fraction_powers(invert(q), 8)
        for _ in range(6):
            poly = {e: Q(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
                    for e in rng.sample(range(-8, 9), rng.randint(1, 6))}
            want = Series(0, [], exact=True)
            for e, c in poly.items():
                want = want + (up[e] if e >= 0 else down[-e]).scale(c)
            got = as_fractions(substitute(integer_series(Series.from_dict(poly)), pows, inv_pows))
            assert (got.start, list(got.coeffs), got.window_end) == \
                (want.start, list(want.coeffs), want.window_end), (window, poly)


def test_the_involution_probes_are_certified_through_z20(stores, monkeypatch):
    """Both substitutions of verify's involution probe know every
    coefficient through z^20, at every framing, and x(s(z)) also through
    z^21, the coefficient that fixes s_20."""
    results = []

    def recorded(poly, pows, inv_pows=None):
        out = substitute(poly, pows, inv_pows)
        results.append(out)
        return out

    monkeypatch.setattr(verify_module, "substitute", recorded)
    report = verify_module.run_verification(stores, g_max=0)
    assert all(c.passed for c in report.checks if c.name == "involution")
    assert len(results) == 2 * len(stores)
    assert all(t.window_end >= 20 for t in results)
    assert all(t.window_end >= 21 for t in results[::2])


@pytest.mark.parametrize("f", [1, 2, 3])
def test_shift_step_matches_the_fraction_oracle(f):
    calibrated = psi_table(f)
    audit = PsiTable(f, forced_sign=-calibrated.sign)
    for table in (calibrated, audit):
        for n in range(1, 18):
            prev = table.shifted(n - 1)
            for sign in (1, -1):
                assert fraction_dict(shift_step(prev, f, sign)) == \
                    shift_step_by_fractions(fraction_dict(prev), f, sign)
            assert integer_pair(shift_step(prev, f, table.sign)) == integer_pair(table.shifted(n))


def _combination(table, coeffs):
    combo: dict = {}
    for n, c in coeffs.items():
        for e, a in fraction_dict(table.shifted(n)).items():
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
        assert peel_fractions(combo, table) == peel_by_fractions(combo, table) == coeffs
        # an arbitrary Laurent polynomial is mostly off the span: same error
        noise = {e: Q(rng.randint(-5, 5), rng.randint(1, 5)) for e in range(-36, 1)
                 if rng.random() < 0.5}
        assert _peel_outcome(peel_fractions, noise, table) == \
            _peel_outcome(peel_by_fractions, noise, table)


@pytest.mark.parametrize("f", [1, 2, 3])
def test_peel_matches_the_oracle_on_every_column_of_a_frame(monkeypatch, f):
    """Every kernel column, E[b] polynomial and W03 leg that a frame peels,
    with the result in lowest terms."""
    calls = []

    def recorded(slices, table):
        out = peel(slices, table)
        calls.append((slices, out))
        return out

    monkeypatch.setattr(rec_module, "peel", recorded)
    store = CorrStore(f, conventions=rec_module.calibrate(f))
    window = window_policy(4, 1)
    frame = store.frame(window)
    for j in range(window - 1):
        frame.kernel_basis(j)
    for b in range(9):
        frame.e_table(b)
    frame.w03_table()
    assert len(calls) >= window - 1 + 9
    for slices, (out_den, out) in calls:
        assert gcd(out_den, *out.values()) == 1
        assert {n: Q(c, out_den) for n, c in out.items()} == \
            peel_by_fractions(fraction_dict(slices), store.psi)


def _random_integer_series(rng) -> Series:
    """A random series over a random denominator: a leading zero, an exact
    polynomial and a monomial all occur."""
    coeffs = [rng.choice([0, rng.randint(-40, 40)]) for _ in range(rng.randint(1, 9))]
    den = rng.randint(1, 60)
    return Series(rng.randint(-3, 3), coeffs, exact=rng.random() < 0.3, den=den)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_integer_inverse_matches_the_fraction_reference_on_random_series(seed):
    rng = random.Random(7100 + seed)
    for _ in range(150):
        t = _random_integer_series(rng)
        order = rng.choice([None, rng.randint(0, 14)])
        assert series_outcome(lambda: as_fractions(t.invert(order))) == \
            series_outcome(lambda: invert(as_fractions(t), order)), (t.den, t.coeffs, order)


@pytest.mark.parametrize("f", [3, 4])
def test_integer_inverse_matches_the_fraction_reference_on_large_leads(f):
    """The frame's divisors at window 41, where y* + s, x and D have leads
    of up to a few hundred bits."""
    curve = FramedCurve(f)
    s = as_fractions(conjugate_series(curve, 41))
    z = Series(1, [Q(1)], exact=True)
    y_star = Series.constant(curve.y_star)
    X = as_fractions(curve.x_shifted())
    D = as_fractions(omega_diff_series(curve, integer_series(s)))
    for divisor, order in ((y_star + s, None), (X, 41), ((z - s) * (z - s), None), (D, None)):
        got = as_fractions(integer_series(divisor).invert(order))
        want = invert(divisor, order)
        assert (got.start, got.window_end, got.coeffs) == \
            (want.start, want.window_end, want.coeffs)


@pytest.mark.parametrize("seed", [1, 2])
def test_integer_primitive_matches_the_fraction_reference_on_random_series(seed):
    rng = random.Random(7200 + seed)
    for _ in range(150):
        t = _random_integer_series(rng)
        assert series_outcome(lambda: as_fractions(t.primitive())) == \
            series_outcome(lambda: antiderive(as_fractions(t))), (t.den, t.coeffs)


@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_theta_residue_matches_the_fraction_dot_product(f, monkeypatch):
    """The integer dot product against the ``Fraction`` one, for both parts
    of theta from its series construction."""
    monkeypatch.setattr(hodge, "_THETA", {})
    curve, table = FramedCurve(f), psi_table(f)
    rat, log = theta_by_series(curve, 2 * 20 + 1)
    for n in range(21):
        psi = fraction_dict(table.shifted(n))
        want = -sum(c * rat.coeff(-1 - e) for e, c in psi.items())
        assert sum(c * log.coeff(-1 - e) for e, c in psi.items()) == 0
        assert residue_theta_psi(curve, n, table=table) == want, n


@pytest.mark.parametrize("g", range(2, 11))
def test_lambda_top_coefficient_matches_the_series_products(g):
    """The binomial expansion over the integers against the product of
    ``Fraction`` series, past the genera that ``verify`` checks."""
    got, want = lambda_top_coefficient(g), lambda_top_coefficient_by_series(g)
    assert got.coeff_dict() == want.coeff_dict() == ({1: 1, 2: 1} if g % 2 else {1: -1, 2: -1})


_FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


def test_frames_and_theta_pairing_do_no_fraction_arithmetic(monkeypatch):
    """A frame at window 21 for f = 1..3 calls ``Fraction`` + - * / only in
    the kernel's closing sigma/2 scale, twice per kernel entry (a product
    and a sum), and pairing theta for n = 0..8 not at all.  For f = 1..4, a
    fresh basis table, a frame at window 21 and its R[a,b] (a <= b <= 4),
    E[b] (b <= 4), D and W03 tables create no ``Fraction`` outside the
    kernel."""
    stores = [CorrStore(f, Conventions(sigma_kernel=-1, sigma_psirec=1)) for f in (1, 2, 3)]
    monkeypatch.setattr(hodge, "_THETA", {})
    calls = Counter()
    for name in _FRACTION_OPS:
        def counted(a, b, real=getattr(Fraction, name), name=name):
            calls[name] += 1
            return real(a, b)

        monkeypatch.setattr(Fraction, name, counted)
    entries = 0
    for store in stores:
        frame = rec_module._Frame(store.curve, store.psi, 21, store.conventions.sigma_kernel)
        entries += sum(len(coeff.terms) for coeff in frame.kernel.coeffs)
    frame_calls = sum(calls.values())
    calls.clear()
    for store in stores:
        for n in range(9):
            residue_theta_psi(store.curve, n, table=store.psi)
    assert entries and frame_calls <= 2 * entries
    assert not calls
    monkeypatch.undo()

    in_kernel = []
    real_kernel = rec_module.recursion_kernel

    def kernel(*args):
        in_kernel.append(True)
        try:
            return real_kernel(*args)
        finally:
            in_kernel.pop()

    created = Counter()
    real_new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        if not in_kernel:
            created[f] += 1
        return real_new(cls, *args, **kwargs)

    curves = {f: FramedCurve(f) for f in range(1, 5)}
    monkeypatch.setattr(rec_module, "recursion_kernel", kernel)
    monkeypatch.setattr(Fraction, "__new__", counted_new)
    for f, curve in curves.items():
        frame = rec_module._Frame(curve, PsiTable(f), 21, -1)
        for b in range(5):
            for a in range(b + 1):
                frame.r_table(a, b)
            frame.e_table(b)
        frame.d_table()
        frame.w03_table()
    monkeypatch.undo()
    assert not created, dict(created)
