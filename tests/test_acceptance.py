"""Acceptance suite: one test and one printed pass/fail line per criterion.

Everything is exact rational arithmetic, so every comparison is bit-exact
equality; the only tolerances are the stated runtime budgets.
"""

import random
import time
from fractions import Fraction
from itertools import islice

from eorec import (FramedCurve, conjugate_series,
                   energy_table, hodge_extract, lambda_top_coefficient,
                   lambda_triple, psi_table,
                   reference_correlators, residue_theta_psi, shift_step,
                   two_point_genus_one_readings, window_policy)
from eorec.psi import _operator_forms
from eorec.series import Series, integer_powers, substitute
from eorec.verify import build_stores

from oracles import fraction_dict, ibp_residue_check, integer_pair, peel_fractions

Q = Fraction
FRAMINGS = [1, 2, 3]
_state = {}


def _report(label: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}" + (f" ({detail})" if detail else ""))
    assert ok, label


def _stores():
    if "stores" not in _state:
        _state["stores"] = build_stores(FRAMINGS)
    return _state["stores"]


def test_criterion_1_golden_correlators():
    t0 = time.perf_counter()
    stores = _stores()
    ok = True
    for store in stores:
        for key, want in reference_correlators(store.f).items():
            ok = ok and store.correlator(*key).coeffs == want
        got = store.correlator(1, 2).coeffs
        readings = two_point_genus_one_readings(store.f)
        match = [name for name, t in readings.items() if t == got]
        ok = ok and len(match) == 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report("criterion 1: golden correlators, all framings, one kernel sign",
            ok, f"{elapsed:.2f}s < 10s, two-point reading: {match[0]}")


def test_criterion_2_residue_table():
    t0 = time.perf_counter()
    ok = True
    signs = set()
    for f in FRAMINGS:
        curve = FramedCurve(f)
        for n in range(0, 9):
            rho = residue_theta_psi(curve, n)
            if n == 1:
                ok = ok and abs(rho) == Q(1, f * (f + 1))
                signs.add(1 if rho > 0 else -1)
            else:
                ok = ok and rho == 0
    ok = ok and len(signs) == 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report("criterion 2: theta-basis residue table n <= 8",
            ok, f"{elapsed:.2f}s < 5s, audited sign at n=1: {signs.pop():+d}")


def test_criterion_3_lambda_identity():
    t0 = time.perf_counter()
    ok = True
    for g in range(2, 7):
        want = {1: 1, 2: 1} if g % 2 else {1: -1, 2: -1}
        ok = ok and lambda_top_coefficient(g).coeff_dict() == want
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report("criterion 3: top lambda-word coefficient, genus 2..6",
            ok, f"{elapsed:.3f}s < 1s")


def test_criterion_4_bernoulli_energies():
    t0 = time.perf_counter()
    stores = _stores()
    rows, epsilon = energy_table(stores, [2, 3, 4])
    _state["rows"] = rows
    magnitudes = {2: Q(1, 5760), 3: Q(1, 1451520), 4: Q(1, 87091200)}
    ok = epsilon is not None
    per_genus = {}
    for row in rows:
        ok = (ok and row.error is None and row.magnitude_ok
              and abs(row.direct) == magnitudes[row.g]
              and abs(row.reference) == magnitudes[row.g]
              and row.sign == epsilon)
        per_genus.setdefault(row.g, set()).add(row.direct)
    ok = ok and all(len(v) == 1 for v in per_genus.values())
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    _report("criterion 4: free energies equal the Bernoulli closed form, "
            "g in {2,3,4}, f in {1,2,3}",
            ok, f"{elapsed:.1f}s < 300s, epsilon = {epsilon}")


def test_criterion_5_path_equality():
    rows = _state.get("rows")
    if rows is None:
        rows, _ = energy_table(_stores(), [2, 3, 4])
    ok = all(row.error is None and row.paths_equal for row in rows)
    _report("criterion 5: direct residue pairing equals the index-1 shortcut", ok)


def test_criterion_6_property_suites():
    stores = _stores()
    ok = True

    # involution: s(s(z)) = z and x(s(z)) = x(z)
    for store in stores:
        s = conjugate_series(store.curve, 20)
        s_pows = integer_powers(s)
        X = store.curve.x_shifted()
        d = substitute(X, s_pows) - X
        ok = ok and d.window_end >= 20 and all(not v for v in d.coeffs)
        ss = substitute(s, s_pows)
        ok = ok and ss.window_end == 20 and (ss.den, ss.coeff(1)) == (1, 1)
        ok = ok and all(not ss.coeff(k) for k in range(2, 21))

    # truncation stability: widened window reproduces every coefficient
    for store in stores:
        for key in ((1, 1), (2, 1), (1, 2)):
            wide = store.compute(*key, window=window_policy(*key) + 4)
            ok = ok and wide.coeffs == store.correlator(*key).coeffs

    # peel remainder: zero on every recursion step (enforced internally);
    # direct probe on a dense combination
    for f in FRAMINGS:
        t = psi_table(f)
        coeffs = {n: Q(2 * n + 1, n + 3) for n in range(7)}
        combo = {}
        for n, c in coeffs.items():
            for e, a in fraction_dict(t.shifted(n)).items():
                combo[e] = combo.get(e, Q(0)) + c * a
        ok = ok and peel_fractions(combo, psi_table(f)) == coeffs

    # log-symbol cancellation: residue extraction raises on any survivor,
    # so completing the table is the check
    for f in FRAMINGS:
        curve = FramedCurve(f)
        for n in range(0, 9):
            residue_theta_psi(curve, n)

    # shift recursion vs operator definition under the one calibrated sign
    for f in FRAMINGS:
        t = psi_table(f)
        ok = ok and t.sign == 1
        for n, form in zip(range(1, 11), islice(_operator_forms(f), 1, None)):
            ok = ok and integer_pair(shift_step(t.shifted(n - 1), f, t.sign)) == \
                integer_pair(form)

    # integration-by-parts residue identity on 1000 random Laurent pairs
    rng = random.Random(987654321)
    for _ in range(1000):
        a = _random_laurent(rng)
        b = _random_laurent(rng)
        ok = ok and ibp_residue_check(a, b)

    # moduli-dimension support bound on every stored tensor
    for store in stores:
        for (g, h), w in store.table.items():
            bound = 3 * g - 3 + h
            ok = ok and all(sum(idx) <= bound for idx in w.coeffs)
            if h == 1 and g >= 2:
                ok = ok and all(1 <= idx[0] <= 3 * g - 2 for idx in w.coeffs)

    _report("criterion 6: property suites (involution, stability, peel, "
            "log cancellation, shift sign, ibp x1000, support bounds)", ok)


def _random_laurent(rng):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        terms[rng.randint(-5, 5)] = Q(rng.randint(-9, 9), rng.randint(1, 9))
    return Series.from_dict(terms, exact=True)


def test_criterion_7_bracket_consistency():
    stores = _stores()
    ok = True
    details = []
    for g in (2, 3, 4):
        ratios = set()
        for store in stores:
            table = hodge_extract(store.correlator(g, 1))
            ratios.add(table.value(1) / (store.f * (store.f + 1)))
        ok = ok and len(ratios) == 1
        ratio = ratios.pop()
        target = (2 * g - 2) * lambda_triple(g)
        ok = ok and abs(ratio) == target
        details.append(f"g={g}: {ratio}")
    _report("criterion 7: bracket[1]/(f(f+1)) framing independent and "
            "+/-(2g-2) lambda-triple", ok, "; ".join(details))
