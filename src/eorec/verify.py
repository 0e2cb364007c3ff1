"""Bundled verification checks with machine-readable results.

Every check produces a record with its parameters, the expected and actual
values rendered exactly, and a boolean outcome; the report as a whole
carries the calibrated conventions and the global energy sign.  The checks
cover: the known low-order tensors, the reading of the ambiguous two-point
genus-one display, the residue table of the primitive against the basis,
the lambda-word reduction identity, the involution probes (x(s(z)) = x(z)
and s(s(z)) = z by substitution into the integer powers of s, and
s'(0) = -1), truncation-stability probes, branch-symbol cancellation, the
free-energy comparisons, bracket consistency, and the critical-value
discrepancy report.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .curve import conjugate_series
from .errors import LogBranchError
from .hodge import (dilaton, energies_by_genus, energy_table, hodge_extract,
                    lambda_top_coefficient, reserve_theta, residue_theta_psi)
from .psi import peel
from .recursion import CorrStore, Conventions, window_policy
from .reference import reference_correlators, two_point_genus_one_readings
from .scalars import format_rational
from .series import Series, integer_powers, lowest_terms, substitute

class CheckRecord:
    __slots__ = ("name", "params", "expected", "actual", "passed", "note")

    def __init__(self, name: str, params: dict, expected: str, actual: str, passed: bool,
                 note: str | None = None):
        self.name, self.params, self.expected = name, params, expected
        self.actual, self.passed, self.note = actual, passed, note

    def to_payload(self) -> dict:
        out = {"name": self.name, "params": self.params, "expected": self.expected,
               "actual": self.actual, "pass": self.passed}
        if self.note:
            out["note"] = self.note
        return out


class VerifyReport:
    __slots__ = ("conventions", "epsilon", "checks")

    def __init__(self, conventions: Conventions, epsilon: int | None,
                 checks: list[CheckRecord] | None = None):
        self.conventions, self.epsilon = conventions, epsilon
        self.checks = [] if checks is None else checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> dict:
        total = len(self.checks)
        good = sum(1 for c in self.checks if c.passed)
        return {"total": total, "passed": good, "failed": total - good}

    def to_payload(self) -> dict:
        return {
            "conventions": {
                "sigma_kernel": self.conventions.sigma_kernel,
                "sigma_psirec": self.conventions.sigma_psirec,
                "epsilon": self.epsilon,
            },
            "checks": [c.to_payload() for c in self.checks],
            "summary": self.summary(),
        }

    def to_text(self) -> str:
        lines = [
            f"conventions: sigma_kernel={self.conventions.sigma_kernel}, "
            f"sigma_psirec={self.conventions.sigma_psirec}, epsilon={self.epsilon}"
        ]
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            params = ", ".join(f"{k}={v}" for k, v in c.params.items())
            line = f"[{mark}] {c.name} ({params}): expected {c.expected}, got {c.actual}"
            if c.note:
                line += f"  [{c.note}]"
            lines.append(line)
        s = self.summary()
        lines.append(f"{s['passed']}/{s['total']} checks passed")
        return "\n".join(lines)


def _tensor_str(coeffs: dict) -> str:
    items = ", ".join(f"{list(k)}:{format_rational(v)}"
                      for k, v in sorted(coeffs.items()))
    return "{" + items + "}"


def _poly_str(p: Series) -> str:
    """The coefficients of a polynomial from degree 0 up."""
    return "[" + ", ".join(format_rational(p.coeff(k))
                           for k in range(p.start + len(p.coeffs))) + "]"


def build_stores(framings: list[int], conventions: Conventions | None = None,
                 cache=None, audit: bool = False) -> list[CorrStore]:
    """Stores for each framing under one shared set of conventions; without
    conventions the first framing calibrates them.  ``audit`` stores
    contract every entry instead of filling by string and dilaton."""
    stores = []
    for f in framings:
        store = CorrStore(f, conventions=conventions, cache=cache, audit=audit)
        conventions = store.conventions
        stores.append(store)
    return stores


def run_verification(stores: list[CorrStore], g_max: int = 3) -> VerifyReport:
    conv = stores[0].conventions
    report = VerifyReport(conventions=conv, epsilon=None)
    add = report.checks.append

    # known low-order tensors
    for store in stores:
        ref = reference_correlators(store.f)
        for (g, h), want in sorted(ref.items()):
            got = store.correlator(g, h).coeffs
            add(CheckRecord(
                name="known-correlator",
                params={"f": store.f, "g": g, "h": h},
                expected=_tensor_str(want), actual=_tensor_str(got),
                passed=got == want))

    # reading of the two-point genus-one display
    for store in stores:
        readings = two_point_genus_one_readings(store.f)
        got = store.correlator(1, 2).coeffs
        match = next((name for name, t in readings.items() if t == got), None)
        add(CheckRecord(
            name="two-point-genus-one-reading",
            params={"f": store.f},
            expected="one documented reading",
            actual=match or _tensor_str(got),
            passed=match is not None,
            note="readings considered: " + ", ".join(sorted(readings))))

    # residue table of the primitive against the basis; the primitive is
    # built once per framing, for the widest index the run pairs with it
    # (W(g_max, 1) reaches index 3 g_max - 2)
    for store in stores:
        f = store.f
        reserve_theta(store.curve, max(8, 3 * g_max - 2))
        surviving = []
        for n in range(9):
            try:
                rho = residue_theta_psi(store.curve, n, table=store.psi)
            except LogBranchError as exc:
                surviving.append(n)
                add(CheckRecord(
                    name="theta-psi-residue",
                    params={"f": f, "n": n},
                    expected="a rational residue", actual=str(exc), passed=False))
                continue
            if n == 1:
                want = Fraction(1, f * (f + 1))
                ok = abs(rho) == want
                audited_sign = 1 if rho > 0 else -1
                add(CheckRecord(
                    name="theta-psi-residue",
                    params={"f": f, "n": n},
                    expected=f"magnitude {format_rational(want)}",
                    actual=format_rational(rho), passed=ok,
                    note=f"audited sign {audited_sign:+d}"))
            else:
                add(CheckRecord(
                    name="theta-psi-residue",
                    params={"f": f, "n": n},
                    expected="0", actual=format_rational(rho), passed=rho == 0))
        add(CheckRecord(
            name="log-symbol-cancellation",
            params={"f": f, "n": "0..8"},
            expected="no surviving branch symbol",
            actual=("cancelled in every residue" if not surviving else
                    "survives at n = " + ", ".join(map(str, surviving))),
            passed=not surviving,
            note="a surviving symbol raises instead of returning"))

    # lambda-word reduction identity, at the fixed genera 2..6 so that the
    # report does not depend on the genus cap
    for g in range(2, 7):
        want = Series(1, [1, 1], exact=True)  # f + f^2
        if g % 2 == 0:
            want = -want
        got = lambda_top_coefficient(g)
        add(CheckRecord(
            name="lambda-top-coefficient",
            params={"g": g},
            expected=_poly_str(want), actual=_poly_str(got),
            passed=got.coeff_dict() == want.coeff_dict()))

    # involution probes: s has valuation 1 and is known through z^20, so s^k,
    # k >= 2, is known through z^21, where the powers are cut.  x has no
    # linear term, so x(s(z)) is known through z^21, whose coefficient is
    # the one that fixes s_20; s(s(z)) is known through z^20.  s(z) = z
    # passes both, hence also s'(0) = -1.
    for store in stores:
        window = 20
        s = conjugate_series(store.curve, window)
        s_pows = integer_powers(s)
        while len(s_pows) <= window:
            s_pows.append(s_pows[-1].mul(s, window + 1))
        X = store.curve.x_shifted()
        ok = (s.coeff(1) == -s.den
              and not any((substitute(X, s_pows) - X).coeffs)
              and not any((substitute(s, s_pows) - Series.monomial(1, 1)).coeffs))
        add(CheckRecord(
            name="involution",
            params={"f": store.f, "window": window},
            expected="x(s(z)) = x(z) and s(s(z)) = z",
            actual="holds" if ok else "violated",
            passed=ok))

    # peel remainder: the dense combination sum_n (3n+2)/(n+5) psihat_n,
    # n = 0..5, must peel back exactly (the recursion asserts the same on
    # every residue)
    cden = lcm(*range(5, 11))
    coeffs = lowest_terms(cden, {n: (3 * n + 2) * (cden // (n + 5)) for n in range(6)})
    for store in stores:
        combo = sum((Series(0, [3 * n + 2], exact=True, den=n + 5) * store.psi.shifted(n)
                     for n in range(6)), Series(0, [], exact=True))
        ok = peel(combo, store.psi) == coeffs
        add(CheckRecord(
            name="peel-remainder",
            params={"f": store.f, "indices": "0..5"},
            expected="exact roundtrip with zero remainder",
            actual="roundtrip exact" if ok else "mismatch",
            passed=ok))

    # truncation stability: recompute with a widened window
    for store in stores:
        for (g, h) in ((1, 1), (2, 1)):
            base = store.correlator(g, h)
            widened = store.compute(g, h, window=window_policy(g, h) + 4)
            add(CheckRecord(
                name="truncation-stability",
                params={"f": store.f, "g": g, "h": h},
                expected=_tensor_str(base.coeffs),
                actual=_tensor_str(widened.coeffs),
                passed=base.coeffs == widened.coeffs))

    # free energies
    g_values = list(range(2, g_max + 1))
    epsilon: int | None = None
    if g_values:
        rows, epsilon = energy_table(stores, g_values)
        for row in rows:
            add(CheckRecord(
                name="free-energy",
                params={"g": row.g, "f": row.f},
                expected=f"|F| = {format_rational(abs(row.reference))}, direct = shortcut",
                actual=(row.error if row.error
                        else f"direct {format_rational(row.direct)}, "
                             f"shortcut {format_rational(row.shortcut)}"),
                passed=row.passed))
        for g, values in sorted(energies_by_genus(rows).items()):
            add(CheckRecord(
                name="free-energy-framing-independence",
                params={"g": g},
                expected="identical across framings",
                actual=f"{len(values)} distinct value(s)",
                passed=len(values) == 1))
        add(CheckRecord(
            name="free-energy-global-sign",
            params={"g": f"2..{g_max}"},
            expected="one sign for every (g, f)",
            actual=f"epsilon = {epsilon}" if epsilon is not None else "incoherent",
            passed=epsilon is not None))
        report.epsilon = epsilon

        # bracket consistency across framings
        for g in g_values:
            checks = [dilaton(hodge_extract(store.correlator(g, 1))) for store in stores]
            ratios = {d.ratio for d in checks}
            ok = len(ratios) == 1 and checks[0].sign is not None
            add(CheckRecord(
                name="bracket-dilaton-consistency",
                params={"g": g},
                expected=f"+/- {format_rational(checks[0].target)}, framing independent",
                actual=", ".join(sorted(format_rational(r) for r in ratios)),
                passed=ok))

    # critical-value discrepancy report: x* = x(y*) against its closed form
    for store in stores:
        f = store.f
        x_star = store.curve.x_star
        closed = Fraction((-1) ** (f + 1) * f ** f, (f + 1) ** (f + 1))
        printed = Fraction(f ** f) * Fraction(-1 - f) ** (f + 1)
        add(CheckRecord(
            name="critical-value",
            params={"f": f},
            expected=format_rational(closed),
            actual=format_rational(x_star),
            passed=x_star == closed,
            note=f"alternative closed form evaluates to {format_rational(printed)}"
                 f"{' (agrees)' if printed == x_star else ' (differs; engine value is normative)'}"))

    return report
