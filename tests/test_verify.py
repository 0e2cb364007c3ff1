from fractions import Fraction

import pytest

from eorec import LogBranchError, Series, conjugate_series, verify


def _records(report, name):
    return [c for c in report.checks if c.name == name]


def test_critical_value_matches_closed_form(store_f1):
    report = verify.run_verification([store_f1], g_max=0)
    (rec,) = _records(report, "critical-value")
    assert rec.passed and rec.expected == rec.actual == "1/4"


def test_critical_value_fails_on_a_wrong_value(store_f1, monkeypatch):
    monkeypatch.setattr(store_f1.curve, "x_star", Fraction(-1, 4))
    report = verify.run_verification([store_f1], g_max=0)
    (rec,) = _records(report, "critical-value")
    assert not rec.passed and rec.expected == "1/4" and rec.actual == "-1/4"


def test_log_symbol_cancellation_fails_on_a_surviving_symbol(store_f1, monkeypatch):
    real = verify.residue_theta_psi

    def leaky(curve, n, table=None):
        if n == 3:
            raise LogBranchError("branch symbol survives the index-3 residue")
        return real(curve, n, table=table)

    monkeypatch.setattr(verify, "residue_theta_psi", leaky)
    report = verify.run_verification([store_f1], g_max=0)
    (rec,) = _records(report, "log-symbol-cancellation")
    assert not rec.passed and rec.actual == "survives at n = 3"
    failed = [c.params["n"] for c in _records(report, "theta-psi-residue") if not c.passed]
    assert failed == [3]
    assert not report.passed


def test_log_symbol_cancellation_passes(store_f1):
    report = verify.run_verification([store_f1], g_max=0)
    (rec,) = _records(report, "log-symbol-cancellation")
    assert rec.passed and rec.actual == "cancelled in every residue"


def _identity(curve, window):
    """s(z) = z, which also fixes x and itself."""
    return Series(1, [1] + [0] * (window - 1))


def _moved(curve, window, k):
    """The real involution with its z^k coefficient moved by 1."""
    s = conjugate_series(curve, window)
    coeffs = list(s.coeffs)
    coeffs[k - s.start] += s.den
    return Series(s.start, coeffs, den=s.den)


def _nudged(curve, window):
    return _moved(curve, window, 5)


def _nudged_last(curve, window):
    """Only [z^(window+1)] of x(s(z)) sees the last coefficient, which
    enters s(s(z)) at z^window twice with opposite signs."""
    return _moved(curve, window, window)


def test_involution_passes(store_f1):
    report = verify.run_verification([store_f1], g_max=0)
    (rec,) = _records(report, "involution")
    assert rec.passed and rec.actual == "holds"


@pytest.mark.parametrize("fake", [_identity, _nudged, _nudged_last])
def test_involution_fails_on_a_wrong_series(store_f1, monkeypatch, fake):
    monkeypatch.setattr(verify, "conjugate_series", fake)
    report = verify.run_verification([store_f1], g_max=0)
    (rec,) = _records(report, "involution")
    assert not rec.passed and rec.actual == "violated"
