"""The contracts of eorec's value types: validated signs, read-only fields,
defaults, and no report sharing another's list of checks."""

from fractions import Fraction as Q

import pytest

from eorec import Conventions, CorrDiff, EnergyRow, HodgeTable, VerifyReport
from eorec.hodge import Dilaton

CONV = Conventions(sigma_kernel=-1, sigma_psirec=1)


@pytest.mark.parametrize("bad", [0, 2, True, 1.0])
def test_conventions_take_only_int_signs(bad):
    with pytest.raises(ValueError):
        Conventions(sigma_kernel=bad, sigma_psirec=1)
    with pytest.raises(ValueError):
        Conventions(1, bad)


def test_conventions_compare_by_value():
    assert Conventions(-1, 1) == CONV
    assert Conventions(sigma_kernel=1, sigma_psirec=1) != CONV


@pytest.mark.parametrize("value, field", [
    (CONV, "sigma_kernel"),
    (CorrDiff(g=1, h=1, f=1, coeffs={(0,): Q(1, 8)}), "coeffs"),
    (HodgeTable(g=1, f=1, bracket={}), "bracket"),
    (Dilaton(ratio=Q(1), target=None), "ratio"),
    (EnergyRow(g=2, f=1, direct=None, shortcut=None, reference=Q(1), sign=None,
               paths_equal=False, magnitude_ok=False), "g"),
])
def test_frozen_fields_are_read_only(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_energy_row_error_defaults_to_none():
    row = EnergyRow(g=2, f=1, direct=Q(1), shortcut=Q(1), reference=Q(1), sign=1,
                    paths_equal=True, magnitude_ok=True)
    assert row.error is None
    assert row.passed


def test_reports_never_share_their_checks():
    a = VerifyReport(conventions=CONV, epsilon=None)
    b = VerifyReport(conventions=CONV, epsilon=None)
    a.checks.append("probe")
    assert b.checks == []
    assert a.checks is not b.checks
