"""String and dilaton relations on the normalised tensors, at every Hodge
degree.

H(g,h) = (-1)^(g+h) W(g,h) / (f(f+1))^(h-1) holds the brackets
<tau_n1 .. tau_nh L(1) L(-f-1) L(f)>_(g,h) (for h = 1 these are
``hodge_extract``'s).  The Hodge classes pull back along the map that
forgets a point, so for every multi-index n
    string:  <tau_0 prod tau_n>_(g,h+1) = sum_j <.. tau_(n_j - 1) ..>_(g,h),
    dilaton: <tau_1 prod tau_n>_(g,h+1) = (2g-2+h) <prod tau_n>_(g,h).
The full contraction uses neither relation, so on audit stores each ties
W(g,h+1) to W(g,h) independently.  A default store fills every entry with
an index 0 or 1 by these relations, where the check could not fail.
"""

from fractions import Fraction

import pytest

from eorec import CorrDiff
from eorec.series import integer_dict

#: every W(g,h) with 2g-2+h <= 4, so each pinned W(g,h+1) up to 2g-2+h = 5
#: is checked, and W(3,1) below W(3,2)
LOWER = sorted({(g, h) for g in range(3) for h in range(1, 7)
                if 1 <= 2 * g - 2 + h <= 4} | {(3, 1)})


def _normalised(w: CorrDiff) -> dict:
    scale = Fraction((-1) ** (w.g + w.h), (w.f * (w.f + 1)) ** (w.h - 1))
    return {idx: scale * c for idx, c in w.coeffs.items()}


def _drop(key: tuple, n: int) -> tuple:
    i = key.index(n)
    return key[:i] + key[i + 1:]


def relation_failures(lower: CorrDiff, upper: CorrDiff) -> list:
    """Multi-indices of H(g,h+1) at which string or dilaton fails, each with
    both sides; empty when both relations hold everywhere."""
    g, h = lower.g, lower.h
    low, up = _normalised(lower), _normalised(upper)

    def string(rest):
        return sum(low.get(tuple(sorted(rest[:j] + (n - 1,) + rest[j + 1:])), 0)
                   for j, n in enumerate(rest) if n)

    def dilaton(rest):
        return (2 * g - 2 + h) * low.get(rest, 0)

    # every key where either side can be nonzero
    raised = {tuple(sorted((0,) + idx[:j] + (n + 1,) + idx[j + 1:]))
              for idx in low for j, n in enumerate(idx)}
    prefixed = {tuple(sorted((1,) + idx)) for idx in low}
    failures = []
    for lead, side, keys in ((0, string, raised), (1, dilaton, prefixed)):
        for key in sorted(keys | {k for k in up if lead in k}):
            want = side(_drop(key, lead))
            if up.get(key, 0) != want:
                failures.append((key, up.get(key, 0), want))
    return failures


@pytest.mark.parametrize("g,h", LOWER)
def test_string_and_dilaton(audit_stores, g, h):
    for store in audit_stores:
        lower, upper = store.correlator(g, h), store.correlator(g, h + 1)
        assert relation_failures(lower, upper) == [], (store.f, g, h)


@pytest.mark.parametrize("g,h", [(0, 3), (1, 2), (2, 1)])
def test_one_perturbed_entry_breaks_a_relation(audit_stores, g, h):
    store = audit_stores[0]
    upper = store.correlator(g, h + 1)
    key = min(k for k in upper.coeffs if k[0] == 0)
    coeffs = dict(upper.coeffs)
    coeffs[key] += 1
    bad = CorrDiff(upper.g, upper.h, upper.f, *integer_dict(coeffs))
    assert {k for k, *_ in relation_failures(store.correlator(g, h), bad)} == {key}
