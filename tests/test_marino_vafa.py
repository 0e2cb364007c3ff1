"""The Marino-Vafa one-partition formula, at every entry of W(g,1).

With H(g,1)[n] = <tau_n L(1) L(-f-1) L(f)>_g, ``hodge_extract``'s bracket,

    sum_n d^n H(g,1)[n] = d^-2 [lam^(2g)] (d lam/2) / sin(d lam/2)
                          * prod_{k=1}^{d-1} sinc((d f + k) lam/2) / sinc(k lam/2)

with sinc x = sin(x)/x (Marino-Vafa, hep-th/0108064; Liu-Liu-Zhou,
math/0306434; Okounkov-Pandharipande, math/0307209).  The left side is a
polynomial of degree 3g-2 in d, so d = 1..3g-1 determine every bracket
and d = 3g over-determines them.  The recursion computes none of the right
side, which is a power series in t = lam^2 over Q.
"""

from fractions import Fraction
from math import factorial

import pytest

from eorec import CorrDiff, hodge_extract
from eorec.series import integer_dict


def _sinc(c: int, g: int) -> list:
    """sinc(c lam/2) as coefficients of t^0 .. t^g."""
    return [Fraction((-1) ** m * c ** (2 * m), 4 ** m * factorial(2 * m + 1))
            for m in range(g + 1)]


def _mul(a: list, b: list) -> list:
    return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(len(a))]


def _inverse(a: list) -> list:
    out = [1 / a[0]]
    for m in range(1, len(a)):
        out.append(-sum(a[i] * out[m - i] for i in range(1, m + 1)) / a[0])
    return out


def marino_vafa(g: int, f: int, d: int) -> Fraction:
    """The right side of the one-partition formula for the partition (d)."""
    series = _inverse(_sinc(d, g))
    for k in range(1, d):
        series = _mul(series, _mul(_sinc(d * f + k, g), _inverse(_sinc(k, g))))
    return series[g] / d ** 2


def formula_failures(w: CorrDiff) -> list:
    """The d = 1..3g at which W(g,1) misses the formula, with both sides."""
    bracket = hodge_extract(w).bracket
    failures = []
    for d in range(1, 3 * w.g + 1):
        got = sum(d ** n * c for n, c in bracket.items())
        want = marino_vafa(w.g, w.f, d)
        if got != want:
            failures.append((d, got, want))
    return failures


def test_genus_one_by_hand():
    # d = 1 leaves 1/sinc(lam/2) = 1 + t/24 + ..., whatever the framing;
    # W(1,1) at f = 1 holds 1/8 and -1/12, so H(1,1)[0] + H(1,1)[1] = 1/24
    assert [marino_vafa(1, f, 1) for f in (1, 2, 3)] == [Fraction(1, 24)] * 3


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_one_point_tensors_satisfy_the_formula(stores, g):
    for store in stores:
        assert formula_failures(store.correlator(g, 1)) == [], (store.f, g)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_one_perturbed_entry_breaks_the_formula(stores, g):
    w = stores[0].correlator(g, 1)
    key = max(w.coeffs)
    coeffs = dict(w.coeffs)
    coeffs[key] += Fraction(1, 7)
    bad = CorrDiff(w.g, w.h, w.f, *integer_dict(coeffs))
    assert [d for d, *_ in formula_failures(bad)] == list(range(1, 3 * g + 1))
