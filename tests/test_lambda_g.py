"""The framing as a variable: the lambda_g reading of W(g,h) at u = 0.

With u = f(f+1), H(g,h) = (-1)^(g+h) W(g,h) / u^(h-1) is, entry by entry,
a polynomial of degree <= g in u.  The framings f = 1..g+1 fix it and
f = g+2 confirms it.  At u = 0 only lambda_g survives of the triple Hodge
integrand, and

    int psi^n lambda_g = multinomial(2g-3+h; n) b_g   on the index sum 2g-3+h,

and 0 elsewhere, with b_g = (2^(2g-1)-1)/2^(2g-1) |B_2g|/(2g)! and b_0 = 1
(Faber-Pandharipande, math/9810173).  On the top index sum 3g-3+h only
psi classes survive, so every lower power of u vanishes there and

    H(g,h)[n] = (-1)^g <tau_n>_g u^g

at every framing, with <tau_n>_g the Witten-Kontsevich numbers of
``tests/wk.py``.  The recursion computes none of the right sides.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, prod

import pytest

from eorec import Conventions, CorrStore

from wk import wk

Q = Fraction

#: every framing calibrates to these conventions
CONV = Conventions(sigma_kernel=-1, sigma_psirec=1)

#: |B_2g| for the genera read here
ABS_BERNOULLI = {1: Q(1, 6), 2: Q(1, 30), 3: Q(1, 42), 4: Q(1, 30)}

#: (g, h) read at u = 0: g <= 4 at h = 1, g <= 3 at h = 2, g <= 2 at h = 3
READINGS = [(g, 1) for g in range(1, 5)] + [(g, 2) for g in range(1, 4)] + \
    [(g, 3) for g in range(3)]


def _b(g: int) -> Fraction:
    if not g:
        return Q(1)
    top = 2 ** (2 * g - 1)
    return Q(top - 1, top) * ABS_BERNOULLI[g] / factorial(2 * g)


def _lambda_g(g: int, key: tuple[int, ...]) -> Fraction:
    """int psi^key lambda_g over the moduli space of genus g, len(key) points."""
    total = 2 * g - 3 + len(key)
    if sum(key) != total:
        return Q(0)
    return factorial(total) // prod(factorial(n) for n in key) * _b(g)


def _h_tables(g: int, h: int) -> dict[int, dict]:
    """f -> H(g,h) at f = 1..g+2, entries as ``Fraction``s."""
    out = {}
    for f in range(1, g + 3):
        scale = Q((-1) ** (g + h), (f * (f + 1)) ** (h - 1))
        out[f] = {k: scale * c for k, c in CorrStore(f, CONV).correlator(g, h).coeffs.items()}
    return out


def _lagrange(points: list[tuple[int, Fraction]], u: int) -> Fraction:
    """The polynomial through ``points`` (u_i, y_i), evaluated at u."""
    return sum(y * prod(Q(u - uj, ui - uj) for uj, _ in points if uj != ui)
               for ui, y in points)


def _mismatches(g: int, tables: dict[int, dict]) -> list:
    """The entries whose fit through f = 1..g+1 misses f = g+2, whose value
    at u = 0 is not the lambda_g integral, or, on the top index sum, whose
    value at some framing is not (-1)^g <tau>_g u^g."""
    bad = []
    for key in sorted(set().union(*tables.values())):
        points = [(f * (f + 1), tables[f].get(key, Q(0))) for f in range(1, g + 2)]
        top = g + 2
        if _lagrange(points, top * (top + 1)) != tables[top].get(key, Q(0)):
            bad.append(("fit", key))
        if _lagrange(points, 0) != _lambda_g(g, key):
            bad.append(("u=0", key))
    h = len(min(tables[1]))
    degree = 3 * g - 3 + h
    for key in combinations_with_replacement(range(degree + 1), h):
        if sum(key) == degree and any(
                table.get(key, Q(0)) != (-1) ** g * wk(g, key) * (f * (f + 1)) ** g
                for f, table in tables.items()):
            bad.append(("top", key))
    return bad


@pytest.mark.parametrize("g,h", READINGS)
def test_h_is_a_polynomial_in_u_that_reads_lambda_g_at_zero(g, h):
    tables = _h_tables(g, h)
    assert tables[1]
    assert _mismatches(g, tables) == []


@pytest.mark.parametrize("g,h,f", [(4, 1, 1), (3, 2, 5), (2, 3, 3), (0, 3, 2)])
def test_one_perturbed_entry_breaks_the_reading(g, h, f):
    """One entry of one framing, moved by 1/7, fails the fit or the value at
    u = 0, whether that framing is a node of the fit or its confirmation."""
    tables = _h_tables(g, h)
    key = min(tables[f])
    tables[f][key] += Q(1, 7)
    assert _mismatches(g, tables)


@pytest.mark.parametrize("g,h", [(g, h) for g, h in READINGS if g >= 1])
def test_doubled_top_degree_breaks_only_the_top_reading(g, h):
    """Every top-degree entry doubled at every framing is still a polynomial
    of degree <= g in u that vanishes at u = 0, so the fit and the u = 0
    reading miss it; the top index degree reading catches it."""
    tables = _h_tables(g, h)
    degree = 3 * g - 3 + h
    for table in tables.values():
        for key in table:
            if sum(key) == degree:
                table[key] *= 2
    bad = _mismatches(g, tables)
    assert bad
    assert {kind for kind, _ in bad} == {"top"}
