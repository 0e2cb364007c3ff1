import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eorec import Series
from eorec.errors import WindowError
from eorec.series import substitute

from oracles import (antiderive, as_fractions, ibp_residue_check, integer_series, invert,
                     series_log1p, series_outcome, window_sum)

Q = Fraction


def S(d, exact=True):
    return Series.from_dict({k: Q(v) for k, v in d.items()}, exact=exact)


class TestBasics:
    def test_difference_of_squares(self):
        a = S({0: 1, 1: 1})
        b = S({0: 1, 1: -1})
        assert (a * b).coeff_dict() == {0: Q(1), 2: Q(-1)}

    def test_known_window_is_respected(self):
        a = Series(0, [Q(1), Q(2)], exact=False)
        with pytest.raises(WindowError):
            a.coeff(2)
        assert a.coeff(-5) == 0  # below the start bound: certified zero

    def test_mul_window_rule(self):
        a = Series(1, [Q(1)] * 5, exact=False)   # known on [1, 5]
        b = Series(2, [Q(1)] * 3, exact=False)   # known on [2, 4]
        p = a * b
        assert p.start == 3
        assert p.window_end == min(1 + 4, 2 + 5)

    def test_leading_zero_tightening(self):
        a = Series(0, [Q(0), Q(1), Q(1)], exact=False)  # really starts at 1
        b = Series(0, [Q(0), Q(1)], exact=False)
        p = a * b
        assert p.window_end == 2  # 1 + 1 effective valuations, window arithmetic


class TestCalculus:
    def test_antiderive_log_obstruction(self):
        with pytest.raises(WindowError):
            integer_series(S({-1: 1, 0: 1})).primitive()

    def test_antiderive_logext_oracle(self):
        # termwise primitive of the f=1 theta differential start, the
        # coefficient of the log branch constant and the rational part
        log = as_fractions(integer_series(S({1: -8})).primitive())
        rat = as_fractions(integer_series(S({2: 16})).primitive())
        assert (log.coeff(2), rat.coeff(2)) == (-4, 0)
        assert (log.coeff(3), rat.coeff(3)) == (0, Q(16, 3))

    def test_derive_antiderive_roundtrip(self):
        a = S({2: 3, 5: Q(1, 7)})
        back = as_fractions(integer_series(a).derive().primitive())
        assert back.coeff_dict() == a.coeff_dict()


class TestResidue:
    def test_no_residue_term(self):
        assert S({-2: Q(1, 8), -4: Q(-3, 32)}).residue() == 0

    def test_direct_read(self):
        assert S({-1: 5, 0: 3}).residue() == 5

    def test_theta_psi_product_oracle(self):
        # both parts of the windowed theta times the index-1 basis scalar at
        # framing 1: the coefficient of l cancels
        rat = Series(2, [Q(0), Q(16, 3), Q(4)], exact=False)
        log = Series(2, [Q(-4), Q(0), Q(-8)], exact=False)
        psi1 = S({-2: Q(1, 8), -4: Q(-3, 32)})
        assert ((rat * psi1).residue(), (log * psi1).residue()) == (Q(-1, 2), 0)

    def test_window_must_cover_minus_one(self):
        a = Series(-4, [Q(1), Q(2)], exact=False)  # known only on [-4, -3]
        with pytest.raises(WindowError):
            a.residue()


class TestLog1p:
    def test_standard_expansion(self):
        u = S({1: -2})
        out = series_log1p(u, order=4)
        assert out.coeff(1) == -2
        assert out.coeff(2) == -2
        assert out.coeff(3) == Q(-8, 3)
        assert out.coeff(4) == -4

    def test_log_of_one(self):
        u = Series(0, [], exact=True)
        assert series_log1p(u).is_known_zero()

    def test_substituted_square(self):
        u = S({2: 1})
        out = series_log1p(u, order=5)
        assert out.coeff(2) == 1
        assert out.coeff(4) == Q(-1, 2)

    def test_rejects_nonpositive_valuation(self):
        with pytest.raises(WindowError):
            series_log1p(S({0: 1, 1: 1}), order=3)


class TestDivision:
    def test_geometric(self):
        one = S({0: 1})
        denom = S({0: 1, 1: -1})
        inv = as_fractions(integer_series(denom).invert(order=5))
        assert all(inv.coeff(k) == 1 for k in range(6))
        assert (one * inv).coeff(3) == 1

    def test_invert_requires_known_lead(self):
        a = Series(0, [0, 0], exact=False)
        with pytest.raises(WindowError):
            a.invert()

    def test_monomial_exact_inverse(self):
        inv = Series.monomial(2, 3).invert()
        assert (inv.den, inv.coeff_dict(), inv.exact) == (2, {-3: 1}, True)

    def test_division_tracks_windows(self):
        num = Series(2, [Q(1), Q(1), Q(1)], exact=False)
        den = Series(1, [2, 4], exact=False)
        quot = num * as_fractions(den.invert())
        assert quot.start == 1
        assert quot.coeff(1) == Q(1, 2)


class TestIbp:
    def test_monomial_pair(self):
        f = S({-1: 1})
        g = S({1: 1})
        assert (g * f.derive()).residue() == -1
        assert -(f * g.derive()).residue() == -1
        assert ibp_residue_check(f, g)

    def test_poleless_pair(self):
        f, g = S({2: 1}), S({3: 1})
        assert (g * f.derive()).residue() == 0
        assert ibp_residue_check(f, g)

    def test_thousand_random_pairs(self):
        rng = random.Random(20260810)
        for _ in range(1000):
            f = _random_laurent(rng)
            g = _random_laurent(rng)
            assert ibp_residue_check(f, g)


def _random_laurent(rng):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        e = rng.randint(-5, 5)
        terms[e] = Q(rng.randint(-9, 9), rng.randint(1, 9))
    return Series.from_dict(terms, exact=True)


# window soundness: every reported product coefficient equals the one from
# full-precision recomputation, for the product and for the product cut
# after a given exponent, of windowed factors or of exact ones
laurent_dicts = st.dictionaries(
    st.integers(min_value=-5, max_value=6),
    st.fractions(min_value=-3, max_value=3, max_denominator=8),
    min_size=1, max_size=5,
)


@given(laurent_dicts, laurent_dicts, st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=6),
       st.one_of(st.none(), st.integers(min_value=-12, max_value=14)),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_mul_window_soundness(da, db, cut_a, cut_b, stop, exact_factors):
    a_full = Series.from_dict({k: Q(v) for k, v in da.items()})
    b_full = Series.from_dict({k: Q(v) for k, v in db.items()})
    if exact_factors:
        full = (a_full * b_full).coeff_dict()
        if stop is None or not full:
            return
        # the exact product cut after stop: exact only when stop reaches
        # its last term, known through stop otherwise
        cut = a_full.mul(b_full, stop)
        for k in range(min(full) - 2, stop + 1):
            assert cut.coeff(k) == full.get(k, 0)
        if stop < max(full):
            assert not cut.exact and cut.window_end == stop
            with pytest.raises(WindowError):
                cut.coeff(stop + 1)
        else:
            assert cut.exact and cut.coeff_dict() == full
        return
    # the windows of a_full and b_full without their top cut_a, cut_b terms
    a = Series(a_full.start, a_full.coeffs[:max(0, len(a_full.coeffs) - cut_a)])
    b = Series(b_full.start, b_full.coeffs[:max(0, len(b_full.coeffs) - cut_b)])
    if not a.coeffs or not b.coeffs:
        return
    exact = (a_full * b_full).coeff_dict()
    try:
        prod = a * b
    except WindowError:
        prod = None
    else:
        for k in range(prod.start, prod._stored_end() + 1):
            assert prod.coeff(k) == exact.get(k, 0)
    if stop is None:
        return
    valuation = a.eff_start() + b.eff_start()
    try:
        cut = a.mul(b, stop)
    except WindowError:
        # only where the product raises too and does not vanish through stop
        assert prod is None and valuation <= stop
        return
    # known through stop, or through the product's window end if that comes
    # first, and equal to the full product there
    last = stop if prod is None else min(stop, prod.window_end)
    assert cut.window_end == last
    for k in range(min(valuation, stop) - 2, last + 1):
        assert cut.coeff(k) == exact.get(k, 0)
    with pytest.raises(WindowError):
        cut.coeff(last + 1)
    if stop < valuation:
        # the product vanishes through stop: known zero there, also where
        # the uncut product has an empty window
        assert cut.eff_start() == stop + 1 and not cut.coeffs


# arithmetic over denominators: an integer series over its denominator gives
# the same values, windows, exactness and errors as the ``Fraction`` series
# of its values, and every result is in lowest terms
integer_series_over_dens = st.builds(
    lambda start, coeffs, exact, den: Series(start, coeffs, exact=exact, den=den),
    st.integers(min_value=-3, max_value=3),
    st.lists(st.one_of(st.just(0), st.integers(min_value=-40, max_value=40)), max_size=8),
    st.booleans(),
    st.integers(min_value=-60, max_value=60).filter(bool),
)


def _lowest(t: Series) -> Series:
    """t as a ``Fraction`` series, after checking its denominator."""
    assert t.den > 0 and (t.den == 1 or gcd(t.den, *t.coeffs) == 1), (t.den, t.coeffs)
    return as_fractions(t)


@given(integer_series_over_dens, integer_series_over_dens,
       st.integers(min_value=-6, max_value=6), st.integers(min_value=-3, max_value=3),
       st.one_of(st.none(), st.integers(min_value=0, max_value=10)))
@settings(max_examples=300, deadline=None)
def test_arithmetic_over_denominators_matches_fractions(a, b, c, k, order):
    qa, qb = _lowest(a), _lowest(b)
    cases = [
        (lambda: a + b, lambda: qa + qb),
        (lambda: a - b, lambda: qa - qb),
        (lambda: a * b, lambda: qa * qb),
        (lambda: a.scale(c), lambda: qa.scale(Q(c))),
        (lambda: a.shift(k), lambda: qa.shift(k)),
        (lambda: a.derive(), lambda: qa.derive()),
        (lambda: a.invert(order), lambda: invert(qa, order)),
        (lambda: a.primitive(), lambda: antiderive(qa)),
    ]
    for got, want in cases:
        assert series_outcome(lambda: _lowest(got())) == series_outcome(want)


def test_sum_over_coprime_denominators_uses_their_lcm():
    a = Series(0, [1, 1], exact=True, den=4)
    b = Series(0, [1], exact=True, den=6)
    total = a + b
    assert (total.den, total.coeffs) == (12, (5, 3))
    assert (a - a).is_known_zero() and (a - a).den == 1


def _sum_outcome(fn):
    """fn()'s series as (start, {exponent: nonzero value}, window end), with
    no start for a known zero, or the type and message of its
    ``WindowError``."""
    try:
        out = fn()
    except WindowError as exc:
        return WindowError, str(exc)
    values = {k: Q(c, out.den) for k, c in out.coeff_dict().items()}
    return (None if out.is_known_zero() else out.start), values, out.window_end


def _oracle_outcome(terms):
    try:
        return window_sum(terms)
    except WindowError as exc:
        return WindowError, str(exc)


@given(integer_series_over_dens, integer_series_over_dens)
@settings(max_examples=300, deadline=None)
def test_sum_and_difference_match_the_window_sum_oracle(a, b):
    assert _sum_outcome(lambda: a + b) == _oracle_outcome([(1, a), (1, b)])
    assert _sum_outcome(lambda: a - b) == _oracle_outcome([(1, a), (-1, b)])


@given(st.dictionaries(st.integers(min_value=-3, max_value=3),
                       st.integers(min_value=-9, max_value=9).filter(bool), max_size=5),
       st.integers(min_value=1, max_value=12),
       st.lists(integer_series_over_dens, min_size=4, max_size=4),
       st.lists(integer_series_over_dens, min_size=4, max_size=4))
@settings(max_examples=300, deadline=None)
def test_substitute_matches_the_window_sum_oracle(poly, den, pows, inv_pows):
    """``substitute`` reads pows[e] and inv_pows[-e] as the powers of its
    variable, so arbitrary series stand in for them here."""
    p = Series.from_dict(poly, den=den)
    terms = [(Q(c, p.den), pows[e] if e >= 0 else inv_pows[-e])
             for e, c in p.coeff_dict().items()]
    assert _sum_outcome(lambda: substitute(p, pows, inv_pows)) == _oracle_outcome(terms)


def test_an_operand_past_the_window_end_adds_nothing():
    a = Series(0, [1, 2, 3], den=2)            # known on [0, 2]
    b = Series(5, [7, 1], den=3)               # starts past a's window end
    c = Series(4, [1], exact=True)
    poly = Series.from_dict({0: 1, 1: 2, 2: -1})
    for got, terms, sign in ((a + b, [(1, a), (1, b)], 1), (b - a, [(1, b), (-1, a)], -1),
                             (substitute(poly, [a, b, c]), [(1, a), (2, b), (-1, c)], 1)):
        assert _sum_outcome(lambda: got) == window_sum(terms) == \
            (0, {0: Q(sign, 2), 1: Q(sign), 2: Q(3 * sign, 2)}, 2)
