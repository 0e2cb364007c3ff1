"""Exact reference routines that only the tests use: the reciprocal and
the primitive of a series in ``Fraction`` arithmetic, a sum of series
summed by exponent with its window, the conversions between rational data
and integer numerators over one denominator, the Taylor shift of a
polynomial and polynomial interpolation, x about the ramification point as
a product of ``Fraction`` series, the integration-by-parts residue
identity, the outcome of a series operation (its window or its error),
log(1 + u) summed as a power series, the primitive theta built by series
arithmetic, the involution solved by recomputing powers, the basis
operator chain, the one-form difference built in ``Fraction``
arithmetic, the kernel as plain dicts of ``Fraction`` sums, the residue
tables of a frame built in ``Fraction`` arithmetic, the basis shift
recursion and peeling in ``Fraction`` arithmetic, and the top lambda-word
coefficient from products of ``Fraction`` series.  Polynomials are exact
``Series``."""

from fractions import Fraction
from itertools import count
from math import inf, lcm
from typing import Iterator, Sequence

from eorec import FramedCurve, Series, bergman_self_pairing
from eorec.errors import PeelError, WindowError
from eorec.hodge import _rewrite_word
from eorec.psi import peel

QZERO = Fraction(0)
QONE = Fraction(1)


def invert(s: Series, order: int | None = None) -> Series:
    """Reciprocal series in ``Fraction`` arithmetic, known to the certified
    order.

    ``order`` bounds the number of known coefficients past the leading
    one; it is required when inverting an exact polynomial with more than
    one term (the reciprocal is an infinite series).
    """
    if s.is_known_zero():
        raise ZeroDivisionError("inverse of the zero series")
    t = s.eff_start()
    end = s.start + len(s.coeffs) - 1
    if not s.exact and t > end:
        raise WindowError("divisor has no certified nonzero coefficient")
    lead = s.coeff(t)
    if s.exact and end == t:
        # monomial: exact inverse
        return Series(-t, [QONE / lead], exact=True)
    if s.exact:
        if order is None:
            raise WindowError("inverting an exact polynomial needs an explicit order")
        n = order
    else:
        n = end - t
        if order is not None:
            n = min(n, order)
    inv_lead = QONE / lead
    # s = lead * z^t * (1 + r) with r of positive valuation
    r = [s.coeff(t + k) * inv_lead for k in range(n + 1)]
    w = [0] * (n + 1)
    w[0] = lead * inv_lead
    for k in range(1, n + 1):
        acc = 0
        for j in range(1, k + 1):
            if r[j]:
                acc = acc + r[j] * w[k - j]
        w[k] = -acc
    return Series(-t, [c * inv_lead for c in w], exact=False)


def antiderive(s: Series) -> Series:
    """Termwise primitive with zero integration constant, in ``Fraction``
    arithmetic.

    Requires the coefficient at exponent -1 to be certified zero, since
    integrating it would leave the Laurent ring.
    """
    if s.coeff(-1):  # raises WindowError when -1 is not certified
        raise WindowError("antiderivative obstructed by a nonzero z^-1 coefficient")
    out = {}
    for i, c in enumerate(s.coeffs):
        k = s.start + i
        if k == -1 or not c:
            continue
        out[k + 1] = c * Fraction(1, k + 1)
    start = min(s.start + 1, 0)  # the zero constant at exponent 0 is known
    end = s.start + len(s.coeffs)
    return Series(start, [out.get(k, 0) for k in range(start, end + 1)], exact=s.exact)


def series_outcome(fn):
    """fn()'s series as (start, window_end, exact, coefficients), or the type
    and message of its ``WindowError`` or ``ZeroDivisionError``."""
    try:
        out = fn()
    except (WindowError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return out.start, out.window_end, out.exact, list(out.coeffs)


def window_sum(terms) -> tuple[int | None, dict, float]:
    """sum_i c_i t_i for pairs of a rational c_i and an integer series t_i
    over its denominator, summed by exponent in ``Fraction`` arithmetic, as
    (start, {exponent: nonzero value}, window end); a sum known to be zero
    has no start, (None, {}, inf).

    A known-zero operand is dropped.  The start is the smallest start left;
    the sum is known through the smallest window end, or everywhere
    (``inf``) when every operand is exact.  An empty window raises
    ``WindowError`` when two or more operands are left; a single operand
    keeps its own."""
    live = [(c, t) for c, t in terms if not (t.exact and not t.coeffs)]
    start = min((t.start for _, t in live), default=None)
    end = min((t.window_end for _, t in live), default=inf)
    if len(live) > 1 and end < start:
        raise WindowError("sum has an empty certified window")
    out: dict = {}
    for c, t in live:
        for i, x in enumerate(t.coeffs):
            if t.start + i <= end:
                out[t.start + i] = out.get(t.start + i, QZERO) + c * Fraction(x, t.den)
    values = {e: v for e, v in out.items() if v}
    return (None if end == inf and not values else start), values, end


def as_fractions(t: Series) -> Series:
    """The ``Fraction`` series of an integer series over its denominator."""
    return Series(t.start, [Fraction(c, t.den) for c in t.coeffs], exact=t.exact)


def fraction_dict(t: Series) -> dict:
    """The nonzero rational coefficients of an integer series over its
    denominator, by exponent."""
    return {k: Fraction(c, t.den) for k, c in t.coeff_dict().items()}


def integer_pair(t: Series) -> tuple[int, dict]:
    """(den, {exponent: numerator}) of an integer series over its
    denominator: its value and, when it is in lowest terms, its form."""
    return t.den, t.coeff_dict()


def integer_series(s: Series) -> Series:
    """The ``Fraction`` series s as an integer series over the least common
    denominator of its coefficients, with s's window."""
    den = lcm(*(c.denominator for c in s.coeffs))
    return Series(s.start, [c.numerator * (den // c.denominator) for c in s.coeffs],
                  exact=s.exact, den=den)


def peel_fractions(slices: dict, table) -> dict:
    """``peel`` on rational coefficients: the input as an integer series
    over their least common denominator, the output as ``Fraction``s."""
    den, nums = peel(integer_series(Series.from_dict(slices)), table)
    return {n: Fraction(c, den) for n, c in nums.items()}


def taylor_shift(p: Series, c: Fraction) -> Series:
    """p(y + c) for a polynomial p in y, by Horner's rule in ``Fraction``
    arithmetic; p(c) is its coefficient at 0.  Reads p by exponent, so a
    stored zero below exponent 0 (as ``derive`` leaves) is harmless."""
    assert p.exact and (p.eff_start() or 0) >= 0, "not a polynomial"
    lin = Series(0, [c, QONE], exact=True)
    out = Series(0, [], exact=True)
    for k in range(p.start + len(p.coeffs) - 1, -1, -1):
        out = out * lin + Series.constant(p.coeff(k))
    return out


def lagrange_interpolate(points: Sequence[tuple[Fraction, Fraction]]) -> Series:
    """Exact interpolating polynomial through distinct sample points."""
    out = Series(0, [], exact=True)
    for i, (xi, yi) in enumerate(points):
        li = Series.constant(yi)
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            li = (li * Series(0, [-xj, QONE], exact=True)).scale(QONE / (xi - xj))
        out = out + li
    return out


def ibp_residue_check(f: Series, g: Series) -> bool:
    """Integration-by-parts identity on residues: Res g df = -Res f dg."""
    lhs = (g * f.derive()).residue()
    rhs = (f * g.derive()).residue()
    return lhs + rhs == 0


def series_log1p(u: Series, order: int | None = None) -> Series:
    """log(1 + u) for a series of positive valuation."""
    t = u.eff_start()
    if t is not None and t < 1:
        raise WindowError("log1p requires valuation >= 1")
    if u.is_known_zero():
        return Series(0, [], exact=True)
    if u.exact:
        if order is None:
            raise WindowError("log1p of an exact polynomial needs an explicit order")
        u = _through(u, order)
    end = u._stored_end()
    acc = u
    p = u
    k = 2
    while k * t <= end:
        p = _through(p * u, end)
        term = p.scale(Fraction(-1 if k % 2 == 0 else 1, k))
        acc = acc + term
        k += 1
    return acc


def _through(s: Series, end: int) -> Series:
    """s known only through z^end."""
    return Series(s.start, [s.coeff(k) for k in range(s.start, end + 1)])


def shift_step_by_fractions(prev: dict, f: int, sign: int) -> dict:
    """One shift-recursion step, sign d/dz [prev(z) B(z)], in ``Fraction``
    arithmetic."""
    a = Fraction(f, f + 1)
    b = Fraction(1, f + 1)
    # multiply by (z - a)(z + b) = z^2 + (b - a) z - a b
    quad = {2: QONE, 1: b - a, 0: -a * b}
    prod: dict = {}
    for e, c in prev.items():
        for q, d in quad.items():
            if not d:
                continue
            k = e + q
            s = prod.get(k, QZERO) + c * d
            if s:
                prod[k] = s
            else:
                prod.pop(k, None)
    # divide by (1+f) z, then d/dz, then the calibrated sign
    out = {}
    for e, c in prod.items():
        k = e - 1
        v = sign * (c / (f + 1)) * k
        if v:
            out[k - 1] = v
    return out


def peel_by_fractions(slices: dict, table) -> dict:
    """Expansion in the shifted basis by elimination in ``Fraction``
    arithmetic, dividing by each leading basis coefficient."""
    work = {e: c for e, c in slices.items() if c}
    out: dict = {}
    while work:
        k = min(work)
        if k > -2:
            raise PeelError(f"exponent {k} above -2 cannot be matched by the basis")
        if k % 2:
            raise PeelError(f"odd leading exponent {k} is outside the basis span")
        n = (-k - 2) // 2
        basis = fraction_dict(table.shifted(n))
        q = work[k] * (QONE / basis[k])
        out[n] = q
        for e, a in basis.items():
            s = work.get(e, None)
            s = -q * a if s is None else s - q * a
            if s:
                work[e] = s
            else:
                work.pop(e, None)
    return out


def theta_by_series(curve: FramedCurve, window: int) -> tuple[Series, Series]:
    """The primitive theta of log y dx/x as (rational part, coefficient of
    the branch constant l), with log(z - a) = l + log(1 - z/a): the
    antiderivatives of pre log(1 - z/a) and of pre, pre = (1+f) z /
    ((z - a)(z + b)), built as products of windowed series and integrated
    termwise: O(window^3) rational operations."""
    f = curve.f
    a = Fraction(f, f + 1)
    b = Fraction(1, f + 1)
    z = Series(1, [QONE], exact=True)
    denom = Series(0, [-a * b, b - a, QONE], exact=True)  # (z - a)(z + b)
    pre = z.scale(Fraction(f + 1)) * invert(denom, order=window)
    log_tail = series_log1p(z.scale(-1 / a), order=window)
    return antiderive(pre * log_tail), antiderive(pre)


def x_shifted_by_products(curve: FramedCurve) -> Series:
    """x(y* + z) = -(y* + z)^f (1 + y* + z) as a product of ``Fraction``
    series."""
    y = Series(0, [curve.y_star, QONE], exact=True)
    x = y + Series.constant(QONE)
    for _ in range(curve.f):
        x = x * y
    return -x


def conjugate_series_by_powers(curve: FramedCurve, window: int) -> Series:
    """The involution s(z) solved order by order, recomputing every power of
    the current truncation of s at each order: O(f window^3) products."""
    X = x_shifted_by_products(curve)
    X2 = X.coeff(2)
    xs = [X.coeff(k) for k in range(window + 2)]
    s = [Fraction(0), Fraction(-1)]
    deg = curve.f + 1
    for n in range(2, window + 1):
        order = n + 1
        comp = [Fraction(0)] * (order + 1)
        power = [Fraction(1)] + [Fraction(0)] * order
        for m in range(1, deg + 1):
            power = _mul_trunc(power, s, order)
            cm = xs[m] if m < len(xs) else Fraction(0)
            if cm:
                for i, p in enumerate(power):
                    comp[i] += cm * p
        target = xs[n + 1] if n + 1 < len(xs) else Fraction(0)
        s.append((comp[n + 1] - target) / (2 * X2))
    return Series(1, s[1:], exact=False)


def operator_forms_by_taylor_shift(f: int) -> Iterator[dict]:
    """psihat_0, psihat_1, ... in z from the operator chain on P / lin^k over
    Q, each Q shifted to z = y + f/(1+f) by a ``Fraction`` Horner shift."""
    lin = Series(0, [Fraction(f), Fraction(f + 1)], exact=True)  # (1+f) y + f
    yy1 = Series(1, [QONE, QONE], exact=True)                    # y (y + 1)
    a = Fraction(f, f + 1)
    P, k = Series.constant(Fraction(1, f + 1)), 1
    for _ in count():
        Q = P.derive() * lin - P.scale(k * (f + 1))
        scale = (f + 1) ** (k + 1)
        yield {i - k - 1: c / scale for i, c in taylor_shift(Q, -a).coeff_dict().items()}
        P, k = yy1 * Q, k + 2


def omega_diff_by_log1p(curve: FramedCurve, window: int, s: Series) -> Series:
    """D(z) = log1p((z - s)/(y* + s)) x'(z)/x(z), the logarithm summed as a
    power series: one series product per power."""
    y_star = Series.constant(curve.y_star)
    z = Series(1, [QONE], exact=True)
    log_ratio = series_log1p((z - s) * invert(y_star + s))
    X = x_shifted_by_products(curve)
    return log_ratio * X.derive() * invert(X, order=window)


def kernel_by_double_sum(window: int, sign: int, s: Series, D: Series) -> tuple[dict, int]:
    """K(w; z) = (sign/2) sum_k w^-(k+1) (s^k - z^k) / D as plain dicts:
    {j: {-(k+1): sign/2 [z^j] (s^k - z^k)/D}} over the z-exponents j of its
    window, and the window's end.

    The powers s^k - z^k, k = 1..window, are ``Fraction`` series, and
    [z^j] (s^k - z^k)/D is the sum over i of [z^i] (s^k - z^k) times
    [z^(j-i)] 1/D: a double sum over k and i per exponent j.  The window
    follows the rules of a sum and a product: it ends at the least window
    end of the products (s^k - z^k)/D, each the least of either factor's
    window end plus the other's valuation."""
    z = Series(1, [QONE], exact=True)
    inv_d = invert(D)
    lo = inv_d.eff_start()
    diffs = []
    s_pow, z_pow = s, z
    for _ in range(window):
        diffs.append(s_pow - z_pow)
        s_pow, z_pow = s_pow * s, z_pow * z
    start = min(d.eff_start() for d in diffs) + lo
    end = min(min(d.window_end + lo, inv_d.window_end + d.eff_start()) for d in diffs)
    half = Fraction(sign, 2)
    columns: dict = {j: {} for j in range(start, end + 1)}
    for k, d in enumerate(diffs, 1):
        for j, column in columns.items():
            c = sum((d.coeff(i) * inv_d.coeff(j - i)
                     for i in range(d.eff_start(), j - lo + 1)), QZERO)
            if c:
                column[-(k + 1)] = half * c
    return columns, end


def _mul_trunc(a: list, b: list, order: int) -> list:
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a):
        if not x or i > order:
            continue
        for j, y in enumerate(b):
            if i + j > order:
                break
            if y:
                out[i + j] += x * y
    return out


def _principal(a: Series, b: Series) -> dict:
    """Coefficients of a*b at exponents <= 0, the only ones a kernel residue reads."""
    out: dict = {}
    sa, sb = a.eff_start(), b.eff_start()
    if sa is None or sb is None:
        return out
    for ea in range(sa, 1 - sb):
        x = a.coeff(ea)
        if not x:
            continue
        for eb in range(sb, 1 - ea):
            y = b.coeff(eb)
            if y:
                out[ea + eb] = out.get(ea + eb, Fraction(0)) + x * y
    return out


class FractionTables:
    """R[a,b], both orientations of E[b], D and W03 of one frame, each entry
    summed in ``Fraction`` arithmetic from the frame's rational series and
    kernel."""

    def __init__(self, frame):
        self.frame = frame
        self.psi = frame.psi
        self.s = as_fractions(frame.s)
        self.inv_s_pows = [Series.constant(QONE)]
        self.columns: dict = {}

    def at_q(self, n: int) -> Series:
        return Series.from_dict(fraction_dict(self.psi.shifted(n)))

    def at_qbar(self, n: int) -> Series:
        pows = self.inv_s_pows
        acc = Series(0, [], exact=True)
        for e, c in fraction_dict(self.psi.shifted(n)).items():
            while len(pows) <= -e:
                pows.append(pows[-1] * invert(self.s))
            acc = acc + pows[-e].scale(c)
        return acc * self.s.derive()

    def residue(self, principal: dict) -> dict:
        out: dict = {}
        for e, c in principal.items():
            if c:
                for n, k in self.column(-1 - e).items():
                    out[n] = out.get(n, Fraction(0)) + c * k
        return {n: c for n, c in out.items() if c}

    def column(self, j: int) -> dict:
        out = self.columns.get(j)
        if out is None:
            out = self.columns[j] = peel_fractions(self.frame.kernel.coeff(j).terms,
                                                   self.psi)
        return out

    def r(self, a: int, b: int) -> dict:
        return self.residue(_principal(self.at_q(a), self.at_qbar(b)))

    def e(self, b: int) -> dict:
        """B(q,p) against the q-bar leg of index b, with B(q,p) = sum_k
        u^-(k+2) d/dz z^(k+1)."""
        at_qbar = self.at_qbar(b)
        return self._bergman_leg(b, lambda k: _principal(
            Series.monomial(Fraction(k + 1), k), at_qbar))

    def e_mirror(self, b: int) -> dict:
        """The q-leg of index b against B(q-bar,p), the same sum with s(z)
        for z."""
        at_q, s = self.at_q(b), self.s
        s_pows = [s]
        for _ in range(2 * b + 2):
            s_pows.append(s_pows[-1] * s)
        return self._bergman_leg(b, lambda k: _principal(s_pows[k].derive(), at_q))

    def _bergman_leg(self, b: int, principal) -> dict:
        """Peel the residues of principal(k), k <= 2b+2, in the basis of the
        free point and of p; keyed (free index, index at p)."""
        by_free: dict = {}
        for k in range(2 * b + 3):
            for n, c in self.residue(principal(k)).items():
                by_free.setdefault(n, {})[-(k + 2)] = c
        return {(n, m): c for n, poly in by_free.items()
                for m, c in peel_fractions(poly, self.psi).items()}

    def d(self) -> dict:
        return self.residue(_principal(as_fractions(bergman_self_pairing(self.frame.s)),
                                       Series.constant(QONE)))

    def w03(self) -> dict:
        leg = peel_fractions({-2: QONE}, self.psi)
        free = self.residue({0: self.s.derive().coeff(0)})
        return {(n, m1, m2): c * x * y for n, c in free.items()
                for m1, x in leg.items() for m2, y in leg.items()}


def lambda_top_coefficient_by_series(g: int) -> Series:
    """The top lambda-word coefficient of ``lambda_top_coefficient``, each
    word's factor a product of ``Fraction`` series: (-1)^d t^(g-d) for l_d
    inside L(t), at t = 1, -f-1 and f."""
    t_vals = [Series.constant(QONE), Series(0, [-QONE, -QONE], exact=True),
              Series.monomial(QONE, 1)]
    total = Series(0, [], exact=True)
    target = 3 * g - 3
    lo = max(0, g - 3)
    for i in range(lo, g + 1):
        for j in range(lo, g + 1):
            k = target - i - j
            if k < lo or k > g:
                continue
            coeff = Series.constant(QONE)
            for t, d in zip(t_vals, (i, j, k)):
                factor = Series.constant(QONE)
                for _ in range(g - d):
                    factor = factor * t
                coeff = coeff * (factor if d % 2 == 0 else -factor)
            total = total + coeff.scale(_rewrite_word(tuple(sorted((i, j, k), reverse=True)), g))
    return total
