"""The framed genus-zero mirror curve of the vertex geometry.

The curve is x + y^f + y^(f+1) = 0 with integer framing f >= 1, i.e.
x(y) = -y^f (1 + y).  It has a single ramification point y* = -f/(f+1)
away from the punctures y = 0, -1.  All local data is expanded in the
shifted coordinate z = y - y*:

* the conjugate involution s(z) with x(y* + s(z)) = x(y* + z), s(0) = 0,
  s'(0) = -1, found order by order;
* the one-form difference D(z) dz = omega(q) - omega(q_bar) where
  omega = log y dx/x;
* the recursion kernel K(w; z), a z-series whose coefficients are Laurent
  polynomials in the free-slot coordinate w = y_p - y*, summed over the
  integers from the powers of s and 1/D.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import WindowError
from .laurent import MLaurent
from .series import Series, integer_power, integer_series

QZERO = Fraction(0)
QONE = Fraction(1)


class FramedCurve:
    """Framing, ramification data and x(y) about the ramification point."""

    __slots__ = ("f", "y_star", "x_star", "_x")

    def __init__(self, f: int):
        if f < 1:
            raise ValueError("framing must be a positive integer "
                             "(f = 0 collides the ramification point with a puncture)")
        self.f = f
        self.y_star = Fraction(-f, f + 1)
        # x(y* + z) = -(y* + z)^f (1 + y* + z)
        y = Series(0, [self.y_star, QONE], exact=True)
        x = y + Series.constant(QONE)
        for _ in range(f):
            x = x * y
        self._x = -x
        self.x_star = self._x.coeff(0)

    def x_shifted(self) -> Series:
        """x(y* + z) as an exact polynomial series in z."""
        return self._x


def conjugate_series(curve: FramedCurve, window: int) -> Series:
    """The local involution s(z) = -z + c2 z^2 + ... to the given window.

    Solved order by order from x(y* + s(z)) = x(y* + z); each new
    coefficient enters linearly through the quadratic lead of x.  The powers
    s^m, m = 2..f+1, are kept and gain one coefficient per order: [z^(n+1)]
    of s^m needs only the known coefficients of s, except for the term
    2 s_1 s_n of s^2, which is the unknown itself.
    """
    if window < 2:
        raise ValueError("window must be at least 2")
    X = curve.x_shifted()  # x* + X2 z^2 + ... with X2 != 0
    X2 = X.coeff(2)
    if not X2:
        raise WindowError("ramification point is not simple")  # cannot happen for f >= 1
    xs = [X.coeff(k) for k in range(max(window, curve.f) + 2)]
    s = [QZERO, -QONE]  # s = -z + ...
    # pows[m-2] holds [z^k] s^m for k = 0..n at the start of order n
    pows = [[QZERO, QZERO, QONE]] + [[QZERO] * 3 for _ in range(curve.f - 1)]
    for n in range(2, window + 1):
        comp = QZERO
        prev = s
        for m, power in enumerate(pows, start=2):
            # [z^(n+1)] of s^(m-1) * s over s_1 .. s_(n-1)
            c = sum((prev[i] * s[n + 1 - i] for i in range(2, min(n + 1, len(prev)))
                     if prev[i]), QZERO)
            power.append(c)
            comp += xs[m] * c
            prev = power
        s.append((comp - xs[n + 1]) / (2 * X2))
        pows[0][n + 1] += 2 * s[1] * s[n]
    return Series(1, s[1:], exact=False)


def omega_diff_series(curve: FramedCurve, s: Series) -> Series:
    """Scalar D(z) with omega(q) - omega(q_bar) = D(z) dz; valuation 2.

    D = log((y* + z)/(y* + s(z))) * x'(z)/x(z) evaluated along y = y* + z,
    from the involution ``s`` (``conjugate_series``), whose window is the
    window of the result.  The log of the ratio vanishes at z = 0, so it is
    the primitive with zero constant of 1/(y* + z) - s'(z)/(y* + s(z)), and
    no branch constant enters.
    """
    window = s.window_end
    if window < 4:
        raise ValueError("window must be at least 4")
    y_star = Series.constant(curve.y_star)
    z = Series(1, [QONE], exact=True)
    log_ratio = ((y_star + z).invert(order=window)
                 - s.derive() * (y_star + s).invert()).antiderive()
    X = curve.x_shifted()
    D = log_ratio * X.derive() * X.invert(order=window)
    if D.eff_start() != 2:
        raise WindowError("window too small to certify the valuation of the one-form difference")
    return D


def bergman_self_pairing(s: Series, s_pows: list) -> Series:
    """Scalar of B(q, q_bar) against dz^2: s'(z) / (z - s(z))^2.

    From the involution ``s`` (``conjugate_series``), whose window bounds
    the result's.  (z - s)^2 = z^2 - 2 z s + s^2 takes s^2 from ``s_pows``,
    the integer powers of s (``integer_powers``) that a frame shares with
    the kernel.
    """
    den, square = integer_power(s_pows, 2)
    gap = Series.monomial(QONE, 2) + s.shift(1).scale(-2) + square.scale(Fraction(1, den))
    return s.derive() * gap.invert()


def recursion_kernel(s: Series, D: Series, s_pows: list, sign: int) -> Series:
    """K(w; z) = sign * (1/2) [1/(w - s(z)) - 1/(w - z)] / D(z).

    Returned as a z-series with coefficients that are Laurent polynomials
    in the single variable w (poles only at w = 0); the lowest z-exponent
    is -1.  Since 1/(w - s) - 1/(w - z) = sum_k w^-(k+1) (s^k - z^k), the
    coefficient of w^-(k+1) in K_j is sign/2 [z^j] (s^k - z^k)/D.  Each is
    summed over the integers, from the integer powers of the involution
    ``s`` in ``s_pows`` (``integer_powers``) and 1/D over one denominator
    (``D`` from ``omega_diff_series``), and formed as one ``Fraction``.  The
    windows of ``s`` and ``D`` bound the window of the result.
    """
    inv = D.invert()
    den, inv_d = integer_series(inv)  # 1/D starts at z^lo
    lo = inv.start
    # s - z starts at z^1: the window of (s - z) (1/D)
    start, end = 1 + lo, min(s.window_end + lo, inv.window_end + 1)
    columns = [{} for _ in range(start, end + 1)]
    for k in range(1, end - lo + 1):
        d, power = integer_power(s_pows, k)
        # d (s^k - z^k) at z^(k+i), i = 0 .. end-lo-k
        diff = [power.coeff(k + i) for i in range(end - lo - k + 1)]
        diff[0] -= d
        for j in range(k + lo, end + 1):
            top = j - lo - k  # z^(k+i) meets z^(j-k-i) of 1/D, stored at top-i
            c = sum(diff[i] * inv_d.coeffs[top - i] for i in range(top + 1))
            if c:
                columns[j - start][(-(k + 1),)] = Fraction(c, d * den)
    acc = Series(start, [MLaurent(1, col) for col in columns])
    kernel = acc.scale(MLaurent.const(1, Fraction(sign, 2)))
    if kernel.eff_start() != -1:
        raise WindowError("kernel does not exhibit its simple pole; window too small")
    return kernel
