"""The framed genus-zero mirror curve of the vertex geometry.

The curve is x + y^f + y^(f+1) = 0 with integer framing f >= 1, i.e.
x(y) = -y^f (1 + y).  It has a single ramification point y* = -f/(f+1)
away from the punctures y = 0, -1.  All local data is expanded in the
shifted coordinate z = y - y*:

* the conjugate involution s(z) with x(y* + s(z)) = x(y* + z), s(0) = 0,
  s'(0) = -1, found order by order on integer numerators;
* the one-form difference D(z) dz = omega(q) - omega(q_bar) where
  omega = log y dx/x, and the Bergman self-pairing B(q, q_bar), each
  built from s;
* the recursion kernel K(w; z), a z-series whose coefficients are Laurent
  polynomials in the free-slot coordinate w = y_p - y*, read by slice off
  the integer products (s^k - z^k)/D, each cut after the highest exponent
  the kernel keeps, with z^k subtracted in place from the numerators of
  s^k, one ``Fraction`` per entry and one product by 1/2.  The kernel
  carries no orientation sign: the recursion applies the calibrated sign
  once per target (:mod:`eorec.recursion`).

x(y* + z), s, D and B(q, q_bar) are integer series over a denominator
(:class:`~eorec.series.Series`), so every reciprocal, product and
primitive on the way runs on integer numerators.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import WindowError
from .laurent import MLaurent
from .series import Series


class FramedCurve:
    """Framing, ramification data and x(y) about the ramification point.

    With m = 1+f and u = m z, x(y* + z) = -P(u) / m^(f+1) for the integer
    polynomial P(u) = (u - f)^f (u + 1), kept as its coefficients ``P``.
    """

    __slots__ = ("f", "y_star", "x_star", "P", "_x")

    def __init__(self, f: int):
        if f < 1:
            raise ValueError("framing must be a positive integer "
                             "(f = 0 collides the ramification point with a puncture)")
        self.f = f
        m = f + 1
        self.y_star = Fraction(-f, m)
        P = [1]
        for root in [f] * f + [-1]:  # times (u - root)
            P = [(P[i - 1] if i else 0) - root * (P[i] if i < len(P) else 0)
                 for i in range(len(P) + 1)]
        self.P = P
        self._x = Series(0, [-c * m ** k for k, c in enumerate(P)], exact=True, den=m ** m)
        self.x_star = Fraction(-P[0], m ** m)

    def x_shifted(self) -> Series:
        """x(y* + z) as an exact polynomial in z, an integer series over its
        denominator."""
        return self._x


def conjugate_series(curve: FramedCurve, window: int) -> Series:
    """The local involution s(z) = -z + c2 z^2 + ... to the given window, an
    integer series over its denominator.

    Solved order by order on the integers, in u = (1+f) z: there
    x(y* + z) = -P(u) / (1+f)^(f+1) with the integer polynomial ``curve.P``,
    so sigma(u) = (1+f) s(u/(1+f)) fixes P.  Each new coefficient enters
    linearly through the quadratic lead of P.  The coefficients of sigma are
    integer numerators over one running denominator, which grows by the
    least factor that keeps a new coefficient integral; the powers sigma^m,
    m = 2..f+1, are kept over its m-th power and gain one coefficient per
    order: [u^(n+1)] of sigma^m needs only the known coefficients of sigma,
    except for the term 2 sigma_1 sigma_n of sigma^2, which is the unknown
    itself.  Then s_k = sigma_k (1+f)^(k-1) over the same denominator.
    """
    if window < 2:
        raise ValueError("window must be at least 2")
    f = curve.f
    m = f + 1
    P = curve.P
    if not P[2]:
        raise WindowError("ramification point is not simple")  # cannot happen for f >= 1
    P = P + [0] * (window + 2 - len(P))
    den, sigma = 1, [0, -1]  # sigma_k = sigma[k] / den
    # pows[j] holds [u^k] sigma^(j+2) over den^(j+2) for k = 0..n at the start of order n
    pows = [[0, 0, 1]] + [[0] * 3 for _ in range(f - 1)]
    for n in range(2, window + 1):
        dens = [den ** k for k in range(f + 2)]
        comp = 0  # over den^(f+1)
        prev = sigma
        for j, power in enumerate(pows):
            # [u^(n+1)] of sigma^(j+1) * sigma over sigma_1 .. sigma_(n-1)
            c = sum(prev[i] * sigma[n + 1 - i] for i in range(2, min(n + 1, len(prev)))
                    if prev[i])
            power.append(c)
            comp += P[j + 2] * c * dens[f - 1 - j]
            prev = power
        # sigma_n = (comp / den^(f+1) - P[n+1]) / (2 P[2]), over den
        top = comp - P[n + 1] * dens[f + 1]
        q = 2 * P[2] * dens[f]
        grow = abs(q) // gcd(top, q)
        if grow > 1:
            sigma = [c * grow for c in sigma]
            for j, power in enumerate(pows):
                scale = grow ** (j + 2)
                power[:] = [c * scale for c in power]
            den *= grow
        sigma.append(top * grow // q)
        pows[0][n + 1] += 2 * sigma[1] * sigma[n]
    return Series(1, [c * m ** k for k, c in enumerate(sigma[1:])], den=den)


def omega_diff_series(curve: FramedCurve, s: Series) -> Series:
    """Scalar D(z) with omega(q) - omega(q_bar) = D(z) dz, valuation 2, an
    integer series over its denominator.

    D = log((y* + z)/(y* + s(z))) * x'(z)/x(z) evaluated along y = y* + z,
    from the involution s (``conjugate_series``), whose window is the
    window of the result.  The log of the ratio vanishes at z = 0, so it is
    the primitive with zero constant of 1/(y* + z) - s'(z)/(y* + s(z)), and
    no branch constant enters.  With m = 1+f, y* + z = (m z - f)/m.
    """
    window = s.window_end
    if window < 4:
        raise ValueError("window must be at least 4")
    f = curve.f
    m = f + 1
    y_of_z = Series(0, [-f, m], exact=True, den=m)
    y_of_s = s + Series(0, [-f], exact=True, den=m)
    log_ratio = (y_of_z.invert(order=window) - s.derive() * y_of_s.invert()).primitive()
    X = curve.x_shifted()
    D = log_ratio * X.derive() * X.invert(order=window)
    if D.eff_start() != 2:
        raise WindowError("window too small to certify the valuation of the one-form difference")
    return D


def bergman_self_pairing(s: Series) -> Series:
    """Scalar of B(q, q_bar) against dz^2, s'(z) / (z - s(z))^2, an integer
    series over its denominator.

    From the involution s (``conjugate_series``), whose window bounds the
    result's, with (z - s)^2 = z^2 - 2 z s + s^2.
    """
    gap = Series.monomial(1, 2) - s.shift(1).scale(2) + s * s
    return s.derive() * gap.invert()


def recursion_kernel(D: Series, s: Series) -> Series:
    """K(w; z) = (1/2) [1/(w - s(z)) - 1/(w - z)] / D(z).

    Returned as a z-series whose coefficients are one-variable Laurent
    polynomials in w (``MLaurent``, poles only at w = 0); the lowest
    z-exponent is -1.  Since 1/(w - s) - 1/(w - z) = sum_k w^-(k+1)
    (s^k - z^k), the coefficient of w^-(k+1) in K_j is
    1/2 [z^j] (s^k - z^k)/D.  Each [z^j] (s^k - z^k)/D is summed over the
    integers, from the integer series s (``conjugate_series``) and D
    (``omega_diff_series``), formed as one ``Fraction`` and keyed -(k+1) in
    column j; the column series is then scaled by 1/2 once, one
    ``Fraction`` product per entry.  s^k - z^k is s^k with ``den``
    subtracted from its numerator at z^k; the powers s^k and the products
    (s^k - z^k)/D are cut after the highest exponent read (``Series.mul``),
    and each product is read by slice.  The windows of s and D bound the
    window of the result.  The calibrated orientation sign is not part of
    K: every residue table is linear in K, so the recursion applies it once
    per target.
    """
    inv_d = D.invert()  # 1/D starts at z^lo
    lo = inv_d.start
    # s - z starts at z^1: the window of (s - z) (1/D)
    start, end = 1 + lo, min(s.window_end + lo, inv_d.window_end + 1)
    top = end - lo  # the highest exponent of s^k read
    columns = [{} for _ in range(start, end + 1)]
    power = Series.constant(1)
    for k in range(1, top + 1):
        power = power.mul(s, top)
        diff = list(power.coeffs)
        diff[k - power.start] -= power.den  # s^k - z^k
        part = Series(power.start, diff, den=power.den).mul(inv_d, end)
        part.coeff(end)  # WindowError unless certified through z^end, where it is cut
        for j, c in enumerate(part.coeffs, part.start):
            if c:
                columns[j - start][-(k + 1)] = Fraction(c, part.den)
    kernel = Series(start, [MLaurent(col) for col in columns]).scale(Fraction(1, 2))
    if kernel.eff_start() != -1:
        raise WindowError("kernel does not exhibit its simple pole; window too small")
    return kernel
