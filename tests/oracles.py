"""Exact reference routines that only the tests use: polynomial
interpolation, the integration-by-parts residue identity, and the primitive
theta built by series arithmetic."""

from fractions import Fraction
from typing import Sequence

from eorec import FramedCurve, LogExt, Poly, Series, series_log1p

QONE = Fraction(1)


def lagrange_interpolate(points: Sequence[tuple[Fraction, Fraction]]) -> Poly:
    """Exact interpolating polynomial through distinct sample points."""
    out = Poly()
    for i, (xi, yi) in enumerate(points):
        li = Poly.const(yi)
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            li = li * Poly([-xj, 1]) * (QONE / (xi - xj))
        out = out + li
    return out


def ibp_residue_check(f: Series, g: Series) -> bool:
    """Integration-by-parts identity on residues: Res g df = -Res f dg."""
    lhs = (g * f.derive()).residue()
    rhs = (f * g.derive()).residue()
    return lhs + rhs == 0


def theta_by_series(curve: FramedCurve, window: int) -> Series:
    """The primitive theta of log y dx/x, built as a product of windowed
    series and integrated termwise: O(window^3) ``LogExt`` operations."""
    f = curve.f
    a = Fraction(f, f + 1)
    b = Fraction(1, f + 1)
    z = Series(1, [QONE], exact=True)
    denom = Series(0, [-a * b, b - a, QONE], exact=True)  # (z - a)(z + b)
    pre = z.scale(Fraction(f + 1)) * denom.invert(order=window)
    log_tail = series_log1p(z.scale(-1 / a), order=window)
    d_theta = pre.scale(LogExt(0, 1)) + (pre * log_tail).scale(LogExt(1, 0))
    return d_theta.antiderive()
