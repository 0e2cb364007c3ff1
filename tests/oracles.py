"""Exact reference routines that only the tests use: polynomial
interpolation and the integration-by-parts residue identity."""

from fractions import Fraction
from typing import Sequence

from eorec import Poly, Series

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
