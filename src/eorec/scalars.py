"""Exact rational coefficients: rendering and parsing.

Every printed or cached number is a ``fractions.Fraction`` (already
canonical: reduced, positive denominator, 0/1 zero); the engine's inner
loops run on integer numerators over a common denominator instead.
"""

from __future__ import annotations

from fractions import Fraction


def format_rational(x: Fraction) -> str:
    """Render a rational as a decimal string, ``p/q`` or plain ``p``."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    """Inverse of :func:`format_rational` (also accepts plain integers)."""
    return Fraction(s)
