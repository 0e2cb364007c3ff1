"""Exact rational coefficients: rendering and parsing.

Every printed or cached number is a ``fractions.Fraction`` (already
canonical: reduced, positive denominator, 0/1 zero); the engine's inner
loops run on integer numerators over a common denominator instead, and
the cache parses its strings straight to such integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def format_rational(x: Fraction) -> str:
    """Render a rational as a decimal string, ``p/q`` or plain ``p``."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> tuple[int, int]:
    """Inverse of :func:`format_rational`, on integers: (p, q) of a string
    ``p`` or ``p/q`` in lowest terms with q >= 2, both in canonical decimal;
    a ``ValueError`` for any string that ``format_rational`` does not
    write."""
    top, slash, bottom = s.partition("/")
    p, q = int(top), int(bottom) if slash else 1
    if str(p) != top or (slash and (q < 2 or str(q) != bottom)) or gcd(p, q) != 1:
        raise ValueError(f"not a canonical rational: {s!r}")
    return p, q
