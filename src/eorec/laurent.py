"""Laurent polynomials over Q in one variable: the coefficients of the
recursion kernel K(w; z) as a z-series, in the free-slot coordinate w.

``terms`` maps an exponent of w to a nonzero ``Fraction``.  The kernel
forms one per column and scales the column series once, by sign/2
(``Series.scale``); nothing else combines them.
"""

from __future__ import annotations


class MLaurent:
    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {k: v for k, v in terms.items() if v}

    def __mul__(self, c) -> "MLaurent":
        """The product with a rational ``c``."""
        return MLaurent({k: v * c for k, v in self.terms.items()})

    def __add__(self, other: "MLaurent") -> "MLaurent":
        """The sum.  The engine never adds two coefficients: this stays only
        because ``perfbench/tracer.py`` reads and wraps it, and its
        ``install()`` fails without it."""
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return MLaurent(out)

    def __bool__(self) -> bool:
        return bool(self.terms)
