"""Sparse multivariate Laurent polynomials over Q.

These are the coefficients of the recursion kernel K(w; z) as a z-series:
Laurent polynomials in the free-slot coordinate w (one variable).  Terms
map exponent tuples to rationals; zero coefficients are never stored.
"""

from __future__ import annotations

from fractions import Fraction

QZERO = Fraction(0)


class MLaurent:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        if terms:
            self.terms = {k: v for k, v in terms.items() if v}
        else:
            self.terms = {}

    @staticmethod
    def const(nvars: int, c) -> "MLaurent":
        c = Fraction(c)
        if not c:
            return MLaurent(nvars)
        return MLaurent(nvars, {(0,) * nvars: c})

    def _coerce(self, other):
        if isinstance(other, MLaurent):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return MLaurent.const(self.nvars, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for k, v in o.terms.items():
            s = out.get(k, QZERO) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return MLaurent(self.nvars, out)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return MLaurent(self.nvars, {k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return MLaurent(self.nvars)
            return MLaurent(self.nvars, {k: v * other for k, v in self.terms.items()})
        if not isinstance(other, MLaurent):
            return NotImplemented
        if other.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        out: dict = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                k = tuple(a + b for a, b in zip(ka, kb))
                s = out.get(k, QZERO) + va * vb
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return MLaurent(self.nvars, out)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MLaurent.const(self.nvars, other)
        if not isinstance(other, MLaurent):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"MLaurent({self.nvars}, {self.terms!r})"
