"""Dense univariate polynomials and reduced rational functions over Q.

Polynomials are stored lowest degree first with no trailing zeros; the zero
polynomial has an empty coefficient tuple.  Rational functions keep the
denominator monic and coprime to the numerator.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

QZERO = Fraction(0)
QONE = Fraction(1)


class Poly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c) -> "Poly":
        return Poly([c])

    @staticmethod
    def x() -> "Poly":
        return Poly([0, 1])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            [self.coeff(i) + other.coeff(i) for i in range(n)]
        )

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [QZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return QZERO

    def eval(self, y: Fraction) -> Fraction:
        acc = QZERO
        for c in reversed(self.coeffs):
            acc = acc * y + c
        return acc

    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Poly":
        if not self.coeffs:
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return Poly([c / lead for c in self.coeffs])

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        quot = [QZERO] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] / lead
            quot[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return Poly(quot), Poly(rem)

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def taylor_shift(self, c: Fraction) -> "Poly":
        """Return p(y + c) as a polynomial in y."""
        out = Poly()
        for a in reversed(self.coeffs):
            out = out * Poly([c, 1]) + Poly.const(a)
        return out

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"


class RatFn:
    """Reduced rational function num/den with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = Poly([1])):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num, self.den = Poly(), Poly([1])
            return
        g = num.gcd(den)
        if g.degree > 0:
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        lead = den.coeffs[-1]
        if lead != 1:
            num = num * (QONE / lead)
            den = den.monic()
        self.num, self.den = num, den

    @staticmethod
    def const(c) -> "RatFn":
        return RatFn(Poly.const(c))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other: "RatFn") -> "RatFn":
        return RatFn(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RatFn") -> "RatFn":
        return RatFn(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatFn":
        return RatFn(-self.num, self.den)

    def __mul__(self, other) -> "RatFn":
        if isinstance(other, (int, Fraction)):
            return RatFn(self.num * other, self.den)
        return RatFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "RatFn") -> "RatFn":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFn(self.num * other.den, self.den * other.num)

    def inverse(self) -> "RatFn":
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero rational function")
        return RatFn(self.den, self.num)

    def derivative(self) -> "RatFn":
        return RatFn(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def eval(self, y: Fraction) -> Fraction:
        d = self.den.eval(y)
        if not d:
            raise ZeroDivisionError(f"pole at y={y}")
        return self.num.eval(y) / d

    def taylor_shift(self, c: Fraction) -> "RatFn":
        return RatFn(self.num.taylor_shift(c), self.den.taylor_shift(c))

    def __repr__(self) -> str:
        return f"RatFn({self.num!r}, {self.den!r})"
