"""Truncated Laurent series with an explicit window of known coefficients.

A ``Series`` stands for a mathematical Laurent series that is guaranteed to
have no terms below ``start`` and whose coefficients are stored exactly for
exponents ``start .. start+len(coeffs)-1``.  Coefficients above that range
are unknown, unless ``exact`` is set, in which case they are known to be
zero (the series is a finite Laurent polynomial).

Every operation computes the tightest window it can certify and refuses to
report anything outside it; asking for an uncertified coefficient raises
:class:`~eorec.errors.WindowError` so callers can widen their truncation
instead of silently reading garbage.

The coefficient ring is duck-typed, as long as it supports ``+ - *``
among its elements.  The engine uses ``int``, for the integer numerators
below, and :class:`~eorec.laurent.MLaurent`, for the kernel's coefficients
in the free-slot coordinate; ``Fraction`` works as well.  The literal ``0``
is the zero of every such ring: it is what a coefficient outside the stored
range reads as, what pads a window and what an empty sum starts from.

The functions at the end of the module carry a rational series as integer
numerators over one denominator.  Sums, products, powers, the reciprocal,
the primitive and substitution run on these pairs with the window rules of
``Series``, so the local frame at the ramification point is built over the
integers from curve data that is kept in the same form.
"""

from __future__ import annotations

import math

from .errors import WindowError

INF = math.inf


class Series:
    __slots__ = ("start", "coeffs", "exact")

    def __init__(self, start: int, coeffs, exact: bool = False):
        cs = list(coeffs)
        if exact:
            while cs and not cs[-1]:
                cs.pop()
        self.start = start
        self.coeffs = tuple(cs)
        self.exact = exact

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(c) -> "Series":
        return Series(0, [c], exact=True)

    @staticmethod
    def monomial(c, k: int) -> "Series":
        return Series(k, [c], exact=True)

    @staticmethod
    def from_dict(d: dict, exact: bool = True) -> "Series":
        """Series from an exponent->coefficient mapping (a Laurent polynomial)."""
        if not d:
            return Series(0, [], exact=exact)
        lo, hi = min(d), max(d)
        return Series(lo, [d.get(k, 0) for k in range(lo, hi + 1)], exact=exact)

    # -- window bookkeeping -------------------------------------------

    @property
    def window_end(self):
        """Largest exponent with a certified coefficient (inf when exact)."""
        if self.exact:
            return INF
        return self.start + len(self.coeffs) - 1

    def _stored_end(self) -> int:
        return self.start + len(self.coeffs) - 1

    def eff_start(self) -> int | None:
        """First exponent that may carry a nonzero term.

        Stored leading zeros are certified, so the bound can be tightened
        past them.  Returns ``None`` for the exact zero series; a non-exact
        window that is all zeros yields ``window_end + 1``.
        """
        for i, c in enumerate(self.coeffs):
            if c:
                return self.start + i
        if self.exact:
            return None
        return self.start + len(self.coeffs)

    def is_known_zero(self) -> bool:
        return self.exact and not self.coeffs

    def coeff(self, k: int):
        """Certified coefficient at exponent ``k``."""
        if k < self.start:
            return 0
        if k <= self._stored_end():
            return self.coeffs[k - self.start]
        if self.exact:
            return 0
        raise WindowError(f"coefficient at exponent {k} is outside the known window "
                          f"[{self.start}, {self._stored_end()}]")

    def coeff_dict(self) -> dict:
        return {self.start + i: c for i, c in enumerate(self.coeffs) if c}

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        if self.is_known_zero():
            return other
        if other.is_known_zero():
            return self
        start = min(self.start, other.start)
        exact = self.exact and other.exact
        if exact:
            end = max(self._stored_end(), other._stored_end())
        else:
            end = int(min(self.window_end, other.window_end))
            if end < start:
                raise WindowError("sum has an empty certified window")
        return Series(
            start,
            [self.coeff(k) + other.coeff(k) for k in range(start, end + 1)],
            exact=exact,
        )

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def __neg__(self) -> "Series":
        return Series(self.start, [-c for c in self.coeffs], exact=self.exact)

    def scale(self, c) -> "Series":
        """Multiply every coefficient by a ring element."""
        return Series(self.start, [x * c for x in self.coeffs], exact=self.exact)

    def shift(self, k: int) -> "Series":
        """Multiply by z**k."""
        return Series(self.start + k, self.coeffs, exact=self.exact)

    def __mul__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        if self.is_known_zero() or other.is_known_zero():
            return Series(0, [], exact=True)
        exact = self.exact and other.exact
        if exact:
            start = self.start + other.start
            end = self._stored_end() + other._stored_end()
        else:
            # effective valuations are sound lower bounds past certified zeros
            sa = self.eff_start()
            sb = other.eff_start()
            start = sa + sb
            end = int(min(self.window_end + sb, other.window_end + sa))
            if end < start:
                raise WindowError("product has an empty certified window")
        out = [0] * (end - start + 1)
        base_a, base_b = self.start, other.start
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            ka = base_a + i + base_b
            for j, b in enumerate(other.coeffs):
                k = ka + j
                if k > end:
                    break
                if not b:
                    continue
                if k >= start:
                    out[k - start] = out[k - start] + a * b
        return Series(start, out, exact=exact)

    # -- calculus ------------------------------------------------------

    def derive(self) -> "Series":
        """Formal d/dz."""
        return Series(
            self.start - 1,
            [(self.start + i) * c for i, c in enumerate(self.coeffs)],
            exact=self.exact,
        )

    def residue(self):
        """Certified coefficient of z**-1."""
        return self.coeff(-1)


# -- integer series over one denominator -------------------------------------
#
# A rational series is carried as a pair (d, t): integer coefficients t over
# the denominator d, with t keeping the window of the series.  Products of
# such pairs are integer convolutions.

def integer_dict(values: dict) -> tuple[int, dict]:
    """(d, {k: v*d}): rational values as integers over their least common
    denominator."""
    den = math.lcm(*(v.denominator for v in values.values()))
    return den, {k: v.numerator * (den // v.denominator) for k, v in values.items()}


def lowest_terms(den: int, nums: dict) -> tuple[int, dict]:
    """Cancel the factor that den shares with every numerator and drop zeros,
    so den becomes the least common denominator of the entries."""
    g = math.gcd(den, *nums.values())
    return den // g, {k: v // g for k, v in nums.items() if v}


def reduced(den: int, t: Series) -> tuple[int, Series]:
    """The integer series t over den in lowest terms."""
    g = math.gcd(den, *t.coeffs)
    return den // g, Series(t.start, [c // g for c in t.coeffs], exact=t.exact)


def integer_sum(terms: list) -> tuple[int, Series]:
    """The sum of integer series over their denominators, over the least
    common multiple of the denominators."""
    den = math.lcm(*(d for d, _ in terms))
    acc = Series(0, [], exact=True)
    for d, t in terms:
        acc = acc + t.scale(den // d)
    return den, acc


def integer_product(a: tuple[int, Series], b: tuple[int, Series]) -> tuple[int, Series]:
    """The product of two integer series over their denominators."""
    return reduced(a[0] * b[0], a[1] * b[1])


def integer_inverse(a: tuple[int, Series], order: int | None = None) -> tuple[int, Series]:
    """The reciprocal of the integer series t over d, known to the certified
    order, in lowest terms.

    ``order`` bounds the number of known coefficients past the leading one;
    it is required when inverting an exact polynomial with more than one term
    (the reciprocal is an infinite series).  With t = lead z^v (1 + ...),
    the coefficients of 1/t follow from w_k = -(sum_j t_(v+j) w_(k-j)) / lead.
    They are integer numerators over one running denominator, which grows by
    the least factor that keeps a new coefficient integral; multiplying by
    powers of the lead instead would carry a factor lead^k that the result
    mostly does not need.
    """
    d, t = a
    if t.is_known_zero():
        raise ZeroDivisionError("inverse of the zero series")
    v = t.eff_start()
    end = t._stored_end()
    if not t.exact and v > end:
        raise WindowError("divisor has no certified nonzero coefficient")
    lead = t.coeff(v)
    if t.exact and end == v:
        # monomial: exact inverse
        return reduced(abs(lead), Series(-v, [d if lead > 0 else -d], exact=True))
    if t.exact:
        if order is None:
            raise WindowError("inverting an exact polynomial needs an explicit order")
        n = order
    else:
        n = end - v
        if order is not None:
            n = min(n, order)
    tail = [(j, c) for j in range(1, min(n, end - v) + 1) if (c := t.coeff(v + j))]
    den, w = abs(lead), [1 if lead > 0 else -1]  # 1/t = w/den
    for k in range(1, n + 1):
        c = 0
        for j, x in tail:
            if j > k:
                break
            c += x * w[k - j]
        if c % lead:
            grow = abs(lead) // math.gcd(c, lead)
            w = [x * grow for x in w]
            den *= grow
            c *= grow
        w.append(-(c // lead))
    return reduced(den, Series(-v, [d * x for x in w]))


def integer_primitive(a: tuple[int, Series]) -> tuple[int, Series]:
    """Termwise primitive with zero integration constant of the integer
    series t over d, in lowest terms.

    Requires the coefficient at exponent -1 to be certified zero, since
    integrating it would leave the Laurent ring.
    """
    d, t = a
    if t.coeff(-1):  # raises WindowError when -1 is not certified
        raise WindowError("antiderivative obstructed by a nonzero z^-1 coefficient")
    start = min(t.start + 1, 0)  # the zero constant at exponent 0 is known
    terms = [(t.start + i + 1, c) for i, c in enumerate(t.coeffs) if c]
    scale = math.lcm(*(e for e, _ in terms))  # over every exponent it divides by
    out = [0] * (t._stored_end() + 2 - start)
    for e, c in terms:
        out[e - start] = c * (scale // e)
    return reduced(d * scale, Series(start, out, exact=t.exact))


def integer_powers(s: tuple[int, Series]) -> list:
    """The list [1, s] of integer series over their denominators, which
    ``integer_power`` extends to [1, s, s^2, ...]."""
    return [(1, Series.constant(1)), s]


def integer_power(pows: list, k: int) -> tuple[int, Series]:
    """x^k from the list [1, x, x^2, ...] of integer series over their
    denominators, extended on demand."""
    while len(pows) <= k:
        pows.append(integer_product(pows[-1], pows[1]))
    return pows[k]


def substitute(poly: tuple[int, dict], pows: list,
               inv_pows: list | None = None) -> tuple[int, Series]:
    """sum_e c_e x^e for the Laurent polynomial (d, {e: c_e}), integer
    numerators c_e over d, from the lists [1, x, x^2, ...] and
    [1, 1/x, 1/x^2, ...] of integer series over their denominators
    (``integer_powers``), extended on demand; the sum over its common
    denominator."""
    den, nums = poly
    terms = [(c, integer_power(pows, e) if e >= 0 else integer_power(inv_pows, -e))
             for e, c in nums.items()]
    return integer_sum([(den * d, t.scale(c)) for c, (d, t) in terms])
