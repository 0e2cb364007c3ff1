"""Truncated Laurent series with an explicit window of known coefficients.

A ``Series`` stands for a mathematical Laurent series that is guaranteed to
have no terms below ``start`` and whose coefficients are stored exactly for
exponents ``start .. start+len(coeffs)-1``.  Coefficients above that range
are unknown, unless ``exact`` is set, in which case they are known to be
zero (the series is a finite Laurent polynomial).

Every operation computes the tightest window it can certify and refuses to
report anything outside it; asking for an uncertified coefficient raises
:class:`~eorec.errors.WindowError` so callers can widen their truncation
instead of silently reading garbage.  A product that is read only up to
some exponent is formed by ``mul``, which cuts the window there and so
never computes the coefficients past it.

The coefficient ring is duck-typed, as long as it supports ``+ - *``
among its elements.  The engine uses ``int``; ``Fraction`` works as well.
The kernel's coefficients in the free-slot coordinate,
:class:`~eorec.laurent.MLaurent`, go through ``scale`` by a rational
only.  The literal ``0`` is the zero of every such ring: it is what a
coefficient outside the stored range reads as, what pads a window and what
an empty sum starts from.

Over the integers a series also carries a denominator ``den`` (1 by
default): it stands for its integer coefficients divided by ``den``, held
in lowest terms with ``den > 0``.  A sum of any number of series (``+``,
``-`` and ``substitute``) is one pass: every operand goes over the least
common multiple of the denominators and is read by slice into one
coefficient list, with the window rule written once.  Products multiply
the denominators, and the reciprocal and the primitive run on the
numerators, so the local frame at the ramification point is built over
the integers from curve data kept in the same form.  Every Laurent
polynomial or series in one variable is held this way, the pole basis and
the residue integrands included; only data keyed by basis index, tables
and tensors, is a (den, {index: numerator}) pair (``lowest_terms``);
``integer_dict`` makes one of the rational values of a kernel column.  A
series with ``den = 1`` does no denominator work at all, whatever its
ring.
"""

from __future__ import annotations

import math

from .errors import WindowError

INF = math.inf


class Series:
    __slots__ = ("start", "coeffs", "exact", "den")

    def __init__(self, start: int, coeffs, exact: bool = False, den: int = 1):
        cs = list(coeffs)
        if exact:
            while cs and not cs[-1]:
                cs.pop()
        if den != 1:
            g = math.gcd(den, *cs) if den > 0 else -math.gcd(den, *cs)
            if g != 1:
                den //= g
                cs = [c // g for c in cs]
        self.start = start
        self.coeffs = tuple(cs)
        self.exact = exact
        self.den = den

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(c) -> "Series":
        return Series(0, [c], exact=True)

    @staticmethod
    def monomial(c, k: int) -> "Series":
        return Series(k, [c], exact=True)

    @staticmethod
    def from_dict(d: dict, exact: bool = True, den: int = 1) -> "Series":
        """Series from an exponent->coefficient mapping (a Laurent polynomial)."""
        if not d:
            return Series(0, [], exact=exact)
        lo, hi = min(d), max(d)
        return Series(lo, [d.get(k, 0) for k in range(lo, hi + 1)], exact=exact, den=den)

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
        """Certified coefficient at exponent ``k``: its numerator over
        ``den``."""
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
        return _linear_sum(((1, self), (1, other)))

    def __sub__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        return _linear_sum(((1, self), (-1, other)))

    def __neg__(self) -> "Series":
        return Series(self.start, [-c for c in self.coeffs], exact=self.exact, den=self.den)

    def scale(self, c) -> "Series":
        """Multiply every coefficient by a ring element."""
        return Series(self.start, [x * c for x in self.coeffs], exact=self.exact, den=self.den)

    def shift(self, k: int) -> "Series":
        """Multiply by z**k."""
        return Series(self.start + k, self.coeffs, exact=self.exact, den=self.den)

    def __mul__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        return self.mul(other, INF)

    def mul(self, other: "Series", stop: float) -> "Series":
        """The product, known through exponent ``stop`` at most.

        The window is that of ``self * other`` cut after ``stop``; an exact
        product cut short of its last term is no longer exact.  When the
        product's valuation lies past ``stop`` it is known to be zero
        through ``stop``, and that is returned even where the uncut product
        has an empty window.
        """
        if self.is_known_zero() or other.is_known_zero():
            return Series(0, [], exact=True)
        # effective valuations are sound lower bounds past certified zeros
        sa, sb = self.eff_start(), other.eff_start()
        exact = self.exact and other.exact
        if exact:
            start = self.start + other.start
            end = self._stored_end() + other._stored_end()
        else:
            start = sa + sb
            end = min(self.window_end + sb, other.window_end + sa)
        if stop < start:
            return Series(stop + 1, [])
        if stop < end:
            end, exact = stop, False
        if end < start:
            raise WindowError("product has an empty certified window")
        size = end - start + 1
        out = [0] * size
        ys = other.coeffs[sb - other.start:]
        for i, x in enumerate(self.coeffs[sa - self.start:], sa + sb - start):
            if i >= size:
                break
            if x:
                for j, y in enumerate(ys[:size - i], i):
                    if y:
                        out[j] += x * y
        return Series(start, out, exact=exact, den=self.den * other.den)

    def invert(self, order: int | None = None) -> "Series":
        """The reciprocal of an integer series, known to the certified order.

        ``order`` bounds the number of known coefficients past the leading
        one; it is required when inverting an exact polynomial with more
        than one term (the reciprocal is an infinite series).  With
        t = lead z^v (1 + ...), the coefficients of 1/t follow from
        w_k = -(sum_j t_(v+j) w_(k-j)) / lead.  They are integer numerators
        over one running denominator, which grows by the least factor that
        keeps a new coefficient integral; multiplying by powers of the lead
        instead would carry a factor lead^k that the result mostly does not
        need.
        """
        if self.is_known_zero():
            raise ZeroDivisionError("inverse of the zero series")
        v = self.eff_start()
        end = self._stored_end()
        if not self.exact and v > end:
            raise WindowError("divisor has no certified nonzero coefficient")
        lead = self.coeff(v)
        if self.exact and end == v:
            # monomial: exact inverse
            return Series(-v, [self.den if lead > 0 else -self.den], exact=True, den=abs(lead))
        if self.exact:
            if order is None:
                raise WindowError("inverting an exact polynomial needs an explicit order")
            n = order
        else:
            n = end - v
            if order is not None:
                n = min(n, order)
        tail = [(j, c) for j in range(1, min(n, end - v) + 1) if (c := self.coeff(v + j))]
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
        return Series(-v, [self.den * x for x in w], den=den)

    # -- calculus ------------------------------------------------------

    def derive(self) -> "Series":
        """Formal d/dz."""
        return Series(
            self.start - 1,
            [(self.start + i) * c for i, c in enumerate(self.coeffs)],
            exact=self.exact, den=self.den,
        )

    def primitive(self) -> "Series":
        """Termwise primitive, with zero integration constant, of an integer
        series.

        Requires the coefficient at exponent -1 to be certified zero, since
        integrating it would leave the Laurent ring.
        """
        if self.coeff(-1):  # raises WindowError when -1 is not certified
            raise WindowError("antiderivative obstructed by a nonzero z^-1 coefficient")
        start = min(self.start + 1, 0)  # the zero constant at exponent 0 is known
        terms = [(self.start + i + 1, c) for i, c in enumerate(self.coeffs) if c]
        scale = math.lcm(*(e for e, _ in terms))  # over every exponent it divides by
        out = [0] * (self._stored_end() + 2 - start)
        for e, c in terms:
            out[e - start] = c * (scale // e)
        return Series(start, out, exact=self.exact, den=self.den * scale)

    def residue(self):
        """Certified coefficient of z**-1."""
        return self.coeff(-1)


# -- tables keyed by basis index, and powers over the integers -----------------

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


def integer_powers(s: Series) -> list:
    """The list [1, s] of integer series, which ``integer_power`` extends to
    [1, s, s^2, ...]."""
    return [Series.constant(1), s]


def integer_power(pows: list, k: int) -> Series:
    """x^k from the list [1, x, x^2, ...] of integer series, extended on
    demand."""
    while len(pows) <= k:
        pows.append(pows[-1] * pows[1])
    return pows[k]


def substitute(poly: Series, pows: list, inv_pows: list | None = None) -> Series:
    """sum_e c_e x^e for the Laurent polynomial ``poly`` with coefficients
    c_e, from the lists [1, x, x^2, ...] and [1, 1/x, 1/x^2, ...] of integer
    series (``integer_powers``), extended on demand; a list may be None
    when ``poly`` has no exponent of its sign.  The powers are summed in
    one pass, as one sum of as many operands as ``poly`` has terms."""
    return _linear_sum(((c, integer_power(pows, e) if e >= 0 else integer_power(inv_pows, -e))
                        for e, c in poly.coeff_dict().items()), poly.den)


def _linear_sum(terms, den: int = 1) -> Series:
    """sum_i c_i t_i / den over the pairs (c_i, t_i) of an integer and a
    series, in one pass: every t_i goes over the least common multiple L
    of their denominators and is read by slice into one coefficient list,
    which becomes one series over den L.

    A known-zero operand is dropped.  A sum of exact operands is exact, up
    to the largest stored end; otherwise it is known through the smallest
    ``window_end``.  An operand that starts past that end adds nothing.
    When two or more operands are left, an empty window raises
    ``WindowError``; a single operand keeps its own window, so t + 0 = t.
    """
    terms = [(c, t) for c, t in terms if not t.is_known_zero()]
    if not terms:
        return Series(0, [], exact=True)
    start = min(t.start for _, t in terms)
    exact = all(t.exact for _, t in terms)
    if exact:
        end = max(t._stored_end() for _, t in terms)
    else:
        end = int(min(t.window_end for _, t in terms))
        if end < start and len(terms) > 1:
            raise WindowError("sum has an empty certified window")
    lcd = math.lcm(*(t.den for _, t in terms))
    out = [0] * (end - start + 1)
    for c, t in terms:
        c *= lcd // t.den
        xs = t.coeffs[:max(0, end + 1 - t.start)]
        i = t.start - start
        j = i + len(xs)
        if c == 1:
            out[i:j] = [a + x for a, x in zip(out[i:j], xs)]
        else:
            out[i:j] = [a + x * c for a, x in zip(out[i:j], xs)]
    return Series(start, out, exact=exact, den=den * lcd)
