"""The pole basis of one-forms at the ramification point.

For index n >= 0 the basis element is the one-form ``Psi_n = -psihat_n dy``
where the scalar ``psihat_n`` is built by applying the first-order operator
(B(y) d/dy) exactly n+1 times to C(y) and multiplying by A(y) = 1/B(y),
with

    B(y) = y(y+1) / ((1+f) y + f),
    C(y) = 1 / ((1+f) ((1+f) y + f)).

Every G_n = (B d/dy)^n C has a power of lin = (1+f) y + f as denominator,
so the operator side is polynomial arithmetic on a pair (P, k) meaning
P / lin^k, from G_0 = (1/(1+f), 1).  Since A B = 1, with
Q = P' lin - k (1+f) P,

    psihat_n = dG_n/dy = Q / lin^(k+1),    G_(n+1) = y(y+1) Q / lin^(k+2).

The chain runs on integer polynomials: with m = 1+f, p = m P and q = m Q
satisfy q = p' lin - k m p and p_(n+1) = y(y+1) q from p_0 = 1.  In the
shifted coordinate z = y + f/(1+f) the linear factor is m z, so psihat_n is
one Taylor shift of q over m^(k+2) z^(k+1).  In u = m z that shift is by
the integer -f, so it runs over the integers too, and psihat_n is an exact
``Series`` over a power of m, in lowest terms.  The result is a Laurent
polynomial with exponents in [-(2n+2), -2] and no residue term.
The same family satisfies a one-step shift recursion

    psihat_n(z) = sign * d/dz [ psihat_{n-1}(z) * B(z) ],

whose global sign is calibrated against the operator definition rather than
assumed; both constructions must agree for every index, which is enforced
at table-extension time.  With m = 1+f, B is the exact series
(m^2 z^2 + m(1-f) z - f) / (m^3 z), so a step is one series product.  Both
constructions end in lowest terms with a nonzero lead at -(2n+2), which is
canonical, so the cross-check compares start, numerators and denominator.

Expansion of a Laurent polynomial in this basis ("peeling") is triangular
in the pole order: the leading exponent -(2n+2) identifies the index and
the tail is eliminated fraction-free.  The input is a series over its
denominator and the output integer numerators over one denominator, keyed
by basis index: each step scales the remainder and the coefficients found
so far by the basis lead (over their gcd) instead of dividing, against the
basis form's integer numerators (``PsiTable.shifted``), and no
``Fraction`` is formed.
"""

from __future__ import annotations

from itertools import count
from math import gcd
from typing import Iterator

from .errors import CalibrationError, PeelError
from .series import Series, lowest_terms


def _operator_forms(f: int) -> Iterator[Series]:
    """psihat_0, psihat_1, ... in z, from the operator definition.

    The chain runs on p = m P and q = m Q with m = 1+f, which stay integer
    polynomials in y: p_0 = 1, q = p' lin - k m p and p_(n+1) = y(y+1) q.
    """
    m = f + 1
    p, k = [1], 1
    for n in count():
        q = [-k * m * c for c in p]
        for i in range(1, len(p)):
            q[i - 1] += i * f * p[i]
            q[i] += i * m * p[i]
        out = _shifted_form(q, k, f)
        _check_shape(out, n)
        yield out
        p = [0] + q + [0]
        for i, c in enumerate(q):
            p[i + 2] += c
        k += 2


def _shifted_form(q: list, k: int, f: int) -> Series:
    """psihat = q(y) / (m^(k+2) z^(k+1)) at y = z - f/m, m = 1+f, as an
    exact series in lowest terms.

    In u = m z the shift is by the integer -f: with d = deg q and
    qt(v) = m^d q(v/m) = sum_j r_j (v+f)^j, q(z - f/m) = sum_j r_j m^(j-d) z^j.
    """
    m = f + 1
    d = len(q) - 1
    r = [c * m ** (d - i) for i, c in enumerate(q)]
    for i in range(d):  # Taylor shift by -f, one synthetic division per degree
        for j in range(d - 1, i - 1, -1):
            r[j] -= f * r[j + 1]
    return Series(-k - 1, [c * m ** j for j, c in enumerate(r)], exact=True,
                  den=m ** (d + k + 2))


def _check_shape(form: Series, n: int) -> None:
    lo, hi = form.eff_start(), form.start + len(form.coeffs) - 1
    if lo is None:
        raise ArithmeticError("basis scalar vanished")
    if lo != -(2 * n + 2) or hi > -2:
        raise ArithmeticError(f"basis scalar has exponents [{lo}, {hi}], "
                              f"expected leading -(2n+2) = {-(2 * n + 2)} and top <= -2")


def _same(a: Series, b: Series) -> bool:
    """Equality of canonical basis forms: exact, in lowest terms, nonzero lead."""
    return (a.start, a.coeffs, a.den) == (b.start, b.coeffs, b.den)


def shift_step(prev: Series, f: int, sign: int) -> Series:
    """One application of the shift recursion, sign d/dz [prev(z) B(z)],
    to a shifted scalar; the result is in lowest terms."""
    m = f + 1
    B = Series(-1, [-f, m * (1 - f), m * m], exact=True, den=m ** 3)
    return (prev * B.scale(sign)).derive()


class PsiTable:
    """Per-framing memo table of basis forms, each an exact ``Series`` in
    lowest terms.

    The operator definition is normative; every extension step cross-checks
    the shift recursion under the single calibrated sign and aborts on
    disagreement.  ``forced_sign=-1`` instead builds the alternating-sign
    variant of the shifted family from the same base case (audit mode).
    """

    def __init__(self, f: int, forced_sign: int | None = None):
        if f < 1:
            raise ValueError("framing must be >= 1")
        self.f = f
        self._operator = _operator_forms(f)
        self._forms: list[Series] = [next(self._operator)]
        first = next(self._operator)
        calibrated = self._calibrate(first)
        if forced_sign is None:
            self.sign = calibrated
            self.forced = False
        else:
            if forced_sign not in (1, -1):
                raise ValueError("sign override must be +1 or -1")
            self.sign = forced_sign
            # a forced sign that agrees with calibration keeps full checking;
            # the opposite sign builds the alternating audit basis
            self.forced = forced_sign != calibrated
        if not self.forced:
            self._forms.append(first)

    def _calibrate(self, first: Series) -> int:
        """The sign under which one shift step takes psihat_0 to ``first``,
        psihat_1 of the operator chain."""
        for sign in (1, -1):
            if _same(shift_step(self._forms[0], self.f, sign), first):
                return sign
        raise CalibrationError("shift recursion matches the operator definition "
                               "under neither sign")

    def form(self, n: int) -> Series:
        """psihat_n(z) in the shifted coordinate, an exact series in lowest
        terms, extending the table through index n."""
        while len(self._forms) <= n:
            m = len(self._forms)
            stepped = shift_step(self._forms[m - 1], self.f, self.sign)
            if self.forced:
                # audit basis: shifted family from the recursion alone
                _check_shape(stepped, m)
            elif not _same(stepped, next(self._operator)):
                raise CalibrationError(
                    f"shift recursion disagrees with the operator definition at n={m}")
            self._forms.append(stepped)
        return self._forms[n]

    # the name callers read psihat_n through; the benchmark's tracer times
    # both names
    shifted = form


_TABLES: dict[int, PsiTable] = {}


def psi_table(f: int) -> PsiTable:
    """Shared calibrated table for a framing (initialize once, read many)."""
    tab = _TABLES.get(f)
    if tab is None:
        tab = _TABLES[f] = PsiTable(f)
    return tab


def peel(slices: Series, table: PsiTable) -> tuple[int, dict]:
    """Expand an exact Laurent polynomial in the shifted basis.

    Returns (d, {index: numerator}) in lowest terms, with
    slices = sum (coeff[n] / d) * psihat_n.
    Raises :class:`PeelError` when the input is outside the span.
    """
    den, work = slices.den, slices.coeff_dict()
    out: dict = {}
    while work:
        k = min(work)
        if k > -2:
            raise PeelError(f"exponent {k} above -2 cannot be matched by the basis")
        if k % 2:
            raise PeelError(f"odd leading exponent {k} is outside the basis span")
        n = (-k - 2) // 2
        basis = table.shifted(n)
        lead, top = basis.coeffs[0], work[k]
        # the coefficient is top bden / (den lead); the remainder
        # work/den - (top/(den lead)) basis is kept over den (lead/g)
        g = gcd(lead, top)
        lead, top = lead // g, top // g
        if lead < 0:
            lead, top = -lead, -top
        den *= lead
        for i in out:
            out[i] *= lead
        out[n] = top * basis.den
        for e in work:
            work[e] *= lead
        for e, a in enumerate(basis.coeffs, k):
            if a:
                s = work.get(e, 0) - top * a
                if s:
                    work[e] = s
                else:
                    work.pop(e, None)
    return lowest_terms(den, out)
