"""The pole basis of one-forms at the ramification point.

For index n >= 0 the basis element is the one-form ``Psi_n = -psihat_n dy``
where the scalar ``psihat_n`` is built by applying the first-order operator
(B(y) d/dy) exactly n+1 times to C(y) and multiplying by A(y) = 1/B(y),
with

    B(y) = y(y+1) / ((1+f) y + f),
    C(y) = 1 / ((1+f) ((1+f) y + f)).

In the shifted coordinate z = y + f/(1+f) the scalar is a Laurent
polynomial with exponents in [-(2n+2), -2] and no residue term.  The same
family satisfies a one-step shift recursion

    psihat_n(z) = sign * d/dz [ psihat_{n-1}(z) * B(z) ],

whose global sign is calibrated against the operator definition rather than
assumed; both constructions must agree for every index, which is enforced
at table-extension time.

Expansion of a Laurent object in this basis ("peeling") is triangular in
the pole order: the leading exponent -(2n+2) identifies the index, the
leading coefficient is divided out, and the tail is subtracted exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CalibrationError, PeelError
from .poly import Poly, RatFn

QZERO = Fraction(0)
QONE = Fraction(1)


@dataclass(frozen=True)
class PsiForm:
    """One basis scalar in both coordinates (hat convention, no dy)."""

    n: int
    f: int
    scalar_y: RatFn
    scalar_z: dict  # exponent -> Fraction, exact Laurent polynomial

    def leading(self) -> Fraction:
        return self.scalar_z[-(2 * self.n + 2)]


def _operator_pieces(f: int) -> tuple[RatFn, RatFn, RatFn]:
    lin = Poly([f, f + 1])           # (1+f) y + f
    yy1 = Poly([0, 1, 1])            # y (y + 1)
    B = RatFn(yy1, lin)
    A = B.inverse()
    C = RatFn(Poly([1]), lin * (f + 1))
    return A, B, C


def psi_form(n: int, f: int) -> PsiForm:
    """Basis scalar from the operator definition (fresh chain)."""
    if n < 0 or f < 1:
        raise ValueError("need n >= 0 and framing f >= 1")
    A, B, C = _operator_pieces(f)
    G = C
    for _ in range(n + 1):
        G = B * G.derivative()
    hat = A * G
    return PsiForm(n, f, hat, _shift_to_z(hat, n, f))


def _shift_to_z(hat: RatFn, n: int, f: int) -> dict:
    """Re-expand the y-form at y = y* + z; the denominator must be a pure power."""
    a = Fraction(f, f + 1)
    num = hat.num.taylor_shift(-a)
    den = hat.den.taylor_shift(-a)
    k = den.degree
    if any(den.coeffs[:k]):
        raise ArithmeticError("pole away from the ramification point")
    lead = den.coeffs[k]
    out = {}
    for i, c in enumerate(num.coeffs):
        if c:
            out[i - k] = c / lead
    _check_shape(out, n)
    return out


def _check_shape(d: dict, n: int) -> None:
    if not d:
        raise ArithmeticError("basis scalar vanished")
    lo, hi = min(d), max(d)
    if lo != -(2 * n + 2) or hi > -2:
        raise ArithmeticError(f"basis scalar has exponents [{lo}, {hi}], "
                              f"expected leading -(2n+2) = {-(2 * n + 2)} and top <= -2")


def shift_step(prev: dict, f: int, sign: int) -> dict:
    """One application of the shift recursion to a shifted scalar."""
    a = Fraction(f, f + 1)
    b = Fraction(1, f + 1)
    # multiply by (z - a)(z + b) = z^2 + (b - a) z - a b
    quad = {2: QONE, 1: b - a, 0: -a * b}
    prod: dict = {}
    for e, c in prev.items():
        for q, d in quad.items():
            if not d:
                continue
            k = e + q
            s = prod.get(k, QZERO) + c * d
            if s:
                prod[k] = s
            else:
                prod.pop(k, None)
    # divide by (1+f) z, then d/dz, then the calibrated sign
    out = {}
    for e, c in prod.items():
        k = e - 1
        v = sign * (c / (f + 1)) * k
        if v:
            out[k - 1] = v
    return out


class PsiTable:
    """Per-framing memo table of basis forms.

    The operator definition is normative; every extension step cross-checks
    the shift recursion under the single calibrated sign and aborts on
    disagreement.  ``forced_sign=-1`` instead builds the alternating-sign
    variant of the shifted family from the same base case (audit mode; the
    y-forms keep their operator meaning).
    """

    def __init__(self, f: int, forced_sign: int | None = None):
        if f < 1:
            raise ValueError("framing must be >= 1")
        self.f = f
        self._forms: list[PsiForm] = [psi_form(0, f)]
        self._chain: RatFn | None = None
        self._pieces: tuple[RatFn, RatFn, RatFn] | None = None
        calibrated = self._calibrate()
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

    def _calibrate(self) -> int:
        base = self._forms[0].scalar_z
        target = psi_form(1, self.f).scalar_z
        for sign in (1, -1):
            if shift_step(base, self.f, sign) == target:
                return sign
        raise CalibrationError("shift recursion matches the operator definition "
                               "under neither sign")

    def form(self, n: int) -> PsiForm:
        self._extend(n)
        return self._forms[n]

    def shifted(self, n: int) -> dict:
        return self.form(n).scalar_z

    def leading(self, n: int) -> Fraction:
        return self.form(n).leading()

    def _extend(self, n: int) -> None:
        if n < len(self._forms):
            return
        if self._pieces is None:
            self._pieces = _operator_pieces(self.f)
        A, B, C = self._pieces
        while len(self._forms) <= n:
            m = len(self._forms)
            prev = self._forms[m - 1]
            stepped = shift_step(prev.scalar_z, self.f, self.sign)
            if self.forced:
                # audit basis: shifted family from the recursion alone
                hat_y = prev.scalar_y  # y-form kept for reference only
                _check_shape(stepped, m)
                self._forms.append(PsiForm(m, self.f, hat_y, stepped))
                continue
            if self._chain is None:
                self._chain = C
                for _ in range(m):  # G_m = (B d/dy)^m C
                    self._chain = B * self._chain.derivative()
            self._chain = B * self._chain.derivative()
            hat = A * self._chain
            form = PsiForm(m, self.f, hat, _shift_to_z(hat, m, self.f))
            if stepped != form.scalar_z:
                raise CalibrationError(
                    f"shift recursion disagrees with the operator definition at n={m}")
            if not form.leading():
                raise ArithmeticError(f"vanishing leading coefficient at n={m}")
            self._forms.append(form)


_TABLES: dict[int, PsiTable] = {}


def psi_table(f: int) -> PsiTable:
    """Shared calibrated table for a framing (initialize once, read many)."""
    tab = _TABLES.get(f)
    if tab is None:
        tab = _TABLES[f] = PsiTable(f)
    return tab


def peel(slices: dict, table: PsiTable) -> dict:
    """Expand exponent->coefficient data in the shifted basis.

    ``slices`` maps z-exponents to rational coefficients.
    Returns index -> coefficient with  input = sum coeff[n] * psihat_n.
    Raises :class:`PeelError` when the input is outside the span.
    """
    work = {e: c for e, c in slices.items() if c}
    out: dict = {}
    while work:
        k = min(work)
        if k > -2:
            raise PeelError(f"exponent {k} above -2 cannot be matched by the basis")
        if k % 2:
            raise PeelError(f"odd leading exponent {k} is outside the basis span")
        n = (-k - 2) // 2
        basis = table.shifted(n)
        q = work[k] * (QONE / basis[k])
        out[n] = q
        for e, a in basis.items():
            s = work.get(e, None)
            s = -q * a if s is None else s - q * a
            if s:
                work[e] = s
            else:
                work.pop(e, None)
    return out


def psi_peel(w_form: dict, f: int, table: PsiTable | None = None) -> dict[int, Fraction]:
    """Expansion of an exact Laurent polynomial in the shifted basis."""
    if table is None:
        table = psi_table(f)
    cleaned = {}
    for e, c in w_form.items():
        if not c:
            continue
        if e > -2:
            raise PeelError(f"exponent {e} above -2 cannot be matched by the basis")
        cleaned[e] = Fraction(c)
    return peel(cleaned, table)
