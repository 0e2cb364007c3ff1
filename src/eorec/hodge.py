"""Everything downstream of the correlators.

* the primitive theta of omega = log y dx/x as two integer series over
  their denominators: its rational part and its
  coefficient of the branch constant l of the log at the ramification
  point, which must cancel from every residue handed back to callers; each
  coefficient has a closed form, and one primitive per framing serves
  every basis index;
* the residue pairing of theta against each basis one-form, an integer dot
  product of the basis scalar's principal part with the coefficients of
  theta and one ``Fraction`` per residue; it vanishes except at index 1;
* extraction of triple-Hodge brackets from one-point tensors;
* the top-degree coefficient of the product of the three dual Hodge
  polynomials under the Mumford rewrite rules, an integer polynomial in the
  framing;
* the Bernoulli closed form for the genus-g free energy, evaluated two
  ways (full residue pairing and the index-1 shortcut) and compared.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from typing import NamedTuple

from .bernoulli import bernoulli
from .curve import FramedCurve
from .errors import EorecError, LogBranchError
from .psi import PsiTable, psi_table
from .recursion import CorrDiff, CorrStore
from .scalars import format_rational
from .series import Series

QZERO = Fraction(0)


def theta_series(curve: FramedCurve, window: int) -> tuple[Series, Series]:
    """Local primitive of log y dx/x at the ramification point, valuation 2,
    as the pair (rational part, coefficient of l) of integer series over
    their denominators, each certified up to exponent window + 2.

    Its differential is
        (1+f) z log(z - a) / ((z - a)(z + b)) dz,   a = f/(1+f), b = 1/(1+f),
    with log(z - a) = l + log(1 - z/a); the integration constant is dropped,
    which is harmless because every pairing partner is residue free.  Since
    a + b = 1, partial fractions give
        (1+f) z / ((z - a)(z + b)) = sum_{m>=1} p_m z^m,
        p_m = -(1+f)^(m+1) (1 + (-1)^(m-1) f^m) / f^m,
    and log(1 - z/a) = -sum_{j>=1} (1+f)^j z^j / (j f^j), so
        theta_(m+1) = (p_m l - sum_{i+j=m} p_i (1+f)^j / (j f^j)) / (m+1)
                    = ((1+f)^(m+1) / (f^m (m+1))) (S_m - (1 + (-1)^(m-1) f^m) l),
        S_m = sum_{j=1}^{m-1} (1 + (-1)^(m-1-j) f^(m-j)) / j.
    Over L = lcm(1..window) the two halves of S_m are integers that each
    gain one term per m, so theta is O(window) integer operations.
    """
    if window < 3:
        raise ValueError("window must be at least 3")
    f = curve.f
    top = window + 1
    L = lcm(*range(1, top))
    M = lcm(*range(2, top + 2))  # every m + 1
    harmonic = alternating = 0   # (sum 1/j) L and (sum (-1)^(m-1-j) f^(m-j)/j) L
    rat, log = [0, 0], [0, 0]
    for m in range(1, top + 1):
        if m > 1:
            harmonic += L // (m - 1)
            alternating = f * (L // (m - 1)) - f * alternating
        scale = (f + 1) ** (m + 1) * f ** (top - m) * (M // (m + 1))
        rat.append(scale * (harmonic + alternating))
        log.append(-scale * (1 + (-1) ** (m - 1) * f ** m))
    den = f ** top * M
    return Series(0, rat, den=den * L), Series(0, log, den=den)


_THETA: dict[int, tuple] = {}  # framing -> widest primitive built so far


def _theta(curve: FramedCurve, top: int) -> tuple[Series, Series]:
    """A primitive certified at least up to exponent ``top``: the widest one
    built for this framing, or a new one of just the needed window."""
    got = _THETA.get(curve.f)
    if got is None or got[0].window_end < top:
        got = _THETA[curve.f] = theta_series(curve, max(3, top - 2))
    return got


def reserve_theta(curve: FramedCurve, max_index: int) -> None:
    """Build the primitive of this framing once, wide enough for the residue
    of every basis index up to ``max_index``."""
    _theta(curve, 2 * max_index + 1)


def residue_theta_psi(curve: FramedCurve, n: int, table: PsiTable | None = None) -> Fraction:
    """Residue of theta against Psi_n = -psihat_n dy at the ramification point.

    psihat_n has exponents -(2n+2) .. -2 in z, so the residue is the dot
    product -sum_e psihat_n[e] theta_(-1-e) over theta_1 .. theta_(2n+1),
    taken on the integer numerators of the basis series
    (``PsiTable.shifted``) and of both parts of theta.  The coefficient of l
    must cancel exactly; the rational part is returned as one ``Fraction``.
    Vanishes for n = 0 and n >= 2; magnitude 1/(f(1+f)) at n = 1.
    """
    if table is None:
        table = psi_table(curve.f)
    psi = table.shifted(n)
    top = -1 - psi.start  # the exponent of theta against psi's first coefficient
    theta = _theta(curve, top)
    for part in theta:
        part.coeff(top)  # WindowError unless certified through z^top
    # theta starts at z^0, so its coefficients from z^top down are one slice
    rat, log = (-sum(c * x for c, x in zip(psi.coeffs, part.coeffs[top::-1]) if c)
                for part in theta)
    rden, lden = (psi.den * part.den for part in theta)
    if log:
        value = f"{format_rational(Fraction(log, lden))}*l"
        if rat:
            value = f"{format_rational(Fraction(rat, rden))} + {value}"
        raise LogBranchError(f"branch symbol survives the index-{n} residue: {value}")
    return Fraction(rat, rden)


class HodgeTable(NamedTuple):
    """Brackets <tau_n L(1) L(-f-1) L(f)> extracted from a one-point tensor."""

    g: int
    f: int
    bracket: dict  # n -> Fraction

    def value(self, n: int) -> Fraction:
        return self.bracket.get(n, QZERO)


def hodge_extract(w: CorrDiff) -> HodgeTable:
    if w.h != 1:
        raise ValueError("Hodge extraction needs a one-point tensor")
    sign = 1 if (w.g + 1) % 2 == 0 else -1
    return HodgeTable(g=w.g, f=w.f,
                      bracket={idx[0]: Fraction(sign * c, w.den) for idx, c in w.nums.items()})


def lambda_top_coefficient(g: int) -> Series:
    """Coefficient of the top lambda word in the triple product, as a
    polynomial in the framing with integer coefficients.

    Expands the degree 3g-3 part of L(1) L(-f-1) L(f), where
    L(t) = t^g - t^(g-1) l_1 + ... + (-1)^g l_g, over words in the top three
    lambda classes, rewrites with l_g^2 = 0 and l_{g-1}^2 = 2 l_g l_{g-2},
    and returns the multiplier of l_g l_{g-1} l_{g-2}.  The word
    l_i l_j l_k, one factor from each L in turn, carries
    (-1)^(i+j+k) (-(f+1))^(g-j) f^(g-k) = (-1)^(i+k+g) (f+1)^(g-j) f^(g-k),
    expanded binomially.
    """
    if g < 2:
        raise ValueError("needs genus >= 2")
    total: dict[int, int] = {}
    target = 3 * g - 3
    lo = max(0, g - 3)
    for i in range(lo, g + 1):
        for j in range(lo, g + 1):
            k = target - i - j
            if k < lo or k > g:
                continue
            word = tuple(sorted((i, j, k), reverse=True))
            mult = _rewrite_word(word, g)
            if mult is None:
                raise ArithmeticError(f"word {word} does not normalize")
            mult *= (-1) ** (i + k + g)
            for r in range(g - j + 1):
                total[r + g - k] = total.get(r + g - k, 0) + mult * comb(g - j, r)
    return Series.from_dict({d: c for d, c in total.items() if c})


def _rewrite_word(word: tuple[int, int, int], g: int) -> int | None:
    """Multiplier of l_g l_{g-1} l_{g-2} after the rewrite rules; 0 if the
    word dies, None if it fails to normalize."""
    parts = [d for d in word if d > 0]  # l_0 = 1
    mult = 1
    counts = {d: parts.count(d) for d in set(parts)}
    if counts.get(g, 0) >= 2:
        return 0  # l_g^2 = 0
    while counts.get(g - 1, 0) >= 2:
        counts[g - 1] -= 2
        counts[g] = counts.get(g, 0) + 1
        counts[g - 2] = counts.get(g - 2, 0) + 1
        mult *= 2
        if counts.get(g, 0) >= 2:
            return 0
    flat = sorted((d for d, c in counts.items() if d > 0 for _ in range(c)),
                  reverse=True)
    expected = [d for d in (g, g - 1, g - 2) if d > 0]
    return mult if flat == expected else None


def lambda_triple(g: int) -> Fraction:
    """<l_g l_{g-1} l_{g-2}>_g as the classical Bernoulli product."""
    if g < 2:
        raise ValueError("needs genus >= 2")
    return (Fraction(1, 2 * factorial(2 * g - 2))
            * abs(bernoulli(2 * g - 2)) / (2 * g - 2)
            * abs(bernoulli(2 * g)) / (2 * g))


class Dilaton(NamedTuple):
    """The dilaton relation on the index-1 bracket of one framing.

    ``ratio`` = bracket[1] / (f(f+1)) is framing independent and, for
    g >= 2, equals +/- ``target`` = (2g-2) <l_g l_{g-1} l_{g-2}>_g.
    """

    ratio: Fraction
    target: Fraction | None  # None below genus 2

    @property
    def sign(self) -> int | None:
        """ratio / target when the magnitudes agree, else None."""
        if self.target is None or abs(self.ratio) != self.target:
            return None
        return 1 if self.ratio == self.target else -1


def dilaton(table: HodgeTable) -> Dilaton:
    target = (2 * table.g - 2) * lambda_triple(table.g) if table.g >= 2 else None
    return Dilaton(ratio=table.value(1) / (table.f * (table.f + 1)), target=target)


def bernoulli_energy(g: int) -> Fraction:
    """Closed-form genus-g free energy: (1/2)(-1)^g |B_2g||B_2g-2| / (2g (2g-2) (2g-2)!)."""
    if g < 2:
        raise ValueError("needs genus >= 2")
    sign = 1 if g % 2 == 0 else -1
    return Fraction(sign, 2) * abs(bernoulli(2 * g)) * abs(bernoulli(2 * g - 2)) \
        / (2 * g * (2 * g - 2) * factorial(2 * g - 2))


def free_energy_direct(store: CorrStore, g: int) -> Fraction:
    """(-1)^g/(2-2g) times the full residue pairing of theta with W(g,1)."""
    if g < 2:
        raise ValueError("needs genus >= 2")
    w = store.correlator(g, 1)
    total = QZERO
    for idx, c in w.nums.items():
        total += c * residue_theta_psi(store.curve, idx[0], table=store.psi)
    sign = 1 if g % 2 == 0 else -1
    return Fraction(sign, (2 - 2 * g) * w.den) * total


def free_energy_shortcut(store: CorrStore, g: int) -> Fraction:
    """The index-1 route: bracket[1] times the single surviving residue."""
    if g < 2:
        raise ValueError("needs genus >= 2")
    table = hodge_extract(store.correlator(g, 1))
    rho1 = residue_theta_psi(store.curve, 1, table=store.psi)
    return Fraction(1, 2 * g - 2) * table.value(1) * rho1


class EnergyRow(NamedTuple):
    g: int
    f: int
    direct: Fraction | None
    shortcut: Fraction | None
    reference: Fraction
    sign: int | None           # direct / reference when magnitudes agree
    paths_equal: bool
    magnitude_ok: bool
    error: str | None = None

    @property
    def passed(self) -> bool:
        return (self.error is None and self.paths_equal and self.magnitude_ok
                and self.sign is not None)


def energies_by_genus(rows: list[EnergyRow]) -> dict[int, set]:
    """The distinct direct energies of each genus; framing independence
    holds where a genus has exactly one."""
    by_g: dict[int, set] = {}
    for row in rows:
        by_g.setdefault(row.g, set()).add(row.direct)
    return by_g


def energy_table(stores: list[CorrStore], g_values: list[int]) -> tuple[list[EnergyRow], int | None]:
    """One row per (g, f) in ascending genus, plus the single global sign,
    when coherent.

    The widest genus is computed first: its frame covers every lower target,
    so each store builds one frame.
    """
    rows: list[EnergyRow] = []
    epsilon: int | None = None
    coherent = True
    for g in sorted(g_values, reverse=True):
        for store in stores:
            ref = bernoulli_energy(g)
            try:
                direct = free_energy_direct(store, g)
                shortcut = free_energy_shortcut(store, g)
            except (EorecError, ArithmeticError) as exc:  # reported per row
                rows.append(EnergyRow(g=g, f=store.f, direct=None, shortcut=None,
                                      reference=ref, sign=None, paths_equal=False,
                                      magnitude_ok=False, error=str(exc)))
                coherent = False
                continue
            magnitude_ok = abs(direct) == abs(ref)
            sign = None
            if magnitude_ok and ref:
                sign = 1 if direct == ref else -1
                if epsilon is None:
                    epsilon = sign
                elif epsilon != sign:
                    coherent = False
            rows.append(EnergyRow(g=g, f=store.f, direct=direct, shortcut=shortcut,
                                  reference=ref, sign=sign,
                                  paths_equal=direct == shortcut,
                                  magnitude_ok=magnitude_ok))
    rows.sort(key=lambda row: row.g)
    return rows, (epsilon if coherent else None)
