"""The topological recursion on the framed curve.

Correlators W(g,h) are stored as symmetric coefficient tensors over sorted
basis multi-indices: the coefficient of ``prod_i Psi_{n_i}(y_i)``.

With the framing, the window and the basis fixed, the residue step is
linear in the bracket of the recursion, and the fixed slots of a lower
tensor only come along for the ride.  Every W(g,h) is therefore a sum of
lower tensor entries times small rational tables, memoised per frame:

* ``R[a,b]``: the residue of K(w;z) psihat_a(z) psihat_b(s(z)) s'(z);
* ``E[b]``: the Bergman leg B(q,p) against psihat_b(q-bar);
* ``D``: the Bergman self-pairing B(q, q-bar), which gives W(1,1);
* ``W03``: two Bergman legs, which give W(0,3).

Each residue reads only the z^e coefficients with e <= 0 of its integrand
against the kernel coefficients K_{-1-e}(w), and every kernel coefficient
is expanded in the basis once per frame.  These expansions, and the one of
every Bergman leg, must terminate with zero remainder, which turns the
closure theorem for this basis into a runtime assertion.  Lower tensors
stay sorted keys and the contraction accumulates on (free index | sorted
tail), so the fixed slots are symmetric by construction; the assembled
tensor is checked for free-slot symmetry (every distinct free index of a
key gives the same value) and the dimension bound.

The residue is invariant under the local involution z -> s(z), which swaps
q and q-bar (R[a,b] = R[b,a], and E[b] equals its mirror psihat_b(q)
B(q-bar,p)), so each quadratic split is summed once, with its two factors
in sorted order, and an off-diagonal split counts twice.

Every term with basis legs at both q and q-bar (the first term
W(g-1,h+1) and each split into two lower tensors) is summed first into the
bracket, keyed (a, b, sorted tail) with a <= b since R[a,b] = R[b,a].  The
residue is then taken once per bracket entry: R[a,b] is read in one loop,
however many terms share the entry.  A Bergman leg is not in the basis at
q, so the D, W03 and E[b] terms go straight into the result.

Tables and contraction run over the integers.  The basis forms and the
involution s are integer series over their denominators, so psihat_a at q
and psihat_b(s) s' at q-bar are integer series too; each kernel column K_j,
the one rational ingredient of a table, is converted to one such series
once per frame.  A product of two legs is then one integer product cut
after z^0 (``Series.mul``) and a residue an integer dot product; each
table, keyed by basis indices, is kept as numerators over its least common
denominator.  The contraction reads each lower tensor the same way and sums
Python ints over one running common denominator, and each entry of W(g,h)
is formed as one ``Fraction``.

The tables hold psihat itself at every basis leg, while Psi_n = -psihat_n
dy.  The orientation signs of a term (one per fixed slot carried over from
a lower tensor, one per basis leg at q or q-bar, and (-1)^h for the free
slot) multiply to -1 whatever h is, for R, E, D and W03 terms alike, so the
contraction adds the terms as they are and negates the sum once per target.

The dimension bound also sizes every frame in advance (``window_policy``),
so a ``WindowError`` or ``PeelError`` during assembly is a bug and propagates.

Two orientation conventions are calibrated rather than assumed: the kernel
sign (against the known (0,3) and (1,1) tensors) and the shift-recursion
sign of the basis (inside :mod:`eorec.psi`).
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import comb, gcd, lcm
from typing import NamedTuple

from .curve import (FramedCurve, bergman_self_pairing, conjugate_series,
                    omega_diff_series, recursion_kernel)
from .errors import CalibrationError, NotRepresentableError
from .psi import PsiTable, peel, psi_table
from .reference import reference_correlators
from .series import Series, integer_dict, integer_powers, lowest_terms, substitute

QZERO = Fraction(0)


class Conventions(NamedTuple("Conventions", [("sigma_kernel", int), ("sigma_psirec", int)])):
    """Calibrated orientation signs (recorded in every serialized output)."""

    __slots__ = ()

    def __new__(cls, sigma_kernel: int, sigma_psirec: int):
        if not all(type(sign) is int and sign in (1, -1)
                   for sign in (sigma_kernel, sigma_psirec)):
            raise ValueError("convention signs must be +1 or -1")
        return super().__new__(cls, sigma_kernel, sigma_psirec)


class CorrDiff(NamedTuple):
    """Correlator tensor: sorted multi-index -> rational coefficient."""

    g: int
    h: int
    f: int
    coeffs: dict

    def coeff(self, idx: tuple[int, ...]) -> Fraction:
        return self.coeffs.get(tuple(sorted(idx)), QZERO)


# the desk-scale genus cap: the largest genus the command line serves
HARD_G_CAP = 6


def unrepresentable(g: int, h: int) -> str | None:
    """Why W(g,h) has no tensor form (invalid indices, a base case of the
    recursion or an unstable pair), or None when it has one."""
    if g < 0 or h < 1:
        return f"invalid correlator indices (g={g}, h={h})"
    if (g, h) in ((0, 1), (0, 2)):
        return f"W({g},{h}) is a recursion base case with no tensor form"
    if 2 * g - 2 + h < 1:
        return f"unstable correlator (g={g}, h={h})"
    return None


def window_policy(g: int, h: int) -> int:
    """The smallest frame window for W(g,h), from the dimension bound.

    Lower tensors carry an index sum <= 3g-5+h on their legs at q and q-bar
    and Psi_n has a pole of order 2n+2, so ``R[a,b]`` and ``E[b]`` read K_j(w)
    only up to j = 2(3g-3+h)-1.  A window W certifies K_j for j <= W-2, and
    the one-form difference needs W >= 4.
    """
    return max(4, 2 * (3 * g - 3 + h) + 1)


def _legs(key: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """(v, key with one v removed) for each distinct value v of a sorted key."""
    return [(v, key[:i] + key[i + 1:]) for i, v in enumerate(key)
            if i == 0 or key[i - 1] != v]


def _by_leg(coeffs: dict) -> dict[int, list]:
    """Tensor entries grouped by the index of one leg: v -> [(sorted rest, c)]."""
    out: dict[int, list] = {}
    for key, c in coeffs.items():
        for v, rest in _legs(key):
            out.setdefault(v, []).append((rest, c))
    return out


def _merge(t1: tuple[int, ...], t2: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The sorted tail T = t1 + t2 and the number of ways to place t1 at the
    fixed slots of T: prod_v C(count_T(v), count_t1(v))."""
    tail = tuple(sorted(t1 + t2))
    weight = 1
    for v in set(t1):
        weight *= comb(tail.count(v), t1.count(v))
    return tail, weight


class _Sum:
    """Integer numerators over one running common denominator."""

    __slots__ = ("den", "num")

    def __init__(self):
        self.den = 1
        self.num: dict = defaultdict(int)

    def factor(self, den: int) -> int:
        """The multiplier that puts a term over ``den`` on the running
        denominator, after widening it to a multiple of ``den`` (which
        rescales every numerator held so far)."""
        if self.den % den:
            grow = den // gcd(self.den, den)
            for key in self.num:
                self.num[key] *= grow
            self.den *= grow
        return self.den // den


class _Frame:
    """Prepared local data for one (curve, window); memoizes slot series and
    the residue tables of the recursion.

    Every series that enters a table is an integer series over its
    denominator, each kernel column is converted to one once per frame, and
    every table is held as integer numerators over one denominator, a pair
    (d, numerators) keyed by basis indices.
    """

    def __init__(self, curve: FramedCurve, psi: PsiTable, window: int, sigma_kernel: int):
        self.psi = psi
        self.s = s = conjugate_series(curve, window)
        self.kernel = recursion_kernel(omega_diff_series(curve, s), s, sigma_kernel)
        self.b_self = bergman_self_pairing(s)
        self._s_prime = s.derive()
        # powers of 1/s for the substitution psihat_b(s): every basis
        # exponent is -2 or below
        self._inv_s_pows = integer_powers(s.invert())
        self._at_qbar: dict[int, Series] = {}
        self._kernel_basis: dict[int, tuple[int, dict]] = {}
        self._r: dict[tuple[int, int], tuple[int, dict]] = {}
        self._e: dict[int, tuple[int, dict]] = {}
        self._d: tuple[int, dict] | None = None
        self._w03: tuple[int, dict] | None = None

    def psihat_at_qbar(self, n: int) -> Series:
        """psihat_n(s(z)) s'(z), the basis scalar with its leg at q-bar."""
        out = self._at_qbar.get(n)
        if out is None:
            out = self._at_qbar[n] = substitute(
                self.psi.shifted(n), None, self._inv_s_pows) * self._s_prime
        return out

    # -- residue tables ---------------------------------------------------

    def kernel_basis(self, j: int) -> tuple[int, dict[int, int]]:
        """K_j(w), the z^j coefficient of the kernel, expanded in the basis
        over one denominator."""
        out = self._kernel_basis.get(j)
        if out is None:
            coeff = self.kernel.coeff(j)  # WindowError past the certified window
            den, nums = integer_dict({key[0]: c for key, c in coeff.terms.items()})
            out = self._kernel_basis[j] = peel(Series.from_dict(nums, den=den), self.psi)
        return out

    def residue(self, F: Series) -> tuple[int, dict[int, int]]:
        """Res_z K(w;z) F(z) in the basis of w, from the numerators of F's
        z^e coefficients, e <= 0: a dot product with the kernel columns.
        The result is not in lowest terms."""
        F.coeff(0)  # raises WindowError unless F is known through z^0
        cols = [(c, self.kernel_basis(-1 - e))
                for e, c in enumerate(F.coeffs[:max(0, 1 - F.start)], F.start) if c]
        kden = lcm(*(d for _, (d, _) in cols))
        out: dict[int, int] = defaultdict(int)
        for c, (d, col) in cols:
            c *= kden // d
            for n, k in col.items():
                out[n] += c * k
        return F.den * kden, out

    def r_table(self, a: int, b: int) -> tuple[int, dict[int, int]]:
        """R[a,b]: the q-leg of index a against the q-bar leg of index b.

        R[a,b] = R[b,a] by the involution, so each unordered pair is built
        once, with a <= b."""
        if a > b:
            a, b = b, a
        out = self._r.get((a, b))
        if out is None:
            out = self._r[(a, b)] = lowest_terms(*self.residue(
                self.psi.shifted(a).mul(self.psihat_at_qbar(b), 0)))
        return out

    def e_table(self, b: int) -> tuple[int, dict[tuple[int, int], int]]:
        """E[b]: B(q,p) with the q-bar leg of index b, keyed (free index,
        index at p).

        B(q,p) = sum_k u^-(k+2) d/dz z^(k+1) = sum_k (k+1) u^-(k+2) z^k, u the
        coordinate of p; only k <= 2b+2 reaches the residue.
        """
        out = self._e.get(b)
        if out is None:
            at_qbar = self.psihat_at_qbar(b)
            legs = [self.residue(at_qbar.shift(k)) for k in range(2 * b + 3)]
            lden = lcm(*(d for d, _ in legs))
            by_free: dict[int, dict] = {}
            for k, (d, res) in enumerate(legs):
                for n, c in res.items():
                    by_free.setdefault(n, {})[-(k + 2)] = (k + 1) * c * (lden // d)
            peeled = {n: peel(Series.from_dict(poly, den=lden), self.psi)
                      for n, poly in by_free.items()}
            eden = lcm(*(d for d, _ in peeled.values()))
            out = self._e[b] = lowest_terms(eden, {
                (n, m): c * (eden // d) for n, (d, poly) in peeled.items()
                for m, c in poly.items()})
        return out

    def d_table(self) -> tuple[int, dict[int, int]]:
        """D: the residue of the Bergman self-pairing B(q, q-bar)."""
        if self._d is None:
            # a coefficient past its window raises WindowError
            self._d = lowest_terms(*self.residue(self.b_self))
        return self._d

    def w03_table(self) -> tuple[int, dict[tuple[int, int, int], int]]:
        """B(q,p1) B(q-bar,p2): both legs start at z^0, so only the product
        u1^-2 s'(0) u2^-2 of their leading terms reaches the residue."""
        if self._w03 is None:
            dl, leg = peel(Series.monomial(1, -2), self.psi)
            df, free = self.residue(self._s_prime)
            self._w03 = lowest_terms(df * dl * dl, {
                (n, m1, m2): c * x * y for n, c in free.items()
                for m1, x in leg.items() for m2, y in leg.items()})
        return self._w03


class CorrStore:
    """Append-only memo of correlator tensors under fixed conventions."""

    def __init__(self, f: int, conventions: Conventions | None = None, cache=None):
        self.curve = FramedCurve(f)
        self.f = f
        self.cache = cache
        if conventions is None:
            conventions = calibrate(f)
        self.conventions = conventions
        # the shared table of this framing, unless an audit flips its sign
        shared = psi_table(f)
        self.psi = (shared if conventions.sigma_psirec == shared.sign
                    else PsiTable(f, forced_sign=conventions.sigma_psirec))
        self.table: dict[tuple[int, int], CorrDiff] = {}
        self._frames: dict[int, _Frame] = {}

    def frame(self, window: int) -> _Frame:
        fr = self._frames.get(window)
        if fr is None:
            fr = self._frames[window] = _Frame(
                self.curve, self.psi, window, self.conventions.sigma_kernel)
        return fr

    def correlator(self, g: int, h: int) -> CorrDiff:
        why = unrepresentable(g, h)
        if why:
            raise NotRepresentableError(why)
        got = self.table.get((g, h))
        if got is None:
            if self.cache is not None:
                got = self.cache.load(self.f, g, h, self.conventions)
            if got is None:
                got = self.compute(g, h)
                if self.cache is not None:
                    self.cache.store(got, self.conventions)
            self.table[(g, h)] = got
        return got

    def compute(self, g: int, h: int, window: int | None = None) -> CorrDiff:
        """Run the residue step for one target on one frame.

        Without an explicit window the smallest frame already built that
        covers ``window_policy(g, h)`` is reused: certified coefficients
        are exact, so a wider frame gives the same tensor.  An explicit
        window always runs on its own frame.
        """
        if window is None:
            need = window_policy(g, h)
            window = min((w for w in self._frames if w >= need), default=need)
        return self._compute_at(g, h, window)

    # -- assembly -------------------------------------------------------

    def _compute_at(self, g: int, h: int, window: int) -> CorrDiff:
        """Contract lower tensors with the frame's residue tables.

        Lower tensors stay sorted keys and the sum accumulates on (free
        index n | sorted tail): a choice of fixed slots for a lower tensor
        becomes a multiset split of the tail, weighted by ``_merge``.  The
        first term and the pair splits are gathered into the bracket on
        (a <= b, sorted tail), and one loop over its entries applies R[a,b]
        to each; the D, W03 and Bergman-leg terms are added directly.  The
        sum is negated once (see the module docstring for the signs).
        Lower tensors and tables enter as integer numerators, the sum runs
        over Python ints on one running denominator, and each entry of the
        result is formed as one ``Fraction``.
        """
        frame = self.frame(window)
        acc = _Sum()
        num = acc.num
        bracket = _Sum()

        # first term: W(g-1, h+1) with two of its legs at q and q-bar
        if g == 1 and h == 1:
            acc.den, table = frame.d_table()
            num.update(((n,), c) for n, c in table.items())
        elif g >= 1:
            bracket.den, coeffs = integer_dict(self.correlator(g - 1, h + 1).coeffs)
            for key, c in coeffs.items():
                for a, rest in _legs(key):
                    for b, tail in _legs(rest):
                        bracket.num[(min(a, b), max(a, b), tail)] += c

        # quadratic terms W(g-l, r+1) W(l, h-r): r fixed slots go left.  The
        # mirror (l, r) -> (g-l, h-1-r) swaps the two factors and gives an
        # equal term, so only left <= right is visited and an off-diagonal
        # split counts twice.  (0, 1) and then (0, 2) sort first: a vanishing
        # one-point factor drops before its partner (possibly the target
        # itself) is evaluated, and a Bergman leg always sits at q.
        for l in range(g + 1):
            for r in range(h):
                left, right = (g - l, r + 1), (l, h - r)
                if left > right or left == (0, 1):
                    continue
                if right == (0, 2):
                    den, table = frame.w03_table()
                    scale = acc.factor(den)
                    for (n, m1, m2), c in table.items():
                        tail, weight = _merge((m1,), (m2,))
                        num[(n,) + tail] += weight * scale * c
                elif left == (0, 2):
                    self._bergman_leg_term(frame, acc, right, 2)
                else:
                    self._pair_term(bracket, left, right, 1 if left == right else 2)

        # the one residue step: R[a,b] against each bracket entry
        for (a, b, tail), c in bracket.num.items():
            tden, table = frame.r_table(a, b)
            c *= acc.factor(bracket.den * tden)
            for n, r in table.items():
                num[(n,) + tail] += c * r

        canonical: dict = {}
        seen: dict = {}
        for idx, c in num.items():
            if not c:
                continue
            key = tuple(sorted(idx))
            if key in canonical:
                if canonical[key] != c:
                    raise AssertionError(
                        f"free slot breaks the symmetry at {idx} in W({g},{h})")
                seen[key] += 1
            else:
                canonical[key] = c
                seen[key] = 1
        bound = 3 * g - 3 + h
        for key, count in seen.items():
            if count != len(set(key)):
                raise AssertionError(f"missing free indices of {key} in W({g},{h})")
            if sum(key) > bound:
                raise AssertionError(
                    f"index {key} violates the dimension bound {bound} in W({g},{h})")
        return CorrDiff(g=g, h=h, f=self.f,
                        coeffs={key: Fraction(c, -acc.den) for key, c in canonical.items()})

    def _bergman_leg_term(self, frame: _Frame, acc: _Sum,
                          right: tuple[int, int], mult: int) -> None:
        """mult times B(q, p_j) against W(right) at q-bar, via E[b]."""
        num = acc.num
        den, coeffs = integer_dict(self.correlator(*right).coeffs)
        memo: dict = {}  # (m, rest) -> _merge((m,), rest), shared by every leg index b
        for b, tails in _by_leg(coeffs).items():
            eden, table = frame.e_table(b)
            scale = mult * acc.factor(den * eden)
            merged: dict[int, list] = {}  # m -> [(tail, weight * c)], once per m
            for (n, m), e in table.items():
                terms = merged.get(m)
                if terms is None:
                    terms = merged[m] = []
                    for rest, c in tails:
                        got = memo.get((m, rest))
                        if got is None:
                            got = memo[(m, rest)] = _merge((m,), rest)
                        tail, weight = got
                        terms.append((tail, weight * c))
                e *= scale
                for tail, c in terms:
                    num[(n,) + tail] += c * e

    def _pair_term(self, bracket: _Sum, left: tuple[int, int],
                   right: tuple[int, int], mult: int) -> None:
        """Add mult times two lower tensors, with their legs at q and q-bar,
        to the bracket."""
        num = bracket.num
        dq, coeffs_q = integer_dict(self.correlator(*left).coeffs)
        dqb, coeffs_qbar = integer_dict(self.correlator(*right).coeffs)
        scale = mult * bracket.factor(dq * dqb)
        at_qbar = _by_leg(coeffs_qbar)
        merged: dict = {}  # (tq, tqb) -> _merge(tq, tqb), once per tail pair
        for a, tails_q in _by_leg(coeffs_q).items():
            for b, tails_qbar in at_qbar.items():
                pair = (min(a, b), max(a, b))
                for tq, cq in tails_q:
                    cq *= scale
                    for tqb, cqb in tails_qbar:
                        got = merged.get((tq, tqb))
                        if got is None:
                            got = merged[(tq, tqb)] = _merge(tq, tqb)
                        tail, weight = got
                        num[pair + (tail,)] += weight * cq * cqb


def calibrate(f: int) -> Conventions:
    """Conventions of framing f: the basis sign its shared table calibrated
    and the kernel sign probed on that same table."""
    return Conventions(sigma_kernel=calibrate_sigma_kernel(f),
                       sigma_psirec=psi_table(f).sign)


def calibrate_sigma_kernel(f: int) -> int:
    """Fix the kernel orientation against the (0,3) and (1,1) tensors.

    Both targets sit one recursion step above the base data, so they flip
    together under the kernel sign; a mixed outcome means a real bug.
    """
    probe = CorrStore(f, Conventions(sigma_kernel=1, sigma_psirec=psi_table(f).sign))
    ref = reference_correlators(f)
    outcomes = []
    for key in ((1, 1), (0, 3)):
        got = probe.correlator(*key).coeffs
        want = ref[key]
        if got == want:
            outcomes.append(1)
        elif got == {k: -v for k, v in want.items()}:
            outcomes.append(-1)
        else:
            raise CalibrationError(f"W{key} matches the reference under neither sign")
    if outcomes[0] != outcomes[1]:
        raise CalibrationError("kernel-sign probes disagree between (0,3) and (1,1)")
    return outcomes[0]
