"""The topological recursion on the framed curve.

Correlators W(g,h) are stored as symmetric coefficient tensors over sorted
basis multi-indices: the coefficient of ``prod_i Psi_{n_i}(y_i)``.

With the framing, the window and the basis fixed, the residue step is
linear in the bracket of the recursion, and the fixed slots of a lower
tensor only come along for the ride.  Every W(g,h) is therefore a sum of
lower tensor entries times small rational tables, memoised per frame:

* ``R[a,b]``: the residue of K(w;z) psihat_a(z) psihat_b(s(z)) s'(z);
* ``E[b]``: the Bergman-leg pair B(q,p) psihat_b(q-bar) + psihat_b(q) B(q-bar,p);
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

The dimension bound also sizes every frame in advance (``window_policy``),
so a ``WindowError`` or ``PeelError`` during assembly is a bug and propagates.

Two orientation conventions are calibrated rather than assumed: the kernel
sign (against the known (0,3) and (1,1) tensors) and the shift-recursion
sign of the basis (inside :mod:`eorec.psi`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .curve import (FramedCurve, bergman_self_pairing, conjugate_series,
                    omega_diff_series, recursion_kernel)
from .errors import CalibrationError, NotRepresentableError
from .psi import PsiTable, peel, psi_table
from .reference import reference_correlators
from .series import Series

QZERO = Fraction(0)
QONE = Fraction(1)


@dataclass(frozen=True)
class Conventions:
    """Calibrated orientation signs (recorded in every serialized output)."""

    sigma_kernel: int
    sigma_psirec: int

    def __post_init__(self):
        if self.sigma_kernel not in (1, -1) or self.sigma_psirec not in (1, -1):
            raise ValueError("convention signs must be +1 or -1")


@dataclass(frozen=True)
class CorrDiff:
    """Correlator tensor: sorted multi-index -> rational coefficient."""

    g: int
    h: int
    f: int
    coeffs: dict

    def coeff(self, idx: tuple[int, ...]) -> Fraction:
        return self.coeffs.get(tuple(sorted(idx)), QZERO)

    def max_total_index(self) -> int:
        return max((sum(k) for k in self.coeffs), default=0)


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


def _by_leg(w: CorrDiff) -> dict[int, list]:
    """w's entries grouped by the index of one leg: v -> [(sorted rest, c)]."""
    out: dict[int, list] = {}
    for key, c in w.coeffs.items():
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


def _principal(a: Series, b: Series, into: dict | None = None) -> dict[int, Fraction]:
    """Coefficients of a*b at exponents <= 0, the only ones a kernel residue reads."""
    out = {} if into is None else into
    sa, sb = a.eff_start(), b.eff_start()
    if sa is None or sb is None:
        return out
    for ea in range(sa, 1 - sb):
        x = a.coeff(ea)
        if not x:
            continue
        for eb in range(sb, 1 - ea):
            y = b.coeff(eb)
            if y:
                out[ea + eb] = out.get(ea + eb, QZERO) + x * y
    return out


class _Frame:
    """Prepared local data for one (curve, window); memoizes slot series and
    the rational residue tables of the recursion."""

    def __init__(self, curve: FramedCurve, psi: PsiTable, window: int, sigma_kernel: int):
        self.curve = curve
        self.psi = psi
        self.window = window
        self.s = conjugate_series(curve, window)
        self.D = omega_diff_series(curve, window, s=self.s)
        self.kernel = recursion_kernel(curve, window, sign=sigma_kernel,
                                       s=self.s, D=self.D)
        self.b_self = bergman_self_pairing(self.s)
        self.s_prime = self.s.derive()
        self._s_pows: list[Series] = [Series.constant(QONE), self.s]
        self._inv_s_pows: list[Series] = [Series.constant(QONE), self.s.invert()]
        self._at_q: dict[int, Series] = {}
        self._at_qbar: dict[int, Series] = {}
        self._kernel_basis: dict[int, dict] = {}
        self._r: dict[tuple[int, int], dict] = {}
        self._e: dict[int, dict] = {}
        self._d: dict | None = None
        self._w03: dict | None = None

    def s_pow(self, k: int) -> Series:
        while len(self._s_pows) <= k:
            self._s_pows.append(self._s_pows[-1] * self.s)
        return self._s_pows[k]

    def inv_s_pow(self, k: int) -> Series:
        while len(self._inv_s_pows) <= k:
            self._inv_s_pows.append(self._inv_s_pows[-1] * self._inv_s_pows[1])
        return self._inv_s_pows[k]

    def psihat_at_q(self, n: int) -> Series:
        """-psihat_n(z), the scalar of Psi_n with its leg at q."""
        out = self._at_q.get(n)
        if out is None:
            d = {e: -c for e, c in self.psi.shifted(n).items()}
            out = self._at_q[n] = Series.from_dict(d, exact=True)
        return out

    def psihat_at_qbar(self, n: int) -> Series:
        """-psihat_n(s(z)) s'(z), the scalar of Psi_n with its leg at q-bar."""
        out = self._at_qbar.get(n)
        if out is None:
            acc = Series(0, [], exact=True)
            for e, c in self.psi.shifted(n).items():
                acc = acc + self.inv_s_pow(-e).scale(-c)
            out = self._at_qbar[n] = acc * self.s_prime
        return out

    # -- residue tables ---------------------------------------------------

    def kernel_basis(self, j: int) -> dict[int, Fraction]:
        """K_j(w), the z^j coefficient of the kernel, expanded in the basis."""
        out = self._kernel_basis.get(j)
        if out is None:
            coeff = self.kernel.coeff(j)  # WindowError past the certified window
            out = self._kernel_basis[j] = peel(
                {key[0]: c for key, c in coeff.terms.items()}, self.psi)
        return out

    def residue(self, principal: dict[int, Fraction]) -> dict[int, Fraction]:
        """Res_z K(w;z) F(z) in the basis of w, from F's z^e coefficients, e <= 0."""
        out: dict[int, Fraction] = {}
        for e, c in principal.items():
            if c:
                for n, k in self.kernel_basis(-1 - e).items():
                    out[n] = out.get(n, QZERO) + c * k
        return {n: c for n, c in out.items() if c}

    def r_table(self, a: int, b: int) -> dict[int, Fraction]:
        """R[a,b]: the q-leg of index a against the q-bar leg of index b."""
        out = self._r.get((a, b))
        if out is None:
            out = self._r[(a, b)] = self.residue(
                _principal(self.psihat_at_q(a), self.psihat_at_qbar(b)))
        return out

    def e_table(self, b: int) -> dict[tuple[int, int], Fraction]:
        """E[b]: B(q,p) with the q-bar leg of index b, plus the q-leg of index b
        with B(q-bar,p); keyed (free index, index at p).

        B(q,p) = sum_k u^-(k+2) d/dz z^(k+1) and B(q-bar,p) the same with s(z)
        for z, u the coordinate of p; only k <= 2b+2 reaches the residue.
        """
        out = self._e.get(b)
        if out is None:
            at_q, at_qbar = self.psihat_at_q(b), self.psihat_at_qbar(b)
            by_free: dict[int, dict] = {}
            for k in range(2 * b + 3):
                low = _principal(Series.monomial(Fraction(k + 1), k), at_qbar)
                _principal(self.s_pow(k + 1).derive(), at_q, into=low)
                for n, c in self.residue(low).items():
                    by_free.setdefault(n, {})[-(k + 2)] = c
            out = self._e[b] = {(n, m): c for n, poly in by_free.items()
                                for m, c in peel(poly, self.psi).items()}
        return out

    def d_table(self) -> dict[int, Fraction]:
        """D: the residue of the Bergman self-pairing B(q, q-bar)."""
        if self._d is None:
            self._d = self.residue(_principal(self.b_self, Series.constant(QONE)))
        return self._d

    def w03_table(self) -> dict[tuple[int, int, int], Fraction]:
        """B(q,p1) B(q-bar,p2): both legs start at z^0, so only the product
        u1^-2 s'(0) u2^-2 of their leading terms reaches the residue."""
        if self._w03 is None:
            leg = peel({-2: QONE}, self.psi)
            free = self.residue({0: self.s_prime.coeff(0)})
            self._w03 = {(n, m1, m2): c * x * y for n, c in free.items()
                         for m1, x in leg.items() for m2, y in leg.items()}
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
        if g < 0 or h < 1:
            raise NotRepresentableError(f"invalid correlator indices (g={g}, h={h})")
        if (g, h) in ((0, 1), (0, 2)):
            raise NotRepresentableError(
                f"W({g},{h}) is a recursion base case with no tensor form")
        if 2 * g - 2 + h < 1:
            raise NotRepresentableError(f"unstable correlator (g={g}, h={h})")
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
        becomes a multiset split of the tail, weighted by ``_merge``.  A
        fixed slot carried over from a lower tensor holds -psihat, so a term
        carrying k of them takes (-1)^k; the free slot takes (-1)^h.
        """
        frame = self.frame(window)
        acc: dict[tuple[int, ...], Fraction] = defaultdict(int)

        # first term: W(g-1, h+1) with two of its legs at q and q-bar
        if g == 1 and h == 1:
            for n, c in frame.d_table().items():
                acc[(n,)] = c
        elif g >= 1:
            carried = -QONE if (h - 1) % 2 else QONE
            for key, c in self.correlator(g - 1, h + 1).coeffs.items():
                for a, rest in _legs(key):
                    for b, tail in _legs(rest):
                        for n, r in frame.r_table(a, b).items():
                            acc[(n,) + tail] += carried * c * r

        # quadratic terms W(g-l, r+1) W(l, h-r): r fixed slots go left
        for l in range(g + 1):
            for r in range(h):
                left, right = (g - l, r + 1), (l, h - r)
                # terms with a vanishing one-point factor drop before
                # the partner (possibly the target itself) is evaluated
                if left == (0, 1) or right == (0, 1):
                    continue
                if left == right == (0, 2):
                    for (n, m1, m2), c in frame.w03_table().items():
                        tail, weight = _merge((m1,), (m2,))
                        acc[(n,) + tail] += weight * c
                elif left == (0, 2):
                    # E[b] holds both orientations of the Bergman leg;
                    # the mirror term right == (0, 2) is skipped below
                    self._bergman_leg_term(frame, acc, g, h)
                elif right != (0, 2):
                    self._pair_term(frame, acc, h, left, right)
        coeffs: dict = {}
        seen: dict = {}
        sign = QONE if h % 2 == 0 else -QONE
        for idx, c in acc.items():
            if not c:
                continue
            c = sign * c
            key = tuple(sorted(idx))
            if key in coeffs:
                if coeffs[key] != c:
                    raise AssertionError(
                        f"free slot breaks the symmetry at {idx} in W({g},{h})")
                seen[key] += 1
            else:
                coeffs[key] = c
                seen[key] = 1
        bound = 3 * g - 3 + h
        for key, count in seen.items():
            if count != len(set(key)):
                raise AssertionError(f"missing free indices of {key} in W({g},{h})")
            if sum(key) > bound:
                raise AssertionError(
                    f"index {key} violates the dimension bound {bound} in W({g},{h})")
        return CorrDiff(g=g, h=h, f=self.f, coeffs=coeffs)

    def _bergman_leg_term(self, frame: _Frame, acc: dict, g: int, h: int) -> None:
        """B(q, p_j) against W(g, h-1) at q-bar and its mirror, via E[b]."""
        carried = -QONE if (h - 2) % 2 else QONE
        for b, tails in _by_leg(self.correlator(g, h - 1)).items():
            for (n, m), e in frame.e_table(b).items():
                for rest, c in tails:
                    tail, weight = _merge((m,), rest)
                    acc[(n,) + tail] += carried * weight * c * e

    def _pair_term(self, frame: _Frame, acc: dict, h: int,
                   left: tuple[int, int], right: tuple[int, int]) -> None:
        """Two lower tensors with their legs at q and q-bar, via R[a,b]."""
        carried = -QONE if (h - 1) % 2 else QONE
        at_q = _by_leg(self.correlator(*left))
        at_qbar = _by_leg(self.correlator(*right))
        for a, tails_q in at_q.items():
            for b, tails_qbar in at_qbar.items():
                table = frame.r_table(a, b)
                for tq, cq in tails_q:
                    for tqb, cqb in tails_qbar:
                        tail, weight = _merge(tq, tqb)
                        c = carried * weight * cq * cqb
                        for n, r in table.items():
                            acc[(n,) + tail] += c * r


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
