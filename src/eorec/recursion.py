"""The topological recursion on the framed curve.

Correlators W(g,h) are stored as symmetric coefficient tensors over sorted
basis multi-indices: the coefficient of ``prod_i Psi_{n_i}(y_i)``.

With the framing, the window and the basis fixed, the residue step is
linear in the bracket of the recursion, and the fixed slots of a lower
tensor only come along for the ride.  Every W(g,h) is therefore a sum of
lower tensor entries times small rational tables of a frame:

* ``R[a,b]``: the residue of K(w;z) psihat_a(z) psihat_b(s(z)) s'(z);
* ``E[b]``: the Bergman leg B(q,p) against psihat_b(q-bar);
* ``D``: the Bergman self-pairing B(q, q-bar), which gives W(1,1);
* ``W03``: two Bergman legs, which give W(0,3).

R and E are memoised per frame; D and W03 are each read by one target, once
per frame, and are built when read.  Each residue reads only the z^e
coefficients with e <= 0 of its integrand against the kernel coefficients
K_{-1-e}(w), and every kernel coefficient is expanded in the basis when the
frame is built.  These expansions, and the one of every Bergman leg, must
terminate with zero remainder, which turns the closure theorem for this
basis into a runtime assertion.  Lower tensors stay sorted keys and the
contraction accumulates on (free index | sorted tail), so the fixed slots
are symmetric by construction; every contracted entry is checked for
free-slot symmetry (every distinct free index of a key gives the same
value) and the dimension bound.

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
and psihat_b(s) s' at q-bar are integer series too.  The kernel columns
K_j, the one rational ingredient of a table, are peeled into the basis
when the frame is built, and kept as (index, numerator) pairs over one
frame denominator.  A product of two legs is then one integer
product cut after z^0 (``Series.mul``), and a residue Res K z^k F a plain
integer dot product of F's numerators with the columns, with no lcm and no
rescaling per call; E[b] reads its Bergman-leg terms as residues of one
q-bar leg against z^k.  Each table, keyed by basis indices, is kept as
numerators over its least common denominator.  Every stored tensor is
held the same way (``CorrDiff``), so the contraction reads lower tensors
as they are and sums Python ints over one running common denominator,
which the fill shares and which every R row a target reads joins at once;
only the rational view ``CorrDiff.coeffs`` forms a ``Fraction``.

The tables hold psihat itself at every basis leg, while Psi_n = -psihat_n
dy.  The orientation signs of a term (one per fixed slot carried over from
a lower tensor, one per basis leg at q or q-bar, and (-1)^h for the free
slot) multiply to -1 whatever h is, for R, E, D and W03 terms alike.  A
frame holds the curve's local data alone, with the kernel unsigned, and R,
E, D and W03 are each linear in K, so the calibrated kernel sign
sigma_kernel joins them: the contraction adds the terms as they are and
multiplies the sum once per target by -sigma_kernel.  The fill reads
tensors that already carry the sign, so it takes none.

The dimension bound also sizes every frame in advance (``window_policy``),
so a ``WindowError`` or ``PeelError`` during assembly is a bug and propagates.

For h >= 2, except W(0,3), a default store contracts only the core of
W(g,h): the entries whose indices are all >= 2.  The Hodge classes pull
back along the map that forgets a point, so string gives each entry that
holds a 0, and dilaton each other entry that holds a 1, from W(g,h-1),
already the partner of the Bergman-leg term (``_fill``).  The contraction
skips every bracket entry and grouped tail that holds a 0 or a 1, the R
rows with n < 2 and the E[b] entries with n < 2 or m < 2; the W03 term,
whose p-legs carry only index 0, belongs to W(0,3) alone.  The indices sum to at
most 3g-3+h, so the core is empty when h > 3g-3 (all of genus 0 and 1):
such a tensor is the fill alone and builds no frame.  Every target, empty
core or not, first lists the lower tensors it reads (``_compute_at``), so
a default store, and a cache, holds the same tensors as an audit store by
construction.  On a default store the free-slot, missing-index and
dimension checks cover only the core.

An audit store contracts every entry and fills nothing.  The command line
gives audit stores to ``verify`` and to every run with a sign override: a
wrong sign breaks string and dilaton, so a filled tensor would carry the
error into the cores above it (where it fails the free-slot check) instead
of showing it.  A warm cache written by default stores is read by
``verify`` without re-auditing.

Two orientation conventions are calibrated rather than assumed: the kernel
sign (against the known (0,3) and (1,1) tensors), applied in
``CorrStore._compute_at``, and the shift-recursion sign of the basis
(inside :mod:`eorec.psi`).
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


class Conventions(NamedTuple("Conventions", [("sigma_kernel", int), ("sigma_psirec", int)])):
    """Calibrated orientation signs (recorded in every serialized output)."""

    __slots__ = ()

    def __new__(cls, sigma_kernel: int, sigma_psirec: int):
        if not all(type(sign) is int and sign in (1, -1)
                   for sign in (sigma_kernel, sigma_psirec)):
            raise ValueError("convention signs must be +1 or -1")
        return super().__new__(cls, sigma_kernel, sigma_psirec)


class CorrDiff(NamedTuple):
    """Correlator tensor: sorted multi-index -> nonzero integer numerator over
    ``den``, in lowest terms; ``coeffs`` is its ``Fraction`` view."""

    g: int
    h: int
    f: int
    den: int
    nums: dict

    @property
    def coeffs(self) -> dict:
        return {key: Fraction(c, self.den) for key, c in self.nums.items()}

    def coeff(self, idx: tuple[int, ...]) -> Fraction:
        return Fraction(self.nums.get(tuple(sorted(idx)), 0), self.den)


# the desk-scale caps of the command line: the largest genus it serves, and
# the largest 2g-2+h (recursion steps above the base data) of a correlator
HARD_G_CAP = 15
HARD_DEPTH_CAP = 24


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


def _by_tail(nums: dict, lo: int) -> dict[tuple[int, ...], list]:
    """Tensor entries grouped by what is left after one leg: sorted rest ->
    [(v, c)], keeping only the rests whose indices are all >= lo."""
    out: dict[tuple[int, ...], list] = {}
    for key, c in nums.items():
        for v, rest in _legs(key):
            if not rest or rest[0] >= lo:
                out.setdefault(rest, []).append((v, c))
    return out


def _merge(t1: tuple[int, ...], t2: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The sorted tail T = t1 + t2 and the number of ways to place t1 at the
    fixed slots of T: prod_v C(count_T(v), count_t1(v))."""
    tail = tuple(sorted(t1 + t2))
    weight = 1
    for v in set(t1):
        weight *= comb(tail.count(v), t1.count(v))
    return tail, weight


def _splits(g: int, h: int):
    """The quadratic terms W(g-l, r+1) W(l, h-r) of W(g,h), r fixed slots
    going left, as (left, right, weight) triples.

    The mirror (l, r) -> (g-l, h-1-r) swaps the two factors and gives an
    equal term, so only left <= right is yielded, with weight 1 on the
    diagonal and 2 off it.  (0, 1) and then (0, 2) sort first: a vanishing
    one-point factor drops before its partner (possibly the target itself)
    is evaluated, and a Bergman leg always sits at q."""
    for l in range(g + 1):
        for r in range(h):
            left, right = (g - l, r + 1), (l, h - r)
            if left <= right and left != (0, 1):
                yield left, right, 1 if left == right else 2


class _Sum:
    """Integer numerators over one running common denominator."""

    __slots__ = ("den", "num")

    def __init__(self, den: int = 1):
        self.den = den
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


def _fill(g: int, h: int, f: int, lower: CorrDiff, out: _Sum) -> None:
    """Add to ``out`` the entries of W(g,h) that hold an index 0 or 1, from
    the tensor of W(g,h-1), by the string and dilaton relations:

        W(g,h)[(0,)+m] = -f(f+1) sum_j W(g,h-1)[m - e_j]   (m_j >= 1),
        W(g,h)[(1,)+m] = -f(f+1) (2g-3+h) W(g,h-1)[m]      (m free of 0).

    String raises one index v of a lower key to v+1; the raised key arises
    from as many positions j as it holds copies of v+1, which is the weight
    of ``_merge``.
    """
    scale = -f * (f + 1) * out.factor(lower.den)
    for key, c in lower.nums.items():
        c *= scale
        for v, rest in _legs(key):
            tail, weight = _merge((v + 1,), rest)
            out.num[(0,) + tail] += weight * c
        if key[0]:
            out.num[(1,) + key] += (2 * g - 3 + h) * c


class _Frame:
    """The curve's local data for one (curve, basis table, window), with no
    orientation sign: the involution, the unsigned kernel peeled into the
    basis, and memos of the slot series and of the R[a,b] and E[b] tables.

    Every series that enters a table is an integer series over its
    denominator, the kernel columns are held over one frame denominator,
    and every table is held as integer numerators over one denominator, a
    pair (d, numerators) keyed by basis indices.
    """

    def __init__(self, curve: FramedCurve, psi: PsiTable, window: int):
        self.psi = psi
        self.s = s = conjugate_series(curve, window)
        self.kernel = kernel = recursion_kernel(omega_diff_series(curve, s), s)
        self._s_prime = s.derive()
        # powers of 1/s for the substitution psihat_b(s): every basis
        # exponent is -2 or below
        self._inv_s_pows = integer_powers(s.invert())
        self._at_qbar: dict[int, Series] = {}
        # every certified column K_j, j = -1 up to the window end, peeled into
        # (n, numerator) pairs over the lcm of the columns, at index j + 1
        peeled = []
        for j in range(-1, kernel.window_end + 1):
            den, nums = integer_dict(kernel.coeff(j).terms)
            peeled.append(peel(Series.from_dict(nums, den=den), psi))
        self._kden = kden = lcm(*(d for d, _ in peeled))
        self._columns = [[(n, c * (kden // d)) for n, c in col.items()]
                         for d, col in peeled]
        self._r: dict[tuple[int, int], tuple[int, dict]] = {}
        self._e: dict[int, tuple[int, dict]] = {}

    def psihat_at_qbar(self, n: int) -> Series:
        """psihat_n(s(z)) s'(z), the basis scalar with its leg at q-bar."""
        out = self._at_qbar.get(n)
        if out is None:
            out = self._at_qbar[n] = substitute(
                self.psi.shifted(n), None, self._inv_s_pows) * self._s_prime
        return out

    # -- residue tables ---------------------------------------------------

    def residue(self, F: Series, k: int = 0) -> tuple[int, dict[int, int]]:
        """Res_z K(w;z) z^k F(z) in the basis of w, from the numerators of
        F's z^e coefficients, e <= -k: a dot product with the kernel
        columns K_(-1-e-k), peeled when the frame was built.  The result is
        not in lowest terms."""
        F.coeff(-k)  # raises WindowError unless z^k F is known through z^0
        cols = self._columns
        top = -k - F.start  # the column K_(top-1) of F's first coefficient, at index top
        out: dict[int, int] = defaultdict(int)
        for i, c in enumerate(F.coeffs[:max(0, top + 1)]):
            if c:
                if top - i >= len(cols):
                    self.kernel.coeff(top - i - 1)  # raises WindowError
                for n, x in cols[top - i]:
                    out[n] += c * x
        return F.den * self._kden, out

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
            by_free: dict[int, dict] = {}
            for k in range(2 * b + 3):
                lden, res = self.residue(at_qbar, k)  # one denominator for every k
                for n, c in res.items():
                    by_free.setdefault(n, {})[-(k + 2)] = (k + 1) * c
            peeled = {n: peel(Series.from_dict(poly, den=lden), self.psi)
                      for n, poly in by_free.items()}
            eden = lcm(*(d for d, _ in peeled.values()))
            out = self._e[b] = lowest_terms(eden, {
                (n, m): c * (eden // d) for n, (d, poly) in peeled.items()
                for m, c in poly.items()})
        return out

    def d_table(self) -> tuple[int, dict[int, int]]:
        """D: the residue of the Bergman self-pairing B(q, q-bar), built on
        each call (W(1,1) reads it once per frame)."""
        # a coefficient past its window raises WindowError
        return lowest_terms(*self.residue(bergman_self_pairing(self.s)))

    def w03_table(self) -> tuple[int, dict[tuple[int, int, int], int]]:
        """B(q,p1) B(q-bar,p2): both legs start at z^0, so only the product
        u1^-2 s'(0) u2^-2 of their leading terms reaches the residue.  Built
        on each call (W(0,3) reads it once per frame)."""
        dl, leg = peel(Series.monomial(1, -2), self.psi)
        df, free = self.residue(self._s_prime)
        return lowest_terms(df * dl * dl, {
            (n, m1, m2): c * x * y for n, c in free.items()
            for m1, x in leg.items() for m2, y in leg.items()})


class CorrStore:
    """Append-only memo of correlator tensors under fixed conventions.

    A default store contracts only the core of W(g,h), h >= 2, and fills the
    rest by string and dilaton; an ``audit`` store contracts every entry.
    """

    def __init__(self, f: int, conventions: Conventions | None = None, cache=None,
                 audit: bool = False):
        self.curve = FramedCurve(f)
        self.f = f
        self.cache = cache
        self.audit = audit
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
            fr = self._frames[window] = _Frame(self.curve, self.psi, window)
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

        The frame is built first, so the lower tensors reuse it; then every
        lower tensor the target reads is requested once, in the order the
        terms read it: W(g-1,h+1) for the first term, and the left and right
        factor of each split of ``_splits``.  A W(0,2) slot stays empty: at
        (1,1) the first term is D, a left W(0,2) is a Bergman leg and a right
        one the W03 term.

        Lower tensors stay sorted keys and the sum accumulates on (free
        index n | sorted tail): a choice of fixed slots for a lower tensor
        becomes a multiset split of the tail, weighted by ``_merge``.  Every
        lower tensor is read grouped by tail (``_by_tail``), so a split is
        merged once per pair of tails, before the loop over their legs, and
        the first term takes the second leg of each distinct rest once.  The
        first term and the pair splits are gathered into the bracket on
        (a <= b, sorted tail), and one loop over its entries applies R[a,b]
        to each, from rows put on the running denominator once, over the lcm
        of their denominators; the D, W03 and Bergman-leg terms are added
        directly.  The sum is multiplied once by -sigma_kernel, the one place
        the kernel sign enters a tensor (see the module docstring for the
        signs).  Tensors and tables enter as integer numerators; the sum
        runs over Python ints on one running denominator and ends in lowest
        terms.

        Outside audit mode, for h >= 2 except W(0,3), only the core is
        contracted (indices below ``lo`` are skipped) and ``_fill`` adds
        the rest to the signed core; an empty core (h > 3g-3) builds no
        frame and contracts nothing, but requests the same lower tensors.
        See the module docstring.
        """
        core = not self.audit and h >= 2 and (g, h) != (0, 3)
        lo = 2 if core else 0
        frame = None if core and h > 3 * g - 3 else self.frame(window)

        def lower(key: tuple[int, int]) -> CorrDiff | None:
            return None if key == (0, 2) else self.correlator(*key)

        first = lower((g - 1, h + 1)) if g else None
        splits = [(lower(left), lower(right), mult) for left, right, mult in _splits(g, h)]
        acc = _Sum()
        num = acc.num
        if frame is not None:
            bracket = _Sum()
            # first term: W(g-1, h+1) with two of its legs at q and q-bar
            if first is not None:
                bracket.den = first.den
                for rest, legs in _by_tail(first.nums, 0).items():
                    for b, tail in _legs(rest):
                        if not tail or tail[0] >= lo:
                            for a, c in legs:
                                bracket.num[(a, b, tail) if a <= b else (b, a, tail)] += c
            elif g:  # W(1,1), where the first term is D
                acc.den, table = frame.d_table()
                num.update(((n,), c) for n, c in table.items())

            # quadratic terms; only W(0,3) has a W03 term, whose p-legs carry
            # index 0 alone
            for wq, wqb, mult in splits:
                if wqb is None:
                    den, table = frame.w03_table()
                    scale = acc.factor(den)
                    for (n, m1, m2), c in table.items():
                        tail, weight = _merge((m1,), (m2,))
                        num[(n,) + tail] += weight * scale * c
                elif wq is None:
                    self._bergman_leg_term(frame, acc, wqb, lo, mult)
                else:
                    self._pair_term(bracket, wq, wqb, lo, mult)

            # the one residue step: R[a,b] against each bracket entry, with
            # every row needed put on the running denominator at once
            tables = {pair: frame.r_table(*pair) for pair in {key[:2] for key in bracket.num}}
            if tables:
                rden = lcm(*(tden for tden, _ in tables.values()))
                scale = acc.factor(bracket.den * rden)
                rows = {pair: [(n, r * scale * (rden // tden))
                               for n, r in table.items() if n >= lo]
                        for pair, (tden, table) in tables.items()}
                for (a, b, tail), c in bracket.num.items():
                    for n, r in rows[(a, b)]:
                        num[(n,) + tail] += c * r

        sign = -self.conventions.sigma_kernel
        out = _Sum(acc.den)  # the core, times sign
        seen: dict = defaultdict(int)
        for idx, c in num.items():
            if c:
                c *= sign
                key = tuple(sorted(idx))
                if out.num.setdefault(key, c) != c:
                    raise AssertionError(
                        f"free slot breaks the symmetry at {idx} in W({g},{h})")
                seen[key] += 1
        bound = 3 * g - 3 + h
        for key, count in seen.items():
            if count != len(set(key)):
                raise AssertionError(f"missing free indices of {key} in W({g},{h})")
            if sum(key) > bound:
                raise AssertionError(
                    f"index {key} violates the dimension bound {bound} in W({g},{h})")
        if core:
            _fill(g, h, self.f, self.correlator(g, h - 1), out)
        return CorrDiff(g, h, self.f, *lowest_terms(out.den, out.num))

    def _bergman_leg_term(self, frame: _Frame, acc: _Sum, lower: CorrDiff,
                          lo: int, mult: int) -> None:
        """mult times B(q, p_j) against ``lower`` at q-bar, via E[b], on the
        entries whose indices are all >= lo.  ``lower`` is read grouped by
        tail, so each (m, rest) is merged once, whatever legs b share it."""
        num = acc.num
        for rest, legs in _by_tail(lower.nums, lo).items():
            merged: dict = {}  # m -> _merge((m,), rest), shared by every leg index b
            for b, c in legs:
                eden, table = frame.e_table(b)
                c *= mult * acc.factor(lower.den * eden)
                for (n, m), e in table.items():
                    if n >= lo and m >= lo:
                        if m not in merged:
                            merged[m] = _merge((m,), rest)
                        tail, weight = merged[m]
                        num[(n,) + tail] += weight * c * e

    def _pair_term(self, bracket: _Sum, wq: CorrDiff, wqb: CorrDiff,
                   lo: int, mult: int) -> None:
        """Add mult times two lower tensors, ``wq`` with its legs at q and
        ``wqb`` at q-bar, to the bracket, on the tails whose indices are all
        >= lo.  Both are read grouped by tail, so each pair of tails is
        merged once and then shared by every pair of legs (a, b)."""
        num = bracket.num
        scale = mult * bracket.factor(wq.den * wqb.den)
        at_qbar = _by_tail(wqb.nums, lo).items()
        for tq, legs_q in _by_tail(wq.nums, lo).items():
            for tqb, legs_qbar in at_qbar:
                tail, weight = _merge(tq, tqb)
                weight *= scale
                for a, cq in legs_q:
                    cq *= weight
                    for b, cqb in legs_qbar:
                        num[(a, b, tail) if a <= b else (b, a, tail)] += cq * cqb


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
