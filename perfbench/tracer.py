"""Per-layer tracing of one eorec process, installed from outside the package.

``install()`` wraps the public functions of each ``eorec`` module at every
place they are bound: module globals that hold the function (so
``eorec.recursion.recursion_kernel`` is patched as well as
``eorec.curve.recursion_kernel``) and class attributes for methods.  No
file under ``src/`` changes.

Each wrapped call updates, in memory:

* a call count and a self time per function (its duration minus the time
  covered by wrapped calls made inside it);
* the time of its *group*, counted only while no other call of the same
  group is open, so nested or recursive calls are not counted twice
  (``recursion.compute_s`` covers a compute and the computes it triggers
  once);
* for coarse functions, a span ``(name, start, end, parent)``; hot leaf
  functions (Laurent and series arithmetic, basis lookups) keep counts and
  times only, since one span per call would not fit in memory.

Exact work counters (term pairs, coefficient pairs, cache bytes) are taken
at the same call sites.  ``Tracer.metrics()`` turns all of it into the
``per_layer`` metrics named in ``BENCHMARK.json``; ``Tracer.write_spans``
writes the spans as JSON lines when the process ends.
"""

from __future__ import annotations

import json
import sys
import time
from bisect import bisect_right
from collections import Counter

#: layers, in the order their self times are reported
LAYERS = ("cli", "verify", "recursion", "curve", "psi", "hodge", "series",
          "laurent", "cache")

#: counters reported as exact integers; two traced runs of one workload and
#: seed must give identical values
EXACT_COUNTERS = (
    "recursion.correlator.calls", "recursion.computed", "recursion.memo_hits",
    "recursion.window_escalations",
    "laurent.mul.calls", "laurent.mul.term_pairs",
    "series.mul.calls", "series.mul.coeff_pairs", "series.residue.calls",
    "curve.frames",
    "psi.shifted.calls", "psi.peel.calls",
    "hodge.residue.calls",
    "cache.load.calls", "cache.hits", "cache.bytes_read", "cache.store.calls",
    "cache.bytes_written", "cache.rejects",
    "verify.checks", "verify.failed",
)


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.counts: Counter = Counter()
        self.fn_stats: dict[str, list] = {}     # name -> [calls, self_s]
        self.groups: dict[str, list] = {}       # group -> [open calls, time_s]
        self.spans: list = []                   # (name, start, end, parent index)
        self._stack: list = [[0.0, None]]       # [time in wrapped children, span]

    # -- wrapping ------------------------------------------------------

    def timed(self, fn, name: str, group: str | None = None, span: bool = False):
        """Wrap ``fn`` so its calls are counted and timed under ``name``."""
        stack, spans, clock = self._stack, self.spans, self.clock
        stat = self.fn_stats.setdefault(name, [0, 0.0])
        grp = self.groups.setdefault(group or name, [0, 0.0])

        def wrapper(*args, **kwargs):
            top = stack[-1]
            if span:
                sid = len(spans)
                spans.append(None)
            else:
                sid = top[1]
            rec = [0.0, sid]
            stack.append(rec)
            grp[0] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                top[0] += dur
                stat[0] += 1
                stat[1] += dur - rec[0]
                grp[0] -= 1
                if not grp[0]:
                    grp[1] += dur
                if span:
                    spans[sid] = (name, t0, t1, top[1])

        wrapper.__wrapped__ = fn
        return wrapper

    def count_calls(self, fn, counter: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -------------------------------------------------------

    def _calls(self, name: str) -> int:
        return self.fn_stats.get(name, [0, 0.0])[0]

    def _group_s(self, group: str) -> float:
        return self.groups.get(group, [0, 0.0])[1]

    def self_times(self) -> dict[str, float]:
        """Self time per layer, summed over the layer's wrapped functions."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, self_s) in self.fn_stats.items():
            out[name.split(".", 1)[0]] += self_s
        return out

    def metrics(self) -> dict[str, float | int]:
        c = self.counts
        loads = self._calls("cache.load")
        m: dict[str, float | int] = {
            "recursion.correlator.calls": self._calls("recursion.correlator"),
            "recursion.computed": self._calls("recursion.compute"),
            "recursion.memo_hits": c["recursion.memo_hits"],
            "recursion.compute_s": self._group_s("recursion.compute"),
            "recursion.window_escalations":
                c["recursion.compute_at"] - self._calls("recursion.compute"),
            "recursion.calibrate_s": self._group_s("recursion.calibrate"),
            "laurent.mul.calls": self._calls("laurent.mul"),
            "laurent.mul_s": self._group_s("laurent.mul"),
            "laurent.add_s": self._group_s("laurent.add"),
            "laurent.mul.term_pairs": c["laurent.mul.term_pairs"],
            "series.mul.calls": self._calls("series.mul"),
            "series.mul_s": self._group_s("series.mul"),
            "series.mul.coeff_pairs": c["series.mul.coeff_pairs"],
            "series.residue.calls": c["series.residue"],
            "curve.frame_s": self._group_s("curve.frame"),
            "curve.frames": c["curve.frames"],
            "psi.table_s": self._group_s("psi.table"),
            "psi.shifted.calls": self._calls("psi.shifted"),
            "psi.peel.calls": self._calls("psi.peel"),
            "psi.peel_s": self._group_s("psi.peel"),
            "hodge.theta_s": self._group_s("hodge.theta"),
            "hodge.residue.calls": self._calls("hodge.residue"),
            "hodge.residue_s": self._group_s("hodge.residue"),
            "hodge.energy_s": self._group_s("hodge.energy"),
            "cache.load.calls": loads,
            "cache.hits": c["cache.hits"],
            "cache.hit_ratio": c["cache.hits"] / loads if loads else 0.0,
            "cache.load_s": self._group_s("cache.load"),
            "cache.bytes_read": c["cache.bytes_read"],
            "cache.store.calls": self._calls("cache.store"),
            "cache.store_s": self._group_s("cache.store"),
            "cache.bytes_written": c["cache.bytes_written"],
            "cache.rejects": c["cache.rejects"],
            "verify.checks": c["verify.checks"],
            "verify.failed": c["verify.failed"],
            "verify.run_s": self._group_s("verify.run"),
            "cli.main_s": self._group_s("cli.main"),
        }
        for layer, self_s in self.self_times().items():
            m[f"{layer}.self_s"] = self_s
        return m

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                if s is None:   # a call still open when the process stopped
                    continue
                name, t0, t1, parent = s
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent}) + "\n")


# -- exact counters -------------------------------------------------------

def _series_coeff_pairs(a, b) -> int:
    """Coefficient products ``Series.__mul__`` forms for ``a * b``.

    Mirrors the product's certified window: every nonzero pair when both
    factors are exact, otherwise only pairs whose exponent stays at or
    below the product's window end.
    """
    if a.is_known_zero() or b.is_known_zero():
        return 0
    nz_a = [i for i, c in enumerate(a.coeffs) if c]
    nz_b = [j for j, c in enumerate(b.coeffs) if c]
    if a.exact and b.exact:
        return len(nz_a) * len(nz_b)
    sa, sb = a.eff_start(), b.eff_start()
    limit = min(a.window_end + sb, b.window_end + sa) - a.start - b.start
    return sum(bisect_right(nz_b, limit - i) for i in nz_a)


def _rebind(old, new) -> None:
    """Point every ``eorec`` module global bound to ``old`` at ``new``."""
    for modname, mod in list(sys.modules.items()):
        if modname == "eorec" or modname.startswith("eorec."):
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)


def install() -> Tracer:
    """Wrap the eorec layers in this process; returns the live tracer."""
    import eorec.cli  # noqa: F401  (loads every module that gets patched)
    from eorec import cache, curve, hodge, laurent, psi, recursion, series, verify, cli

    t = Tracer()
    counts = t.counts

    # cli
    _rebind(cli.main, t.timed(cli.main, "cli.main", span=True))
    _rebind(verify.build_stores, t.timed(verify.build_stores, "verify.build_stores",
                                         group="verify.setup", span=True))

    # recursion
    CorrStore = recursion.CorrStore
    correlator = CorrStore.correlator

    def counted_correlator(self, g, h):
        if (g, h) in self.table:
            counts["recursion.memo_hits"] += 1
        return correlator(self, g, h)

    CorrStore.correlator = t.timed(counted_correlator, "recursion.correlator", span=True)
    CorrStore.compute = t.timed(CorrStore.compute, "recursion.compute", span=True)
    CorrStore._compute_at = t.count_calls(CorrStore._compute_at, "recursion.compute_at")
    recursion._Frame.__init__ = t.count_calls(recursion._Frame.__init__, "curve.frames")
    _rebind(recursion.calibrate_sigma_kernel,
            t.timed(recursion.calibrate_sigma_kernel, "recursion.calibrate", span=True))

    # curve: the four pieces of a local frame share one group
    for fn in (curve.conjugate_series, curve.omega_diff_series,
               curve.recursion_kernel, curve.bergman_self_pairing):
        _rebind(fn, t.timed(fn, f"curve.{fn.__name__}", group="curve.frame", span=True))

    # psi: table construction and lookups (which extend the table) share a group
    PsiTable = psi.PsiTable
    PsiTable.__init__ = t.timed(PsiTable.__init__, "psi.table_init", group="psi.table",
                                span=True)
    PsiTable.form = t.timed(PsiTable.form, "psi.form", group="psi.table")
    PsiTable.shifted = t.timed(PsiTable.shifted, "psi.shifted", group="psi.table")
    _rebind(psi.peel, t.timed(psi.peel, "psi.peel"))

    # hodge
    _rebind(hodge.theta_series, t.timed(hodge.theta_series, "hodge.theta", span=True))
    _rebind(hodge.residue_theta_psi,
            t.timed(hodge.residue_theta_psi, "hodge.residue", span=True))
    _rebind(hodge.energy_table, t.timed(hodge.energy_table, "hodge.energy", span=True))

    # series
    Series = series.Series
    series_mul = Series.__mul__

    def counted_series_mul(a, b):
        out = series_mul(a, b)
        if out is not NotImplemented:
            counts["series.mul.coeff_pairs"] += _series_coeff_pairs(a, b)
        return out

    Series.__mul__ = t.timed(counted_series_mul, "series.mul")
    Series.residue = t.count_calls(Series.residue, "series.residue")

    # laurent
    MLaurent = laurent.MLaurent
    ml_mul, ml_add = MLaurent.__mul__, MLaurent.__add__

    def counted_ml_mul(a, b):
        out = ml_mul(a, b)
        if out is not NotImplemented:
            if isinstance(b, MLaurent):
                counts["laurent.mul.term_pairs"] += len(a.terms) * len(b.terms)
            elif b:
                counts["laurent.mul.term_pairs"] += len(a.terms)
        return out

    MLaurent.__mul__ = MLaurent.__rmul__ = t.timed(counted_ml_mul, "laurent.mul")
    MLaurent.__add__ = MLaurent.__radd__ = t.timed(ml_add, "laurent.add")

    # cache
    CorrCache = cache.CorrCache
    cache_load, cache_store = CorrCache.load, CorrCache.store

    def counted_load(self, f, g, h, conv):
        path = self._path(f, g, h, conv)
        size = path.stat().st_size if path.exists() else None
        got = cache_load(self, f, g, h, conv)
        if got is not None:
            counts["cache.hits"] += 1
            counts["cache.bytes_read"] += size
        elif size is not None:
            counts["cache.rejects"] += 1
        return got

    def counted_store(self, w, conv):
        cache_store(self, w, conv)
        counts["cache.bytes_written"] += self._path(w.f, w.g, w.h, conv).stat().st_size

    CorrCache.load = t.timed(counted_load, "cache.load", span=True)
    CorrCache.store = t.timed(counted_store, "cache.store", span=True)

    # verify
    run_verification = verify.run_verification

    def counted_verification(stores, g_max=3):
        report = run_verification(stores, g_max=g_max)
        counts["verify.checks"] += len(report.checks)
        counts["verify.failed"] += sum(1 for c in report.checks if not c.passed)
        return report

    _rebind(run_verification, t.timed(counted_verification, "verify.run", span=True))
    return t


def exact_counts(metrics: dict) -> dict:
    return {k: metrics[k] for k in EXACT_COUNTERS}

