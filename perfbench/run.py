"""The eorec benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it benchmarks the engine under
``src/`` there and keeps its scratch files in ``.perfbench-work/``.  Every
job is a fresh single-threaded ``python3`` process, started only after the
previous one has ended.  The seed permutes the framings passed to ``--f``;
the first one listed is the one calibrated.

``--trace 0`` times whole jobs: set-up probes, which stop when
``build_stores`` returns and give ``setup_s``, then full jobs until the
next one would overrun ``--seconds`` or the hard limit (at least one).
The times are scaled to one machine speed by runs of ``reference.py``
around them.
``--trace 1`` runs pairs of an untraced and a traced job and reports the
per-layer metrics of ``tracer.py``; exact counters must repeat across the
traced jobs.

Every job's output passes through ``gate.py``.  The last line of stdout is
the JSON result; progress goes to stderr.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
from tracer import EXACT_COUNTERS  # noqa: E402

#: rounds of set-up probes; each round starts once with every framing first,
#: so the probe sample is the same for every seed.  Calibrating f=2 or f=3
#: takes about twice as long as f=1, so the full jobs' own set-up times,
#: whose first framing the seed picks, would make setup_s follow the seed.
PROBE_ROUNDS = 3
#: no run may outlast this, whatever --seconds says
HARD_LIMIT_S = 170.0
#: wall time of ``reference.py`` at the machine speed the time metrics are
#: given at.  The speed of the shared host drifts by 15-25% within minutes;
#: scaling each time by this over the reference times measured around it
#: takes most of the drift out (see README.md, Noise).
REF_NOMINAL_S = 0.7


@dataclass(frozen=True)
class Workload:
    command: str
    framings: tuple[int, ...]
    args: tuple[str, ...]
    cache: str | None          # None, "fresh" (new empty dir per job) or "warm"
    check: dict = field(default_factory=dict)


WORKLOADS = {
    # the headline path: cold energies, dominated by the first recursion term
    "energy-cold": Workload("free-energy", (1, 2, 3), ("--g-max", "4"), "fresh",
                            {"g_max": 4}),
    # genus 0 has no first term and touches neither hodge nor the cache
    "multipoint-cold": Workload("correlator", (1, 2), ("--g", "0", "--h", "6"), None,
                                {"h": 6}),
    # cache reads instead of writes; basis tables, frames and theta residues
    "verify-warm": Workload("verify", (1, 2, 3), ("--g-max", "4"), "warm",
                            {"g_max": 4}),
}
#: the untimed step that fills verify-warm's cache writes every tensor it loads
WARM_FILL = "energy-cold"


class BenchError(Exception):
    pass


@dataclass
class Job:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None
    exit_code: int
    stdout: bytes
    stderr: bytes
    trace: dict | None
    errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


class Bench:
    def __init__(self, root: str, deadline: float):
        self.root = root
        self.work = os.path.join(root, ".perfbench-work")
        self.jobdir = os.path.join(self.work, "job")
        self.deadline = deadline
        os.makedirs(self.work, exist_ok=True)
        # no inherited cache directory; byte-code cached next to the sources,
        # as an installed engine has it, and written by the untimed warm-up
        env = dict(os.environ)
        for var in ("EOREC_CACHE_DIR", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
            env.pop(var, None)
        env.update(PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
        self.env = env

    def spawn(self, eorec_argv: list[str], setup_only: bool = False,
              spans: str | None = None) -> Job:
        """Run one child to completion and measure it from outside."""
        shutil.rmtree(self.jobdir, ignore_errors=True)
        os.makedirs(self.jobdir)
        report = os.path.join(self.jobdir, "report.json")
        argv = [sys.executable, os.path.join(HERE, "child.py"), "--report", report]
        if setup_only:
            argv.append("--setup-only")
        if spans:
            argv += ["--spans", spans]
        argv += ["--", *eorec_argv]
        out_path = os.path.join(self.jobdir, "stdout")
        err_path = os.path.join(self.jobdir, "stderr")
        remaining = self.deadline - time.monotonic()
        if remaining <= 1:
            raise BenchError("out of time before the next job")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=self.root)
            try:
                _, status, usage = _wait4(proc.pid, remaining)
            except TimeoutError:
                proc.kill()
                proc.wait()
                raise BenchError(f"job exceeded the time left: {' '.join(eorec_argv)}")
            t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        try:
            with open(report, encoding="utf-8") as fh:
                rep = json.load(fh)
        except (OSError, json.JSONDecodeError):
            rep = {}
        setup = rep.get("setup_done")
        job = Job(wall_s=t1 - t0, cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mb=usage.ru_maxrss / 1024.0,
                  setup_s=None if setup is None else setup - t0,
                  exit_code=proc.returncode, stdout=stdout, stderr=stderr,
                  trace=rep.get("trace"))
        src = os.path.realpath(os.path.join(self.root, "src", "eorec"))
        if not os.path.realpath(rep.get("eorec", "")).startswith(src + os.sep):
            job.errors.append(f"child imported eorec from {rep.get('eorec')!r}, not {src}")
        if job.exit_code != 0:
            job.errors.append(f"exit status {job.exit_code}: "
                              f"{stderr.decode('utf-8', 'replace').strip()[-300:]}")
        elif setup is None:
            job.errors.append("build_stores never returned")
        return job

    def reference_s(self) -> float:
        """Wall time of one run of ``reference.py``, spawned like a job."""
        t0 = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "reference.py")],
                                  env=self.env, cwd=self.root, capture_output=True,
                                  timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            raise BenchError("the reference workload exceeded the time left")
        if proc.returncode != 0:
            raise BenchError(f"the reference workload failed: {proc.stderr[-300:]!r}")
        return time.monotonic() - t0

    # -- caches ----------------------------------------------------------

    def warm_cache(self) -> str:
        """A cache filled by this checkout's engine, reused while src/ is unchanged.

        The fill is untimed; its output passes the gate like any job's.
        """
        h = hashlib.sha256()
        src = os.path.join(self.root, "src")
        for dirpath, dirnames, filenames in os.walk(src):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, src).encode() + b"\0")
                    with open(path, "rb") as fh:
                        h.update(fh.read() + b"\0")
        final = os.path.join(self.work, f"warm-{h.hexdigest()[:16]}")
        if os.path.isdir(final):
            return final
        tmp = os.path.join(self.work, f"warm-tmp-{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        wl = WORKLOADS[WARM_FILL]
        job = self.spawn(_eorec_argv(wl, wl.framings, tmp))
        job.errors += gate.check(wl.command, job.stdout, gate.golden_hashes()[WARM_FILL],
                                 wl.framings, **wl.check)
        if not job.ok:
            raise BenchError("filling the warm cache failed: " + "; ".join(job.errors))
        os.replace(tmp, final)
        return final

    def job_cache(self, wl: Workload, warm: str | None) -> str | None:
        if wl.cache is None:
            return None
        path = os.path.join(self.work, "cache")
        shutil.rmtree(path, ignore_errors=True)
        if wl.cache == "warm":
            shutil.copytree(warm, path)
        return path


def _wait4(pid: int, timeout: float):
    """Blocking ``os.wait4`` that gives up after ``timeout`` seconds."""
    def expire(signum, frame):
        raise TimeoutError

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _eorec_argv(wl: Workload, framings, cache: str | None) -> list[str]:
    argv = [wl.command, "--f", ",".join(map(str, framings)), *wl.args]
    if cache is not None:
        argv += ["--cache-dir", cache]
    return argv


def _corr_files(cache: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(cache)):
        if name.startswith("corr_"):
            with open(os.path.join(cache, name), "rb") as fh:
                out[name] = fh.read()
    return out


def _hygiene(wl: Workload, m: dict) -> list[str]:
    """Cold runs must not read the cache; warm runs must only read it."""
    errors = []
    if wl.cache is None and m["cache.load.calls"]:
        errors.append("a run without a cache touched the cache")
    if wl.cache == "fresh" and m["cache.hits"]:
        errors.append("a cold cache produced hits")
    if wl.cache == "warm":
        if m["cache.hit_ratio"] != 1:
            errors.append(f"warm cache hit ratio {m['cache.hit_ratio']} is not 1")
        # truncation-stability recomputes W(1,1) and W(2,1) per framing
        if m["recursion.computed"] != 2 * len(wl.framings):
            errors.append(f"{m['recursion.computed']} computes on a warm cache, "
                          f"expected only the {2 * len(wl.framings)} recomputes")
    return errors


def run_job(bench: Bench, name: str, framings, warm: str | None,
            spans: str | None = None) -> Job:
    wl = WORKLOADS[name]
    cache = bench.job_cache(wl, warm)
    before = _corr_files(cache) if wl.cache == "warm" else None
    job = bench.spawn(_eorec_argv(wl, framings, cache), spans=spans)
    if job.exit_code == 0:
        job.errors += gate.check(wl.command, job.stdout, gate.golden_hashes()[name],
                                 framings, **wl.check)
    if before is not None and _corr_files(cache) != before:
        job.errors.append("a warm run rewrote cached tensors")
    if job.trace is not None:
        job.errors += _hygiene(wl, job.trace)
    return job


def _no_time_for(bench: Bench, start: float, seconds: float, next_s: float) -> bool:
    """Whether work expected to take ``next_s`` would overrun ``--seconds`` or the
    hard limit, so that the jobs already measured are reported, not lost."""
    end = time.monotonic() + next_s
    return end - start > seconds or end > bench.deadline


def measure(bench: Bench, name: str, framings, seconds: float, warm: str | None):
    """--trace 0: set-up probes, then full jobs until the time is used.

    The reference workload runs first, after every probe round and after
    every job, and again until ``seconds`` is used.  A time is scaled to
    ``REF_NOMINAL_S`` by the mean of the reference times on both sides of
    it: after the previous job (or from the start) until the next one.
    """
    wl = WORKLOADS[name]
    errors: list[str] = []
    start = time.monotonic()
    refs = [bench.reference_s()]
    setups = []
    for _ in range(PROBE_ROUNDS):
        found = []
        for k in range(len(framings)):
            rotated = framings[k:] + framings[:k]
            probe = bench.spawn(_eorec_argv(wl, rotated, bench.job_cache(wl, warm)),
                                setup_only=True)
            errors += probe.errors
            if probe.setup_s is not None:
                found.append(probe.setup_s)
        refs.append(bench.reference_s())
        setups += [s * 2 * REF_NOMINAL_S / (refs[-2] + refs[-1]) for s in found]
    # blocks[i] holds the reference times before job i; the last, those after
    blocks = [refs]
    jobs: list[Job] = []
    while True:
        job = run_job(bench, name, framings, warm)
        jobs.append(job)
        blocks.append([bench.reference_s()])
        _log(name, job)
        errors += job.errors
        next_s = statistics.median([j.wall_s for j in jobs]) + blocks[-1][-1]
        if _no_time_for(bench, start, seconds, next_s):
            break
    # the rest of the time measures the machine after the last job
    while not _no_time_for(bench, start, seconds, blocks[-1][-1]):
        blocks[-1].append(bench.reference_s())
    scales = [REF_NOMINAL_S / statistics.fmean(before + after)
              for before, after in zip(blocks, blocks[1:])]
    print(f"[{name}] reference mean {statistics.fmean(sum(blocks, [])):.3f}s over "
          f"{sum(map(len, blocks))} runs", file=sys.stderr, flush=True)
    good = [(j, f) for j, f in zip(jobs, scales) if j.ok] or list(zip(jobs, scales))
    metrics = {
        "wall_s": (statistics.median([f * j.wall_s for j, f in good]), "s"),
        "cpu_s": (statistics.median([f * j.cpu_s for j, f in good]), "s"),
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "solve_s": (statistics.median([f * (j.wall_s - (j.setup_s or 0.0)) for j, f in good]),
                    "s"),
        "peak_rss_mb": (statistics.median([j.peak_rss_mb for j, _ in good]), "MB"),
        "ok_frac": (sum(j.ok for j in jobs) / len(jobs), "share"),
    }
    return jobs, errors, metrics


def measure_traced(bench: Bench, name: str, framings, seconds: float, warm: str | None):
    """--trace 1: pairs of an untraced and a traced job."""
    spans = os.path.join(bench.work, f"{name}.spans.jsonl")
    errors: list[str] = []
    start = time.monotonic()
    plain: list[Job] = []
    traced: list[Job] = []
    while True:
        for runs, path in ((plain, None), (traced, spans)):
            job = run_job(bench, name, framings, warm, spans=path)
            runs.append(job)
            _log(name + (" traced" if path else ""), job)
            errors += job.errors
        pair_s = statistics.median([p.wall_s + t.wall_s for p, t in zip(plain, traced)])
        if _no_time_for(bench, start, seconds, pair_s):
            break
    jobs = plain + traced
    good = [j for j in traced if j.ok and j.trace] or [j for j in traced if j.trace]
    if not good:
        raise BenchError("no traced job produced a trace")
    counts = {tuple(j.trace[k] for k in EXACT_COUNTERS) for j in good}
    if len(counts) > 1:
        errors.append("exact counters differ between traced jobs of one seed")
    metrics = {}
    for key in good[0].trace:
        values = [j.trace[key] for j in good]
        exact = key in EXACT_COUNTERS
        metrics[key] = (values[0] if exact else statistics.median(values), _unit(key))
    overhead = (statistics.median([j.wall_s for j in traced])
                - statistics.median([j.wall_s for j in plain]))
    metrics["trace.overhead_s"] = (overhead, "s")
    return jobs, errors, metrics


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_ratio"):
        return "ratio"
    if "bytes" in key:
        return "B"
    return "count"


def _log(name: str, job: Job) -> None:
    setup = "-" if job.setup_s is None else f"{job.setup_s:.3f}"
    print(f"[{name}] wall {job.wall_s:.3f}s cpu {job.cpu_s:.3f}s setup {setup}s "
          f"rss {job.peak_rss_mb:.1f}MB {'ok' if job.ok else 'FAILED'}",
          file=sys.stderr, flush=True)
    for e in job.errors:
        print(f"[{name}]   {e}", file=sys.stderr, flush=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "eorec", "cli.py")):
        print("perfbench: no eorec engine under ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    bench = Bench(root, deadline=time.monotonic() + HARD_LIMIT_S)
    wl = WORKLOADS[args.workload]
    framings = list(wl.framings)
    random.Random(args.seed).shuffle(framings)
    try:
        warm = bench.warm_cache() if wl.cache == "warm" else None
        # untimed warm-up: byte-compiles the engine and fills the page cache
        bench.spawn(_eorec_argv(wl, framings, bench.job_cache(wl, warm)), setup_only=True)
        run = measure_traced if args.trace else measure
        jobs, errors, metrics = run(bench, args.workload, framings, args.seconds, warm)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for e in errors:
        print(f"perfbench: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": len(jobs),
        "failed": sum(not j.ok for j in jobs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
