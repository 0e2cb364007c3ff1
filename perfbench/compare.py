"""Paired comparison of two checkouts with the same benchmark code.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

BASE_DIR and HEAD_DIR are the roots of two checkouts (for a commit, for
instance ``git archive <rev> | tar -x -C DIR``).  This copy of ``run.py``
benchmarks both with ``run_seconds`` from ``BENCHMARK.json``, so benchmark
code and settings are identical.  For each workload in ``BENCHMARK.json``
it runs 10 pairs with seeds 0 to 9, alternating which side goes first, and
prints, per end-to-end metric, each side's median and quartiles, the pairs
HEAD won (ties count for neither) and a verdict:

* ``gain``: HEAD won at least 9 of the 10 pairs, and the medians differ by
  more than BASE's own quartile spread;
* ``regression``: HEAD's median is worse than BASE's by more than the
  metric's bound in ``BENCHMARK.json``;
* ``unresolved``: BASE's quartile spread is wider than the bound, and not
  every HEAD run beats every BASE run;
* ``no change`` otherwise.

Exits 1 when any run fails its gate (a golden hash differs, or a job
fails), 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
#: pairs per workload, run with seeds 0 to PAIRS - 1
PAIRS = 10


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "metrics": {}, "stderr": proc.stderr[-2000:]}
    result = json.loads(lines[-1])
    result["stderr"] = proc.stderr[-2000:]
    return result


def verdict(base: list[float], head: list[float], better: str, bound: float) -> tuple[str, int]:
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    mb, mh = statistics.median(base), statistics.median(head)
    q1, _, q3 = statistics.quantiles(base, n=4)
    spread = q3 - q1
    if wins >= 0.9 * len(base) and abs(mh - mb) > spread and sign * (mh - mb) > 0:
        return "gain", wins
    if sign * (mb - mh) > bound * abs(mb):
        return "regression", wins
    all_better = all(sign * (h - b) > 0 for h in head for b in base)
    if spread > bound * abs(mb) and not all_better:
        return "unresolved", wins
    return "no change", wins


def quartiles(values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base")
    p.add_argument("head")
    args = p.parse_args(argv)
    seconds = spec["run_seconds"]

    sides = {"base": os.path.abspath(args.base), "head": os.path.abspath(args.head)}
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        values = {"base": {}, "head": {}}
        for seed in range(PAIRS):
            order = ("base", "head") if seed % 2 == 0 else ("head", "base")
            for side in order:
                result = run_once(sides[side], workload, seed, seconds)
                if not result["correct"]:
                    failed = True
                    print(f"{workload} seed {seed} {side}: gate failed\n{result['stderr']}",
                          file=sys.stderr)
                for name, m in result["metrics"].items():
                    values[side].setdefault(name, []).append(m["value"])
        print(f"== {workload} ({PAIRS} pairs, {seconds} s runs)")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base, head = values["base"].get(name, []), values["head"].get(name, [])
            if len(base) != PAIRS or len(head) != PAIRS:
                print(f"  {name}: missing runs")
                continue
            what, wins = verdict(base, head, metric["better"], metric["bound"])
            print(f"  {name} ({metric['unit']}): base {quartiles(base)}  "
                  f"head {quartiles(head)}  head won {wins}/{PAIRS}  {what}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
