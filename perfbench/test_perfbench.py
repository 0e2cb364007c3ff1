"""Tests of the benchmark's own gate and tracer.

    python3 -m pytest perfbench/test_perfbench.py

Run from the root of a checkout.  The gate tests need no engine run; the
traced and hard-limit tests run multipoint-cold jobs (about 50 s).
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

CONVENTIONS = {"epsilon": None, "sigma_kernel": -1, "sigma_psirec": 1}


def genus0_payload(framings, h: int) -> dict:
    """W(0,h) as the Witten-Kontsevich top degree predicts it, in CLI form."""
    results = []
    for f in framings:
        idxs = sorted({tuple(sorted(p)) for p in itertools.product(range(h - 2), repeat=h)
                       if sum(p) == h - 3})
        terms = [{"n": list(i), "c": str((-1) ** h * Fraction(f * (f + 1)) ** (h - 1)
                                         * gate.wk_genus0(list(i)))} for i in idxs]
        results.append({"f": f, "g": 0, "h": h, "terms": terms})
    return {"command": "correlator", "conventions": CONVENTIONS, "results": results}


def energy_payload(framings, g_max: int, epsilon: int = -1) -> dict:
    rows = []
    for g in range(2, g_max + 1):
        ref = gate.closed_form_energy(g)
        for f in framings:
            rows.append({"g": g, "f": f, "direct": str(epsilon * ref),
                         "shortcut": str(epsilon * ref), "reference": str(ref),
                         "sign": epsilon, "paths_equal": True, "magnitude_ok": True,
                         "pass": True})
    return {"command": "free-energy", "conventions": dict(CONVENTIONS, epsilon=epsilon),
            "rows": rows, "framing_independent": True, "pass": True}


def dump(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, separators=(",", ": ")) + "\n").encode()


class GateTest(unittest.TestCase):
    def test_bernoulli_numbers(self):
        want = {2: Fraction(1, 6), 4: Fraction(-1, 30), 6: Fraction(1, 42),
                8: Fraction(-1, 30), 10: Fraction(5, 66), 12: Fraction(-691, 2730)}
        self.assertEqual({n: gate.bernoulli(n) for n in want}, want)

    def test_closed_form_energies(self):
        self.assertEqual(gate.closed_form_energy(2), Fraction(1, 5760))
        self.assertEqual(gate.closed_form_energy(3), Fraction(-1, 1451520))

    def test_golden_multipoint_is_the_witten_kontsevich_tensor(self):
        out = dump(genus0_payload((2, 1), 6))
        golden = gate.golden_hashes()["multipoint-cold"]
        self.assertEqual(gate.check("correlator", out, golden, (1, 2), h=6), [])

    def test_tampered_genus0_entry_is_rejected(self):
        payload = genus0_payload((1, 2), 6)
        payload["results"][0]["terms"][1]["c"] = "97"
        golden = gate.golden_hashes()["multipoint-cold"]
        errors = gate.check("correlator", dump(payload), golden, (1, 2), h=6)
        self.assertTrue(any("hash" in e for e in errors))
        self.assertTrue(any("Witten-Kontsevich" in e for e in errors))

    def test_energy_recheck_accepts_the_closed_form(self):
        errors = gate.check("free-energy", dump(energy_payload((1, 2, 3), 4)), "0" * 64,
                            (1, 2, 3), g_max=4)
        self.assertEqual(len(errors), 1)
        self.assertIn("hash", errors[0])

    def test_tampered_energy_is_rejected(self):
        payload = energy_payload((1, 2, 3), 4)
        payload["rows"][4]["direct"] = str(Fraction(payload["rows"][4]["direct"]) * 2)
        errors = gate.check("free-energy", dump(payload), gate.digest(payload),
                            (1, 2, 3), g_max=4)
        self.assertEqual(len(errors), 1)
        self.assertIn("Bernoulli", errors[0])

    def test_missing_rows_are_rejected(self):
        payload = energy_payload((1, 2), 4)
        errors = gate.check("free-energy", dump(payload), gate.digest(payload),
                            (1, 2, 3), g_max=4)
        self.assertTrue(any("rows cover" in e for e in errors))

    def test_canonical_form_ignores_framing_order(self):
        a = energy_payload((1, 2, 3), 4)
        b = energy_payload((3, 1, 2), 4)
        self.assertNotEqual(dump(a), dump(b))
        self.assertEqual(gate.digest(a), gate.digest(b))

    def test_not_json_is_rejected(self):
        errors = gate.check("verify", b"Traceback ...\n", "0" * 64, (1,), g_max=2)
        self.assertEqual(len(errors), 1)


class MetricNamesTest(unittest.TestCase):
    def test_per_layer_metrics_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        reported = [*tracer.Tracer().metrics(), "trace.overhead_s"]
        self.assertEqual({k: run._unit(k) for k in reported}, spec)


class TracedRunTest(unittest.TestCase):
    def test_exact_counters_repeat(self):
        bench = run.Bench(ROOT, deadline=run.time.monotonic() + 150)
        framings = [2, 1]
        spans = os.path.join(bench.work, "test.spans.jsonl")
        jobs = [run.run_job(bench, "multipoint-cold", framings, None, spans=spans)
                for _ in range(2)]
        for job in jobs:
            self.assertEqual(job.errors, [])
        first, second = (tracer.exact_counts(j.trace) for j in jobs)
        self.assertEqual(first, second)
        self.assertGreater(first["laurent.mul.term_pairs"], 0)
        self.assertGreater(first["series.mul.coeff_pairs"], 0)
        self.assertEqual(first["cache.load.calls"], 0)
        self.assertEqual(first["hodge.residue.calls"], 0)
        with open(spans, encoding="utf-8") as fh:
            names = {json.loads(line)["name"] for line in fh}
        self.assertIn("cli.main", names)
        self.assertIn("recursion.compute", names)


class HardLimitTest(unittest.TestCase):
    def test_stops_before_the_hard_limit_and_keeps_the_jobs(self):
        # probes and reference runs take about 5 s and multipoint-cold jobs
        # 6-11 s, so --seconds 1000 would run jobs past a 25 s limit, where
        # the next one would be killed
        bench = run.Bench(ROOT, deadline=run.time.monotonic() + 25)
        jobs, errors, metrics = run.measure(bench, "multipoint-cold", [1, 2], 1000, None)
        self.assertLess(run.time.monotonic(), bench.deadline)
        self.assertGreaterEqual(len(jobs), 1)
        self.assertEqual(errors, [])
        self.assertEqual(metrics["ok_frac"][0], 1.0)


class MissingEngineTest(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        bare = os.path.join(ROOT, ".perfbench-work", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "energy-cold",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, timeout=60)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, b"")


if __name__ == "__main__":
    unittest.main()
