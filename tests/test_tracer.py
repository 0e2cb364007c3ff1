"""The benchmark's per-layer tracer still finds what it patches in ``src/``.

``perfbench/tracer.py`` wraps eorec functions and methods by name from
outside the package, so renaming one of them breaks the benchmark's
per-layer metrics without failing any engine test.  This runs one traced
benchmark job the way ``perfbench/run.py`` does, in a fresh process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _traced(tmp_path, *job):
    env = dict(os.environ)
    env.pop("EOREC_CACHE_DIR", None)  # no cache: every layer does real work
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave perfbench/ as checked in
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"),
         "--report", str(report), "--spans", str(tmp_path / "spans.jsonl"),
         "--", *job],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(report.read_text())["trace"]


def test_traced_job_counts_every_patched_layer(tmp_path):
    trace = _traced(tmp_path, "correlator", "--f", "1", "--g", "0", "--h", "4")
    for metric in ("psi.shifted.calls", "psi.peel.calls", "psi.table_s", "curve.frames",
                   "curve.frame_s", "laurent.mul.term_pairs"):
        assert trace[metric] > 0, metric


def test_traced_energy_job_reaches_the_theta_layer(tmp_path):
    trace = _traced(tmp_path, "free-energy", "--f", "1", "--g-max", "2")
    assert trace["hodge.residue.calls"] > 0
    assert trace["hodge.theta_s"] > 0
