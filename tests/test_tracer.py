"""The benchmark's tracer and set-up probe still find what they patch in ``src/``.

``perfbench/tracer.py`` wraps eorec functions and methods by name from
outside the package, and ``perfbench/child.py`` ends set-up when
``eorec.cli.build_stores`` returns, so renaming or rebinding one of them
breaks the benchmark without failing any engine test.  These run benchmark
jobs the way ``perfbench/run.py`` does, each in a fresh process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _child(tmp_path, *args) -> dict:
    """The report of one ``child.py`` job with the given arguments."""
    env = dict(os.environ)
    env.pop("EOREC_CACHE_DIR", None)  # no cache: every layer does real work
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave perfbench/ as checked in
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--report", str(report),
         *args],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(report.read_text())


def _traced(tmp_path, *job):
    return _child(tmp_path, "--spans", str(tmp_path / "spans.jsonl"), "--", *job)["trace"]


def test_setup_probe_sees_build_stores_return(tmp_path):
    """``child.py`` marks the end of set-up by patching ``eorec.cli.build_stores``,
    which works only while ``main`` calls it through that module global."""
    report = _child(tmp_path, "--setup-only", "--", "correlator", "--f", "1", "--g", "0",
                    "--h", "4")
    assert report["exit_code"] == 0
    assert "setup_done" in report


def test_traced_job_counts_every_patched_layer(tmp_path):
    trace = _traced(tmp_path, "correlator", "--f", "1", "--g", "0", "--h", "4")
    for metric in ("psi.shifted.calls", "psi.peel.calls", "psi.table_s", "curve.frames",
                   "curve.frame_s", "laurent.mul.term_pairs"):
        assert trace[metric] > 0, metric


def test_traced_energy_job_reaches_the_theta_layer(tmp_path):
    trace = _traced(tmp_path, "free-energy", "--f", "1", "--g-max", "2")
    assert trace["hodge.residue.calls"] > 0
    assert trace["hodge.theta_s"] > 0
