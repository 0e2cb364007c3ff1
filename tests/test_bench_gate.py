"""The benchmark's three workloads, run in-process through ``eorec.cli.main``,
pass the benchmark's output gate: the golden hashes of
``perfbench/golden.json`` and the eorec-free rechecks of
``perfbench/gate.py``.  verify-warm runs on the cache that the energy-cold
job filled and must leave every cache file as it found it.  The same holds
with the genus cap raised, since no workload reaches it."""

import sys
from pathlib import Path

from eorec import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
_writes_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import gate  # noqa: E402  (read only: no byte code is written into perfbench/)
from run import WORKLOADS  # noqa: E402
sys.dont_write_bytecode = _writes_bytecode


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _run_workloads(tmp_path, capsys):
    golden = gate.golden_hashes()
    cache = tmp_path / "cache"
    snapshot = None
    for name in ("energy-cold", "multipoint-cold", "verify-warm"):
        wl = WORKLOADS[name]
        argv = [wl.command, "--f", ",".join(map(str, wl.framings)), *wl.args]
        if wl.cache is not None:
            argv += ["--cache-dir", str(cache)]
        if wl.cache == "warm":
            snapshot = _files(cache)
        assert cli.main(argv) == 0, name
        stdout = capsys.readouterr().out.encode("utf-8")
        assert gate.check(wl.command, stdout, golden[name], wl.framings, **wl.check) == [], name
    assert snapshot and any(name.startswith("corr_") for name in snapshot)
    assert _files(cache) == snapshot


def test_workloads_pass_the_benchmark_gate(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("EOREC_CACHE_DIR", raising=False)
    _run_workloads(tmp_path, capsys)


def test_raising_the_genus_cap_keeps_the_golden_outputs(tmp_path, monkeypatch, capsys):
    """The workloads run well inside the genus cap, so raising the cap, at
    every module that binds it, must not change what they print."""
    monkeypatch.delenv("EOREC_CACHE_DIR", raising=False)
    bound = [mod for name, mod in list(sys.modules.items())
             if name.startswith("eorec") and hasattr(mod, "HARD_G_CAP")]
    assert bound
    for mod in bound:
        monkeypatch.setattr(mod, "HARD_G_CAP", 11)
    _run_workloads(tmp_path, capsys)
