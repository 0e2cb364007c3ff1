"""The benchmark's three workloads, run in-process through ``eorec.cli.main``,
pass the benchmark's output gate: the golden hashes of
``perfbench/golden.json`` and the eorec-free rechecks of
``perfbench/gate.py``.  verify-warm runs on the cache that the energy-cold
job filled and must leave every cache file as it found it."""

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


def test_workloads_pass_the_benchmark_gate(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("EOREC_CACHE_DIR", raising=False)
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
