"""What an eorec run imports, checked in fresh interpreters.

Every command is a fresh process, so start-up is paid on every run.  The
value types are named tuples and plain classes because ``dataclasses``
pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``; ``hashlib`` loads
on the first checksum and ``logging`` on the first rejected cache file.
The checks compare module sets, not timings.  The interpreter runs with
``-S``, so that no ``.pth`` file of the site packages adds modules of its
own.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WATCHED = ("dataclasses", "inspect", "hashlib", "logging")

SCRIPT = """
import json, sys
import eorec.cli
argv = json.loads(sys.argv[1])
if argv:
    assert eorec.cli.main(argv) == 0
print(json.dumps(sorted(m for m in json.loads(sys.argv[2]) if m in sys.modules)))
"""


def _loaded(tmp_path, *argv) -> set:
    """The watched modules loaded after importing ``eorec.cli`` and, when
    ``argv`` is given, running ``main(argv)`` in a fresh interpreter."""
    env = dict(os.environ)
    env.pop("EOREC_CACHE_DIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", SCRIPT, json.dumps(argv), json.dumps(WATCHED)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_loads_none_of_the_watched_modules(tmp_path):
    assert _loaded(tmp_path) == set()


def test_a_run_without_a_cache_never_loads_hashlib(tmp_path):
    assert _loaded(tmp_path, "correlator", "--f", "1", "--g", "0", "--h", "4") == set()


def test_a_run_on_an_empty_cache_loads_hashlib_but_not_logging(tmp_path):
    cache = tmp_path / "cache"
    loaded = _loaded(tmp_path, "correlator", "--f", "1", "--g", "0", "--h", "4",
                     "--cache-dir", str(cache))
    assert loaded == {"hashlib"}
    assert (cache / "conventions.json").exists()
