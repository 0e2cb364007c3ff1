import errno
import hashlib
import json
import logging
import os

import pytest

from eorec import cli
from eorec.cache import CorrCache, _canonical, _checksum, corrdiff_payload
from eorec.cli import main
from eorec.recursion import Conventions, CorrDiff, CorrStore

CONV = Conventions(sigma_kernel=-1, sigma_psirec=1)


class TestCache:
    def test_roundtrip(self, tmp_path):
        cache = CorrCache(tmp_path)
        w = CorrDiff(g=1, h=1, f=1, den=24, nums={(0,): 3, (1,): -2})
        cache.store(w, CONV)
        back = cache.load(1, 1, 1, CONV)
        assert back == w

    def test_miss_on_other_conventions(self, tmp_path):
        cache = CorrCache(tmp_path)
        w = CorrDiff(g=1, h=1, f=1, den=8, nums={(0,): 1})
        cache.store(w, CONV)
        assert cache.load(1, 1, 1, Conventions(sigma_kernel=1, sigma_psirec=1)) is None

    def test_corruption_triggers_recompute(self, tmp_path, capsys):
        cache = CorrCache(tmp_path)
        w = CorrDiff(g=1, h=1, f=1, den=8, nums={(0,): 1})
        cache.store(w, CONV)
        path = next(tmp_path.glob("corr_*.json"))
        blob = json.loads(path.read_text())
        blob["terms"][0]["c"] = "1/7"  # tamper without fixing the checksum
        path.write_text(json.dumps(blob))
        assert cache.load(1, 1, 1, CONV) is None
        assert "recomputing" in capsys.readouterr().err

    @staticmethod
    def _stored(tmp_path):
        cache = CorrCache(tmp_path)
        cache.store(CorrDiff(g=1, h=1, f=1, den=8, nums={(0,): 1}), CONV)
        return cache, next(tmp_path.glob("corr_*.json"))

    @staticmethod
    def _warnings(caplog):
        return [(r.name, r.levelno, r.getMessage()) for r in caplog.records]

    def test_unreadable_file_is_logged(self, tmp_path, caplog):
        cache, path = self._stored(tmp_path)
        path.write_text("{not json")
        assert cache.load(1, 1, 1, CONV) is None
        assert self._warnings(caplog) == [(
            "eorec", logging.WARNING,
            f"eorec: unreadable cache file {path.name}, recomputing")]

    @pytest.mark.parametrize("terms", [
        [{"n": [0], "c": "1/0"}],
        [{"n": [0], "c": "0"}, {"n": [1], "c": "-1/12"}],
        [{"n": [0], "c": "1/8"}, {"n": [0], "c": "1/7"}],
        [{"n": [1], "c": "-1/12"}, {"n": [0], "c": "1/8"}],
    ], ids=["zero-denominator", "zero-coefficient", "repeated-index", "unsorted-terms"])
    def test_noncanonical_terms_are_stale(self, tmp_path, caplog, terms):
        """Terms that ``terms_payload`` never writes are rejected even under
        a valid checksum: a warm run must not print what a cold one cannot."""
        cache, path = self._stored(tmp_path)
        blob = json.loads(path.read_text())
        del blob["checksum"]
        blob["terms"] = terms
        blob["checksum"] = _checksum(blob)
        path.write_text(_canonical(blob) + "\n")
        assert cache.load(1, 1, 1, CONV) is None
        assert self._warnings(caplog) == [(
            "eorec", logging.WARNING,
            f"eorec: stale or corrupt cache file {path.name}, recomputing")]

    def test_stale_file_is_logged(self, tmp_path, caplog):
        cache, path = self._stored(tmp_path)
        blob = json.loads(path.read_text())
        blob["format_version"] = 0
        path.write_text(json.dumps(blob))
        assert cache.load(1, 1, 1, CONV) is None
        assert self._warnings(caplog) == [(
            "eorec", logging.WARNING,
            f"eorec: stale or corrupt cache file {path.name}, recomputing")]

    def test_mismatched_key_is_logged(self, tmp_path, caplog):
        cache, path = self._stored(tmp_path)
        other = cache._path(2, 1, 1, CONV)
        path.rename(other)  # an intact record of f = 1 under the f = 2 name
        assert cache.load(2, 1, 1, CONV) is None
        assert self._warnings(caplog) == [(
            "eorec", logging.WARNING,
            f"eorec: mismatched cache key in {other.name}, recomputing")]

    def test_stale_calibration_record_is_logged(self, tmp_path, caplog):
        cache = CorrCache(tmp_path)
        cache.store_conventions(CONV)
        path = tmp_path / "conventions.json"
        blob = json.loads(path.read_text())
        blob["sigma_psirec"] = -1  # tamper without fixing the checksum
        path.write_text(json.dumps(blob))
        assert cache.load_conventions() is None
        assert self._warnings(caplog) == [(
            "eorec", logging.WARNING, "eorec: stale calibration record, recalibrating")]

    def test_unreadable_calibration_record_is_logged(self, tmp_path, caplog):
        cache = CorrCache(tmp_path)
        (tmp_path / "conventions.json").write_text("{}")  # no checksum
        assert cache.load_conventions() is None
        assert self._warnings(caplog) == [(
            "eorec", logging.WARNING,
            "eorec: unreadable calibration record, recalibrating")]

    def test_rejection_reaches_stderr_once(self, tmp_path, capsys):
        cache, path = self._stored(tmp_path)
        path.write_text("{not json")
        cache.load(1, 1, 1, CONV)
        assert capsys.readouterr().err == \
            f"eorec: unreadable cache file {path.name}, recomputing\n"

    def test_store_uses_cache(self, tmp_path):
        cache = CorrCache(tmp_path)
        a = CorrStore(1, CONV, cache=cache)
        first = a.correlator(2, 1)
        b = CorrStore(1, CONV, cache=cache)
        second = b.correlator(2, 1)
        assert first.coeffs == second.coeffs
        assert (tmp_path / "corr_f1_g2_h1_k-1_p1.json").exists()

    def test_conventions_record_roundtrip(self, tmp_path):
        cache = CorrCache(tmp_path)
        assert cache.load_conventions() is None
        cache.store_conventions(CONV)
        assert cache.load_conventions() == CONV
        assert set(json.loads((tmp_path / "conventions.json").read_text())) == {
            "checksum", "format_version", "sigma_kernel", "sigma_psirec"}

    @pytest.mark.parametrize("epsilon", [-1, 1, None])
    def test_record_with_an_energy_sign_loads_unwarned(self, tmp_path, caplog, epsilon):
        """A checksummed record that still carries ``epsilon`` loads its
        signs, with the key ignored and no warning."""
        payload = {"format_version": 1, "sigma_kernel": -1, "sigma_psirec": 1,
                   "epsilon": epsilon}
        payload["checksum"] = _checksum(payload)
        (tmp_path / "conventions.json").write_text(_canonical(payload) + "\n")
        assert CorrCache(tmp_path).load_conventions() == CONV
        assert caplog.records == []

    def test_rationals_serialized_as_strings(self, tmp_path):
        w = CorrDiff(g=0, h=3, f=2, den=1, nums={(0, 0, 0): -36})
        payload = corrdiff_payload(w, CONV)
        assert payload["terms"] == [{"n": [0, 0, 0], "c": "-36"}]

    def test_every_record_is_the_two_pass_serialisation(self, capsys, tmp_path):
        """``store`` serialises a record once and splices the checksum in
        front; every file of a deep run equals the record serialised with
        its checksum as one more key."""
        assert main(["free-energy", "--f", "1,2,3", "--g-max", "6",
                     "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        files = sorted(tmp_path.iterdir())
        assert len(files) == 79
        for path in files:
            text = path.read_text(encoding="utf-8")
            payload = json.loads(text)
            del payload["checksum"]
            assert text == _canonical({**payload, "checksum": _checksum(payload)}) + "\n", \
                path.name

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, caplog):
        cache = CorrCache(tmp_path)
        old = CorrDiff(g=1, h=1, f=1, den=8, nums={(0,): 1})
        cache.store(old, CONV)
        cache.store_conventions(CONV)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def interrupted(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", interrupted)
        new = CorrDiff(g=1, h=1, f=1, den=7, nums={(0,): 1})
        cache.store(new, CONV)
        cache.store_conventions(Conventions(sigma_kernel=1, sigma_psirec=1))
        monkeypatch.undo()
        assert self._warnings(caplog) == [
            ("eorec", logging.WARNING,
             f"eorec: cannot write cache file {name} (disk full), continuing uncached")
            for name in (cache._path(1, 1, 1, CONV).name, "conventions.json")]
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert cache.load(1, 1, 1, CONV).coeffs == old.coeffs
        assert cache.load_conventions() == CONV


#: calls rejected for their indices -> (exit code, message)
REJECTED = {
    "correlator --g 7 --h 1": (2, "beyond the desk-scale cap"),
    "correlator --g 0 --h 14": (2, "beyond the desk-scale cap"),
    "correlator --g 0 --h 1": (2, "W(0,1) is a recursion base case with no tensor form"),
    "correlator --g 0 --h 2": (2, "W(0,2) is a recursion base case with no tensor form"),
    "correlator --g -1 --h 5": (2, "invalid correlator indices (g=-1, h=5)"),
    "hodge --g 0": (2, "--g must be between 1 and 6"),
    "hodge --g 7": (2, "--g must be between 1 and 6"),
    "free-energy --g-max 1": (2, "--g-max must be between 2 and 6"),
    "free-energy --g-max 7": (2, "--g-max must be between 2 and 6"),
    "verify --g-max -1": (2, "--g-max must be between 0 and 6"),
    "verify --g-max 7": (2, "--g-max must be between 0 and 6"),
}

#: bytes that make a cache file unreadable: JSON that is not an object, or not UTF-8
CORRUPT = {"null": b"null", "list": b"[]", "string": b'"x"', "not-utf8": b"\xff\xfe{}"}

#: cache file -> the warning its rejection logs
UNREADABLE = {
    "corr_f1_g1_h1_k-1_p1.json":
        "eorec: unreadable cache file corr_f1_g1_h1_k-1_p1.json, recomputing",
    "conventions.json": "eorec: unreadable calibration record, recalibrating",
}


def _bad_sign(blob):
    blob["sigma_kernel"] = 2


def _no_sign(blob):
    del blob["sigma_kernel"]


def _bad_rational(blob):
    blob["terms"][0]["c"] = "x/y"


def _set(*path_and_value):
    """An edit that puts the value at the path of keys and list positions."""
    *path, key, value = path_and_value

    def edit(blob):
        for step in path:
            blob = blob[step]
        blob[key] = value

    return edit


CORR = "corr_f1_g1_h1_k-1_p1.json"
STALE_CORR = f"eorec: stale or corrupt cache file {CORR}, recomputing"
STALE_CONV = "eorec: stale calibration record, recalibrating"


#: a field edit that leaves a record checksummed but unparsable -> (file, warning)
MALFORMED = {
    "sigma_kernel-2": (_bad_sign, "conventions.json",
                       "eorec: stale calibration record, recalibrating"),
    "no-sigma_kernel": (_no_sign, "conventions.json",
                        "eorec: stale calibration record, recalibrating"),
    "rational-x/y": (_bad_rational, "corr_f1_g1_h1_k-1_p1.json",
                     "eorec: stale or corrupt cache file corr_f1_g1_h1_k-1_p1.json, "
                     "recomputing"),
    # each of these was accepted, and echoed or crashed on, by the record
    # check that compared values alone
    "g-true": (_set("g", True), CORR, STALE_CORR),
    "f-true": (_set("f", True), CORR, STALE_CORR),
    "sigma_psirec-true-in-tensor": (_set("sigma_psirec", True), CORR, STALE_CORR),
    "n-true": (_set("terms", 1, "n", [True]), CORR, STALE_CORR),
    "n-float": (_set("terms", 0, "n", [0.0]), CORR, STALE_CORR),
    "n-string": (_set("terms", 0, "n", ["0"]), CORR, STALE_CORR),
    "n-negative": (_set("terms", 0, "n", [-2]), CORR, STALE_CORR),
    "n-too-long": (_set("terms", 0, "n", [0, 0]), CORR, STALE_CORR),
    "c-float": (_set("terms", 0, "c", 0.1), CORR, STALE_CORR),
    "c-not-lowest-terms": (_set("terms", 0, "c", "2/16"), CORR, STALE_CORR),
    # strings that ``Fraction`` reads but the cache never writes
    "c-plus-sign": (_set("terms", 0, "c", "+1/8"), CORR, STALE_CORR),
    "c-leading-space": (_set("terms", 0, "c", " 1/8"), CORR, STALE_CORR),
    "c-zero-padded-denominator": (_set("terms", 0, "c", "1/08"), CORR, STALE_CORR),
    "c-underscore": (_set("terms", 0, "c", "1_0/3"), CORR, STALE_CORR),
    "c-negative-denominator": (_set("terms", 0, "c", "1/-8"), CORR, STALE_CORR),
    "c-zero-padded-integer": (_set("terms", 0, "c", "08"), CORR, STALE_CORR),
    "c-zero-over-five": (_set("terms", 0, "c", "0/5"), CORR, STALE_CORR),
    "sigma_psirec-true": (_set("sigma_psirec", True), "conventions.json", STALE_CONV),
}


class TestCli:
    def test_correlator_json(self, capsys):
        assert main(["correlator", "--f", "1", "--g", "1", "--h", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["conventions"]["sigma_kernel"] == -1
        assert out["results"][0]["terms"] == [
            {"n": [0], "c": "1/8"}, {"n": [1], "c": "-1/12"}]

    def test_correlator_framing_two(self, capsys):
        assert main(["correlator", "--f", "2", "--g", "0", "--h", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"][0]["terms"] == [{"n": [0, 0, 0], "c": "-36"}]

    def test_correlator_base_case_errors(self, capsys):
        assert main(["correlator", "--f", "1", "--g", "0", "--h", "2"]) == 2
        assert "no tensor form" in capsys.readouterr().err

    def test_free_energy_rows(self, capsys):
        assert main(["free-energy", "--f", "1,2", "--g-max", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["conventions"]["epsilon"] == -1
        assert out["framing_independent"] is True
        rows = out["rows"]
        assert {r["f"] for r in rows} == {1, 2}
        assert all(r["direct"] == "-1/5760" for r in rows)
        assert all(r["pass"] for r in rows)

    def test_hodge_output(self, capsys):
        assert main(["hodge", "--f", "1", "--g", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        row = out["rows"][0]
        assert row["bracket"]["1"] == "-1/1440"
        assert row["bracket1_over_ff1"] == "-1/2880"
        assert row["dilaton_sign"] == -1

    def test_hodge_genus_one(self, capsys):
        assert main(["hodge", "--f", "2", "--g", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rows"][0]["bracket"]["0"] == "7/24"

    def test_verify_passes(self, capsys, tmp_path):
        code = main(["verify", "--f", "1", "--g-max", "2",
                     "--cache-dir", str(tmp_path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["summary"]["failed"] == 0
        assert out["conventions"] == {
            "sigma_kernel": -1, "sigma_psirec": 1, "epsilon": -1}

    def test_verify_warm_cache_identical(self, capsys, tmp_path):
        args = ["verify", "--f", "1", "--g-max", "2", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert cold == warm

    @pytest.mark.parametrize("argv", ["correlator --g 1 --h 2", "hodge --g 2"])
    def test_warm_output_after_an_energy_run_equals_cold(self, capsys, tmp_path, argv):
        """An energy run into the same cache changes nothing these commands
        print: their energy sign is null, warm or cold."""
        argv = argv.split() + ["--f", "1,2"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert json.loads(cold)["conventions"]["epsilon"] is None
        cache = ["--cache-dir", str(tmp_path)]
        assert main(["free-energy", "--f", "1,2", "--g-max", "2", *cache]) == 0
        capsys.readouterr()
        assert main(argv + cache) == 0
        assert capsys.readouterr().out == cold

    @pytest.mark.parametrize("argv", ["verify --g-max 2", "free-energy --g-max 2"])
    def test_warm_energy_run_writes_nothing(self, capsys, tmp_path, monkeypatch, argv):
        """A fully warm run reads the cache and the calibration record and
        writes no file, so it succeeds with the cold output even when every
        replace fails."""
        argv = argv.split() + ["--f", "1", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out

        def failing(src, dst):
            raise OSError("read-only")

        monkeypatch.setattr(os, "replace", failing)
        assert main(argv) == 0
        assert capsys.readouterr().out == cold

    def test_verify_detects_forced_wrong_kernel_sign(self, capsys):
        code = main(["verify", "--f", "1", "--g-max", "2",
                     "--override-sign-kernel", "1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        names = {c["name"] for c in out["checks"] if not c["pass"]}
        assert "known-correlator" in names

    def test_g_max_cap(self, capsys):
        assert main(["verify", "--f", "1", "--g-max", "7"]) == 2
        assert capsys.readouterr().err == "eorec: --g-max must be between 0 and 6\n"

    @pytest.mark.parametrize("g", [0, 7, 9])
    def test_hodge_genus_cap(self, capsys, g):
        assert main(["hodge", "--f", "1", "--g", str(g)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--g must be between 1 and 6" in captured.err

    @pytest.mark.parametrize("argv", list(REJECTED))
    def test_rejected_call_leaves_the_cache_empty(self, capsys, tmp_path, argv):
        """Indices out of range are rejected before calibration, so no
        calibration record is written."""
        code, message = REJECTED[argv]
        argv = argv.split() + ["--f", "1", "--cache-dir", str(tmp_path)]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("content", list(CORRUPT))
    @pytest.mark.parametrize("name", list(UNREADABLE))
    def test_corrupt_file_is_recomputed(self, capsys, caplog, tmp_path, name, content):
        """A file that is not a UTF-8 JSON object is rejected with one warning,
        and the run recomputes it with the output of a clean cache."""
        argv = ["correlator", "--f", "1", "--g", "1", "--h", "1",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        clean = capsys.readouterr().out
        (tmp_path / name).write_bytes(CORRUPT[content])
        caplog.clear()
        assert main(argv) == 0
        assert capsys.readouterr().out == clean
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("eorec", logging.WARNING, UNREADABLE[name])]

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_record_is_recomputed(self, capsys, caplog, tmp_path, case):
        """A record whose version and checksum match but whose fields do not
        parse is stale: one warning, and the output of a clean cache."""
        edit, name, warning = MALFORMED[case]
        argv = ["correlator", "--f", "1", "--g", "1", "--h", "1",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        clean = capsys.readouterr().out
        path = tmp_path / name
        blob = json.loads(path.read_text())
        del blob["checksum"]
        edit(blob)
        blob["checksum"] = _checksum(blob)
        path.write_text(_canonical(blob) + "\n")
        caplog.clear()
        assert main(argv) == 0
        assert capsys.readouterr().out == clean
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("eorec", logging.WARNING, warning)]

    @pytest.mark.parametrize("name, unreadable", [
        ("conventions.json", "eorec: unreadable calibration record, recalibrating"),
        ("corr_f1_g2_h1_k-1_p1.json",
         "eorec: unreadable cache file corr_f1_g2_h1_k-1_p1.json, recomputing")],
        ids=["conventions", "tensor"])
    def test_failed_write_is_a_warning(self, capsys, caplog, tmp_path, name, unreadable):
        """A directory at a record's path fails the read and the write: the
        run prints the uncached output and exit code, with one warning for
        each, no traceback and no temporary file left."""
        argv = ["free-energy", "--f", "1", "--g-max", "2"]
        assert main(argv) == 0
        uncached = capsys.readouterr()
        cache_dir = tmp_path / "D"
        (cache_dir / name).mkdir(parents=True)
        caplog.clear()
        assert main(argv + ["--cache-dir", str(cache_dir)]) == 0
        captured = capsys.readouterr()
        assert captured.out == uncached.out
        assert "Traceback" not in captured.err
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("eorec", logging.WARNING, unreadable),
            ("eorec", logging.WARNING, f"eorec: cannot write cache file {name} "
                                       f"({os.strerror(errno.EISDIR)}), continuing uncached")]
        assert (cache_dir / name).is_dir()
        assert not list(cache_dir.glob(".*.tmp"))
        assert (cache_dir / "corr_f1_g1_h1_k-1_p1.json").is_file()

    def test_window_margin_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["free-energy", "--window-margin", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --window-margin" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["flag", "env"])
    @pytest.mark.parametrize("below", [False, True])
    def test_unusable_cache_directory_exits_cleanly(self, capsys, tmp_path, monkeypatch,
                                                     where, below):
        """A cache path that is a file, or lies under one, is reported before
        anything is calibrated or written, with no traceback."""
        blocker = tmp_path / "F"
        blocker.write_text("not a directory")
        path = str(blocker / "sub" if below else blocker)
        argv = ["correlator", "--f", "1", "--g", "0", "--h", "3"]
        if where == "flag":
            argv += ["--cache-dir", path]
        else:
            monkeypatch.setenv("EOREC_CACHE_DIR", path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"eorec: cannot use cache directory {path}: ")
        assert "Traceback" not in captured.err
        assert [p.name for p in tmp_path.iterdir()] == ["F"]
        assert blocker.read_text() == "not a directory"

    @pytest.mark.parametrize("argv", [
        "correlator --f 1,1 --g 0 --h 3",
        "free-energy --f 1,2,1 --g-max 2",
        "verify --f 2,2 --g-max 0",
    ])
    def test_repeated_framing_is_rejected(self, capsys, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv.split() + ["--cache-dir", str(tmp_path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --f: framings must not repeat" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_env_var_cache_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("EOREC_CACHE_DIR", str(tmp_path))
        assert main(["correlator", "--f", "1", "--g", "1", "--h", "1"]) == 0
        capsys.readouterr()
        assert (tmp_path / "conventions.json").exists()
        assert (tmp_path / "corr_f1_g1_h1_k-1_p1.json").exists()

    def test_text_format(self, capsys):
        assert main(["correlator", "--f", "1", "--g", "1", "--h", "1",
                     "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "sigma_kernel=-1" in out
        assert "[0]: 1/8" in out


class _Stop(Exception):
    pass


class TestAuditStores:
    """``verify`` and sign overrides run on audit stores, which contract
    every entry; every other command fills by string and dilaton."""

    @pytest.mark.parametrize("argv,audit", [
        ("verify --g-max 0", True),
        ("free-energy --override-sign-kernel 1", True),
        ("correlator --g 0 --h 3 --override-sign-psirec -1", True),
        ("hodge --g 1 --override-sign-kernel -1 --override-sign-psirec 1", True),
        ("free-energy", False),
        ("correlator --g 0 --h 3", False),
        ("hodge --g 1", False),
    ])
    def test_main_picks_the_store_mode(self, monkeypatch, argv, audit):
        """``cli.main`` reads ``build_stores`` from the module globals at call
        time, where the benchmark's child process patches it."""
        seen = []

        def spy(framings, **kwargs):
            seen.append(kwargs["audit"])
            raise _Stop

        monkeypatch.setattr(cli, "build_stores", spy)
        with pytest.raises(_Stop):
            main(argv.split() + ["--f", "1"])
        assert seen == [audit]

    def test_both_modes_write_the_same_cache(self, capsys, tmp_path, monkeypatch):
        argv = ["free-energy", "--f", "1,2,3", "--g-max", "4", "--cache-dir"]
        assert main(argv + [str(tmp_path / "default")]) == 0
        out = capsys.readouterr().out
        build = cli.build_stores
        monkeypatch.setattr(cli, "build_stores",
                            lambda *a, **kw: build(*a, **{**kw, "audit": True}))
        assert main(argv + [str(tmp_path / "audit")]) == 0
        assert capsys.readouterr().out == out

        def files(name):
            return {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}

        assert len(files("default")) == 40
        assert files("default") == files("audit")

    def test_free_energy_survives_a_wrong_kernel_sign(self, capsys):
        """A flipped kernel breaks string and dilaton; on a fill store W(2,2)
        failed its free-slot check.  The stdout digest is that of the full
        contraction: the energies agree up to the sign epsilon = 1."""
        assert main(["free-energy", "--f", "1,2", "--override-sign-kernel", "1"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["conventions"]["epsilon"] == 1
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "80703adf0ab4625994c4bd52cedc3b06df474fc8865e557d1b39f750b3836ad0")

    def test_verify_reports_a_wrong_kernel_sign(self, capsys):
        assert main(["verify", "--f", "2", "--override-sign-kernel", "1"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["summary"] == {
            "total": 32, "passed": 29, "failed": 3}
        assert captured.err == ""
