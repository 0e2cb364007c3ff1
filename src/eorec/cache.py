"""Exact on-disk cache of correlator tensors and the calibration record.

One JSON file per (f, g, h, kernel sign, shift-recursion sign), holding the
tensor with rationals serialized as decimal ``p/q`` strings, a format
version and a content checksum.  A version or checksum mismatch, a field
that does not hold the type the format writes (an integer that is not a
boolean, sorted non-negative indices, terms in strictly increasing key
order, a canonical nonzero ``p/q`` string), or a file that is not a UTF-8
JSON object with a checksum, triggers recomputation; stale files are never
silently reused, and every rejection is a warning on the ``eorec`` logger.
The calibration record (``conventions.json``) holds the two signs
calibrated on first use of a cache directory, and is written only then.
The energy sign is not part of it: a record that still carries an
``epsilon`` key loads with the key ignored.
"""

from __future__ import annotations

import json
import os
from math import gcd, lcm
from pathlib import Path

from .recursion import Conventions, CorrDiff
from .scalars import parse_rational

FORMAT_VERSION = 1
ENV_CACHE_DIR = "EOREC_CACHE_DIR"


def _warn(message: str) -> None:
    """Report a rejected file as a warning on the ``eorec`` logger.

    ``logging`` is imported on the first rejection, because importing it at
    start-up costs about 5 ms that a run on a clean cache never uses.  The
    logger carries Python's last-resort handler (the bare message on the
    current stderr) as its own: any handler on the root logger, such as
    pytest's log capture, would otherwise silence it.  Records still
    propagate to the root.
    """
    import logging

    log = logging.getLogger("eorec")
    if not log.handlers:
        log.addHandler(logging.lastResort)
    log.warning(message)


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _checksum(payload: dict) -> str:
    """The SHA-256 of the canonical payload."""
    return _digest(_canonical(payload))


def _digest(text: str) -> str:
    """The SHA-256 of ``text``; ``hashlib`` (OpenSSL) is imported here, so a
    run without a cache never loads it."""
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read_record(path: Path, unreadable: str, stale: str, build):
    """``build`` applied to the payload of the JSON record at ``path``,
    without its checksum.

    None when there is no file, and None with a warning when the file is not
    UTF-8 JSON holding an object with a checksum (``unreadable``), or when
    its format version or checksum does not match or ``build`` finds a field
    missing or malformed (a ``KeyError``, ``TypeError``, ``ValueError`` or,
    for a zero denominator, ``ZeroDivisionError``: ``stale``).
    """
    if not path.exists():
        return None
    try:
        blob = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, OSError):
        blob = None
    if not isinstance(blob, dict) or "checksum" not in blob:
        _warn(unreadable)
        return None
    stored = blob.pop("checksum")
    if blob.get("format_version") == FORMAT_VERSION and stored == _checksum(blob):
        try:
            return build(blob)
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            pass
    _warn(stale)
    return None


def _write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` in one step: a reader or an interrupted
    run sees either the previous file or the new one, never a partial one."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def terms_payload(w: CorrDiff) -> list[dict]:
    """The entries of a tensor in key order, each rendered exactly as
    ``format_rational`` renders its value: its numerator over ``den``
    reduced by one ``gcd``."""
    den = w.den
    out = []
    for idx, c in sorted(w.nums.items()):
        g = gcd(c, den)
        out.append({"n": list(idx), "c": f"{c // g}/{den // g}" if den != g else str(c // g)})
    return out


def corrdiff_payload(w: CorrDiff, conventions: Conventions) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "f": w.f,
        "g": w.g,
        "h": w.h,
        "sigma_kernel": conventions.sigma_kernel,
        "sigma_psirec": conventions.sigma_psirec,
        "terms": terms_payload(w),
    }


def _ints(*values) -> bool:
    """Whether every value is an integer as the format writes one: a JSON
    number, not a boolean."""
    return all(type(v) is int for v in values)


def corrdiff_from_payload(payload: dict) -> CorrDiff:
    """The tensor of a record; a ``ValueError`` unless f, g and h are
    integers and each term holds h sorted non-negative integer indices,
    after the previous term's in key order, and a nonzero coefficient
    string as ``terms_payload`` writes it (``parse_rational``)."""
    f, g, h = payload["f"], payload["g"], payload["h"]
    if not _ints(f, g, h):
        raise ValueError("f, g and h must be integers")
    terms = {}
    last = None
    for t in payload["terms"]:
        idx = t["n"]
        if not (isinstance(idx, list) and len(idx) == h and _ints(*idx)
                and idx == sorted(idx) and min(idx, default=0) >= 0):
            raise ValueError(f"malformed index {idx!r}")
        if last is not None and idx <= last:
            raise ValueError(f"index {idx!r} out of key order")
        c = t["c"]
        p, q = parse_rational(c) if isinstance(c, str) else (0, 1)
        if not p:
            raise ValueError(f"malformed coefficient {c!r}")
        terms[tuple(idx)] = p, q
        last = idx
    # reduced nonzero fractions: their lcm is already the least denominator
    den = lcm(*(q for _, q in terms.values()))
    return CorrDiff(g, h, f, den, {key: p * (den // q) for key, (p, q) in terms.items()})


class CorrCache:
    def __init__(self, directory: str | os.PathLike):
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)

    def _path(self, f: int, g: int, h: int, conv: Conventions) -> Path:
        name = f"corr_f{f}_g{g}_h{h}_k{conv.sigma_kernel}_p{conv.sigma_psirec}.json"
        return self.dir / name

    def load(self, f: int, g: int, h: int, conv: Conventions) -> CorrDiff | None:
        path = self._path(f, g, h, conv)

        def build(blob: dict) -> CorrDiff | None:
            w = corrdiff_from_payload(blob)
            signs = (blob["sigma_kernel"], blob["sigma_psirec"])
            if not _ints(*signs):
                raise ValueError("the signs must be integers")
            if (w.f, w.g, w.h, *signs) != (f, g, h, conv.sigma_kernel, conv.sigma_psirec):
                _warn(f"eorec: mismatched cache key in {path.name}, recomputing")
                return None
            return w

        return _read_record(path, f"eorec: unreadable cache file {path.name}, recomputing",
                            f"eorec: stale or corrupt cache file {path.name}, recomputing",
                            build)

    def store(self, w: CorrDiff, conv: Conventions) -> None:
        """Write the record of ``w`` with one serialisation: "checksum" sorts
        before every other key, so the canonical record is the checksum
        followed by the rest of the canonical payload it hashes."""
        body = _canonical(corrdiff_payload(w, conv))
        path = self._path(w.f, w.g, w.h, conv)
        _write_atomic(path, f'{{"checksum":"{_digest(body)}",{body[1:]}\n')

    # -- calibration record -------------------------------------------

    def _conv_path(self) -> Path:
        return self.dir / "conventions.json"

    def load_conventions(self) -> Conventions | None:
        def build(blob: dict) -> Conventions:
            return Conventions(sigma_kernel=blob["sigma_kernel"],
                               sigma_psirec=blob["sigma_psirec"])

        return _read_record(self._conv_path(),
                            "eorec: unreadable calibration record, recalibrating",
                            "eorec: stale calibration record, recalibrating", build)

    def store_conventions(self, conv: Conventions) -> None:
        payload = {
            "format_version": FORMAT_VERSION,
            "sigma_kernel": conv.sigma_kernel,
            "sigma_psirec": conv.sigma_psirec,
        }
        payload["checksum"] = _checksum(payload)
        _write_atomic(self._conv_path(), _canonical(payload) + "\n")


def default_cache_dir() -> str | None:
    return os.environ.get(ENV_CACHE_DIR) or None
