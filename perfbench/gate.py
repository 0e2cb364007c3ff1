"""Output gate: canonical form, golden hashes and independent rechecks.

A job passes when eorec exited 0, the SHA-256 of its canonical stdout
equals the golden hash recorded from the seed engine (``golden.json``),
and the numbers pass a recheck that does not import ``eorec``:

* every free-energy figure against the Bernoulli closed form
      F(g) = (1/2) (-1)^g |B_2g| |B_2g-2| / (2g (2g-2) (2g-2)!),
  computed here from scratch: ``|direct| = |F(g)|`` and
  ``direct = shortcut``;
* genus-0 tensors against Witten-Kontsevich: W(0,h) has only entries whose
  indices sum to h-3, and each equals (-1)^h (f(f+1))^(h-1) <tau_n1 ... tau_nh>_0
  with <...>_0 = (h-3)! / prod n_i!.

The seed only reorders the framings, so the canonical form sorts every
per-framing list; the hash then does not depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from math import factorial

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def golden_hashes() -> dict[str, str]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def canonical(payload: dict) -> str:
    out = dict(payload)
    if "results" in out:
        out["results"] = sorted(out["results"], key=lambda r: r["f"])
    if "rows" in out:
        out["rows"] = sorted(out["rows"], key=lambda r: (r.get("g", 0), r["f"]))
    if "checks" in out:
        out["checks"] = sorted(out["checks"], key=lambda c: (
            c["name"], json.dumps(c["params"], sort_keys=True)))
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


def digest(payload: dict) -> str:
    return hashlib.sha256(canonical(payload).encode("utf-8")).hexdigest()


# -- independent references ---------------------------------------------

def bernoulli(n: int) -> Fraction:
    """B_n by the Akiyama-Tanigawa algorithm (B_1 = +1/2; only even n used)."""
    a = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    return a[0]


def closed_form_energy(g: int) -> Fraction:
    return (Fraction((-1) ** g, 2) * abs(bernoulli(2 * g)) * abs(bernoulli(2 * g - 2))
            / (2 * g * (2 * g - 2) * factorial(2 * g - 2)))


def wk_genus0(idx: list[int]) -> Fraction:
    """<tau_n1 ... tau_nh>_0 = (h-3)! / prod n_i!  when sum n_i = h - 3."""
    value = Fraction(factorial(len(idx) - 3))
    for n in idx:
        value /= factorial(n)
    return value


def _energy_ok(g: int, direct: Fraction, shortcut: Fraction) -> bool:
    return abs(direct) == abs(closed_form_energy(g)) and direct == shortcut


def _recheck_free_energy(payload: dict, framings, g_max: int) -> list[str]:
    errors = []
    rows = payload.get("rows", [])
    cells = sorted((r["g"], r["f"]) for r in rows)
    want = sorted((g, f) for g in range(2, g_max + 1) for f in framings)
    if cells != want:
        errors.append(f"free-energy rows cover {cells}, expected {want}")
    for r in rows:
        g = r["g"]
        if r["direct"] is None or r["shortcut"] is None:
            errors.append(f"row g={g} f={r['f']} has no value")
            continue
        if not _energy_ok(g, Fraction(r["direct"]), Fraction(r["shortcut"])):
            errors.append(f"row g={g} f={r['f']} disagrees with the Bernoulli closed form")
        if Fraction(r["reference"]) != closed_form_energy(g):
            errors.append(f"row g={g} reference is not the closed form")
    if payload.get("pass") is not True:
        errors.append("free-energy reports failure")
    return errors


def _recheck_verify(payload: dict, framings, g_max: int) -> list[str]:
    errors = []
    energies = [c for c in payload.get("checks", []) if c["name"] == "free-energy"]
    cells = sorted((c["params"]["g"], c["params"]["f"]) for c in energies)
    want = sorted((g, f) for g in range(2, g_max + 1) for f in framings)
    if cells != want:
        errors.append(f"free-energy checks cover {cells}, expected {want}")
    for c in energies:
        g = c["params"]["g"]
        direct, shortcut = (part.split()[-1] for part in c["actual"].split(","))
        if not _energy_ok(g, Fraction(direct), Fraction(shortcut)):
            errors.append(f"check g={g} f={c['params']['f']} disagrees with the "
                          f"Bernoulli closed form")
    if payload.get("summary", {}).get("failed") != 0:
        errors.append("verify reports failed checks")
    return errors


def _recheck_genus0(payload: dict, framings, h: int) -> list[str]:
    errors = []
    results = payload.get("results", [])
    if sorted(r["f"] for r in results) != sorted(framings):
        errors.append("correlator results do not cover the framings")
    for r in results:
        f = r["f"]
        for t in r["terms"]:
            idx, c = t["n"], Fraction(t["c"])
            if sum(idx) != h - 3:
                errors.append(f"W(0,{h}) at f={f} has an entry {idx} below top degree")
                continue
            want = (-1) ** h * Fraction(f * (f + 1)) ** (h - 1) * wk_genus0(idx)
            if c != want:
                errors.append(f"W(0,{h}) at f={f} entry {idx} is {c}, "
                              f"Witten-Kontsevich gives {want}")
    return errors


def check(kind: str, stdout: bytes, golden: str, framings, **params) -> list[str]:
    """Reasons the output fails the gate; empty when it passes."""
    try:
        payload = json.loads(stdout.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return [f"stdout is not one JSON document: {exc}"]
    errors = []
    got = digest(payload)
    if got != golden:
        errors.append(f"canonical output hash {got[:16]} differs from golden {golden[:16]}")
    try:
        if kind == "free-energy":
            errors += _recheck_free_energy(payload, framings, params["g_max"])
        elif kind == "verify":
            errors += _recheck_verify(payload, framings, params["g_max"])
        elif kind == "correlator":
            errors += _recheck_genus0(payload, framings, params["h"])
        else:
            raise ValueError(f"unknown output kind {kind!r}")
    except (KeyError, TypeError, ValueError, ZeroDivisionError, AttributeError) as exc:
        errors.append(f"output does not have the expected shape: {exc!r}")
    return errors
