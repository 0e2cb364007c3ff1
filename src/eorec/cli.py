"""Command-line front end.

Subcommands: ``correlator``, ``free-energy``, ``hodge``, ``verify``.  Exact
rationals are serialized as decimal ``p/q`` strings; JSON output is
canonical (sorted keys, newline-terminated) so identical configurations
produce byte-identical output.  The default cache directory comes from the
``EOREC_CACHE_DIR`` environment variable; calibration runs automatically on
first use of a cache directory and its two signs are persisted there, once.
The energy sign is computed by ``free-energy`` and ``verify`` and printed
by them alone; the other commands print it as null.  Indices out of range,
a cache path that cannot be made a directory and a framing given twice are
rejected with exit status 2 before anything is calibrated or written.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cache import CorrCache, default_cache_dir, terms_payload
from .errors import EorecError
from .hodge import dilaton, energies_by_genus, energy_table, hodge_extract
from .recursion import HARD_G_CAP, Conventions, calibrate, unrepresentable
from .scalars import format_rational
from .verify import (build_stores, conventions_line, conventions_payload,
                     run_verification)


def _parse_framings(text: str) -> list[int]:
    try:
        fs = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("framings must be a comma list of integers")
    if not fs or any(f < 1 for f in fs):
        raise argparse.ArgumentTypeError("framings must be integers >= 1")
    if len(set(fs)) < len(fs):
        raise argparse.ArgumentTypeError("framings must not repeat")
    return fs


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--f", type=_parse_framings, default=[1, 2, 3],
                   metavar="F[,F...]", help="framings (comma list, default 1,2,3)")
    p.add_argument("--cache-dir", default=None,
                   help="exact tensor cache directory (default: $EOREC_CACHE_DIR)")
    p.add_argument("--format", choices=("json", "text"), default="json",
                   dest="output_format", help="output format")
    p.add_argument("--override-sign-kernel", type=int, choices=(1, -1), default=None,
                   help="force the kernel orientation sign (audit)")
    p.add_argument("--override-sign-psirec", type=int, choices=(1, -1), default=None,
                   help="force the basis shift-recursion sign (audit)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eorec",
        description="Exact topological recursion on the framed vertex mirror curve")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("correlator", help="compute one correlator tensor")
    _add_common(p)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--h", type=int, required=True)

    p = sub.add_parser("free-energy", help="free energies against the closed form")
    _add_common(p)
    p.add_argument("--g-max", type=int, default=3)

    p = sub.add_parser("hodge", help="triple-Hodge brackets from one-point tensors")
    _add_common(p)
    p.add_argument("--g", type=int, required=True)

    p = sub.add_parser("verify", help="run the bundled verification suite")
    _add_common(p)
    p.add_argument("--g-max", type=int, default=3)

    return parser


def _resolve_conventions(args, cache: CorrCache | None) -> Conventions:
    """Persisted or calibrated conventions, with audit overrides applied.

    Signs calibrated into a cache directory are written to its record;
    overridden signs never are.
    """
    ko, po = args.override_sign_kernel, args.override_sign_psirec
    if ko is not None and po is not None:
        return Conventions(sigma_kernel=ko, sigma_psirec=po)
    conv = cache.load_conventions() if cache else None
    if conv is None:
        conv = calibrate(args.f[0])
        if cache is not None:
            cache.store_conventions(conv)
    return Conventions(sigma_kernel=conv.sigma_kernel if ko is None else ko,
                       sigma_psirec=conv.sigma_psirec if po is None else po)


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ": ")) + "\n")


def _out_of_range(args) -> str | None:
    """Why the command rejects its indices, checked before anything is
    calibrated or written."""
    if args.command in ("free-energy", "verify"):
        minimum = 2 if args.command == "free-energy" else 0
        if not minimum <= args.g_max <= HARD_G_CAP:
            return f"--g-max must be between {minimum} and {HARD_G_CAP}"
    elif args.command == "correlator":
        if args.g > HARD_G_CAP or 2 * args.g - 2 + args.h > 2 * HARD_G_CAP - 1:
            return (f"correlator indices beyond the desk-scale cap "
                    f"(g <= {HARD_G_CAP}, 2g-2+h <= {2 * HARD_G_CAP - 1})")
        return unrepresentable(args.g, args.h)
    elif not 1 <= args.g <= HARD_G_CAP:  # hodge
        return f"--g must be between 1 and {HARD_G_CAP} for Hodge extraction"
    return None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    error = _out_of_range(args)
    if error:
        print(f"eorec: {error}", file=sys.stderr)
        return 2
    cache_dir = args.cache_dir or default_cache_dir()
    try:
        cache = CorrCache(cache_dir) if cache_dir else None
    except OSError as exc:
        print(f"eorec: cannot use cache directory {cache_dir}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    try:
        conv = _resolve_conventions(args, cache)
        # verify and sign overrides contract every entry: a wrong sign breaks
        # string and dilaton, which the fill would otherwise carry upwards
        audit = (args.command == "verify" or args.override_sign_kernel is not None
                 or args.override_sign_psirec is not None)
        stores = build_stores(args.f, conventions=conv, cache=cache, audit=audit)
    except EorecError as exc:
        print(f"eorec: {exc}", file=sys.stderr)
        return 2

    commands = {"correlator": _cmd_correlator, "hodge": _cmd_hodge,
                "free-energy": _cmd_free_energy, "verify": _cmd_verify}
    return commands[args.command](args, stores)


def _cmd_correlator(args, stores) -> int:
    conv = stores[0].conventions
    results = []
    for store in stores:
        w = store.correlator(args.g, args.h)
        results.append({"f": store.f, "g": w.g, "h": w.h, "terms": terms_payload(w)})
    if args.output_format == "json":
        _emit({"command": "correlator", "conventions": conventions_payload(conv),
               "results": results})
    else:
        print(conventions_line(conv))
        for r in results:
            print(f"W(g={r['g']}, h={r['h']}) at f={r['f']}:")
            for t in r["terms"]:
                print(f"  {t['n']}: {t['c']}")
    return 0


def _cmd_hodge(args, stores) -> int:
    conv = stores[0].conventions
    rows = []
    ratios = set()
    for store in stores:
        table = hodge_extract(store.correlator(args.g, 1))
        row = {"f": store.f,
               "bracket": {str(n): format_rational(c)
                           for n, c in sorted(table.bracket.items())}}
        d = dilaton(table)
        row["bracket1_over_ff1"] = format_rational(d.ratio)
        ratios.add(d.ratio)
        if d.target is not None:
            row["dilaton_target"] = format_rational(d.target)
            row["dilaton_sign"] = d.sign
        rows.append(row)
    payload = {"command": "hodge", "g": args.g,
               "conventions": conventions_payload(conv),
               "rows": rows, "framing_independent": len(ratios) == 1}
    if args.output_format == "json":
        _emit(payload)
    else:
        print(f"brackets at genus {args.g} "
              f"(sigma_kernel={conv.sigma_kernel}, sigma_psirec={conv.sigma_psirec}):")
        for row in rows:
            print(f"  f={row['f']}: " + ", ".join(
                f"<tau_{n}...> = {c}" for n, c in row["bracket"].items()))
            extra = f"    bracket[1]/(f(f+1)) = {row['bracket1_over_ff1']}"
            if "dilaton_target" in row:
                extra += (f", target (2g-2)*triple = {row['dilaton_target']}"
                          f", sign {row['dilaton_sign']}")
            print(extra)
        print(f"framing independent: {payload['framing_independent']}")
    return 0


def _cmd_free_energy(args, stores) -> int:
    conv = stores[0].conventions
    rows, epsilon = energy_table(stores, list(range(2, args.g_max + 1)))
    payload_rows = []
    all_ok = True
    for row in rows:
        all_ok = all_ok and row.passed
        payload_rows.append({
            "g": row.g, "f": row.f,
            "direct": None if row.direct is None else format_rational(row.direct),
            "shortcut": None if row.shortcut is None else format_rational(row.shortcut),
            "reference": format_rational(row.reference),
            "sign": row.sign, "paths_equal": row.paths_equal,
            "magnitude_ok": row.magnitude_ok, "pass": row.passed,
            **({"error": row.error} if row.error else {}),
        })
    framing_ok = all(len(v) == 1 for v in energies_by_genus(rows).values())
    all_ok = all_ok and framing_ok and epsilon is not None
    payload = {"command": "free-energy",
               "conventions": conventions_payload(conv, epsilon),
               "rows": payload_rows,
               "framing_independent": framing_ok,
               "pass": all_ok}
    if args.output_format == "json":
        _emit(payload)
    else:
        print(conventions_line(conv, epsilon))
        for r in payload_rows:
            status = "ok" if r["pass"] else "FAIL"
            print(f"  g={r['g']} f={r['f']}: direct={r['direct']} "
                  f"shortcut={r['shortcut']} reference={r['reference']} [{status}]")
        print(f"framing independent: {framing_ok}; overall: "
              f"{'pass' if all_ok else 'fail'}")
    return 0 if all_ok else 1


def _cmd_verify(args, stores) -> int:
    report = run_verification(stores, g_max=args.g_max)
    if args.output_format == "json":
        _emit({"command": "verify", **report.to_payload()})
    else:
        print(report.to_text())
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
