"""One benchmark job: run an eorec command in this fresh process.

    python3 child.py --report PATH [--setup-only] [--spans PATH] -- ARGS...

ARGS go to ``eorec.cli.main`` unchanged.  The parent puts the checkout's
``src`` on ``PYTHONPATH``.  The report (JSON) holds the exit code and the
``time.monotonic()`` reading taken when ``build_stores`` returned, which
ends set-up: imports, basis tables and the conventions (calibrated or read
from the cache).  ``--setup-only`` stops the job there.  ``--spans`` turns
the per-layer tracer on, adds its metrics to the report and writes its
spans to the given path.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


class _SetupDone(Exception):
    pass


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--report", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = p.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    import eorec
    from eorec import cli
    report: dict = {"eorec": eorec.__file__}
    tracer = None
    if args.spans:
        import tracer as tracing
        tracer = tracing.install()

    build_stores = cli.build_stores

    def timed_build_stores(*a, **kw):
        stores = build_stores(*a, **kw)
        report["setup_done"] = time.monotonic()
        if args.setup_only:
            raise _SetupDone
        return stores

    cli.build_stores = timed_build_stores
    try:
        rc = cli.main(argv)
    except _SetupDone:
        rc = 0
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    report["exit_code"] = rc
    if tracer is not None:
        report["trace"] = tracer.metrics()
        tracer.write_spans(args.spans)
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
