"""Regenerate the golden oracle-report fixture.

    python -m nlametro.golden --out tests/data/golden.json

Writes the rows of :func:`nlametro.oracles.generate_golden_reports` as JSON
(to stdout without ``--out``) and exits 1 if any row fails its tolerance.
The package does not import this module, so running it executes a single
copy of :mod:`nlametro.oracles`.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from .oracles import generate_golden_reports, reports_payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m nlametro.golden",
        description="Regenerate the golden oracle-report fixture.",
    )
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="write JSON here instead of stdout")
    args = parser.parse_args(argv)
    reports = generate_golden_reports()
    text = json.dumps(reports_payload(reports), indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text, encoding="utf-8")
    failures = [r for r in reports if not r.passes()]
    for rep in failures:
        print(
            f"FAIL {rep.quantity}: analytic {rep.analytic!r} oracle {rep.oracle!r} "
            f"rel {rep.rel_error:.3e} > tol {rep.tol:g}",
            file=sys.stderr,
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
