"""Locate the checkout the benchmark runs in and import nlametro from its source."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MISSING_SOURCE = 2


def use_source() -> None:
    """Put the checkout's ``src`` first on the import path, or exit non-zero."""
    if not (SRC / "nlametro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no nlametro source under {SRC}; run from a full checkout\n")
        sys.exit(MISSING_SOURCE)
    sys.path.insert(0, str(SRC))
