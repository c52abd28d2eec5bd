"""The benchmark's self-tests, run as part of this suite.

perfbench reads names of the package, for example the ``kraus_diagonal``
that :mod:`nlametro.fisher` and :mod:`nlametro.montecarlo` import for its
install test, so a slip in an import block would otherwise fail only the
benchmark run.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH_TESTS = ROOT / "perfbench" / "test_perfbench.py"


def test_perfbench_self_tests_pass(run_python):
    proc = run_python("-m", "pytest", str(PERFBENCH_TESTS), "-q", "-p", "no:cacheprovider")
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert re.fullmatch(r"9 passed in [\d.]+s", summary), summary
