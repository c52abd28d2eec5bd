"""Self-tests of the benchmark: a small run of every workload, and failures counted.

Run from the root of a checkout:  python3 -m pytest perfbench/test_perfbench.py
"""

import json
import pathlib
import sys
import time

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import checkout  # noqa: E402

checkout.use_source()

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Per-layer metrics that come from the outputs or from two runs, not from spans.
RUN_LEVEL = {
    "montecarlo.edge_hits",
    "selfcheck.worst_over_tol",
    "trace.overhead_ratio",
}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_small_run_of_every_workload_passes_traced_and_untraced(name):
    workload = workloads.WORKLOADS[name](3, small=True)
    workload.warm_up()
    plain = run.run_pass(workload)
    assert plain["failed"] == 0, plain["problems"]
    assert plain["attempted"] >= len(workload.ops)

    tracer = Tracer()
    tracer.install()
    try:
        traced = run.run_pass(workload, reference=plain["outputs"], tracer=tracer)
    finally:
        tracer.uninstall()
    assert traced["failed"] == 0, traced["problems"]
    assert traced["outputs"] == plain["outputs"]
    assert set(run.declared("per_layer")) - RUN_LEVEL == set(traced["layers"])
    assert traced["layers"]["cli.main.self_s"] > 0


def _flip_readme_digit(text: str) -> str:
    return text.replace("9.59951217", "9.59951218", 1)


def _break_first_sum(text: str) -> str:
    payload = json.loads(text)
    payload["rows"][0][1] *= 1.5
    return json.dumps(payload)


@pytest.mark.parametrize("op_name, corrupt", [
    ("readme-compare", _flip_readme_digit),
    ("contributions-coh17", _break_first_sum),
])
def test_corrupted_output_is_counted_in_fail_ratio(op_name, corrupt, capsys):
    workload = workloads.WORKLOADS["tables"](3, small=True)
    target = next(op.argv for op in workload.ops if op.name == op_name)

    def call(argv):
        rc, text = workloads.call_cli(argv)
        return rc, corrupt(text) if argv == target else text

    passes = [run.run_pass(workload, call=call)]
    assert passes[0]["attempted"] == len(workload.ops)
    assert passes[0]["failed"] == 1, passes[0]["problems"]
    assert run.ok_ratio(passes) < 1.0

    rc = run.report("tables-corrupted", 3, 0, {}, passes, {})
    assert rc == run.CHECK_FAILED
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1


def test_raising_operation_is_counted_as_failed():
    workload = workloads.WORKLOADS["tables"](3, small=True)

    def call(argv):
        if argv[0] == "sweep-nbar":
            raise RuntimeError("injected")
        return workloads.call_cli(argv)

    rec = run.run_pass(workload, call=call)
    assert rec["failed"] == 2
    assert any("injected" in msg for msg in rec["problems"])


def test_failing_selfcheck_row_is_one_failed_operation():
    text = (
        "pass  a: worst 1.0e-10 (tol 1.0e-09, 3 points)\n"
        "FAIL  b: worst 2.0e-05 (tol 1.0e-05, 3 points)\n"
        "golden oracle points: 34/34 pass\n"
        "selfcheck: FAILED\n"
    )
    parsed = workloads._selfcheck_check(text, {})
    assert parsed["operations"] == 3
    assert len(parsed["failures"]) == 2
    assert parsed["worst_over_tol"] == pytest.approx(2.0)


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer.wrap("t.inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()

    tracer.wrap("t.outer", outer_body)()
    agg = tracer.per_name()
    outer, child = agg["t.outer"], agg["t.inner"]
    assert outer["self_s"] == pytest.approx(outer["incl_s"] - child["incl_s"])
    assert outer["self_s"] >= 0.01
    assert tracer.calls_within("t.inner", "t.outer") == 1


def test_install_patches_every_importing_namespace_and_uninstall_restores():
    from nlametro import fisher, instrument, montecarlo

    original = instrument.kraus_diagonal
    tracer = Tracer()
    tracer.install()
    try:
        assert instrument.kraus_diagonal is not original
        assert fisher.kraus_diagonal is instrument.kraus_diagonal
        assert montecarlo.kraus_diagonal is instrument.kraus_diagonal
    finally:
        tracer.uninstall()
    assert fisher.kraus_diagonal is original
    assert montecarlo.kraus_diagonal is original
