"""nlametro benchmark: run one workload, check every output, print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload tables --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

One process runs one workload as a closed loop with a single caller: it
calls ``nlametro.cli.main`` in-process for each operation of the workload,
checks the output, and repeats the whole fixed list (a *pass*) until the
``--seconds`` budget is spent (at least twice, so that every output is also
checked to repeat byte for byte).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs half the
budget untraced and half with spans at every public nlametro function, and
reports the per-layer metrics.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is 0 when every output passed its check, 3 when one did not, and 2 when the
checkout has no nlametro source.  The full record, with run metadata, is
also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import mpmath
import numpy as np

import checkout
from tracer import Tracer, layer_metrics

WORKLOADS = ("tables", "selfcheck", "crb")
SETUP_SAMPLES = 5
MIN_PASSES = 2
CHECK_FAILED = 3
COUNT_UNITS = ("count", "flop", "B")
OUT_DIR = checkout.ROOT / "perfbench" / "out"


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def run_pass(workload, reference=None, call=None, tracer=None) -> dict:
    """Run every operation of ``workload`` once and check its output.

    ``reference`` holds the outputs of an earlier pass, which this pass must
    reproduce byte for byte.  ``call`` replaces ``workloads.call_cli`` (the
    self-tests use it to corrupt an output).  Only the ``nlametro`` calls
    are inside the timer; checks run outside it.
    """
    import workloads

    call = call or workloads.call_cli
    if tracer is not None:
        tracer.reset()
    rec = {"wall_s": 0.0, "cpu_s": 0.0, "attempted": 0, "failed": 0, "problems": [],
           "outputs": [], "op_wall_s": [], "edge_hits": 0, "worst_over_tol": 0.0}
    done: dict = {}
    for i, op in enumerate(workload.ops):
        t0, c0 = time.perf_counter(), cpu_seconds()
        try:
            rc, text = call(op.argv)
        except Exception:
            rc, text = None, traceback.format_exc()
        rec["op_wall_s"].append(time.perf_counter() - t0)
        rec["wall_s"] += rec["op_wall_s"][-1]
        rec["cpu_s"] += cpu_seconds() - c0
        rec["outputs"].append(text)
        operations, problems = 1, []
        if rc is None:
            problems.append(f"raised: {text.strip().splitlines()[-1]}")
        else:
            try:
                parsed = op.check(text, done)
            except workloads.CheckFailed as exc:
                parsed, problems = {}, [str(exc)]
            except Exception as exc:  # a check that cannot read the output
                parsed, problems = {}, [f"check raised {type(exc).__name__}: {exc}"]
            done[op.name] = parsed
            operations = parsed.get("operations", 1)
            problems.extend(parsed.get("failures", ()))
            if rc != 0 and not problems:
                problems.append(f"exit code {rc}")
            if reference is not None and text != reference[i] and not problems:
                problems.append("output differs from the first pass")
            rec["edge_hits"] += parsed.get("edge_hits", 0)
            rec["worst_over_tol"] = max(rec["worst_over_tol"], parsed.get("worst_over_tol", 0.0))
        rec["attempted"] += operations
        rec["failed"] += min(operations, len(problems))
        rec["problems"].extend(f"{op.name}: {msg}" for msg in problems)
    if tracer is not None:
        rec["layers"] = layer_metrics(tracer)
    return rec


def run_passes(workload, budget_s: float, min_passes: int, reference=None, tracer=None,
               before_pass=None) -> list[dict]:
    """Repeat passes while the next one is expected to end within ``budget_s``.

    ``before_pass()``, if given, runs before each pass, inside the budget.
    """
    start = time.perf_counter()
    passes, durations = [], []
    while True:
        t0 = time.perf_counter()
        if before_pass is not None:
            before_pass()
        ref = reference if reference is not None else (passes[0]["outputs"] if passes else None)
        passes.append(run_pass(workload, ref, tracer=tracer))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + statistics.median(durations) > budget_s:
            return passes


def median_of(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def ok_ratio(passes: list[dict]) -> float:
    """Share of attempted operations that passed their check (1 - fail_ratio)."""
    attempted = sum(p["attempted"] for p in passes)
    return (attempted - sum(p["failed"] for p in passes)) / attempted


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def setup_seconds(name: str) -> float:
    """Set-up time of one fresh process, which the caller waits for."""
    proc = subprocess.run(
        [sys.executable, str(checkout.ROOT / "perfbench" / "setup_probe.py"), name],
        capture_output=True, text=True, timeout=120, cwd=checkout.ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def end_to_end_run(workload, seconds: float) -> tuple[dict, list[dict], dict]:
    # Set-up samples are spread over the run, one before each pass, so that
    # their median sees the same machine as the passes do.
    setup = []
    workload.warm_up()
    passes = run_passes(workload, seconds, MIN_PASSES,
                        before_pass=lambda: setup.append(setup_seconds(workload.name)))
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_seconds(workload.name))
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": median_of(passes, "wall_s"),
        "cpu_s": median_of(passes, "cpu_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": ok_ratio(passes),
    }
    metrics = {name: (values[name], unit) for name, unit in declared("end_to_end").items()}
    return metrics, passes, {"setup_samples_s": setup}


def traced_run(workload, seconds: float) -> tuple[dict, list[dict], dict]:
    tracer = Tracer()
    tracer.install()
    workload.warm_up()
    setup_layers = layer_metrics(tracer)
    tracer.uninstall()

    start = time.perf_counter()
    plain = run_passes(workload, 0.5 * seconds, 1)
    tracer.install()
    try:
        traced = run_passes(workload, seconds - (time.perf_counter() - start), 1,
                            reference=plain[0]["outputs"], tracer=tracer)
    finally:
        tracer.uninstall()
    values = {key: median_of([p["layers"] for p in traced], key) for key in traced[0]["layers"]}
    # Quadrature grids are built once and cached, so they are counted where
    # they are built: in the set-up (warm-up item) phase.
    for key in ("fock.adaptive_quadrature_grid.calls", "fock.adaptive_quadrature_grid.self_s"):
        values[key] = setup_layers[key]
    values["montecarlo.edge_hits"] = median_of(traced, "edge_hits")
    values["selfcheck.worst_over_tol"] = median_of(traced, "worst_over_tol")
    values["trace.overhead_ratio"] = median_of(traced, "wall_s") / median_of(plain, "wall_s")
    metrics = {name: (values[name], unit) for name, unit in declared("per_layer").items()}
    write_spans(tracer, workload.name)
    counts = [k for k, unit in declared("per_layer").items()
              if unit in COUNT_UNITS and k in traced[0]["layers"]]
    extra = {
        "untraced_wall_s": [p["wall_s"] for p in plain],
        "traced_wall_s": [p["wall_s"] for p in traced],
        "counts_repeat_exactly": all(
            p["layers"][k] == traced[0]["layers"][k] for p in traced for k in counts),
    }
    return metrics, plain + traced, extra


def declared(kind: str) -> dict[str, str]:
    """Metric names and units of one kind, as BENCHMARK.json declares them."""
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def write_spans(tracer, name: str) -> None:
    """Spans of the last traced pass, plus their per-name totals."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(OUT_DIR / f"{name}-spans.npz", names=np.array(tracer.names), **tracer.spans())
    (OUT_DIR / f"{name}-spans.json").write_text(
        json.dumps(tracer.per_name(), indent=1, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Metadata and reporting
# ---------------------------------------------------------------------------

def blas_info() -> dict:
    """BLAS library and its thread count, as found in this process."""
    info: dict = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=deps.get("name"), version=deps.get("version"))
    except (KeyError, TypeError, AttributeError):
        pass
    libs = sorted((pathlib.Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    info["threads_env"] = {k: os.environ[k] for k in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}
    return info


def cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not (checkout.ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout.ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def run_metadata(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def report(name: str, seed: int, trace: int, metrics: dict, passes: list[dict], extra: dict) -> int:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [msg for p in passes for msg in p["problems"]]
    meta = run_metadata(seed)
    print(f"# workload {name} seed {seed} trace {trace} passes {len(passes)}")
    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    for msg in problems[:20]:
        print(f"# FAILED {msg}")
    print(f"# fail_ratio {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for key, (value, unit) in metrics.items():
        print(f"# {key} {value:.6g} {unit}")
    record = {
        "workload": name, "trace": trace, "meta": meta, "problems": problems,
        "passes": [{k: v for k, v in p.items() if k != "outputs"} for p in passes],
        **extra,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=float) + "\n", encoding="utf-8")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else CHECK_FAILED


def run_every_workload(args) -> int:
    """Each workload in its own fresh process; one combined line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst_rc = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=checkout.ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, CHECK_FAILED):
            return proc.returncode
        worst_rc = max(worst_rc, proc.returncode)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined), flush=True)
    return worst_rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_every_workload(args)
    checkout.use_source()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    run = traced_run if args.trace else end_to_end_run
    metrics, passes, extra = run(workload, args.seconds)
    return report(args.workload, args.seed, args.trace, metrics, passes, extra)


if __name__ == "__main__":
    sys.exit(main())
