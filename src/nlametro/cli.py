"""Command-line surface: figure data tables, CRB experiments, self checks.

Subcommands
-----------
``compare``        gain sweep of q_eff, ps_qs and q_unc for one probe/threshold
``contributions``  gain sweep of the three q_eff contributions
``sweep-nbar``     energy sweep of q_eff at fixed gain for several thresholds
``simulate``       Monte-Carlo CRB experiment, JSON result
``selfcheck``      oracle fixture + invariant grids, exit 0 iff everything passes

Tabular commands emit CSV (default) or JSON; grids use ``a:b:n`` notation for
n points linearly spaced on [a, b].  All output is deterministic given the
arguments (and, for ``simulate``, the seed).
"""

from __future__ import annotations

import argparse
import functools
import json
import pathlib
import sys

import numpy as np

from .fisher import qfi_effective, qfi_effective_closed_form
from .instrument import GainDomain, NlaParams
from .montecarlo import (
    DETECTORS,
    DegenerateLikelihood,
    ExperimentConfig,
    GainGrid,
    RESULT_SCHEMA_VERSION,
    run_crb_experiment,
    write_records_jsonl,
)
from .oracles import generate_golden_reports
from .probes import (
    KIND_COHERENT,
    KIND_CUSTOM,
    KIND_SQUEEZED,
    ProbeSpec,
    TruncationOverflow,
    UnsupportedKind,
    load_custom_probe,
)
from . import selfcheck as selfcheck_mod

TABLE_SCHEMA_VERSION = 2

USAGE_ERROR = 2
CHECK_FAILED = 3


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

def _parse_linear_grid(text: str, name: str) -> np.ndarray:
    """``a:b:n`` -> n points linearly spaced on [a, b]."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{name} grid must look like a:b:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError(f"bad {name} grid {text!r}: {exc}") from None
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"{name} grid endpoints must be finite")
    if n < 1:
        raise ValueError(f"{name} grid needs at least one point")
    if hi < lo:
        raise ValueError(f"{name} grid has hi < lo")
    return np.linspace(lo, hi, n)


def _gain_grid_from_arg(text: str) -> np.ndarray:
    grid = _parse_linear_grid(text, "gain")
    if grid[0] <= 1.0:
        raise GainDomain(
            f"gain grid starts at {grid[0]:g}; amplification requires g > 1"
        )
    return grid


def _seed_type(text: str) -> int:
    value = int(text)
    if not (0 <= value < 2 ** 64):
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit int")
    return value


def _probe_spec_from_args(args) -> ProbeSpec:
    if args.probe == KIND_CUSTOM:
        if args.custom_file is None:
            raise ValueError("custom probes need --custom-file")
        state, _ = load_custom_probe(args.custom_file)
        return ProbeSpec(kind=KIND_CUSTOM, amps=tuple(state.amps))
    if args.nbar is None and args.amplitude is None:
        raise ValueError(f"{args.probe} probes need --nbar or --amplitude")
    if args.nbar is not None:
        return ProbeSpec.from_nbar(args.probe, args.nbar)
    return ProbeSpec(kind=args.probe, amplitude=args.amplitude)


def _add_probe_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--probe",
        choices=(KIND_COHERENT, KIND_SQUEEZED, KIND_CUSTOM),
        required=True,
        help="probe family",
    )
    energy = sub.add_mutually_exclusive_group()
    energy.add_argument("--nbar", type=float, help="mean photon number")
    energy.add_argument(
        "--amplitude", type=float, help="family amplitude (alpha or r)"
    )
    sub.add_argument(
        "--custom-file",
        type=pathlib.Path,
        help="JSON file of [re, im] amplitude pairs (custom probes)",
    )


def _add_output_args(sub: argparse.ArgumentParser, formats=("csv", "json")) -> None:
    sub.add_argument("--out", type=pathlib.Path, help="write output here instead of stdout")
    if formats:
        sub.add_argument("--format", choices=formats, default=formats[0])


# ---------------------------------------------------------------------------
# Table rendering
# ---------------------------------------------------------------------------

def render_csv(columns: list[str], rows: list[tuple]) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(f"{float(v):.9g}" for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def render_json(command: str, config: dict, columns: list[str], rows: list[tuple]) -> str:
    payload = {
        "schema_version": TABLE_SCHEMA_VERSION,
        "command": command,
        "config": config,
        "columns": columns,
        "rows": [[float(v) for v in row] for row in rows],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(text: str, out: pathlib.Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


def _emit_table(args, command: str, config: dict, columns: list[str], rows: list[tuple]) -> int:
    if args.format == "json":
        text = render_json(command, config, columns, rows)
    else:
        text = render_csv(columns, rows)
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _gain_table(args, command: str, fields: tuple[str, ...]) -> int:
    """Rows (g, *fields of the FisherBreakdown) over the gain grid, from one call."""
    spec = _probe_spec_from_args(args)
    probe = spec.build()
    grid = _gain_grid_from_arg(args.g)
    bd = qfi_effective(probe, [NlaParams(g=float(g), p=args.p) for g in grid])
    rows = list(zip(grid, *(getattr(bd, field) for field in fields)))
    config = {
        "probe": spec.describe(),
        "p": args.p,
        "g_grid": args.g,
    }
    return _emit_table(args, command, config, ["g", *fields], rows)


def cmd_compare(args) -> int:
    """Rows (g, q_eff, ps_qs, q_unc) over the gain grid."""
    return _gain_table(args, "compare", ("q_eff", "ps_qs", "q_unc"))


def cmd_contributions(args) -> int:
    """Rows (g, f_c, ps_qs, pf_qf); the three columns sum to q_eff."""
    return _gain_table(args, "contributions", ("f_c", "ps_qs", "pf_qf"))


def cmd_sweep_nbar(args) -> int:
    """Rows (nbar, q_eff per threshold) at fixed gain, one closed-form call per row."""
    if args.probe == KIND_CUSTOM:
        raise ValueError("sweep-nbar varies the family energy; custom probes have none")
    if args.gain <= 1.0:
        raise GainDomain(f"gain {args.gain:g} must exceed 1")
    nbars = _parse_linear_grid(args.nbar_grid, "nbar")
    if nbars[0] < 0.0:
        raise ValueError("mean photon numbers must be non-negative")
    thresholds = args.p
    repeated = sorted({p for p in thresholds if thresholds.count(p) > 1})
    if repeated:
        noun = "threshold" if len(repeated) == 1 else "thresholds"
        raise ValueError(f"--p repeats the {noun} {', '.join(map(str, repeated))}")
    points = [NlaParams(g=args.gain, p=p) for p in thresholds]
    rows = []
    for nbar in nbars:
        probe = ProbeSpec.from_nbar(args.probe, float(nbar)).build()
        rows.append((nbar, *qfi_effective_closed_form(probe, points)))
    columns = ["nbar"] + [f"q_eff_p{p}" for p in thresholds]
    config = {
        "probe": args.probe,
        "gain": args.gain,
        "p": list(thresholds),
        "nbar_grid": args.nbar_grid,
    }
    return _emit_table(args, "sweep-nbar", config, columns, rows)


def cmd_simulate(args) -> int:
    """Run a CRB experiment; emit the result (and config echo) as JSON."""
    spec = _probe_spec_from_args(args)
    lo, hi, n = args.grid
    config = ExperimentConfig(
        probe=spec,
        params_true=NlaParams(g=args.g_true, p=args.p),
        detector=args.detector,
        shots=args.shots,
        seed=args.seed,
        grid=GainGrid(lo=lo, hi=hi, points=n),
    )
    try:
        result = run_crb_experiment(config, args.replications)
    except DegenerateLikelihood as exc:
        error = {
            "schema_version": RESULT_SCHEMA_VERSION,
            "command": "simulate",
            "config": config.describe(),
            "replications": args.replications,
            "error": {"type": "DegenerateLikelihood", "message": str(exc)},
        }
        sys.stderr.write(json.dumps(error, sort_keys=True, indent=2) + "\n")
        return CHECK_FAILED
    payload = {
        "schema_version": RESULT_SCHEMA_VERSION,
        "command": "simulate",
        "config": config.describe(),
        "result": result.to_dict(),
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    if args.records is not None:
        write_records_jsonl(args.records, config, result)
    return 0


def cmd_selfcheck(args) -> int:
    """Golden oracle listing plus the invariant grids; exit 0 iff all pass."""
    lines: list[str] = []
    ok = True

    reports = generate_golden_reports()
    for rep in reports:
        status = "pass" if rep.passes() else "FAIL"
        ok = ok and rep.passes()
        lines.append(
            f"{status}  {rep.quantity}: analytic {rep.analytic:.9g} "
            f"oracle {rep.oracle:.9g} rel {rep.rel_error:.3e} (tol {rep.tol:.1e})"
        )
    n_pass = sum(1 for rep in reports if rep.passes())
    lines.append(f"golden oracle points: {n_pass}/{len(reports)} pass")

    for check in selfcheck_mod.run_all():
        ok = ok and check.passed
        lines.append(check.row())

    lines.append("selfcheck: OK" if ok else "selfcheck: FAILED")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else CHECK_FAILED


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _grid_triple(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must look like a:b:n")
    return float(parts[0]), float(parts[1]), int(parts[2])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlametro",
        description="Gain-estimation figures of merit for the noiseless linear amplifier",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("compare", help="q_eff / ps_qs / q_unc over a gain grid")
    _add_probe_args(sub)
    sub.add_argument("--p", type=int, required=True, help="success threshold")
    sub.add_argument("--g", required=True, help="gain grid a:b:n")
    _add_output_args(sub)

    sub = subs.add_parser("contributions", help="f_c / ps_qs / pf_qf over a gain grid")
    _add_probe_args(sub)
    sub.add_argument("--p", type=int, required=True, help="success threshold")
    sub.add_argument("--g", required=True, help="gain grid a:b:n")
    _add_output_args(sub)

    sub = subs.add_parser("sweep-nbar", help="q_eff versus mean photon number")
    _add_probe_args(sub)
    sub.add_argument(
        "--p", type=int, nargs="+", required=True, help="success thresholds"
    )
    sub.add_argument("--gain", type=float, required=True, help="fixed gain g > 1")
    sub.add_argument("--nbar-grid", required=True, help="nbar grid a:b:n")
    _add_output_args(sub)

    sub = subs.add_parser("simulate", help="Monte-Carlo CRB experiment (JSON)")
    _add_probe_args(sub)
    sub.add_argument("--p", type=int, required=True, help="success threshold")
    sub.add_argument("--g-true", type=float, required=True, help="true gain")
    sub.add_argument("--detector", choices=DETECTORS, required=True)
    sub.add_argument("--shots", type=int, required=True, help="shots per replication")
    sub.add_argument("--replications", type=int, default=500)
    sub.add_argument("--seed", type=_seed_type, required=True)
    sub.add_argument(
        "--grid",
        type=_grid_triple,
        default=None,
        help="MLE search grid a:b:n (default: g/1.5 to 1.5g, 61 points)",
    )
    sub.add_argument(
        "--records", type=pathlib.Path, help="also write per-replication JSON lines here"
    )
    _add_output_args(sub, formats=())

    sub = subs.add_parser("selfcheck", help="oracle fixture + invariant grids")
    _add_output_args(sub, formats=())

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call in a process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "grid", None) is None and args.command == "simulate":
        lo = max(1.0 + 1e-6, args.g_true / 1.5)
        args.grid = (lo, args.g_true * 1.5, 61)
    # looked up at call time, so a handler replaced on this module still runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (GainDomain, UnsupportedKind, TruncationOverflow, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
