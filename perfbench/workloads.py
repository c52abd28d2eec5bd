"""The benchmark's workloads: inputs made from the seed, warm-up items, checks.

Each workload is a fixed list of operations.  An operation is one call of
``nlametro.cli.main`` with a fixed argument list; its check reads the
captured output (and the outputs of earlier operations of the same pass)
and raises :class:`CheckFailed` when the output is wrong.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import pathlib
import random
import re
from typing import Callable

import numpy as np

from nlametro import cli
from nlametro.instrument import SUCCESS, NlaParams
from nlametro.measurements import homodyne_distribution
from nlametro.selfcheck import standard_probes

HERE = pathlib.Path(__file__).resolve().parent
PROBE_DIR = HERE / "probes"

REL_TOL = 1e-9


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclasses.dataclass(frozen=True)
class Op:
    """One ``nlametro`` command and the check of its output.

    ``check(text, done)`` gets the captured standard output and the parsed
    results of the pass's earlier operations by name; it returns this
    operation's parsed result and raises :class:`CheckFailed` on a wrong one.
    """

    name: str
    argv: tuple[str, ...]
    check: Callable[[str, dict], dict]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    warm_up: Callable[[], None]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def call_cli(argv) -> tuple[int, str]:
    """Run ``nlametro.cli.main`` in-process; return its exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    if rc != 0 and err.getvalue():
        return rc, out.getvalue() + err.getvalue()
    return rc, out.getvalue()


def _run_quietly(argv) -> None:
    rc, text = call_cli(argv)
    if rc != 0:
        raise RuntimeError(f"warm-up command {argv} exited {rc}: {text[-500:]}")


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

# The two example tables of the README, reproduced byte for byte.
README_COMPARE = (
    ("compare", "--probe", "coherent", "--nbar", "1", "--p", "3", "--g", "1.2:2.0:5"),
    "g,q_eff,ps_qs,q_unc\n"
    "1.2,9.59951217,1.44036365,0.891799087\n"
    "1.4,2.48269308,0.676149547,0.206453902\n"
    "1.6,0.926141779,0.347595392,0.0766767683\n"
    "1.8,0.41647568,0.192047957,0.0379431765\n"
    "2,0.21196863,0.11274801,0.0225564185\n",
)
README_CONTRIBUTIONS = (
    ("contributions", "--probe", "squeezed-vacuum", "--nbar", "1", "--p", "3", "--g", "1.1:2:4"),
    "g,f_c,ps_qs,pf_qf\n"
    "1.1,26.6433352,3.33570525,0.070404083\n"
    "1.4,1.3437381,0.968641562,0.0524867568\n"
    "1.7,0.187608484,0.300728503,0.0218103652\n"
    "2,0.042124263,0.108725184,0.0090913729\n",
)


def _parse_table(text: str, command: str, columns: list[str], grid: np.ndarray) -> np.ndarray:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{command}: output is not JSON ({exc})") from None
    _require(payload.get("command") == command, f"{command}: wrong command field")
    _require(payload.get("columns") == columns, f"{command}: columns {payload.get('columns')}")
    rows = np.array(payload.get("rows"), dtype=float)
    _require(rows.shape == (grid.size, len(columns)), f"{command}: row shape {rows.shape}")
    _require(bool(np.isfinite(rows).all()), f"{command}: non-finite value")
    _require(bool(np.array_equal(rows[:, 0], grid)), f"{command}: first column is not the grid")
    return rows


def _compare_check(grid: np.ndarray):
    def check(text: str, done: dict) -> dict:
        rows = _parse_table(text, "compare", ["g", "q_eff", "ps_qs", "q_unc"], grid)
        q_eff, q_unc = rows[:, 1], rows[:, 3]
        bad = np.flatnonzero(q_unc > q_eff)
        _require(bad.size == 0, f"compare: q_unc > q_eff at g={grid[bad[:1]]}")
        return {"rows": rows}
    return check


def _contributions_check(grid: np.ndarray, compare_op: str):
    def check(text: str, done: dict) -> dict:
        rows = _parse_table(text, "contributions", ["g", "f_c", "ps_qs", "pf_qf"], grid)
        _require(compare_op in done, f"contributions: no {compare_op} result to join")
        cmp_rows = done[compare_op]["rows"]
        for i, g in enumerate(grid):
            q_eff = cmp_rows[i, 1]
            total = rows[i, 1] + rows[i, 2] + rows[i, 3]
            _require(_close(q_eff, total), f"q_eff {q_eff!r} != f_c+ps_qs+pf_qf {total!r} at g={g!r}")
            _require(_close(cmp_rows[i, 2], rows[i, 2]), f"ps_qs differs between tables at g={g!r}")
        return {"rows": rows}
    return check


def _sweep_check(nbars: np.ndarray, thresholds: tuple[int, ...]):
    columns = ["nbar"] + [f"q_eff_p{p}" for p in thresholds]

    def check(text: str, done: dict) -> dict:
        rows = _parse_table(text, "sweep-nbar", columns, nbars)
        _require(bool((rows[:, 1:] > 0).all()), "sweep-nbar: q_eff not positive")
        return {"rows": rows}
    return check


def _exact_text(expected: str):
    def check(text: str, done: dict) -> dict:
        _require(text == expected, f"table differs from the README:\n{text}")
        return {}
    return check


def _grid_arg(lo: float, hi: float, n: int) -> tuple[str, np.ndarray]:
    text = f"{lo!r}:{hi!r}:{n}"
    return text, np.linspace(lo, hi, n)


def tables(seed: int, small: bool = False) -> Workload:
    rng = random.Random(seed)
    thresholds = ("1", "2", "3", "4", "5")
    gains = (
        # (probe args, op stem, points): squeezed nbar=2 p=5 is dim 149,
        # coherent nbar=1 p=3 is dim 17.
        (("--probe", "squeezed-vacuum", "--nbar", "2", "--p", "5"), "sq149", 12 if small else 60),
        (("--probe", "coherent", "--nbar", "1", "--p", "3"), "coh17", 40 if small else 300),
    )
    ops = []
    for probe_args, stem, points in gains:
        lo = round(1.01 + 0.04 * rng.random(), 6)
        hi = round(6.0 - 0.5 * rng.random(), 6)
        text, grid = _grid_arg(lo, hi, points)
        ops.append(Op(f"compare-{stem}", ("compare", *probe_args, "--g", text, "--format", "json"),
                      _compare_check(grid)))
        ops.append(Op(f"contributions-{stem}",
                      ("contributions", *probe_args, "--g", text, "--format", "json"),
                      _contributions_check(grid, f"compare-{stem}")))
    sweeps = (("squeezed-vacuum", 3.0, 4 if small else 12), ("coherent", 6.0, 10 if small else 30))
    for kind, top, points in sweeps:
        lo = round(0.2 + 0.1 * rng.random(), 6)
        gain = round(1.3 + 0.4 * rng.random(), 6)
        text, nbars = _grid_arg(lo, top, points)
        ops.append(Op(f"sweep-nbar-{kind}",
                      ("sweep-nbar", "--probe", kind, "--gain", repr(gain), "--p", *thresholds,
                       "--nbar-grid", text, "--format", "json"),
                      _sweep_check(nbars, tuple(int(p) for p in thresholds))))
    for name, (argv, expected) in (("readme-compare", README_COMPARE),
                                   ("readme-contributions", README_CONTRIBUTIONS)):
        ops.append(Op(name, argv, _exact_text(expected)))

    def warm_up() -> None:
        # Two rows at each probe dimension of the workload.
        for probe_args, _, _ in gains:
            _run_quietly(("compare", *probe_args, "--g", "1.5:2:2", "--format", "json"))

    return Workload("tables", tuple(ops), warm_up)


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------

GOLDEN_ROWS = 34
_ROW = re.compile(r"^(pass|FAIL)  ")
_WORST = re.compile(r": worst (\S+) \(tol (\S+),")
_GOLDEN = re.compile(r" rel (\S+) \(tol (\S+)\)$")


def selfcheck_rows(text: str) -> list[tuple[str, float]]:
    """``(status, worst/tolerance)`` for every row of a selfcheck report."""
    rows = []
    for line in text.splitlines():
        match = _ROW.match(line)
        if not match:
            continue
        found = _WORST.search(line) or _GOLDEN.search(line)
        if found is None:
            rows.append((match.group(1), math.inf))
            continue
        worst, tol = float(found.group(1)), float(found.group(2))
        # A zero tolerance marks a count of violations, which must be zero.
        ratio = worst / tol if tol > 0 else (0.0 if worst == 0 else math.inf)
        rows.append((match.group(1), ratio))
    return rows


def _selfcheck_check(text: str, done: dict) -> dict:
    """Each report row is one operation, and so is the overall verdict."""
    rows = selfcheck_rows(text)
    failures = [f"row {i} FAIL" for i, (status, _) in enumerate(rows) if status != "pass"]
    lines = text.rstrip("\n").splitlines()
    if not lines or lines[-1] != "selfcheck: OK":
        failures.append("last line is not 'selfcheck: OK'")
    elif f"golden oracle points: {GOLDEN_ROWS}/{GOLDEN_ROWS} pass" not in lines:
        failures.append(f"golden summary is not {GOLDEN_ROWS}/{GOLDEN_ROWS}")
    return {
        "operations": len(rows) + 1,
        "failures": failures,
        "worst_over_tol": max((ratio for _, ratio in rows), default=0.0),
    }


def selfcheck(seed: int, small: bool = False) -> Workload:
    # The selfcheck has no random input, so the seed does not enter.
    def warm_up() -> None:
        # Fill the quadrature-grid cache for every standard probe dimension.
        for _, _, probe in standard_probes():
            homodyne_distribution(probe, NlaParams(g=2.0, p=1), SUCCESS)

    return Workload("selfcheck", (Op("selfcheck", ("selfcheck",), _selfcheck_check),), warm_up)


# ---------------------------------------------------------------------------
# crb
# ---------------------------------------------------------------------------

CRITERION_SEED = 9
CRB_SEARCH = "1.3333333333333333:3:61"

_VACUUM = ("--probe", "custom", "--custom-file", str(PROBE_DIR / "vacuum.json"))
_TWO_LEVEL = ("--probe", "custom", "--custom-file", str(PROBE_DIR / "two_level.json"))
_COHERENT = ("--probe", "coherent", "--nbar", "1")
# name, probe args, threshold, detector, closed-form CRB (None: not checked)
CRB_EXPERIMENTS = (
    ("vacuum-herald", _VACUUM, "1", "herald-only", 3.0e-4),
    ("two-level-pc", _TWO_LEVEL, "1", "photon-counting", 6.0e-4),
    ("two-level-so", _TWO_LEVEL, "1", "success-only", 1.0e-3),
    ("coherent-pc", _COHERENT, "3", "photon-counting", None),
    ("coherent-so", _COHERENT, "3", "success-only", None),
    ("coherent-herald", _COHERENT, "3", "herald-only", None),
    ("coherent-homodyne", _COHERENT, "3", "homodyne", None),
)
# The variance-ratio band of acceptance criterion 6 is a statistical
# property of its own seed; with any other seed it is not checked.
RATIO_BAND = (0.85, 1.15)
BAND_GATED = ("vacuum-herald", "two-level-pc", "two-level-so")


def _crb_check(name: str, replications: int, crb_closed: float | None, criterion: bool):
    lo, hi, points = (float(x) for x in CRB_SEARCH.split(":"))
    cell = (hi - lo) / (points - 1)

    def check(text: str, done: dict) -> dict:
        try:
            result = json.loads(text)["result"]
        except (json.JSONDecodeError, KeyError) as exc:
            raise CheckFailed(f"{name}: unreadable simulate output ({exc})") from None
        est = np.array(result["estimates"], dtype=float)
        _require(est.size == replications == result["replications"], f"{name}: replication count")
        _require(bool(np.isfinite(est).all()), f"{name}: non-finite estimate")
        _require(bool(((est >= lo) & (est <= hi)).all()), f"{name}: estimate outside the search grid")
        crb = result["crb"]
        _require(math.isfinite(crb) and crb > 0, f"{name}: crb {crb!r}")
        if crb_closed is not None:
            _require(_close(crb, crb_closed), f"{name}: crb {crb!r} != closed form {crb_closed!r}")
        if criterion:
            _criterion_6(name, result, done)
        edge = int(((est < lo + cell) | (est > hi - cell)).sum())
        return {"variance": result["empirical_variance"], "edge_hits": edge}
    return check


def _criterion_6(name: str, result: dict, done: dict) -> None:
    """The statistical assertions of acceptance criterion 6 (seed 9 only)."""
    if name in BAND_GATED:
        ratio = result["ratio"]
        _require(RATIO_BAND[0] <= ratio <= RATIO_BAND[1], f"{name}: ratio {ratio!r} outside {RATIO_BAND}")
    var = result["empirical_variance"]
    if name == "two-level-so":
        _require(var > done["two-level-pc"]["variance"], "success-only variance not above photon counting")
    if name == "coherent-herald":
        pc = done["coherent-pc"]["variance"]
        _require(pc <= done["coherent-so"]["variance"] and pc <= var,
                 "coherent photon counting is not the most efficient detector")


def crb(seed: int, small: bool = False) -> Workload:
    sim_seed = str(seed % 2 ** 64)
    # Criterion 6's statistical checks need its own seed and full size.
    criterion = seed == CRITERION_SEED and not small
    shots = "2000" if small else "10000"
    ops = []
    for name, probe_args, p, detector, crb_closed in CRB_EXPERIMENTS:
        if small:
            reps = 3 if detector == "homodyne" else 20
        else:
            reps = 12 if detector == "homodyne" else 500
        closed = crb_closed * 10000 / int(shots) if crb_closed is not None else None
        argv = ("simulate", *probe_args, "--p", p, "--g-true", "2", "--detector", detector,
                "--shots", shots, "--replications", str(reps), "--seed", sim_seed,
                "--grid", CRB_SEARCH)
        ops.append(Op(name, argv, _crb_check(name, reps, closed, criterion)))

    def warm_up() -> None:
        for probe_args, p, detector in ((_TWO_LEVEL, "1", "photon-counting"),
                                        (_COHERENT, "3", "homodyne")):
            _run_quietly(("simulate", *probe_args, "--p", p, "--g-true", "2", "--detector",
                          detector, "--shots", "200", "--replications", "2", "--seed", "1"))

    return Workload("crb", tuple(ops), warm_up)


WORKLOADS = {"tables": tables, "selfcheck": selfcheck, "crb": crb}
