"""Grid-level verification suites behind the ``selfcheck`` CLI subcommand.

Five suites, each returning one :class:`CheckResult` row per invariant:

* identity     — exact algebraic identities of the instrument and the
                 information breakdown (tolerances 1e-9 relative and below);
* oracle       — analytic information quantities against fidelity
                 finite differences on the Kraus images (1e-5 relative);
* detector     — photon-counting / homodyne Fisher informations against the
                 branch QFIs, plus the joint-record identities;
* figure       — qualitative curve behavior: hierarchy, monotonicity,
                 probe-family crossover, dominant contributions;
* meter        — the joint-QFI inequality over random meter states.

The standard grid is 2 probe families x 4 energies x 7 gains x 5 thresholds
= 280 operating points.  :func:`run_all` computes the information budget of
each point once (:func:`standard_breakdowns`) and passes it to the identity,
oracle and detector suites.

The oracle suite scores its five rows (``q_s``, ``q_f``, ``q_eff`` through
the trivial meter, ``q_unc`` and a generic meter) on the Kraus-image Gram
matrices of all 280 points, built in one batch at ``dg=1e-4`` in
double-double arithmetic, about 32 digits from error-free transformations
(Knuth's TwoSum, Dekker's TwoProduct, Hida-Li-Bailey division and square
root).  Their rounding, O(p) units of 2^-104 in a deficit, lies eleven
orders below the smallest real deficit, so no step is refused and every row
scores all 280 points.  The identity suite takes a probe's conditional
states and slopes from one ``_conditional_rows`` call per branch.

The detector and meter suites evaluate on arrays, each number still coming
from the library function it checks.  The detector rows pass a probe's 35
operating points, of all five thresholds, to one call per branch of
``fi_photon_counting``, ``photon_counting_dist``, ``fi_homodyne`` and
``homodyne_distribution``, and to one ``sequential_fi`` call per detector;
each takes the rows of all points from one kernel evaluation, and homodyne
stacks them as chunked real products on the quadrature grid.
The meter suite passes a point's 54 meters to one ``qfi_joint_meter`` call,
which evaluates ``q_eff`` and the coupling term once for all of them.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .fisher import (
    FisherBreakdown,
    qfi_effective,
    qfi_effective_closed_form,
    qfi_joint_meter,
)
from .fock import FockVector
from .instrument import (
    BRANCHES,
    FAILURE,
    MeterState,
    NlaParams,
    SUCCESS,
    branch_probability,
    branch_probability_derivative,
    _conditional_rows,
    completeness_defect,
    kraus_diagonal,
    kraus_diagonal_derivative,
)
from .measurements import (
    HOMODYNE,
    PHOTON_COUNTING,
    fi_homodyne,
    fi_photon_counting,
    homodyne_distribution,
    photon_counting_dist,
    sequential_fi,
)
from .oracles import DEFAULT_QFI_STEP, KrausImageFD
from .probes import ProbeSpec

STANDARD_KINDS = ("coherent", "squeezed-vacuum")
STANDARD_NBARS = (0.5, 1.0, 1.5, 2.0)
STANDARD_GAINS = (1.05, 1.2, 1.5, 2.0, 3.0, 4.0, 6.0)
STANDARD_THRESHOLDS = (1, 2, 3, 4, 5)

# Values this far below every non-degenerate grid quantity (measured minimum
# ~3e-8) are rounding residue of an exact zero, not information.
NUMERICAL_ZERO = 1e-20

METER_SAMPLES_PER_POINT = 50
METER_SEED = 2718
GENERIC_METER_SEED = 97


@dataclasses.dataclass(frozen=True)
class CheckResult:
    """Outcome of one invariant swept over a grid."""

    name: str
    worst: float
    tolerance: float
    points: int
    passed: bool
    detail: str = ""

    def row(self) -> str:
        status = "pass" if self.passed else "FAIL"
        tail = f"  [{self.detail}]" if self.detail else ""
        return (
            f"{status}  {self.name}: worst {self.worst:.3e} "
            f"(tol {self.tolerance:.1e}, {self.points} points){tail}"
        )


def standard_probes() -> list[tuple[str, float, FockVector]]:
    out = []
    for kind in STANDARD_KINDS:
        for nbar in STANDARD_NBARS:
            out.append((kind, nbar, ProbeSpec.from_nbar(kind, nbar).build()))
    return out


def standard_probe_grids():
    """Yield (probe, labels, params) per standard probe: its 35 operating points."""
    for kind, nbar, probe in standard_probes():
        points = [(g, p) for g in STANDARD_GAINS for p in STANDARD_THRESHOLDS]
        labels = [f"{kind} nbar={nbar:g} g={g:g} p={p}" for g, p in points]
        yield probe, labels, [NlaParams(g=g, p=p) for g, p in points]


def standard_grid():
    """Yield (label, probe, params) over the 280 standard operating points."""
    for probe, labels, points in standard_probe_grids():
        for label, params in zip(labels, points):
            yield label, probe, params


def standard_breakdowns() -> dict[str, FisherBreakdown]:
    """The information budget of each standard operating point, by label.

    One :func:`~nlametro.fisher.qfi_effective` call per probe and threshold
    covers that threshold's gains.  :func:`run_all` computes the budgets once
    per pass and hands them to the identity, oracle and detector suites;
    nothing is cached between calls.
    """
    out = {}
    for probe, labels, points in standard_probe_grids():
        for p in STANDARD_THRESHOLDS:
            mine = [i for i, pt in enumerate(points) if pt.p == p]
            batch = qfi_effective(probe, [points[i] for i in mine])
            out.update(zip((labels[i] for i in mine), batch.points()))
    return out


class _Worst:
    """Track the largest error and where it happened."""

    def __init__(self):
        self.value = 0.0
        self.label = ""
        self.count = 0

    def update(self, err: float, label: str):
        self.count += 1
        if err > self.value:
            self.value = err
            self.label = label

    def result(self, name: str, tol: float, extra: str = "") -> CheckResult:
        detail = self.label if self.value > 0 else ""
        if extra:
            detail = f"{detail}; {extra}" if detail else extra
        return CheckResult(
            name=name,
            worst=self.value,
            tolerance=tol,
            points=self.count,
            passed=self.value <= tol,
            detail=detail,
        )


def _rel(a: float, b: float, floor: float = NUMERICAL_ZERO) -> float:
    scale = max(abs(a), abs(b))
    if scale < floor:
        return 0.0
    return abs(a - b) / scale


# ---------------------------------------------------------------------------
# Identity suite
# ---------------------------------------------------------------------------

def check_identity_suite(breakdowns: dict[str, FisherBreakdown]) -> list[CheckResult]:
    """Exact algebraic identities across the standard grid.

    ``breakdowns`` is :func:`standard_breakdowns`.  The conditional states
    and their slopes of a probe's 35 operating points come from one
    ``_conditional_rows`` call per branch.
    """
    completeness = _Worst()
    kraus_deriv = _Worst()
    prob_sum = _Worst()
    dprob_sum = _Worst()
    cond_norm = _Worst()
    orthogonality = _Worst()
    breakdown_identity = _Worst()
    unc_trace = _Worst()
    hierarchy_slack = _Worst()
    for probe, labels, points in standard_probe_grids():
        dim = probe.dim
        rows = {branch: _conditional_rows(probe, points, branch) for branch in BRANCHES}
        for i, (label, params) in enumerate(zip(labels, points)):
            completeness.update(completeness_defect(params, dim), label)
            es = kraus_diagonal(params, SUCCESS, dim)
            ef = kraus_diagonal(params, FAILURE, dim)
            des = kraus_diagonal_derivative(params, SUCCESS, dim)
            def_ = kraus_diagonal_derivative(params, FAILURE, dim)
            kraus_deriv.update(float(np.max(np.abs(es * des + ef * def_))), label)
            ps = branch_probability(probe, params, SUCCESS)
            pf = branch_probability(probe, params, FAILURE)
            prob_sum.update(abs(ps + pf - 1.0), label)
            dps = branch_probability_derivative(probe, params, SUCCESS)
            dpf = branch_probability_derivative(probe, params, FAILURE)
            dprob_sum.update(abs(dps + dpf), label)
            for branch in BRANCHES:
                amps, damps = rows[branch][0][i], rows[branch][1][i]
                cond_norm.update(abs(np.linalg.norm(amps) - 1.0), f"{label} {branch}")
                orthogonality.update(abs(complex(np.vdot(amps, damps))), f"{label} {branch}")
            bd = breakdowns[label]
            scale = max(bd.q_eff, NUMERICAL_ZERO)
            breakdown_identity.update(abs(bd.q_eff - bd.component_sum()) / scale, label)
            # one-sided bounds, scored as relative overshoot
            hierarchy_slack.update(max(bd.ps_qs - bd.q_eff, 0.0) / scale, label)
            hierarchy_slack.update(max(bd.q_unc - bd.q_eff, 0.0) / scale, label)
            # tr(A A^+) = ||A||_F^2 for the Kraus images A = [E_s c, E_f c]
            images = np.stack((es * probe.amps, ef * probe.amps), axis=1)
            unc_trace.update(abs(np.vdot(images, images).real - 1.0), label)
    results = [
        completeness.result("kraus completeness sum_i E_i^2 = 1", 1e-12),
        kraus_deriv.result("kraus derivative identity E_s dE_s + E_f dE_f = 0", 1e-12),
        prob_sum.result("branch probabilities sum to 1", 1e-12),
        dprob_sum.result("branch probability derivatives sum to 0", 1e-12),
        cond_norm.result("conditional states normalized", 1e-10),
        orthogonality.result("conditional states orthogonal to their derivatives", 1e-10),
        breakdown_identity.result(
            "q_eff closed form equals ps_qs + pf_qf + f_c (relative)", 1e-9
        ),
        hierarchy_slack.result("ps_qs <= q_eff and q_unc <= q_eff (relative slack)", 1e-9),
        unc_trace.result("unconditional state has unit trace", 1e-12),
    ]
    results.append(_check_boundary_divergence())
    return results


def _check_boundary_divergence() -> CheckResult:
    """q_eff grows toward the gain floor: q(1.001) > q(1.01) > q(1.1)."""
    violations = 0
    count = 0
    worst_label = ""
    for kind, nbar, probe in standard_probes():
        for p in STANDARD_THRESHOLDS:
            vals = qfi_effective_closed_form(
                probe, [NlaParams(g=g, p=p) for g in (1.001, 1.01, 1.1)]
            )
            count += 1
            if not (vals[0] > vals[1] > vals[2]):
                violations += 1
                worst_label = f"{kind} nbar={nbar:g} p={p}"
    return CheckResult(
        name="q_eff diverges toward the unit-gain boundary",
        worst=float(violations),
        tolerance=0.0,
        points=count,
        passed=violations == 0,
        detail=worst_label,
    )


# ---------------------------------------------------------------------------
# Oracle suite
# ---------------------------------------------------------------------------

def check_oracle_suite(breakdowns: dict[str, FisherBreakdown]) -> list[CheckResult]:
    """Fidelity finite differences against every analytic information value.

    The oracle values of all 280 points come from one
    :class:`~nlametro.oracles.KrausImageFD` at ``dg=1e-4``: the Gram
    matrices of the Kraus images ``A = [E_s c, E_f c]`` at ``g -/+ dg/2``
    are built once in double-double and contracted per family -- the
    success and failure states, the joint state with the trivial and a
    random meter per point, and the Bures deficit of ``A A^+`` (Uhlmann's
    ``sqrt F = ||A(g-)^+ A(g+)||_*``).  The deficits have no noise floor,
    so every row scores all 280 points.  The analytic side comes from
    ``breakdowns`` (:func:`standard_breakdowns`) and ``qfi_joint_meter``.
    """
    labels, probes, points = zip(*standard_grid())
    rng = np.random.default_rng(GENERIC_METER_SEED)
    # one draw of shape (points, 4) yields the numbers of that many
    # standard_normal(4) draws, in the same order
    meters = []
    for z in rng.standard_normal((len(points), 4)):
        amps = (z[0] + 1j * z[1], z[2] + 1j * z[3])
        nrm = math.hypot(abs(amps[0]), abs(amps[1]))
        meters.append(MeterState(alpha=amps[0] / nrm, beta=amps[1] / nrm))
    fd = KrausImageFD(probes, points, DEFAULT_QFI_STEP)
    oracle = zip(
        fd.pure(SUCCESS).tolist(),
        fd.pure(FAILURE).tolist(),
        fd.pure(MeterState.trivial()).tolist(),
        fd.bures().tolist(),
        fd.pure(meters).tolist(),
    )
    qs_w, qf_w, qeff_w, qunc_w, meter_w = (_Worst() for _ in range(5))
    for label, probe, params, meter, (q_s, q_f, q_eff, q_unc, q_meter) in zip(
        labels, probes, points, meters, oracle
    ):
        bd = breakdowns[label]
        qs_w.update(_rel(bd.q_s, q_s), label)
        qf_w.update(_rel(bd.q_f, q_f), label)
        qeff_w.update(_rel(bd.q_eff, q_eff), label)
        qunc_w.update(_rel(bd.q_unc, q_unc), label)
        meter_w.update(_rel(qfi_joint_meter(probe, params, meter), q_meter), label)
    return [
        qs_w.result("q_s vs Kraus-image fidelity FD at dg=1e-4", 1e-5),
        qf_w.result("q_f vs Kraus-image fidelity FD at dg=1e-4", 1e-5),
        qeff_w.result("q_eff vs Kraus-image joint-state fidelity FD at dg=1e-4", 1e-5),
        qunc_w.result("q_unc vs Kraus-image Bures fidelity FD at dg=1e-4", 1e-5),
        meter_w.result(
            "joint QFI with generic meters vs Kraus-image fidelity FD at dg=1e-4", 1e-5
        ),
    ]


# ---------------------------------------------------------------------------
# Detector suite
# ---------------------------------------------------------------------------

def check_detector_suite(breakdowns: dict[str, FisherBreakdown]) -> list[CheckResult]:
    """Detector Fisher informations saturate the branch QFIs on the grid.

    The detector quantities of a probe's operating points are computed by
    one call per function and branch over all of them, and the branch QFIs
    come from ``breakdowns`` (:func:`standard_breakdowns`).
    """
    pc_w, hd_w, seq_pc_w, seq_hd_w, norm_w = (_Worst() for _ in range(5))
    detectors = (("photon", photon_counting_dist), ("homodyne", homodyne_distribution))
    for probe, labels, points in standard_probe_grids():
        photon = {b: fi_photon_counting(probe, points, b).tolist() for b in BRANCHES}
        homodyne = {b: fi_homodyne(probe, points, b).tolist() for b in BRANCHES}
        totals = {
            (b, name): [dist.total() for dist in distribution(probe, points, b)]
            for b in BRANCHES
            for name, distribution in detectors
        }
        seq_pc = sequential_fi(probe, points, PHOTON_COUNTING).tolist()
        seq_hd = sequential_fi(probe, points, HOMODYNE).tolist()
        for i, label in enumerate(labels):
            bd = breakdowns[label]
            for branch, q_branch in ((SUCCESS, bd.q_s), (FAILURE, bd.q_f)):
                pc_w.update(_rel(photon[branch][i], q_branch), f"{label} {branch}")
                hd_w.update(_rel(homodyne[branch][i], q_branch), f"{label} {branch}")
                for name, _ in detectors:
                    norm_w.update(abs(totals[branch, name][i] - 1.0), f"{label} {branch} {name}")
            target = bd.component_sum()
            seq_pc_w.update(_rel(seq_pc[i], target), label)
            seq_hd_w.update(_rel(seq_hd[i], target), label)
    return [
        pc_w.result("photon-counting FI saturates the branch QFI", 1e-9),
        hd_w.result("homodyne FI saturates the branch QFI", 1e-6),
        seq_pc_w.result("sequential photon-counting record FI equals the sum", 1e-8),
        seq_hd_w.result("sequential homodyne record FI equals the sum", 1e-6),
        norm_w.result("detector distributions normalized", 1e-8),
    ]


# ---------------------------------------------------------------------------
# Figure-behavior suite
# ---------------------------------------------------------------------------

def _figure_probes() -> list[tuple[str, FockVector]]:
    return [
        (kind, ProbeSpec.from_nbar(kind, 1.0).build()) for kind in STANDARD_KINDS
    ]


def _gain_points(gains, p: int) -> list[NlaParams]:
    return [NlaParams(g=float(g), p=p) for g in gains]


def _strictly_decreasing(values: np.ndarray) -> bool:
    return bool(np.all(values[:-1] > values[1:]))


def check_figure_behavior() -> list[CheckResult]:
    """Qualitative curve properties at nbar = 1, one budget call per gain list."""
    results = []

    # hierarchy q_eff > ps_qs >= q_unc on g in [1.2, 4] at p = 3
    violations, count, worst_label = 0, 0, ""
    for kind, probe in _figure_probes():
        gs = np.linspace(1.2, 4.0, 15)
        bd = qfi_effective(probe, _gain_points(gs, 3))
        count += gs.size
        bad = ~((bd.q_eff > bd.ps_qs) & (bd.ps_qs >= bd.q_unc - 1e-12 * bd.q_eff))
        if bad.any():
            violations += int(bad.sum())
            worst_label = f"{kind} g={gs[np.flatnonzero(bad)[-1]]:.3f}"
    results.append(CheckResult(
        "hierarchy q_eff > ps_qs >= q_unc on [1.2, 4] at nbar=1 p=3",
        float(violations), 0.0, count, violations == 0, worst_label,
    ))

    # monotone decrease of q_eff on [1.05, 6] and of all three on [1.3, 4.5]
    violations, count, worst_label = 0, 0, ""
    decay_ok = True
    for kind, probe in _figure_probes():
        gs = np.linspace(1.05, 6.0, 34)
        count += len(gs) - 1
        if not _strictly_decreasing(qfi_effective_closed_form(probe, _gain_points(gs, 3))):
            violations += 1
            worst_label = f"{kind} q_eff not strictly decreasing"
        gs2 = np.linspace(1.3, 4.5, 20)
        bd = qfi_effective(probe, _gain_points(gs2, 3))
        count += len(gs2) - 1
        for field in ("q_eff", "ps_qs", "q_unc"):
            if not _strictly_decreasing(getattr(bd, field)):
                violations += 1
                worst_label = f"{kind} {field} not decreasing on [1.3, 4.5]"
        if not bd.q_eff[-1] < 0.05 * bd.q_eff[0]:
            decay_ok = False
            violations += 1
            worst_label = f"{kind} q_eff(4.5) >= 5% of q_eff(1.3)"
    results.append(CheckResult(
        "monotone decrease in g with >20x decay across [1.3, 4.5]",
        float(violations), 0.0, count, violations == 0 and decay_ok, worst_label,
    ))

    # probe-family crossover at p = 2, nbar = 1
    coh = ProbeSpec.from_nbar("coherent", 1.0).build()
    sq = ProbeSpec.from_nbar("squeezed-vacuum", 1.0).build()
    low = NlaParams(g=1.2, p=2)
    squeezed_wins_low = qfi_effective_closed_form(sq, low) > qfi_effective_closed_form(coh, low)
    high = _gain_points(np.linspace(1.3, 6.0, 48), 2)
    coherent_wins_somewhere = bool(np.any(
        qfi_effective_closed_form(coh, high) >= qfi_effective_closed_form(sq, high)
    ))
    ok = squeezed_wins_low and coherent_wins_somewhere
    results.append(CheckResult(
        "probe-family crossover at p=2 nbar=1 (squeezed wins at g=1.2, "
        "coherent somewhere above)",
        0.0 if ok else 1.0, 0.0, 49, ok,
        "" if ok else f"squeezed_low={squeezed_wins_low} coherent_high={coherent_wins_somewhere}",
    ))

    # contribution regimes at p = 3, nbar = 1
    violations, count, worst_label = 0, 0, ""
    for kind, probe in _figure_probes():
        # the grid's end points are exactly 1.05 and 6.0
        gs = np.linspace(1.05, 6.0, 23)
        bd = qfi_effective(probe, _gain_points(gs, 3))
        low, *_, high = bd.points()
        count += 2
        if not (low.f_c > low.ps_qs and low.f_c > low.pf_qf):
            violations += 1
            worst_label = f"{kind} f_c not dominant at g=1.05"
        if not (high.ps_qs > high.f_c and high.ps_qs > high.pf_qf):
            violations += 1
            worst_label = f"{kind} ps_qs not dominant at g=6"
        count += gs.size
        bad = bd.pf_qf > np.maximum(bd.f_c, bd.ps_qs)
        if bad.any():
            violations += int(bad.sum())
            worst_label = f"{kind} pf_qf largest at g={gs[np.flatnonzero(bad)[-1]]:.3f}"
    results.append(CheckResult(
        "contributions: f_c dominates near the boundary, ps_qs at large gain, "
        "pf_qf never largest",
        float(violations), 0.0, count, violations == 0, worst_label,
    ))
    return results


# ---------------------------------------------------------------------------
# Meter suite
# ---------------------------------------------------------------------------

def check_meter_suite() -> list[CheckResult]:
    """Joint QFI never exceeds q_eff; equality iff the meter phase is real.

    Each point's random meters and the real-phase meters go through one
    ``qfi_joint_meter`` call.
    """
    rng = np.random.default_rng(METER_SEED)
    bound_w = _Worst()
    equality_w = _Worst()
    real_phase = [
        MeterState.trivial(),
        MeterState(alpha=1.0, beta=0.0),
        MeterState(alpha=math.sqrt(0.5), beta=math.sqrt(0.5)),
        MeterState(alpha=-math.sqrt(0.3), beta=math.sqrt(0.7)),
    ]
    for label, probe, params in standard_grid():
        q_eff = qfi_effective_closed_form(probe, params)
        scale = max(q_eff, NUMERICAL_ZERO)
        meters = []
        # one draw of shape (samples, 4) yields the numbers of that many
        # standard_normal(4) draws, in the same order
        for z in rng.standard_normal((METER_SAMPLES_PER_POINT, 4)):
            nrm = math.sqrt(z @ z)
            meters.append(
                MeterState(alpha=complex(z[0], z[1]) / nrm, beta=complex(z[2], z[3]) / nrm)
            )
        qm = qfi_joint_meter(probe, params, meters + real_phase).tolist()
        for value in qm[:METER_SAMPLES_PER_POINT]:
            bound_w.update(max(value - q_eff, 0.0) / scale, label)
        for value in qm[METER_SAMPLES_PER_POINT:]:
            equality_w.update(abs(value - q_eff) / scale, label)
    return [
        bound_w.result("joint QFI <= q_eff over random meters", 1e-9),
        equality_w.result("joint QFI equals q_eff when Im[alpha conj(beta)] = 0", 1e-9),
    ]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_all() -> list[CheckResult]:
    """Every suite, in reporting order."""
    breakdowns = standard_breakdowns()
    results: list[CheckResult] = []
    results.extend(check_identity_suite(breakdowns))
    results.extend(check_oracle_suite(breakdowns))
    results.extend(check_detector_suite(breakdowns))
    results.extend(check_figure_behavior())
    results.extend(check_meter_suite())
    return results
