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
= 280 operating points, 35 per probe, one batch per probe
(:class:`~nlametro.instrument.NlaParams` with an array of gains).
:func:`standard_grids` builds each probe's one
:class:`~nlametro.instrument.KrausImages`, from one ``_kraus_pair`` call,
and the budget it gives, one :class:`~nlametro.fisher.FisherBreakdown` of
arrays, and :func:`run_all` passes both to the identity, oracle, detector
and meter suites, which read their arrays.

The oracle suite scores its five rows (``q_s``, ``q_f``, ``q_eff`` through
the trivial meter, ``q_unc`` and a generic meter) on the Kraus-image Gram
matrices of all 280 points, built in one batch at ``dg=1e-4`` in
double-double arithmetic, about 32 digits from error-free transformations
(Knuth's TwoSum, Dekker's TwoProduct, Hida-Li-Bailey division and square
root).  Their rounding, O(p) units of 2^-104 in a deficit, lies eleven
orders below the smallest real deficit, so no step is refused and every row
scores all 280 points.  Its 280 generic meters are one
:class:`~nlametro.instrument.MeterBatch` from :func:`draw_meters`, one meter
per point; the analytic side scores each probe's slice of them with the
kernel that ``qfi_joint_meter`` wraps, on the probe's budget and images.

The suites score each row's errors as one array, each number still coming
from the library code it checks.  The identity rows read the images' Kraus
rows, branch probabilities and traces, take the conditional states from one
``_conditional_rows`` call per branch on them, and make one
``completeness_defect`` call.  The detector rows pass the images to the
kernels that the public detector functions wrap, one call per branch of
``_branch_counting_fi``, ``_counting_dist``, ``_branch_homodyne_fi`` and
``_homodyne_dist`` and one ``_record_fi`` call per detector.  Homodyne
multiplies the points' real coefficient rows, in chunks, against one
Kraus-image basis of ``min(dim, max p + 2)`` rows on the probe's quadrature
grid (7 rows here, for probes of up to 149 levels, on grids of 224 to 496
nodes sized by the probe's level weights), which keeps the products on one
OpenBLAS thread; the basis is streamed from the wavefunction recurrence and
cached as those rows only, so a pass holds no ``dim``-row table.  The meter suite draws a probe's 1750 random meters as one
block of a counter-based stream (:func:`draw_meters`, SplitMix64 in
``uint64`` array arithmetic, so the meters are the same bits on every IEEE
platform and ``numpy.random`` is never imported) and scores a
:class:`~nlametro.instrument.MeterBatch` of the probe's 35 points x 54
meters on the budget's ``q_eff`` and the images' coupling terms.

A row fails when its worst error exceeds the tolerance or when any of its
errors is NaN or infinite; the row then names the first such point and
counts them.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .fisher import (
    FisherBreakdown,
    _budget,
    _coupling,
    _joint_meter,
    qfi_effective,
    qfi_effective_closed_form,
)
from .fock import FockVector
from .instrument import (
    BRANCHES,
    FAILURE,
    KrausImages,
    MeterBatch,
    MeterState,
    NlaParams,
    SUCCESS,
    _conditional_rows,
    completeness_defect,
)
from .measurements import (
    HOMODYNE,
    PHOTON_COUNTING,
    _branch_counting_fi,
    _branch_homodyne_fi,
    _counting_dist,
    _homodyne_dist,
    _record_fi,
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

# SplitMix64 (Steele, Lea & Flood 2014): output k of the stream keyed by a
# seed mixes ``seed + (k + 1) * _SPLITMIX_GAMMA``.
_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))


def _uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs ``start`` .. ``start + count - 1`` of SplitMix64 keyed by
    ``seed``, as 53-bit uniforms in [0, 1).

    Each output is a function of its index alone, so a block equals the
    same outputs drawn one at a time.  The ``uint64`` arithmetic stays on
    arrays, which wrap modulo 2^64 without a warning (numpy scalars warn).
    """
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64) * _SPLITMIX_GAMMA
    z += np.uint64(seed)
    z = (z ^ (z >> np.uint64(30))) * _SPLITMIX_MIX[0]
    z = (z ^ (z >> np.uint64(27))) * _SPLITMIX_MIX[1]
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def draw_meters(seed: int, shape: tuple[int, ...], start: int = 0) -> MeterBatch:
    """Meters ``start`` onward of the stream keyed by ``seed``, in ``shape``.

    Meter ``k`` takes uniforms ``4k .. 4k+3`` of :func:`_uniforms`, maps
    them to ``z`` in [-1, 1) exactly and is ``(z0 + i z1, z2 + i z3) / |z|``,
    a meter anywhere on the unit sphere (though not uniformly spread).  The
    norm is summed in a fixed order and every operation is correctly
    rounded, so the meters are the same bits on every IEEE platform, and a
    block equals the same meters drawn one at a time.
    """
    count = math.prod(shape)
    z = 2.0 * _uniforms(seed, 4 * start, 4 * count).reshape(*shape, 4) - 1.0
    nrm = np.sqrt(z[..., 0] * z[..., 0] + z[..., 1] * z[..., 1]
                  + z[..., 2] * z[..., 2] + z[..., 3] * z[..., 3])
    amps = (z / nrm[..., np.newaxis]).view(np.complex128)
    return MeterBatch(amps[..., 0], amps[..., 1])


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
    """Yield (probe, labels, params) per standard probe: its 35 operating points, one batch."""
    g, p = (np.ravel(x) for x in np.meshgrid(STANDARD_GAINS, STANDARD_THRESHOLDS, indexing="ij"))
    for kind, nbar, probe in standard_probes():
        labels = [f"{kind} nbar={nbar:g} g={gain:g} p={p}"
                  for gain in STANDARD_GAINS for p in STANDARD_THRESHOLDS]
        yield probe, labels, NlaParams(g=g, p=p)


ProbeGrid = tuple[FockVector, list[str], NlaParams, KrausImages, FisherBreakdown]


def standard_grids() -> list[ProbeGrid]:
    """(probe, labels, params, images, budget) per standard probe.

    A probe's 35 operating points, thresholds mixed, get one
    :class:`~nlametro.instrument.KrausImages`, and their budget, as arrays,
    is the one the images give.  :func:`run_all` builds the grids once per
    pass and hands them to the identity, oracle, detector and meter suites;
    nothing is cached between calls.
    """
    grids = []
    for probe, labels, points in standard_probe_grids():
        images = KrausImages.of(probe, points)
        grids.append((probe, labels, points, images, _budget(images)))
    return grids


class _Worst:
    """Track the largest error and where it happened, and any non-finite error."""

    def __init__(self):
        self.value = 0.0
        self.label = ""
        self.count = 0
        self.nonfinite = 0
        self.nonfinite_label = ""

    def update(self, errs, labels) -> None:
        """Score an array of errors and name where the worst one happened.

        ``labels`` names equal consecutive runs of the errors in row-major
        order: one label per error, or one per row of a 2-D array.  The
        first largest finite error names the location, as if the errors were
        scored one at a time.  A NaN or infinite error is never the largest:
        it is counted apart, the first one names its own location, and any
        one of them fails the row.
        """
        flat = np.ravel(errs)
        run = flat.size // len(labels)
        self.count += flat.size
        finite = np.isfinite(flat)
        if not finite.all():
            if not self.nonfinite:
                self.nonfinite_label = labels[int(np.argmin(finite)) // run]
            self.nonfinite += int(flat.size - np.count_nonzero(finite))
        i = int(np.argmax(np.where(finite & (flat > self.value), flat, -np.inf)))
        if finite[i] and flat[i] > self.value:
            self.value = float(flat[i])
            self.label = labels[i // run]

    def result(self, name: str, tol: float) -> CheckResult:
        parts = [self.label] if self.value > 0 else []
        if self.nonfinite:
            parts.append(f"{self.nonfinite} non-finite, first at {self.nonfinite_label}")
        return CheckResult(
            name=name,
            worst=self.value,
            tolerance=tol,
            points=self.count,
            passed=self.value <= tol and not self.nonfinite,
            detail="; ".join(parts),
        )


def _rel(a, b, floor: float = NUMERICAL_ZERO) -> np.ndarray:
    """Elementwise ``|a - b| / max(|a|, |b|)``, and 0 where that scale is below ``floor``."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = np.maximum(np.abs(a), np.abs(b))
    return np.divide(np.abs(a - b), scale, out=np.zeros(scale.shape), where=~(scale < floor))


def _branch_labels(labels: list[str], suffixes) -> list[str]:
    """One label per point and suffix, point-major, as the errors of a ``G x S`` array run."""
    return [f"{label} {suffix}" for label in labels for suffix in suffixes]


# ---------------------------------------------------------------------------
# Identity suite
# ---------------------------------------------------------------------------

def check_identity_suite(grids: list[ProbeGrid]) -> list[CheckResult]:
    """Exact algebraic identities across the standard grid.

    ``grids`` is :func:`standard_grids`.  The Kraus rows, the branch
    probabilities and the Kraus-image traces of a probe's 35 operating
    points, thresholds mixed, are its images' arrays; the conditional
    states and their slopes come from one ``_conditional_rows`` call per
    branch on them, and ``completeness_defect`` takes the 35 points in one
    call over all levels.
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
    for probe, labels, points, images, bd in grids:
        completeness.update(completeness_defect(points, probe.dim), labels)
        # every level above the image rows has E_s = 1 and E_f = dE = 0
        e, de = images.e, images.de
        kraus_deriv.update(np.max(np.abs(e[..., 0] * de[..., 0] + e[..., 1] * de[..., 1]), axis=1),
                           labels)
        prob_sum.update(np.abs(images.prob.sum(axis=1) - 1.0), labels)
        dprob_sum.update(np.abs(images.dprob.sum(axis=1)), labels)
        branch_labels = _branch_labels(labels, BRANCHES)
        norms, overlaps = [], []
        for branch in BRANCHES:
            amps, damps = _conditional_rows(images, probe.amps, branch)[:2]
            # per row: a batched norm sums in another order than the BLAS dot
            # of np.linalg.norm, which moves this row's printed location
            norms.append([abs(np.linalg.norm(row) - 1.0) for row in amps])
            overlaps.append(np.abs(np.sum(amps.conj() * damps, axis=1)))
        cond_norm.update(np.transpose(norms), branch_labels)
        orthogonality.update(np.transpose(overlaps), branch_labels)
        scale = np.maximum(bd.q_eff, NUMERICAL_ZERO)
        breakdown_identity.update(np.abs(bd.q_eff - bd.component_sum()) / scale, labels)
        # one-sided bounds, scored as relative overshoot
        hierarchy_slack.update(np.stack([np.maximum(bd.ps_qs - bd.q_eff, 0.0) / scale,
                                         np.maximum(bd.q_unc - bd.q_eff, 0.0) / scale], axis=1),
                               labels)
        # tr(A A^T) = ||A||_F^2 for the Kraus images A = [E_s c, E_f c]; per
        # point, like the norms above
        unc_trace.update([abs(np.vdot(a, a) - 1.0) for a in images.a], labels)
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
    """q_eff grows toward the gain floor: q(1.001) > q(1.01) > q(1.1).

    One closed-form call per probe covers its thresholds' three gains.
    """
    violations = 0
    count = 0
    worst_label = ""
    gains = (1.001, 1.01, 1.1)
    for kind, nbar, probe in standard_probes():
        points = NlaParams(g=np.tile(gains, len(STANDARD_THRESHOLDS)),
                           p=np.repeat(STANDARD_THRESHOLDS, len(gains)))
        vals = qfi_effective_closed_form(probe, points).reshape(-1, len(gains))
        for p, (near, mid, far) in zip(STANDARD_THRESHOLDS, vals):
            count += 1
            if not (near > mid > far):
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

def check_oracle_suite(grids: list[ProbeGrid]) -> list[CheckResult]:
    """Fidelity finite differences against every analytic information value.

    The oracle values of all 280 points come from one
    :class:`~nlametro.oracles.KrausImageFD` at ``dg=1e-4``: the Gram
    matrices of the Kraus images ``A = [E_s c, E_f c]`` at ``g -/+ dg/2``
    are built once in double-double and contracted per family -- the
    success and failure states, the joint state with the trivial and a
    random meter per point, and the Bures deficit of ``A A^+`` (Uhlmann's
    ``sqrt F = ||A(g-)^+ A(g+)||_*``).  The deficits have no noise floor,
    so every row scores all 280 points.  The analytic side comes from the
    budgets and images of ``grids`` (:func:`standard_grids`), the generic
    meters' from the kernel that ``qfi_joint_meter`` wraps.  The random
    meters are one :class:`~nlametro.instrument.MeterBatch`.
    """
    labels = [label for _, grid_labels, *_ in grids for label in grid_labels]
    probes = [probe for probe, _, grid_points, *_ in grids for _ in range(grid_points.g.size)]
    points = NlaParams(g=np.concatenate([pts.g for _, _, pts, *_ in grids]),
                       p=np.concatenate([pts.p for _, _, pts, *_ in grids]))
    meters = draw_meters(GENERIC_METER_SEED, (points.g.size,))
    fd = KrausImageFD(probes, points, DEFAULT_QFI_STEP)
    oracle = np.column_stack([
        fd.pure(SUCCESS),
        fd.pure(FAILURE),
        fd.pure(MeterState.trivial()),
        fd.bures(),
        fd.pure(meters),
    ])
    # one joint-meter call per probe, one meter per point
    joint, start = [], 0
    for *_, images, bd in grids:
        part = slice(start, start + bd.q_eff.size)
        joint.append(_joint_meter(bd.q_eff, _coupling(images),
                                  MeterBatch(meters.alpha[part], meters.beta[part])))
        start = part.stop
    analytic = np.column_stack([
        np.concatenate([np.column_stack([bd.q_s, bd.q_f, bd.q_eff, bd.q_unc]) for *_, bd in grids]),
        np.concatenate(joint),
    ])
    names = (
        "q_s vs Kraus-image fidelity FD at dg=1e-4",
        "q_f vs Kraus-image fidelity FD at dg=1e-4",
        "q_eff vs Kraus-image joint-state fidelity FD at dg=1e-4",
        "q_unc vs Kraus-image Bures fidelity FD at dg=1e-4",
        "joint QFI with generic meters vs Kraus-image fidelity FD at dg=1e-4",
    )
    results = []
    for name, errs in zip(names, _rel(analytic, oracle).T):
        worst = _Worst()
        worst.update(errs, labels)
        results.append(worst.result(name, 1e-5))
    return results


# ---------------------------------------------------------------------------
# Detector suite
# ---------------------------------------------------------------------------

def check_detector_suite(grids: list[ProbeGrid]) -> list[CheckResult]:
    """Detector Fisher informations saturate the branch QFIs on the grid.

    The detector quantities of a probe's operating points come from the
    kernels that the public detector functions wrap, one call per branch on
    the probe's images, and the branch QFIs from the budgets of ``grids``
    (:func:`standard_grids`).  A batch's distribution gives the totals of
    all its points from one ``total()``.
    """
    pc_w, hd_w, seq_pc_w, seq_hd_w, norm_w = (_Worst() for _ in range(5))
    detectors = (("photon", _counting_dist), ("homodyne", _homodyne_dist))
    for probe, labels, _, images, bd in grids:
        q_branch = np.column_stack([bd.q_s, bd.q_f])
        branch_labels = _branch_labels(labels, BRANCHES)
        photon = np.column_stack([_branch_counting_fi(images, probe, b) for b in BRANCHES])
        pc_w.update(_rel(photon, q_branch), branch_labels)
        homodyne = np.column_stack([_branch_homodyne_fi(images, probe, b) for b in BRANCHES])
        hd_w.update(_rel(homodyne, q_branch), branch_labels)
        # point x branch x detector
        totals = np.array([[distribution(images, probe, b).total() for _, distribution in detectors]
                           for b in BRANCHES]).transpose(2, 0, 1)
        norm_w.update(np.abs(totals - 1.0),
                      _branch_labels(branch_labels, [name for name, _ in detectors]))
        target = bd.component_sum()
        seq_pc_w.update(_rel(_record_fi(images, probe, PHOTON_COUNTING), target), labels)
        seq_hd_w.update(_rel(_record_fi(images, probe, HOMODYNE), target), labels)
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


def _strictly_decreasing(values: np.ndarray) -> bool:
    return bool(np.all(values[:-1] > values[1:]))


def check_figure_behavior() -> list[CheckResult]:
    """Qualitative curve properties at nbar = 1, one budget call per gain list."""
    results = []

    # hierarchy q_eff > ps_qs >= q_unc on g in [1.2, 4] at p = 3
    violations, count, worst_label = 0, 0, ""
    for kind, probe in _figure_probes():
        gs = np.linspace(1.2, 4.0, 15)
        bd = qfi_effective(probe, NlaParams(g=gs, p=3))
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
        if not _strictly_decreasing(qfi_effective_closed_form(probe, NlaParams(g=gs, p=3))):
            violations += 1
            worst_label = f"{kind} q_eff not strictly decreasing"
        gs2 = np.linspace(1.3, 4.5, 20)
        bd = qfi_effective(probe, NlaParams(g=gs2, p=3))
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
    high = NlaParams(g=np.linspace(1.3, 6.0, 48), p=2)
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
        bd = qfi_effective(probe, NlaParams(g=gs, p=3))
        count += 2
        if not (bd.f_c[0] > bd.ps_qs[0] and bd.f_c[0] > bd.pf_qf[0]):
            violations += 1
            worst_label = f"{kind} f_c not dominant at g=1.05"
        if not (bd.ps_qs[-1] > bd.f_c[-1] and bd.ps_qs[-1] > bd.pf_qf[-1]):
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

def check_meter_suite(grids: list[ProbeGrid]) -> list[CheckResult]:
    """Joint QFI never exceeds q_eff; equality iff the meter phase is real.

    The random meters and the real-phase meters of a probe's 35 points are
    one :class:`~nlametro.instrument.MeterBatch`, scored by the kernel that
    ``qfi_joint_meter`` wraps on the budget's ``q_eff`` and the coupling
    terms of the probe's images, from ``grids`` (:func:`standard_grids`).
    """
    bound_w = _Worst()
    equality_w = _Worst()
    # trivial, |s>, (|s> + |f>)/sqrt2, -sqrt(0.3)|s> + sqrt(0.7)|f>
    real_alpha = [0.0, 1.0, math.sqrt(0.5), -math.sqrt(0.3)]
    real_beta = [1.0, 0.0, math.sqrt(0.5), math.sqrt(0.7)]
    drawn = 0
    for _, labels, points, images, bd in grids:
        # a block of the stream per probe keeps the suite's arrays small
        shape = (points.g.size, METER_SAMPLES_PER_POINT)
        meters = draw_meters(METER_SEED, shape, start=drawn)
        drawn += meters.alpha.size
        alpha = np.concatenate([meters.alpha, np.tile(real_alpha, (points.g.size, 1))], axis=1)
        beta = np.concatenate([meters.beta, np.tile(real_beta, (points.g.size, 1))], axis=1)
        q_eff = bd.q_eff[:, np.newaxis]
        joint = _joint_meter(bd.q_eff, _coupling(images), MeterBatch(alpha, beta))
        scale = np.maximum(q_eff, NUMERICAL_ZERO)
        bound_w.update(np.maximum(joint[:, :METER_SAMPLES_PER_POINT] - q_eff, 0.0) / scale, labels)
        equality_w.update(np.abs(joint[:, METER_SAMPLES_PER_POINT:] - q_eff) / scale, labels)
    return [
        bound_w.result("joint QFI <= q_eff over random meters", 1e-9),
        equality_w.result("joint QFI equals q_eff when Im[alpha conj(beta)] = 0", 1e-9),
    ]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_all() -> list[CheckResult]:
    """Every suite, in reporting order."""
    grids = standard_grids()
    return [*check_identity_suite(grids), *check_oracle_suite(grids),
            *check_detector_suite(grids), *check_figure_behavior(), *check_meter_suite(grids)]
