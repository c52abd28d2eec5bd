"""Monte-Carlo check that maximum-likelihood estimation attains the bounds.

Simulates repeated amplifier runs under one of four detection strategies,
estimates the gain by maximum likelihood per replication, and compares the
empirical estimator variance against the Cramer-Rao bound of the strategy:

    photon-counting / homodyne  ->  1 / (shots * q_eff)
    herald-only                 ->  1 / (shots * f_c)
    success-only                ->  1 / (shots * p_s * q_s)

Reproducibility: the root seed spawns two child streams, one that draws
every replication and one for the bootstrap, so results are byte-stable
across runs.  A counting or herald experiment draws its replications as
arrays, so a run with fewer replications is not a prefix of a longer one.

Estimation works on sufficient statistics.  An experiment does its set-up
(branch masses, photon-number tables) once.  The R replications of a
photon-counting, success-only or herald-only experiment are drawn directly
as their counts, one vectorised call per quantity and no loop per
replication: the success counts ``n_s ~ Binomial(shots, p_s)`` of all R,
then, for each recorded branch that fired in any replication, every
replication's per-level counts ``Multinomial(n, masses)``, with ``n`` the
array of that branch's shots.  These counts have the distribution of the
``bincount`` of the per-shot inverse-CDF draw of
:func:`nlametro.dense.sample_shots`, the test reference, but they are not
the same integers.  No count summarises homodyne quadratures, so homodyne
replications are drawn one after another from the same stream, and each is
estimated before the next is drawn.  A homodyne replication keeps its
outcomes reduced to the basis the gain reaches: the fields ``c_n <x|n>`` of
the levels ``n <= p`` and, on the success branch, the gain-free tail
``sum_{n>p} c_n <x|n>``.  The estimator is a grid argmax followed by
golden-section search, run for all replications of a counting or herald
experiment at once: the grid surface takes one likelihood evaluation per
grid gain, shared by every replication, and the search evaluates every
replication at its own gain.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import pathlib

import numpy as np

from .fisher import classical_fi, qfi_branch, qfi_effective_closed_form
from .fock import FockVector, default_half_width, wavefunction_matrix
from .instrument import (
    BRANCHES,
    FAILURE,
    GAIN_FLOOR,
    SUCCESS,
    GainDomain,
    NlaParams,
    _kraus_rows,
    branch_probability,
    kraus_diagonal,
)
from .measurements import (
    HOMODYNE,
    MASS_FLOOR,
    PHOTON_COUNTING,
    homodyne_density,
    photon_counting_dist,
)
from .probes import ProbeSpec

HERALD_ONLY = "herald-only"
SUCCESS_ONLY = "success-only"
DETECTORS = (PHOTON_COUNTING, HOMODYNE, HERALD_ONLY, SUCCESS_ONLY)

# Log-likelihood surfaces flatter than this (relative to their scale) carry
# no gain information at all.
FLATNESS_TOL = 1e-9

RESULT_SCHEMA_VERSION = 4


class DegenerateLikelihood(RuntimeError):
    """The observed record cannot distinguish gains (flat likelihood)."""


@dataclasses.dataclass(frozen=True)
class GainGrid:
    """Coarse search grid for the likelihood maximization."""

    lo: float
    hi: float
    points: int = 61

    def __post_init__(self):
        if not self.lo >= GAIN_FLOOR:
            raise GainDomain(
                f"search grid starts at gain {float(self.lo)!r}, below the domain "
                f"floor {GAIN_FLOOR!r}"
            )
        if not (self.hi > self.lo):
            raise ValueError("grid upper edge must exceed the lower edge")
        if not math.isfinite(self.hi):
            raise ValueError(f"search grid endpoints must be finite, got hi={float(self.hi)!r}")
        if self.points < 3:
            raise ValueError("grid needs at least 3 points")

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.points)

    def edge_hits(self, estimates: np.ndarray) -> int:
        """Estimates that lie in the first or the last grid cell."""
        cell = (self.hi - self.lo) / (self.points - 1)
        return int(((estimates < self.lo + cell) | (estimates > self.hi - cell)).sum())


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """One simulated calibration campaign."""

    probe: ProbeSpec
    params_true: NlaParams
    detector: str
    shots: int
    seed: int
    grid: GainGrid

    def __post_init__(self):
        if self.detector not in DETECTORS:
            raise ValueError(f"unknown detector {self.detector!r}")
        if self.shots < 1:
            raise ValueError("shots must be positive")
        if not (self.grid.lo <= self.params_true.g <= self.grid.hi):
            raise ValueError("search grid must contain the true gain")

    def describe(self) -> dict:
        return {
            "probe": self.probe.describe(),
            "g_true": self.params_true.g,
            "threshold": self.params_true.p,
            "detector": self.detector,
            "shots": self.shots,
            "seed": self.seed,
            "grid": {"lo": self.grid.lo, "hi": self.grid.hi, "points": self.grid.points},
        }


@dataclasses.dataclass(frozen=True)
class ExperimentResult:
    """Replication estimates and their comparison against the bound.

    Search diagnostics: ``edge_hits`` counts the estimates in the first or
    last grid cell (:meth:`GainGrid.edge_hits`); ``likelihood_evaluations``
    and ``golden_section_iterations`` total, over the replications, what a
    search run on each replication alone makes (grid points, two bracket
    points and one evaluation per iteration).  A replication whose estimate
    is not in an edge cell searches a bracket of two grid cells down to the
    absolute ``tol=1e-6``, so its iteration count is fixed by the grid
    spacing: 23 per replication on the grid ``4/3:3:61``.  The two counts
    therefore change only through edge hits.  There is no count of
    degenerate replications: a flat or vanished likelihood raises
    :class:`DegenerateLikelihood` and aborts the whole run.
    """

    detector: str
    estimates: np.ndarray
    success_counts: np.ndarray
    empirical_variance: float
    fisher_per_shot: float
    crb: float
    ratio: float
    ratio_ci: tuple[float, float]
    shots: int
    seed: int
    edge_hits: int
    likelihood_evaluations: int
    golden_section_iterations: int

    @property
    def replications(self) -> int:
        return self.estimates.size

    @property
    def success_count(self) -> int:
        """Total realized successes over all replications."""
        return int(self.success_counts.sum())

    def to_dict(self) -> dict:
        return {
            "detector": self.detector,
            "replications": self.replications,
            "shots": self.shots,
            "seed": self.seed,
            "estimates": [float(x) for x in self.estimates],
            "success_count": self.success_count,
            "empirical_variance": self.empirical_variance,
            "fisher_per_shot": self.fisher_per_shot,
            "crb": self.crb,
            "ratio": self.ratio,
            "ratio_ci": [self.ratio_ci[0], self.ratio_ci[1]],
            "edge_hits": self.edge_hits,
            "likelihood_evaluations": self.likelihood_evaluations,
            "golden_section_iterations": self.golden_section_iterations,
        }


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

# Branches whose outcome the detector records.
_RECORDED = {
    PHOTON_COUNTING: BRANCHES,
    HOMODYNE: BRANCHES,
    HERALD_ONLY: (),
    SUCCESS_ONLY: (SUCCESS,),
}


def _branch_masses(probe: FockVector, params: NlaParams) -> tuple[float, np.ndarray, np.ndarray]:
    ps = branch_probability(probe, params, SUCCESS)
    ms = photon_counting_dist(probe, params, SUCCESS).masses
    if ps < 1.0:
        mf = photon_counting_dist(probe, params, FAILURE).masses
    else:
        mf = np.zeros(probe.dim)
    return ps, ms, mf


HOMODYNE_CDF_POINTS = 8193


def _homodyne_sampler(probe: FockVector, params: NlaParams, branch: str):
    """Tabulated inverse CDF of the conditional homodyne density.

    The density is tabulated on a uniform fine grid and accumulated with the
    trapezoid rule, so inverse sampling draws from the piecewise-linear CDF
    whose moment and Fisher-information bias is O(dx^2) — quadrature-node
    cumsums instead shift every sample left by about half a node weight.
    """
    half_width = default_half_width(probe.dim)
    xs = np.linspace(-half_width, half_width, HOMODYNE_CDF_POINTS)
    dens = homodyne_density(probe, params, branch, xs)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(xs))))
    cdf = cdf / cdf[-1]
    keep = np.empty(cdf.size, dtype=bool)
    keep[0] = True
    keep[1:] = np.diff(cdf) > 1e-15
    cdf_k, xs_k = cdf[keep], xs[keep]

    def sample(u: np.ndarray) -> np.ndarray:
        return np.interp(u, cdf_k, xs_k)

    return sample


class _ShotSource:
    """Amplifier runs of one configuration, with its set-up done once.

    The branch masses are computed at construction.  :meth:`counts` gives
    the counts of many counting or herald records at once, straight from
    their own distribution; :meth:`draw` gives homodyne runs shot by shot.
    A branch's inverse-CDF table is built on the first shot of that branch,
    because a branch that never fires may have no density to tabulate.
    """

    def __init__(self, probe: FockVector, params: NlaParams, detector: str):
        if detector not in DETECTORS:
            raise ValueError(f"unknown detector {detector!r}")
        self._probe, self._params, self._detector = probe, params, detector
        self._ps, ms, mf = _branch_masses(probe, params)
        self._masses = {SUCCESS: ms, FAILURE: mf}
        self._samplers = {}

    def draw(self, rng: np.random.Generator, shots: int) -> tuple[np.ndarray, dict]:
        """``(success_mask, {branch: quadratures of that branch's shots})``.

        Only the branches the detector records appear, each only when it
        fired; the generator is consumed in that order.
        """
        success = rng.random(shots) < self._ps
        fired = self._fired(int(success.sum()), shots)
        return success, {branch: self._sampler(branch)(rng.random(n)) for branch, n in fired}

    def counts(self, rng: np.random.Generator, shots: int, replications: int) -> "_Counts":
        """The counts of ``replications`` photon-counting or herald records.

        One ``Binomial(shots, p_s)`` call draws every record's ``n_s``, then
        one ``Multinomial(n, masses)`` call per recorded branch that fired in
        any record, in :meth:`_fired` order, draws every record's per-level
        counts.  The last level takes the mass a table leaves over, as in the
        per-shot inverse CDF.  ``p_s``, a sum of squares, is capped at 1,
        since a norm within rounding of 1 can round it above 1.
        """
        n_s = rng.binomial(shots, min(self._ps, 1.0), size=replications)
        levels = {
            branch: rng.multinomial(n, self._masses[branch])
            for branch, n in self._fired(n_s, shots)
        }
        zeros = np.zeros((replications, self._probe.dim), dtype=np.int64)
        return _Counts(n_s, shots - n_s, levels.get(SUCCESS, zeros), levels.get(FAILURE, zeros))

    def _fired(self, n_s, shots: int):
        """Each recorded branch that fired, with its shots, in draw order.

        ``n_s`` is one record's success count or an array of them; a branch
        fired if it did in any record.
        """
        for branch, n in ((SUCCESS, n_s), (FAILURE, shots - n_s)):
            if np.any(n) and branch in _RECORDED[self._detector]:
                yield branch, n

    def _sampler(self, branch: str):
        if self._detector != HOMODYNE:
            raise ValueError(f"{self._detector} records are drawn as counts")
        if branch not in self._samplers:
            self._samplers[branch] = _homodyne_sampler(self._probe, self._params, branch)
        return self._samplers[branch]


# ---------------------------------------------------------------------------
# Sufficient statistics and the likelihood
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class _Counts:
    """Sufficient statistics of R counting or herald replications.

    ``n_s``/``n_f`` hold each replication's successes and failures;
    ``success``/``failure`` its per-level counts (R x dim), zero on a branch
    the detector does not record or that never fired.
    """

    n_s: np.ndarray
    n_f: np.ndarray
    success: np.ndarray
    failure: np.ndarray


@dataclasses.dataclass(frozen=True)
class _Quadratures:
    """One homodyne replication, reduced to the basis the gain reaches.

    Above the threshold ``E_s = 1`` and ``E_f = 0``, so at outcomes ``x`` the
    success field is ``sum_{n<=p} E_s(n) c_n <x|n> + T(x)``, whose tail
    ``T = sum_{n>p} c_n <x|n>`` does not depend on the gain, and the failure
    field stops at ``n = p``.  Each branch keeps the rows ``c_n <x|n>`` for
    ``n <= p``, and the success branch also keeps ``T`` as its last row:
    ``(p+2, N_s)`` and ``(p+1, N_f)``, or ``(dim, N)`` each when ``p+1 >= dim``
    leaves no tail.  A field is then ``E @ rows``, with ``E`` the Kraus
    diagonal on the first ``len(rows)`` levels, since ``E_s(p+1) = 1`` weights
    the tail.  The rows are real when the probe's amplitudes are, and
    ``None`` where the branch never fired.
    """

    success: np.ndarray | None
    failure: np.ndarray | None

    @classmethod
    def of(cls, probe: FockVector, p: int, drawn: dict) -> "_Quadratures":
        amps = probe.amps if probe.amps.imag.any() else probe.amps.real
        head = min(p + 1, probe.dim)

        def reduce(branch: str) -> np.ndarray | None:
            if branch not in drawn:
                return None
            levels = probe.dim if branch == SUCCESS else head
            psi = wavefunction_matrix(levels, drawn[branch])
            rows = amps[:head, np.newaxis] * psi[:head]
            if levels > head:
                rows = np.vstack((rows, amps[head:] @ psi[head:]))
            return rows

        return cls(*(reduce(branch) for branch in BRANCHES))


def _log_likelihoods(
    probe: FockVector, p: int, detector: str, stats, g: np.ndarray
) -> np.ndarray:
    """Log-likelihood of replication ``r`` of ``stats`` at gain ``g[r]``.

    Gains must lie in the domain (``GainGrid`` guarantees it).  Masses and
    densities are floored at ``MASS_FLOOR`` before the logarithm.
    """
    dim = probe.dim
    if detector == HOMODYNE:
        # fields at the recorded quadratures; one replication at a time
        (gain,) = g
        params = NlaParams(g=float(gain), p=p)
        total = 0.0
        for branch, rows in ((SUCCESS, stats.success), (FAILURE, stats.failure)):
            if rows is not None:
                field = kraus_diagonal(params, branch, rows.shape[0]) @ rows
                density = np.abs(field) ** 2 if np.iscomplexobj(field) else field * field
                total += float(np.sum(np.log(np.maximum(density, MASS_FLOOR))))
        return np.array([total])
    w = probe.weights()
    g = g[:, np.newaxis]
    es = _kraus_rows(g, p, SUCCESS, dim)
    qs = es * es * w
    if detector == HERALD_ONLY:
        # the flooring clamps p_s into [MASS_FLOOR, 1 - MASS_FLOOR]
        ps = qs.sum(axis=1)
        return stats.n_s * np.log(np.maximum(ps, MASS_FLOOR)) + stats.n_f * np.log(
            np.maximum(1.0 - ps, MASS_FLOOR)
        )
    total = np.sum(stats.success * np.log(np.maximum(qs, MASS_FLOOR)), axis=1)
    if detector == PHOTON_COUNTING:
        ef = _kraus_rows(g, p, FAILURE, dim)
        qf = ef * ef * w
        return total + np.sum(stats.failure * np.log(np.maximum(qf, MASS_FLOOR)), axis=1)
    # success-only: conditional on success, divide each mass by p_s
    return total - stats.n_s * np.log(np.maximum(qs.sum(axis=1), MASS_FLOOR))


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _maximize(loglik, grid: GainGrid, tol: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Per-row maximum-likelihood gains: coarse grid argmax, then golden section.

    ``loglik(g)`` maps one gain per row, or one gain shared by every row, to
    each row's log-likelihood.  Each row searches the grid cells on either
    side of its argmax; the rows move in lockstep, and a row whose bracket is
    narrower than ``tol`` stops moving, so each row takes exactly the steps
    of a search run on its own.  Returns the gains and each row's number of
    golden-section iterations.
    """
    values = grid.values()
    surface = np.stack([loglik(np.array([g])) for g in values], axis=1)
    finite = np.isfinite(surface)
    top = surface.max(axis=1)
    vanished = ~finite.any(axis=1)
    flat = finite.all(axis=1) & (
        top - surface.min(axis=1) < FLATNESS_TOL * np.maximum(1.0, np.abs(top))
    )
    if (vanished | flat).any():
        if vanished[np.argmax(vanished | flat)]:
            raise DegenerateLikelihood("likelihood vanished on the whole grid")
        raise DegenerateLikelihood(
            "log-likelihood is flat across the search grid; the record does "
            "not constrain the gain"
        )
    idx = np.argmax(np.where(finite, surface, -np.inf), axis=1)
    lo = values[np.maximum(idx - 1, 0)]
    hi = values[np.minimum(idx + 1, values.size - 1)]
    a, b = lo, hi
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = loglik(x1), loglik(x2)
    iterations = np.zeros(idx.size, dtype=np.int64)
    while (active := b - a > tol).any():
        iterations += active
        left = f1 >= f2
        # left: the maximum lies in [a, x2]; otherwise in [x1, b]
        a_new = np.where(left, a, x1)
        b_new = np.where(left, x2, b)
        x_new = np.where(
            left, b_new - _INVPHI * (b_new - a_new), a_new + _INVPHI * (b_new - a_new)
        )
        f_new = loglik(x_new)
        moved = (
            a_new, b_new,
            np.where(left, x_new, x2), np.where(left, f_new, f2),
            np.where(left, x1, x_new), np.where(left, f1, f_new),
        )
        a, b, x1, f1, x2, f2 = [
            np.where(active, new, old) for new, old in zip(moved, (a, b, x1, f1, x2, f2))
        ]
    return 0.5 * (a + b), iterations


def _estimates(
    probe: FockVector, p: int, detector: str, stats, grid: GainGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Maximum-likelihood gains of the replications in ``stats``, and their iterations."""
    return _maximize(functools.partial(_log_likelihoods, probe, p, detector, stats), grid)


# ---------------------------------------------------------------------------
# Bounds and the experiment driver
# ---------------------------------------------------------------------------

def fisher_per_shot(probe: FockVector, params: NlaParams, detector: str) -> float:
    """Per-shot Fisher information matching the detection strategy."""
    if detector in (PHOTON_COUNTING, HOMODYNE):
        return qfi_effective_closed_form(probe, params)
    if detector == HERALD_ONLY:
        return classical_fi(probe, params)
    if detector == SUCCESS_ONLY:
        return branch_probability(probe, params, SUCCESS) * qfi_branch(
            probe, params, SUCCESS
        )
    raise ValueError(f"unknown detector {detector!r}")


def _cramer_rao(info: float, detector: str, shots: int) -> float:
    if info <= 0.0:
        raise DegenerateLikelihood(
            f"{detector} carries zero gain information at this operating point"
        )
    return 1.0 / (shots * info)


def run_crb_experiment(config: ExperimentConfig, replications: int) -> ExperimentResult:
    """Run the replicated experiment and compare variance to the bound.

    The ratio confidence interval comes from a seeded nonparametric
    bootstrap (1000 resamples) over the replication estimates.
    """
    if replications < 2:
        raise ValueError("need at least 2 replications for a variance")
    probe = config.probe.build()
    p, detector = config.params_true.p, config.detector
    draws, boot_rng = map(np.random.default_rng, np.random.SeedSequence(config.seed).spawn(2))
    source = _ShotSource(probe, config.params_true, detector)
    if detector == HOMODYNE:
        estimates = np.empty(replications)
        iterations = np.empty(replications, dtype=np.int64)
        success_counts = np.empty(replications, dtype=np.int64)
        for i in range(replications):
            success, drawn = source.draw(draws, config.shots)
            success_counts[i] = int(success.sum())
            # outcomes have no count summary: estimate before the next draw
            stats = _Quadratures.of(probe, p, drawn)
            (estimates[i],), (iterations[i],) = _estimates(probe, p, detector, stats, config.grid)
            del stats
    else:
        counts = source.counts(draws, config.shots, replications)
        estimates, iterations = _estimates(probe, p, detector, counts, config.grid)
        success_counts = counts.n_s
    variance = float(estimates.var(ddof=1))
    info = fisher_per_shot(probe, config.params_true, detector)
    crb = _cramer_rao(info, detector, config.shots)
    ratio = variance / crb
    # 100 resamples at a time: the same draws and row variances as one
    # (1000, R) block, without holding three such blocks at the peak
    boot = np.concatenate([
        estimates[boot_rng.integers(0, replications, size=(100, replications))].var(axis=1, ddof=1)
        for _ in range(10)
    ]) / crb
    lo, hi = np.percentile(boot, [2.5, 97.5])
    return ExperimentResult(
        detector=config.detector,
        estimates=estimates,
        success_counts=success_counts,
        empirical_variance=variance,
        fisher_per_shot=info,
        crb=crb,
        ratio=ratio,
        ratio_ci=(float(lo), float(hi)),
        shots=config.shots,
        seed=config.seed,
        edge_hits=config.grid.edge_hits(estimates),
        likelihood_evaluations=int((config.grid.points + 2) * replications + iterations.sum()),
        golden_section_iterations=int(iterations.sum()),
    )


def write_records_jsonl(path, config: ExperimentConfig, result: ExperimentResult) -> None:
    """One JSON object per replication: estimate, shots, realized successes."""
    lines = []
    for i in range(result.replications):
        lines.append(
            json.dumps(
                {
                    "replication": i,
                    "estimate": float(result.estimates[i]),
                    "shots": config.shots,
                    "success_count": int(result.success_counts[i]),
                },
                sort_keys=True,
            )
        )
    pathlib.Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
