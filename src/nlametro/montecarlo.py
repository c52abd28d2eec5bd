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
(branch masses, photon-number tables) once, from one
:class:`~nlametro.instrument.KrausImages` at the true point.  The R
replications of a photon-counting, success-only or herald-only experiment
are drawn directly as their counts, one vectorised call per quantity and no
loop per replication: the success counts ``n_s ~ Binomial(shots, p_s)`` of
all R, then, for each recorded branch that fired in any replication, every
replication's per-level counts ``Multinomial(n, masses)``, with ``n`` the
array of that branch's shots.  These counts have the distribution of the
``bincount`` of the per-shot inverse-CDF draw of
``sample_shots`` in ``tests/dense.py``, the test reference, but they are not
the same integers.  No count summarises homodyne quadratures, so homodyne
replications are drawn one after another from the same stream, and each is
estimated before the next is drawn.  A branch's homodyne outcomes come in
ascending order: the branch's uniforms are sorted before the inverse CDF
maps them, which gives the same outcomes as unsorted uniforms would, sorted.
A homodyne replication keeps its outcomes reduced to the basis the gain
reaches: the fields ``c_n <x|n>`` of the levels ``n <= p`` and, on the
success branch, the gain-free tail ``sum_{n>p} c_n <x|n>``, as real rows
(and imaginary rows for a complex probe), so its likelihood and score run
in real arithmetic.

The estimator is a grid argmax followed by a root search on the analytic
score, the gain derivative of the log-likelihood, inside one grid cell
(:func:`_maximize`).  The score takes the Kraus diagonals and their exact
slopes, not a logarithm, and a few score evaluations replace the golden
section's two dozen likelihood evaluations.  A counting or herald experiment
searches all its replications at once: its grid surface is one product of
the count matrix with the log-masses at every grid gain, and each search
step evaluates every replication's score at its own gain.  A homodyne
replication's surface multiplies ``GRID_BLOCK`` gains' Kraus rows against
its reduced fields at a time, into one buffer in which the density, its
floor and its logarithm are then taken in place.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import pathlib

import numpy as np

from .fisher import _branch_qfi, _herald, qfi_effective_closed_form
from .fock import FockVector, default_half_width, wavefunction_matrix
from .instrument import (
    BRANCHES,
    FAILURE,
    GAIN_FLOOR,
    SUCCESS,
    BranchImpossible,
    GainDomain,
    KrausImages,
    NlaParams,
    _one_point,
    _image_levels,
    _kraus_pair,
    _per_point,
    kraus_diagonal,  # noqa: F401  (unused; perfbench's install test reads montecarlo.kraus_diagonal)
)
from .measurements import (
    HOMODYNE,
    MASS_FLOOR,
    PHOTON_COUNTING,
    _counting_dist,
    _image_basis,
    homodyne_density,
)
from .probes import ProbeSpec

HERALD_ONLY = "herald-only"
SUCCESS_ONLY = "success-only"
DETECTORS = (PHOTON_COUNTING, HOMODYNE, HERALD_ONLY, SUCCESS_ONLY)

# Log-likelihood surfaces flatter than this (relative to their scale) carry
# no gain information at all.
FLATNESS_TOL = 1e-9

RESULT_SCHEMA_VERSION = 8

# Gains per block of a homodyne likelihood surface.  A block's fields are one
# (block, rows) @ (rows, shots) product per part of the record into reused
# buffers, and the rest of the surface is taken in place there.  For 10^4
# shots, blocks of 8 to 16 gains run equally fast, 6 gains about 5% slower
# and the whole 61-gain grid at once 30% slower.  At 8 a block takes 0.6 MB
# per part.
GRID_BLOCK = 8


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
    """One simulated calibration campaign at one true operating point (a batch raises)."""

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
        _one_point(self.params_true)
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

    Search diagnostics, totals over the replications of what a search run on
    each replication alone makes: ``likelihood_evaluations`` counts grid
    gains (the grid points per replication), ``score_evaluations`` the
    evaluations of the analytic score (two at the ends of the grid cell the
    search takes, then one per root-search step).  ``edge_hits`` counts the
    estimates in the first or last grid cell (:meth:`GainGrid.edge_hits`).
    ``observed_information_ratio`` is the mean over the replications of the
    observed information ``-l''`` at the estimate, taken from the score
    across the final bracket, divided by the expected ``shots *
    fisher_per_shot``; near 1 when the bound describes the likelihood's
    curvature.  There is no count of degenerate replications: a flat or
    vanished likelihood raises :class:`DegenerateLikelihood` and aborts the
    whole run.
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
    score_evaluations: int
    observed_information_ratio: float

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
            "score_evaluations": self.score_evaluations,
            "observed_information_ratio": self.observed_information_ratio,
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
    """``p_s`` and both branches' photon-number masses, from one
    :class:`~nlametro.instrument.KrausImages` at the point; the failure
    masses are zeros where that branch's own probability is below
    ``PROBABILITY_FLOOR``, whatever ``p_s`` rounds to."""
    images = KrausImages.of(probe, _one_point(params))
    ps = float(images.prob[0, 0])
    ms = _counting_dist(images, probe, SUCCESS).masses
    try:
        mf = _counting_dist(images, probe, FAILURE).masses
    except BranchImpossible:
        mf = np.zeros(probe.dim)
    return ps, ms, mf


HOMODYNE_CDF_POINTS = 8193


def _homodyne_sampler(probe: FockVector, params: NlaParams, branch: str):
    """Tabulated inverse CDF of the conditional homodyne density.

    The density is tabulated on a uniform fine grid and accumulated with the
    trapezoid rule, so inverse sampling draws from the piecewise-linear CDF
    whose moment and Fisher-information bias is O(dx^2) — quadrature-node
    cumsums instead shift every sample left by about half a node weight.
    The sampler maps the uniforms in ascending order, so ``np.interp`` finds
    each uniform's cell next to the previous one's.  The table increases
    strictly, so the outcomes are those of the unsorted uniforms, sorted.
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
        return np.interp(np.sort(u), cdf_k, xs_k)

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
        self._probe, self._params, self._detector = probe, _one_point(params), detector
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
    the tail.  The rows are those of the detector kernels' basis,
    :func:`~nlametro.measurements._image_basis`, kept as its parts: the real
    rows and, for a complex probe, the imaginary rows, each a contiguous real
    array.  A branch is ``None`` where it never fired.
    """

    success: tuple[np.ndarray, ...] | None
    failure: tuple[np.ndarray, ...] | None

    @classmethod
    def of(cls, probe: FockVector, p: int, drawn: dict) -> "_Quadratures":
        def reduce(branch: str) -> tuple[np.ndarray, ...] | None:
            if branch not in drawn:
                return None
            levels = min(p + 2 if branch == SUCCESS else p + 1, probe.dim)
            table = probe.dim if branch == SUCCESS else levels
            return _image_basis(probe, wavefunction_matrix(table, drawn[branch]), levels)

        return cls(*(reduce(branch) for branch in BRANCHES))


def _log_likelihoods(
    probe: FockVector, p: int, detector: str, stats, gains: np.ndarray
) -> np.ndarray:
    """The likelihood surface: ``(R, G)`` log-likelihoods of every replication at every gain.

    Gains must lie in the domain (``GainGrid`` guarantees it).  Masses and
    densities are floored at ``MASS_FLOOR`` before the logarithm.  A counting
    or herald surface is one product of the counts with the log-masses of
    every gain.  A homodyne record is one replication, whose fields are one
    ``(GRID_BLOCK, rows) @ (rows, N)`` product per part and block of gains.
    """
    g = gains[:, np.newaxis]
    if detector == HOMODYNE:
        return _homodyne_surface(p, stats, g)[np.newaxis]
    w = probe.weights()
    rows = _kraus_pair(g, p, probe.dim)
    es = rows[:, 0, 0]
    qs = es * es * w
    ps = qs.sum(axis=1)
    if detector == HERALD_ONLY:
        # the flooring clamps p_s into [MASS_FLOOR, 1 - MASS_FLOOR]
        return np.outer(stats.n_s, np.log(np.maximum(ps, MASS_FLOOR))) + np.outer(
            stats.n_f, np.log(np.maximum(1.0 - ps, MASS_FLOOR))
        )
    total = stats.success @ np.log(np.maximum(qs, MASS_FLOOR)).T
    if detector == PHOTON_COUNTING:
        ef = rows[:, 1, 0]
        return total + stats.failure @ np.log(np.maximum(ef * ef * w, MASS_FLOOR)).T
    # success-only: conditional on success, divide each mass by p_s
    return total - np.outer(stats.n_s, np.log(np.maximum(ps, MASS_FLOOR)))


def _homodyne_surface(p: int, stats: _Quadratures, g: np.ndarray) -> np.ndarray:
    """Log-likelihoods of one homodyne replication at the gains ``g`` (a column).

    Each block of ``GRID_BLOCK`` gains is fused into one preallocated buffer
    per part of the record: the fields ``E @ part`` land in them and are
    squared in place, the squares add up into the first, the density
    ``re^2 + im^2``, and its floor at ``MASS_FLOOR`` and the logarithm are
    taken there.  Each gain's value equals
    ``np.log(np.maximum(sum(f * f for f in fields), MASS_FLOOR)).sum()`` of
    its row of the block's fields bit for bit.
    """
    total = np.zeros(g.shape[0])
    # a branch's record has at most p + 2 rows
    rows = _kraus_pair(g, p, p + 2)
    for pair, parts in zip(rows.swapaxes(0, 1), (stats.success, stats.failure)):
        if parts is None:
            continue
        levels, shots = parts[0].shape
        e = pair[:, 0, :levels]
        fields = np.empty((len(parts), min(GRID_BLOCK, e.shape[0]), shots))
        for start in range(0, e.shape[0], GRID_BLOCK):
            block = e[start:start + GRID_BLOCK]
            f = fields[:, :block.shape[0]]
            for part, out in zip(parts, f):
                np.matmul(block, part, out=out)
            np.multiply(f, f, out=f)
            density = f[0]
            for square in f[1:]:
                density += square
            np.maximum(density, MASS_FLOOR, out=density)
            np.log(density, out=density)
            total[start:start + GRID_BLOCK] += density.sum(axis=1)
    return total


def _log_slope(value: np.ndarray, slope: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """``slope / value`` where ``mass > MASS_FLOOR`` and 0 where the floor holds ``log(mass)``."""
    return np.divide(slope, value, out=np.zeros_like(slope), where=mass > MASS_FLOOR)


def _scores(probe: FockVector, p: int, detector: str, stats, g: np.ndarray) -> np.ndarray:
    """The score: gain derivative of :func:`_log_likelihoods` of replication ``r`` at ``g[r]``.

    It differentiates the same floored log-likelihood, so a mass or density
    held at ``MASS_FLOOR`` adds 0, and it takes no logarithm.  A level of mass
    ``q = E^2 w`` adds ``n dq/q = 2 n dE/E``; a homodyne outcome of field
    ``f = E @ rows`` and slope ``df = dE @ rows`` adds ``2 Re(df/f)``; a
    herald adds ``n_s dp_s/p_s - n_f dp_s/(1 - p_s)``.  In real arithmetic,
    with ``f_i`` and ``df_i`` the field's and the slope's parts (real, then
    imaginary for a complex probe), ``Re(df/f) = sum_i f_i df_i / density``
    and ``density = sum_i f_i^2``.

    The search picks its gains as it goes, so the Kraus rows and slopes of
    both branches come from one :func:`~nlametro.instrument._kraus_pair`
    call per evaluation: at the one scalar gain of a homodyne replication,
    on its :func:`~nlametro.instrument._image_levels` levels, or at the
    column of every replication's gain for counts.
    """
    if detector == HOMODYNE:
        (gain,) = g
        total = 0.0
        pairs = _kraus_pair(gain, p, _image_levels(probe.dim, p))
        for pair, parts in zip(pairs, (stats.success, stats.failure)):
            if parts is None:
                continue
            (field, slope), *more = (pair[:, :part.shape[0]] @ part for part in parts)
            density, cross = field * field, field * slope
            for f, df in more:
                density += f * f
                cross += f * df
            total += 2.0 * float(np.sum(_log_slope(density, cross, density)))
        return np.array([total])
    w = probe.weights()
    (es, des), (ef, def_) = np.moveaxis(_kraus_pair(g[:, np.newaxis], p, probe.dim), 0, 2)
    qs = es * es * w
    ps = qs.sum(axis=1)
    dps = 2.0 * np.sum(es * des * w, axis=1)
    if detector == HERALD_ONLY:
        return stats.n_s * _log_slope(ps, dps, ps) - stats.n_f * _log_slope(1.0 - ps, dps, 1.0 - ps)
    total = np.sum(stats.success * _log_slope(es, 2.0 * des, qs), axis=1)
    if detector == PHOTON_COUNTING:
        return total + np.sum(stats.failure * _log_slope(ef, 2.0 * def_, ef * ef * w), axis=1)
    return total - stats.n_s * _log_slope(ps, dps, ps)


def _maximize(surface: np.ndarray, score, values: np.ndarray, tol: float = 1e-6):
    """Per-row maximum-likelihood gains: grid argmax, then a root search on the score.

    ``surface`` holds each row's log-likelihood at the grid gains ``values``;
    ``score(g)`` maps one gain per row to each row's score.  Each row takes
    the grid cell on the uphill side of its argmax, by the sign of the score
    there; at a grid edge whose score points outward, it takes the edge cell.

    When the score falls from positive to negative across the cell, regula
    falsi narrows the bracket until it is at most ``tol`` wide.  The end a
    step keeps has its score weighted by ``1 - s(x)/s(replaced end)``, or by
    1/2 when that is not positive (Anderson & Bjorck's variant of the
    Illinois rule), so neither end stalls.  A step that would leave the
    bracket bisects it, and a step onto an end or within ``tol/2`` of one is
    moved ``tol/2`` inside (Brent's minimum step), so the last step closes
    the bracket around a converged iterate.  The estimate is the secant root
    of the final bracket.  Otherwise the cell holds no interior maximum the
    score can find, and the estimate is the argmax end of the cell: at an
    edge, the edge itself.

    The rows move in lockstep and a row whose bracket is at most ``tol`` wide
    stops moving, so each row takes exactly the steps of a search run on its
    own.  Returns the gains, each row's score evaluations and its observed
    information ``-l''``, the secant slope of the score over its final
    bracket (the grid cell when there was no root to find).
    """
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
    s_top = score(values[idx])
    step = np.where(s_top > 0.0, 1, -1)
    other = idx + step
    other = np.where((other < 0) | (other >= values.size), idx - step, other)
    s_other = score(values[other])
    below = other < idx
    a, b = values[np.minimum(idx, other)], values[np.maximum(idx, other)]
    sa, sb = np.where(below, s_other, s_top), np.where(below, s_top, s_other)
    root = (sa > 0.0) & (sb < 0.0)
    fa, fb = sa, sb  # the weighted scores the steps interpolate
    evaluations = np.full(idx.size, 2, dtype=np.int64)
    while (active := root & (b - a > tol)).any():
        evaluations += active
        x = b - np.divide(fb * (b - a), fb - fa, out=np.zeros(a.size), where=active)
        x = np.where((a <= x) & (x <= b), x, 0.5 * (a + b))
        x = np.where(active, np.clip(x, a + 0.5 * tol, b - 0.5 * tol), a)
        sx = score(x)
        up, down = active & (sx > 0.0), active & ~(sx > 0.0)
        replaced = np.where(up, fa, fb)
        m = 1.0 - np.divide(sx, replaced, out=np.ones(a.size), where=replaced != 0.0)
        m = np.where(m > 0.0, m, 0.5)
        fa = np.where(up, sx, np.where(down, m * fa, fa))
        fb = np.where(down, sx, np.where(up, m * fb, fb))
        a, sa = np.where(up, x, a), np.where(up, sx, sa)
        b, sb = np.where(down, x, b), np.where(down, sx, sb)
    slope = (sa - sb) / (b - a)
    estimates = np.where(root, b + np.divide(sb, slope, out=np.zeros(a.size), where=root), values[idx])
    return estimates, evaluations, slope


def _estimates(probe: FockVector, p: int, detector: str, stats, grid: GainGrid):
    """Maximum-likelihood gains of the replications in ``stats`` (see :func:`_maximize`)."""
    values = grid.values()
    surface = _log_likelihoods(probe, p, detector, stats, values)
    return _maximize(surface, functools.partial(_scores, probe, p, detector, stats), values)


# ---------------------------------------------------------------------------
# Bounds and the experiment driver
# ---------------------------------------------------------------------------

def fisher_per_shot(probe: FockVector, params: NlaParams, detector: str) -> float:
    """Per-shot Fisher information matching the detection strategy."""
    if detector in (PHOTON_COUNTING, HOMODYNE):
        return qfi_effective_closed_form(probe, params)
    if detector not in DETECTORS:
        raise ValueError(f"unknown detector {detector!r}")
    images = KrausImages.of(probe, params)
    if detector == HERALD_ONLY:
        return _per_point(params, _herald(images))
    return _per_point(params, images.prob[:, 0] * _branch_qfi(images, images.possible(SUCCESS)[0]))


def _cramer_rao(info: float, detector: str, shots: int) -> float:
    if info <= 0.0:
        raise DegenerateLikelihood(
            f"{detector} carries zero gain information at this operating point"
        )
    return 1.0 / (shots * info)


def _percentile(ascending: np.ndarray, q: float) -> float:
    """``np.percentile(ascending, q)`` of sorted finite values, bit for bit.

    numpy's default (linear) method, with its float operations in its
    order: virtual index ``(n - 1) * (q / 100)``, and the lerp from the
    nearer of its two order statistics.  ``np.percentile`` itself goes
    through ``np.unique``, which imports ``numpy.ma``.
    """
    index = (ascending.size - 1) * (q / 100)
    below = math.floor(index)
    t = index - below
    a = float(ascending[below])
    b = float(ascending[min(below + 1, ascending.size - 1)])
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


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
        estimates, observed = np.empty(replications), np.empty(replications)
        evaluations = np.empty(replications, dtype=np.int64)
        success_counts = np.empty(replications, dtype=np.int64)
        for i in range(replications):
            success, drawn = source.draw(draws, config.shots)
            success_counts[i] = int(success.sum())
            # outcomes have no count summary: estimate before the next draw
            stats = _Quadratures.of(probe, p, drawn)
            (estimates[i],), (evaluations[i],), (observed[i],) = _estimates(
                probe, p, detector, stats, config.grid
            )
            del stats
    else:
        counts = source.counts(draws, config.shots, replications)
        estimates, evaluations, observed = _estimates(probe, p, detector, counts, config.grid)
        success_counts = counts.n_s
    variance = float(estimates.var(ddof=1))
    info = fisher_per_shot(probe, config.params_true, detector)
    crb = _cramer_rao(info, detector, config.shots)
    ratio = variance / crb
    # 100 resamples at a time, the same draws as one (1000, R) block.  The
    # estimates are centred once; a resample's variance then comes from its
    # sums of x and x*x, one gather each.
    centred = estimates - estimates.mean()
    squares = centred * centred
    boot = np.empty((10, 100))
    for block in boot:
        pick = boot_rng.integers(0, replications, size=(100, replications))
        sums = centred[pick].sum(axis=1)
        block[:] = (squares[pick].sum(axis=1) - sums * sums / replications) / (replications - 1)
    ratios = np.sort(boot.ravel() / crb)
    lo, hi = _percentile(ratios, 2.5), _percentile(ratios, 97.5)
    return ExperimentResult(
        detector=config.detector,
        estimates=estimates,
        success_counts=success_counts,
        empirical_variance=variance,
        fisher_per_shot=info,
        crb=crb,
        ratio=ratio,
        ratio_ci=(lo, hi),
        shots=config.shots,
        seed=config.seed,
        edge_hits=config.grid.edge_hits(estimates),
        likelihood_evaluations=config.grid.points * replications,
        score_evaluations=int(evaluations.sum()),
        observed_information_ratio=float(observed.mean()) / (config.shots * info),
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
