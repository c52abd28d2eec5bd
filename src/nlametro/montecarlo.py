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
(branch masses, photon-number tables, the bound) once, from one
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

Every detector's replications become one record on the ``min(dim, p+2)``
Kraus-image rows (:class:`_Term`): per branch, outcome weights and the
outcomes' real field vectors, so an outcome's density at a gain is
``sum_P (E @ part)^2`` with ``E`` the Kraus diagonal on those rows.  A
counted level is a row of ``diag(c)``, ``c`` the images' column, with the
levels above ``p`` counted in its gain-free tail row; a herald is the whole
column as orthogonal parts, of density ``p_b``; a homodyne outcome keeps
the fields ``c_n <x|n>`` of the levels ``n <= p`` and, on the success
branch, the gain-free tail ``sum_{n>p} c_n <x|n>``, as real rows (and
imaginary rows for a complex probe).

The estimator is a grid argmax followed by a root search on the analytic
score, the gain derivative of the log-likelihood, inside one grid cell
(:func:`_maximize`).  The score takes the Kraus rows and their exact
slopes, not a logarithm, and a few score evaluations replace the golden
section's two dozen likelihood evaluations.  One surface kernel and one
score kernel serve every record and search all its replications at once;
each search step evaluates every replication's score at its own gain.  A
surface multiplies ``GRID_BLOCK`` gains' Kraus rows against a term's field
vectors at a time, into one buffer in which the density, its floor and its
logarithm are then taken in place.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import pathlib
import typing

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
    _kraus_pair,
    _per_point,
    kraus_diagonal,  # noqa: F401  (unused; perfbench's install test reads montecarlo.kraus_diagonal)
)
from .measurements import (
    HOMODYNE,
    MASS_FLOOR,
    PHOTON_COUNTING,
    _counting_dist,
    _homodyne_density,
    _image_basis,
)
from .probes import ProbeSpec

HERALD_ONLY = "herald-only"
SUCCESS_ONLY = "success-only"
DETECTORS = (PHOTON_COUNTING, HOMODYNE, HERALD_ONLY, SUCCESS_ONLY)

# Log-likelihood surfaces flatter than this (relative to their scale) carry
# no gain information at all.
FLATNESS_TOL = 1e-9

RESULT_SCHEMA_VERSION = 9

# Gains per block of a likelihood surface.  A block's fields are one
# (block, rows) @ (rows, outcomes) product per part of a record's term into
# reused buffers, and the rest of the surface is taken in place there.  For
# 10^4 homodyne shots, blocks of 8 to 16 gains run equally fast, 6 gains about 5% slower
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


def _branch_masses(images: KrausImages, probe: FockVector) -> tuple[float, np.ndarray, np.ndarray]:
    """``p_s`` and both branches' photon-number masses at the one point of
    ``images``; the failure masses are zeros where that branch's own
    probability is below ``PROBABILITY_FLOOR``, whatever ``p_s`` rounds to."""
    ps = float(images.prob[0, 0])
    ms = _counting_dist(images, probe, SUCCESS).masses
    try:
        mf = _counting_dist(images, probe, FAILURE).masses
    except BranchImpossible:
        mf = np.zeros(probe.dim)
    return ps, ms, mf


HOMODYNE_CDF_POINTS = 8193


def _homodyne_sampler(images: KrausImages, probe: FockVector, branch: str):
    """Tabulated inverse CDF of the conditional homodyne density at the one point of ``images``.

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
    dens = _homodyne_density(images, probe, branch, xs)
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

    ``images``, the one :class:`~nlametro.instrument.KrausImages` of the
    true point, is built at construction, and the branch masses, the
    count records' image column and the homodyne tables read it.
    :meth:`counts` gives many counting or herald records at once, straight
    from their own distribution; :meth:`draw` gives homodyne runs shot by
    shot.  A branch's inverse-CDF table is built on the first shot of that
    branch, because a branch that never fires may have no density to
    tabulate.
    """

    def __init__(self, probe: FockVector, params: NlaParams, detector: str):
        if detector not in DETECTORS:
            raise ValueError(f"unknown detector {detector!r}")
        self._probe, self._detector = probe, detector
        self.images = KrausImages.of(probe, _one_point(params))
        self._ps, ms, mf = _branch_masses(self.images, probe)
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

    def counts(self, rng: np.random.Generator, shots: int, replications: int):
        """``(n_s, record)`` of ``replications`` photon-counting or herald records.

        One ``Binomial(shots, p_s)`` call draws every record's ``n_s``, then
        one ``Multinomial(n, masses)`` call per recorded branch that fired in
        any record, in :meth:`_fired` order, draws every record's per-level
        counts, which :func:`_count_record` turns into the record.  The last
        level takes the mass a table leaves over, as in the per-shot inverse
        CDF.  ``p_s``, a sum of squares, is capped at 1, since a norm within
        rounding of 1 can round it above 1.
        """
        n_s = rng.binomial(shots, min(self._ps, 1.0), size=replications)
        levels = {
            branch: rng.multinomial(n, self._masses[branch])
            for branch, n in self._fired(n_s, shots)
        }
        return n_s, _count_record(self.images.c[0], self._detector, n_s, shots - n_s, levels)

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
            self._samplers[branch] = _homodyne_sampler(self.images, self._probe, branch)
        return self._samplers[branch]


# ---------------------------------------------------------------------------
# The record and its likelihood
# ---------------------------------------------------------------------------

class _Term(typing.NamedTuple):
    """One branch's outcomes in a record: the density of outcome ``o`` at a
    gain is ``sum_P (E @ parts[P][:, o])^2``, with ``E`` the branch's Kraus
    diagonal on the first ``rows`` levels, the parts' row count.

    ``branch`` is the column in :data:`BRANCHES` order; ``weights`` the
    ``R x O`` counts of the ``O`` outcomes in ``R`` replications, or None
    for one replication that holds each outcome once; ``parts`` the
    outcomes' real field vectors, a ``P x rows x O`` array.
    """

    branch: int
    weights: np.ndarray | None
    parts: np.ndarray


def _count_record(c: np.ndarray, detector: str, n_s, n_f, levels: dict) -> tuple[_Term, ...]:
    """The record of R counting or herald replications on the image column ``c``.

    ``c`` is the true point's :attr:`~nlametro.instrument.KrausImages.c`:
    the moduli ``|c_n|`` for ``n <= p`` and, when ``dim > p + 2``, the tail
    norm ``||c_{>p}||`` as its last row.  ``levels`` maps each recorded
    branch that fired to its ``R x dim`` per-level counts, and ``n_s`` and
    ``n_f`` hold each replication's successes and failures.  A counted level
    ``n`` is the field vector ``c_n e_n``, a row of ``diag(c)``, of mass
    ``E_n^2 |c_n|^2``; the levels above ``p`` are counted in the tail row,
    whose mass ``||c_{>p}||^2`` is gain free, as are theirs, so the
    log-likelihood changes only by a gain-free constant.  A herald is the
    branch's whole image column as ``rows`` orthogonal parts, of density
    ``p_b``; success-only conditions on success with the success herald at
    weights ``-n_s``.
    """
    rows = c.size
    diag = np.diag(c)
    terms = [
        _Term(BRANCHES.index(branch),
              np.concatenate((k[:, :rows - 1], k[:, rows - 1:].sum(axis=1, keepdims=True)), axis=1),
              diag[np.newaxis])
        for branch, k in levels.items()
    ]
    heralds = {HERALD_ONLY: ((0, n_s), (1, n_f)), SUCCESS_ONLY: ((0, -n_s),)}
    terms += [_Term(col, n[:, np.newaxis], diag[:, :, np.newaxis])
              for col, n in heralds.get(detector, ())]
    return tuple(terms)


def _homodyne_record(probe: FockVector, p: int, drawn: dict) -> tuple[_Term, ...]:
    """One homodyne replication, reduced to the basis the gain reaches.

    Above the threshold ``E_s = 1`` and ``E_f = 0``, so at outcomes ``x`` the
    success field is ``sum_{n<=p} E_s(n) c_n <x|n> + T(x)``, whose tail
    ``T = sum_{n>p} c_n <x|n>`` does not depend on the gain, and the failure
    field stops at ``n = p``.  Each branch that fired keeps the rows
    ``c_n <x|n>`` for ``n <= p``, and the success branch also keeps ``T`` as
    its last row: ``(p+2, N_s)`` and ``(p+1, N_f)``, or ``(dim, N)`` each
    when ``p+1 >= dim`` leaves no tail.  The rows are those of the detector
    kernels' basis, :func:`~nlametro.measurements._image_basis`, kept as its
    parts: the real rows and, for a complex probe, the imaginary rows.
    """
    terms = []
    for col, branch in enumerate(BRANCHES):
        if branch in drawn:
            levels = min(p + 2 if branch == SUCCESS else p + 1, probe.dim)
            table = probe.dim if branch == SUCCESS else levels
            parts = _image_basis(probe, wavefunction_matrix(table, drawn[branch]), levels)
            terms.append(_Term(col, None, np.array(parts)))
    return tuple(terms)


def _kraus_rows(p: int, record: tuple[_Term, ...], g: np.ndarray) -> np.ndarray:
    """:func:`~nlametro.instrument._kraus_pair` at the gains ``g`` on the record's rows only."""
    return _kraus_pair(g[:, np.newaxis], p, max(term.parts.shape[1] for term in record))


def _log_likelihoods(p: int, record: tuple[_Term, ...], gains: np.ndarray) -> np.ndarray:
    """The likelihood surface: ``(R, G)`` log-likelihoods of every replication at every gain.

    Gains must lie in the domain (``GainGrid`` guarantees it).  Each term
    adds ``weights @ log(max(density, MASS_FLOOR))``, or the sum over its
    outcomes for unit weights.  The densities of each block of
    ``GRID_BLOCK`` gains are fused into one preallocated buffer per part of
    the term: the fields ``E @ part`` land in them and are squared in place,
    the squares add up into the first, the density, and its floor and the
    logarithm are taken there.  Each gain's value equals
    ``np.log(np.maximum(sum(f * f for f in fields), MASS_FLOOR))`` of its
    row of the block's fields bit for bit.
    """
    rows = _kraus_rows(p, record, gains)[:, :, 0]
    total = 0.0
    for branch, weights, parts in record:
        e = rows[:, branch, :parts.shape[1]]
        surface = np.empty((1 if weights is None else weights.shape[0], gains.size))
        fields = np.empty((parts.shape[0], min(GRID_BLOCK, gains.size), parts.shape[2]))
        for start in range(0, gains.size, GRID_BLOCK):
            block = e[start:start + GRID_BLOCK]
            f = fields[:, :block.shape[0]]
            np.matmul(block, parts, out=f)
            np.multiply(f, f, out=f)
            density = f[0]
            for square in f[1:]:
                density += square
            np.maximum(density, MASS_FLOOR, out=density)
            np.log(density, out=density)
            surface[:, start:start + GRID_BLOCK] = (
                density.sum(axis=1) if weights is None else weights @ density.T
            )
        total = total + surface
    return total


def _scores(p: int, record: tuple[_Term, ...], g: np.ndarray) -> np.ndarray:
    """The score: gain derivative of :func:`_log_likelihoods` of replication ``r`` at ``g[r]``.

    It differentiates the same floored log-likelihood, so a density held at
    ``MASS_FLOOR`` adds 0, and it takes no logarithm.  An outcome of field
    parts ``f_i = E @ part_i`` and slopes ``df_i = dE @ part_i`` adds
    ``2 sum_i f_i df_i / density`` with ``density = sum_i f_i^2``, times its
    weight.  The search picks its gains as it goes, so the Kraus rows and
    slopes of both branches come from one
    :func:`~nlametro.instrument._kraus_pair` call per evaluation, on the
    record's rows, at the column of every replication's gain.
    """
    pairs = _kraus_rows(p, record, g)
    total = np.zeros(g.size)
    for branch, weights, parts in record:
        # one (2R, rows) @ (rows, O) product per part: each replication's row, then its slope
        e = pairs[:, branch, :, :parts.shape[1]].reshape(-1, parts.shape[1])
        f, df = np.moveaxis((e @ parts).reshape(parts.shape[0], g.size, 2, -1), 2, 0)
        density, cross = (f * f).sum(axis=0), (f * df).sum(axis=0)
        # 0 where the floor holds log(density)
        ratio = np.divide(cross, density, out=np.zeros_like(cross), where=density > MASS_FLOOR)
        total += 2.0 * (ratio.sum(axis=1) if weights is None else np.sum(weights * ratio, axis=1))
    return total


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


def _estimates(p: int, record: tuple[_Term, ...], grid: GainGrid):
    """Maximum-likelihood gains of the replications in ``record`` (see :func:`_maximize`)."""
    values = grid.values()
    surface = _log_likelihoods(p, record, values)
    return _maximize(surface, functools.partial(_scores, p, record), values)


# ---------------------------------------------------------------------------
# Bounds and the experiment driver
# ---------------------------------------------------------------------------

def fisher_per_shot(probe: FockVector, params: NlaParams, detector: str) -> float:
    """Per-shot Fisher information matching the detection strategy."""
    if detector in (PHOTON_COUNTING, HOMODYNE):
        return qfi_effective_closed_form(probe, params)
    if detector not in DETECTORS:
        raise ValueError(f"unknown detector {detector!r}")
    return _per_point(params, _heralded_information(KrausImages.of(probe, params), detector))


def _heralded_information(images: KrausImages, detector: str) -> np.ndarray:
    """Per point :func:`fisher_per_shot` of a herald-only or success-only record."""
    if detector == HERALD_ONLY:
        return _herald(images)
    return images.prob[:, 0] * _branch_qfi(images, images.possible(SUCCESS)[0])


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
            record = _homodyne_record(probe, p, drawn)
            (estimates[i],), (evaluations[i],), (observed[i],) = _estimates(p, record, config.grid)
            del record
    else:
        success_counts, record = source.counts(draws, config.shots, replications)
        estimates, evaluations, observed = _estimates(p, record, config.grid)
    variance = float(estimates.var(ddof=1))
    # the bound reads the source's images; the full record's is the closed form
    info = (float(_heralded_information(source.images, detector)[0])
            if detector in (HERALD_ONLY, SUCCESS_ONLY)
            else qfi_effective_closed_form(probe, config.params_true))
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
