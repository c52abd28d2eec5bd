"""Detector models on the conditional outputs: photon counting and homodyne.

Both detectors saturate the conditional-state QFI for probes with real
amplitudes (the conditional families are real and gain-covariant), which is
what makes the sequential scheme optimal; the self-check suite verifies the
saturation numerically.  This module computes the outcome distributions,
their exact gain derivatives, the resulting classical Fisher informations,
and the Fisher information of the full joint record (branch, outcome) --
the latter through its own code path so it can arbitrate the identity
``F_joint = p_s Q_s + p_f Q_f + F_c`` independently.

Every function takes one operating point or a batch of them
(:class:`~nlametro.instrument.NlaParams`), whose thresholds may differ, and
evaluates all points as one stack of rows from one
:class:`~nlametro.instrument.KrausImages`, except :func:`homodyne_density`,
which takes one point and any outcomes.  A batch's outcome distribution is
one :class:`OutcomeDistribution` with a row of masses per point.  Each
public function wraps a kernel of the images, so a caller holding them
builds none.  Photon counting sees the probe only through
``|c_n|``: its conditional rows ``E_n |c_n| / sqrt(p_b)`` over all levels
(``_conditional_rows``) and, for the joint record, the images themselves.

Homodyne, where the phases enter, works on the Kraus-image basis in real
arithmetic.  Above a threshold ``p`` the Kraus operators are constant
(``E_s = 1``, ``E_f = 0``), so every branch field of a stack whose largest
threshold is ``max p`` is a real combination of the ``min(dim, max p + 2)``
rows ``c_n <x|n>`` for ``n <= max p`` and the gain-free tail
``sum_{n > max p} c_n <x|n>`` (:func:`_image_basis`, which the Monte-Carlo
homodyne records share).  The basis is kept as its parts, real arrays: the
rows of the real amplitudes and, for a complex probe, those of the
imaginary ones, so a density is the sum of the squared field parts.  A
point's coefficient row is its images' real Kraus factor row
(``_conditional_factors``), or for the joint record its Kraus rows, whose
last entry multiplies the tail.  A field from the basis differs from the
full ``dim``-level sum only by the regrouped tail sum, at most about
``dim`` ulp of ``sum_n |c_n <x|n>|``.

The basis is streamed: :func:`_image_basis` runs the wavefunction
recurrence over 2 rolling rows at any outcomes, writing the head rows and
adding each higher level into the tail, so no ``dim``-row table of
``<x|n>`` is ever built; the quadrature kernels, the density at any
outcomes (and so the Monte-Carlo sampler's table) and the Monte-Carlo
records all use it.  The quadrature grid is sized by the probe: the
coarsest doubling whose level-density errors, weighted by ``|c_n|^2``, sum
to at most ``QUADRATURE_REL_TOL`` (:func:`_probe_grid`), 224 to 496 nodes
on the standard probes of 14 to 149 levels.  The grids and the bases on
them are cached per probe's amplitudes (and per basis rows and window),
each entry ``levels x nodes``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .fock import (
    FockVector,
    QuadratureGrid,
    adaptive_quadrature_grid,
    default_half_width,
    wavefunction_levels,
)
from .instrument import (
    KrausImages,
    NlaParams,
    _conditional_factors,
    _conditional_rows,
    _is_point,
    _one_point,
    _per_point,
)

PHOTON_COUNTING = "photon-counting"
HOMODYNE = "homodyne"
DETECTOR_KINDS = (PHOTON_COUNTING, HOMODYNE)

# A density/mass below this floor is an exact zero for likelihood purposes.
MASS_FLOOR = 1e-300

# Outermost-panel share of the Fisher integral above which the quadrature
# window is widened before trusting the result.
TAIL_SHARE = 1e-12

# Field rows multiplied against the Kraus-image basis in one product; bounds
# the rows x nodes temporaries of a stacked evaluation.
ROW_CHUNK = 16


class ComplexProbeUnsupported(ValueError):
    """Homodyne Fisher information requested for a complex-amplitude probe.

    The x-quadrature record is only guaranteed to saturate the conditional
    QFI for real amplitudes; pass ``allow_complex=True`` to compute the
    (generally sub-optimal) classical information anyway.
    """


@dataclasses.dataclass(frozen=True)
class OutcomeDistribution:
    """Outcome distribution of one detector on one branch, at one point or a batch.

    For photon counting, ``support`` holds the Fock levels and ``masses``
    their probabilities.  For homodyne, ``support`` holds quadrature nodes,
    ``masses`` the density there, and ``weights`` the quadrature weights that
    integrate it (sum(masses * weights) = 1).  ``masses`` is 1-D at one
    operating point and ``(G, K)`` for a batch of ``G`` points, one row per
    point on the shared ``support``.

    Every array is read-only: a read-only float64 array is kept as it is (so
    homodyne distributions share their grid's ``nodes`` and ``weights``),
    anything else is copied and frozen.
    """

    kind: str
    branch: str
    support: np.ndarray
    masses: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        for name in ("support", "masses", "weights"):
            val = getattr(self, name)
            if val is None or (
                isinstance(val, np.ndarray) and val.dtype == float and not val.flags.writeable
            ):
                continue
            arr = np.array(val, dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def total(self) -> float | np.ndarray:
        """The total mass: a float for 1-D masses, one per row for a batch.

        Rows are summed one at a time, so a row's total is bit for bit that
        of a 1-D distribution with its masses (one product of the whole
        batch against the weights may round differently).
        """
        totals = np.array([row.sum() if self.weights is None else np.dot(self.weights, row)
                           for row in np.atleast_2d(self.masses)])
        return float(totals[0]) if self.masses.ndim == 1 else totals


# ---------------------------------------------------------------------------
# Photon counting
# ---------------------------------------------------------------------------

def _counting_dist(images: KrausImages, probe: FockVector, branch: str) -> OutcomeDistribution:
    """:func:`photon_counting_dist` of the points of ``images``."""
    masses = _conditional_rows(images, np.abs(probe.amps), branch)[0] ** 2
    masses.setflags(write=False)
    return OutcomeDistribution(PHOTON_COUNTING, branch, np.arange(probe.dim, dtype=float),
                               masses[0] if _is_point(images.params) else masses)


def photon_counting_dist(probe: FockVector, params: NlaParams, branch: str) -> OutcomeDistribution:
    """Photon-number distribution of the normalized conditional state.

    ``params`` is one operating point, giving 1-D masses, or a batch of
    ``G``, giving ``(G, dim)`` masses, one row per point.
    """
    return _counting_dist(KrausImages.of(probe, params), probe, branch)


def _counting_fi(amps: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """``sum dm^2 / m`` over occupied outcomes, ``m = a^2``, ``dm = 2 a da``.

    ``amps`` and ``slopes`` are real ``(G, K, rows)`` groups of rows,
    summed per group as in :func:`_fisher_integral`.  Each term is
    ``dm (dm / m)``: dividing first keeps a slope whose square would
    underflow.
    """
    m = amps * amps
    dm = 2.0 * (amps * slopes)
    return (dm * np.divide(dm, m, out=np.zeros_like(m), where=m > MASS_FLOOR)).sum(axis=(1, 2))


def _branch_counting_fi(images: KrausImages, probe: FockVector, branch: str) -> np.ndarray:
    """:func:`fi_photon_counting` of every point of ``images``."""
    amps, slopes, _ = _conditional_rows(images, np.abs(probe.amps), branch)
    return _counting_fi(amps[:, None], slopes[:, None])


def fi_photon_counting(probe: FockVector, params: NlaParams, branch: str) -> float | np.ndarray:
    """Classical Fisher information of conditional photon counting.

    ``F = sum_n (dm_n)^2 / m_n`` over occupied levels, with the mass
    derivatives taken analytically through the conditional amplitudes.
    ``params`` is one operating point, giving a float, or a batch, giving an
    array.
    """
    return _per_point(params, _branch_counting_fi(KrausImages.of(probe, params), probe, branch))


# ---------------------------------------------------------------------------
# Homodyne
# ---------------------------------------------------------------------------

def _image_basis(probe: FockVector, x: np.ndarray, levels: int) -> np.ndarray:
    """The parts of the ``levels``-row basis at the outcomes ``x``: rows ``c_n <x|n>``, then the tail.

    With ``levels`` below ``dim``, the rows are those of the first
    ``levels - 1`` levels and the last row is the tail
    ``sum_{n >= levels-1} c_n <x|n>``; with ``levels = dim``, every row is a
    level's.  A branch field of a point whose threshold is at most
    ``levels - 2``, or of any point when there is no tail, is the point's
    Kraus diagonal on the first ``levels`` levels times the rows, since
    every level above ``p`` has ``E_s = 1`` and ``E_f = 0``, the tail's
    coefficients.

    The levels are streamed (:func:`~nlametro.fock.wavefunction_levels`):
    each is written to its row or added to the tail, in level order, as the
    recurrence reaches it, so no ``dim``-row table is built.  Returns a
    ``(P, levels, x.size)`` real array, whose parts are the rows of the
    real amplitudes and, for a complex probe, of the imaginary ones, so no
    complex array is built.
    """
    amps = probe.amps
    coefficients = (amps.real, amps.imag) if amps.imag.any() else (amps.real,)
    head = levels if levels == probe.dim else levels - 1
    parts = np.zeros((len(coefficients), levels, x.size))
    term = np.empty(x.size)
    for n, psi in enumerate(wavefunction_levels(probe.dim, x)):
        for part, c in zip(parts, coefficients):
            if n < head:
                np.multiply(c[n], psi, out=part[n])
            else:
                np.multiply(c[n], psi, out=term)
                part[head] += term
    return parts


# Entries kept by each cache of the homodyne kernels; past it, the oldest goes.
CACHE_SIZE = 64
# Quadrature grids keyed by (amplitude dtype, amplitude bytes, widen), and
# basis parts on them keyed by the same plus the basis rows: each entry is
# levels x nodes per part, never dim x nodes.
_GRIDS: dict = {}
_BASES: dict = {}


def _cached(cache: dict, key, build):
    """``cache[key]``, built by ``build()`` when missing; past ``CACHE_SIZE``
    entries the oldest is dropped."""
    if key not in cache:
        cache[key] = build()
        if len(cache) > CACHE_SIZE:
            del cache[next(iter(cache))]
    return cache[key]


def _probe_grid(probe: FockVector, widen: int = 0) -> QuadratureGrid:
    """The probe's quadrature grid on window ``widen``, cached.

    It is sized by the probe alone: the coarsest doubling whose error on
    the level densities, weighted by ``|c_n|^2``, is within
    ``QUADRATURE_REL_TOL`` (:func:`~nlametro.fock.adaptive_quadrature_grid`),
    so a point and any batch of the probe share one support.  ``widen``
    enlarges the window by 25% per step when a Fisher integral reports a
    non-negligible tail.
    """
    return _cached(_GRIDS, (probe.amps.dtype.str, probe.amps.tobytes(), widen),
                   lambda: adaptive_quadrature_grid(
                       probe.dim, default_half_width(probe.dim) * 1.25 ** widen, probe.weights()))


def _basis_parts(probe: FockVector, levels: int, widen: int = 0) -> tuple[QuadratureGrid, np.ndarray]:
    """The probe's window-``widen`` grid and the read-only parts of its ``levels``-row basis there.

    The basis is :func:`_image_basis` at the nodes of :func:`_probe_grid`,
    cached, keyed by the probe's amplitudes, ``levels`` and ``widen``.
    With ``levels = min(dim, max p + 2)`` it serves every threshold up to
    ``max p``.
    """
    grid = _probe_grid(probe, widen)

    def build():
        parts = _image_basis(probe, grid.nodes, levels)
        parts.setflags(write=False)
        return parts

    key = (probe.amps.dtype.str, probe.amps.tobytes(), widen, levels)
    return grid, _cached(_BASES, key, build)


def _fields(rows: np.ndarray, parts: np.ndarray) -> list[np.ndarray]:
    """Real coefficient rows times each part of the basis: the fields' real and imaginary parts.

    Error model: a field from the basis differs from the full sum
    ``sum_n a_n c_n <x|n>`` over all ``dim`` levels only by the regrouped
    tail sum, at most about ``dim`` ulp of ``sum_n |c_n <x|n>|``.
    """
    return [rows @ part for part in parts]


def _homodyne_density(images: KrausImages, probe: FockVector, branch: str, x) -> np.ndarray | float:
    """:func:`homodyne_density` of the one point of ``images``."""
    factors = _conditional_factors(images, branch)[0]
    xa = np.asarray(x, dtype=float)
    parts = _image_basis(probe, xa.ravel(), factors.shape[1])
    dens = sum(f * f for f in _fields(factors, parts))[0]
    return float(dens[0]) if xa.ndim == 0 else dens.reshape(xa.shape)


def homodyne_density(probe: FockVector, params: NlaParams, branch: str, x) -> np.ndarray | float:
    """Conditional x-quadrature density ``|sum_n a_n <x|n>|^2`` at the outcomes ``x``.

    ``params`` is one point; a batch raises ``ValueError``.  A scalar ``x``
    (a 0-d array among them) gives a float; a list, a tuple or an array
    gives an array of ``x``'s shape.  The point's real conditional
    factor row (:func:`~nlametro.instrument._conditional_factors`) times the
    parts of the probe's ``min(dim, p + 2)``-row basis at ``x``
    (:func:`_image_basis`); the density carries the basis's error model
    (:func:`_fields`).
    """
    return _homodyne_density(KrausImages.of(probe, _one_point(params)), probe, branch, x)


def _homodyne_dist(images: KrausImages, probe: FockVector, branch: str) -> OutcomeDistribution:
    """:func:`homodyne_distribution` of the points of ``images``."""
    factors = _conditional_factors(images, branch)[0]
    grid, parts = _basis_parts(probe, factors.shape[1])
    masses = np.concatenate([sum(f * f for f in _fields(factors[start:start + ROW_CHUNK], parts))
                             for start in range(0, len(factors), ROW_CHUNK)])
    masses.setflags(write=False)
    return OutcomeDistribution(HOMODYNE, branch, grid.nodes,
                               masses[0] if _is_point(images.params) else masses, grid.weights)


def homodyne_distribution(probe: FockVector, params: NlaParams, branch: str) -> OutcomeDistribution:
    """Conditional homodyne density tabulated on the adaptive grid.

    ``params`` is one operating point, giving 1-D masses, or a batch of
    ``G``, giving ``(G, nodes)`` masses, one row per point.  The points'
    real Kraus factor rows multiply the probe's window-0 basis
    (:func:`_basis_parts`), ``ROW_CHUNK`` rows at a time, with the basis's
    error model (:func:`_fields`).
    """
    return _homodyne_dist(KrausImages.of(probe, params), probe, branch)


def _fisher_integral(probe: FockVector, amps: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """Integrate ``(d density)^2 / density`` for groups of stacked field rows.

    ``amps`` and ``slopes`` are real coefficient rows of shape
    ``(G, K, levels)`` on the probe's ``levels``-row basis
    (:func:`_basis_parts`, ``levels = min(dim, max p + 2)``): each of the
    ``G`` groups holds ``K`` rows of field coefficients and their gain
    derivatives, and the integrands of a group's rows add up (one row for a
    branch FI, one per branch for the joint record).  Returns the ``G``
    integrals.  The fields carry the basis's error model (:func:`_fields`).

    Rows are multiplied against the basis at most ``ROW_CHUNK`` at a time,
    which bounds the ``rows x nodes`` temporaries.  The products are then
    reduced in place: each field product becomes the density ``f^2`` and
    the cross term ``f df``, and the integrand ``cross (cross / density)``
    is formed in one buffer, with the ``MASS_FLOOR`` floor, divided before
    squared as in :func:`_counting_fi`.  Since ``d density = 2 cross``, the
    factor 4 is applied to each group's integral, where a power of two
    rescales exactly.

    The tail check runs per group on its two outermost panels: a group
    whose left or right panel carries more than TAIL_SHARE of its total,
    which given the default margin should never happen, is evaluated again
    on a window widened by 25% per step, with the basis rebuilt on it, and
    only such groups are.
    """
    groups, per_group, levels = amps.shape
    chunk = max(1, ROW_CHUNK // per_group)
    totals = np.empty(groups)
    pending = np.arange(groups)
    for widen in range(6):
        grid, parts = _basis_parts(probe, levels, widen)
        edge = grid.weights[:grid.order]  # every panel has the same weights
        done = np.zeros(pending.size, dtype=bool)
        for start in range(0, pending.size, chunk):
            idx = pending[start:start + chunk]
            rows = np.concatenate((amps[idx], slopes[idx]), axis=1).reshape(-1, levels)
            dens = cross = None
            for prod in _fields(rows, parts):
                field, dfield = np.split(prod.reshape(idx.size, 2 * per_group, -1), 2, axis=1)
                dfield *= field
                field *= field
                if dens is None:
                    dens, cross = field, dfield
                else:
                    dens += field
                    cross += dfield
            integrand = np.zeros_like(dens)
            np.divide(cross, dens, out=integrand, where=dens > MASS_FLOOR)
            integrand *= cross
            integrand = integrand.sum(axis=1)
            total = integrand @ grid.weights
            tail = np.maximum(integrand[:, :grid.order] @ edge, integrand[:, -grid.order:] @ edge)
            ok = (total == 0.0) | (tail <= TAIL_SHARE * total)
            totals[idx[ok]] = 4.0 * total[ok]
            done[start:start + chunk] = ok
        pending = pending[~done]
        if pending.size == 0:
            return totals
    raise RuntimeError("homodyne Fisher integral tail did not become negligible")


def _branch_homodyne_fi(images: KrausImages, probe: FockVector, branch: str) -> np.ndarray:
    """:func:`fi_homodyne` of every point of ``images``, with no check of the phases."""
    a, da = _conditional_factors(images, branch)
    return _fisher_integral(probe, a[:, None], da[:, None])


def fi_homodyne(
    probe: FockVector, params: NlaParams, branch: str, allow_complex: bool = False
) -> float | np.ndarray:
    """Classical Fisher information of conditional homodyne detection.

    ``F = integral (d p(x))^2 / p(x) dx`` with the density derivative taken
    analytically through the conditional amplitudes.  Raises
    :class:`ComplexProbeUnsupported` for complex probes unless overridden.

    ``params`` is one operating point, giving a float, or a batch, giving an
    array; either way the points' real Kraus factor rows go through one
    stacked :func:`_fisher_integral`.
    """
    if not allow_complex and not probe.is_real():
        raise ComplexProbeUnsupported(
            "homodyne saturation only holds for real probe amplitudes; "
            "pass allow_complex=True to compute the classical value anyway"
        )
    return _per_point(params, _branch_homodyne_fi(KrausImages.of(probe, params), probe, branch))


# ---------------------------------------------------------------------------
# Joint record of the full sequential scheme
# ---------------------------------------------------------------------------

def _record_fi(images: KrausImages, probe: FockVector, detector: str) -> np.ndarray:
    """:func:`sequential_fi` of every point of ``images``, with no check of its arguments."""
    if detector == PHOTON_COUNTING:
        return _counting_fi(images.a.swapaxes(1, 2), images.da.swapaxes(1, 2))
    return _fisher_integral(probe, images.e.swapaxes(1, 2), images.de.swapaxes(1, 2))


def sequential_fi(
    probe: FockVector, params: NlaParams, detector: str = PHOTON_COUNTING
) -> float | np.ndarray:
    """Fisher information of the joint (branch, outcome) record.

    Works directly on the unnormalized joint masses
    ``q_{i,o} = prob_i * p(o|i)`` -- for photon counting these are simply
    ``|E_{i,n} c_n|^2`` -- with analytic derivatives, and never touches the
    effective-QFI closed form, so it can serve as an independent witness of
    ``F_joint = p_s Q_s + p_f Q_f + F_c``.

    ``params`` is one operating point, giving a float, or a batch, giving an
    array.  For photon counting, the two branch images ``E_i c`` of a point
    (:class:`~nlametro.instrument.KrausImages`) are one group of
    :func:`_counting_fi`: the tail row stands for the levels above the
    threshold, whose masses are gain free and add nothing.  For homodyne,
    the images' two unnormalized Kraus rows ``E_i`` and their slopes are one
    group of one stacked :func:`_fisher_integral` on the probe's basis, with
    its error model.  Neither detector conditions on a branch, so a point
    whose success probability underflows to 0 raises nothing: its
    information underflows with it, and the result there is 0.0.
    """
    if detector not in DETECTOR_KINDS:
        raise ValueError(f"unknown detector {detector!r}")
    if detector == HOMODYNE and not probe.is_real():
        raise ComplexProbeUnsupported("joint homodyne record requires real probe amplitudes")
    return _per_point(params, _record_fi(KrausImages.of(probe, params), probe, detector))
