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
evaluates all points as one stack of rows, except :func:`homodyne_density`,
which takes one point and any outcomes.  Photon
counting takes the conditional amplitudes and slopes from one call of the
instrument kernel ``_conditional_rows``, and the joint-record rows ``E_i c``
of both branches and their slopes from one ``_kraus_pair`` call.

Homodyne works on the Kraus-image basis, in real arithmetic.  Above a
threshold ``p`` the Kraus operators are constant (``E_s = 1``, ``E_f = 0``),
so every branch field of a stack whose largest threshold is ``max p`` is a
real combination of the ``min(dim, max p + 2)`` rows ``c_n <x|n>`` for
``n <= max p`` and the gain-free tail ``sum_{n > max p} c_n <x|n>``
(:func:`_image_basis`, which the Monte-Carlo homodyne records share).  The
basis is kept as its parts, real arrays: the rows of the real amplitudes
and, for a complex probe, those of the imaginary ones, so a density is the
sum of the squared field parts and no complex array is built.  One basis per
call serves every threshold in the stack: a point's coefficient row is its
Kraus factor row on those levels, whose last entry multiplies the tail.
:func:`homodyne_density`, :func:`homodyne_distribution`,
:func:`fi_homodyne` and ``sequential_fi(HOMODYNE)`` all multiply such rows
against the basis.  The conditional factors ``E / sqrt(p_b)`` and their
slopes come from one ``_conditional_factors`` call, the joint-record rows
``E_i`` of both branches and their slopes from one ``_kraus_pair`` call.
A field from the basis differs from the full ``dim``-level sum only by the
regrouped tail sum, at most about ``dim`` ulp of ``sum_n |c_n <x|n>|``.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .fock import (
    FockVector,
    QuadratureGrid,
    adaptive_quadrature_grid,
    default_half_width,
    wavefunction_matrix,
)
from .instrument import (
    NlaParams,
    _conditional_factors,
    _conditional_rows,
    _image_levels,
    _is_point,
    _kraus_pair,
    _one_point,
    _per_point,
    _point_columns,
)

PHOTON_COUNTING = "photon-counting"
HOMODYNE = "homodyne"
DETECTOR_KINDS = (PHOTON_COUNTING, HOMODYNE)

# A density/mass below this floor is an exact zero for likelihood purposes.
MASS_FLOOR = 1e-300

# Outermost-panel share of the Fisher integral above which the quadrature
# window is widened before trusting the result.
TAIL_SHARE = 1e-12

# Field rows multiplied against the wavefunction table in one product; bounds
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
    """Outcome distribution of one detector on one branch.

    For photon counting, ``support`` holds the Fock levels and ``masses``
    their probabilities.  For homodyne, ``support`` holds quadrature nodes,
    ``masses`` the density there, and ``weights`` the quadrature weights that
    integrate it (sum(masses * weights) = 1).

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

    def total(self) -> float:
        if self.weights is None:
            return float(self.masses.sum())
        return float(np.dot(self.weights, self.masses))


# ---------------------------------------------------------------------------
# Photon counting
# ---------------------------------------------------------------------------

def photon_counting_dist(
    probe: FockVector, params: NlaParams, branch: str
) -> OutcomeDistribution | list[OutcomeDistribution]:
    """Photon-number distribution of the normalized conditional state.

    ``params`` is one operating point, giving one distribution, or a batch,
    giving a list.
    """
    masses = np.abs(_conditional_rows(probe, params, branch)[0]) ** 2
    support = np.arange(probe.dim, dtype=float)
    for arr in (masses, support):
        arr.setflags(write=False)
    dists = [OutcomeDistribution(PHOTON_COUNTING, branch, support, row) for row in masses]
    return dists[0] if _is_point(params) else dists


def _counting_fi(amps: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """``sum dm^2 / m`` over occupied outcomes, ``m = |a|^2``, ``dm = 2 Re(conj(a) da)``.

    ``amps`` and ``slopes`` are ``(G, K, dim)`` groups of rows, summed per
    group as in :func:`_fisher_integral`.  Each term is ``dm (dm / m)``:
    dividing first keeps a slope whose square would underflow.
    """
    m = np.abs(amps) ** 2
    dm = 2.0 * (np.conj(amps) * slopes).real
    return (dm * np.divide(dm, m, out=np.zeros_like(m), where=m > MASS_FLOOR)).sum(axis=(1, 2))


def fi_photon_counting(probe: FockVector, params: NlaParams, branch: str) -> float | np.ndarray:
    """Classical Fisher information of conditional photon counting.

    ``F = sum_n (dm_n)^2 / m_n`` over occupied levels, with the mass
    derivatives taken analytically through the conditional amplitudes.
    ``params`` is one operating point, giving a float, or a batch, giving an
    array.
    """
    amps, slopes, _ = _conditional_rows(probe, params, branch)
    return _per_point(params, _counting_fi(amps[:, None], slopes[:, None]))


# ---------------------------------------------------------------------------
# Homodyne
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _grid_and_wavefunctions(dim: int, widen: int = 0) -> tuple[QuadratureGrid, np.ndarray]:
    """Quadrature grid sized for ``dim`` levels plus the matching <x|n> table.

    ``widen`` enlarges the window by 25% per step when a Fisher integral
    reports a non-negligible tail.
    """
    grid = adaptive_quadrature_grid(dim, half_width=default_half_width(dim) * 1.25 ** widen)
    return grid, wavefunction_matrix(dim, grid.nodes)


def _image_basis(probe: FockVector, psi: np.ndarray, levels: int) -> tuple[np.ndarray, ...]:
    """The parts of the ``levels``-row basis: rows ``c_n <x|n>``, then the tail.

    ``psi`` holds ``<x|n>`` at the outcomes for its first levels.  With more
    than ``levels`` of them, the rows are those of the first ``levels - 1``
    levels and the last row is the tail ``sum_{n >= levels-1} c_n <x|n>``;
    with exactly ``levels``, every row is a level's.  A branch field of a
    point whose threshold is at most ``levels - 2``, or of any point when
    there is no tail, is the point's Kraus diagonal on the first ``levels``
    levels times the rows, since every level above ``p`` has ``E_s = 1``
    and ``E_f = 0``, the tail's coefficients.

    The parts are the rows' real part and, for a complex probe, their
    imaginary part: contiguous real arrays, each formed from its own real
    amplitudes, so no complex array is built.
    """
    head = levels if psi.shape[0] == levels else levels - 1
    amps = probe.amps
    parts = []
    for c in (amps.real, amps.imag) if amps.imag.any() else (amps.real,):
        rows = c[:head, np.newaxis] * psi[:head]
        if psi.shape[0] > head:
            rows = np.vstack((rows, c[head:] @ psi[head:]))
        parts.append(rows)
    return tuple(parts)


def _basis_parts(probe: FockVector, levels: int, widen: int = 0):
    """The window-``widen`` grid and the parts of the probe's ``levels``-row basis.

    The basis is :func:`_image_basis` on the grid's wavefunction table: the
    rows of the first ``levels - 1`` levels and the tail from level
    ``levels - 1`` on, or all ``dim`` rows when ``levels = dim``.  With
    ``levels = min(dim, max p + 2)`` it serves every threshold up to
    ``max p``.
    """
    grid, psi = _grid_and_wavefunctions(probe.dim, widen)
    return grid, _image_basis(probe, psi, levels)


def _fields(rows: np.ndarray, parts: tuple[np.ndarray, ...]) -> list[np.ndarray]:
    """Real coefficient rows times each part of the basis: the fields' real and imaginary parts.

    Error model: a field from the basis differs from the full sum
    ``sum_n a_n c_n <x|n>`` over all ``dim`` levels only by the regrouped
    tail sum, at most about ``dim`` ulp of ``sum_n |c_n <x|n>|``.
    """
    return [rows @ part for part in parts]


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
    factors = _conditional_factors(probe, _one_point(params), branch)[0]
    xa = np.asarray(x, dtype=float)
    parts = _image_basis(probe, wavefunction_matrix(probe.dim, xa.ravel()), factors.shape[1])
    dens = sum(f * f for f in _fields(factors, parts))[0]
    return float(dens[0]) if xa.ndim == 0 else dens.reshape(xa.shape)


def homodyne_distribution(
    probe: FockVector, params: NlaParams, branch: str
) -> OutcomeDistribution | list[OutcomeDistribution]:
    """Conditional homodyne density tabulated on the adaptive grid.

    ``params`` is one operating point, giving one distribution, or a batch,
    giving a list.  The real Kraus factors of all points
    (:func:`~nlametro.instrument._conditional_factors`) are multiplied
    against the probe's window-0 basis of ``min(dim, max p + 2)`` rows
    (:func:`_basis_parts`), ``ROW_CHUNK`` rows at a time; each density
    carries the basis's error model (:func:`_fields`).
    """
    factors = _conditional_factors(probe, params, branch)[0]
    grid, parts = _basis_parts(probe, factors.shape[1])
    dists = []
    for start in range(0, len(factors), ROW_CHUNK):
        masses = sum(f * f for f in _fields(factors[start:start + ROW_CHUNK], parts))
        masses.setflags(write=False)
        dists.extend(
            OutcomeDistribution(
                kind=HOMODYNE,
                branch=branch,
                support=grid.nodes,
                masses=row,
                weights=grid.weights,
            )
            for row in masses
        )
    return dists[0] if _is_point(params) else dists


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


def fi_homodyne(
    probe: FockVector, params: NlaParams, branch: str, allow_complex: bool = False
) -> float | np.ndarray:
    """Classical Fisher information of conditional homodyne detection.

    ``F = integral (d p(x))^2 / p(x) dx`` with the density derivative taken
    analytically through the conditional amplitudes.  Raises
    :class:`ComplexProbeUnsupported` for complex probes unless overridden.

    ``params`` is one operating point, giving a float, or a batch, giving an
    array; either way the points go through one stacked
    :func:`_fisher_integral`, one row of real Kraus factors per point
    (:func:`~nlametro.instrument._conditional_factors`) on one basis.
    """
    if not allow_complex and not probe.is_real():
        raise ComplexProbeUnsupported(
            "homodyne saturation only holds for real probe amplitudes; "
            "pass allow_complex=True to compute the classical value anyway"
        )
    a, da = _conditional_factors(probe, params, branch)
    return _per_point(params, _fisher_integral(probe, a[:, None], da[:, None]))


# ---------------------------------------------------------------------------
# Joint record of the full sequential scheme
# ---------------------------------------------------------------------------

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
    array.  The two branch rows ``E_i c`` of a point are one
    group of :func:`_counting_fi`.  For homodyne, the two unnormalized Kraus
    rows ``E_i`` and their slopes on the first ``min(dim, max p + 2)``
    levels are one group of one stacked :func:`_fisher_integral` on the
    probe's basis, with its error model.  The rows of both branches come
    from one ``_kraus_pair`` call.  Neither detector conditions on a branch,
    so a point whose success probability underflows to 0 raises nothing:
    its information underflows with it, and the result there is 0.0.
    """
    probe.require_normalized()
    if detector not in DETECTOR_KINDS:
        raise ValueError(f"unknown detector {detector!r}")
    if detector == HOMODYNE and not probe.is_real():
        raise ComplexProbeUnsupported("joint homodyne record requires real probe amplitudes")
    g, p = _point_columns(params)
    if detector == PHOTON_COUNTING:
        rows, c = _kraus_pair(g, p, probe.dim), probe.amps
        return _per_point(params, _counting_fi(rows[:, :, 0] * c, rows[:, :, 1] * c))
    rows = _kraus_pair(g, p, _image_levels(probe.dim, p))
    return _per_point(params, _fisher_integral(probe, rows[:, :, 0], rows[:, :, 1]))
