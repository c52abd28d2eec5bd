"""Detector models on the conditional outputs: photon counting and homodyne.

Both detectors saturate the conditional-state QFI for probes with real
amplitudes (the conditional families are real and gain-covariant), which is
what makes the sequential scheme optimal; the self-check suite verifies the
saturation numerically.  This module computes the outcome distributions,
their exact gain derivatives, the resulting classical Fisher informations,
and the Fisher information of the full joint record (branch, outcome) --
the latter through its own code path so it can arbitrate the identity
``F_joint = p_s Q_s + p_f Q_f + F_c`` independently.

Every function but :func:`homodyne_density` takes one operating point or a
sequence of them, whose thresholds may differ, and evaluates all points as
one stack of rows: conditional amplitudes and slopes from one call of the
instrument kernel ``_conditional_rows``, joint-record rows ``E_i c`` from one
``_kraus_rows`` and ``_kraus_slope_rows`` call per branch.
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
    BRANCHES,
    NlaParams,
    Points,
    _conditional_rows,
    _kraus_rows,
    _kraus_slope_rows,
    _per_point,
    _point_columns,
    conditional_state,
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
    probe: FockVector, params: Points, branch: str
) -> OutcomeDistribution | list[OutcomeDistribution]:
    """Photon-number distribution of the normalized conditional state.

    ``params`` is one operating point, giving one distribution, or a
    sequence of them, giving a list.
    """
    masses = np.abs(_conditional_rows(probe, params, branch)[0]) ** 2
    support = np.arange(probe.dim, dtype=float)
    for arr in (masses, support):
        arr.setflags(write=False)
    dists = [OutcomeDistribution(PHOTON_COUNTING, branch, support, row) for row in masses]
    return dists[0] if isinstance(params, NlaParams) else dists


def _counting_fi(amps: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """``sum dm^2 / m`` over occupied outcomes, ``m = |a|^2``, ``dm = 2 Re(conj(a) da)``.

    ``amps`` and ``slopes`` are ``(G, K, dim)`` groups of rows, summed per
    group as in :func:`_fisher_integral`.  Each term is ``dm (dm / m)``:
    dividing first keeps a slope whose square would underflow.
    """
    m = np.abs(amps) ** 2
    dm = 2.0 * (np.conj(amps) * slopes).real
    return (dm * np.divide(dm, m, out=np.zeros_like(m), where=m > MASS_FLOOR)).sum(axis=(1, 2))


def fi_photon_counting(probe: FockVector, params: Points, branch: str) -> float | np.ndarray:
    """Classical Fisher information of conditional photon counting.

    ``F = sum_n (dm_n)^2 / m_n`` over occupied levels, with the mass
    derivatives taken analytically through the conditional amplitudes.
    ``params`` is one operating point, giving a float, or a sequence of
    them, giving an array.
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


def _fields(rows: np.ndarray, psi: np.ndarray) -> list[np.ndarray]:
    """Real and imaginary parts of ``rows @ psi``, computed in real arithmetic.

    The real wavefunction table is never cast to complex; the imaginary
    product is skipped when the rows have no imaginary part.
    """
    if np.iscomplexobj(rows) and np.any(rows.imag):
        return [rows.real @ psi, rows.imag @ psi]
    return [rows.real @ psi]


def homodyne_density(probe: FockVector, params: NlaParams, branch: str, x) -> np.ndarray | float:
    """Conditional x-quadrature density ``|sum_n a_n <x|n>|^2``."""
    cond = conditional_state(probe, params, branch)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    psi = wavefunction_matrix(probe.dim, xa)
    field = cond.state.amps @ psi
    dens = np.abs(field) ** 2
    return dens if isinstance(x, np.ndarray) else float(dens[0])


def homodyne_distribution(
    probe: FockVector, params: Points, branch: str
) -> OutcomeDistribution | list[OutcomeDistribution]:
    """Conditional homodyne density tabulated on the adaptive grid.

    ``params`` is one operating point, giving one distribution, or a
    sequence of them, giving a list.  The conditional amplitudes of all
    points are multiplied against the window-0 wavefunction table
    ``ROW_CHUNK`` rows at a time.
    """
    amps = _conditional_rows(probe, params, branch)[0]
    grid, psi = _grid_and_wavefunctions(probe.dim, 0)
    dists = []
    for start in range(0, len(amps), ROW_CHUNK):
        masses = sum(f * f for f in _fields(amps[start:start + ROW_CHUNK], psi))
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
    return dists[0] if isinstance(params, NlaParams) else dists


def _fisher_integral(dim: int, amps: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """Integrate ``(d density)^2 / density`` for groups of stacked field rows.

    ``amps`` and ``slopes`` have shape ``(G, K, dim)``: each of the ``G``
    groups holds ``K`` rows of field amplitudes and their gain derivatives,
    and the integrands of a group's rows add up (one row for a branch FI,
    one per branch for the joint record).  Returns the ``G`` integrals.

    Rows are multiplied against the real wavefunction table at most
    ``ROW_CHUNK`` at a time, which bounds the ``rows x nodes`` temporaries.
    The products are then reduced in place: each field product becomes the
    density ``f^2`` and the cross term ``f df``, and the integrand
    ``cross (cross / density)`` is formed in one buffer, with the
    ``MASS_FLOOR`` floor, divided before squared as in :func:`_counting_fi`.
    Since ``d density = 2 cross``, the factor 4 is applied to each group's
    integral, where a power of two rescales exactly.

    The tail check runs per group on its two outermost panels: a group
    whose left or right panel carries more than TAIL_SHARE of its total,
    which given the default margin should never happen, is evaluated again
    on a window widened by 25% per step, and only such groups are.
    """
    groups, per_group = amps.shape[:2]
    chunk = max(1, ROW_CHUNK // per_group)
    totals = np.empty(groups)
    pending = np.arange(groups)
    for widen in range(6):
        grid, psi = _grid_and_wavefunctions(dim, widen)
        edge = grid.weights[:grid.order]  # every panel has the same weights
        done = np.zeros(pending.size, dtype=bool)
        for start in range(0, pending.size, chunk):
            idx = pending[start:start + chunk]
            rows = np.concatenate((amps[idx], slopes[idx]), axis=1).reshape(-1, dim)
            dens = cross = None
            for prod in _fields(rows, psi):
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
    probe: FockVector, params: Points, branch: str, allow_complex: bool = False
) -> float | np.ndarray:
    """Classical Fisher information of conditional homodyne detection.

    ``F = integral (d p(x))^2 / p(x) dx`` with the density derivative taken
    analytically through the conditional amplitudes.  Raises
    :class:`ComplexProbeUnsupported` for complex probes unless overridden.

    ``params`` is one operating point, giving a float, or a sequence of
    them, giving an array; either way the points go through one stacked
    :func:`_fisher_integral`, one row per point.
    """
    if not allow_complex and not probe.is_real():
        raise ComplexProbeUnsupported(
            "homodyne saturation only holds for real probe amplitudes; "
            "pass allow_complex=True to compute the classical value anyway"
        )
    amps, slopes, _ = _conditional_rows(probe, params, branch)
    return _per_point(params, _fisher_integral(probe.dim, amps[:, None], slopes[:, None]))


# ---------------------------------------------------------------------------
# Joint record of the full sequential scheme
# ---------------------------------------------------------------------------

def sequential_fi(
    probe: FockVector, params: Points, detector: str = PHOTON_COUNTING
) -> float | np.ndarray:
    """Fisher information of the joint (branch, outcome) record.

    Works directly on the unnormalized joint masses
    ``q_{i,o} = prob_i * p(o|i)`` -- for photon counting these are simply
    ``|E_{i,n} c_n|^2`` -- with analytic derivatives, and never touches the
    effective-QFI closed form, so it can serve as an independent witness of
    ``F_joint = p_s Q_s + p_f Q_f + F_c``.

    ``params`` is one operating point, giving a float, or a sequence of
    them, giving an array.  The two branch rows ``E_i c`` of a point are one
    group of :func:`_counting_fi` or, for homodyne, of one stacked
    :func:`_fisher_integral`.
    """
    probe.require_normalized()
    if detector not in DETECTOR_KINDS:
        raise ValueError(f"unknown detector {detector!r}")
    if detector == HOMODYNE and not probe.is_real():
        raise ComplexProbeUnsupported("joint homodyne record requires real probe amplitudes")
    g, p = _point_columns(params)
    dim, c = probe.dim, probe.amps
    amps = np.stack([_kraus_rows(g, p, b, dim) * c for b in BRANCHES], axis=1)
    slopes = np.stack([_kraus_slope_rows(g, p, b, dim) * c for b in BRANCHES], axis=1)
    if detector == PHOTON_COUNTING:
        values = _counting_fi(amps, slopes)
    else:
        values = _fisher_integral(dim, amps, slopes)
    return _per_point(params, values)
