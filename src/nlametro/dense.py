"""Dense double-precision references that the tests compare the package against.

No package module imports this one.  The package computes every quantity on
the rank-<=2 Kraus images ``A = [E_s c, E_f c]``; the routines here take the
long way round, through ``dim x dim`` density matrices and double-precision
state vectors, so that a test can check an image-based value against a
construction that shares none of its algebra:

* :func:`conditional_state_derivative` gives the gain derivative of one
  point's conditional amplitudes as a full ``dim`` vector;
* :func:`unconditional_state` and :func:`unconditional_state_derivative`
  build the branch-averaged output and its gain derivative as dense matrices;
* :func:`qfi_mixed` is the eigendecomposition QFI of any such family;
* :func:`qfi_pure` is the QFI ``4 (<d|d> - |<psi|d>|^2)`` of a pure-state
  family given as amplitude vectors;
* :func:`qfi_fd_pure` differences any pure-state family with the
  cancellation-free :func:`overlap_deficit`, and refuses deficits below 100x
  unit roundoff via :class:`StepTooSmall` (:func:`resolution_floor` states
  the smallest value a step can certify);
* :func:`joint_state` builds the joint signal-meter state of the unitary
  dilation as a :class:`JointState` of two explicit amplitude blocks;
* :func:`sample_shots` draws a Monte-Carlo record shot by shot, a counting
  branch by the inverse CDF of its photon-number masses, and
  :func:`mle_estimate` estimates the gain of one such record: the per-shot,
  per-record reference for the count draws and the batched search of
  :mod:`nlametro.montecarlo`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .fock import DensityOperator, FockVector
from .instrument import (
    BRANCHES,
    FAILURE,
    PROBABILITY_FLOOR,
    SUCCESS,
    MeterState,
    NlaParams,
    _conditional_rows,
    _one_point,
    branch_probability_derivative,
    kraus_diagonal,
)
from .measurements import HOMODYNE
from .montecarlo import (
    DETECTORS,
    GainGrid,
    _RECORDED,
    _Counts,
    _Quadratures,
    _ShotSource,
    _estimates,
)
from .oracles import DEFAULT_QFI_STEP, _validate_step

DERIVATIVE_HERMITICITY_TOL = 1e-12
DERIVATIVE_TRACE_TOL = 1e-9

UNIT_ROUNDOFF = 2.0 ** -53
# Deficits below this are indistinguishable from rounding noise.
DEFICIT_FLOOR = 100.0 * UNIT_ROUNDOFF
# Deficits below this band are treated as an exact zero (identical states up
# to rounding) rather than as an unresolvable step.
ZERO_DEFICIT_BAND = 1e-15


class NonHermitianDerivative(ValueError):
    """The supplied state derivative is not Hermitian/traceless."""


class StepTooSmall(ArithmeticError):
    """The overlap deficit drowned in roundoff at the requested step."""


# ---------------------------------------------------------------------------
# Dense unconditional output and its QFI
# ---------------------------------------------------------------------------

def conditional_state_derivative(probe: FockVector, params: NlaParams, branch: str) -> np.ndarray:
    """Gain derivative of the conditional amplitudes at one point (a batch raises;
    :func:`~nlametro.instrument._conditional_rows`)."""
    return _conditional_rows(probe, _one_point(params), branch)[1][0]


def unconditional_state(probe: FockVector, params: NlaParams) -> DensityOperator:
    """Branch-averaged output: rank <= 2 mixture of the conditional states."""
    probe.require_normalized()
    mat = np.zeros((probe.dim, probe.dim), dtype=np.complex128)
    for branch in BRANCHES:
        raw = kraus_diagonal(_one_point(params), branch, probe.dim) * probe.amps
        mat += np.outer(raw, raw.conj())
    return DensityOperator(mat)


def unconditional_state_derivative(probe: FockVector, params: NlaParams) -> np.ndarray:
    """Exact gain derivative of the unconditional output matrix.

    Assembled by the product rule on each branch term
    ``prob_i |psi_i><psi_i|`` (equivalently on the unnormalized Kraus images);
    a branch of identically zero probability contributes nothing at any gain
    and is skipped.
    """
    probe.require_normalized()
    out = np.zeros((probe.dim, probe.dim), dtype=np.complex128)
    for branch in BRANCHES:
        e = kraus_diagonal(params, branch, probe.dim)
        raw = e * probe.amps
        prob = float(np.sum(np.abs(raw) ** 2))
        if prob < PROBABILITY_FLOOR:
            continue
        dprob = branch_probability_derivative(probe, params, branch)
        psi = raw / np.sqrt(prob)
        dpsi = conditional_state_derivative(probe, params, branch)
        out += dprob * np.outer(psi, psi.conj())
        out += prob * (np.outer(dpsi, psi.conj()) + np.outer(psi, dpsi.conj()))
    return out


def qfi_mixed(rho: DensityOperator, drho: np.ndarray, zero_tol: float = 1e-12) -> float:
    """QFI of a mixed-state family from its eigendecomposition.

    ``Q = 2 sum_{jk} |<j| drho |k>|^2 / (v_j + v_k)`` over eigenpairs whose
    combined weight is resolvable; pairs with ``v_j + v_k`` below
    ``zero_tol * max(v)`` are skipped.
    """
    drho = np.asarray(drho, dtype=complex)
    if drho.shape != rho.mat.shape:
        raise ValueError("derivative shape must match the state")
    scale = max(1.0, float(np.max(np.abs(drho))))
    defect = float(np.max(np.abs(drho - drho.conj().T)))
    if defect > DERIVATIVE_HERMITICITY_TOL * scale:
        raise NonHermitianDerivative(f"derivative hermiticity defect {defect:.3g}")
    trace = abs(complex(np.trace(drho)))
    if trace > DERIVATIVE_TRACE_TOL * scale:
        raise NonHermitianDerivative(f"derivative trace {trace:.3g} not ~0")
    vals, vecs = np.linalg.eigh(rho.mat)
    transformed = vecs.conj().T @ drho @ vecs
    sums = vals[:, None] + vals[None, :]
    mask = sums > zero_tol * max(vals[-1], 0.0)
    return float(2.0 * np.sum(np.abs(transformed[mask]) ** 2 / sums[mask]))


def qfi_pure(state, dstate) -> float:
    """QFI of a pure-state family: ``4 (<d|d> - |<psi|d>|^2)``.

    ``state`` must be normalized; ``dstate`` is the parameter derivative of
    the amplitudes (any array-like, same length).
    """
    amps = state.amps if isinstance(state, FockVector) else np.asarray(state, dtype=complex)
    damps = dstate.amps if isinstance(dstate, FockVector) else np.asarray(dstate, dtype=complex)
    if amps.shape != damps.shape:
        raise ValueError("state and derivative must have equal length")
    nrm = float(np.linalg.norm(amps))
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"pure-state QFI needs a normalized state, norm={nrm:.12g}")
    dd = float(np.vdot(damps, damps).real)
    sd = complex(np.vdot(amps, damps))
    return 4.0 * (dd - abs(sd) ** 2)


# ---------------------------------------------------------------------------
# Joint signal-meter state
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class JointState:
    """Pure state of signal tensor meter after the unitary dilation.

    ``success_amps``/``failure_amps`` are the signal amplitudes paired with
    the meter's success/failure basis states.
    """

    success_amps: np.ndarray
    failure_amps: np.ndarray

    def __post_init__(self):
        for name in ("success_amps", "failure_amps"):
            arr = np.array(getattr(self, name), dtype=np.complex128)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.success_amps.shape != self.failure_amps.shape:
            raise ValueError("joint-state blocks must have equal length")

    @property
    def dim(self) -> int:
        return self.success_amps.size

    def as_vector(self) -> np.ndarray:
        """Flatten to a single 2*dim amplitude vector (success block first)."""
        return np.concatenate([self.success_amps, self.failure_amps])

    def norm(self) -> float:
        return float(np.linalg.norm(self.as_vector()))

    def block_weights(self) -> tuple[float, float]:
        return (
            float(np.sum(np.abs(self.success_amps) ** 2)),
            float(np.sum(np.abs(self.failure_amps) ** 2)),
        )


def joint_state(probe: FockVector, params: NlaParams, meter: MeterState) -> JointState:
    """Joint signal-meter state for a general meter preparation.

    The unitary dilation acts on signal tensor meter; reading the meter in
    its success/failure basis reproduces the instrument when the meter starts
    in ``|failure>`` (the trivial meter).  A general preparation
    ``alpha |success> + beta |failure>`` yields

        success block:  (beta E_s + alpha E_f) |probe>
        failure block:  (beta E_f - alpha E_s) |probe>
    """
    probe.require_normalized()
    es = kraus_diagonal(_one_point(params), SUCCESS, probe.dim) * probe.amps
    ef = kraus_diagonal(params, FAILURE, probe.dim) * probe.amps
    return JointState(
        success_amps=meter.beta * es + meter.alpha * ef,
        failure_amps=meter.beta * ef - meter.alpha * es,
    )


# ---------------------------------------------------------------------------
# Double-precision pure-state fidelity finite differences
# ---------------------------------------------------------------------------

def resolution_floor(dg: float) -> float:
    """Smallest information value resolvable at step ``dg``.

    A deficit at the refusal floor maps to ``8 * DEFICIT_FLOOR / dg**2``;
    analytic values below this cannot be confirmed or denied by the
    finite-difference oracle at that step.
    """
    return 8.0 * DEFICIT_FLOOR / (dg * dg)


def overlap_deficit(lo: FockVector, hi: FockVector) -> float:
    """``1 - |<lo|hi>|`` for unit vectors, assembled without cancellation.

    Writing z = <lo|hi>, a = |lo - hi|^2 / 2 = 1 - Re z and b = Im z, the
    exact identity ``1 - |z| = (2a - a^2 - b^2) / (1 + |z|)`` leaves every
    operand small — no 1 - 0.99999... subtraction ever happens, so deficits
    down to ~1e-30 keep full relative accuracy.
    """
    u = lo.amps / np.linalg.norm(lo.amps)
    v = hi.amps / np.linalg.norm(hi.amps)
    if u.size != v.size:
        n = max(u.size, v.size)
        u = np.pad(u, (0, n - u.size))
        v = np.pad(v, (0, n - v.size))
    z = complex(np.vdot(u, v))
    a = 0.5 * float(np.linalg.norm(v - u) ** 2)
    return max((2.0 * a - a * a - z.imag * z.imag) / (1.0 + abs(z)), 0.0)


def qfi_fd_pure(state_at, g: float, dg: float = DEFAULT_QFI_STEP) -> float:
    """Finite-difference QFI ``8 (1 - |<psi(g-)|psi(g+)>|) / dg^2``.

    ``state_at(g)`` must return the (normalized) pure state at gain ``g``;
    the symmetric pair ``g +/- dg/2`` makes the estimate second-order
    accurate.  Exactly gain-independent families return 0; deficits inside
    the rounding band raise :class:`StepTooSmall`.
    """
    _validate_step(dg)
    deficit = overlap_deficit(state_at(g - 0.5 * dg), state_at(g + 0.5 * dg))
    if deficit < ZERO_DEFICIT_BAND:
        return 0.0
    if deficit < DEFICIT_FLOOR:
        raise StepTooSmall(
            f"overlap deficit {deficit:.3e} at step {dg:g} is below 100x unit "
            f"roundoff; values under {resolution_floor(dg):.3e} are unresolvable"
        )
    return 8.0 * deficit / (dg * dg)


# ---------------------------------------------------------------------------
# Per-shot Monte-Carlo records
# ---------------------------------------------------------------------------

def _discrete_sampler(masses: np.ndarray):
    """Inverse CDF of the photon-number masses, tabulated once.

    A uniform goes to the first level whose cumulative mass exceeds it; the
    uniforms above a table that sums to less than 1 go to the last level.
    """
    cum = np.cumsum(masses)
    cum[-1] = max(cum[-1], 1.0)
    last = masses.size - 1

    def sample(u: np.ndarray) -> np.ndarray:
        return np.minimum(np.searchsorted(cum, u, side="right"), last)

    return sample


class _PerShotSource(_ShotSource):
    """A shot source whose :meth:`draw` also draws counting records shot by shot.

    A counting branch takes one uniform per shot through the inverse CDF of
    its masses; homodyne draws as in :mod:`nlametro.montecarlo`.
    """

    def _sampler(self, branch: str):
        if self._detector == HOMODYNE:
            return super()._sampler(branch)
        return _discrete_sampler(self._masses[branch])


def sample_shots(
    probe: FockVector,
    params: NlaParams,
    detector: str,
    rng: np.random.Generator,
    shots: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized draw of ``shots`` amplifier runs.

    Returns ``(success_mask, outcomes)``; outcomes are NaN where the detector
    records nothing (herald-only always, failure shots under success-only).
    """
    success, drawn = _PerShotSource(probe, params, detector).draw(rng, shots)
    outcomes = np.full(shots, np.nan)
    for branch, values in drawn.items():
        outcomes[success if branch == SUCCESS else ~success] = values
    return success, outcomes


def mle_estimate(
    records: tuple[np.ndarray, np.ndarray],
    probe: FockVector,
    pthreshold: int,
    detector: str,
    grid: GainGrid,
) -> float:
    """Maximum-likelihood gain of one record: grid argmax, then a root search on the score.

    ``records`` is the ``(success_mask, outcomes)`` array pair from
    :func:`sample_shots`.

    Raises :class:`~nlametro.montecarlo.DegenerateLikelihood` when the
    surface is flat over the grid (the record carries no gain information,
    e.g. a single-level probe whose conditional masses are gain independent).
    """
    if detector not in DETECTORS:
        raise ValueError(f"unknown detector {detector!r}")
    success, outcomes = records
    if success.size == 0:
        raise ValueError("records must be non-empty")
    drawn = {}
    for branch, mask in ((SUCCESS, success), (FAILURE, ~success)):
        if mask.any() and branch in _RECORDED[detector]:
            values = outcomes[mask]
            drawn[branch] = values if detector == HOMODYNE else values.astype(int)
    if detector == HOMODYNE:
        stats = _Quadratures.of(probe, pthreshold, drawn)
    else:
        levels = [
            np.bincount(drawn.get(branch, []), minlength=probe.dim)[np.newaxis]
            for branch in BRANCHES
        ]
        n_s = np.array([success.sum()])
        stats = _Counts(n_s, success.size - n_s, *levels)
    return float(_estimates(probe, pthreshold, detector, stats, grid)[0][0])
