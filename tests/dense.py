"""Dense double-precision references that the tests compare the package against.

The package never imports this module, which lives with the tests.  The
package computes every quantity on the rank-<=2 Kraus images
``A = [E_s c, E_f c]``; the routines here take the long way round,
through ``dim x dim`` density matrices and double-precision state vectors,
so that a test can check an image-based value against a construction that
shares none of its algebra:

* :func:`conditional_state_derivative` gives the gain derivative of one
  point's conditional amplitudes as a full ``dim`` vector, by the product
  rule on the Kraus diagonals and their slopes;
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
* :func:`sample_shots` draws a Monte-Carlo record shot by shot from the
  public Kraus diagonal over all ``dim`` levels, never from the package's
  Kraus images, and :func:`mle_estimate` estimates the gain of one such
  record: the per-shot, per-record reference for the count draws and the
  batched search of :mod:`nlametro.montecarlo`.

Test modules import it as ``dense``: pytest puts the tests' directory on
the import path, as it does for ``conftest``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from nlametro.fock import DensityOperator, FockVector, default_half_width, wavefunction_matrix
from nlametro.instrument import (
    BRANCHES,
    FAILURE,
    PROBABILITY_FLOOR,
    SUCCESS,
    KrausImages,
    MeterState,
    NlaParams,
    _one_point,
    kraus_diagonal,
    kraus_diagonal_derivative,
)
from nlametro.measurements import HOMODYNE
from nlametro.montecarlo import (
    DETECTORS,
    HOMODYNE_CDF_POINTS,
    GainGrid,
    _RECORDED,
    _count_record,
    _estimates,
    _homodyne_record,
)
from nlametro.oracles import DEFAULT_QFI_STEP, _validate_step

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
    """Gain derivative of the conditional amplitudes at one point; a batch raises.

    The product rule on all ``dim`` levels of ``psi_n = E_n c_n / sqrt(P)``,
    ``P = sum_n E_n^2 |c_n|^2``: ``dpsi_n = dE_n c_n / sqrt(P) - psi_n dP / (2 P)``
    with ``dP = 2 sum_n E_n dE_n |c_n|^2``, from the public Kraus diagonal and
    its slope, without the package's conditional-state kernel.
    """
    point = _one_point(params)
    e = kraus_diagonal(point, branch, probe.dim)
    de = kraus_diagonal_derivative(point, branch, probe.dim)
    weights = np.abs(probe.amps) ** 2
    prob = float(np.sum(e * e * weights))
    dprob = 2.0 * float(np.sum(e * de * weights))
    root = np.sqrt(prob)
    return de * probe.amps / root - (e * probe.amps / root) * (dprob / (2.0 * prob))


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
    ``prob_i |psi_i><psi_i|`` (equivalently on the unnormalized Kraus images),
    with ``dprob_i = 2 sum_n E_n dE_n |c_n|^2`` from the public Kraus diagonal
    and its slope over all ``dim`` levels, not from the package's Kraus
    images; a branch of identically zero probability contributes nothing at
    any gain and is skipped.
    """
    probe.require_normalized()
    out = np.zeros((probe.dim, probe.dim), dtype=np.complex128)
    for branch in BRANCHES:
        e = kraus_diagonal(params, branch, probe.dim)
        raw = e * probe.amps
        prob = float(np.sum(np.abs(raw) ** 2))
        if prob < PROBABILITY_FLOOR:
            continue
        de = kraus_diagonal_derivative(params, branch, probe.dim)
        dprob = 2.0 * float(np.sum(e * de * np.abs(probe.amps) ** 2))
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


def _continuous_sampler(xs: np.ndarray, density: np.ndarray):
    """Inverse of the trapezoid CDF of ``density`` tabulated at ``xs``.

    Cells that add less than 1e-15 to the normalized CDF are dropped, so
    the table ``np.interp`` inverts increases strictly; the uniforms are
    mapped in ascending order.
    """
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(xs))))
    cdf = cdf / cdf[-1]
    keep = np.concatenate(([True], np.diff(cdf) > 1e-15))
    return lambda u: np.interp(np.sort(u), cdf[keep], xs[keep])


class _PerShotSource:
    """Amplifier runs of one point and detector, drawn shot by shot.

    A branch's unnormalized amplitudes are the public
    :func:`~nlametro.instrument.kraus_diagonal` times the probe amplitudes
    on all ``dim`` levels, so ``p_s``, the photon-number masses and the
    homodyne density ``|sum_n E_n c_n <x|n>|^2 / p_b`` (with
    ``wavefunction_matrix``, on the package's ``HOMODYNE_CDF_POINTS`` grid)
    read no Kraus image of the package.  A counting branch takes one
    uniform per shot through the inverse CDF of its masses, a homodyne
    branch through that of its density; the generator is consumed as the
    package's shot source consumes it.
    """

    def __init__(self, probe: FockVector, params: NlaParams, detector: str):
        if detector not in DETECTORS:
            raise ValueError(f"unknown detector {detector!r}")
        self._detector = detector
        self._raw = {b: kraus_diagonal(_one_point(params), b, probe.dim) * probe.amps
                     for b in BRANCHES}
        self._prob = {b: float(np.sum(np.abs(raw) ** 2)) for b, raw in self._raw.items()}

    def draw(self, rng: np.random.Generator, shots: int) -> tuple[np.ndarray, dict]:
        """``(success_mask, {branch: outcomes of that branch's shots})`` for
        each recorded branch that fired."""
        success = rng.random(shots) < self._prob[SUCCESS]
        n_s, drawn = int(success.sum()), {}
        for branch, n in ((SUCCESS, n_s), (FAILURE, shots - n_s)):
            if n and branch in _RECORDED[self._detector]:
                drawn[branch] = self._sampler(branch)(rng.random(n))
        return success, drawn

    def _sampler(self, branch: str):
        raw, prob = self._raw[branch], self._prob[branch]
        if self._detector == HOMODYNE:
            half_width = default_half_width(raw.size)
            xs = np.linspace(-half_width, half_width, HOMODYNE_CDF_POINTS)
            return _continuous_sampler(xs, np.abs(raw @ wavefunction_matrix(raw.size, xs)) ** 2 / prob)
        if prob < PROBABILITY_FLOOR:
            return _discrete_sampler(np.zeros(raw.size))
        return _discrete_sampler(np.abs(raw) ** 2 / prob)


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
        record = _homodyne_record(probe, pthreshold, drawn)
    else:
        levels = {b: np.bincount(k, minlength=probe.dim)[np.newaxis] for b, k in drawn.items()}
        n_s = np.array([success.sum()])
        # the image column does not depend on the gain: any gain of the grid gives it
        c = KrausImages.of(probe, NlaParams(g=grid.lo, p=pthreshold)).c[0]
        record = _count_record(c, detector, n_s, success.size - n_s, levels)
    return float(_estimates(pthreshold, record, grid)[0][0])
