"""Heralded noiseless-amplifier instrument in the truncated number basis.

The device is a two-outcome quantum instrument whose Kraus operators are
diagonal in the number basis.  With target gain ``g > 1`` and threshold level
``p``, the success operator scales level ``n`` by ``g^(n-p)`` up to the
threshold and acts as the identity above it; the failure operator carries the
complementary weight so that the pair is trace preserving level by level:

    success:  g^(n-p)                    for n <= p,   1 for n > p
    failure:  sqrt(1 - g^(2(n-p)))       for n <= p,   0 for n > p

This module provides the Kraus diagonals and their exact gain derivatives,
branch probabilities, normalized conditional states, and the joint pure
state of signal plus a qubit meter that records which branch occurred.
The conditional amplitudes and their slopes come from one broadcast kernel,
:func:`_conditional_rows`, for one operating point or a stack of them.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from .fock import FockVector

SUCCESS = "success"
FAILURE = "failure"
BRANCHES = (SUCCESS, FAILURE)

# Gains this close to 1 make the failure operator derivative blow up like
# 1/sqrt(g-1); the domain is cut off just above the boundary.
GAIN_FLOOR = 1.0 + 1e-9

# A branch with probability below this floor is treated as impossible.
PROBABILITY_FLOOR = 1e-300


class GainDomain(ValueError):
    """Gain outside the supported domain ``g >= 1 + 1e-9``."""


class BranchImpossible(ValueError):
    """Conditioning on a branch whose probability is (numerically) zero."""


class MeterNotNormalized(ValueError):
    """Meter qubit amplitudes fail |alpha|^2 + |beta|^2 = 1."""


def _check_branch(branch: str) -> str:
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")
    return branch


@dataclasses.dataclass(frozen=True)
class NlaParams:
    """Operating point of the amplifier: target gain ``g``, threshold ``p``."""

    g: float
    p: int

    def __post_init__(self):
        if not isinstance(self.p, (int, np.integer)) or isinstance(self.p, bool):
            raise ValueError("threshold p must be an integer")
        if self.p < 0:
            raise ValueError("threshold p must be non-negative")
        if not np.isfinite(self.g) or self.g < GAIN_FLOOR:
            raise GainDomain(f"gain {self.g!r} below domain floor {GAIN_FLOOR!r}")
        object.__setattr__(self, "p", int(self.p))


Points = NlaParams | Sequence[NlaParams]


def _point_columns(params: Points) -> tuple[np.ndarray, np.ndarray]:
    """Gain and threshold columns ``(G, 1)`` of one operating point or a sequence of them."""
    batch = [params] if isinstance(params, NlaParams) else list(params)
    if not batch:
        raise ValueError("need at least one operating point")
    g, p = np.array([pt.g for pt in batch], dtype=float), np.array([pt.p for pt in batch])
    return g[:, np.newaxis], p[:, np.newaxis]


def _check_rows(branch: str, dim: int) -> None:
    _check_branch(branch)
    if dim < 1:
        raise ValueError("dim must be positive")


def kraus_diagonal(params: NlaParams, branch: str, dim: int) -> np.ndarray:
    """Diagonal entries of the branch Kraus operator on levels 0..dim-1."""
    _check_rows(branch, dim)
    return _kraus_rows(params.g, params.p, branch, dim)


def _kraus_rows(g, p, branch: str, dim: int) -> np.ndarray:
    """Kraus diagonals on levels 0..dim-1, broadcast against the gains ``g``.

    ``g`` and ``p`` are scalars, or arrays whose last axis has length 1 (one
    row of levels per point, see :func:`_point_columns`).  Unchecked: the
    branch, ``dim`` and the gain domain are the caller's to validate.  The
    exponent ``n - p`` is clamped at 0, which gives the constant rows above
    ``p`` (``g^0 = 1``) without a power of ``g`` that could overflow.  Each
    row equals :func:`kraus_diagonal` at its point bit for bit.
    """
    k = np.minimum(np.arange(dim, dtype=float) - p, 0.0)
    if branch == SUCCESS:
        return g ** k
    return np.sqrt(np.clip(1.0 - g ** (2.0 * k), 0.0, None))


def kraus_diagonal_derivative(params: NlaParams, branch: str, dim: int) -> np.ndarray:
    """Exact gain derivative of :func:`kraus_diagonal`.

    The failure entry at ``n == p`` is identically zero for all gains, so its
    derivative is zero (the 0/0 in the naive quotient is removable).
    """
    _check_rows(branch, dim)
    return _kraus_slope_rows(params.g, params.p, branch, dim)


def _kraus_slope_rows(g, p, branch: str, dim: int) -> np.ndarray:
    """Gain derivatives of :func:`_kraus_rows`, broadcast against ``g`` and ``p``.

    Unchecked, like :func:`_kraus_rows`.  Only the levels ``n <= p``
    (success) or ``n < p`` (failure) have a non-zero slope; the levels up to
    the largest ``p`` are evaluated and the rest of each row is zero.  Each
    row equals :func:`kraus_diagonal_derivative` at its point bit for bit.
    """
    top = int(np.max(p))
    levels = min(dim, top + 1 if branch == SUCCESS else top)
    # clamped like _kraus_rows: the slope is 0 wherever k = 0
    k = np.minimum(np.arange(levels, dtype=float) - p, 0.0)
    if branch == SUCCESS:
        head = k * g ** (k - 1.0)
    else:
        root = np.sqrt(1.0 - g ** (2.0 * k))
        head = np.divide(-k * g ** (2.0 * k - 1.0), root, out=np.zeros(root.shape), where=k < 0.0)
    out = np.zeros(head.shape[:-1] + (dim,))
    out[..., :levels] = head
    return out


def completeness_defect(params: NlaParams, dim: int) -> float:
    """max_n |E_s(n)^2 + E_f(n)^2 - 1|; zero for a trace-preserving pair."""
    es = kraus_diagonal(params, SUCCESS, dim)
    ef = kraus_diagonal(params, FAILURE, dim)
    return float(np.max(np.abs(es * es + ef * ef - 1.0)))


def branch_probability(probe: FockVector, params: NlaParams, branch: str) -> float:
    """Probability of the branch firing on the given normalized probe."""
    probe.require_normalized()
    e = kraus_diagonal(params, branch, probe.dim)
    return float(np.sum(e * e * probe.weights()))


def branch_probability_derivative(
    probe: FockVector, params: NlaParams, branch: str
) -> float:
    """Exact gain derivative ``2 sum_n E_n dE_n |c_n|^2`` of the branch probability.

    Each branch is differentiated through its own Kraus derivative, so the
    two branch derivatives sum to zero only when the Kraus pair does.
    """
    probe.require_normalized()
    e = kraus_diagonal(params, branch, probe.dim)
    de = kraus_diagonal_derivative(params, branch, probe.dim)
    return float(2.0 * np.sum(e * de * probe.weights()))


@dataclasses.dataclass(frozen=True)
class ConditionalState:
    """Normalized post-selected state together with its branch probability."""

    state: FockVector
    probability: float
    branch: str


def _impossible(branch: str, g, p, prob: np.ndarray) -> BranchImpossible:
    """The error naming the first point whose ``prob`` is below :data:`PROBABILITY_FLOOR`."""
    i = int(np.argmax(prob < PROBABILITY_FLOOR))
    g, p = np.broadcast_arrays(np.ravel(g), np.ravel(p))
    return BranchImpossible(
        f"{branch} branch is impossible for this probe at g={float(g[i])!r}, p={int(p[i])}"
        f" (point {i})"
    )


def _conditional_rows(probe: FockVector, params: Points, branch: str):
    """Normalized conditional amplitudes, their gain slopes and the branch probabilities.

    ``params`` is one operating point or a sequence of them, whose thresholds
    may differ.  Amplitudes and slopes are ``G x dim`` stacks, one row per
    point; the probabilities have length ``G``.  The slopes follow the product
    rule on ``a_n = E_n c_n / sqrt(prob)``:
    ``da_n = dE_n c_n / sqrt(prob) - a_n dprob / (2 prob)``.  An impossible
    branch at any point raises :class:`BranchImpossible` naming that point.
    """
    _check_branch(branch)
    probe.require_normalized()
    g, p = _point_columns(params)
    e = _kraus_rows(g, p, branch, probe.dim)
    de = _kraus_slope_rows(g, p, branch, probe.dim)
    raw = e * probe.amps
    prob = np.sum(np.abs(raw) ** 2, axis=1)
    if np.any(prob < PROBABILITY_FLOOR):
        raise _impossible(branch, g, p, prob)
    dprob = 2.0 * np.sum(e * de * probe.weights(), axis=1)
    root = np.sqrt(prob)[:, np.newaxis]
    amps = raw / root
    return amps, de * probe.amps / root - amps * (dprob / (2.0 * prob))[:, np.newaxis], prob


def conditional_state(probe: FockVector, params: NlaParams, branch: str) -> ConditionalState:
    """Normalized post-selected state at one point: a view of :func:`_conditional_rows`."""
    amps, _, prob = _conditional_rows(probe, params, branch)
    return ConditionalState(FockVector(amps[0]), float(prob[0]), branch)


def conditional_state_derivative(probe: FockVector, params: NlaParams, branch: str) -> np.ndarray:
    """Gain derivative of the conditional amplitudes at one point (:func:`_conditional_rows`)."""
    return _conditional_rows(probe, params, branch)[1][0]


@dataclasses.dataclass(frozen=True)
class MeterState:
    """Qubit meter prepared as ``alpha |success> + beta |failure>``."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        nrm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(nrm - 1.0) > 1e-10:
            raise MeterNotNormalized(f"|alpha|^2 + |beta|^2 = {nrm:.12g}")

    @classmethod
    def trivial(cls) -> "MeterState":
        """Meter that simply records the branch (alpha = 0, beta = 1)."""
        return cls(0.0, 1.0)

    def branch_imbalance(self) -> float:
        """Im(alpha conj(beta)); zero exactly when the meter costs nothing."""
        return float((self.alpha * np.conj(self.beta)).imag)


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
    es = kraus_diagonal(params, SUCCESS, probe.dim) * probe.amps
    ef = kraus_diagonal(params, FAILURE, probe.dim) * probe.amps
    return JointState(
        success_amps=meter.beta * es + meter.alpha * ef,
        failure_amps=meter.beta * ef - meter.alpha * es,
    )
