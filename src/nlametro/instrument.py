"""Heralded noiseless-amplifier instrument in the truncated number basis.

The device is a two-outcome quantum instrument whose Kraus operators are
diagonal in the number basis.  With target gain ``g > 1`` and threshold level
``p``, the success operator scales level ``n`` by ``g^(n-p)`` up to the
threshold and acts as the identity above it; the failure operator carries the
complementary weight so that the pair is trace preserving level by level:

    success:  g^(n-p)                    for n <= p,   1 for n > p
    failure:  sqrt(1 - g^(2(n-p)))       for n <= p,   0 for n > p

This module provides the Kraus diagonals and their exact gain derivatives,
branch probabilities, normalized conditional states, and the qubit meter
that records which branch occurred, one meter (:class:`MeterState`) or an
array of them (:class:`MeterBatch`).  The Kraus, completeness and
branch-probability functions take one operating point, a batch of them
(:class:`NlaParams` with an array of gains) or a sequence of them, whose
thresholds may differ; the conditional states take one point.  Every Kraus
entry comes from one kernel, :func:`_kraus_pair`, which gives the rows and
slopes of both branches in one call, for one gain or a column of them; it
takes powers of the gain on the :func:`_image_levels` ``min(dim, max p +
2)`` levels only, the levels above holding the exact constants.  The conditional amplitudes
and their slopes come from :func:`_conditional_rows`, for one operating
point or a stack of them; :func:`_conditional_factors` gives their real
Kraus factors on the :func:`_image_levels` levels.
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
    """Operating point of the amplifier: target gain ``g``, threshold ``p``; or a batch of them.

    One point has a scalar gain and an integer threshold.  A batch has a
    non-empty 1-D array of ``G`` gains and, as ``p``, one integer for every
    gain or an integer array of length ``G``; it is stored as read-only
    ``float64`` gains and ``int64`` thresholds of length ``G``, and every
    function that takes a sequence of points takes a batch alike, with the
    same result bit for bit.  A batch is validated with array checks, and an
    error names its first bad point.  A function of one point raises
    ``ValueError`` on a batch.  A batch is also a sequence of its points:
    it has a length, and its items are single ``NlaParams`` (a slice gives a
    batch); one point is none of these.
    """

    g: float | np.ndarray
    p: int | np.ndarray

    def __post_init__(self):
        if np.ndim(self.g) == 0:
            if not isinstance(self.p, (int, np.integer)) or isinstance(self.p, bool):
                raise ValueError("threshold p must be an integer")
            if self.p < 0:
                raise ValueError("threshold p must be non-negative")
            if not np.isfinite(self.g) or self.g < GAIN_FLOOR:
                raise GainDomain(f"gain {self.g!r} below domain floor {GAIN_FLOOR!r}")
            object.__setattr__(self, "p", int(self.p))
            return
        g = np.array(self.g, dtype=float)
        if g.ndim != 1 or g.size == 0:
            raise ValueError("a batch of gains must be a non-empty 1-D array")
        p = np.asarray(self.p)
        if p.dtype.kind not in "iu" or p.shape not in ((), g.shape):
            raise ValueError(f"threshold p must be an integer or {g.size} integers")
        p = np.broadcast_to(p, g.shape).astype(np.int64)
        if (i := _first(p < 0)) is not None:
            raise ValueError(f"threshold p must be non-negative, got {p[i]} (point {i})")
        if (i := _first(~(np.isfinite(g) & (g >= GAIN_FLOOR)))) is not None:
            raise GainDomain(f"gain {float(g[i])!r} below domain floor {GAIN_FLOOR!r} (point {i})")
        for name, arr in (("g", g), ("p", p)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def _require_batch(self) -> None:
        if np.ndim(self.g) == 0:
            raise TypeError("one operating point is not a sequence of points")

    def __bool__(self) -> bool:
        """Always true: one point has no length, and a batch is never empty."""
        return True

    def __len__(self) -> int:
        self._require_batch()
        return self.g.size

    def __iter__(self):
        self._require_batch()
        return map(NlaParams, self.g.tolist(), self.p.tolist())

    def __getitem__(self, index) -> "NlaParams":
        self._require_batch()
        g, p = self.g[index], self.p[index]
        return NlaParams(float(g), int(p)) if np.ndim(g) == 0 else NlaParams(g, p)


def _first(bad: np.ndarray) -> int | None:
    """The first index where ``bad`` holds, or None."""
    return int(np.argmax(bad)) if bad.any() else None


Points = NlaParams | Sequence[NlaParams]


def _is_point(params: Points) -> bool:
    """Whether ``params`` is one operating point, not a batch or a sequence."""
    return isinstance(params, NlaParams) and np.ndim(params.g) == 0


def _one_point(params: Points) -> NlaParams:
    """``params`` if it is one operating point; a batch or a sequence raises ``ValueError``."""
    if not _is_point(params):
        raise ValueError("this function takes one operating point, not a batch or a sequence")
    return params


def _point_columns(params: Points) -> tuple[np.ndarray, np.ndarray]:
    """Gain and threshold columns ``(G, 1)`` of one point, a batch or a sequence of points."""
    if isinstance(params, NlaParams):
        g, p = np.atleast_1d(params.g).astype(float, copy=False), np.atleast_1d(params.p)
        return g[:, np.newaxis], p[:, np.newaxis]
    batch = list(params)
    if not batch:
        raise ValueError("need at least one operating point")
    g, p = np.array([pt.g for pt in batch], dtype=float), np.array([pt.p for pt in batch])
    if g.ndim != 1:
        raise ValueError("a sequence of operating points takes single points, not batches")
    return g[:, np.newaxis], p[:, np.newaxis]


def _image_levels(dim: int, p) -> int:
    """``min(dim, max p + 2)``: the levels that carry every Kraus image.

    ``p`` is a threshold or an array of them.  Every level above a point's
    threshold has ``E_s = 1``, ``E_f = 0`` and zero slopes, so the levels
    ``n <= max p`` and one above them hold every distinct Kraus entry.
    """
    return min(dim, int(np.asarray(p).max()) + 2)


def _kraus_pair(g, p, levels: int) -> np.ndarray:
    """Both branches' Kraus rows and gain slopes on levels 0..levels-1.

    ``g`` and ``p`` are scalars or ``(G, 1)`` columns (one point per row,
    see :func:`_point_columns`), whose thresholds may differ.  The result
    has shape ``(..., 2, 2, levels)``: the branch in :data:`BRANCHES` order,
    then the row and its slope.  Unchecked: ``levels`` and the gain domain
    are the caller's to validate.

    With ``k = min(n - p, 0)``, the rows are ``E_s = g^k`` and
    ``E_f = sqrt(1 - g^(2k))`` and the slopes ``dE_s = k g^(k-1)`` and
    ``dE_f = -k g^(2k-1) / E_f``, taken where ``k < 0``: at ``k = 0`` the
    failure entry is 0 at every gain and the quotient's 0/0 is removable,
    so the slope is 0.  The powers of ``g`` are taken on the first
    :func:`_image_levels` levels only, where the clamped ``k`` keeps them
    from overflowing; the levels above hold the exact constants ``E_s = 1``
    and ``E_f = dE_s = dE_f = 0``.  The four powers come from one
    ``np.power`` over the stacked exponents, so every call shape rounds
    them alike.
    """
    top = _image_levels(levels, p)
    k = np.minimum(np.arange(top, dtype=float) - p, 0.0)
    exponents = np.stack((k, 2.0 * k, k - 1.0, 2.0 * k - 1.0), axis=-2)
    es, square, des, ratio = np.moveaxis(np.power(np.expand_dims(g, -1), exponents), -2, 0)
    out = np.zeros(es.shape[:-1] + (2, 2, levels))
    out[..., 0, 0, top:] = 1.0
    out[..., 0, 0, :top] = es
    np.multiply(k, des, out=out[..., 0, 1, :top])
    ef = out[..., 1, 0, :top]
    np.sqrt(np.maximum(1.0 - square, 0.0), out=ef)
    np.divide(-k * ratio, ef, out=out[..., 1, 1, :top], where=k < 0.0)
    return out


def _kraus_at(params: Points, dim: int) -> np.ndarray:
    """:func:`_kraus_pair` on levels 0..dim-1 at one point, or a stack for a batch or a sequence."""
    if dim < 1:
        raise ValueError("dim must be positive")
    if _is_point(params):
        return _kraus_pair(params.g, params.p, dim)
    return _kraus_pair(*_point_columns(params), dim)


def kraus_diagonal(params: Points, branch: str, dim: int) -> np.ndarray:
    """Diagonal entries of the branch Kraus operator on levels 0..dim-1.

    One operating point gives a row of length ``dim``; a sequence of ``G``
    points, thresholds mixed, gives a ``G x dim`` stack of the same rows.
    """
    i = BRANCHES.index(_check_branch(branch))
    return _kraus_at(params, dim)[..., i, 0, :]


def kraus_diagonal_derivative(params: Points, branch: str, dim: int) -> np.ndarray:
    """Exact gain derivative of :func:`kraus_diagonal`, for one point or a sequence.

    The failure entry at ``n == p`` is identically zero for all gains, so its
    derivative is zero (the 0/0 in the naive quotient is removable).
    """
    i = BRANCHES.index(_check_branch(branch))
    return _kraus_at(params, dim)[..., i, 1, :]


def _per_point(params: Points, values: np.ndarray) -> float | np.ndarray:
    """A float for one operating point, the array of per-point values for a batch or a sequence.

    The value of one point may be a scalar or the one entry of a stack of one.
    """
    return float(np.ravel(values)[0]) if _is_point(params) else values


def completeness_defect(params: Points, dim: int) -> float | np.ndarray:
    """max_n |E_s(n)^2 + E_f(n)^2 - 1|; zero for a trace-preserving pair.

    A float for one operating point, one value per point for a batch or a sequence.
    """
    es, ef = np.moveaxis(_kraus_at(params, dim)[..., 0, :], -2, 0)
    return _per_point(params, np.max(np.abs(es * es + ef * ef - 1.0), axis=-1))


def branch_probability(probe: FockVector, params: Points, branch: str) -> float | np.ndarray:
    """Probability of the branch firing on the given normalized probe.

    A float for one operating point, one probability per point for a batch or a
    sequence.
    """
    probe.require_normalized()
    e = kraus_diagonal(params, branch, probe.dim)
    return _per_point(params, np.sum(e * e * probe.weights(), axis=-1))


def branch_probability_derivative(
    probe: FockVector, params: Points, branch: str
) -> float | np.ndarray:
    """Exact gain derivative ``2 sum_n E_n dE_n |c_n|^2`` of the branch probability.

    Each branch is differentiated through its own Kraus derivative, so the
    two branch derivatives sum to zero only when the Kraus pair does.  A
    float for one operating point, one derivative per point for a batch or a
    sequence.
    """
    probe.require_normalized()
    i = BRANCHES.index(_check_branch(branch))
    e, de = np.moveaxis(_kraus_at(params, probe.dim)[..., i, :, :], -2, 0)
    return _per_point(params, 2.0 * np.sum(e * de * probe.weights(), axis=-1))


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


def _branch_rows(probe: FockVector, g, p, branch: str):
    """Kraus rows, their slopes, the branch probabilities and their gain slopes.

    ``g`` and ``p`` are the ``(G, 1)`` columns of :func:`_point_columns`.
    The rows are ``G x dim`` stacks, one per point; the probabilities
    ``sum_n |E_n c_n|^2`` and their slopes ``2 sum_n E_n dE_n |c_n|^2`` run
    over the whole probe and have length ``G``.  An impossible branch at any
    point raises :class:`BranchImpossible` naming that point.
    """
    i = BRANCHES.index(_check_branch(branch))
    probe.require_normalized()
    e, de = np.moveaxis(_kraus_pair(g, p, probe.dim)[:, i], -2, 0)
    prob = np.sum(np.abs(e * probe.amps) ** 2, axis=1)
    if np.any(prob < PROBABILITY_FLOOR):
        raise _impossible(branch, g, p, prob)
    return e, de, prob, 2.0 * np.sum(e * de * probe.weights(), axis=1)


def _conditional_rows(probe: FockVector, params: Points, branch: str):
    """Normalized conditional amplitudes, their gain slopes and the branch probabilities.

    ``params`` is one operating point, a batch or a sequence of them, whose
    thresholds may differ.  Amplitudes and slopes are ``G x dim`` stacks, one row per
    point; the probabilities have length ``G``.  The slopes follow the product
    rule on ``a_n = E_n c_n / sqrt(prob)``:
    ``da_n = dE_n c_n / sqrt(prob) - a_n dprob / (2 prob)``.  An impossible
    branch at any point raises :class:`BranchImpossible` naming that point.
    """
    e, de, prob, dprob = _branch_rows(probe, *_point_columns(params), branch)
    root = np.sqrt(prob)[:, np.newaxis]
    amps = e * probe.amps / root
    return amps, de * probe.amps / root - amps * (dprob / (2.0 * prob))[:, np.newaxis], prob


def _conditional_factors(probe: FockVector, params: Points, branch: str):
    """The real factors ``a_n``, ``da_n`` of the conditional amplitudes ``a_n c_n``.

    ``a_n = E_n / sqrt(prob)`` and ``da_n = dE_n / sqrt(prob) - a_n dprob /
    (2 prob)``, with the probability and its slope over the whole probe
    (:func:`_branch_rows`).  The rows stop after level ``max p + 1``, at
    the :func:`_image_levels` ``min(dim, max p + 2)``: every level above a
    point's threshold has ``E_s = 1`` and ``E_f = dE = 0``, so the last
    column is the factor of every higher level too.
    """
    g, p = _point_columns(params)
    e, de, prob, dprob = _branch_rows(probe, g, p, branch)
    levels = _image_levels(probe.dim, p)
    root = np.sqrt(prob)[:, np.newaxis]
    a = e[:, :levels] / root
    return a, de[:, :levels] / root - a * (dprob / (2.0 * prob))[:, np.newaxis]


def conditional_state(probe: FockVector, params: NlaParams, branch: str) -> ConditionalState:
    """Normalized post-selected state at one point (a batch raises): a view of
    :func:`_conditional_rows`."""
    amps, _, prob = _conditional_rows(probe, _one_point(params), branch)
    return ConditionalState(FockVector(amps[0]), float(prob[0]), branch)


def conditional_state_derivative(probe: FockVector, params: NlaParams, branch: str) -> np.ndarray:
    """Gain derivative of the conditional amplitudes at one point (a batch raises;
    :func:`_conditional_rows`)."""
    return _conditional_rows(probe, _one_point(params), branch)[1][0]


def _check_meters(alpha, beta) -> None:
    """Raise :class:`MeterNotNormalized` at the first meter off the unit sphere.

    A meter passes when ``| |alpha|^2 + |beta|^2 - 1 | <= 1e-10``; a NaN
    norm fails.  ``alpha`` and ``beta`` are complex scalars or arrays of one
    shape.
    """
    nrm = np.ravel(np.abs(alpha) ** 2 + np.abs(beta) ** 2)
    bad = ~(np.abs(nrm - 1.0) <= 1e-10)
    if bad.any():
        i = int(np.argmax(bad))
        index = tuple(int(k) for k in np.unravel_index(i, np.shape(alpha)))
        where = f" (meter {index})" if index else ""
        raise MeterNotNormalized(f"|alpha|^2 + |beta|^2 = {nrm[i]:.12g}{where}")


def _imbalance(alpha, beta):
    """``Im(alpha conj(beta))`` in real arithmetic.

    A vectorised complex product may fuse its multiply-adds, so its bits
    depend on the array path taken; written out, a meter's imbalance is the
    same whether it is evaluated alone or in a batch.
    """
    return alpha.imag * beta.real - alpha.real * beta.imag


@dataclasses.dataclass(frozen=True)
class MeterState:
    """Qubit meter prepared as ``alpha |success> + beta |failure>``."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        _check_meters(self.alpha, self.beta)

    @classmethod
    def trivial(cls) -> "MeterState":
        """Meter that simply records the branch (alpha = 0, beta = 1)."""
        return cls(0.0, 1.0)

    def branch_imbalance(self) -> float:
        """Im(alpha conj(beta)); zero exactly when the meter costs nothing."""
        return _imbalance(self.alpha, self.beta)


@dataclasses.dataclass(frozen=True)
class MeterBatch:
    """An array of qubit meters ``alpha |success> + beta |failure>``.

    ``alpha`` and ``beta`` are complex arrays of one shape, one entry per
    meter, so a stack of meters costs no Python object per meter.  Every
    meter gets :class:`MeterState`'s normalization check: one meter off the
    unit sphere raises :class:`MeterNotNormalized` naming its index.
    """

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        alpha = np.array(self.alpha, dtype=np.complex128)
        beta = np.array(self.beta, dtype=np.complex128)
        if alpha.shape != beta.shape:
            raise ValueError(f"alpha {alpha.shape} and beta {beta.shape} differ in shape")
        _check_meters(alpha, beta)
        for name, arr in (("alpha", alpha), ("beta", beta)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def branch_imbalance(self) -> np.ndarray:
        """Im(alpha conj(beta)) of every meter, in the batch's shape."""
        return _imbalance(self.alpha, self.beta)
