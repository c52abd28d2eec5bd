"""Brute-force cross-checks for every analytic information quantity.

The oracles never call the closed forms they validate: quantum Fisher
informations come from fidelity finite differences, classical Fisher
informations from numeric derivatives of the outcome distributions
themselves.  Each pinned number shipped in the test fixtures carries a
report row from this module; rebuild the fixture with

    python -m nlametro.golden --out tests/data/golden.json

Finite-difference hygiene.  A gain difference cancels about five digits (a
central difference at dg=1e-5) or eleven (a fidelity deficit near 1e-11), so
if the states at ``g +/- dg/2`` were built in double precision, their 1e-16
rounding would reach the oracle value amplified some 1e5 times, and the
value would depend on how the probe and the Kraus powers happen to round.
Every oracle behind a fixture row therefore takes its difference on the
Kraus images ``E_s c`` and ``E_f c`` in double-double arithmetic, about 32
digits, starting from the exact input doubles: the probe amplitudes, the
gains ``g +/- dg/2`` and the meter amplitudes.  Only the levels ``n <= p``
depend on the gain, so that work is a handful of numbers per image.

Double-double numbers are built from error-free transformations that need
only the correctly rounded IEEE-754 ``+ - * /`` and ``sqrt``: Knuth's
TwoSum (TAOCP vol. 2, 4.2.2), Dekker's TwoProduct (Numer. Math. 18, 224,
1971), and the division and square root of Hida, Li & Bailey (ARITH-15,
2001).  Their unit roundoff is ``DD_UNIT = 2^-104``, and a deficit that
contracts sums over at most ``p+2`` levels carries an absolute error of
O(p) units, so the fixture regenerates to 1e-12 on any IEEE-754 platform.
The same bound fixes :data:`IMAGE_ZERO_DEFICIT`, under which a deficit is
the rounding of a gain-independent family and reads exactly 0: it is
1e-28, eleven orders below the smallest real deficit on the selfcheck grid
(about 4e-17).

:class:`KrausImageFD` is the one place where the Kraus pair ``E(g -/+
dg/2)`` is built; every oracle is one of its views.  Pure-state rows use
the exact deficit ``1 - |<u|v>|`` of the normalized images
(:meth:`~KrausImageFD.pure`); the mixed row uses Uhlmann's theorem
``sqrt F(AA^+, BB^+) = ||A^+ B||_*`` on the ``dim x 2`` image matrices
(:meth:`~KrausImageFD.bures`); the mass and probability slopes, the meter
coupling term and :func:`joint_fi_direct` carry the image difference
through cancellation-free identities.

The selfcheck grid scores all five of its oracle rows on the same images:
one :class:`KrausImageFD` builds the image Gram matrices of all 280
operating points at ``g -/+ dg/2`` once (``dg = 1e-4``) and contracts them
per family -- the success and failure states, the joint state for the
trivial and a generic meter, and the Bures deficit of the unconditional
output.  No step is refused, so every point is scored; no view calls the
closed forms of :mod:`~nlametro.fisher`, nor the Kraus kernel
:func:`~nlametro.instrument._kraus_pair`, which a test makes raise in every
namespace while the views score the grid.  The double-precision finite
differences of whole state vectors that the tests compare these oracles
against live in ``tests/dense.py``, outside the package.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections.abc import Sequence

import numpy as np

from .fisher import (
    meter_coupling_term,
    qfi_branch,
    qfi_effective,
    qfi_effective_closed_form,
    qfi_joint_meter,
    qfi_unconditional,
)
from .fock import FockVector
from .instrument import (
    BRANCHES,
    BranchImpossible,
    FAILURE,
    MeterBatch,
    MeterState,
    NlaParams,
    PROBABILITY_FLOOR,
    SUCCESS,
    _is_point,
    _one_point,
    _point_columns,
    branch_probability,
    branch_probability_derivative,
)
from .measurements import (
    HOMODYNE,
    MASS_FLOOR,
    PHOTON_COUNTING,
    _grid_and_wavefunctions,
    homodyne_density,
    homodyne_distribution,
    photon_counting_dist,
)
from .probes import HARD_DIM_CAP, ProbeSpec, custom_probe, solve_amplitude_for_nbar

STEP_MIN = 1e-6
STEP_MAX = 1e-3
DEFAULT_QFI_STEP = 1e-4
PROB_STEP = 1e-5

# One probe for every operating point, or a sequence of one per point.
Probes = FockVector | Sequence[FockVector]

GOLDEN_SCHEMA_VERSION = 1


@dataclasses.dataclass(frozen=True)
class OracleReport:
    """One analytic-vs-oracle comparison, as shipped in the golden fixture."""

    quantity: str
    analytic: float
    oracle: float
    rel_error: float
    step: float
    tol: float
    scale_floor: float = 0.0
    note: str = ""

    @classmethod
    def build(
        cls,
        quantity: str,
        analytic: float,
        oracle: float,
        step: float,
        tol: float,
        scale_floor: float = 0.0,
        note: str = "",
    ) -> "OracleReport":
        """Compare against the error scale max(|analytic|, |oracle|, scale_floor).

        A zero floor gives a plain relative error.  Hand-derived operating
        points whose tolerance is stated absolutely use ``scale_floor=1`` so
        that a physically-zero quantity returning 1e-33 instead of a literal
        0.0 is not scored as a 100% discrepancy.  The floor is recorded in
        the report, never applied silently.
        """
        scale = max(abs(analytic), abs(oracle), scale_floor)
        rel = abs(analytic - oracle) / scale if scale > 0.0 else 0.0
        return cls(
            quantity=quantity,
            analytic=float(analytic),
            oracle=float(oracle),
            rel_error=float(rel),
            step=float(step),
            tol=float(tol),
            scale_floor=float(scale_floor),
            note=note,
        )

    def passes(self) -> bool:
        return self.rel_error <= self.tol

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _validate_step(dg: float) -> None:
    if not (STEP_MIN <= dg <= STEP_MAX):
        raise ValueError(
            f"step {dg:g} outside [{STEP_MIN:g}, {STEP_MAX:g}]: larger steps "
            "lose the O(dg^2) truncation bound, smaller ones drown in roundoff"
        )


# ---------------------------------------------------------------------------
# Double-double arithmetic
# ---------------------------------------------------------------------------
#
# A double-double number is the unevaluated sum hi + lo of two doubles with
# |lo| <= ulp(hi)/2, about 32 significant digits.  Its operations are built
# from error-free transformations that need only the correctly rounded
# IEEE-754 + - * / and sqrt: Knuth's TwoSum (TAOCP vol. 2, 4.2.2), Dekker's
# TwoProduct with Veltkamp's split (Numer. Math. 18, 224, 1971), and the
# division and square root of Hida, Li & Bailey (ARITH-15, 2001).  numpy
# never fuses a*b + c, so these give the same bits on every IEEE-754 platform.

DD_UNIT = 2.0 ** -104
_SPLITTER = 2.0 ** 27 + 1.0


def _two_sum(a, b):
    """``s = fl(a + b)`` and the rounding error ``e``: ``s + e == a + b`` exactly."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _fast_two_sum(a, b):
    """:func:`_two_sum` for ``|a| >= |b|``, in three operations."""
    s = a + b
    return s, b - (s - a)


def _two_prod(a, b):
    """``p = fl(a * b)`` and the rounding error ``e``: ``p + e == a * b`` exactly."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _split(a):
    """Veltkamp's split of ``a`` into two halves of 26 significant bits."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


class _DD:
    """An array of double-double numbers, broadcast like numpy arrays.

    Every operation has a relative error of a few :data:`DD_UNIT`.  The value
    rounded to a double is ``hi``.
    """

    __slots__ = ("hi", "lo")

    def __init__(self, hi, lo=None):
        self.hi = np.asarray(hi, dtype=float)
        self.lo = np.zeros(self.hi.shape) if lo is None else np.asarray(lo, dtype=float)

    @staticmethod
    def of(x) -> "_DD":
        return x if isinstance(x, _DD) else _DD(x)

    @staticmethod
    def exact_product(a, b) -> "_DD":
        """The product of two double arrays, without rounding."""
        return _DD(*_two_prod(np.asarray(a, dtype=float), np.asarray(b, dtype=float)))

    @staticmethod
    def where(keep, x: "_DD", y: "_DD") -> "_DD":
        x, y = _DD.of(x), _DD.of(y)
        return _DD(np.where(keep, x.hi, y.hi), np.where(keep, x.lo, y.lo))

    @staticmethod
    def stack(items, axis: int) -> "_DD":
        items = [_DD.of(x) for x in items]
        return _DD(np.stack([x.hi for x in items], axis), np.stack([x.lo for x in items], axis))

    def __getitem__(self, key) -> "_DD":
        return _DD(self.hi[key], self.lo[key])

    def __neg__(self) -> "_DD":
        return _DD(-self.hi, -self.lo)

    def __abs__(self) -> "_DD":
        return _DD.where(self.hi < 0.0, -self, self)

    def __add__(self, other) -> "_DD":
        other = _DD.of(other)
        s, e = _two_sum(self.hi, other.hi)
        t, f = _two_sum(self.lo, other.lo)
        s, e = _fast_two_sum(s, e + t)
        return _DD(*_fast_two_sum(s, e + f))

    __radd__ = __add__

    def __sub__(self, other) -> "_DD":
        return self + -_DD.of(other)

    def __rsub__(self, other) -> "_DD":
        return _DD.of(other) - self

    def __mul__(self, other) -> "_DD":
        other = _DD.of(other)
        p, e = _two_prod(self.hi, other.hi)
        return _DD(*_fast_two_sum(p, e + (self.hi * other.lo + self.lo * other.hi)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "_DD":
        """Hida, Li & Bailey's division: three quotient digits of double precision."""
        other = _DD.of(other)
        q1 = self.hi / other.hi
        r = self - other * q1
        q2 = r.hi / other.hi
        r = r - other * q2
        return _DD(*_fast_two_sum(q1, q2)) + r.hi / other.hi

    def __rtruediv__(self, other) -> "_DD":
        return _DD.of(other) / self

    def sqrt(self) -> "_DD":
        """One Newton correction of the double root (Hida, Li & Bailey); sqrt(0) is 0."""
        s = np.sqrt(self.hi)
        residual = (self - _DD.exact_product(s, s)).hi
        step = np.divide(residual, 2.0 * s, out=np.zeros(s.shape), where=s > 0.0)
        return _DD(*_fast_two_sum(s, step))

    def sum(self) -> "_DD":
        """Pairwise sum over the last axis.

        The axis is padded with zeros to a power of two, and adding an exact
        zero changes no bit, so a sum does not depend on how far its axis
        was padded: a point's sums are the same in a batch as alone.
        """
        size = self.hi.shape[-1]
        width = 1 << (size - 1).bit_length()
        shape = self.hi.shape[:-1] + (width,)
        total = _DD(np.zeros(shape), np.zeros(shape))
        total.hi[..., :size], total.lo[..., :size] = self.hi, self.lo
        while width > 1:
            width //= 2
            total = total[..., :width] + total[..., width:]
        return total[..., 0]


# ---------------------------------------------------------------------------
# Kraus-image differences in double-double
# ---------------------------------------------------------------------------
#
# The images are a_s = E_s c and a_f = E_f c.  Both Kraus operators are real
# and diagonal, and above the threshold a_s = c and a_f = 0 for every gain,
# so a gain difference only ever involves the levels n <= p.

# Deficits below this bound are rounding of an exact zero (a gain-independent
# family), not a resolvable signal.  A deficit contracts Gram sums of at most
# HARD_DIM_CAP nonnegative terms, each a product of three double-double
# factors, and each operation errs by a few DD_UNIT relative; so the deficit
# of a family that does not move errs by less than 4 (levels + 8) DD_UNIT,
# 1.0e-28 at the truncation cap (the selfcheck grid's exact zeros measure at
# most 2.4e-32).  The smallest real deficit on that grid, about
# 3e-8 * dg^2 / 8 = 4e-17 at dg=1e-4, lies eleven orders above the bound.
IMAGE_ZERO_DEFICIT = 4 * (HARD_DIM_CAP + 8) * DD_UNIT


def _probe_weights(probe: Probes, p: np.ndarray) -> tuple[_DD, _DD]:
    """Per point, ``|c_n|^2`` on its levels ``n <= p`` and the probe mass above them.

    ``probe`` is one probe for every point or a sequence of one per point.
    The weights are the squares of the amplitude doubles in double-double,
    on ``H`` columns (the largest head of the batch), zero above each
    point's own head.  The tail mass is a pairwise sum of its own terms,
    never one minus the head, taken once per distinct probe and head.
    """
    probes = [probe] * p.size if isinstance(probe, FockVector) else list(probe)
    if len(probes) != p.size:
        raise ValueError(f"{len(probes)} probes for {p.size} points")
    distinct = {id(x): x for x in probes}
    dims = np.array([x.require_normalized().dim for x in distinct.values()])
    amps = np.zeros((dims.size, dims.max()), dtype=np.complex128)
    for row, x in zip(amps, distinct.values()):
        row[: x.dim] = x.amps
    rows = {key: i for i, key in enumerate(distinct)}
    which = np.array([rows[id(x)] for x in probes])
    w = _DD.exact_product(amps.real, amps.real) + _DD.exact_product(amps.imag, amps.imag)
    head = np.minimum(p + 1, dims[which])
    levels = np.arange(dims.max())
    # a grid has far fewer (probe, head) pairs than points
    pairs, pair_of_point = np.unique(which * (dims.max() + 1) + head, return_inverse=True)
    pair_probe, pair_head = np.divmod(pairs, dims.max() + 1)
    tails = _DD.where(levels >= pair_head[:, np.newaxis], w[pair_probe], 0.0).sum()
    top = int(head.max())
    heads = _DD.where(levels[:top] < head[:, np.newaxis], w[which, :top], 0.0)
    return heads, tails[pair_of_point]


def _gain_pair(g: np.ndarray, dg: float) -> tuple[_DD, _DD]:
    """The exact gains ``g -/+ dg/2`` of the input doubles."""
    half = 0.5 * dg
    if np.any(g - half <= 1.0):
        raise ValueError(f"step {dg:g} reaches unit gain: need g - dg/2 > 1")
    return _DD(*_two_sum(g, -half)), _DD(*_two_sum(g, half))


def _kraus_entries(gain: _DD, p: np.ndarray, levels: int) -> _DD:
    """Success and failure entries, shape ``(B, 2, levels)``, at the gains ``gain``.

    ``E_s = g^(n-p)`` is the ``(p-n)``-th power of ``1/g`` and
    ``E_f = sqrt(1 - E_s^2)``; the levels above ``p`` carry 1 and 0.
    """
    inv, powers = 1.0 / gain, [_DD(np.ones(gain.hi.shape))]
    for _ in range(int(p.max())):
        powers.append(powers[-1] * inv)
    table = _DD.stack(powers, 1)
    index = np.maximum(p[:, np.newaxis] - np.arange(levels), 0)
    es = _DD(np.take_along_axis(table.hi, index, 1), np.take_along_axis(table.lo, index, 1))
    return _DD.stack((es, (1.0 - es * es).sqrt()), 1)


def _stepped_kraus_entries(
    g: np.ndarray, p: np.ndarray, dg: float, levels: int
) -> tuple[_DD, _DD]:
    """:func:`_kraus_entries` at the gains ``g -/+ dg/2``."""
    return tuple(_kraus_entries(gain, p, levels) for gain in _gain_pair(g, dg))


def _image_gram(x: _DD, y: _DD, weights: _DD, tail: _DD) -> _DD:
    """Gram matrices ``<a_i(g1)|a_j(g2)>``, shape ``(B, 2, 2)``, of the images at two gains.

    ``x`` and ``y`` are the Kraus entries at ``g1`` and ``g2``, ``weights``
    the ``|c_n|^2`` of the levels n <= p and ``tail`` the probe mass above
    p, which only the success images carry.
    """
    terms = x[:, :, np.newaxis, :] * weights[:, np.newaxis, np.newaxis, :] * y[:, np.newaxis]
    return terms.sum() + tail[:, np.newaxis, np.newaxis] * _SUCCESS_CORNER


_SUCCESS_CORNER = np.array([[1.0, 0.0], [0.0, 0.0]])


def _first_impossible(low: np.ndarray, what: str) -> BranchImpossible:
    return BranchImpossible(f"{what} has zero norm for this probe (point {int(np.argmax(low))})")


class KrausImageFD:
    """Finite differences of the Kraus images at a stack of operating points.

    The images ``a_s = E_s c`` and ``a_f = E_f c`` are built once, in
    double-double from the input doubles, at the exact gains ``g -/+ dg/2``
    of every operating point of ``params``: one point, or a batch whose
    thresholds may differ, with one probe for all or one probe per point.
    Every oracle is a view of that one Kraus pair.  :meth:`pure` and
    :meth:`bures` are fidelity differences: they contract three Gram
    matrices, ``<a_i(g-)|a_j(g+)>``, ``<a_i(g-)|a_j(g-)>`` and
    ``<a_i(g+)|a_j(g+)>``, which are real, since the Kraus entries and the
    weights are, and are built on the first such call.  :meth:`mass_slopes`,
    :meth:`probability_slope` and :meth:`coupling` are central differences
    of the Kraus entries themselves.  A single point gives floats, a batch
    one array per view.  Every operation acts on each point
    alone, so a point's values depend neither on the rest of the batch nor
    on which other views were asked for.
    """

    def __init__(self, probe: Probes, params: NlaParams, dg: float = DEFAULT_QFI_STEP):
        _validate_step(dg)
        self.dg = dg
        self._single = _is_point(params)
        self.g, self.p = (column[:, 0] for column in _point_columns(params))
        self._weights, self._tail = _probe_weights(probe, self.p)
        self._pair = _stepped_kraus_entries(self.g, self.p, dg, self._weights.hi.shape[-1])
        self._per_deficit = 8.0 / _DD.exact_product(dg, dg)

    @functools.cached_property
    def _grams(self) -> tuple[_DD, _DD, _DD]:
        """The cross, ``g-`` and ``g+`` Gram matrices, shape ``(B, 2, 2)`` each."""
        lo, hi = self._pair
        return tuple(
            _image_gram(x, y, self._weights, self._tail) for x, y in ((lo, hi), (lo, lo), (hi, hi))
        )

    def _rounded(self, value: _DD):
        """One double per point: a float for a single point, else an array."""
        return float(value.hi[0]) if self._single else value.hi

    def _information(self, deficit: _DD):
        """``8 deficit / dg^2`` rounded to double; deficits under
        :data:`IMAGE_ZERO_DEFICIT` are zeros."""
        return self._rounded(
            _DD.where(deficit.hi >= IMAGE_ZERO_DEFICIT, deficit * self._per_deficit, 0.0)
        )

    def _meter_metric(self, view) -> tuple[_DD, _DD]:
        """``(m, y)`` of the meter metric ``[[m, i y], [-i y, m]]`` of the joint state.

        The joint state of the unitary dilation, which the test reference
        ``joint_state`` (``tests/dense.py``) builds explicitly, for a meter
        ``alpha|s> + beta|f>`` is
        ``a_s (x) (beta|s> - alpha|f>) + a_f (x) (alpha|s> + beta|f>)``, so
        ``m = |alpha|^2 + |beta|^2`` and ``y = 2 Im(alpha conj(beta))``.
        ``view`` is one :class:`MeterState` or a 1-D :class:`MeterBatch` of
        one meter for all points or one per point; anything else raises
        ``TypeError``.
        """
        if not isinstance(view, (MeterState, MeterBatch)):
            raise TypeError(
                f"view must be a branch, a MeterState or a MeterBatch, not {type(view).__name__}"
            )
        a, b = np.atleast_1d(view.alpha), np.atleast_1d(view.beta)
        if a.ndim != 1 or a.size not in (1, self.g.size):
            raise ValueError(f"meters of shape {np.shape(view.alpha)} for {self.g.size} points")
        square = _DD.exact_product
        norm = (square(a.real, a.real) + square(a.imag, a.imag)) + (
            square(b.real, b.real) + square(b.imag, b.imag)
        )
        return norm, 2.0 * (square(a.imag, b.real) - square(a.real, b.imag))

    def pure(self, view):
        """Pure-state fidelity FD ``8 (1 - |<u(g-)|u(g+)>|) / dg^2`` of one view.

        ``view`` is ``SUCCESS`` or ``FAILURE`` for the normalized conditional
        state, which keeps one image, unnormalized; or a :class:`MeterState`
        (or a :class:`MeterBatch` of one per point) for the joint
        signal-meter state.  The deficit of the normalized states is taken
        exactly, without a small-angle expansion, so no step is ever
        refused.
        """
        if isinstance(view, str):
            if view not in BRANCHES:
                raise ValueError(
                    f"view must be a branch, a MeterState or a MeterBatch, got {view!r}"
                )
            i = BRANCHES.index(view)
            cross, n_lo, n_hi = (gram[:, i, i] for gram in self._grams)
            overlap = cross * cross
        else:
            norm, y = self._meter_metric(view)
            cross, n_lo, n_hi = (norm * (gram[:, 0, 0] + gram[:, 1, 1]) for gram in self._grams)
            im = y * (self._grams[0][:, 0, 1] - self._grams[0][:, 1, 0])
            overlap = cross * cross + im * im
        low = np.minimum(n_lo.hi, n_hi.hi) < PROBABILITY_FLOOR
        if low.any():
            raise _first_impossible(low, f"{view} family")
        deficit = 1.0 - (overlap / (n_lo * n_hi)).sqrt()
        return self._information(deficit)

    def bures(self, branches: tuple[str, ...] = BRANCHES):
        """Bures fidelity FD ``8 (1 - sqrt F) / dg^2`` of ``A A^+``.

        ``A`` holds the images of ``branches`` and zeroes for the others, so
        the default is the unconditional output and ``(SUCCESS,)`` the
        rank-1 pair ``(E_s c, 0)``.  By Uhlmann's theorem
        ``sqrt F(AA^+, BB^+) = ||A^+ B||_*`` for the ``dim x 2`` image
        matrices; the 2x2 nuclear norm is ``sqrt(||M||_F^2 + 2 |det M|)``,
        so no double-precision eigensolver and no noise floor enter.
        """
        if not branches or any(b not in BRANCHES for b in branches):
            raise ValueError(f"branches must be a non-empty subset of {BRANCHES}")
        mask = np.array([b in branches for b in BRANCHES], dtype=float)
        mask = np.outer(mask, mask)
        cross, g_lo, g_hi = (gram * mask for gram in self._grams)
        frob = (cross * cross).sum().sum()
        det = cross[:, 0, 0] * cross[:, 1, 1] - cross[:, 0, 1] * cross[:, 1, 0]
        trace = (g_lo[:, 0, 0] + g_lo[:, 1, 1]) * (g_hi[:, 0, 0] + g_hi[:, 1, 1])
        low = trace.hi < PROBABILITY_FLOOR
        if low.any():
            raise _first_impossible(low, "image pair")
        deficit = 1.0 - ((frob + 2.0 * abs(det)) / trace).sqrt()
        return self._information(deficit)

    def _slopes(self) -> _DD:
        lo, hi = self._pair
        return (hi - lo) * (hi + lo) * self._weights[:, np.newaxis] / self.dg

    def mass_slopes(self) -> np.ndarray:
        """Joint photon-mass slopes ``(|A_n(g+)|^2 - |A_n(g-)|^2) / dg``.

        Shape ``(B, 2, levels)`` for ``B`` points, branches in
        :data:`BRANCHES` order, on the levels up to the largest ``p`` of the
        batch.  The image difference is carried as
        ``(E(g+) - E(g-)) (E(g+) + E(g-)) |c_n|^2`` and rounded once; the
        levels above a point's ``p`` do not depend on the gain and read 0.
        """
        return self._slopes().hi

    def probability_slope(self, branch: str):
        """Central-difference derivative of the branch probability: the sum
        of the branch's mass slopes, taken in double-double and rounded once."""
        if branch not in BRANCHES:
            raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")
        return self._rounded(self._slopes()[:, BRANCHES.index(branch)].sum())

    def coupling(self):
        """Cross term ``<E_s dE_f> - <E_f dE_s>`` with central-difference derivatives.

        The Kraus differences ``E(g+) - E(g-)`` and the entries ``E(g)`` at
        the midpoint are taken in double-double on the levels n <= p, where
        alone the derivatives are nonzero.
        """
        lo, hi = self._pair
        mid = _kraus_entries(_DD(self.g), self.p, self._weights.hi.shape[-1])
        slope = hi - lo
        cross = self._weights * (mid[:, 0] * slope[:, 1] - mid[:, 1] * slope[:, 0])
        return self._rounded(cross.sum() / self.dg)


# ---------------------------------------------------------------------------
# Direct joint-record Fisher information
# ---------------------------------------------------------------------------

def _joint_photon_masses(probe: FockVector, params: NlaParams) -> np.ndarray:
    """Concatenated joint masses p_branch * p(n | branch), failures last."""
    blocks = []
    for branch in (SUCCESS, FAILURE):
        try:
            prob = branch_probability(probe, params, branch)
            masses = photon_counting_dist(probe, params, branch).masses
            blocks.append(prob * masses)
        except BranchImpossible:
            blocks.append(np.zeros(probe.dim))
    return np.concatenate(blocks)


def joint_fi_direct(
    probe: FockVector, params: NlaParams, detector: str, dg: float = PROB_STEP
) -> float:
    """Fisher information of the joint (branch, outcome) record, brute force.

    Evaluates sum over branches and outcomes of ``(d m)^2 / m`` where
    ``m = p_branch * p(outcome | branch)`` -- the squared modulus of the
    Kraus image (photon counting) or of its field ``sum_n A_n <x|n>``
    (homodyne).  The gain derivative is a central difference of the images
    of one :class:`KrausImageFD`, carried through
    ``|A|^2 - |B|^2 = Re[(A - B) conj(A + B)]`` with the image difference
    taken in double-double and rounded once, so no analytic derivative
    enters and no cancellation reaches the slope.  The centre masses and
    densities come from the measurement module; the homodyne densities are
    its :func:`~nlametro.measurements.homodyne_distribution` on the window-0
    quadrature grid, whose wavefunction table the slope fields use too.
    The slope fields are full ``dim``-level sums formed in real arithmetic,
    ``Re[s conj(t)] = s_r t_r + s_i t_i``, and never the measurement
    module's Kraus-image basis, so the homodyne joint record stays an
    independent witness of the library's kernels.
    """
    if detector not in (PHOTON_COUNTING, HOMODYNE):
        raise ValueError(f"unknown detector {detector!r}")
    fd = KrausImageFD(probe, _one_point(params), dg)
    if detector == PHOTON_COUNTING:
        center = _joint_photon_masses(probe, params)
        slopes = fd.mass_slopes()[0]
        slope = np.zeros((len(BRANCHES), probe.dim))
        slope[:, : slopes.shape[1]] = slopes
        slope = slope.ravel()
        keep = center > MASS_FLOOR
        return float(np.sum(slope[keep] ** 2 / center[keep]))
    grid, psi = _grid_and_wavefunctions(probe.dim, 0)
    lo, hi = fd._pair
    head = lo.hi.shape[-1]
    parts = (probe.amps.real, probe.amps.imag) if probe.amps.imag.any() else (probe.amps.real,)

    total = 0.0
    for b, branch in enumerate(BRANCHES):
        try:
            prob = branch_probability(probe, params, branch)
            center = prob * homodyne_distribution(probe, params, branch).masses
        except BranchImpossible:
            continue
        diff, both = (hi - lo)[0, b] / dg, (hi + lo)[0, b]
        slope = np.zeros(grid.nodes.size)
        for c in parts:
            # Re[s conj(t)] = sr tr + si ti, one real field pair per part
            sum_amps = np.zeros(probe.dim)
            sum_amps[:head] = (both * c[:head]).hi
            if branch == SUCCESS:
                sum_amps[head:] = 2.0 * c[head:]
            slope += ((diff * c[:head]).hi @ psi[:head]) * (sum_amps @ psi)
        keep = center > MASS_FLOOR
        integrand = np.zeros(grid.nodes.size)
        integrand[keep] = slope[keep] ** 2 / center[keep]
        total += grid.integrate(integrand)
    return float(total)


# ---------------------------------------------------------------------------
# Golden fixture generation
# ---------------------------------------------------------------------------

def generate_golden_reports() -> list[OracleReport]:
    """Analytic-vs-oracle rows behind every number pinned in the test suite."""
    reports: list[OracleReport] = []
    add = reports.append

    vacuum, _ = custom_probe([1.0])
    two_level, _ = custom_probe([1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)])
    one_photon, _ = custom_probe([0.0, 1.0])
    coh1 = ProbeSpec.from_nbar("coherent", 1.0).build()
    sq1 = ProbeSpec.from_nbar("squeezed-vacuum", 1.0).build()
    g2p1 = NlaParams(g=2.0, p=1)
    g2p3 = NlaParams(g=2.0, p=3)
    g15p2 = NlaParams(g=1.5, p=2)

    # --- hand-derived operating points -------------------------------------
    vac = qfi_effective(vacuum, g2p1)
    add(OracleReport.build(
        "vacuum g=2 p=1: success probability",
        branch_probability(vacuum, g2p1, SUCCESS), 0.25, 0.0, 1e-9, scale_floor=1.0,
        note="hand value g^-2p",
    ))
    add(OracleReport.build(
        "vacuum g=2 p=1: herald information f_c",
        vac.f_c, 1.0 / 3.0, 0.0, 1e-9, note="hand value 4 g^-4 / (1 - g^-2)",
    ))
    add(OracleReport.build(
        "vacuum g=2 p=1: q_eff closed form",
        vac.q_eff, 1.0 / 3.0, 0.0, 1e-9, note="hand value; equals f_c here",
    ))
    add(OracleReport.build(
        "vacuum g=2 p=1: q_s", vac.q_s, 0.0, 0.0, 1e-9, scale_floor=1.0,
        note="success state is gain independent",
    ))
    add(OracleReport.build(
        "vacuum g=2 p=1: q_f", vac.q_f, 0.0, 0.0, 1e-9, scale_floor=1.0,
        note="failure state is |0>",
    ))
    add(OracleReport.build(
        "vacuum g=2 p=1: q_unc", vac.q_unc, 0.0, 0.0, 1e-9, scale_floor=1.0,
        note="unconditional state is |0><0| for every gain: one occupied image row, "
        "so exactly 0",
    ))
    add(OracleReport.build(
        "vacuum g=1.5 p=2: q_eff closed form",
        qfi_effective_closed_form(vacuum, g15p2),
        4.0 * 4.0 * 1.5 ** (-6.0) / (1.0 - 1.5 ** (-4.0)),
        0.0, 1e-12, note="single-term closed form evaluated inline",
    ))

    two = qfi_effective(two_level, g2p1)
    add(OracleReport.build(
        "two-level g=2 p=1: success probability",
        branch_probability(two_level, g2p1, SUCCESS), 0.625, 0.0, 1e-9, scale_floor=1.0,
        note="hand value (g^-2 + 1)/2",
    ))
    add(OracleReport.build(
        "two-level g=2 p=1: q_s", two.q_s, 0.16, 0.0, 1e-9, scale_floor=1.0,
        note="hand value 0.2 - 0.04",
    ))
    add(OracleReport.build(
        "two-level g=2 p=1: q_f", two.q_f, 0.0, 0.0, 1e-9, scale_floor=1.0,
        note="failure state is |0>",
    ))
    add(OracleReport.build(
        "two-level g=2 p=1: f_c", two.f_c, 1.0 / 15.0, 0.0, 1e-9, scale_floor=1.0,
        note="hand value 0.125^2 (1/0.625 + 1/0.375)",
    ))
    add(OracleReport.build(
        "two-level g=2 p=1: q_eff", two.q_eff, 1.0 / 6.0, 0.0, 1e-9, scale_floor=1.0,
        note="hand value 0.1 + 0 + 1/15",
    ))
    add(OracleReport.build(
        "two-level g=2 p=1: rescaled post-selected information ps_qs",
        two.ps_qs, 0.1, 0.0, 1e-9, note="hand value 0.625 * 0.16",
    ))

    # --- probe amplitude round trips ----------------------------------------
    for kind, nbar in (("coherent", 1.0), ("squeezed-vacuum", 1.5)):
        amp = solve_amplitude_for_nbar(kind, nbar)
        probe = ProbeSpec(kind=kind, amplitude=amp).build()
        add(OracleReport.build(
            f"{kind} amplitude for nbar={nbar:g}: mean-photon round trip",
            probe.mean_photon(), nbar, 0.0, 1e-9, scale_floor=1.0,
            note=f"amplitude {amp!r}",
        ))

    # --- finite-difference cross-checks -------------------------------------
    two_fd = KrausImageFD(two_level, g2p1, DEFAULT_QFI_STEP)
    coh_fd = KrausImageFD(coh1, g2p3, DEFAULT_QFI_STEP)
    add(OracleReport.build(
        "two-level g=2 p=1: q_s vs pure-state fidelity FD",
        two.q_s, two_fd.pure(SUCCESS),
        DEFAULT_QFI_STEP, 1e-5,
    ))
    add(OracleReport.build(
        "coherent nbar=1 g=2 p=3: q_eff vs joint-state fidelity FD",
        qfi_effective_closed_form(coh1, g2p3),
        coh_fd.pure(MeterState.trivial()),
        DEFAULT_QFI_STEP, 1e-5,
    ))
    add(OracleReport.build(
        "coherent nbar=1 g=2 p=3: q_s vs pure-state fidelity FD",
        qfi_branch(coh1, g2p3, SUCCESS),
        coh_fd.pure(SUCCESS),
        DEFAULT_QFI_STEP, 1e-5,
    ))
    add(OracleReport.build(
        "coherent nbar=1 g=2 p=3: q_f vs pure-state fidelity FD",
        qfi_branch(coh1, g2p3, FAILURE),
        coh_fd.pure(FAILURE),
        DEFAULT_QFI_STEP, 1e-5,
    ))
    q_unc_coh = qfi_unconditional(coh1, g2p3)
    add(OracleReport.build(
        "coherent nbar=1 g=2 p=3: q_unc vs Bures fidelity FD",
        q_unc_coh,
        KrausImageFD(coh1, g2p3, STEP_MIN).bures(),
        STEP_MIN, 1e-5,
        note="this oracle fixes the pinned q_unc value; one double-double "
        "step at 1e-6",
    ))
    add(OracleReport.build(
        "two-level g=2 p=1: pure vs mixed fidelity FD on the success family",
        two_fd.pure(SUCCESS),
        two_fd.bures((SUCCESS,)),
        DEFAULT_QFI_STEP, 1e-6,
        note="oracle self-consistency: Uhlmann root fidelity on the rank-1 image "
        "pair (E_s c, 0) against the pure-state deficit",
    ))

    # --- generic meter -------------------------------------------------------
    meter = MeterState(alpha=1.0 / math.sqrt(2.0), beta=1j / math.sqrt(2.0))
    add(OracleReport.build(
        "coherent nbar=1 g=2 p=3: joint QFI with quarter-cycle meter vs FD",
        qfi_joint_meter(coh1, g2p3, meter),
        coh_fd.pure(meter),
        DEFAULT_QFI_STEP, 1e-5,
        note="fixes the pinned meter-gap value",
    ))
    x_vac = meter_coupling_term(vacuum, g2p1)
    add(OracleReport.build(
        "vacuum g=2 p=1: maximal meter erases exactly q_eff",
        4.0 * x_vac * x_vac,
        qfi_effective_closed_form(vacuum, g2p1), 0.0, 1e-12, scale_floor=1.0,
        note="the joint QFI gap 16 Im^2 X^2 at |Im| = 1/2 equals q_eff here, "
        "so a quarter-cycle meter leaves zero information",
    ))

    # --- direct joint-record Fisher information ------------------------------
    add(OracleReport.build(
        "one-photon g=2 p=1: photon-counting joint record FI",
        joint_fi_direct(one_photon, g2p1, PHOTON_COUNTING), 0.0, PROB_STEP, 1e-9,
        scale_floor=1.0,
        note="deterministic instrument: no information",
    ))
    add(OracleReport.build(
        "vacuum g=2 p=1: photon-counting joint record FI vs q_eff",
        qfi_effective_closed_form(vacuum, g2p1),
        joint_fi_direct(vacuum, g2p1, PHOTON_COUNTING),
        PROB_STEP, 1e-5,
    ))
    add(OracleReport.build(
        "squeezed nbar=1 g=1.5 p=2: homodyne joint record FI vs q_eff",
        qfi_effective_closed_form(sq1, g15p2),
        joint_fi_direct(sq1, g15p2, HOMODYNE),
        PROB_STEP, 1e-5,
    ))
    add(OracleReport.build(
        "coherent nbar=1 g=2 p=3: photon-counting joint record FI vs q_eff",
        qfi_effective_closed_form(coh1, g2p3),
        joint_fi_direct(coh1, g2p3, PHOTON_COUNTING),
        PROB_STEP, 1e-5,
    ))

    # --- probability derivatives ---------------------------------------------
    for name, probe, params in (
        ("two-level g=2 p=1", two_level, g2p1),
        ("squeezed nbar=1 g=1.5 p=2", sq1, g15p2),
    ):
        fd = KrausImageFD(probe, params, PROB_STEP)
        for branch in (SUCCESS, FAILURE):
            add(OracleReport.build(
                f"{name}: d p_{branch}/dg vs central difference",
                branch_probability_derivative(probe, params, branch),
                fd.probability_slope(branch),
                PROB_STEP, 1e-7,
            ))

    # --- homodyne density spot values ----------------------------------------
    add(OracleReport.build(
        "vacuum g=2 p=1: success homodyne density at x=0",
        homodyne_density(vacuum, g2p1, SUCCESS, 0.0),
        1.0 / math.sqrt(math.pi), 0.0, 1e-12, scale_floor=1.0,
        note="ground-state density pi^-1/2 e^-x^2 at the origin",
    ))
    add(OracleReport.build(
        "two-level g=2 p=1: success homodyne density at x=0",
        homodyne_density(two_level, g2p1, SUCCESS, 0.0),
        0.2 / math.sqrt(math.pi), 0.0, 1e-12, scale_floor=1.0,
        note="only the n=0 amplitude contributes at the origin",
    ))
    add(OracleReport.build(
        "coherent nbar=1 g=2 p=3: meter coupling term X vs central difference",
        meter_coupling_term(coh1, g2p3),
        KrausImageFD(coh1, g2p3, PROB_STEP).coupling(),
        PROB_STEP, 1e-7,
        note="provenance of the pinned meter-gap value",
    ))
    return reports


def reports_payload(reports: list[OracleReport]) -> dict:
    return {
        "schema_version": GOLDEN_SCHEMA_VERSION,
        "reports": [r.as_dict() for r in reports],
    }
