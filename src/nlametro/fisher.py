"""Fisher-information figures of merit for gain estimation.

All quantities refer to estimating the gain from the amplifier output under
a fixed threshold.  The central bookkeeping object is
:class:`FisherBreakdown`, which carries the per-branch quantum Fisher
information (QFI), the classical information in the herald bit, their
information-conserving combination

    q_eff = p_s Q_s + p_f Q_f + F_c,

the equivalent closed form

    q_eff = 4 sum_{n<p} (n-p)^2 |c_n|^2 g^(2(n-p)-2) / (1 - g^(2(n-p))),

and the QFI of the branch-averaged (unconditional) output state ``q_unc``.

Every quantity but the closed form is a formula on the real Kraus images
``A = [E_s c, E_f c]`` and slopes ``dA`` of one
:class:`~nlametro.instrument.KrausImages` per call, for a stack of operating
points whose thresholds may differ: ``p + 2`` rows of the moduli ``|c_n|``,
since the budget depends on the probe only through ``|c_n|^2``.  So every
kernel, the QR and the SVD among them, runs in real arithmetic, and a probe
and the probe of its moduli give the same bits.  ``q_unc`` is the QFI of the
rank-<=2 output ``A A^T``, from a batched QR of the ``(p+2) x 2`` images and
an SVD of the 2x2 factor, with the rank read off the images' structure; the
tests compare it with the dense ``qfi_mixed`` of ``tests/dense.py``.

Every function takes one :class:`~nlametro.instrument.NlaParams`: one
point or a batch (an array of gains, thresholds mixed).  One point gives
floats, a batch arrays, and a point's value is a view of a stack of one.

Numerical note: the textbook branch-QFI expression subtracts
``(dprob/prob)^2`` from a second moment; near points where the conditional
state is gain independent the two terms cancel catastrophically.  The
implementations below therefore use the algebraically identical variance
form over per-level log-derivatives, which is a sum of non-negative terms
and returns exact zeros for gain-independent branches.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .fock import FockVector
from .instrument import (
    SUCCESS,
    KrausImages,
    MeterBatch,
    MeterState,
    NlaParams,
    _per_point,
    _point_columns,
    kraus_diagonal,  # noqa: F401  (unused; perfbench's install test reads fisher.kraus_diagonal)
    PROBABILITY_FLOOR,
)


@dataclasses.dataclass(frozen=True)
class FisherBreakdown:
    """Per-channel information budget at one operating point, or at several.

    Fields: ``q_eff`` (combined sequential-scheme QFI), the weighted branch
    terms ``ps_qs``/``pf_qf``, the herald information ``f_c``, the bare
    branch QFIs ``q_s``/``q_f``, and the unconditional-state QFI ``q_unc``.
    Each field is a float for one operating point, or a 1-D array with one
    entry per point for a batch of them.
    """

    q_eff: float | np.ndarray
    ps_qs: float | np.ndarray
    pf_qf: float | np.ndarray
    f_c: float | np.ndarray
    q_s: float | np.ndarray
    q_f: float | np.ndarray
    q_unc: float | np.ndarray

    def component_sum(self) -> float | np.ndarray:
        return self.ps_qs + self.pf_qf + self.f_c


def _herald(images: KrausImages) -> np.ndarray:
    """Per point ``F_c = dp_s^2 / p_s + dp_s^2 / p_f``.

    A deterministic herald (one branch below :data:`PROBABILITY_FLOOR`)
    carries no information: ``F_c = 0`` there.  Each term divides before it
    squares, ``dp_s (dp_s / p_s)``, so a slope below ~1e-162 whose square
    would underflow still gives its ``F_c``.
    """
    ps, pf = images.prob.T
    dps = images.dprob[:, 0]
    live = (ps >= PROBABILITY_FLOOR) & (pf >= PROBABILITY_FLOOR)
    ps_safe, pf_safe = np.where(live, ps, 1.0), np.where(live, pf, 1.0)
    return np.where(live, dps * (dps / ps_safe) + dps * (dps / pf_safe), 0.0)


def _branch_qfi(images: KrausImages, col: int) -> np.ndarray:
    """Per point variance of ``l_n = 2 dE_n / E_n`` under ``a_n^2 / p_i``.

    Rows with ``a_n = 0`` (the tail row of the failure branch among them)
    are masked out of both moments, so a branch that occupies one row has
    variance exactly 0.  ``p_i`` below :data:`PROBABILITY_FLOOR` leaves the
    variance NaN; the callers decide whether that is an error.
    """
    a, prob = images.a[..., col], images.prob[:, col]
    masses = a * a
    occupied = masses > 0.0
    logder = 2.0 * images.de[..., col] / np.where(occupied, images.e[..., col], 1.0)
    weights = masses / np.where(prob >= PROBABILITY_FLOOR, prob, np.nan)[:, np.newaxis]
    mean = np.sum(np.where(occupied, weights * logder, 0.0), axis=1)
    dev = np.where(occupied, logder - mean[:, np.newaxis], 0.0)
    return np.sum(np.where(occupied, weights * dev * dev, 0.0), axis=1)


def _unconditional_qfi(images: KrausImages) -> np.ndarray:
    """Per point QFI of ``A A^T`` on its thin support; see :func:`qfi_unconditional`.

    One QR ``A = Q R`` of the whole ``G x rows x 2`` stack and one SVD
    ``R = U_R S V^T`` of its small factors, so ``U = Q U_R``.  A singular
    value beyond a point's structural rank has its column of ``U`` and
    ``V`` zeroed and its pairs masked, as has a pair whose eigenvalue sum
    underflows to 0.  A point whose amplitudes occupy one row has the
    gain-free output ``|n><n|`` (or the tail state) and QFI exactly 0.
    """
    a, da = images.a, images.da
    q, r = np.linalg.qr(a)
    ur, s, vh = np.linalg.svd(r, full_matrices=False)
    u = q @ ur
    rows = np.count_nonzero(images.c, axis=1)
    rank = np.where(np.any(a[..., 1] != 0.0, axis=1) & (rows >= 2), 2, 1)
    keep = np.arange(s.shape[1]) < rank[:, np.newaxis]
    s = np.where(keep, s, 0.0)
    u = np.where(keep[:, np.newaxis, :], u, 0.0)
    v = np.where(keep[:, np.newaxis, :], vh.swapaxes(1, 2), 0.0)
    dav = da @ v
    w = u.swapaxes(1, 2) @ dav
    ws = w * s[:, np.newaxis, :]
    d = ws + ws.swapaxes(1, 2)
    lam = s * s
    sums = lam[:, :, np.newaxis] + lam[:, np.newaxis, :]
    pair = keep[:, :, np.newaxis] & keep[:, np.newaxis, :] & (sums > 0.0)
    denom = np.where(pair, sums, 1.0)
    pairs = np.sum(np.where(pair, d * (d / denom), 0.0), axis=(1, 2))
    residual = dav - u @ w
    kernel = np.sum(residual * residual, axis=(1, 2))
    return np.where(rows >= 2, 2.0 * pairs + 4.0 * kernel, 0.0)


def _closed_form(weights: np.ndarray, g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The closed form of each point, over the levels ``n < p`` of its own ``p``.

    ``weights`` holds ``|c_n|^2`` from level 0 on, one row for every point
    or one per point.  The levels are added one column at a time, in level
    order, so a point's sum does not depend on how many zero-padded levels
    its stack holds (a pairwise ``np.sum`` regroups a row of 8 or more).
    """
    n = np.arange(min(weights.shape[-1], int(np.max(p))), dtype=float)
    k = np.minimum(n - p, 0.0)
    w = weights[..., :n.size]
    # k = 0 above a point's threshold: a zero term over a unit denominator
    terms = k * k * w * g ** (2.0 * k - 2.0) / np.where(k < 0.0, 1.0 - g ** (2.0 * k), 1.0)
    total = np.zeros(terms.shape[0])
    for column in terms.T:
        total += column
    return 4.0 * total


def qfi_branch(probe: FockVector, params: NlaParams, branch: str) -> float | np.ndarray:
    """QFI of the normalized conditional output state; one point gives a float.

    Evaluated as the variance of the per-level log-derivative of the Kraus
    weights under the conditional photon-number distribution,

        Q_i = sum_n m_n (l_n - <l>)^2,   l_n = d ln(E_n^2)/dg,

    which equals the usual ``-(dprob/prob)^2 + second-moment`` expression but
    is free of its cancellation (the conditional amplitudes can be chosen
    real and gain-covariant, so photon counting already extracts the full
    QFI and the QFI reduces to this classical variance).  A batch of
    points gives an array; an impossible branch at any point raises
    :class:`BranchImpossible` naming that point.
    """
    images = KrausImages.of(probe, params)
    return _per_point(params, _branch_qfi(images, images.possible(branch)[0]))


def classical_fi(probe: FockVector, params: NlaParams) -> float | np.ndarray:
    """Fisher information of the bare success/failure herald bit.

    ``F_c = (dp_s)^2 / p_s + (dp_f)^2 / p_f`` with ``dp_f = -dp_s``.  A
    deterministic herald (one branch impossible) carries no information:
    returns 0.0 in that case.  One point gives a float, a batch an array.
    """
    return _per_point(params, _herald(KrausImages.of(probe, params)))


def qfi_effective_closed_form(probe: FockVector, params: NlaParams) -> float | np.ndarray:
    """Closed form of the combined sequential-scheme QFI.

    ``params`` is one operating point, giving a float, or a batch of them,
    thresholds mixed, giving an array.  Each point sums
    over the levels below its own threshold.  At a point whose success
    probability underflows to 0 every term underflows with it, and this
    returns 0.0 rather than raising.
    """
    probe.require_normalized()
    return _per_point(params, _closed_form(probe.weights(), *_point_columns(params)))


def qfi_unconditional(probe: FockVector, params: NlaParams) -> float | np.ndarray:
    """QFI of the branch-averaged output (herald discarded), on its thin support.

    The output is ``rho = A A^T`` with the real Kraus-image matrix
    ``A = [E_s c, E_f c]`` (:class:`~nlametro.instrument.KrausImages`), so it
    has rank <= 2 and ``drho = dA A^T + A dA^T``.  With the thin SVD
    ``A = U S V^T``, ``lambda = s^2`` and ``W = U^T dA V``, the
    arbitrary-rank QFI (Liu, Jing, Zhong & Wang, Commun. Theor. Phys. 61, 45
    (2014)) is a support-pair and a support-kernel term:

        Q = 2 sum_jk D_jk^2 / (lambda_j + lambda_k) + 4 ||dA V - U U^T dA V||_F^2,

    with ``D = W S + (W S)^T``.  ``A`` is factored directly, not through its
    Gram matrix, which would square the condition number: a QR ``A = Q R``
    and the SVD of the 2x2 ``R``, which resolves a singular value 1e-140
    times the largest, so a success branch far below ``p_s = 1e-12`` keeps
    its information.  The rank is exact, from the images' structure: 2 when
    the failure image is non-zero and at least two rows are occupied, else
    1; one occupied row gives exactly 0.  Where ``p_s`` underflows to 0 the
    terms underflow with it, and this returns 0.0 rather than raising.  One
    point gives a float, a batch an array.
    """
    return _per_point(params, _unconditional_qfi(KrausImages.of(probe, params)))


def _budget(images: KrausImages) -> FisherBreakdown:
    """The budget of every point of ``images``; see :func:`qfi_effective`."""
    ps, pf = images.prob.T
    q_s = _branch_qfi(images, images.possible(SUCCESS)[0])
    q_f = np.where(pf >= PROBABILITY_FLOOR, _branch_qfi(images, 1), 0.0)
    fields = (_closed_form(images.c * images.c, images.g, images.p), ps * q_s, pf * q_f,
              _herald(images), q_s, q_f, _unconditional_qfi(images))
    return FisherBreakdown(*(_per_point(images.params, x) for x in fields))


def qfi_effective(probe: FockVector, params: NlaParams) -> FisherBreakdown:
    """Full information budget at one operating point or over a gain grid.

    ``params`` is one :class:`NlaParams` point, giving a breakdown of
    floats, or a batch, thresholds mixed, giving a breakdown whose fields
    are 1-D arrays with one entry per point.  Every component of every
    point comes from one :class:`~nlametro.instrument.KrausImages`: the
    herald terms, the two branch variances, one batched SVD for ``q_unc``
    and the closed form, which is ``q_eff``.  The identity
    ``q_eff = ps_qs + pf_qf + f_c`` holds to machine precision and is
    asserted by the self-check suite rather than silently trusted here.

    An impossible success branch at any point, among them one whose success
    probability underflows to 0, raises :class:`BranchImpossible` naming
    that point; an impossible failure branch gives ``q_f = pf_qf = 0``
    there.
    """
    return _budget(KrausImages.of(probe, params))


def _coupling(images: KrausImages) -> np.ndarray:
    """Per point ``<A_s|dA_f> - <A_f|dA_s>``; see :func:`meter_coupling_term`."""
    a, da = images.a, images.da
    return np.sum(a[..., 0] * da[..., 1], axis=1) - np.sum(a[..., 1] * da[..., 0], axis=1)


def meter_coupling_term(probe: FockVector, params: NlaParams) -> float | np.ndarray:
    """Cross term ``<psi|E_s dE_f|psi> - <psi|E_f dE_s|psi>`` (real).

    This is the only way the meter preparation enters the joint-state QFI.
    ``params`` is one operating point, giving a float, or a batch of them,
    thresholds mixed, giving an array; the coupling of every point comes
    from one :class:`~nlametro.instrument.KrausImages`.
    """
    return _per_point(params, _coupling(KrausImages.of(probe, params)))


def qfi_joint_meter(
    probe: FockVector, params: NlaParams, meters: MeterState | MeterBatch
) -> float | np.ndarray:
    """QFI of the joint signal-meter pure state for a general meter.

    The joint state |Psi_g> has ``<dPsi|dPsi> = q_eff / 4`` regardless of the
    meter, while ``<Psi|dPsi> = 2i Im(alpha conj(beta)) X`` with ``X`` the
    coupling term above, so

        Q(|Psi_g>) = q_eff - 16 Im(alpha conj(beta))^2 X^2.

    The deduction vanishes exactly when ``Im(alpha conj(beta)) = 0``; any
    other preparation strictly loses information.  (The prefactor is fixed by
    the 4(<d|d> - |<psi|d>|^2) QFI convention and is confirmed against the
    Kraus-image fidelity oracle :class:`~nlametro.oracles.KrausImageFD`,
    whose joint-state contraction a test ties to the explicitly built
    ``joint_state`` of ``tests/dense.py``.)

    ``meters`` is one :class:`MeterState` or a :class:`MeterBatch`; anything
    else, a list of meters among them, raises ``TypeError``.  At one
    operating point the result has the meters' shape: a float for one meter,
    an array for several.  ``params`` may also be a batch of ``G`` points,
    thresholds mixed; then the meters' leading axis runs over the points:
    one meter for all points gives shape ``(G,)``, one meter per point (a
    batch of length ``G``) gives ``(G,)``, and ``M`` meters per point (a
    ``G x M`` batch) give ``(G, M)``.  Only the imbalance depends on the
    meter, so ``q_eff`` and ``X`` are evaluated once per call, for all
    points, and the formula is broadcast over the meters (:func:`_joint_meter`).
    """
    return _joint_meter(qfi_effective_closed_form(probe, params),
                        meter_coupling_term(probe, params), meters)


def _joint_meter(q_eff, coupling, meters: MeterState | MeterBatch) -> float | np.ndarray:
    """``q_eff - 16 Im(alpha conj(beta))^2 X^2`` of one point's floats or a batch's arrays."""
    if not isinstance(meters, (MeterState, MeterBatch)):
        raise TypeError(
            f"meters must be a MeterState or a MeterBatch, not {type(meters).__name__}"
        )
    imbalance = np.asarray(meters.branch_imbalance())
    if np.ndim(q_eff) and imbalance.ndim:
        if imbalance.shape[0] != q_eff.size:
            raise ValueError(f"{imbalance.shape[0]} rows of meters for {q_eff.size} points")
        trailing = (1,) * (imbalance.ndim - 1)
        q_eff, coupling = q_eff.reshape(-1, *trailing), coupling.reshape(-1, *trailing)
    q = q_eff - 16.0 * (imbalance * coupling) ** 2
    return float(q) if q.ndim == 0 else q
