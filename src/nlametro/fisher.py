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

Every quantity but the closed form is a formula on the Kraus images
``A = [E_s c, E_f c]`` and slopes ``dA``, which :func:`_images` builds once per
call for a stack of operating points, whose thresholds may differ, from one
call of the instrument's Kraus kernel ``_kraus_pair``.  Above the threshold
``E_s = 1``, ``E_f = 0`` and both derivatives vanish, so the levels
``n > p`` enter only through ``c_{>p}``: the images keep the rows ``n <= p``
and one tail row ``||c_{>p}||``, which keeps every inner product,
zero-padded to the stack's largest ``p``.  ``q_unc`` is the QFI of the
rank-<=2 output ``A A^+``, from a QR factorisation of this ``(p+2) x 2``
matrix and an SVD of its 2x2 triangular factor, batched over the whole
stack, with the rank read off the images' structure; the tests compare it
with the dense ``qfi_mixed`` of ``tests/dense.py``.

Every function takes one :class:`~nlametro.instrument.NlaParams`: one
point or a batch (an array of gains, thresholds mixed), which
:func:`~nlametro.instrument._point_columns` maps to gain and threshold
columns.  One point gives floats, a batch arrays, and a point's value is a
view of a stack of one.  Only :func:`qfi_effective` and
:func:`qfi_unconditional` run an SVD.  The images take the probe's dtype:
a probe stored real (:class:`~nlametro.fock.FockVector`) gives real images,
so every kernel, the QR and the SVD among them, runs in real arithmetic
with no second code path.

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
    BRANCHES,
    SUCCESS,
    MeterBatch,
    MeterState,
    NlaParams,
    _check_branch,
    _image_levels,
    _impossible,
    _is_point,
    _kraus_pair,
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


def _images(probe: FockVector, g: np.ndarray, p: np.ndarray):
    """Kraus diagonals ``e``, slopes ``de``, images ``a = e c`` and ``da = de c``.

    ``g`` and ``p`` are the ``(G, 1)`` gain and threshold columns of ``G``
    operating points (:func:`~nlametro.instrument._point_columns`), whose
    thresholds may differ.  Each array is ``G x rows x 2``: one block per
    point, one column per branch in :data:`BRANCHES` order.  A point's rows
    are the levels ``n <= p`` and, when ``dim > p + 2``, one tail row of
    amplitude ``||c_{>p}||``, whose entries are the Kraus diagonals at level
    ``p + 1`` (``E_s = 1``, ``E_f = 0``, derivatives 0); they are
    zero-padded to the stack's widest ``rows``, the
    :func:`~nlametro.instrument._image_levels` ``min(dim, max(p) + 2)``, and
    a padded row has a zero image.  The Kraus rows and slopes of both
    branches come from one ``_kraus_pair`` call for all ``G`` points, copied
    into this contiguous layout, which fixes the order of the sums over
    rows: numpy reduces a strided view in another order.  Sums over fewer
    than 8 rows add the padded zeros last, so a point's values equal its
    own bit for bit; on 8 rows or more numpy sums pairwise, which can move
    them by rounding.
    """
    probe.require_normalized()
    amps = probe.amps
    c = np.zeros((g.shape[0], _image_levels(amps.size, p)), dtype=amps.dtype)
    for top in set(p.flat):
        head = top + 1
        row = amps if amps.size <= head + 1 else np.append(amps[:head], np.linalg.norm(amps[head:]))
        c[p[:, 0] == top, :row.size] = row
    e, de = np.ascontiguousarray(np.moveaxis(_kraus_pair(g, p, c.shape[1]), (1, 2), (3, 0)))
    c = c[..., np.newaxis]
    return e, de, e * c, de * c


def _herald(a, da) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per point ``p_s``, ``p_f`` and ``F_c = dp_s^2 / p_s + dp_s^2 / p_f``.

    ``dp_s = 2 Re<A_s|dA_s>``.  A deterministic herald (one branch below
    :data:`PROBABILITY_FLOOR`) carries no information: ``F_c = 0`` there.
    Each term divides before it squares, ``dp_s (dp_s / p_s)``, so a slope
    below ~1e-162 whose square would underflow still gives its ``F_c``.
    """
    probs = np.sum(np.abs(a) ** 2, axis=1)
    ps, pf = probs[:, 0], probs[:, 1]
    # elementwise: as np.vdot it is a herald-only simulate's first complex
    # BLAS call, which raises that run's peak RSS by 128 KB
    dps = 2.0 * np.sum((a[..., 0].conj() * da[..., 0]).real, axis=1)
    live = (ps >= PROBABILITY_FLOOR) & (pf >= PROBABILITY_FLOOR)
    ps_safe, pf_safe = np.where(live, ps, 1.0), np.where(live, pf, 1.0)
    f_c = np.where(live, dps * (dps / ps_safe) + dps * (dps / pf_safe), 0.0)
    return ps, pf, f_c


def _branch_qfi(e, de, a, col: int) -> tuple[np.ndarray, np.ndarray]:
    """Per point variance of ``l_n = 2 dE_n / E_n`` under ``|A_n|^2 / p_i``, and ``p_i``.

    Levels with ``|A_n|^2 = 0`` (the tail row of the failure branch among
    them) are masked out of both moments, so a branch that occupies one
    level has variance exactly 0.  ``p_i`` below :data:`PROBABILITY_FLOOR`
    leaves the variance NaN; the callers decide whether that is an error.
    """
    masses = np.abs(a[..., col]) ** 2
    prob = masses.sum(axis=1)
    occupied = masses > 0.0
    logder = 2.0 * de[..., col] / np.where(occupied, e[..., col], 1.0)
    weights = masses / np.where(prob >= PROBABILITY_FLOOR, prob, np.nan)[:, np.newaxis]
    mean = np.sum(np.where(occupied, weights * logder, 0.0), axis=1)
    dev = np.where(occupied, logder - mean[:, np.newaxis], 0.0)
    return np.sum(np.where(occupied, weights * dev * dev, 0.0), axis=1), prob


def _unconditional_qfi(a, da) -> np.ndarray:
    """Per point QFI of ``A A^+`` on its thin support; see :func:`qfi_unconditional`.

    One QR ``A = Q R`` of the whole ``G x rows x 2`` stack and one SVD
    ``R = U_R S V^+`` of its small factors, so ``U = Q U_R``.  A singular
    value beyond a point's structural rank has its column of ``U`` and
    ``V`` zeroed and its pairs masked, as has a pair whose eigenvalue sum
    underflows to 0.
    """
    q, r = np.linalg.qr(a)
    ur, s, vh = np.linalg.svd(r, full_matrices=False)
    u = q @ ur
    rows = np.count_nonzero(np.any(a != 0.0, axis=2), axis=1)
    rank = np.where(np.any(a[..., 1] != 0.0, axis=1) & (rows >= 2), 2, 1)
    keep = np.arange(s.shape[1]) < rank[:, np.newaxis]
    s = np.where(keep, s, 0.0)
    u = np.where(keep[:, np.newaxis, :], u, 0.0)
    v = np.where(keep[:, np.newaxis, :], vh.conj().swapaxes(1, 2), 0.0)
    dav = da @ v
    w = u.conj().swapaxes(1, 2) @ dav
    ws = w * s[:, np.newaxis, :]
    d = ws + ws.conj().swapaxes(1, 2)
    lam = s * s
    sums = lam[:, :, np.newaxis] + lam[:, np.newaxis, :]
    pair = keep[:, :, np.newaxis] & keep[:, np.newaxis, :] & (sums > 0.0)
    denom = np.where(pair, sums, 1.0)
    modulus = np.abs(d)
    pairs = np.sum(np.where(pair, modulus * (modulus / denom), 0.0), axis=(1, 2))
    kernel = np.sum(np.abs(dav - u @ w) ** 2, axis=(1, 2))
    return 2.0 * pairs + 4.0 * kernel


def _closed_form(probe: FockVector, g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The closed form of each point, over the levels ``n < p`` of its own ``p``.

    The levels are added one column at a time, in level order, so a point's
    sum does not depend on how many zero-padded levels its stack holds (a
    pairwise ``np.sum`` regroups a row of 8 or more).
    """
    n = np.arange(min(probe.dim, int(np.max(p))), dtype=float)
    k = np.minimum(n - p, 0.0)
    w = probe.weights()[:n.size]
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
    g, p = _point_columns(params)
    e, de, a, _ = _images(probe, g, p)
    q, prob = _branch_qfi(e, de, a, BRANCHES.index(_check_branch(branch)))
    if np.any(prob < PROBABILITY_FLOOR):
        raise _impossible(branch, g, p, prob)
    return _per_point(params, q)


def classical_fi(probe: FockVector, params: NlaParams) -> float | np.ndarray:
    """Fisher information of the bare success/failure herald bit.

    ``F_c = (dp_s)^2 / p_s + (dp_f)^2 / p_f`` with ``dp_f = -dp_s``.  A
    deterministic herald (one branch impossible) carries no information:
    returns 0.0 in that case.  One point gives a float, a batch an array.
    """
    return _per_point(params, _herald(*_images(probe, *_point_columns(params))[2:])[2])


def qfi_effective_closed_form(probe: FockVector, params: NlaParams) -> float | np.ndarray:
    """Closed form of the combined sequential-scheme QFI.

    ``params`` is one operating point, giving a float, or a batch of them,
    thresholds mixed, giving an array.  Each point sums
    over the levels below its own threshold.  At a point whose success
    probability underflows to 0 every term underflows with it, and this
    returns 0.0 rather than raising.
    """
    probe.require_normalized()
    return _per_point(params, _closed_form(probe, *_point_columns(params)))


def qfi_unconditional(probe: FockVector, params: NlaParams) -> float | np.ndarray:
    """QFI of the branch-averaged output (herald discarded), on its thin support.

    The output is ``rho = A A^+`` with the Kraus-image matrix
    ``A = [E_s c, E_f c]``, so it has rank <= 2 and its gain derivative is
    ``drho = dA A^+ + A dA^+`` with ``dA = [E_s' c, E_f' c]``.  With the thin
    SVD ``A = U S V^+``, the support eigenvalues are ``lambda = s^2`` and the
    arbitrary-rank QFI (Liu, Jing, Zhong & Wang, Commun. Theor. Phys. 61, 45
    (2014)) splits into a support-pair term and a support-kernel term:

        Q = 2 sum_jk |D_jk|^2 / (lambda_j + lambda_k) + 4 ||dA V - U U^+ dA V||_F^2,

    where ``D = W S + (W S)^+`` is ``drho`` on the support and
    ``W = U^+ dA V``.  ``A`` is factored directly rather than through its
    2x2 Gram matrix, which would square the condition number: a QR
    ``A = Q R``, then the SVD of the 2x2 ``R``, which finds even a singular
    value 1e-140 times the largest to high relative accuracy, so a success
    branch far below ``p_s = 1e-12`` keeps its information.  The rank is
    exact, from the images' structure: 2 when the failure image is non-zero
    and at least two levels are occupied (``E_f / E_s`` then differs
    between them), else 1.  The kernel term is the norm of a residual
    rather than a difference of two norms.  Where ``p_s`` underflows to 0
    the terms underflow with it, and this returns 0.0 rather than raising.
    One point gives a float, a batch an array.
    """
    return _per_point(params, _unconditional_qfi(*_images(probe, *_point_columns(params))[2:]))


def qfi_effective(probe: FockVector, params: NlaParams) -> FisherBreakdown:
    """Full information budget at one operating point or over a gain grid.

    ``params`` is one :class:`NlaParams` point, giving a breakdown of
    floats, or a batch, thresholds mixed, giving a breakdown whose fields
    are 1-D arrays with one entry per point.  Every component of
    every point comes from one evaluation of the stacked Kraus images
    (:func:`_images`): the herald terms, the two branch variances, one
    batched SVD for ``q_unc`` and the closed form, which is ``q_eff``.  The
    identity ``q_eff = ps_qs + pf_qf + f_c`` holds to machine precision and
    is asserted by the self-check suite rather than silently trusted here.

    An impossible success branch at any point, among them one whose success
    probability underflows to 0, raises :class:`BranchImpossible` naming
    that point; an impossible failure branch gives ``q_f = pf_qf = 0``
    there.
    """
    g, p = _point_columns(params)
    e, de, a, da = _images(probe, g, p)
    ps, pf, f_c = _herald(a, da)
    q_s, prob_s = _branch_qfi(e, de, a, 0)
    if np.any(prob_s < PROBABILITY_FLOOR):
        raise _impossible(SUCCESS, g, p, prob_s)
    q_f, prob_f = _branch_qfi(e, de, a, 1)
    q_f = np.where(prob_f >= PROBABILITY_FLOOR, q_f, 0.0)
    fields = (_closed_form(probe, g, p), ps * q_s, pf * q_f, f_c, q_s, q_f,
              _unconditional_qfi(a, da))
    return FisherBreakdown(*(_per_point(params, x) for x in fields))


def _coupling(a, da) -> np.ndarray:
    """Per point ``Re<A_s|dA_f> - Re<A_f|dA_s>``; see :func:`meter_coupling_term`."""
    return (np.sum((a[..., 0].conj() * da[..., 1]).real, axis=1)
            - np.sum((a[..., 1].conj() * da[..., 0]).real, axis=1))


def meter_coupling_term(probe: FockVector, params: NlaParams) -> float | np.ndarray:
    """Cross term ``<psi|E_s dE_f|psi> - <psi|E_f dE_s|psi>`` (real).

    This is the only way the meter preparation enters the joint-state QFI.
    ``params`` is one operating point, giving a float, or a batch of them,
    thresholds mixed, giving an array; the coupling of
    every point comes from one evaluation of the stacked images
    (:func:`_images`).
    """
    return _per_point(params, _coupling(*_images(probe, *_point_columns(params))[2:]))


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
    points, and the formula is broadcast over the meters.
    """
    if not isinstance(meters, (MeterState, MeterBatch)):
        raise TypeError(
            f"meters must be a MeterState or a MeterBatch, not {type(meters).__name__}"
        )
    imbalance = np.asarray(meters.branch_imbalance())
    q_eff = qfi_effective_closed_form(probe, params)
    coupling = meter_coupling_term(probe, params)
    if not _is_point(params) and imbalance.ndim:
        if imbalance.shape[0] != q_eff.size:
            raise ValueError(f"{imbalance.shape[0]} rows of meters for {q_eff.size} points")
        trailing = (1,) * (imbalance.ndim - 1)
        q_eff, coupling = q_eff.reshape(-1, *trailing), coupling.reshape(-1, *trailing)
    q = q_eff - 16.0 * (imbalance * coupling) ** 2
    return float(q) if q.ndim == 0 else q
