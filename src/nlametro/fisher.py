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
call for a stack of operating points that share the threshold ``p``.  Above
the threshold ``E_s = 1``, ``E_f = 0`` and both derivatives vanish, so the
levels ``n > p`` enter only through ``c_{>p}``: the images keep the rows
``n <= p`` and one tail row ``||c_{>p}||``, which keeps every inner product.
``q_unc`` is the QFI of the rank-<=2 output ``A A^+``, from a thin SVD of
this ``(p+2) x 2`` matrix, one batched SVD for the whole stack; the tests
compare it with the dense :func:`nlametro.dense.qfi_mixed`.

:func:`qfi_effective` and :func:`qfi_effective_closed_form` take one
:class:`NlaParams` or a sequence of them, like the homodyne functions of
:mod:`nlametro.measurements`; the other functions take one point and read
the same images with a stack of one.  None of the single-point views but
:func:`qfi_unconditional` runs an SVD.

Numerical note: the textbook branch-QFI expression subtracts
``(dprob/prob)^2`` from a second moment; near points where the conditional
state is gain independent the two terms cancel catastrophically.  The
implementations below therefore use the algebraically identical variance
form over per-level log-derivatives, which is a sum of non-negative terms
and returns exact zeros for gain-independent branches.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from .fock import FockVector
from .instrument import (
    BRANCHES,
    SUCCESS,
    MeterState,
    NlaParams,
    Points,
    _check_branch,
    _impossible,
    _kraus_rows,
    _kraus_slope_rows,
    _point_columns,
    kraus_diagonal,  # noqa: F401  (unused; perfbench's install test reads fisher.kraus_diagonal)
    PROBABILITY_FLOOR,
)

# Eigenvalues below ZERO_EIGENVALUE_TOL times the largest are numerical
# zeros.  On the thin support of the unconditional output this ratio, applied
# to squared singular values, decides whether the output has rank 1 or 2.
ZERO_EIGENVALUE_TOL = 1e-12


@dataclasses.dataclass(frozen=True)
class FisherBreakdown:
    """Per-channel information budget at one operating point, or at several.

    Fields: ``q_eff`` (combined sequential-scheme QFI), the weighted branch
    terms ``ps_qs``/``pf_qf``, the herald information ``f_c``, the bare
    branch QFIs ``q_s``/``q_f``, and the unconditional-state QFI ``q_unc``.
    Each field is a float for one operating point, or a 1-D array with one
    entry per point for a sequence of them.
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

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def points(self) -> list["FisherBreakdown"]:
        """One breakdown of floats per point of a breakdown of arrays."""
        columns = [np.atleast_1d(getattr(self, f.name)) for f in dataclasses.fields(self)]
        return [FisherBreakdown(*row) for row in np.stack(columns, axis=1).tolist()]


def _gains(params: Points) -> tuple[np.ndarray, int]:
    """Gains of one operating point or of a sequence of them, and their shared ``p``."""
    g, p = _point_columns(params)
    if len(set(p.flat)) > 1:
        raise ValueError("operating points of one call must share the threshold p")
    return g[:, 0], int(p[0, 0])


def _images(probe: FockVector, g: np.ndarray, p: int):
    """Kraus diagonals ``e``, slopes ``de``, images ``a = e c`` and ``da = de c``.

    ``g`` holds the ``G`` gains of operating points that share the threshold
    ``p`` (see :func:`_gains`).  Each array is ``G x rows x 2``: one block
    per point, one column per branch in :data:`BRANCHES` order.  The rows
    are the levels ``n <= p`` and, when ``dim > p + 2``, one tail row of
    amplitude ``||c_{>p}||``, whose entries are the Kraus diagonals at level
    ``p + 1`` (``E_s = 1``, ``E_f = 0``, derivatives 0).  The Kraus rows and
    slopes of each branch are evaluated once for all ``G`` gains, and each
    block equals the images of its point alone bit for bit.
    """
    probe.require_normalized()
    amps, head = probe.amps, p + 1
    if amps.size > head + 1:
        amps = np.append(amps[:head], np.linalg.norm(amps[head:]))
    g = g[:, np.newaxis]
    e = np.stack([_kraus_rows(g, p, b, amps.size) for b in BRANCHES], axis=-1)
    de = np.stack([_kraus_slope_rows(g, p, b, amps.size) for b in BRANCHES], axis=-1)
    c = amps[:, np.newaxis]
    return e, de, e * c, de * c


def _herald(a, da) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per point ``p_s``, ``p_f`` and ``F_c = dp_s^2 / p_s + dp_s^2 / p_f``.

    ``dp_s = 2 Re<A_s|dA_s>``.  A deterministic herald (one branch below
    :data:`PROBABILITY_FLOOR`) carries no information: ``F_c = 0`` there.
    """
    probs = np.sum(np.abs(a) ** 2, axis=1)
    ps, pf = probs[:, 0], probs[:, 1]
    # elementwise: as np.vdot it is a herald-only simulate's first complex
    # BLAS call, which raises that run's peak RSS by 128 KB
    dps = 2.0 * np.sum((a[..., 0].conj() * da[..., 0]).real, axis=1)
    live = (ps >= PROBABILITY_FLOOR) & (pf >= PROBABILITY_FLOOR)
    ps_safe, pf_safe = np.where(live, ps, 1.0), np.where(live, pf, 1.0)
    f_c = np.where(live, dps * dps / ps_safe + dps * dps / pf_safe, 0.0)
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

    One SVD of the whole ``G x rows x 2`` stack.  A singular value with
    ``s^2 <= ZERO_EIGENVALUE_TOL * s_max^2`` is dropped by zeroing its
    column of ``U`` and ``V`` and masking its pairs, so each point keeps its
    own rank 1 or 2.
    """
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    keep = s * s > ZERO_EIGENVALUE_TOL * s[:, :1] * s[:, :1]
    s = np.where(keep, s, 0.0)
    u = np.where(keep[:, np.newaxis, :], u, 0.0)
    v = np.where(keep[:, np.newaxis, :], vh.conj().swapaxes(1, 2), 0.0)
    dav = da @ v
    w = u.conj().swapaxes(1, 2) @ dav
    ws = w * s[:, np.newaxis, :]
    d = ws + ws.conj().swapaxes(1, 2)
    lam = s * s
    pair = keep[:, :, np.newaxis] & keep[:, np.newaxis, :]
    denom = np.where(pair, lam[:, :, np.newaxis] + lam[:, np.newaxis, :], 1.0)
    pairs = np.sum(np.where(pair, np.abs(d) ** 2 / denom, 0.0), axis=(1, 2))
    kernel = np.sum(np.abs(dav - u @ w) ** 2, axis=(1, 2))
    return 2.0 * pairs + 4.0 * kernel


def _closed_form(probe: FockVector, g: np.ndarray, p: int) -> np.ndarray:
    n = np.arange(probe.dim, dtype=float)
    mask = n < p
    k = n[mask] - p
    w = probe.weights()[mask]
    g = g[:, np.newaxis]
    return 4.0 * np.sum(k * k * w * g ** (2.0 * k - 2.0) / (1.0 - g ** (2.0 * k)), axis=1)


def _one(values: np.ndarray) -> float:
    return float(values[0])


def qfi_branch(probe: FockVector, params: NlaParams, branch: str) -> float:
    """QFI of one normalized conditional output state.

    Evaluated as the variance of the per-level log-derivative of the Kraus
    weights under the conditional photon-number distribution,

        Q_i = sum_n m_n (l_n - <l>)^2,   l_n = d ln(E_n^2)/dg,

    which equals the usual ``-(dprob/prob)^2 + second-moment`` expression but
    is free of its cancellation (the conditional amplitudes can be chosen
    real and gain-covariant, so photon counting already extracts the full
    QFI and the QFI reduces to this classical variance).
    """
    g, p = _gains(params)
    e, de, a, _ = _images(probe, g, p)
    q, prob = _branch_qfi(e, de, a, BRANCHES.index(_check_branch(branch)))
    if prob[0] < PROBABILITY_FLOOR:
        raise _impossible(branch, g, p, prob)
    return _one(q)


def classical_fi(probe: FockVector, params: NlaParams) -> float:
    """Fisher information of the bare success/failure herald bit.

    ``F_c = (dp_s)^2 / p_s + (dp_f)^2 / p_f`` with ``dp_f = -dp_s``.  A
    deterministic herald (one branch impossible) carries no information:
    returns 0.0 in that case.
    """
    return _one(_herald(*_images(probe, *_gains(params))[2:])[2])


def qfi_effective_closed_form(probe: FockVector, params: Points) -> float | np.ndarray:
    """Closed form of the combined sequential-scheme QFI.

    ``params`` is one operating point, giving a float, or a sequence of them
    with one shared ``p``, giving an array.
    """
    probe.require_normalized()
    values = _closed_form(probe, *_gains(params))
    return _one(values) if isinstance(params, NlaParams) else values


def qfi_unconditional(probe: FockVector, params: NlaParams) -> float:
    """QFI of the branch-averaged output (herald discarded), on its thin support.

    The output is ``rho = A A^+`` with the Kraus-image matrix
    ``A = [E_s c, E_f c]``, so it has rank <= 2 and its gain derivative is
    ``drho = dA A^+ + A dA^+`` with ``dA = [E_s' c, E_f' c]``.  With the thin
    SVD ``A = U S V^+`` (singular values kept while
    ``s^2 > ZERO_EIGENVALUE_TOL * s_max^2``, which defines the rank-1 case),
    the support eigenvalues are ``lambda = s^2`` and the arbitrary-rank QFI
    (Liu, Jing, Zhong & Wang, Commun. Theor. Phys. 61, 45 (2014)) splits into
    a support-pair term and a support-kernel term:

        Q = 2 sum_jk |D_jk|^2 / (lambda_j + lambda_k) + 4 ||dA V - U U^+ dA V||_F^2,

    where ``D = W S + (W S)^+`` is ``drho`` on the support and
    ``W = U^+ dA V``.  ``A`` is factored directly rather than through its
    2x2 Gram matrix, which would square the condition number, and the kernel
    term is the norm of a residual rather than a difference of two norms.
    """
    return _one(_unconditional_qfi(*_images(probe, *_gains(params))[2:]))


def qfi_effective(probe: FockVector, params: Points) -> FisherBreakdown:
    """Full information budget at one operating point or over a gain grid.

    ``params`` is one :class:`NlaParams`, giving a breakdown of floats, or a
    sequence of them with one shared ``p``, giving a breakdown whose fields
    are 1-D arrays with one entry per point; a mixed ``p`` raises
    ``ValueError``.  Every component of every point comes from one
    evaluation of the stacked Kraus images (:func:`_images`): the herald
    terms, the two branch variances, one batched SVD for ``q_unc`` and the
    closed form, which is ``q_eff``.  The identity
    ``q_eff = ps_qs + pf_qf + f_c`` holds to machine precision and is
    asserted by the self-check suite rather than silently trusted here.

    An impossible success branch at any point raises
    :class:`BranchImpossible` naming that point; an impossible failure
    branch gives ``q_f = pf_qf = 0`` there.
    """
    g, p = _gains(params)
    e, de, a, da = _images(probe, g, p)
    ps, pf, f_c = _herald(a, da)
    q_s, prob_s = _branch_qfi(e, de, a, 0)
    if np.any(prob_s < PROBABILITY_FLOOR):
        raise _impossible(SUCCESS, g, p, prob_s)
    q_f, prob_f = _branch_qfi(e, de, a, 1)
    q_f = np.where(prob_f >= PROBABILITY_FLOOR, q_f, 0.0)
    fields = (_closed_form(probe, g, p), ps * q_s, pf * q_f, f_c, q_s, q_f,
              _unconditional_qfi(a, da))
    if isinstance(params, NlaParams):
        return FisherBreakdown(*(_one(x) for x in fields))
    return FisherBreakdown(*fields)


def meter_coupling_term(probe: FockVector, params: NlaParams) -> float:
    """Cross term ``<psi|E_s dE_f|psi> - <psi|E_f dE_s|psi>`` (real).

    This is the only way the meter preparation enters the joint-state QFI.
    """
    _, _, a, da = _images(probe, *_gains(params))
    a, da = a[0], da[0]
    return float(np.vdot(a[:, 0], da[:, 1]).real - np.vdot(a[:, 1], da[:, 0]).real)


def qfi_joint_meter(
    probe: FockVector, params: NlaParams, meters: MeterState | Sequence[MeterState]
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
    :func:`~nlametro.instrument.joint_state`.)

    ``meters`` is one :class:`MeterState`, giving a float, or a sequence of
    them, giving an array with one QFI per meter.  Only the imbalance depends
    on the meter, so ``q_eff`` and ``X`` are evaluated once per call and the
    formula is broadcast over the meters.
    """
    single = isinstance(meters, MeterState)
    imbalance = np.array([m.branch_imbalance() for m in ([meters] if single else meters)])
    coupling = meter_coupling_term(probe, params)
    q = qfi_effective_closed_form(probe, params) - 16.0 * (imbalance * coupling) ** 2
    return float(q[0]) if single else q
