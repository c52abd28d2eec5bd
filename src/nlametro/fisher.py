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
operating point.  Above the threshold ``E_s = 1``, ``E_f = 0`` and both
derivatives vanish, so the levels ``n > p`` enter only through ``c_{>p}``:
the images keep the rows ``n <= p`` and one tail row ``||c_{>p}||``, which
keeps every inner product.  ``q_unc`` is the QFI of the rank-<=2 output
``A A^+``, from a thin SVD of this ``(p+2) x 2`` matrix; the tests compare it
with the dense :func:`nlametro.dense.qfi_mixed`.

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
    BranchImpossible,
    MeterState,
    NlaParams,
    _check_branch,
    kraus_diagonal,
    kraus_diagonal_derivative,
    PROBABILITY_FLOOR,
)

# Eigenvalues below ZERO_EIGENVALUE_TOL times the largest are numerical
# zeros.  On the thin support of the unconditional output this ratio, applied
# to squared singular values, decides whether the output has rank 1 or 2.
ZERO_EIGENVALUE_TOL = 1e-12


@dataclasses.dataclass(frozen=True)
class FisherBreakdown:
    """Per-channel information budget at one operating point.

    Fields: ``q_eff`` (combined sequential-scheme QFI), the weighted branch
    terms ``ps_qs``/``pf_qf``, the herald information ``f_c``, the bare
    branch QFIs ``q_s``/``q_f``, and the unconditional-state QFI ``q_unc``.
    """

    q_eff: float
    ps_qs: float
    pf_qf: float
    f_c: float
    q_s: float
    q_f: float
    q_unc: float

    def component_sum(self) -> float:
        return self.ps_qs + self.pf_qf + self.f_c

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _images(probe: FockVector, params: NlaParams):
    """Kraus diagonals ``e``, slopes ``de``, images ``a = e c`` and ``da = de c``.

    Each is ``rows x 2``, one column per branch in :data:`BRANCHES` order.  The
    rows are the levels ``n <= p`` and, when ``dim > p + 2``, one tail row of
    amplitude ``||c_{>p}||``, whose entries are the Kraus diagonals at level
    ``p + 1`` (``E_s = 1``, ``E_f = 0``, derivatives 0).
    """
    probe.require_normalized()
    amps, head = probe.amps, params.p + 1
    if amps.size > head + 1:
        amps = np.append(amps[:head], np.linalg.norm(amps[head:]))
    e = np.stack([kraus_diagonal(params, b, amps.size) for b in BRANCHES], axis=1)
    de = np.stack([kraus_diagonal_derivative(params, b, amps.size) for b in BRANCHES], axis=1)
    c = amps[:, np.newaxis]
    return e, de, e * c, de * c


def _herald(a, da) -> tuple[float, float, float]:
    """``p_s``, ``p_f`` and ``F_c = dp_s^2 / p_s + dp_s^2 / p_f``, ``dp_s = 2 Re<A_s|dA_s>``."""
    ps, pf = (float(x) for x in np.sum(np.abs(a) ** 2, axis=0))
    if ps < PROBABILITY_FLOOR or pf < PROBABILITY_FLOOR:
        return ps, pf, 0.0
    # elementwise: as np.vdot it is a herald-only simulate's first complex
    # BLAS call, which raises that run's peak RSS by 128 KB
    dps = 2.0 * float(np.sum((a[:, 0].conj() * da[:, 0]).real))
    return ps, pf, dps * dps / ps + dps * dps / pf


def _branch_qfi(e, de, a, col: int) -> float:
    """Variance of ``l_n = 2 dE_n / E_n`` (0 on the tail row) under ``|A_n|^2 / p_i``."""
    masses = np.abs(a[:, col]) ** 2
    prob = float(masses.sum())
    if prob < PROBABILITY_FLOOR:
        raise BranchImpossible(f"{BRANCHES[col]} branch is impossible for this probe")
    occupied = masses > 0.0
    logder = 2.0 * de[occupied, col] / e[occupied, col]
    weights = masses[occupied] / prob
    mean = float(np.dot(weights, logder))
    return float(np.dot(weights, (logder - mean) ** 2))


def _unconditional_qfi(a, da) -> float:
    """QFI of ``A A^+`` on its thin support; see :func:`qfi_unconditional`."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    rank = int(np.count_nonzero(s * s > ZERO_EIGENVALUE_TOL * s[0] * s[0]))
    u, s, v = u[:, :rank], s[:rank], vh[:rank].conj().T
    dav = da @ v
    w = u.conj().T @ dav
    ws = w * s
    d = ws + ws.conj().T
    lam = s * s
    pairs = float(np.sum(np.abs(d) ** 2 / (lam[:, None] + lam[None, :])))
    kernel = float(np.linalg.norm(dav - u @ w) ** 2)
    return 2.0 * pairs + 4.0 * kernel


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
    e, de, a, _ = _images(probe, params)
    return _branch_qfi(e, de, a, BRANCHES.index(_check_branch(branch)))


def classical_fi(probe: FockVector, params: NlaParams) -> float:
    """Fisher information of the bare success/failure herald bit.

    ``F_c = (dp_s)^2 / p_s + (dp_f)^2 / p_f`` with ``dp_f = -dp_s``.  A
    deterministic herald (one branch impossible) carries no information:
    returns 0.0 in that case.
    """
    return _herald(*_images(probe, params)[2:])[2]


def qfi_effective_closed_form(probe: FockVector, params: NlaParams) -> float:
    """Closed form of the combined sequential-scheme QFI."""
    probe.require_normalized()
    g, p = params.g, params.p
    n = np.arange(probe.dim, dtype=float)
    mask = n < p
    k = n[mask] - p
    w = probe.weights()[mask]
    return float(
        4.0 * np.sum(k * k * w * g ** (2.0 * k - 2.0) / (1.0 - g ** (2.0 * k)))
    )


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
    return _unconditional_qfi(*_images(probe, params)[2:])


def qfi_effective(probe: FockVector, params: NlaParams) -> FisherBreakdown:
    """Full information budget at one operating point.

    Every component comes from one evaluation of the Kraus images.  ``q_eff``
    is the closed form; the identity ``q_eff = ps_qs + pf_qf + f_c`` holds to
    machine precision and is asserted by the self-check suite rather than
    silently trusted here.
    """
    e, de, a, da = _images(probe, params)
    ps, pf, f_c = _herald(a, da)
    q_s = _branch_qfi(e, de, a, 0)
    try:
        q_f = _branch_qfi(e, de, a, 1)
    except BranchImpossible:
        q_f = pf = 0.0
    return FisherBreakdown(
        q_eff=qfi_effective_closed_form(probe, params),
        ps_qs=ps * q_s,
        pf_qf=pf * q_f,
        f_c=f_c,
        q_s=q_s,
        q_f=q_f,
        q_unc=_unconditional_qfi(a, da),
    )


def meter_coupling_term(probe: FockVector, params: NlaParams) -> float:
    """Cross term ``<psi|E_s dE_f|psi> - <psi|E_f dE_s|psi>`` (real).

    This is the only way the meter preparation enters the joint-state QFI.
    """
    _, _, a, da = _images(probe, params)
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
