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
That output is ``A A^+`` for the ``dim x 2`` matrix of Kraus images
``A = [E_s c, E_f c]``, so it has rank <= 2; :func:`qfi_unconditional`
evaluates its QFI on that thin support from a thin SVD of ``A``, without
forming a dim x dim matrix.  The dense eigendecomposition that the tests
compare it against is :func:`nlametro.dense.qfi_mixed`.

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
    FAILURE,
    SUCCESS,
    BranchImpossible,
    MeterState,
    NlaParams,
    branch_probability,
    branch_probability_derivative,
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


def _branch_log_derivatives(probe: FockVector, params: NlaParams, branch: str):
    """Masses and per-level log-derivatives d(ln E_n^2)/dg of one branch."""
    e = kraus_diagonal(params, branch, probe.dim)
    de = kraus_diagonal_derivative(params, branch, probe.dim)
    masses = e * e * probe.weights()
    prob = float(masses.sum())
    if prob < PROBABILITY_FLOOR:
        raise BranchImpossible(f"{branch} branch is impossible for this probe")
    occupied = masses > 0.0
    logder = np.zeros(probe.dim)
    logder[occupied] = 2.0 * de[occupied] / e[occupied]
    return masses[occupied] / prob, logder[occupied], prob


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
    probe.require_normalized()
    masses, logder, _ = _branch_log_derivatives(probe, params, branch)
    mean = float(np.dot(masses, logder))
    return float(np.dot(masses, (logder - mean) ** 2))


def classical_fi(probe: FockVector, params: NlaParams) -> float:
    """Fisher information of the bare success/failure herald bit.

    ``F_c = (dp_s)^2 / p_s + (dp_f)^2 / p_f``.  A deterministic herald (one
    branch impossible) carries no information: returns 0.0 in that case.
    """
    probe.require_normalized()
    ps = branch_probability(probe, params, SUCCESS)
    pf = branch_probability(probe, params, FAILURE)
    if ps < PROBABILITY_FLOOR or pf < PROBABILITY_FLOOR:
        return 0.0
    dps = branch_probability_derivative(probe, params, SUCCESS)
    return dps * dps / ps + dps * dps / pf


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

    The output is ``rho = A A^+`` with the ``dim x 2`` Kraus-image matrix
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
    term is the norm of a residual rather than a difference of two norms.  No
    dim x dim matrix is formed.
    """
    probe.require_normalized()
    images = np.empty((probe.dim, 2), dtype=np.complex128)
    slopes = np.empty((probe.dim, 2), dtype=np.complex128)
    for col, branch in enumerate(BRANCHES):
        images[:, col] = kraus_diagonal(params, branch, probe.dim) * probe.amps
        slopes[:, col] = kraus_diagonal_derivative(params, branch, probe.dim) * probe.amps
    u, s, vh = np.linalg.svd(images, full_matrices=False)
    rank = int(np.count_nonzero(s * s > ZERO_EIGENVALUE_TOL * s[0] * s[0]))
    u, s, v = u[:, :rank], s[:rank], vh[:rank].conj().T
    dav = slopes @ v
    w = u.conj().T @ dav
    ws = w * s
    d = ws + ws.conj().T
    lam = s * s
    pairs = float(np.sum(np.abs(d) ** 2 / (lam[:, None] + lam[None, :])))
    kernel = float(np.linalg.norm(dav - u @ w) ** 2)
    return 2.0 * pairs + 4.0 * kernel


def qfi_effective(probe: FockVector, params: NlaParams) -> FisherBreakdown:
    """Full information budget at one operating point.

    ``q_eff`` is the closed form; the identity
    ``q_eff = ps_qs + pf_qf + f_c`` holds to machine precision and is
    asserted by the self-check suite rather than silently trusted here.
    """
    probe.require_normalized()
    ps = branch_probability(probe, params, SUCCESS)
    pf = branch_probability(probe, params, FAILURE)
    q_s = qfi_branch(probe, params, SUCCESS)
    try:
        q_f = qfi_branch(probe, params, FAILURE)
    except BranchImpossible:
        q_f = 0.0
        pf = 0.0
    return FisherBreakdown(
        q_eff=qfi_effective_closed_form(probe, params),
        ps_qs=ps * q_s,
        pf_qf=pf * q_f,
        f_c=classical_fi(probe, params),
        q_s=q_s,
        q_f=q_f,
        q_unc=qfi_unconditional(probe, params),
    )


def meter_coupling_term(probe: FockVector, params: NlaParams) -> float:
    """Cross term ``<psi|E_s dE_f|psi> - <psi|E_f dE_s|psi>`` (real).

    This is the only way the meter preparation enters the joint-state QFI.
    """
    probe.require_normalized()
    es = kraus_diagonal(params, SUCCESS, probe.dim)
    ef = kraus_diagonal(params, FAILURE, probe.dim)
    des = kraus_diagonal_derivative(params, SUCCESS, probe.dim)
    def_ = kraus_diagonal_derivative(params, FAILURE, probe.dim)
    return float(np.sum(probe.weights() * (es * def_ - ef * des)))


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
