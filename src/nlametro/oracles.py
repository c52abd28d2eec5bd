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
Kraus images ``E_s c`` and ``E_f c`` in extended precision (``IMAGE_DPS``
digits), starting from the exact input doubles: the probe amplitudes, the
gains ``g +/- dg/2`` and the meter amplitudes.  Only the levels ``n <= p``
depend on the gain, so that work is a handful of numbers per image.  The
result is rounded once, so a fixture value depends only on the input doubles
and rounding enters near 1e-16 relative: the fixture regenerates to 1e-12 on
any IEEE-754 platform.  Pure-state rows use the exact deficit
``1 - |<u|v>|`` of the normalized images (:func:`qfi_fd_kraus_pure`); the
mixed row uses Uhlmann's theorem ``sqrt F(AA^+, BB^+) = ||A^+ B||_*`` on the
``dim x 2`` image matrices (:func:`qfi_fd_kraus_bures`); central differences
carry the image difference through cancellation-free identities.

The selfcheck grid scores all five of its oracle rows on the same images:
one :class:`KrausImageFD` per operating point builds the image Gram matrices
at ``g -/+ dg/2`` once (``dg = 1e-4``) and contracts them per family -- the
success and failure states, the joint state for the trivial and a generic
meter, and the Bures deficit of the unconditional output.  No step is
refused, so every point is scored; the oracle never calls the closed forms
of :mod:`~nlametro.fisher`.  The double-precision finite differences of
whole state vectors that the tests compare these oracles against live in
:mod:`nlametro.dense`, which no package module imports.
"""

from __future__ import annotations

import dataclasses
import math

import mpmath
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
    MeterState,
    NlaParams,
    PROBABILITY_FLOOR,
    SUCCESS,
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
from .probes import ProbeSpec, custom_probe, solve_amplitude_for_nbar

STEP_MIN = 1e-6
STEP_MAX = 1e-3
DEFAULT_QFI_STEP = 1e-4
PROB_STEP = 1e-5
# Working precision of the Kraus-image oracles.  A fidelity deficit near
# 1e-11 cancels eleven digits and a central difference five, so 40 digits
# leave the rounded result exact to well below 1e-16.
IMAGE_DPS = 40
# Deficits this far under 1 at IMAGE_DPS digits are rounding of an exact
# zero (a gain-independent family), not a resolvable signal.
IMAGE_ZERO_DEFICIT = 1e-30

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
# Kraus-image differences in extended precision
# ---------------------------------------------------------------------------
#
# The images are a_s = E_s c and a_f = E_f c.  Both Kraus operators are real
# and diagonal, and above the threshold a_s = c and a_f = 0 for every gain,
# so a gain difference only ever involves the levels n <= p.

def _head(probe: FockVector, params: NlaParams) -> int:
    """Number of gain-dependent levels ``n <= p`` the probe occupies."""
    return min(params.p + 1, probe.dim)


def _mp_weights(amps: np.ndarray) -> list:
    """Exact ``|c_n|^2`` of the amplitude doubles (inside ``workdps``)."""
    return [mpmath.mpf(z.real) ** 2 + mpmath.mpf(z.imag) ** 2 for z in amps]


def _kraus_mp(g, p: int, levels: int) -> dict:
    """Success and failure Kraus entries on levels ``n < levels <= p+1`` at gain ``g``."""
    es = [g ** (n - p) for n in range(levels)]
    return {SUCCESS: es, FAILURE: [mpmath.sqrt(1 - e * e) for e in es]}


def _kraus_pair(params: NlaParams, dg, levels: int) -> tuple[dict, dict]:
    """Kraus entries at the exact gains ``g -/+ dg/2`` of the input doubles."""
    half = mpmath.mpf(dg) / 2
    g = mpmath.mpf(params.g)
    return _kraus_mp(g - half, params.p, levels), _kraus_mp(g + half, params.p, levels)


def _image_gram(k1: dict, k2: dict, weights: list, tail) -> list:
    """Gram matrix ``<a_i(g1)|a_j(g2)>`` of the images at two gains, i, j in (s, f).

    ``weights`` are the exact ``|c_n|^2`` on the levels n <= p and ``tail``
    the probe mass above p, which only the success images carry.
    """
    gram = [
        [mpmath.fsum(a * b * w for a, b, w in zip(k1[i], k2[j], weights)) for j in BRANCHES]
        for i in BRANCHES
    ]
    gram[0][0] += tail
    return gram


def _fd_information(deficit, dg):
    """``8 deficit / dg^2``; deficits inside the working precision are zeros."""
    if deficit < IMAGE_ZERO_DEFICIT:
        return mpmath.mpf(0)
    return 8 * deficit / mpmath.mpf(dg) ** 2


def _view_metric(view) -> list:
    """Inner products ``<m_i|m_j>`` of the meter vectors the two images carry.

    A conditional state keeps one image, unnormalized (``SUCCESS`` or
    ``FAILURE``).  The joint state of :func:`~nlametro.instrument.joint_state`
    for a meter ``alpha|s> + beta|f>`` is
    ``a_s (x) (beta|s> - alpha|f>) + a_f (x) (alpha|s> + beta|f>)``.
    """
    if view == SUCCESS:
        return [[1, 0], [0, 0]]
    if view == FAILURE:
        return [[0, 0], [0, 1]]
    if not isinstance(view, MeterState):
        raise ValueError(f"view must be a branch or a MeterState, got {view!r}")
    alpha, beta = mpmath.mpc(view.alpha), mpmath.mpc(view.beta)
    norm = abs(alpha) ** 2 + abs(beta) ** 2
    cross = alpha * mpmath.conj(beta) - mpmath.conj(alpha) * beta
    return [[norm, cross], [mpmath.conj(cross), norm]]


class KrausImageFD:
    """Fidelity finite differences of every Kraus-image family at one point.

    Each family is a contraction of the same three Gram matrices of the
    images ``a_s = E_s c`` and ``a_f = E_f c`` at the exact gains
    ``g -/+ dg/2``: ``<a_i(g-)|a_j(g+)>``, ``<a_i(g-)|a_j(g-)>`` and
    ``<a_i(g+)|a_j(g+)>``.  They are built once, in ``IMAGE_DPS`` digits from
    the input doubles; :meth:`pure` contracts them with a view's meter metric
    and :meth:`bures` with a branch mask, and each result is rounded once.
    So all families of one operating point share one build, and no value
    depends on which others were asked for.
    """

    def __init__(self, probe: FockVector, params: NlaParams, dg: float = DEFAULT_QFI_STEP):
        _validate_step(dg)
        probe.require_normalized()
        self.dg = dg
        head = _head(probe, params)
        with mpmath.workdps(IMAGE_DPS):
            weights = _mp_weights(probe.amps[:head])
            # the probe mass above p, summed exactly and rounded once
            tail = mpmath.fsum(probe.amps[head:], absolute=True, squared=True)
            lo, hi = _kraus_pair(params, dg, head)
            self._cross = _image_gram(lo, hi, weights, tail)
            self._lo = _image_gram(lo, lo, weights, tail)
            self._hi = _image_gram(hi, hi, weights, tail)

    def pure(self, view) -> float:
        """Pure-state fidelity FD ``8 (1 - |<u(g-)|u(g+)>|) / dg^2`` of one view.

        ``view`` is ``SUCCESS`` or ``FAILURE`` for the normalized conditional
        state, a :class:`MeterState` for the joint signal-meter state.  The
        deficit of the normalized states is taken exactly, without a
        small-angle expansion, so no step is ever refused.
        """
        with mpmath.workdps(IMAGE_DPS):
            metric = _view_metric(view)
            cross, n_lo, n_hi = (
                mpmath.fsum(metric[i][j] * gram[i][j] for i in range(2) for j in range(2))
                for gram in (self._cross, self._lo, self._hi)
            )
            n_lo, n_hi = mpmath.re(n_lo), mpmath.re(n_hi)
            if min(n_lo, n_hi) < PROBABILITY_FLOOR:
                raise BranchImpossible(f"{view} family has zero norm for this probe")
            deficit = 1 - abs(cross) / mpmath.sqrt(n_lo * n_hi)
            return float(_fd_information(deficit, self.dg))

    def bures(self, branches: tuple[str, ...] = BRANCHES) -> float:
        """Bures fidelity FD ``8 (1 - sqrt F) / dg^2`` of ``A A^+``.

        ``A`` holds the images of ``branches`` and zeroes for the others, so
        the default is the unconditional output.
        """
        with mpmath.workdps(IMAGE_DPS):
            return float(self._bures(branches))

    def _bures(self, branches: tuple[str, ...]):
        """Unrounded :meth:`bures` (inside ``workdps``), by Uhlmann's theorem.

        ``sqrt F(AA^+, BB^+) = ||A^+ B||_*`` for the ``dim x 2`` image
        matrices; the 2x2 nuclear norm is ``sqrt(||M||_F^2 + 2 |det M|)``.
        """
        if not branches or any(b not in BRANCHES for b in branches):
            raise ValueError(f"branches must be a non-empty subset of {BRANCHES}")
        mask = [1 if b in branches else 0 for b in BRANCHES]
        cross, g_lo, g_hi = (
            [[gram[i][j] * mask[i] * mask[j] for j in range(2)] for i in range(2)]
            for gram in (self._cross, self._lo, self._hi)
        )
        frob = mpmath.fsum(x * x for row in cross for x in row)
        det = cross[0][0] * cross[1][1] - cross[0][1] * cross[1][0]
        trace = (g_lo[0][0] + g_lo[1][1]) * (g_hi[0][0] + g_hi[1][1])
        if trace < PROBABILITY_FLOOR:
            raise BranchImpossible("image pair has zero norm for this probe")
        deficit = 1 - mpmath.sqrt((frob + 2 * abs(det)) / trace)
        return _fd_information(deficit, self.dg)


def qfi_fd_kraus_pure(
    probe: FockVector, params: NlaParams, view, dg: float = DEFAULT_QFI_STEP
) -> float:
    """Pure-state fidelity FD ``8 (1 - |<u(g-)|u(g+)>|) / dg^2`` on the Kraus images.

    :meth:`KrausImageFD.pure` of ``view`` on a build of its own.  The value
    depends only on the input doubles and carries about 1e-16 relative
    rounding.
    """
    return KrausImageFD(probe, params, dg).pure(view)


def qfi_fd_kraus_bures(
    probe: FockVector,
    params: NlaParams,
    dg: float = STEP_MAX,
    branches: tuple[str, ...] = BRANCHES,
    richardson: bool = False,
) -> float:
    """Bures fidelity FD ``8 (1 - sqrt F) / dg^2`` of ``A A^+`` on the Kraus images.

    :meth:`KrausImageFD.bures` of ``branches``: the default is the
    unconditional output and ``(SUCCESS,)`` the rank-1 pair ``(E_s c, 0)``.
    The root fidelity is the nuclear norm of the 2x2 matrix
    ``A(g-)^+ A(g+)`` (Uhlmann), so no double-precision eigensolver and no
    noise floor enter.  ``richardson=True`` combines the steps ``(dg, dg/2)``
    as ``(4 F(dg/2) - F(dg)) / 3``, also in extended precision, and the
    result is rounded once.
    """
    _validate_step(dg)
    if richardson:
        _validate_step(0.5 * dg)
    with mpmath.workdps(IMAGE_DPS):
        coarse = KrausImageFD(probe, params, dg)._bures(branches)
        if not richardson:
            return float(coarse)
        fine = KrausImageFD(probe, params, 0.5 * dg)._bures(branches)
        return float((4 * fine - coarse) / 3)


def _mass_slopes(probe: FockVector, params: NlaParams, dg: float) -> dict:
    """Per branch, ``(|A_n(g+)|^2 - |A_n(g-)|^2) / dg`` on the levels n <= p.

    The image difference is carried as
    ``(E(g+) - E(g-)) (E(g+) + E(g-)) |c_n|^2`` (inside ``workdps``); the
    levels above p do not depend on the gain and have zero slope.
    """
    head = _head(probe, params)
    lo, hi = _kraus_pair(params, dg, head)
    weights = _mp_weights(probe.amps[:head])
    inv = 1 / mpmath.mpf(dg)
    return {
        branch: [(h - l) * (h + l) * w * inv for l, h, w in zip(lo[branch], hi[branch], weights)]
        for branch in BRANCHES
    }


def probability_derivative_fd(
    probe: FockVector, params: NlaParams, branch: str, dg: float = PROB_STEP
) -> float:
    """Central-difference derivative of the branch probability.

    The sum of the joint photon-mass slopes of the branch, taken in extended
    precision from the probe doubles and rounded once.
    """
    _validate_step(dg)
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")
    probe.require_normalized()
    with mpmath.workdps(IMAGE_DPS):
        return float(mpmath.fsum(_mass_slopes(probe, params, dg)[branch]))


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


def _image_slope_and_sum(probe: FockVector, params: NlaParams, dg: float) -> dict:
    """Per branch: ``(A(g+) - A(g-)) / dg`` on the levels n <= p, ``A(g+) + A(g-)`` on all.

    Each entry is formed in extended precision from the probe doubles and
    rounded once, so the difference keeps full relative accuracy.
    """
    head = _head(probe, params)
    out = {}
    with mpmath.workdps(IMAGE_DPS):
        lo, hi = _kraus_pair(params, dg, head)
        inv = 1 / mpmath.mpf(dg)
        amps = [mpmath.mpc(z) for z in probe.amps[:head]]
        for branch in BRANCHES:
            pairs = list(zip(lo[branch], hi[branch], amps))
            slope = np.array([complex((h - l) * inv * c) for l, h, c in pairs])
            total = np.zeros(probe.dim, dtype=np.complex128)
            total[:head] = [complex((h + l) * c) for l, h, c in pairs]
            if branch == SUCCESS:
                total[head:] = 2.0 * probe.amps[head:]
            out[branch] = (slope, total)
    return out


def joint_fi_direct(
    probe: FockVector, params: NlaParams, detector: str, dg: float = PROB_STEP
) -> float:
    """Fisher information of the joint (branch, outcome) record, brute force.

    Evaluates sum over branches and outcomes of ``(d m)^2 / m`` where
    ``m = p_branch * p(outcome | branch)`` -- the squared modulus of the
    Kraus image (photon counting) or of its field ``sum_n A_n <x|n>``
    (homodyne).  The gain derivative is a central difference of the images
    themselves, carried through ``|A|^2 - |B|^2 = Re[(A - B) conj(A + B)]``
    with the image difference taken in extended precision, so no analytic
    derivative enters and no cancellation reaches the slope.  The centre
    masses and densities come from the measurement module; the homodyne
    densities are its :func:`~nlametro.measurements.homodyne_distribution`
    on the window-0 quadrature grid, whose wavefunction table the slope
    fields use too.
    """
    _validate_step(dg)
    if detector == PHOTON_COUNTING:
        center = _joint_photon_masses(probe, params)
        slope = np.zeros(center.size)
        with mpmath.workdps(IMAGE_DPS):
            slopes = _mass_slopes(probe, params, dg)
            for b, branch in enumerate(BRANCHES):
                for n, value in enumerate(slopes[branch]):
                    slope[b * probe.dim + n] = float(value)
        keep = center > MASS_FLOOR
        return float(np.sum(slope[keep] ** 2 / center[keep]))
    if detector != HOMODYNE:
        raise ValueError(f"unknown detector {detector!r}")
    probe.require_normalized()
    grid, psi = _grid_and_wavefunctions(probe.dim, 0)
    images = _image_slope_and_sum(probe, params, dg)
    total = 0.0
    for branch in BRANCHES:
        try:
            prob = branch_probability(probe, params, branch)
            center = prob * homodyne_distribution(probe, params, branch).masses
        except BranchImpossible:
            continue
        slope_amps, sum_amps = images[branch]
        slope = (
            (slope_amps @ psi[: slope_amps.size]) * np.conj(sum_amps @ psi)
        ).real
        keep = center > MASS_FLOOR
        integrand = np.zeros(grid.nodes.size)
        integrand[keep] = slope[keep] ** 2 / center[keep]
        total += grid.integrate(integrand)
    return float(total)


def _coupling_fd(probe: FockVector, params: NlaParams, dg: float = PROB_STEP) -> float:
    """Cross term <E_s dE_f> - <E_f dE_s> with central-difference derivatives.

    The Kraus differences and the centre entries are taken in extended
    precision on the levels n <= p, where alone the derivatives are nonzero.
    """
    _validate_step(dg)
    head = _head(probe, params)
    with mpmath.workdps(IMAGE_DPS):
        lo, hi = _kraus_pair(params, dg, head)
        mid = _kraus_mp(mpmath.mpf(params.g), params.p, head)
        weights = _mp_weights(probe.amps[:head])
        terms = zip(
            mid[SUCCESS], mid[FAILURE], lo[SUCCESS], hi[SUCCESS], lo[FAILURE], hi[FAILURE], weights
        )
        cross = mpmath.fsum(
            w * (es * (fh - fl) - ef * (sh - sl)) for es, ef, sl, sh, fl, fh, w in terms
        )
        return float(cross / mpmath.mpf(dg))


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
        note="unconditional state is |0><0| for every gain",
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
    add(OracleReport.build(
        "two-level g=2 p=1: q_s vs pure-state fidelity FD",
        two.q_s, qfi_fd_kraus_pure(two_level, g2p1, SUCCESS, DEFAULT_QFI_STEP),
        DEFAULT_QFI_STEP, 1e-5,
    ))
    add(OracleReport.build(
        "coherent nbar=1 g=2 p=3: q_eff vs joint-state fidelity FD",
        qfi_effective_closed_form(coh1, g2p3),
        qfi_fd_kraus_pure(coh1, g2p3, MeterState.trivial(), DEFAULT_QFI_STEP),
        DEFAULT_QFI_STEP, 1e-5,
    ))
    add(OracleReport.build(
        "coherent nbar=1 g=2 p=3: q_s vs pure-state fidelity FD",
        qfi_branch(coh1, g2p3, SUCCESS),
        qfi_fd_kraus_pure(coh1, g2p3, SUCCESS, DEFAULT_QFI_STEP),
        DEFAULT_QFI_STEP, 1e-5,
    ))
    add(OracleReport.build(
        "coherent nbar=1 g=2 p=3: q_f vs pure-state fidelity FD",
        qfi_branch(coh1, g2p3, FAILURE),
        qfi_fd_kraus_pure(coh1, g2p3, FAILURE, DEFAULT_QFI_STEP),
        DEFAULT_QFI_STEP, 1e-5,
    ))
    q_unc_coh = qfi_unconditional(coh1, g2p3)
    add(OracleReport.build(
        "coherent nbar=1 g=2 p=3: q_unc vs Bures fidelity FD",
        q_unc_coh,
        qfi_fd_kraus_bures(coh1, g2p3, STEP_MAX, richardson=True),
        STEP_MAX, 1e-5,
        note="this oracle fixes the pinned q_unc value; Richardson pair "
        "(1e-3, 5e-4)",
    ))
    add(OracleReport.build(
        "two-level g=2 p=1: pure vs mixed fidelity FD on the success family",
        qfi_fd_kraus_pure(two_level, g2p1, SUCCESS, DEFAULT_QFI_STEP),
        qfi_fd_kraus_bures(two_level, g2p1, DEFAULT_QFI_STEP, branches=(SUCCESS,)),
        DEFAULT_QFI_STEP, 1e-6,
        note="oracle self-consistency: Uhlmann root fidelity on the rank-1 image "
        "pair (E_s c, 0) against the pure-state deficit",
    ))

    # --- generic meter -------------------------------------------------------
    meter = MeterState(alpha=1.0 / math.sqrt(2.0), beta=1j / math.sqrt(2.0))
    add(OracleReport.build(
        "coherent nbar=1 g=2 p=3: joint QFI with quarter-cycle meter vs FD",
        qfi_joint_meter(coh1, g2p3, meter),
        qfi_fd_kraus_pure(coh1, g2p3, meter, DEFAULT_QFI_STEP),
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
        for branch in (SUCCESS, FAILURE):
            add(OracleReport.build(
                f"{name}: d p_{branch}/dg vs central difference",
                branch_probability_derivative(probe, params, branch),
                probability_derivative_fd(probe, params, branch),
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
        _coupling_fd(coh1, g2p3),
        PROB_STEP, 1e-7,
        note="provenance of the pinned meter-gap value",
    ))
    return reports


def reports_payload(reports: list[OracleReport]) -> dict:
    return {
        "schema_version": GOLDEN_SCHEMA_VERSION,
        "reports": [r.as_dict() for r in reports],
    }
