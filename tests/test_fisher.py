import collections
import dataclasses
import json
import math
import pathlib
import sys

import mpmath
import numpy as np
import pytest
import dense
from conftest import points_of
from dense import (
    conditional_state_derivative,
    qfi_mixed,
    qfi_pure,
    unconditional_state,
    unconditional_state_derivative,
)

import nlametro.instrument
from nlametro.fock import DensityOperator, FockVector
from nlametro.instrument import (
    FAILURE,
    BranchImpossible,
    KrausImages,
    SUCCESS,
    MeterBatch,
    MeterNotNormalized,
    MeterState,
    NlaParams,
    branch_probability,
    branch_probability_derivative,
    conditional_state,
    kraus_diagonal,
    kraus_diagonal_derivative,
)
from nlametro.fisher import (
    classical_fi,
    meter_coupling_term,
    qfi_branch,
    qfi_effective,
    qfi_effective_closed_form,
    qfi_joint_meter,
    qfi_unconditional,
)
from nlametro.measurements import (
    HOMODYNE,
    PHOTON_COUNTING,
    fi_homodyne,
    fi_photon_counting,
    homodyne_density,
    homodyne_distribution,
    photon_counting_dist,
    sequential_fi,
)
from nlametro.montecarlo import fisher_per_shot
from nlametro.probes import ProbeSpec, custom_probe
from nlametro.selfcheck import STANDARD_THRESHOLDS, standard_probe_grids

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden.json"


def _golden_value(quantity: str) -> float:
    payload = json.loads(GOLDEN.read_text())
    for report in payload["reports"]:
        if report["quantity"] == quantity:
            return report["analytic"]
    raise KeyError(quantity)


def test_vacuum_hand_values(vacuum, g2p1):
    bd = qfi_effective(vacuum, g2p1)
    assert bd.f_c == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert bd.q_eff == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert bd.q_s == pytest.approx(0.0, abs=1e-12)
    assert bd.q_f == pytest.approx(0.0, abs=1e-12)
    assert bd.q_unc == pytest.approx(0.0, abs=1e-12)


def test_two_level_hand_values(two_level, g2p1):
    bd = qfi_effective(two_level, g2p1)
    assert bd.q_s == pytest.approx(0.16, abs=1e-12)
    assert bd.q_f == pytest.approx(0.0, abs=1e-12)
    assert bd.f_c == pytest.approx(1.0 / 15.0, abs=1e-12)
    assert bd.q_eff == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert bd.ps_qs == pytest.approx(0.1, abs=1e-12)


def test_vacuum_closed_form_inline():
    # q_eff(vacuum) = 4 p^2 g^(-2p-2) / (1 - g^(-2p))
    vac = FockVector([1.0])
    params = NlaParams(g=1.5, p=2)
    expected = 4.0 * 4.0 * 1.5 ** -6 / (1.0 - 1.5 ** -4)
    assert qfi_effective_closed_form(vac, params) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("kind,nbar", [("coherent", 0.5), ("squeezed-vacuum", 2.0)])
@pytest.mark.parametrize("g,p", [(1.2, 1), (2.0, 3), (4.0, 5)])
def test_breakdown_identity(kind, nbar, g, p):
    probe = ProbeSpec.from_nbar(kind, nbar).build()
    bd = qfi_effective(probe, NlaParams(g=g, p=p))
    assert bd.component_sum() == pytest.approx(bd.q_eff, rel=1e-12)
    assert qfi_effective_closed_form(probe, NlaParams(g=g, p=p)) == pytest.approx(
        bd.q_eff, rel=1e-12
    )


def test_branch_qfi_via_pure_state_form(coherent_nbar1):
    params = NlaParams(g=2.0, p=3)
    for branch in (SUCCESS, FAILURE):
        state = conditional_state(coherent_nbar1, params, branch).state
        deriv = conditional_state_derivative(coherent_nbar1, params, branch)
        assert qfi_branch(coherent_nbar1, params, branch) == pytest.approx(
            qfi_pure(state, deriv), rel=1e-9
        )


def _herald_reference(probe, params, dps=50):
    """``f_c`` and the closed-form ``q_eff`` at ``dps`` digits, from the probe's amplitudes."""
    with mpmath.workdps(dps):
        g, p = mpmath.mpf(params.g), params.p
        ps = slope = q_eff = mpmath.mpf(0)
        for n, amp in enumerate(probe.amps):
            w = abs(mpmath.mpc(complex(amp))) ** 2
            k = min(n - p, 0)
            ps += g ** (2 * k) * w
            slope += 2 * k * g ** (2 * k - 1) * w
            if k < 0:
                q_eff += 4 * k * k * w * g ** (2 * k - 2) / (1 - g ** (2 * k))
        return float(slope ** 2 / ps + slope ** 2 / (1 - ps)), float(q_eff)


def test_herald_information_survives_a_slope_whose_square_underflows():
    # dp_s^2 underflows to 0 in double precision here; abs=0 because pytest.approx
    # would otherwise accept any value within 1e-12
    probe = ProbeSpec.from_nbar("coherent", 1.0).build()
    params = NlaParams(g=500.75, p=60)
    f_c, q_eff = _herald_reference(probe, params)
    assert 1e-254 < f_c < 1e-252
    bd = qfi_effective(probe, params)
    assert bd.f_c == pytest.approx(f_c, rel=1e-12, abs=0.0)
    assert bd.q_eff == pytest.approx(q_eff, rel=1e-12, abs=0.0)
    assert bd.ps_qs + bd.pf_qf + bd.f_c == pytest.approx(bd.q_eff, rel=1e-12, abs=0.0)
    assert classical_fi(probe, params) == pytest.approx(f_c, rel=1e-12, abs=0.0)
    # the joint-record sum and the homodyne quadrature, at test_measurements' tolerances
    assert sequential_fi(probe, params) == pytest.approx(q_eff, rel=1e-10, abs=0.0)
    assert sequential_fi(probe, params, HOMODYNE) == pytest.approx(q_eff, rel=1e-7, abs=0.0)


def test_classical_fi_from_branch_probability(two_level, g2p1):
    # F_c = (dps)^2 / (ps pf); ps = 5/8, dps = d/dg (1 + g^-2)/2 = -g^-3
    dps = -(2.0 ** -3)
    expected = dps ** 2 / (0.625 * 0.375)
    assert classical_fi(two_level, g2p1) == pytest.approx(expected, rel=1e-12)


def test_qfi_mixed_agrees_with_pure_on_rank_one(squeezed_nbar1):
    params = NlaParams(g=1.5, p=2)
    state = conditional_state(squeezed_nbar1, params, SUCCESS).state
    deriv = conditional_state_derivative(squeezed_nbar1, params, SUCCESS)
    rho = DensityOperator.from_pure(state)
    # d(rho) = |dpsi><psi| + |psi><dpsi|
    dmat = np.outer(deriv, state.amps.conj()) + np.outer(state.amps, deriv.conj())
    assert qfi_mixed(rho, dmat) == pytest.approx(qfi_pure(state, deriv), rel=1e-9)


def test_qfi_mixed_refuses_a_derivative_that_no_state_family_has(squeezed_nbar1):
    # a state family's derivative is Hermitian and traceless
    params = NlaParams(g=1.5, p=2)
    rho = unconditional_state(squeezed_nbar1, params)
    drho = unconditional_state_derivative(squeezed_nbar1, params)
    skew = np.zeros_like(drho)
    skew[0, 1], skew[1, 0] = 1e-6, -1e-6
    with pytest.raises(dense.NonHermitianDerivative, match="hermiticity defect"):
        qfi_mixed(rho, drho + skew)
    with pytest.raises(dense.NonHermitianDerivative, match="trace"):
        qfi_mixed(rho, drho + 1e-6 * np.eye(rho.dim))


def test_unconditional_qfi_pinned_by_golden_oracle(coherent_nbar1):
    pinned = _golden_value("coherent nbar=1 g=2 p=3: q_unc vs Bures fidelity FD")
    value = qfi_unconditional(coherent_nbar1, NlaParams(g=2.0, p=3))
    assert value == pytest.approx(pinned, rel=1e-12)
    rho = unconditional_state(coherent_nbar1, NlaParams(g=2.0, p=3))
    drho = unconditional_state_derivative(coherent_nbar1, NlaParams(g=2.0, p=3))
    assert qfi_mixed(rho, drho) == pytest.approx(value, rel=1e-9)


def test_meter_bound_and_equality(coherent_nbar1):
    params = NlaParams(g=2.0, p=3)
    q_eff = qfi_effective_closed_form(coherent_nbar1, params)
    assert qfi_joint_meter(coherent_nbar1, params, MeterState.trivial()) == pytest.approx(
        q_eff, rel=1e-12
    )
    real_meter = MeterState(alpha=math.sqrt(0.3), beta=math.sqrt(0.7))
    assert qfi_joint_meter(coherent_nbar1, params, real_meter) == pytest.approx(
        q_eff, rel=1e-12
    )
    quarter = MeterState(alpha=1 / math.sqrt(2), beta=1j / math.sqrt(2))
    assert qfi_joint_meter(coherent_nbar1, params, quarter) <= q_eff


@pytest.mark.parametrize("kind, nbar, g, p", [
    ("coherent", 1.0, 2.0, 3),
    ("squeezed-vacuum", 2.0, 1.05, 5),
])
def test_joint_meter_over_a_batch_equals_scalar_calls(kind, nbar, g, p):
    probe = ProbeSpec.from_nbar(kind, nbar).build()
    params = NlaParams(g=g, p=p)
    rng = np.random.default_rng(5)
    meters = [
        MeterState.trivial(),
        MeterState(alpha=1.0, beta=0.0),
        MeterState(alpha=math.sqrt(0.5), beta=math.sqrt(0.5)),
        MeterState(alpha=-math.sqrt(0.3), beta=math.sqrt(0.7)),
    ]
    for z in rng.standard_normal((20, 4)):
        nrm = math.sqrt(z @ z)
        alpha, beta = complex(z[0], z[1]) / nrm, complex(z[2], z[3]) / nrm
        meters.append(MeterState(alpha=alpha, beta=beta))
    batch = MeterBatch([m.alpha for m in meters], [m.beta for m in meters])
    stacked = qfi_joint_meter(probe, params, batch)
    assert isinstance(stacked, np.ndarray) and stacked.shape == (len(meters),)
    scalar = [qfi_joint_meter(probe, params, meter) for meter in meters]
    assert all(isinstance(value, float) for value in scalar)
    assert stacked.tolist() == scalar
    q_eff = qfi_effective_closed_form(probe, params)
    assert stacked[:4].tolist() == pytest.approx([q_eff] * 4, rel=1e-12)
    assert np.all(stacked[4:] <= q_eff)


def _splitmix64(seed, k):
    # output k of SplitMix64 in Python integers, the textbook form
    mask = (1 << 64) - 1
    z = (seed + (k + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def test_meter_uniforms_are_splitmix64_outputs():
    from nlametro.selfcheck import GENERIC_METER_SEED, METER_SEED, _uniforms

    # the reference stream keyed by 0 begins 0xe220a8397b1dcdaf
    assert _splitmix64(0, 0) == 0xE220A8397B1DCDAF
    for seed in (0, METER_SEED, GENERIC_METER_SEED, (1 << 64) - 1):
        drawn = _uniforms(seed, 5, 40)
        expected = [(_splitmix64(seed, k) >> 11) * 2.0 ** -53 for k in range(5, 45)]
        assert drawn.tolist() == expected


def test_a_block_of_meters_equals_the_same_meters_drawn_one_at_a_time():
    # the meter suite draws each probe's meters as one block of the stream
    from nlametro.selfcheck import METER_SAMPLES_PER_POINT, METER_SEED, draw_meters

    shapes = [(points.g.size, METER_SAMPLES_PER_POINT) for *_, points in standard_probe_grids()]
    blocks, start = [], 0
    for shape in shapes:
        blocks.append(draw_meters(METER_SEED, shape, start=start))
        start += math.prod(shape)
    alpha = np.concatenate([block.alpha.ravel() for block in blocks])
    beta = np.concatenate([block.beta.ravel() for block in blocks])
    one_by_one = [draw_meters(METER_SEED, (1,), start=k) for k in range(start)]
    np.testing.assert_array_equal(alpha, [m.alpha[0] for m in one_by_one])
    np.testing.assert_array_equal(beta, [m.beta[0] for m in one_by_one])
    # the meters reach far off the real-phase meters, where Im[alpha conj(beta)] = 0
    imbalance = np.abs(MeterBatch(alpha, beta).branch_imbalance())
    assert imbalance.max() > 0.45 and np.median(imbalance) > 0.1


def _random_meters(rng, shape):
    z = rng.standard_normal(shape + (4,))
    amps = z.view(np.complex128) / np.linalg.norm(z, axis=-1, keepdims=True)
    return MeterBatch(amps[..., 0], amps[..., 1])


@pytest.mark.parametrize("kind, nbar, p", [("two-level", None, 1), ("squeezed-vacuum", 2.0, 5)])
def test_joint_meter_over_a_batch_of_points_equals_single_point_calls(kind, nbar, p):
    probe = (FockVector([2 ** -0.5, 2 ** -0.5]) if nbar is None
             else ProbeSpec.from_nbar(kind, nbar).build())
    batch = NlaParams(g=[1.0 + 1e-9, 1.05, 2.0, 6.0], p=p)
    points = points_of(batch)
    coupling = meter_coupling_term(probe, batch)
    assert coupling.shape == (len(points),)
    np.testing.assert_array_equal(coupling, [meter_coupling_term(probe, pt) for pt in points])
    rng = np.random.default_rng(3)
    many = _random_meters(rng, (len(points), 6))
    stacked = qfi_joint_meter(probe, batch, many)
    assert stacked.shape == (len(points), 6)
    for i, params in enumerate(points):
        single = MeterBatch(many.alpha[i], many.beta[i])
        np.testing.assert_array_equal(stacked[i], qfi_joint_meter(probe, params, single))
        one_by_one = [qfi_joint_meter(probe, params, MeterState(a, b))
                      for a, b in zip(many.alpha[i], many.beta[i])]
        np.testing.assert_array_equal(stacked[i], one_by_one)
    # one meter per point, and one meter for all
    per_point = MeterBatch(many.alpha[:, 0], many.beta[:, 0])
    np.testing.assert_array_equal(qfi_joint_meter(probe, batch, per_point), stacked[:, 0])
    first = MeterState(many.alpha[0, 0], many.beta[0, 0])
    np.testing.assert_array_equal(
        qfi_joint_meter(probe, batch, first),
        [qfi_joint_meter(probe, pt, first) for pt in points],
    )
    with pytest.raises(ValueError, match="5 rows of meters for 4 points"):
        qfi_joint_meter(probe, batch, MeterBatch(np.full(5, 0.6), np.full(5, 0.8j)))


def test_a_list_of_meters_is_refused_naming_the_meter_types(coherent_nbar1):
    meters = [MeterState(0.6, 0.8j), MeterState.trivial()]
    for params in (NlaParams(g=[1.5, 2.0], p=3), NlaParams(g=2.0, p=3)):
        for view in (meters, meters[:1]):
            with pytest.raises(TypeError, match="MeterState or a MeterBatch"):
                qfi_joint_meter(coherent_nbar1, params, view)


def test_a_batch_with_one_unnormalized_meter_never_reaches_the_joint_qfi():
    rng = np.random.default_rng(4)
    good = _random_meters(rng, (3, 5))
    alpha = good.alpha.copy()
    alpha[1, 3] *= 1.0 + 1e-9
    with pytest.raises(MeterNotNormalized, match=r"meter \(1, 3\)"):
        MeterBatch(alpha, good.beta)


def test_quarter_cycle_meter_on_vacuum_erases_everything(vacuum, g2p1):
    # |Im[alpha beta*]| = 1/2 costs 16 X^2/4 = 4 X^2, and 4 X^2 = q_eff here
    x = meter_coupling_term(vacuum, g2p1)
    assert 4.0 * x * x == pytest.approx(1.0 / 3.0, abs=1e-12)
    quarter = MeterState(alpha=1 / math.sqrt(2), beta=1j / math.sqrt(2))
    assert qfi_joint_meter(vacuum, g2p1, quarter) == pytest.approx(0.0, abs=1e-12)


def test_hierarchy_on_sample_points():
    for kind in ("coherent", "squeezed-vacuum"):
        probe = ProbeSpec.from_nbar(kind, 1.0).build()
        for g in (1.3, 2.5):
            bd = qfi_effective(probe, NlaParams(g=g, p=3))
            assert bd.ps_qs <= bd.q_eff * (1 + 1e-12)
            assert bd.q_unc <= bd.q_eff * (1 + 1e-12)


def test_thin_unconditional_qfi_matches_dense_path_on_standard_grid():
    for probe, labels, points in standard_probe_grids():
        for label, params in zip(labels, points_of(points)):
            reference = qfi_mixed(
                unconditional_state(probe, params),
                unconditional_state_derivative(probe, params),
            )
            assert qfi_unconditional(probe, params) == pytest.approx(reference, rel=1e-12), label


def _unconditional_qfi_reference(probe, params, dps=50):
    """q_unc in ``dps`` digits from the 2x2 Gram matrices of the Kraus images.

    With G = A^+ A = V diag(lam) V^+, H = A^+ dA and K = dA^+ dA, the support
    block of drho is D = W S + (W S)^+ with W = S^-1 V^+ H V, and the
    support-kernel term is tr(V^+ K V) - ||W||_F^2; the Gram route squares
    the condition number, which extended precision absorbs.
    """
    with mpmath.workdps(dps):
        g, p = mpmath.mpf(params.g), params.p
        images, slopes = [], []
        for n, amp in enumerate(probe.amps):
            c = mpmath.mpc(complex(amp))
            es, ef, des, def_ = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(0)
            if n <= p:
                k = n - p
                es, ef, des = g ** k, mpmath.sqrt(1 - g ** (2 * k)), k * g ** (k - 1)
                if n < p:
                    def_ = -k * g ** (2 * k - 1) / ef
            images.append((es * c, ef * c))
            slopes.append((des * c, def_ * c))

        def gram(x, y):
            return mpmath.matrix([
                [mpmath.fsum(mpmath.conj(a[i]) * b[j] for a, b in zip(x, y)) for j in range(2)]
                for i in range(2)
            ])

        lam, v = mpmath.eigh(gram(images, images))
        assert min(lam) > 0, "reference handles rank-2 outputs only"
        root = mpmath.diag([mpmath.sqrt(x) for x in lam])
        w = root ** -1 * v.H * gram(images, slopes) * v
        d = w * root + (w * root).H
        pairs = mpmath.fsum(
            abs(d[j, k]) ** 2 / (lam[j] + lam[k]) for j in range(2) for k in range(2)
        )
        projected = v.H * gram(slopes, slopes) * v
        kernel = mpmath.re(projected[0, 0] + projected[1, 1]) - mpmath.fsum(
            abs(x) ** 2 for x in w
        )
        return float(2 * pairs + 4 * kernel)


@pytest.mark.parametrize(
    "kind,nbar,g,p", [("coherent", 0.5, 1.2, 5), ("squeezed-vacuum", 2.0, 1.05, 5)]
)
def test_thin_unconditional_qfi_matches_extended_precision_reference(kind, nbar, g, p):
    probe = ProbeSpec.from_nbar(kind, nbar).build()
    params = NlaParams(g=g, p=p)
    assert qfi_unconditional(probe, params) == pytest.approx(
        _unconditional_qfi_reference(probe, params), rel=1e-13
    )


def test_thin_unconditional_qfi_exact_zeros(vacuum, g2p1):
    # supported only above the threshold: A = [c, 0] and dA = 0 at every gain
    assert qfi_unconditional(FockVector([0.0, 0.0, 1.0]), NlaParams(g=2.0, p=1)) == 0.0
    # vacuum: one occupied row, so the output is |0><0| at every gain
    assert qfi_unconditional(vacuum, g2p1) == 0.0


# Fock |n> at a threshold above n occupies one image row, so its output is
# |n><n| at every gain; the kernel's support and kernel terms would leave a
# rounding residue of up to 3e-31 there.
@pytest.mark.parametrize("n", range(4))
def test_q_unc_of_a_one_level_probe_is_exactly_zero(n):
    for dim in (n + 1, n + 5):
        probe = FockVector(np.eye(dim)[n])
        for p in (n + 1, n + 2, n + 4):
            points = NlaParams(g=[1.05, 2.0, 6.0], p=p)
            assert qfi_unconditional(probe, points).tolist() == [0.0] * 3, (dim, p)
            assert qfi_effective(probe, points).q_unc.tolist() == [0.0] * 3, (dim, p)
            assert [qfi_unconditional(probe, pt) for pt in points_of(points)] == [0.0] * 3


# Coherent nbar=1 at p=60: p_s falls from 1e-20 to 1e-288, far below any
# relative cut on the singular values, yet q_unc keeps its success branch
# (q_unc ~ q_eff from g=30 on).  The Gram-route reference squares the
# condition number, which 900 digits absorb.
@pytest.mark.parametrize("g", [1.5, 3.0, 30.0, 100.0, 500.75, 1000.0])
def test_unconditional_qfi_keeps_a_vanishing_success_branch(coherent_nbar1, g):
    params = NlaParams(g=g, p=60)
    want = _unconditional_qfi_reference(coherent_nbar1, params, dps=900)
    assert want > 0.0
    assert qfi_unconditional(coherent_nbar1, params) == pytest.approx(want, rel=1e-14, abs=0.0)
    assert qfi_effective(coherent_nbar1, params).q_unc == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("amps,p", [([0.0, 1.0], 2), ([0.0, 0.0, 1.0, 0.0], 3)])
def test_structural_rank_one_output_keeps_q_unc_at_rounding(amps, p):
    # one occupied level: A A^T has rank 1 whatever the factorisation leaves
    # as a second singular value (about 1e-16 here), and the output is the
    # gain-free |n><n|
    assert qfi_unconditional(FockVector(amps), NlaParams(g=1.1, p=p)) == 0.0


# Coherent nbar=1, p=60, g=1e4: p_s ~ 1e-366 underflows to 0.
UNDERFLOW = NlaParams(g=1e4, p=60)


@pytest.mark.parametrize("evaluate", [
    pytest.param(lambda probe: qfi_effective_closed_form(probe, UNDERFLOW), id="closed-form"),
    pytest.param(lambda probe: sequential_fi(probe, UNDERFLOW), id="sequential-counting"),
    pytest.param(lambda probe: sequential_fi(probe, UNDERFLOW, HOMODYNE), id="sequential-homodyne"),
    pytest.param(lambda probe: qfi_unconditional(probe, UNDERFLOW), id="q_unc"),
    pytest.param(None, id="qfi_effective"),
])
def test_underflowed_success_probability_is_pinned(coherent_nbar1, evaluate):
    assert branch_probability(coherent_nbar1, UNDERFLOW, SUCCESS) == 0.0
    if evaluate is None:
        with pytest.raises(BranchImpossible, match=r"g=10000\.0, p=60 \(point 0\)"):
            qfi_effective(coherent_nbar1, UNDERFLOW)
    else:
        assert evaluate(coherent_nbar1) == 0.0


def test_qfi_effective_builds_no_dense_operator(monkeypatch):
    probe = ProbeSpec.from_nbar("squeezed-vacuum", 2.0).build()
    assert probe.dim == 149
    params = NlaParams(g=1.5, p=3)
    reference = qfi_mixed(
        unconditional_state(probe, params), unconditional_state_derivative(probe, params)
    )

    def forbidden(*args, **kwargs):
        raise AssertionError("dense path reached")

    monkeypatch.setattr(DensityOperator, "__post_init__", forbidden)
    for original in (dense.qfi_mixed, dense.unconditional_state,
                     dense.unconditional_state_derivative):
        for name, module in list(sys.modules.items()):
            if name.startswith("nlametro") and getattr(module, original.__name__, None) is original:
                monkeypatch.setattr(module, original.__name__, forbidden)
    assert qfi_effective(probe, params).q_unc == pytest.approx(reference, rel=1e-12)


# Rounding bound of the batched kernel against single points: the two differ
# only in the summation order of sums of at most p + 2 terms and in the
# batched SVD and products, so a few ulp of the largest term.
BATCH_REL = 1e-14
FIELDS = ("q_eff", "ps_qs", "pf_qf", "f_c", "q_s", "q_f", "q_unc")


def _assert_close_to_single_points(stacked, singles, points, what=""):
    """Within BATCH_REL of the single-point values, and exact zeros stay exact."""
    for got, want, params in zip(stacked, singles, points, strict=True):
        if want == 0.0:
            assert got == 0.0, (what, params)
        else:
            assert abs(got - want) <= BATCH_REL * abs(want), (what, params)


def _assert_batch_matches_points(probe, points):
    batch = qfi_effective(probe, points)
    singles = [qfi_effective(probe, params) for params in points_of(points)]
    for field in FIELDS:
        _assert_close_to_single_points(
            getattr(batch, field), [getattr(single, field) for single in singles],
            points_of(points), field,
        )
    return batch


# (dim, p): a compressed tail (dim > p + 2), one level above the threshold
# (dim == p + 2), and no level above it (dim == p + 1, dim < p + 1)
@pytest.mark.parametrize("dim,p", [(12, 3), (5, 3), (4, 3), (3, 3)])
@pytest.mark.parametrize("g", [1.2, 3.0])
def test_budget_on_compressed_images_matches_full_vector_references(dim, p, g):
    rng = np.random.default_rng(dim)
    probe, _ = custom_probe(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    params = NlaParams(g=g, p=p)
    bd = qfi_effective(probe, params)
    reference = qfi_mixed(
        unconditional_state(probe, params), unconditional_state_derivative(probe, params)
    )
    assert bd.q_unc == pytest.approx(reference, rel=1e-12)
    for branch, q_branch in ((SUCCESS, bd.q_s), (FAILURE, bd.q_f)):
        state = conditional_state(probe, params, branch).state
        deriv = conditional_state_derivative(probe, params, branch)
        assert q_branch == pytest.approx(qfi_pure(state, deriv), rel=1e-12)
    ps, pf = (branch_probability(probe, params, b) for b in (SUCCESS, FAILURE))
    dps = branch_probability_derivative(probe, params, SUCCESS)
    assert (bd.ps_qs, bd.pf_qf) == pytest.approx((ps * bd.q_s, pf * bd.q_f), rel=1e-12)
    assert bd.f_c == pytest.approx(dps * dps / (ps * pf), rel=1e-12)
    assert bd.component_sum() == pytest.approx(bd.q_eff, rel=1e-12)
    es, ef, des, def_ = (
        fn(params, b, dim)
        for fn in (kraus_diagonal, kraus_diagonal_derivative)
        for b in (SUCCESS, FAILURE)
    )
    coupling = float(np.sum(probe.weights() * (es * def_ - ef * des)))
    assert meter_coupling_term(probe, params) == pytest.approx(coupling, rel=1e-12)
    _assert_batch_matches_points(probe, NlaParams(g=[1.05, g, 6.0], p=p))


def _count_kraus_pair(monkeypatch) -> collections.Counter:
    """Count ``_kraus_pair`` calls in every ``nlametro`` namespace that holds it."""
    calls = collections.Counter()
    original = nlametro.instrument._kraus_pair

    def counted(*args):
        calls["_kraus_pair"] += 1
        return original(*args)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("nlametro") and getattr(module, "_kraus_pair", None) is original:
            monkeypatch.setattr(module, "_kraus_pair", counted)
    return calls


# Every public function of (probe, params), with its other arguments; the
# closed form and the per-shot information of the full-record detectors
# read no Kraus entry.
PUBLIC = {
    "branch_probability": (branch_probability, (SUCCESS,), 1),
    "branch_probability_derivative": (branch_probability_derivative, (FAILURE,), 1),
    "conditional_state": (conditional_state, (FAILURE,), 1),
    "qfi_branch": (qfi_branch, (SUCCESS,), 1),
    "classical_fi": (classical_fi, (), 1),
    "qfi_unconditional": (qfi_unconditional, (), 1),
    "qfi_effective": (qfi_effective, (), 1),
    "qfi_effective_closed_form": (qfi_effective_closed_form, (), 0),
    "meter_coupling_term": (meter_coupling_term, (), 1),
    "qfi_joint_meter": (qfi_joint_meter, (MeterState(0.6, 0.8j),), 1),
    "photon_counting_dist": (photon_counting_dist, (FAILURE,), 1),
    "fi_photon_counting": (fi_photon_counting, (SUCCESS,), 1),
    "homodyne_density": (homodyne_density, (SUCCESS, [0.0, 0.5]), 1),
    "homodyne_distribution": (homodyne_distribution, (FAILURE,), 1),
    "fi_homodyne": (fi_homodyne, (SUCCESS,), 1),
    "sequential_fi": (sequential_fi, (PHOTON_COUNTING,), 1),
    "sequential_fi homodyne": (sequential_fi, (HOMODYNE,), 1),
    "fisher_per_shot herald-only": (fisher_per_shot, ("herald-only",), 1),
    "fisher_per_shot success-only": (fisher_per_shot, ("success-only",), 1),
    "fisher_per_shot photon-counting": (fisher_per_shot, ("photon-counting",), 0),
}


@pytest.mark.parametrize("name", list(PUBLIC))
def test_each_public_function_makes_one_kraus_kernel_call(monkeypatch, name):
    # one Kraus-image object per call, for a point and a mixed batch alike
    fn, args, want = PUBLIC[name]
    probe = ProbeSpec.from_nbar("squeezed-vacuum", 2.0).build()
    batch = NlaParams(g=np.linspace(1.05, 6, 30), p=np.arange(30) % 5 + 1)
    calls = _count_kraus_pair(monkeypatch)
    for points in (NlaParams(g=1.5, p=3), batch):
        if points is batch and name.startswith(("conditional_state", "homodyne_density",
                                                "fisher_per_shot")):
            continue
        calls.clear()
        fn(probe, points, *args)
        assert calls["_kraus_pair"] == want, points


def test_branch_probabilities_are_the_images_bit_for_bit():
    # p_b and dp_b are summed at one site, the images, whichever function
    # reads them, for a batch and for each of its points
    for probe, _, points in standard_probe_grids():
        images = KrausImages.of(probe, points)
        for i, branch in enumerate((SUCCESS, FAILURE)):
            for fn, want in ((branch_probability, images.prob[:, i]),
                             (branch_probability_derivative, images.dprob[:, i])):
                assert np.array_equal(fn(probe, points, branch), want)
                assert [fn(probe, pt, branch) for pt in points_of(points)] == want.tolist()
            states = [conditional_state(probe, pt, branch) for pt in points_of(points)]
            assert [state.probability for state in states] == images.prob[:, i].tolist()
        budget = qfi_effective(probe, points)
        assert np.array_equal(budget.ps_qs, images.prob[:, 0] * budget.q_s)


def test_batched_budget_matches_single_points_on_standard_grid():
    zeros = 0
    for probe, labels, points in standard_probe_grids():
        for p in STANDARD_THRESHOLDS:
            batch = _assert_batch_matches_points(probe, NlaParams(g=points.g[points.p == p], p=p))
            assert batch.q_eff.shape == (7,)
            zeros += int(np.sum(batch.q_f == 0.0))
        # the probe's 35 points, thresholds mixed, in one call: the images
        # are padded to p = 5, whose sums of at most 7 terms add the padded
        # zeros last, so every field equals the point's own bit for bit
        mixed = qfi_effective(probe, points)
        singles = [qfi_effective(probe, params) for params in points_of(points)]
        for field in FIELDS:
            assert getattr(mixed, field).tolist() == [getattr(b, field) for b in singles], labels
    # q_f is exactly 0 at p=1 (one failure level) and for squeezed vacuum at p=2
    assert zeros == 8 * 7 + 4 * 7


def test_batched_budget_keeps_exact_zeros_of_q_unc():
    # supported above the threshold only: A = [c, 0] and dA = 0 at every gain
    batch = qfi_effective(FockVector([0.0, 0.0, 1.0]), NlaParams(g=[1.5, 4.0], p=1))
    assert np.array_equal(batch.q_unc, [0.0, 0.0])
    assert np.array_equal(batch.q_f, [0.0, 0.0])


def test_batched_budget_is_arrays_and_one_point_is_floats(coherent_nbar1):
    batch = qfi_effective(coherent_nbar1, NlaParams(g=[1.2, 2.0], p=3))
    one = qfi_effective(coherent_nbar1, NlaParams(g=2.0, p=3))
    assert [type(x) for x in dataclasses.astuple(one)] == [float] * len(FIELDS)
    assert [getattr(batch, field).shape for field in FIELDS] == [(2,)] * len(FIELDS)
    # a point of a batch is an index into its arrays, with the point's own bits
    assert [getattr(batch, field)[1] for field in FIELDS] == list(dataclasses.astuple(one))
    assert not hasattr(batch, "points")


def test_batched_budget_takes_mixed_thresholds_and_rejects_no_points():
    # thresholds from 0 to beyond the probe's support: each point's images
    # are padded to p = 40, and numpy sums 8 or more terms pairwise, which
    # regroups the padded zeros, so the points agree within rounding rather
    # than bit for bit
    batch = NlaParams(g=np.tile([1.05, 1.5, 3.0, 6.0], 7), p=np.repeat([0, 1, 3, 7, 9, 20, 40], 4))
    points = points_of(batch)
    meter = MeterState(0.6, 0.8j)
    for kind, nbar in (("coherent", 5.0), ("squeezed-vacuum", 2.0)):
        probe = ProbeSpec.from_nbar(kind, nbar).build()
        _assert_batch_matches_points(probe, batch)
        for fn, args in ((qfi_effective_closed_form, ()), (meter_coupling_term, ()),
                         (qfi_joint_meter, (meter,))):
            singles = [fn(probe, params, *args) for params in points]
            _assert_close_to_single_points(fn(probe, batch, *args), singles, points, fn.__name__)
        with pytest.raises(TypeError, match="NlaParams"):
            qfi_effective(probe, [])


def test_mixed_threshold_closed_form_equals_single_points_bit_for_bit():
    # the levels are added one column at a time, so the zero-padded levels
    # of the stack's larger thresholds never regroup a point's own sum
    batch = NlaParams(g=np.tile([1.05, 1.5, 2.0, 6.0], 13), p=np.repeat(np.arange(13), 4))
    for kind in ("coherent", "squeezed-vacuum"):
        for nbar in (0.1, 1.0, 4.0):
            probe = ProbeSpec.from_nbar(kind, nbar).build()
            singles = [qfi_effective_closed_form(probe, params) for params in points_of(batch)]
            assert qfi_effective_closed_form(probe, batch).tolist() == singles, (kind, nbar)


def test_impossible_success_branch_in_a_batch_names_the_point(vacuum):
    # g^-2 underflows at g=1e160, so the vacuum never succeeds there
    with pytest.raises(BranchImpossible, match=r"g=1e\+160, p=2 \(point 1\)"):
        qfi_effective(vacuum, NlaParams(g=[2.0, 1e160, 3.0], p=2))
    with pytest.raises(BranchImpossible, match="point 0"):
        qfi_branch(vacuum, NlaParams(g=1e160, p=2), SUCCESS)


def test_fisher_functions_over_a_batch_equal_single_points_bit_for_bit():
    # standard_probe_grids yields one batch per probe; its points, thresholds
    # mixed, are padded to p = 5, whose sums of at most 7 terms add the
    # padded zeros last, so every value equals the point's own bit for bit
    meter = MeterState(0.6, 0.8j)
    for probe, labels, batch in standard_probe_grids():
        assert isinstance(batch, NlaParams) and batch.g.size == len(labels)
        points = points_of(batch)
        for fn, args in ((qfi_effective_closed_form, ()), (meter_coupling_term, ()),
                         (qfi_joint_meter, (meter,)), (classical_fi, ()), (qfi_unconditional, ()),
                         (qfi_branch, (SUCCESS,))):
            singles = [fn(probe, params, *args) for params in points]
            assert fn(probe, batch, *args).tolist() == singles, (labels[0], fn.__name__)


def test_qfi_branch_over_a_batch_names_the_impossible_point(vacuum):
    batch = NlaParams(g=np.array([2.0, 1e160, 3.0]), p=2)
    with pytest.raises(BranchImpossible, match=r"g=1e\+160, p=2 \(point 1\)"):
        qfi_branch(vacuum, batch, SUCCESS)


# Rounding bound of a real probe against the same probe times a global phase
# e^{0.7i}: the budget reads the moduli |c_n|, which round within an ulp of
# the real amplitudes, and q_unc's QR and SVD amplify that; measured worst
# 24.5 eps (q_unc) and 5.4 eps (f_c).
PHASE_EPS = {"q_unc": 32.0}
PHASE_EPS_DEFAULT = 8.0


def test_a_global_phase_leaves_the_budget_within_rounding_of_the_real_path():
    eps = np.finfo(float).eps
    for probe, labels, points in standard_probe_grids():
        phased = FockVector(probe.amps * np.exp(0.7j))
        assert probe.amps.dtype == np.float64 and phased.amps.dtype == np.complex128
        real, rotated = qfi_effective(probe, points), qfi_effective(phased, points)
        for field in FIELDS:
            want, got = getattr(real, field), getattr(rotated, field)
            # exact zeros (q_f and pf_qf of a one-level failure branch) stay exact
            assert np.array_equal(want == 0.0, got == 0.0), (labels[0], field)
            bound = PHASE_EPS.get(field, PHASE_EPS_DEFAULT) * eps * np.abs(want)
            assert np.all(np.abs(got - want) <= bound), (labels[0], field)


def _phase_cases(rng):
    """(probe, points) of the standard grids and of random complex custom
    probes at mixed thresholds, each failure branch possible."""
    cases = [(probe, points) for probe, _, points in standard_probe_grids()]
    for dim in (1, 2, 5, 12, 40):
        probe, _ = custom_probe(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        cases.append((probe, NlaParams(g=rng.uniform(1.01, 8.0, 12), p=rng.integers(1, 9, 12))))
    return cases


def test_the_budget_and_photon_counting_see_only_the_weights():
    # seeded random phases per level: every budget field, the counting
    # informations and masses and the joint counting record equal those of
    # the probe of moduli |c_n| bit for bit
    rng = np.random.default_rng(3141)
    for probe, points in _phase_cases(rng):
        phased = FockVector(probe.amps * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, probe.dim)))
        modulus = FockVector(np.abs(phased.amps))
        assert phased.amps.dtype == np.complex128 and modulus.amps.dtype == np.float64
        got, want = qfi_effective(phased, points), qfi_effective(modulus, points)
        for field in FIELDS:
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        for branch in (SUCCESS, FAILURE):
            assert np.array_equal(fi_photon_counting(phased, points, branch),
                                  fi_photon_counting(modulus, points, branch)), branch
            assert np.array_equal(photon_counting_dist(phased, points, branch).masses,
                                  photon_counting_dist(modulus, points, branch).masses), branch
        assert np.array_equal(sequential_fi(phased, points), sequential_fi(modulus, points))


def test_every_probe_reaches_the_image_kernels_in_real_arithmetic(monkeypatch):
    # every array of the Kraus images, and every array the q_unc kernel (QR
    # and SVD) receives, is float64, for real and complex probes alike
    import nlametro.fisher as fisher

    dtypes = collections.defaultdict(set)
    build, unconditional = KrausImages.of, fisher._unconditional_qfi

    def recorded_build(probe, params):
        images = build(probe, params)
        arrays = (images.c, images.e, images.de, images.a, images.da, images.prob, images.dprob)
        dtypes["KrausImages"].update(x.dtype for x in arrays)
        return images

    def recorded_unconditional(images):
        dtypes["_unconditional_qfi"].update((images.a.dtype, images.da.dtype))
        return unconditional(images)

    monkeypatch.setattr(KrausImages, "of", recorded_build)
    monkeypatch.setattr(fisher, "_unconditional_qfi", recorded_unconditional)
    kinds = set()
    for probe, points in _phase_cases(np.random.default_rng(2718)):
        for state in (probe, FockVector(probe.amps * np.exp(0.7j))):
            kinds.add(state.amps.dtype)
            qfi_effective(state, points)
            qfi_unconditional(state, points_of(points)[0])
    assert kinds == {np.dtype(np.float64), np.dtype(np.complex128)}
    assert dtypes == {"KrausImages": {np.dtype(np.float64)},
                      "_unconditional_qfi": {np.dtype(np.float64)}}
