import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from conftest import points_of
from hypothesis import strategies as st

from nlametro.fock import FockVector
from nlametro.instrument import (
    FAILURE,
    SUCCESS,
    BranchImpossible,
    GainDomain,
    MeterBatch,
    MeterNotNormalized,
    MeterState,
    NlaParams,
    branch_probability,
    branch_probability_derivative,
    completeness_defect,
    conditional_state,
    kraus_diagonal,
    _conditional_rows,
    _kraus_pair,
    kraus_diagonal_derivative,
)
from nlametro.dense import conditional_state_derivative, joint_state, unconditional_state
from nlametro.fisher import qfi_effective
from nlametro.measurements import fi_homodyne
from nlametro.oracles import KrausImageFD
from nlametro.probes import ProbeSpec


def test_gain_domain_enforced():
    with pytest.raises(GainDomain):
        NlaParams(g=1.0, p=1)
    with pytest.raises(GainDomain):
        NlaParams(g=0.5, p=2)
    with pytest.raises(ValueError):
        NlaParams(g=2.0, p=-1)
    # p = 0 is the trivial always-succeed instrument, which is in-domain
    assert NlaParams(g=2.0, p=0).p == 0


def test_kraus_hand_values_g2_p1():
    params = NlaParams(g=2.0, p=1)
    es = kraus_diagonal(params, SUCCESS, dim=2)
    ef = kraus_diagonal(params, FAILURE, dim=2)
    npt.assert_allclose(es, [0.5, 1.0])
    npt.assert_allclose(ef, [math.sqrt(0.75), 0.0])
    # above threshold the success element saturates at 1
    es3 = kraus_diagonal(params, SUCCESS, dim=4)
    npt.assert_allclose(es3[2:], [1.0, 1.0])


@settings(max_examples=60, deadline=None)
@given(
    g=st.floats(min_value=1.0 + 1e-6, max_value=24.0),
    p=st.integers(min_value=1, max_value=8),
    dim=st.integers(min_value=1, max_value=14),
)
def test_completeness_for_arbitrary_parameters(g, p, dim):
    params = NlaParams(g=g, p=p)
    assert completeness_defect(params, dim) < 1e-12
    es = kraus_diagonal(params, SUCCESS, dim)
    ef = kraus_diagonal(params, FAILURE, dim)
    des = kraus_diagonal_derivative(params, SUCCESS, dim)
    def_ = kraus_diagonal_derivative(params, FAILURE, dim)
    # d/dg (Es^2 + Ef^2) = 0 level by level
    npt.assert_allclose(es * des + ef * def_, 0.0, atol=1e-12)


def test_branch_probabilities_hand_values(vacuum, two_level, g2p1):
    assert branch_probability(vacuum, g2p1, SUCCESS) == pytest.approx(0.25)
    assert branch_probability(two_level, g2p1, SUCCESS) == pytest.approx(0.625)
    for probe in (vacuum, two_level):
        total = branch_probability(probe, g2p1, SUCCESS) + branch_probability(
            probe, g2p1, FAILURE
        )
        assert total == pytest.approx(1.0, abs=1e-14)


def test_probability_derivative_matches_central_difference(two_level):
    params = NlaParams(g=1.7, p=1)
    dg = 1e-6
    analytic = branch_probability_derivative(two_level, params, SUCCESS)
    fd = (
        branch_probability(two_level, NlaParams(g=1.7 + dg, p=1), SUCCESS)
        - branch_probability(two_level, NlaParams(g=1.7 - dg, p=1), SUCCESS)
    ) / (2 * dg)
    assert analytic == pytest.approx(fd, rel=1e-8)


def test_conditional_states_normalized(coherent_nbar1):
    params = NlaParams(g=1.5, p=3)
    for branch in (SUCCESS, FAILURE):
        cond = conditional_state(coherent_nbar1, params, branch)
        assert cond.state.norm() == pytest.approx(1.0, abs=1e-12)
        assert cond.branch == branch
    ps = conditional_state(coherent_nbar1, params, SUCCESS).probability
    pf = conditional_state(coherent_nbar1, params, FAILURE).probability
    assert ps + pf == pytest.approx(1.0, abs=1e-14)


def test_impossible_branch_raises():
    one_photon = FockVector([0.0, 1.0])
    with pytest.raises(BranchImpossible):
        conditional_state(one_photon, NlaParams(g=2.0, p=1), FAILURE)


def test_conditional_derivative_orthogonal_for_real_probes(squeezed_nbar1):
    params = NlaParams(g=2.0, p=2)
    for branch in (SUCCESS, FAILURE):
        state = conditional_state(squeezed_nbar1, params, branch).state
        deriv = conditional_state_derivative(squeezed_nbar1, params, branch)
        # normalization forces Re<psi|dpsi> = 0; real amplitudes kill Im too
        assert abs(np.vdot(state.amps, deriv)) < 1e-10


def test_unconditional_state_is_physical_rank_two(coherent_nbar1):
    rho = unconditional_state(coherent_nbar1, NlaParams(g=2.0, p=3))
    assert rho.trace() == pytest.approx(1.0, abs=1e-12)
    evals = np.linalg.eigvalsh(rho.mat)
    assert evals.min() > -1e-12
    assert np.sum(evals > 1e-10) == 2


def test_meter_state_validation_and_imbalance():
    with pytest.raises(MeterNotNormalized):
        MeterState(alpha=1.0, beta=1.0)
    with pytest.raises(MeterNotNormalized):
        MeterState(alpha=math.nan, beta=1.0)
    trivial = MeterState.trivial()
    assert trivial.branch_imbalance() == pytest.approx(0.0)
    quarter = MeterState(alpha=1 / math.sqrt(2), beta=1j / math.sqrt(2))
    assert abs(quarter.branch_imbalance()) == pytest.approx(0.5)


def test_joint_state_blocks_carry_branch_weights(two_level, g2p1):
    meter = MeterState.trivial()
    joint = joint_state(two_level, g2p1, meter)
    ws, wf = joint.block_weights()
    assert ws == pytest.approx(0.625)
    assert wf == pytest.approx(0.375)
    assert np.linalg.norm(joint.as_vector()) == pytest.approx(1.0, abs=1e-12)


def _slope_reference(g: float, p: int, branch: str, dim: int) -> np.ndarray:
    """The per-level derivative formula, evaluated on the masked levels only."""
    n = np.arange(dim, dtype=float)
    out = np.zeros(dim)
    if branch == SUCCESS:
        below = n <= p
        out[below] = (n[below] - p) * g ** (n[below] - p - 1.0)
        return out
    strictly_below = n < p
    k = n[strictly_below] - p
    out[strictly_below] = -k * g ** (2.0 * k - 1.0) / np.sqrt(1.0 - g ** (2.0 * k))
    return out


def _old_rows(g, p, branch: str, dim: int) -> np.ndarray:
    """The Kraus rows as the row kernel formed them, on all ``dim`` levels."""
    k = np.minimum(np.arange(dim, dtype=float) - p, 0.0)
    if branch == SUCCESS:
        return g ** k
    return np.sqrt(np.clip(1.0 - g ** (2.0 * k), 0.0, None))


def _old_slope_rows(g, p, branch: str, dim: int) -> np.ndarray:
    """The Kraus slopes as the slope kernel formed them, zero-padded to ``dim`` levels."""
    top = int(np.max(p))
    levels = min(dim, top + 1 if branch == SUCCESS else top)
    k = np.minimum(np.arange(levels, dtype=float) - p, 0.0)
    if branch == SUCCESS:
        head = k * g ** (k - 1.0)
    else:
        root = np.sqrt(1.0 - g ** (2.0 * k))
        head = np.divide(-k * g ** (2.0 * k - 1.0), root, out=np.zeros(root.shape), where=k < 0.0)
    out = np.zeros(head.shape[:-1] + (dim,))
    out[..., :levels] = head
    return out


def _assert_pair_equals_old_kernels(pair, g, p, dim):
    assert pair.shape == np.shape(g)[:-1] + (2, 2, dim)
    for i, branch in enumerate((SUCCESS, FAILURE)):
        assert np.array_equal(pair[..., i, 0, :], _old_rows(g, p, branch, dim)), branch
        assert np.array_equal(pair[..., i, 1, :], _old_slope_rows(g, p, branch, dim)), branch


def test_kraus_pair_slopes_broadcast_bit_for_bit():
    gains = np.concatenate([[1.0 + 1e-9, 1.05, 2.0, 6.0], np.linspace(1.01, 12.0, 57)])
    for p in range(6):
        for dim in (1, p + 1, p + 2, 149):
            pair = _kraus_pair(gains[:, np.newaxis], p, dim)
            for i, branch in enumerate((SUCCESS, FAILURE)):
                for g, row in zip(gains, pair[:, i, 1]):
                    ref = _slope_reference(float(g), p, branch, dim)
                    assert np.array_equal(row, ref)
                    params = NlaParams(g=float(g), p=p)
                    assert np.array_equal(kraus_diagonal_derivative(params, branch, dim), ref)
    # one row per point, each with its own threshold
    g_col = np.repeat(gains, 6)[:, np.newaxis]
    p_col = np.tile(np.arange(6), gains.size)[:, np.newaxis]
    for dim in (1, 3, 6, 7, 149):
        pair = _kraus_pair(g_col, p_col, dim)
        for i, branch in enumerate((SUCCESS, FAILURE)):
            for g, p, row, slope in zip(g_col[:, 0], p_col[:, 0], pair[:, i, 0], pair[:, i, 1]):
                assert np.array_equal(slope, _slope_reference(float(g), int(p), branch, dim))
                params = NlaParams(g=float(g), p=int(p))
                assert np.array_equal(row, kraus_diagonal(params, branch, dim))


def test_kraus_pair_at_a_numpy_scalar_gain_equals_the_old_kernels_bit_for_bit():
    # the homodyne score's one-call pair at a numpy scalar gain, as its root
    # search passes it, including thresholds at and above dim
    gains = np.concatenate([[1.0 + 1e-9, 1.05, 2.0, 6.0, 30.0, 500.0], np.linspace(1.01, 12.0, 23)])
    for p in (0, 1, 2, 3, 5, 40):
        for dim in sorted({1, 2, p + 1, p + 2, 149}):
            for g in gains:
                pair = _kraus_pair(g, p, dim)
                assert pair.shape == (2, 2, dim)
                for (row, slope), branch in zip(pair, (SUCCESS, FAILURE)):
                    assert np.array_equal(row, _old_rows(float(g), p, branch, dim))
                    assert np.array_equal(slope, _old_slope_rows(float(g), p, branch, dim))


def test_kraus_pair_equals_the_old_kernels_on_a_seeded_sweep():
    # gain columns of up to 70 points, dims 1-160, thresholds 0-40 (at and
    # above dim too), one threshold for all points or one per point, and a
    # numpy scalar gain as the homodyne root search passes it
    rng = np.random.default_rng(2026)
    for case in range(600):
        dim = 1 if case % 10 == 0 else int(rng.integers(1, 161))
        gains = np.exp(rng.uniform(np.log(1.0 + 1e-9), np.log(1e3), int(rng.integers(1, 71))))
        if case % 3 == 0:
            g, p = gains[0], int(rng.integers(0, 41))
        elif case % 3 == 1:
            g, p = gains[:, np.newaxis], int(rng.integers(0, 41))
        else:
            g, p = gains[:, np.newaxis], rng.integers(0, 41, size=(gains.size, 1))
        _assert_pair_equals_old_kernels(_kraus_pair(g, p, dim), g, p, dim)


def test_kraus_pair_does_not_overflow_above_the_threshold():
    # g^(n-p) at n=148, p=1, g=12 is about 1e159 and its square overflows;
    # above p the rows are constant, so no power of g is needed there
    n = np.arange(149)
    with np.errstate(all="raise"):
        es = kraus_diagonal(NlaParams(g=12.0, p=1), SUCCESS, 149)
        ef = kraus_diagonal(NlaParams(g=12.0, p=1), FAILURE, 149)
        rows = _kraus_pair(np.array([[12.0], [1e3]]), np.array([[1], [0]]), 149)[:, 1, 0]
    npt.assert_array_equal(es, np.where(n <= 1, 12.0 ** np.minimum(n - 1.0, 0.0), 1.0))
    assert ef[0] == math.sqrt(1.0 - 12.0 ** -2.0) and not ef[1:].any()
    assert not rows.any(axis=0)[1:].any()


# Two-level probe and squeezed vacuum nbar=2 (dim 149); thresholds mixed.
MIXED = NlaParams(g=np.repeat([1.0 + 1e-9, 1.05, 2.0, 6.0], 4), p=np.tile([0, 1, 3, 5], 4))


@pytest.fixture(params=["two-level", "squeezed nbar=2"])
def batch_probe(request, two_level):
    if request.param == "two-level":
        return two_level
    return ProbeSpec.from_nbar("squeezed-vacuum", 2.0).build()


def test_instrument_functions_over_a_batch_equal_single_point_calls(batch_probe):
    dim, points = batch_probe.dim, points_of(MIXED)
    for fn in (kraus_diagonal, kraus_diagonal_derivative):
        for branch in (SUCCESS, FAILURE):
            rows = fn(MIXED, branch, dim)
            assert rows.shape == (len(points), dim)
            npt.assert_array_equal(rows, [fn(pt, branch, dim) for pt in points])
    defects = completeness_defect(MIXED, dim)
    npt.assert_array_equal(defects, [completeness_defect(pt, dim) for pt in points])
    for fn in (branch_probability, branch_probability_derivative):
        for branch in (SUCCESS, FAILURE):
            values = fn(batch_probe, MIXED, branch)
            assert values.shape == (len(points),)
            single = [fn(batch_probe, pt, branch) for pt in points]
            assert all(isinstance(x, float) for x in single)
            npt.assert_array_equal(values, single)
    # p = 0 leaves no failure branch to condition on
    live = NlaParams(g=MIXED.g[MIXED.p > 0], p=MIXED.p[MIXED.p > 0])
    for branch in (SUCCESS, FAILURE):
        rows = _conditional_rows(batch_probe, live, branch)
        singles = [_conditional_rows(batch_probe, pt, branch) for pt in points_of(live)]
        for got, want in zip(rows, zip(*singles), strict=True):
            npt.assert_array_equal(got, np.concatenate(want))


def test_meter_batch_checks_every_meter():
    alpha = np.full((3, 4), 0.6 + 0j)
    beta = np.full((3, 4), 0.8j)
    imbalance = MeterBatch(alpha, beta).branch_imbalance()
    npt.assert_array_equal(imbalance, np.full((3, 4), -(0.6 * 0.8)))
    beta[2, 1] = 0.81
    with pytest.raises(MeterNotNormalized, match=r"meter \(2, 1\)"):
        MeterBatch(alpha, beta)
    beta[2, 1] = np.nan
    with pytest.raises(MeterNotNormalized):
        MeterBatch(alpha, beta)
    with pytest.raises(ValueError, match="shape"):
        MeterBatch(alpha, beta[:2])
    # the batch holds its own read-only copies
    batch = MeterBatch(alpha[:2], beta[:2])
    alpha[0, 0] = 5.0
    assert batch.alpha[0, 0] == 0.6 and not batch.alpha.flags.writeable


# The Monte-Carlo search grid of the CRB experiments and a log-uniform sweep.
CALL_SHAPE_GAINS = np.concatenate([
    np.linspace(4.0 / 3.0, 3.0, 61),
    np.exp(np.random.default_rng(27).uniform(np.log(1.0 + 1e-9), np.log(1e3), 200)),
])


@pytest.mark.parametrize("p", [0, 1, 2, 5])
def test_every_call_shape_of_the_kraus_pair_agrees_with_kraus_diagonal(p):
    # one np.power over the stacked exponents: a gain column with a scalar
    # threshold, a threshold column, a batch, and a numpy scalar gain all
    # round the powers as the per-point call does, on the one-level vacuum
    # probe (where numpy's ** operator used to take the exact 1/g) too
    gains = CALL_SHAPE_GAINS
    for dim in sorted({1, 2, p + 1, p + 2, 17}):
        want = np.array([_kraus_pair(float(g), p, dim) for g in gains])
        for b, branch in enumerate((SUCCESS, FAILURE)):
            rows = [kraus_diagonal(NlaParams(g=float(g), p=p), branch, dim) for g in gains]
            npt.assert_array_equal(want[:, b, 0], rows)
        shapes = (
            _kraus_pair(gains[:, np.newaxis], p, dim),
            _kraus_pair(gains[:, np.newaxis], np.full((gains.size, 1), p), dim),
            np.array([_kraus_pair(g, p, dim) for g in gains]),
        )
        for got in shapes:
            npt.assert_array_equal(got, want)
        for b, branch in enumerate((SUCCESS, FAILURE)):
            batch = NlaParams(g=gains, p=p)
            npt.assert_array_equal(kraus_diagonal(batch, branch, dim), want[:, b, 0])
            npt.assert_array_equal(kraus_diagonal_derivative(batch, branch, dim), want[:, b, 1])


def test_a_batch_is_validated_by_arrays_and_names_its_first_bad_point():
    batch = NlaParams(g=[1.5, 2.0, 3.0], p=np.array([1, 2, 3], dtype=np.int32))
    assert batch.g.dtype == np.float64 and batch.p.dtype == np.int64
    assert not batch.g.flags.writeable and not batch.p.flags.writeable
    npt.assert_array_equal(NlaParams(g=np.array([1.5, 2.0]), p=4).p, [4, 4])
    with pytest.raises(GainDomain, match=r"gain 1\.0 below domain floor .* \(point 1\)"):
        NlaParams(g=[2.0, 1.0, 0.5], p=1)
    for bad in (np.inf, np.nan):
        with pytest.raises(GainDomain, match=r"\(point 2\)"):
            NlaParams(g=[2.0, 3.0, bad], p=1)
    with pytest.raises(ValueError, match=r"non-negative, got -2 \(point 1\)"):
        NlaParams(g=[2.0, 3.0, 4.0], p=[1, -2, -3])
    for p in ([1, 2], [1.0, 2.0, 3.0], [True, False, True], 1.5):
        with pytest.raises(ValueError, match="integer"):
            NlaParams(g=[2.0, 3.0, 4.0], p=p)
    for g in ([], [[2.0, 3.0]]):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            NlaParams(g=g, p=1)


def test_neither_a_batch_nor_a_point_is_a_sequence_of_points():
    for params in (NlaParams(g=np.array([1.5, 2.0, 3.0]), p=[1, 2, 3]), NlaParams(g=2.0, p=1)):
        assert bool(params)
        for attempt in (len, list, lambda x: x[0]):
            with pytest.raises(TypeError):
                attempt(params)


def test_a_list_of_points_is_refused_naming_nlaparams(coherent_nbar1):
    points = [NlaParams(g=1.5, p=3), NlaParams(g=2.0, p=3)]
    calls = (
        lambda params: qfi_effective(coherent_nbar1, params),
        lambda params: kraus_diagonal(params, SUCCESS, 3),
        lambda params: fi_homodyne(coherent_nbar1, params, SUCCESS),
        lambda params: KrausImageFD(coherent_nbar1, params),
    )
    for call in calls:
        for params in (points, points[:1], (), NlaParams(g=2.0, p=3).g):
            with pytest.raises(TypeError, match="NlaParams"):
                call(params)


def test_single_point_functions_refuse_a_batch_and_a_list(coherent_nbar1):
    batch = NlaParams(g=np.array([1.5, 2.0]), p=3)
    for fn in (conditional_state, conditional_state_derivative):
        with pytest.raises(ValueError, match="one operating point, not a batch"):
            fn(coherent_nbar1, batch, SUCCESS)
        with pytest.raises(TypeError, match="NlaParams"):
            fn(coherent_nbar1, points_of(batch), SUCCESS)
