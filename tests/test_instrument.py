import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlametro.fock import FockVector
from nlametro.instrument import (
    FAILURE,
    SUCCESS,
    BranchImpossible,
    GainDomain,
    MeterNotNormalized,
    MeterState,
    NlaParams,
    branch_probability,
    branch_probability_derivative,
    completeness_defect,
    conditional_state,
    conditional_state_derivative,
    joint_state,
    kraus_diagonal,
    _kraus_rows,
    _kraus_slope_rows,
    kraus_diagonal_derivative,
)
from nlametro.dense import unconditional_state


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


def test_kraus_slope_rows_broadcast_bit_for_bit():
    gains = np.concatenate([[1.0 + 1e-9, 1.05, 2.0, 6.0], np.linspace(1.01, 12.0, 57)])
    for p in range(6):
        for dim in (1, p + 1, p + 2, 149):
            for branch in (SUCCESS, FAILURE):
                rows = _kraus_slope_rows(gains[:, np.newaxis], p, branch, dim)
                for g, row in zip(gains, rows):
                    ref = _slope_reference(float(g), p, branch, dim)
                    assert np.array_equal(row, ref)
                    params = NlaParams(g=float(g), p=p)
                    assert np.array_equal(kraus_diagonal_derivative(params, branch, dim), ref)
    # one row per point, each with its own threshold
    g_col = np.repeat(gains, 6)[:, np.newaxis]
    p_col = np.tile(np.arange(6), gains.size)[:, np.newaxis]
    for dim in (1, 3, 6, 7, 149):
        for branch in (SUCCESS, FAILURE):
            slopes = _kraus_slope_rows(g_col, p_col, branch, dim)
            rows = _kraus_rows(g_col, p_col, branch, dim)
            for g, p, slope, row in zip(g_col[:, 0], p_col[:, 0], slopes, rows):
                assert np.array_equal(slope, _slope_reference(float(g), int(p), branch, dim))
                params = NlaParams(g=float(g), p=int(p))
                assert np.array_equal(row, kraus_diagonal(params, branch, dim))


def test_kraus_rows_do_not_overflow_above_the_threshold():
    # g^(n-p) at n=148, p=1, g=12 is about 1e159 and its square overflows;
    # above p the rows are constant, so no power of g is needed there
    n = np.arange(149)
    with np.errstate(all="raise"):
        es = kraus_diagonal(NlaParams(g=12.0, p=1), SUCCESS, 149)
        ef = kraus_diagonal(NlaParams(g=12.0, p=1), FAILURE, 149)
        rows = _kraus_rows(np.array([[12.0], [1e3]]), np.array([[1], [0]]), FAILURE, 149)
    npt.assert_array_equal(es, np.where(n <= 1, 12.0 ** np.minimum(n - 1.0, 0.0), 1.0))
    assert ef[0] == math.sqrt(1.0 - 12.0 ** -2.0) and not ef[1:].any()
    assert not rows.any(axis=0)[1:].any()
