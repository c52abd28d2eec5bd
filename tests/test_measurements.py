import math

import numpy as np
import numpy.testing as npt
import pytest

from nlametro import measurements
from nlametro.fock import FockVector, build_quadrature_grid, wavefunction_matrix
from nlametro.instrument import (
    BRANCHES,
    FAILURE,
    SUCCESS,
    BranchImpossible,
    NlaParams,
    conditional_state,
    conditional_state_derivative,
    kraus_diagonal,
    kraus_diagonal_derivative,
)
from nlametro.fisher import qfi_branch, qfi_effective
from nlametro.measurements import (
    HOMODYNE,
    PHOTON_COUNTING,
    ROW_CHUNK,
    ComplexProbeUnsupported,
    fi_homodyne,
    fi_photon_counting,
    homodyne_density,
    homodyne_distribution,
    photon_counting_dist,
    photon_counting_mass_derivative,
    sequential_fi,
)
from nlametro.probes import ProbeSpec
from nlametro.selfcheck import STANDARD_GAINS, STANDARD_THRESHOLDS

SQRT_PI = math.sqrt(math.pi)


def test_photon_counting_masses_two_level(two_level, g2p1):
    dist = photon_counting_dist(two_level, g2p1, SUCCESS)
    npt.assert_allclose(dist.masses, [0.2, 0.8], atol=1e-14)
    assert dist.total() == pytest.approx(1.0, abs=1e-14)
    # failure branch keeps only the sub-threshold levels
    fail = photon_counting_dist(two_level, g2p1, FAILURE)
    npt.assert_allclose(fail.masses, [1.0, 0.0], atol=1e-14)


def test_photon_counting_mass_derivative_sums_to_zero(coherent_nbar1):
    params = NlaParams(g=1.8, p=2)
    for branch in (SUCCESS, FAILURE):
        d = photon_counting_mass_derivative(coherent_nbar1, params, branch)
        assert abs(d.sum()) < 1e-12


def test_homodyne_density_hand_values(vacuum, two_level, g2p1):
    # vacuum conditional states stay vacuum: |psi_0(0)|^2 = 1/sqrt(pi)
    assert homodyne_density(vacuum, g2p1, SUCCESS, np.array([0.0]))[0] == pytest.approx(
        1.0 / SQRT_PI, rel=1e-12
    )
    # two-level success state has weight 0.2 on |0>; psi_1(0) = 0
    assert homodyne_density(two_level, g2p1, SUCCESS, np.array([0.0]))[0] == pytest.approx(
        0.2 / SQRT_PI, rel=1e-12
    )


def test_homodyne_distribution_normalized(squeezed_nbar1):
    params = NlaParams(g=1.5, p=2)
    for branch in (SUCCESS, FAILURE):
        dist = homodyne_distribution(squeezed_nbar1, params, branch)
        assert dist.total() == pytest.approx(1.0, abs=1e-10)
        assert np.all(dist.probs >= 0.0)


def test_photon_counting_saturates_branch_qfi(coherent_nbar1):
    params = NlaParams(g=2.0, p=3)
    for branch in (SUCCESS, FAILURE):
        fi = fi_photon_counting(coherent_nbar1, params, branch)
        assert fi == pytest.approx(qfi_branch(coherent_nbar1, params, branch), rel=1e-10)


def test_homodyne_saturates_branch_qfi_for_real_probes(squeezed_nbar1):
    params = NlaParams(g=1.5, p=2)
    for branch in (SUCCESS, FAILURE):
        fi = fi_homodyne(squeezed_nbar1, params, branch)
        assert fi == pytest.approx(qfi_branch(squeezed_nbar1, params, branch), rel=1e-7)


def test_homodyne_rejects_complex_probes():
    probe = FockVector(np.array([1.0, 1j]) / math.sqrt(2.0))
    with pytest.raises(ComplexProbeUnsupported):
        fi_homodyne(probe, NlaParams(g=2.0, p=1), SUCCESS)
    # explicit opt-in evaluates the x-quadrature FI, which is then lossy
    fi = fi_homodyne(probe, NlaParams(g=2.0, p=1), SUCCESS, allow_complex=True)
    assert fi >= 0.0


def test_sequential_fi_equals_breakdown_sum(two_level, coherent_nbar1):
    for probe, params in ((two_level, NlaParams(g=2.0, p=1)),
                          (coherent_nbar1, NlaParams(g=1.5, p=3))):
        bd = qfi_effective(probe, params)
        seq_pc = sequential_fi(probe, params, "photon-counting")
        assert seq_pc == pytest.approx(bd.component_sum(), rel=1e-10)
        seq_hd = sequential_fi(probe, params, "homodyne")
        assert seq_hd == pytest.approx(bd.component_sum(), rel=1e-7)


def test_impossible_branch_distribution_is_empty_weighted(vacuum):
    # at p=1 a |1> probe never fails; the vacuum always can
    one = FockVector([0.0, 1.0])
    params = NlaParams(g=2.0, p=1)
    dist = photon_counting_dist(one, params, SUCCESS)
    npt.assert_allclose(dist.masses, [0.0, 1.0], atol=1e-14)


STANDARD_POINTS = [NlaParams(g=g, p=p) for g in STANDARD_GAINS for p in STANDARD_THRESHOLDS]


def _complex_fisher_integral(dim, rows):
    """Loop reference: one complex field product per row on the window-0 grid.

    ``rows`` is a list of (amplitudes, slopes) pairs whose integrands add up.
    """
    grid, psi = measurements._grid_and_wavefunctions(dim, 0)
    integrand = np.zeros(grid.nodes.size)
    for amps, slopes in rows:
        field = np.asarray(amps, dtype=complex) @ psi
        dfield = np.asarray(slopes, dtype=complex) @ psi
        dens = np.abs(field) ** 2
        ddens = 2.0 * (np.conj(field) * dfield).real
        keep = dens > measurements.MASS_FLOOR
        integrand[keep] += ddens[keep] ** 2 / dens[keep]
    return grid.integrate(integrand)


def _counting_sum(rows):
    """Loop reference: ``sum dm^2 / m`` over occupied levels of (masses, derivatives) pairs."""
    total = 0.0
    for m, dm in rows:
        keep = m > measurements.MASS_FLOOR
        total += float(np.sum(dm[keep] ** 2 / m[keep]))
    return total


@pytest.mark.parametrize("kind, nbar", [("squeezed-vacuum", 2.0), ("coherent", 1.0)])
def test_stacked_detectors_equal_one_point_at_a_time(kind, nbar):
    probe = ProbeSpec.from_nbar(kind, nbar).build()
    assert len(STANDARD_POINTS) > ROW_CHUNK
    for branch in BRANCHES:
        stacked = fi_homodyne(probe, STANDARD_POINTS, branch)
        assert stacked.shape == (len(STANDARD_POINTS),)
        for value, params in zip(stacked, STANDARD_POINTS):
            assert value == pytest.approx(fi_homodyne(probe, params, branch), rel=1e-12)
            cond = conditional_state(probe, params, branch).state.amps
            slope = conditional_state_derivative(probe, params, branch)
            assert value == pytest.approx(
                _complex_fisher_integral(probe.dim, [(cond, slope)]), rel=1e-12
            )
        dists = homodyne_distribution(probe, STANDARD_POINTS, branch)
        for dist, params in zip(dists, STANDARD_POINTS):
            one = homodyne_distribution(probe, params, branch)
            # near a node of the field the density is a cancellation residue
            npt.assert_allclose(dist.masses, one.masses, rtol=1e-12, atol=1e-15 * one.masses.max())
            assert dist.total() == pytest.approx(one.total(), rel=1e-12)
        counted = fi_photon_counting(probe, STANDARD_POINTS, branch)
        dists = photon_counting_dist(probe, STANDARD_POINTS, branch)
        slopes = photon_counting_mass_derivative(probe, STANDARD_POINTS, branch)
        assert counted.shape == (len(STANDARD_POINTS),) and len(dists) == len(STANDARD_POINTS)
        assert slopes.shape == (len(STANDARD_POINTS), probe.dim)
        for value, dist, dm, params in zip(counted, dists, slopes, STANDARD_POINTS):
            assert value == pytest.approx(fi_photon_counting(probe, params, branch), rel=1e-12)
            npt.assert_array_equal(dist.masses, photon_counting_dist(probe, params, branch).masses)
            npt.assert_array_equal(dm, photon_counting_mass_derivative(probe, params, branch))
            cond = conditional_state(probe, params, branch).state.amps
            slope = conditional_state_derivative(probe, params, branch)
            masses = np.abs(cond) ** 2
            npt.assert_allclose(dist.masses, masses, rtol=1e-12, atol=1e-300)
            ref_dm = 2.0 * (np.conj(cond) * slope).real
            npt.assert_allclose(dm, ref_dm, rtol=1e-12, atol=1e-12 * np.abs(ref_dm).max())
            assert value == pytest.approx(_counting_sum([(masses, ref_dm)]), rel=1e-12)
    for detector in (HOMODYNE, PHOTON_COUNTING):
        stacked = sequential_fi(probe, STANDARD_POINTS, detector)
        for value, params in zip(stacked, STANDARD_POINTS):
            assert value == pytest.approx(sequential_fi(probe, params, detector), rel=1e-12)
            e = [kraus_diagonal(params, b, probe.dim) for b in BRANCHES]
            de = [kraus_diagonal_derivative(params, b, probe.dim) for b in BRANCHES]
            if detector == HOMODYNE:
                rows = [(ei * probe.amps, dei * probe.amps) for ei, dei in zip(e, de)]
                reference = _complex_fisher_integral(probe.dim, rows)
            else:
                w = probe.weights()
                reference = _counting_sum([(ei * ei * w, 2.0 * ei * dei * w) for ei, dei in zip(e, de)])
            assert value == pytest.approx(reference, rel=1e-12)


def test_impossible_branch_in_a_batch_names_the_point():
    # |1> can fail below a threshold of 2, but never at threshold 1
    one = FockVector([0.0, 1.0])
    points = [NlaParams(g=2.0, p=2), NlaParams(g=2.0, p=1)]
    assert fi_photon_counting(one, points[:1], FAILURE).shape == (1,)
    for function in (photon_counting_dist, fi_photon_counting, fi_homodyne):
        with pytest.raises(BranchImpossible, match=r"failure branch .* g=2\.0, p=1 \(point 1\)"):
            function(one, points, FAILURE)
    with pytest.raises(BranchImpossible, match=r"p=1 \(point 0\)"):
        conditional_state(one, points[1], FAILURE)


def test_stacked_homodyne_of_a_complex_probe_uses_both_quadrature_parts():
    probe = FockVector([0.6, 0.5j, 0.3 + 0.4j, -0.2]).normalized()
    for branch in BRANCHES:
        stacked = fi_homodyne(probe, STANDARD_POINTS, branch, allow_complex=True)
        for value, params in zip(stacked, STANDARD_POINTS):
            single = fi_homodyne(probe, params, branch, allow_complex=True)
            assert value == pytest.approx(single, rel=1e-12)
            cond = conditional_state(probe, params, branch).state.amps
            slope = conditional_state_derivative(probe, params, branch)
            assert value == pytest.approx(
                _complex_fisher_integral(probe.dim, [(cond, slope)]), rel=1e-12
            )


def test_only_groups_with_a_heavy_tail_are_widened(monkeypatch, coherent_nbar1):
    # At half-width 6 the failure-branch integrand of some standard points
    # keeps more than TAIL_SHARE in an outermost panel, and of others not.
    # The truncated window-0 table is scaled by 1 + 1e-6, which marks every
    # value integrated on it.
    exact = fi_homodyne(coherent_nbar1, STANDARD_POINTS, FAILURE)
    original = measurements._grid_and_wavefunctions
    requested = []

    def truncated(dim, widen=0):
        requested.append(widen)
        if widen:
            return original(dim, widen)
        grid = build_quadrature_grid(6.0, 64)
        return grid, wavefunction_matrix(dim, grid.nodes) * (1.0 + 1e-6)

    monkeypatch.setattr(measurements, "_grid_and_wavefunctions", truncated)
    stacked = fi_homodyne(coherent_nbar1, STANDARD_POINTS, FAILURE)
    widened = 0
    for value, params, reference in zip(stacked, STANDARD_POINTS, exact):
        requested.clear()
        single = fi_homodyne(coherent_nbar1, params, FAILURE)
        assert value == pytest.approx(single, rel=1e-12)
        if 1 in requested:
            widened += 1
            assert value == pytest.approx(reference, rel=1e-10)
        else:
            assert value == pytest.approx(reference * (1.0 + 1e-6) ** 2, rel=1e-10)
    assert 0 < widened < len(STANDARD_POINTS)


def test_fisher_integral_raises_when_the_tail_never_vanishes(monkeypatch, coherent_nbar1):
    def truncated(dim, widen=0):
        grid = build_quadrature_grid(3.0, 16)
        return grid, wavefunction_matrix(dim, grid.nodes)

    monkeypatch.setattr(measurements, "_grid_and_wavefunctions", truncated)
    with pytest.raises(RuntimeError, match="tail"):
        fi_homodyne(coherent_nbar1, STANDARD_POINTS[:3], SUCCESS)
