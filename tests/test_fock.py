import math

import numpy as np
import numpy.testing as npt
import pytest

from nlametro import fock
from nlametro.fock import (
    GAUSS_LEGENDRE_NODES,
    GAUSS_LEGENDRE_WEIGHTS,
    QUADRATURE_MAX_PANELS,
    QUADRATURE_REL_TOL,
    DensityOperator,
    FockVector,
    NonHermitianInput,
    adaptive_quadrature_grid,
    build_quadrature_grid,
    default_half_width,
    wavefunction_matrix,
)
from nlametro.selfcheck import standard_probes


def test_fock_vector_basic_accessors():
    v = FockVector([3.0, 0.0, 4.0])
    assert v.dim == 3
    assert v.norm() == pytest.approx(5.0)
    npt.assert_allclose(v.weights(), [9.0, 0.0, 16.0])
    u = v.normalized()
    assert u.norm() == pytest.approx(1.0)
    # mean photon of |psi|^2 = (0.36, 0, 0.64) over n = 0,1,2
    assert u.mean_photon() == pytest.approx(1.28)


def test_reality():
    assert FockVector([0.6, 0.8]).is_real()
    assert not FockVector([1.0, 1j]).normalized().is_real()


def test_density_from_pure_and_validation():
    rho = DensityOperator.from_pure(FockVector([0.6, 0.8]))
    assert rho.trace() == pytest.approx(1.0)
    npt.assert_allclose(rho.mat, rho.mat.conj().T)
    with pytest.raises(NonHermitianInput):
        DensityOperator(np.array([[0.0, 1.0], [0.0, 1.0]]))


def test_position_wavefunction_ground_state():
    x = np.array([0.0, 0.7, -1.3])
    expected = np.pi ** -0.25 * np.exp(-0.5 * x ** 2)
    npt.assert_allclose(wavefunction_matrix(1, x)[0], expected, rtol=1e-14)


def test_wavefunctions_orthonormal_under_adaptive_grid():
    dim = 12
    grid = adaptive_quadrature_grid(dim)
    psi = wavefunction_matrix(dim, grid.nodes)
    gram = (psi * grid.weights) @ psi.T
    npt.assert_allclose(gram, np.eye(dim), atol=1e-12)


# Panel counts of the standard probe dims at windows 0 and 1 under the rule
# that returned the finer grid of the converged pair.
FINER_PANELS = {
    14: (28, 34), 17: (30, 36), 19: (30, 38), 21: (32, 38),
    55: (84, 108), 87: (100, 124), 117: (112, 140), 149: (248, 312),
}


def _top_level_integral(grid, dim):
    top = wavefunction_matrix(dim, grid.nodes)[dim - 1]
    return grid.integrate(top * top)


def test_standard_dims_are_the_self_check_probes():
    assert sorted(FINER_PANELS) == sorted({probe.dim for _, _, probe in standard_probes()})


@pytest.mark.parametrize("widen", [0, 1])
@pytest.mark.parametrize("dim", sorted(FINER_PANELS))
def test_adaptive_grid_is_the_coarser_of_the_converged_pair(dim, widen):
    half_width = default_half_width(dim) * 1.25 ** widen
    grid = adaptive_quadrature_grid(dim, half_width)
    assert grid.half_width == half_width
    assert 2 * grid.panels == FINER_PANELS[dim][widen]
    doubled = build_quadrature_grid(half_width, 2 * grid.panels)
    for g in (grid, doubled):
        assert abs(_top_level_integral(g, dim) - 1.0) <= QUADRATURE_REL_TOL
    # No product of two levels below dim is more oscillatory than the top
    # density, so the Gram matrix carries the rule's tolerance (measured
    # worst: 6.0e-11, at dim 117).
    psi = wavefunction_matrix(dim, grid.nodes)
    gram = (psi * grid.weights) @ psi.T
    npt.assert_allclose(gram, np.eye(dim), rtol=0, atol=QUADRATURE_REL_TOL)


def test_the_gauss_legendre_rule_is_numpys_bit_for_bit():
    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert GAUSS_LEGENDRE_NODES.tolist() == nodes.tolist()
    assert GAUSS_LEGENDRE_WEIGHTS.tolist() == weights.tolist()
    assert not GAUSS_LEGENDRE_NODES.flags.writeable and not GAUSS_LEGENDRE_WEIGHTS.flags.writeable


def _full_table_search(dim, half_width):
    # reference search: the full wavefunction table per doubling, and
    # numpy's rule per grid
    panels = max(8, int(math.ceil(half_width)))
    previous = None
    while panels <= QUADRATURE_MAX_PANELS:
        base_x, base_w = np.polynomial.legendre.leggauss(16)
        edges = np.linspace(-half_width, half_width, panels + 1)
        half = 0.5 * (edges[1] - edges[0])
        centers = 0.5 * (edges[:-1] + edges[1:])
        nodes = (half * base_x[None, :] + centers[:, None]).ravel()
        weights = np.tile(half * base_w, panels)
        top = wavefunction_matrix(dim, nodes)[dim - 1]
        converged = abs(float(np.dot(top * top, weights)) - 1.0) <= QUADRATURE_REL_TOL
        if converged and previous is not None:
            return previous
        previous = (panels, nodes, weights) if converged else None
        panels *= 2
    raise AssertionError(f"no grid for dim={dim}")


def test_adaptive_grids_equal_those_of_the_full_table_search():
    for dim in range(1, 161):
        half_width = default_half_width(dim)
        grid = adaptive_quadrature_grid(dim, half_width)
        panels, nodes, weights = _full_table_search(dim, half_width)
        assert grid.panels == panels, dim
        assert grid.nodes.tolist() == nodes.tolist() and grid.weights.tolist() == weights.tolist()


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 17, 149])
def test_the_rolling_recurrence_gives_the_tables_top_row(dim):
    x = build_quadrature_grid(default_half_width(dim), 40).nodes
    top = fock._wavefunction_rows(np.empty((2, x.size)), dim, x)
    assert top.tolist() == wavefunction_matrix(dim, x)[dim - 1].tolist()


def test_quadrature_grid_integrates_gaussian():
    grid = build_quadrature_grid(half_width=8.0, panels=16)
    vals = np.exp(-grid.nodes ** 2) / math.sqrt(math.pi)
    assert grid.integrate(vals) == pytest.approx(1.0, abs=1e-13)


def test_default_half_width_grows_with_dimension():
    assert default_half_width(64) > default_half_width(4)


def test_amplitudes_are_stored_real_exactly_when_every_imaginary_part_is_zero():
    # the standard probes and real custom probes are float64, whatever the
    # input type; a single non-zero imaginary part, however small, keeps the
    # probe complex, while is_real() still accepts it within 1e-12
    from nlametro.probes import ProbeSpec, custom_probe

    for _, _, probe in standard_probes():
        assert probe.amps.dtype == np.float64 and not probe.amps.flags.writeable
    real_inputs = ([0.6, 0.8], [0.6 + 0j, 0.8 - 0j], np.array([0.6, 0.8], dtype=np.complex128),
                   [1, 0], custom_probe([3.0, 4.0])[0].amps,
                   ProbeSpec(kind="custom", amps=(0.6 + 0j, 0.8 + 0j)).build().amps)
    for amps in real_inputs:
        assert FockVector(amps).amps.dtype == np.float64
    tiny = FockVector([0.6, 0.8 + 1e-300j])
    assert tiny.amps.dtype == np.complex128 and tiny.amps[1].imag == 1e-300
    assert tiny.is_real()
    assert FockVector([1.0, 1j]).amps.dtype == np.complex128


def test_real_storage_copies_the_input():
    source = np.array([0.6, 0.8])
    v = FockVector(source)
    source[0] = 1.0
    assert v.amps[0] == 0.6 and source.flags.writeable
