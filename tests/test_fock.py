import math

import numpy as np
import numpy.testing as npt
import pytest

from nlametro.fock import (
    DensityOperator,
    FockVector,
    NonHermitianInput,
    adaptive_quadrature_grid,
    build_quadrature_grid,
    default_half_width,
    wavefunction_matrix,
)


def test_fock_vector_basic_accessors():
    v = FockVector([3.0, 0.0, 4.0])
    assert v.dim == 3
    assert v.norm() == pytest.approx(5.0)
    npt.assert_allclose(v.weights(), [9.0, 0.0, 16.0])
    u = v.normalized()
    assert u.norm() == pytest.approx(1.0)
    # mean photon of |psi|^2 = (0.36, 0, 0.64) over n = 0,1,2
    assert u.mean_photon() == pytest.approx(1.28)


def test_overlap_and_reality():
    a = FockVector([1.0, 0.0])
    b = FockVector([0.6, 0.8])
    assert a.overlap(b) == pytest.approx(0.6)
    assert b.is_real()
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


def test_quadrature_grid_integrates_gaussian():
    grid = build_quadrature_grid(half_width=8.0, panels=16)
    vals = np.exp(-grid.nodes ** 2) / math.sqrt(math.pi)
    assert grid.integrate(vals) == pytest.approx(1.0, abs=1e-13)
    assert grid.panel_sums(vals).sum() == pytest.approx(1.0, abs=1e-13)


def test_default_half_width_grows_with_dimension():
    assert default_half_width(64) > default_half_width(4)
