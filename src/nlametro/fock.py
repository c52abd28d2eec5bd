"""Finite Fock-space states and quadrature utilities.

Everything downstream works in a truncated number basis: a pure state is a
1-D array of amplitudes ``c_n`` (n = 0 .. dim-1).  This module owns that
type, the normalized position wavefunctions <x|n> and composite
Gauss-Legendre quadrature grids for integrals over the quadrature variable
x.  :class:`DensityOperator`, a Hermitian matrix in the same basis, is only
built by the dense test references in :mod:`nlametro.dense`; the package
itself works on pure states and Kraus images.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

# Tolerances used for type-level validation, enforced on construction
# (Hermiticity) or on request (normalization).
HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-10


class NonHermitianInput(ValueError):
    """A matrix that must be Hermitian is not, beyond tolerance."""


def _as_amplitudes(amps) -> np.ndarray:
    arr = np.array(amps, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("amplitudes must form a non-empty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("amplitudes must be finite")
    arr.setflags(write=False)
    return arr


@dataclasses.dataclass(frozen=True)
class FockVector:
    """Pure state in a truncated number basis.

    ``amps[n]`` is the amplitude on level ``n``.  The vector is not forced to
    be normalized at construction (derivative vectors reuse the type), but
    most consumers call :meth:`require_normalized` first.
    """

    amps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amps", _as_amplitudes(self.amps))

    @property
    def dim(self) -> int:
        return self.amps.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def is_normalized(self, tol: float = NORM_TOL) -> bool:
        return abs(self.norm() - 1.0) <= tol

    def require_normalized(self, tol: float = NORM_TOL) -> "FockVector":
        if not self.is_normalized(tol):
            raise ValueError(
                f"state norm {self.norm():.12g} differs from 1 beyond {tol:g}"
            )
        return self

    def normalized(self) -> "FockVector":
        nrm = self.norm()
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return FockVector(self.amps / nrm)

    def weights(self) -> np.ndarray:
        """Occupation probabilities |c_n|^2."""
        return np.abs(self.amps) ** 2

    def mean_photon(self) -> float:
        w = self.weights()
        return float(np.sum(np.arange(self.dim) * w) / np.sum(w))

    def overlap(self, other: "FockVector") -> complex:
        """<self|other>, padding the shorter vector with zeros."""
        n = min(self.dim, other.dim)
        return complex(np.vdot(self.amps[:n], other.amps[:n]))

    def is_real(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.amps.imag)) <= tol)


@dataclasses.dataclass(frozen=True)
class DensityOperator:
    """Mixed state in a truncated number basis; Hermiticity is validated on construction."""

    mat: np.ndarray

    def __post_init__(self):
        arr = np.array(self.mat, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ValueError("density operator must be a square matrix")
        scale = max(1.0, float(np.max(np.abs(arr))))
        defect = float(np.max(np.abs(arr - arr.conj().T)))
        if defect > HERMITICITY_TOL * scale:
            raise NonHermitianInput(
                f"hermiticity defect {defect:.3g} exceeds {HERMITICITY_TOL:g} * scale"
            )
        # Store the Hermitian part so downstream eigendecompositions see an
        # exactly Hermitian matrix.
        arr = 0.5 * (arr + arr.conj().T)
        arr.setflags(write=False)
        object.__setattr__(self, "mat", arr)

    @classmethod
    def from_pure(cls, state: FockVector) -> "DensityOperator":
        a = state.amps
        return cls(np.outer(a, a.conj()))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.mat).real)


# ---------------------------------------------------------------------------
# Position wavefunctions
# ---------------------------------------------------------------------------

def wavefunction_matrix(dim: int, x: np.ndarray) -> np.ndarray:
    """All normalized position wavefunctions ``<x|n>`` for n < dim.

    Uses the stable normalized recurrence

        psi_n(x) = x sqrt(2/n) psi_{n-1}(x) - sqrt((n-1)/n) psi_{n-2}(x)

    which keeps every row O(1), so arbitrary orders are safe.  Convention:
    ``<x|0> = pi^{-1/4} exp(-x^2/2)`` (unit-variance-free quadrature with
    ``[x, p] = i``, vacuum density variance 1/2).
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    xa = np.asarray(x, dtype=float)
    out = np.empty((dim, xa.size))
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * xa * xa)
    if dim > 1:
        out[1] = math.sqrt(2.0) * xa * out[0]
    for n in range(2, dim):
        out[n] = math.sqrt(2.0 / n) * xa * out[n - 1] - math.sqrt((n - 1.0) / n) * out[n - 2]
    return out


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class QuadratureGrid:
    """Composite Gauss-Legendre grid on ``[-half_width, half_width]``.

    ``nodes``/``weights`` are ordered left to right; ``panels`` equal-width
    panels of ``order`` points each.  A grid built by
    :func:`adaptive_quadrature_grid` integrates products of the wavefunctions
    it was sized for to ~1e-9 or better.
    """

    half_width: float
    panels: int
    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name in ("nodes", "weights"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def integrate(self, values: np.ndarray) -> float | np.ndarray:
        """Integral of ``values`` at the nodes; a stack integrates row by row."""
        total = np.dot(values, self.weights)
        return float(total) if np.ndim(total) == 0 else total

    def panel_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-panel contributions to the integral, left to right (last axis)."""
        prods = self.weights * values
        return prods.reshape(*prods.shape[:-1], self.panels, self.order).sum(axis=-1)


def build_quadrature_grid(half_width: float, panels: int, order: int = 16) -> QuadratureGrid:
    if half_width <= 0 or panels < 1 or order < 2:
        raise ValueError("invalid quadrature grid request")
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(-half_width, half_width, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    centers = 0.5 * (edges[:-1] + edges[1:])
    nodes = (half * base_x[None, :] + centers[:, None]).ravel()
    weights = np.tile(half * base_w, panels)
    return QuadratureGrid(half_width, panels, order, nodes, weights)


def default_half_width(dim: int) -> float:
    """Integration half-width safely beyond the classical turning point."""
    return 6.0 + 2.0 * math.sqrt(dim)


def adaptive_quadrature_grid(
    dim: int,
    rel_tol: float = 1e-9,
    half_width: float | None = None,
    max_panels: int = 1 << 14,
) -> QuadratureGrid:
    """Refine a composite Gauss-Legendre grid until it resolves level ``dim-1``.

    The most oscillatory integrand any consumer produces is the density of
    the highest level, so the panel count is doubled until that density
    integrates to 1 within ``rel_tol`` and no longer changes between
    refinements.
    """
    if half_width is None:
        half_width = default_half_width(dim)
    panels = max(8, int(math.ceil(half_width)))
    previous = None
    while panels <= max_panels:
        grid = build_quadrature_grid(half_width, panels)
        top = wavefunction_matrix(dim, grid.nodes)[dim - 1]
        total = grid.integrate(top * top)
        if (
            previous is not None
            and abs(total - previous) <= rel_tol * abs(total)
            and abs(total - 1.0) <= rel_tol
        ):
            return grid
        previous = total
        panels *= 2
    raise RuntimeError(f"quadrature grid did not converge for dim={dim}")
