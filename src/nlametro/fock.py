"""Finite Fock-space states and quadrature utilities.

Everything downstream works in a truncated number basis: a pure state is a
1-D array of amplitudes ``c_n`` (n = 0 .. dim-1), stored real when every
imaginary part is exactly zero (:class:`FockVector`).  This module owns that
type, the normalized position wavefunctions <x|n> and composite
Gauss-Legendre quadrature grids for integrals over the quadrature variable
x.  A grid sized for ``dim`` levels is the coarsest of a doubling sequence
that integrates the top-level density ``|<x|dim-1>|^2``, the most
oscillatory integrand any consumer forms, to 1 within
``QUADRATURE_REL_TOL`` while its doubling does too: the error is measured
on a known integral, and the doubling shows that the grid is in the
geometric convergence of the Gauss-Legendre panels.
:class:`DensityOperator`, a Hermitian matrix in the same basis, is only
built by the dense test references in ``tests/dense.py``; the package
itself works on pure states and Kraus images.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

# Tolerances used for type-level validation, enforced on construction
# (Hermiticity) or on request (normalization, real amplitudes).
HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-10
REAL_AMPLITUDE_TOL = 1e-12
# Gauss-Legendre points per panel; an adaptive grid's relative tolerance
# and panel cap.
QUADRATURE_ORDER = 16
QUADRATURE_REL_TOL = 1e-9
QUADRATURE_MAX_PANELS = 1 << 14

# The 16-point Gauss-Legendre rule on [-1, 1], bit-equal to
# ``numpy.polynomial.legendre.leggauss(16)``, which is exactly symmetric:
# its nonnegative nodes in ascending order, and their weights.
_GL_HALF_NODES = (
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
)
_GL_HALF_WEIGHTS = (
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
)
GAUSS_LEGENDRE_NODES = np.concatenate([-np.array(_GL_HALF_NODES[::-1]), _GL_HALF_NODES])
GAUSS_LEGENDRE_WEIGHTS = np.concatenate([_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS])
for _rule in (GAUSS_LEGENDRE_NODES, GAUSS_LEGENDRE_WEIGHTS):
    _rule.setflags(write=False)


class NonHermitianInput(ValueError):
    """A matrix that must be Hermitian is not, beyond tolerance."""


def _as_amplitudes(amps) -> np.ndarray:
    """A read-only copy of ``amps``: ``float64`` when every imaginary part is
    exactly zero, else ``complex128``."""
    arr = np.asarray(amps)
    if arr.dtype.kind in "biuf":
        arr = arr.astype(np.float64)
    else:
        arr = arr.astype(np.complex128)
        if not arr.imag.any():
            arr = arr.real.copy()
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

    Storage rule: ``amps`` is a read-only ``float64`` array when every
    imaginary part of the input is exactly zero, and ``complex128``
    otherwise, so every kernel that reads a real probe runs in real
    arithmetic.  This is an exact test, unlike :meth:`is_real`, which
    accepts imaginary parts up to ``REAL_AMPLITUDE_TOL`` (1e-12): a probe
    with an imaginary part of 1e-300 is stored complex yet is "real" to the
    detectors that require real amplitudes.
    """

    amps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amps", _as_amplitudes(self.amps))

    @property
    def dim(self) -> int:
        return self.amps.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def require_normalized(self) -> "FockVector":
        if abs(self.norm() - 1.0) > NORM_TOL:
            raise ValueError(
                f"state norm {self.norm():.12g} differs from 1 beyond {NORM_TOL:g}"
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

    def is_real(self) -> bool:
        """Every imaginary part within ``REAL_AMPLITUDE_TOL``; see the storage rule."""
        return bool(np.max(np.abs(self.amps.imag)) <= REAL_AMPLITUDE_TOL)


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

def _wavefunction_rows(rows: np.ndarray, dim: int, xa: np.ndarray) -> np.ndarray:
    """Run the recurrence of :func:`wavefunction_matrix` up to level ``dim-1``.

    Level ``n`` is written to ``rows[n % len(rows)]``, so ``dim`` rows hold
    every level and 2 rows roll over the two levels each step reads (a
    level is computed before it overwrites the level two below it); the
    operations, and so the bits of every level, are the same either way.
    ``rows`` needs ``min(dim, 2)`` rows or more.  Returns the row holding
    level ``dim-1``.
    """
    k = rows.shape[0]
    rows[0] = np.pi ** -0.25 * np.exp(-0.5 * xa * xa)
    if dim > 1:
        rows[1] = math.sqrt(2.0) * xa * rows[0]
    for n in range(2, dim):
        rows[n % k] = (math.sqrt(2.0 / n) * xa * rows[(n - 1) % k]
                       - math.sqrt((n - 1.0) / n) * rows[(n - 2) % k])
    return rows[(dim - 1) % k]


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
    _wavefunction_rows(out, dim, xa)
    return out


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class QuadratureGrid:
    """Composite Gauss-Legendre grid on ``[-half_width, half_width]``.

    ``nodes``/``weights`` are ordered left to right and read-only;
    ``panels`` equal-width panels of ``order`` points each, so the outermost
    panels are the first and last ``order`` nodes.  A grid built by
    :func:`adaptive_quadrature_grid` integrates the top-level density it was
    sized for to 1 within ``QUADRATURE_REL_TOL`` (1e-9), and so do the grid
    with twice its panels; products of lower wavefunctions are no more
    oscillatory and carry the same tolerance.
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


def build_quadrature_grid(half_width: float, panels: int) -> QuadratureGrid:
    if half_width <= 0 or panels < 1:
        raise ValueError("invalid quadrature grid request")
    edges = np.linspace(-half_width, half_width, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    centers = 0.5 * (edges[:-1] + edges[1:])
    nodes = (half * GAUSS_LEGENDRE_NODES[None, :] + centers[:, None]).ravel()
    weights = np.tile(half * GAUSS_LEGENDRE_WEIGHTS, panels)
    return QuadratureGrid(half_width, panels, QUADRATURE_ORDER, nodes, weights)


def default_half_width(dim: int) -> float:
    """Integration half-width safely beyond the classical turning point."""
    return 6.0 + 2.0 * math.sqrt(dim)


def adaptive_quadrature_grid(dim: int, half_width: float | None = None) -> QuadratureGrid:
    """Coarsest composite Gauss-Legendre grid that resolves level ``dim-1``.

    The most oscillatory integrand any consumer produces is the density of
    the highest level, ``|<x|dim-1>|^2``, whose exact integral is 1.  The
    panel count is doubled from ``max(8, ceil(half_width))``, and the first
    grid that integrates that density to 1 within ``QUADRATURE_REL_TOL``
    while its doubling does too is returned.  Error model: each 16-point
    panel is exact for polynomials of degree <= 31, so on these analytic
    integrands the error falls geometrically with the panel count; the
    returned grid's error on the top-level density is measured directly,
    and the doubling's agreement shows the grid is in that convergent
    regime rather than at a lucky cancellation.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    if half_width is None:
        half_width = default_half_width(dim)
    panels = max(8, int(math.ceil(half_width)))
    previous = None
    while panels <= QUADRATURE_MAX_PANELS:
        grid = build_quadrature_grid(half_width, panels)
        # only the top level is read: roll the recurrence over 2 rows
        top = _wavefunction_rows(np.empty((2, grid.nodes.size)), dim, grid.nodes)
        converged = abs(grid.integrate(top * top) - 1.0) <= QUADRATURE_REL_TOL
        if converged and previous is not None:
            return previous
        previous = grid if converged else None
        panels *= 2
    raise RuntimeError(f"quadrature grid did not converge for dim={dim}")
