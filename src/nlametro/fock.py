"""Finite Fock-space states and quadrature utilities.

Everything downstream works in a truncated number basis: a pure state is a
1-D array of amplitudes ``c_n`` (n = 0 .. dim-1), stored real when every
imaginary part is exactly zero (:class:`FockVector`).  This module owns that
type, the normalized position wavefunctions <x|n> and composite
Gauss-Legendre quadrature grids for integrals over the quadrature variable
x.  A grid sized for ``dim`` levels is the coarsest of a doubling sequence
whose weighted error on the level densities ``|<x|n>|^2``, each of which
integrates to 1, is within ``QUADRATURE_REL_TOL`` while its doubling's is
too: the errors are measured on known integrals, and the doubling shows
that the grid is in the geometric convergence of the Gauss-Legendre
panels.  The weights are a probe's ``|c_n|^2``, or all on the top level
``dim-1``, the most oscillatory density of ``dim`` levels.  The levels are
streamed over 2 rolling rows (:func:`wavefunction_levels`), so no
``dim``-row table is needed to size a grid or to build a probe's fields.
:class:`DensityOperator`, a Hermitian matrix in the same basis, is only
built by the dense test references in ``tests/dense.py``; the package
itself works on pure states and Kraus images.
"""

from __future__ import annotations

import dataclasses
import math
import typing

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

def wavefunction_levels(dim: int, x) -> typing.Iterator[np.ndarray]:
    """Yield ``<x|n>`` at the outcomes ``x`` for n = 0 .. dim-1, one level at a time.

    Runs the recurrence of :func:`wavefunction_matrix` over 2 rolling rows
    of ``x.size``, in place, so at most 3 rows exist however large ``dim``
    is; each yielded row is overwritten two levels later, so a consumer
    reads it before asking for the next.  The operations, and so the bits
    of every level, are those of :func:`wavefunction_matrix`.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    xa = np.asarray(x, dtype=float)
    rows = np.empty((2, xa.size))
    rows[0] = np.pi ** -0.25 * np.exp(-0.5 * xa * xa)
    yield rows[0]
    if dim > 1:
        rows[1] = math.sqrt(2.0) * xa * rows[0]
        yield rows[1]
    scratch = np.empty(xa.size)
    for n in range(2, dim):
        # rows[n % 2] holds level n-2 until level n overwrites it
        row = rows[n % 2]
        np.multiply(math.sqrt(2.0 / n), xa, out=scratch)
        scratch *= rows[(n - 1) % 2]
        row *= math.sqrt((n - 1.0) / n)
        np.subtract(scratch, row, out=row)
        yield row


def wavefunction_matrix(dim: int, x: np.ndarray) -> np.ndarray:
    """All normalized position wavefunctions ``<x|n>`` for n < dim.

    Uses the stable normalized recurrence

        psi_n(x) = x sqrt(2/n) psi_{n-1}(x) - sqrt((n-1)/n) psi_{n-2}(x)

    which keeps every row O(1), so arbitrary orders are safe.  Convention:
    ``<x|0> = pi^{-1/4} exp(-x^2/2)`` (unit-variance-free quadrature with
    ``[x, p] = i``, vacuum density variance 1/2).  The package streams the
    levels (:func:`wavefunction_levels`) and never holds this ``dim``-row
    table; the oracles and the test references build it.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    xa = np.asarray(x, dtype=float)
    out = np.empty((dim, xa.size))
    for n, row in enumerate(wavefunction_levels(dim, xa)):
        out[n] = row
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
    :func:`adaptive_quadrature_grid` integrates the level densities it was
    sized for to 1 within ``QUADRATURE_REL_TOL`` (1e-9) in their weighted
    sum, and so does the grid with twice its panels; products of two
    levels are no more oscillatory than their densities.
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


def adaptive_quadrature_grid(
    dim: int, half_width: float | None = None, level_weights: np.ndarray | None = None
) -> QuadratureGrid:
    """Coarsest composite Gauss-Legendre grid that resolves ``dim`` levels at their weights.

    Every level's density ``|<x|n>|^2`` integrates to exactly 1, so each
    grid has a measured error per level, ``|integral psi_n^2 - 1|``.
    ``level_weights`` (``dim`` nonnegative numbers, a probe's ``|c_n|^2``)
    weighs them; None puts all the weight on the top level ``dim-1``, the
    most oscillatory density any consumer of ``dim`` levels forms.  The
    panel count is doubled from ``max(8, ceil(half_width))``, and the first
    grid whose weighted error ``sum_n w_n |integral psi_n^2 - 1|`` is within
    ``QUADRATURE_REL_TOL`` while its doubling's is too is returned.  Levels
    of zero weight are skipped, so with all the weight on the top level the
    rule, and every bit of the grid, are those of the top-level test alone.

    Error model: each 16-point panel is exact for polynomials of degree
    <= 31, so on these analytic integrands the error falls geometrically
    with the panel count; the returned grid's weighted error is measured
    directly, and the doubling's agreement shows the grid is in that
    convergent regime rather than at a lucky cancellation.  A density the
    probe forms is a sum of products ``c_m c_n <x|m><x|n>``, each no more
    oscillatory than the densities of its two levels, so levels the probe
    barely occupies need resolving only as far as their weight reaches.
    The search streams the levels over 2 rolling rows of nodes
    (:func:`wavefunction_levels`).
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    if half_width is None:
        half_width = default_half_width(dim)
    if level_weights is None:
        level_weights = np.zeros(dim)
        level_weights[-1] = 1.0
    level_weights = np.asarray(level_weights, dtype=float)
    if level_weights.shape != (dim,):
        raise ValueError("level_weights must hold one weight per level")
    panels = max(8, int(math.ceil(half_width)))
    previous = None
    while panels <= QUADRATURE_MAX_PANELS:
        grid = build_quadrature_grid(half_width, panels)
        error = 0.0
        for n, row in enumerate(wavefunction_levels(dim, grid.nodes)):
            if level_weights[n] != 0.0:
                error += level_weights[n] * abs(grid.integrate(row * row) - 1.0)
        converged = error <= QUADRATURE_REL_TOL
        if converged and previous is not None:
            return previous
        previous = grid if converged else None
        panels *= 2
    raise RuntimeError(f"quadrature grid did not converge for dim={dim}")
