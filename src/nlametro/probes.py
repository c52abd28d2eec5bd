"""Probe-state constructors.

Coherent states and squeezed vacuum truncated to a finite number basis, plus
a JSON loader for arbitrary custom probes.  Truncation keeps levels until the
discarded tail mass, summed forward from its own terms, drops below
``tail_tol`` and then renormalizes, so every constructor returns an exactly
normalized :class:`~nlametro.fock.FockVector`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib

import numpy as np

from .fock import FockVector

# Largest basis size any probe may occupy.  Photon-number tails decay at
# least geometrically for the supported families, so hitting the cap means
# the requested energy is out of the library's intended range.
HARD_DIM_CAP = 512

KIND_COHERENT = "coherent"
KIND_SQUEEZED = "squeezed-vacuum"
KIND_CUSTOM = "custom"
KNOWN_KINDS = (KIND_COHERENT, KIND_SQUEEZED, KIND_CUSTOM)

DEFAULT_TAIL_TOL = 1e-14


class TruncationOverflow(RuntimeError):
    """The requested tail tolerance needs more than HARD_DIM_CAP levels."""


class UnsupportedKind(ValueError):
    """Probe kind is not one of the supported family names."""


def _tail_within(weight: float, n: int, step, tail_tol: float) -> bool:
    """Whether ``sum_{k >= n} w_k <= tail_tol``, given ``weight = w_{n-1}``.

    The tail terms come from the recurrence ``w_k = step(w_{k-1}, k)`` and
    are summed forward until they no longer change the sum; the sum stops
    early once it exceeds ``tail_tol``.
    """
    total, term = 0.0, step(weight, n)
    while total + term != total:
        total += term
        if total > tail_tol:
            return False
        n += 1
        term = step(term, n)
    return True


def _head_weights(first: float, step, tail_tol: float, max_terms: int, what: str) -> np.ndarray:
    """Weights ``w_0 .. w_n`` of ``w_k = step(w_{k-1}, k)``, for the first ``n``
    whose tail ``sum_{k > n} w_k`` is at most ``tail_tol``.

    The tail is a forward sum of its own positive terms (:func:`_tail_within`).
    One minus a head sum would carry the head's rounding drift, about ``n``
    ulp, which above a few hundred levels exceeds ``tail_tol`` and keeps the
    test from ever passing.  More than ``max_terms`` weights, or a first
    weight that underflows, raise :class:`TruncationOverflow`.
    """
    if not first > 0.0:
        raise TruncationOverflow(f"{what} needs more than {HARD_DIM_CAP} levels")
    weights = [first]
    while not _tail_within(weights[-1], len(weights), step, tail_tol):
        if len(weights) >= max_terms:
            raise TruncationOverflow(f"{what} needs more than {HARD_DIM_CAP} levels")
        weights.append(step(weights[-1], len(weights)))
    return np.array(weights)


def coherent_state(alpha: float, tail_tol: float = DEFAULT_TAIL_TOL) -> FockVector:
    """Coherent state with real amplitude ``alpha >= 0``.

    Amplitudes ``c_n = exp(-alpha^2/2) alpha^n / sqrt(n!)`` accumulated by
    the stable weight recurrence ``w_{n+1} = w_n alpha^2/(n+1)``; mean photon
    number ``alpha^2``.
    """
    if not 0.0 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and non-negative, got {alpha!r}")
    if alpha == 0.0:
        return FockVector([1.0])
    weights = _head_weights(
        math.exp(-alpha * alpha),
        lambda w, n: w * alpha * alpha / n,
        tail_tol,
        HARD_DIM_CAP,
        f"coherent probe alpha={alpha:g}",
    )
    amps = np.sqrt(weights)
    return FockVector(amps / np.linalg.norm(amps))


def squeezed_vacuum(r: float, tail_tol: float = DEFAULT_TAIL_TOL) -> FockVector:
    """Squeezed vacuum with squeezing parameter ``r >= 0``.

    Only even levels are occupied:
    ``c_{2n} = cosh(r)^{-1/2} (tanh(r)/2)^n sqrt((2n)!)/n!`` up to the overall
    normalization; mean photon number ``sinh(r)^2``.  Even weights follow the
    recurrence ``w_{n+1} = w_n tanh(r)^2 (2n+1)/(2n+2)``.
    """
    if not 0.0 <= r < math.inf:
        raise ValueError(f"squeezing parameter must be finite and non-negative, got {r!r}")
    if r == 0.0:
        return FockVector([1.0])
    t2 = math.tanh(r) ** 2
    try:
        first = 1.0 / math.cosh(r)
    except OverflowError:  # r above ~710: the weight underflows, the cap is exceeded
        first = 0.0
    weights = _head_weights(
        first,
        lambda w, n: w * t2 * (2 * n - 1) / (2.0 * n),
        tail_tol,
        (HARD_DIM_CAP + 1) // 2,
        f"squeezed probe r={r:g}",
    )
    amps = np.zeros(2 * weights.size - 1)
    amps[0::2] = np.sqrt(weights)
    return FockVector(amps / np.linalg.norm(amps))


def solve_amplitude_for_nbar(kind: str, nbar: float) -> float:
    """Family amplitude that yields mean photon number ``nbar``.

    ``sqrt(nbar)`` for coherent probes, ``arcsinh(sqrt(nbar))`` for squeezed
    vacuum.  Custom probes have no family amplitude.
    """
    if not 0.0 <= nbar < math.inf:
        raise ValueError(f"mean photon number must be finite and non-negative, got {nbar!r}")
    if kind == KIND_COHERENT:
        return math.sqrt(nbar)
    if kind == KIND_SQUEEZED:
        return math.asinh(math.sqrt(nbar))
    raise UnsupportedKind(f"no amplitude solver for probe kind {kind!r}")


def custom_probe(amps) -> tuple[FockVector, float]:
    """Wrap raw amplitudes as a normalized probe.

    Returns the normalized vector together with the correction factor the
    input norm was divided by (1.0 means the input was already normalized).
    """
    raw = np.array(amps, dtype=np.complex128)
    if raw.ndim != 1 or raw.size == 0:
        raise ValueError("custom probe needs a non-empty 1-D amplitude list")
    if raw.size > HARD_DIM_CAP:
        raise TruncationOverflow(
            f"custom probe has {raw.size} levels, cap is {HARD_DIM_CAP}"
        )
    nrm = float(np.linalg.norm(raw))
    if nrm == 0.0:
        raise ValueError("custom probe must have a non-zero amplitude")
    return FockVector(raw / nrm), nrm


def load_custom_probe(path) -> tuple[FockVector, float]:
    """Load a custom probe from JSON: an array of ``[re, im]`` pairs.

    The amplitudes are normalized on load; the returned float is the norm of
    the raw input (the applied correction factor).
    """
    text = pathlib.Path(path).read_text(encoding="utf-8")
    data = json.loads(text)
    if not isinstance(data, list) or not data:
        raise ValueError("custom probe file must contain a non-empty array")
    amps = []
    for entry in data:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ValueError("each amplitude must be a [re, im] pair")
        amps.append(complex(float(entry[0]), float(entry[1])))
    return custom_probe(amps)


@dataclasses.dataclass(frozen=True)
class ProbeSpec:
    """Declarative description of a probe state.

    ``amplitude`` is the family parameter (alpha or r); ``amps`` carries the
    raw amplitudes of a custom probe.  ``build()`` materializes the
    normalized state.
    """

    kind: str
    amplitude: float | None = None
    amps: tuple[complex, ...] | None = None
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self):
        if self.kind not in KNOWN_KINDS:
            raise UnsupportedKind(f"unknown probe kind {self.kind!r}")
        if self.kind == KIND_CUSTOM:
            if self.amps is None:
                raise ValueError("custom probes require explicit amplitudes")
        elif self.amplitude is None:
            raise ValueError(f"{self.kind} probes require an amplitude")
        if not (0.0 < self.tail_tol < 1e-2):
            raise ValueError("tail_tol must lie in (0, 1e-2)")

    @classmethod
    def from_nbar(cls, kind: str, nbar: float, tail_tol: float = DEFAULT_TAIL_TOL) -> "ProbeSpec":
        return cls(kind=kind, amplitude=solve_amplitude_for_nbar(kind, nbar), tail_tol=tail_tol)

    def build(self) -> FockVector:
        if self.kind == KIND_COHERENT:
            return coherent_state(self.amplitude, self.tail_tol)
        if self.kind == KIND_SQUEEZED:
            return squeezed_vacuum(self.amplitude, self.tail_tol)
        state, _ = custom_probe(np.array(self.amps, dtype=np.complex128))
        return state

    def describe(self) -> dict:
        out = {"kind": self.kind}
        if self.amplitude is not None:
            out["amplitude"] = self.amplitude
        if self.amps is not None:
            out["amps"] = [[z.real, z.imag] for z in self.amps]
        return out
