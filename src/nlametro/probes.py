"""Probe-state constructors.

Coherent states and squeezed vacuum truncated to a finite number basis, plus
a JSON loader for arbitrary custom probes.  Truncation keeps levels until the
discarded tail mass, summed forward from its own terms, drops below
``DEFAULT_TAIL_TOL`` and then renormalizes, so every constructor returns an
exactly normalized :class:`~nlametro.fock.FockVector`.
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


def _head_weights(first: float, step, max_terms: int, what: str) -> np.ndarray:
    """Weights ``w_0 .. w_n`` of ``w_k = step(w_{k-1}, k)``, for the first ``n``
    whose tail ``sum_{k > n} w_k`` is at most ``DEFAULT_TAIL_TOL``.

    The tail is a forward sum of its own positive terms, added until one no
    longer changes the sum; it fails once the sum exceeds the tolerance.
    One minus a head sum would carry the head's rounding drift, about ``n``
    ulp, which above a few hundred levels exceeds the tolerance and keeps the
    test from ever passing.  Each term of the recurrence is computed once,
    when the first candidate's tail reaches it, and every later candidate's
    tail reads it from the same list.  More than ``max_terms`` weights, or a
    first weight that underflows, raise :class:`TruncationOverflow`.
    """
    if not first > 0.0:
        raise TruncationOverflow(f"{what} needs more than {HARD_DIM_CAP} levels")
    terms = [first]
    for n in range(1, max_terms + 1):
        # keep w_0 .. w_{n-1} if the tail from w_n is within the tolerance
        total, k = 0.0, n
        while total <= DEFAULT_TAIL_TOL:
            if k == len(terms):
                terms.append(step(terms[-1], k))
            if total + terms[k] == total:
                return np.array(terms[:n])
            total += terms[k]
            k += 1
    raise TruncationOverflow(f"{what} needs more than {HARD_DIM_CAP} levels")


def coherent_state(alpha: float) -> FockVector:
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
        HARD_DIM_CAP,
        f"coherent probe alpha={alpha:g}",
    )
    amps = np.sqrt(weights)
    return FockVector(amps / np.linalg.norm(amps))


def squeezed_vacuum(r: float) -> FockVector:
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
    input norm was divided by (1.0 means the input was already normalized;
    ``inf`` when that norm exceeds the double range).  Every amplitude must
    be finite and one must be non-zero.
    """
    raw = np.array(amps, dtype=np.complex128)
    if raw.ndim != 1 or raw.size == 0:
        raise ValueError("custom probe needs a non-empty 1-D amplitude list")
    if raw.size > HARD_DIM_CAP:
        raise TruncationOverflow(
            f"custom probe has {raw.size} levels, cap is {HARD_DIM_CAP}"
        )
    if not np.all(np.isfinite(raw)):
        raise ValueError("custom probe amplitudes must be finite")
    largest = float(np.max(np.abs(raw.view(np.float64))))
    if largest == 0.0:
        raise ValueError("custom probe must have a non-zero amplitude")
    # Scale by the power of two 2**e <= largest before taking the norm, so
    # it neither overflows nor underflows; the scaling is exact, so inputs
    # whose plain norm is safe keep their bits.
    e = math.frexp(largest)[1] - 1
    unit = np.ldexp(raw.view(np.float64), -e).view(np.complex128)
    nrm = float(np.linalg.norm(unit))
    return FockVector(unit / nrm), nrm * math.ldexp(1.0, e)


def load_custom_probe(path) -> tuple[FockVector, float]:
    """Load a custom probe from JSON: an array of ``[re, im]`` pairs.

    The amplitudes are normalized on load; the returned float is the norm of
    the raw input (the applied correction factor).  Each part must be a JSON
    number that fits a double: a string, a boolean or an integer beyond the
    double range raises ``ValueError`` naming the amplitude's index.
    """
    text = pathlib.Path(path).read_text(encoding="utf-8")
    data = json.loads(text)
    if not isinstance(data, list) or not data:
        raise ValueError("custom probe file must contain a non-empty array")
    amps = []
    for index, entry in enumerate(data):
        if not (isinstance(entry, list) and len(entry) == 2
                and all(type(x) in (int, float) for x in entry)):
            raise ValueError(f"amplitude {index} must be a [re, im] pair of JSON numbers")
        try:
            amps.append(complex(float(entry[0]), float(entry[1])))
        except OverflowError:
            raise ValueError(f"amplitude {index} does not fit a double") from None
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

    def __post_init__(self):
        if self.kind not in KNOWN_KINDS:
            raise UnsupportedKind(f"unknown probe kind {self.kind!r}")
        if self.kind == KIND_CUSTOM:
            if self.amps is None:
                raise ValueError("custom probes require explicit amplitudes")
        elif self.amplitude is None:
            raise ValueError(f"{self.kind} probes require an amplitude")

    @classmethod
    def from_nbar(cls, kind: str, nbar: float) -> "ProbeSpec":
        return cls(kind=kind, amplitude=solve_amplitude_for_nbar(kind, nbar))

    def build(self) -> FockVector:
        if self.kind == KIND_COHERENT:
            return coherent_state(self.amplitude)
        if self.kind == KIND_SQUEEZED:
            return squeezed_vacuum(self.amplitude)
        state, _ = custom_probe(np.array(self.amps, dtype=np.complex128))
        return state

    def describe(self) -> dict:
        out = {"kind": self.kind}
        if self.amplitude is not None:
            out["amplitude"] = self.amplitude
        if self.amps is not None:
            out["amps"] = [[z.real, z.imag] for z in self.amps]
        return out
