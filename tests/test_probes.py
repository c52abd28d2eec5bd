import json
import math

import mpmath
import numpy as np
import pytest

from nlametro import probes
from nlametro.probes import (
    DEFAULT_TAIL_TOL,
    HARD_DIM_CAP,
    ProbeSpec,
    TruncationOverflow,
    UnsupportedKind,
    coherent_state,
    custom_probe,
    load_custom_probe,
    solve_amplitude_for_nbar,
    squeezed_vacuum,
)


def test_coherent_weights_are_poissonian():
    alpha = 1.0
    state = coherent_state(alpha)
    w = state.weights()
    for n in range(4):
        expected = math.exp(-alpha ** 2) * alpha ** (2 * n) / math.factorial(n)
        assert w[n] == pytest.approx(expected, rel=1e-12)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    assert state.mean_photon() == pytest.approx(alpha ** 2, rel=1e-10)


def test_squeezed_vacuum_even_levels_only():
    r = 0.9
    state = squeezed_vacuum(r)
    w = state.weights()
    assert np.all(w[1::2] == 0.0)
    assert w[0] == pytest.approx(1.0 / math.cosh(r), rel=1e-12)
    assert state.mean_photon() == pytest.approx(math.sinh(r) ** 2, rel=1e-10)


def test_amplitude_solvers():
    assert solve_amplitude_for_nbar("coherent", 2.25) == pytest.approx(1.5)
    # arcsinh(sqrt(nbar)) = ln(sqrt(1.5) + sqrt(2.5)) at nbar = 1.5
    r = solve_amplitude_for_nbar("squeezed-vacuum", 1.5)
    assert r == pytest.approx(1.0317185344477802, rel=1e-14)
    assert math.sinh(r) ** 2 == pytest.approx(1.5, rel=1e-14)
    assert solve_amplitude_for_nbar("coherent", 0.0) == 0.0
    with pytest.raises(ValueError):
        solve_amplitude_for_nbar("coherent", -0.5)
    with pytest.raises(UnsupportedKind):
        solve_amplitude_for_nbar("custom", 1.0)


def test_zero_energy_probes_are_vacuum():
    for kind in ("coherent", "squeezed-vacuum"):
        state = ProbeSpec.from_nbar(kind, 0.0).build()
        assert state.dim == 1
        assert state.amps[0] == pytest.approx(1.0)


def test_truncation_tail_below_tolerance():
    state = coherent_state(2.0)
    assert abs(1.0 - state.norm() ** 2) < DEFAULT_TAIL_TOL


def test_custom_probe_normalizes_and_reports_correction():
    state, correction = custom_probe([3.0, 4.0])
    assert correction == pytest.approx(5.0)
    assert state.norm() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        custom_probe([0.0, 0.0])
    with pytest.raises(TruncationOverflow):
        custom_probe(np.ones(HARD_DIM_CAP + 1))


def test_custom_probe_scales_exactly_before_taking_the_norm():
    # the scaling is by a power of two, so an input whose plain norm is safe
    # gives the bits of dividing by that norm
    rng = np.random.default_rng(8)
    for scale in (1e-150, 1e-3, 1.0, 3.0, 1e150):
        raw = scale * (rng.standard_normal(9) + 1j * rng.standard_normal(9))
        state, correction = custom_probe(raw)
        nrm = float(np.linalg.norm(raw))
        assert correction == nrm and state.amps.tolist() == (raw / nrm).tolist()
    for huge in ([1e200, 0.0], [1e308, 1e308], [1e-320, 0.0]):
        state, correction = custom_probe(huge)
        assert state.norm() == pytest.approx(1.0, abs=1e-15)
        assert correction == pytest.approx(math.hypot(*huge), rel=1e-15)
    assert custom_probe([1.7e308, 1.7e308j])[1] == math.inf
    for bad in ([math.nan, 0.0], [0.5, complex(0.0, math.inf)]):
        with pytest.raises(ValueError, match="must be finite"):
            custom_probe(bad)


def test_load_custom_probe_roundtrip(tmp_path):
    path = tmp_path / "probe.json"
    path.write_text(json.dumps([[1.0, 0.0], [0.0, 2.0]]))
    state, correction = load_custom_probe(path)
    assert correction == pytest.approx(math.sqrt(5.0))
    assert state.amps[1] == pytest.approx(2j / math.sqrt(5.0))
    path.write_text(json.dumps([[1.0]]))
    with pytest.raises(ValueError):
        load_custom_probe(path)
    # each part is a JSON number that fits a double: a string or a boolean is
    # not read as a number, and an integer beyond the double range is no
    # OverflowError
    for amps, index in (([[10 ** 400, 0]], 0), ([["0.5", 0], [0.5, 0]], 0),
                        ([[True, 0]], 0), ([[0.5, 0], [0, False]], 1)):
        path.write_text(json.dumps(amps))
        with pytest.raises(ValueError, match=rf"^amplitude {index} "):
            load_custom_probe(path)


def test_probe_spec_validation():
    with pytest.raises(UnsupportedKind):
        ProbeSpec(kind="thermal", amplitude=1.0)
    with pytest.raises(ValueError):
        ProbeSpec(kind="coherent")
    with pytest.raises(ValueError):
        ProbeSpec(kind="custom")
    spec = ProbeSpec(kind="custom", amps=(1.0 + 0j,))
    assert spec.build().dim == 1
    assert spec.describe()["kind"] == "custom"


def test_describe_roundtrips_family_parameters():
    spec = ProbeSpec.from_nbar("squeezed-vacuum", 1.5)
    desc = spec.describe()
    assert desc["kind"] == "squeezed-vacuum"
    assert desc["amplitude"] == pytest.approx(1.0317185344477802)
    assert math.sinh(desc["amplitude"]) ** 2 == pytest.approx(1.5, rel=1e-12)


# Coherent energies at which stopping on one minus the head sum never
# passed: the head's rounding drift stayed above the tolerance.
DRIFT_ENERGIES = (130, 180, 185, 195, 200, 215, 270, 315, 320, 325, 330, 340, 345, 350)


@pytest.mark.parametrize("nbar", DRIFT_ENERGIES)
def test_coherent_truncation_keeps_the_fewest_levels_with_exact_tail_below_tolerance(nbar):
    state = ProbeSpec.from_nbar("coherent", nbar).build()
    assert state.dim <= HARD_DIM_CAP
    # the Poisson tail past d levels is the regularised lower incomplete gamma P(d, nbar)
    with mpmath.workdps(40):
        kept = mpmath.gammainc(state.dim, 0, nbar, regularized=True)
        one_fewer = mpmath.gammainc(state.dim - 1, 0, nbar, regularized=True)
    assert kept <= 1e-14 < one_fewer


def test_squeezed_truncation_stops_on_its_tail_up_to_the_cap():
    # nbar=8 keeps 509 levels; nbar=9 genuinely needs more than the cap
    assert ProbeSpec.from_nbar("squeezed-vacuum", 8.0).build().dim == 509
    with pytest.raises(TruncationOverflow):
        ProbeSpec.from_nbar("squeezed-vacuum", 9.0).build()


def test_energies_beyond_the_cap_raise_overflow():
    for nbar in (512.0, 1e6):
        with pytest.raises(TruncationOverflow):
            ProbeSpec.from_nbar("coherent", nbar).build()


def _old_head_weights(first, step, max_terms):
    """The truncation loop before one run of the recurrence: each candidate
    level re-ran the recurrence over its own tail.  None where it overflowed."""
    def tail_within(weight, n):
        total, term = 0.0, step(weight, n)
        while total + term != total:
            total += term
            if total > DEFAULT_TAIL_TOL:
                return False
            n += 1
            term = step(term, n)
        return True

    if not first > 0.0:
        return None
    weights = [first]
    while not tail_within(weights[-1], len(weights)):
        if len(weights) >= max_terms:
            return None
        weights.append(step(weights[-1], len(weights)))
    return np.array(weights)


def _family_recurrence(kind, nbar):
    """The first weight, step and cap the constructors pass to ``_head_weights``."""
    a = solve_amplitude_for_nbar(kind, nbar)
    if kind == "coherent":
        return math.exp(-a * a), lambda w, n: w * a * a / n, HARD_DIM_CAP
    t2 = math.tanh(a) ** 2
    return 1.0 / math.cosh(a), lambda w, n: w * t2 * (2 * n - 1) / (2.0 * n), (HARD_DIM_CAP + 1) // 2


@pytest.mark.parametrize("kind, nbars", [
    ("coherent", np.arange(1, 12001) * 0.0005),
    ("squeezed-vacuum", np.arange(1, 8001) * 0.0005),
    ("coherent", DRIFT_ENERGIES),
    ("squeezed-vacuum", (8.0, 9.0)),
])
def test_truncation_keeps_the_old_loops_weights_bit_for_bit(kind, nbars):
    # the benchmark's energy sweeps (coherent to 6, squeezed to 4) on a
    # 0.0005 grid, the coherent energies whose head-sum stop drifted, and
    # squeezed nbar 8 (509 levels) and 9 (beyond the cap)
    for nbar in nbars:
        first, step, cap = _family_recurrence(kind, float(nbar))
        want = _old_head_weights(first, step, cap)
        try:
            got = probes._head_weights(first, step, cap, kind)
        except TruncationOverflow:
            got = None
        assert (got is None) == (want is None), nbar
        if want is not None:
            assert got.shape == want.shape and np.array_equal(got, want), nbar
