"""Release gate: one test per acceptance criterion.

Each test enforces the stated numerical tolerance (and runtime budget where
one applies), so ``pytest -v`` reads as a one-line verdict per criterion.
"""

import json
import math
import time

import pytest
from conftest import points_of

from nlametro import cli
from nlametro.fisher import qfi_effective, qfi_effective_closed_form
from nlametro.fock import FockVector
from nlametro.instrument import SUCCESS, NlaParams, branch_probability
from nlametro.montecarlo import ExperimentConfig, GainGrid, run_crb_experiment
from nlametro.oracles import joint_fi_direct
from nlametro.probes import ProbeSpec
from nlametro.selfcheck import (
    check_detector_suite,
    check_figure_behavior,
    check_identity_suite,
    check_meter_suite,
    check_oracle_suite,
    standard_breakdowns,
    standard_probe_grids,
)

MC_SEED = 9
MC_SHOTS = 10_000
MC_REPLICATIONS = 500
MC_SEARCH = GainGrid(lo=4.0 / 3.0, hi=3.0, points=61)


def _assert_all_passed(results):
    failed = [r.row() for r in results if not r.passed]
    assert not failed, "\n".join(failed)


def test_criterion_1_decomposition_identities_on_standard_grid():
    # q_eff == ps_qs + pf_qf + f_c and closed form == decomposition, both to
    # 1e-9 relative, across all 280 standard operating points.
    start = time.perf_counter()
    count = 0
    for probe, labels, points in standard_probe_grids():
        for label, params in zip(labels, points_of(points)):
            bd = qfi_effective(probe, params)
            closed = qfi_effective_closed_form(probe, params)
            total = bd.component_sum()
            assert abs(bd.q_eff - total) <= 1e-9 * bd.q_eff, label
            assert abs(closed - total) <= 1e-9 * closed, label
            count += 1
    assert count == 280
    # the full identity suite adds completeness/normalization invariants
    _assert_all_passed(check_identity_suite(standard_breakdowns()))
    assert time.perf_counter() - start < 10.0


def test_criterion_2_fidelity_finite_difference_oracles_within_1e5():
    start = time.perf_counter()
    _assert_all_passed(check_oracle_suite(standard_breakdowns()))
    assert time.perf_counter() - start < 120.0


def test_criterion_3_detector_fisher_information_saturates_the_qfi():
    # per-branch saturation rows carry their own tolerances (photon counting
    # 1e-9, homodyne 1e-6); the joint (branch, outcome) record is checked
    # brute-force against the closed form for both detectors.
    _assert_all_passed(check_detector_suite(standard_breakdowns()))
    for probe, labels, points in standard_probe_grids():
        for label, params in zip(labels, points_of(points)):
            q_eff = qfi_effective_closed_form(probe, params)
            for detector in ("photon-counting", "homodyne"):
                fi = joint_fi_direct(probe, params, detector)
                assert abs(fi - q_eff) <= 1e-5 * q_eff, f"{label} {detector}"


def test_criterion_4_hand_derived_golden_points():
    start = time.perf_counter()
    params = NlaParams(g=2.0, p=1)

    vacuum = FockVector([1.0])
    bd = qfi_effective(vacuum, params)
    assert branch_probability(vacuum, params, SUCCESS) == pytest.approx(0.25, abs=1e-9)
    assert bd.f_c == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert bd.q_eff == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert bd.q_s == pytest.approx(0.0, abs=1e-9)
    assert bd.q_f == pytest.approx(0.0, abs=1e-9)
    assert bd.q_unc == pytest.approx(0.0, abs=1e-9)

    s = 1.0 / math.sqrt(2.0)
    two_level = FockVector([s, s])
    bd = qfi_effective(two_level, params)
    assert branch_probability(two_level, params, SUCCESS) == pytest.approx(0.625, abs=1e-9)
    assert bd.q_s == pytest.approx(0.16, abs=1e-9)
    assert bd.q_f == pytest.approx(0.0, abs=1e-9)
    assert bd.f_c == pytest.approx(1.0 / 15.0, abs=1e-9)
    assert bd.q_eff == pytest.approx(1.0 / 6.0, abs=1e-9)

    assert time.perf_counter() - start < 1.0


def test_criterion_5_figure_shape_properties():
    # hierarchy, monotone decay, probe-family crossover, contribution regimes
    start = time.perf_counter()
    _assert_all_passed(check_figure_behavior())
    assert time.perf_counter() - start < 30.0


def test_criterion_6_monte_carlo_saturates_the_cramer_rao_bound():
    start = time.perf_counter()
    vacuum = ProbeSpec(kind="custom", amps=(1.0,))
    s = 1.0 / math.sqrt(2.0)
    two_level = ProbeSpec(kind="custom", amps=(s, s))
    g2p1 = NlaParams(g=2.0, p=1)

    def run(probe, params, detector):
        config = ExperimentConfig(
            probe=probe, params_true=params, detector=detector,
            shots=MC_SHOTS, seed=MC_SEED, grid=MC_SEARCH,
        )
        return run_crb_experiment(config, MC_REPLICATIONS)

    herald = run(vacuum, g2p1, "herald-only")
    assert herald.crb == pytest.approx(3.0e-4, rel=1e-9)
    assert 0.85 <= herald.ratio <= 1.15

    full = run(two_level, g2p1, "photon-counting")
    assert full.crb == pytest.approx(6.0e-4, rel=1e-9)
    assert 0.85 <= full.ratio <= 1.15

    success_only = run(two_level, g2p1, "success-only")
    assert success_only.crb == pytest.approx(1.0e-3, rel=1e-9)
    assert 0.85 <= success_only.ratio <= 1.15
    assert success_only.empirical_variance > full.empirical_variance

    # efficiency ordering at the coherent nbar=1, p=3, g_true=2 configuration
    coherent = ProbeSpec.from_nbar("coherent", 1.0)
    g2p3 = NlaParams(g=2.0, p=3)
    variances = {
        detector: run(coherent, g2p3, detector).empirical_variance
        for detector in ("photon-counting", "success-only", "herald-only")
    }
    assert variances["photon-counting"] <= variances["success-only"]
    assert variances["photon-counting"] <= variances["herald-only"]

    assert time.perf_counter() - start < 300.0


def test_criterion_7_meter_states_never_beat_the_sequential_scheme():
    start = time.perf_counter()
    _assert_all_passed(check_meter_suite())
    assert time.perf_counter() - start < 60.0


def test_criterion_8_seeded_determinism_and_clean_selfcheck(tmp_path, capsys):
    probe = tmp_path / "vacuum.json"
    probe.write_text(json.dumps([[1.0, 0.0]]))
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    argv = [
        "simulate", "--probe", "custom", "--custom-file", str(probe),
        "--p", "1", "--g-true", "2", "--detector", "herald-only",
        "--shots", "2000", "--replications", "60", "--seed", "31415",
    ]
    assert cli.main(argv + ["--out", str(out_a)]) == 0
    assert cli.main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    assert cli.main(["selfcheck"]) == 0
    report = capsys.readouterr().out
    assert report.rstrip().endswith("selfcheck: OK")
