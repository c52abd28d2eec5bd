import collections
import json
import math
import os
import pathlib
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import nlametro
from nlametro import fisher, instrument, measurements, oracles, selfcheck
from nlametro.fock import DensityOperator, FockVector
from nlametro.instrument import (
    FAILURE,
    SUCCESS,
    MeterState,
    NlaParams,
    branch_probability_derivative,
    conditional_state,
    joint_state,
)
from nlametro.dense import (
    DEFICIT_FLOOR,
    StepTooSmall,
    ZERO_DEFICIT_BAND,
    overlap_deficit,
    qfi_fd_pure,
    resolution_floor,
)
from nlametro.fisher import qfi_branch, qfi_effective_closed_form, qfi_unconditional
from nlametro.oracles import (
    KrausImageFD,
    OracleReport,
    _coupling_fd,
    generate_golden_reports,
    joint_fi_direct,
    probability_derivative_fd,
    qfi_fd_kraus_bures,
    qfi_fd_kraus_pure,
)
from nlametro.probes import ProbeSpec
from nlametro.selfcheck import (
    check_identity_suite,
    check_meter_suite,
    check_oracle_suite,
    standard_breakdowns,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden.json"


def _run_python(*args, timeout=120):
    """Run a fresh interpreter that imports this checkout's nlametro."""
    src = pathlib.Path(nlametro.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))
    ))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout
    )


def test_golden_regeneration_runs_one_copy_of_the_oracles(tmp_path):
    # run as __main__, a module the package imports would be executed twice
    out = tmp_path / "golden.json"
    proc = _run_python("-W", "error::RuntimeWarning", "-m", "nlametro.golden", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(out.read_text())["reports"]) == 34


# Dense-state names the package namespace must not expose; the test
# references among them live in nlametro.dense.
DROPPED_NAMES = (
    "DensityOperator",
    "StepTooSmall",
    "fidelity",
    "qfi_fd_mixed",
    "qfi_fd_pure",
    "qfi_mixed",
    "qfi_pure",
    "unconditional_state",
)


def test_package_never_imports_the_dense_references():
    # a fresh interpreter, since this test session imports nlametro.dense
    proc = _run_python("-c", (
        "import sys, nlametro, nlametro.cli, nlametro.selfcheck\n"
        "assert 'nlametro.dense' not in sys.modules, 'the package imported nlametro.dense'\n"
    ))
    assert proc.returncode == 0, proc.stderr
    for name in DROPPED_NAMES:
        assert not hasattr(nlametro, name), name
        assert name not in nlametro.__all__, name


def test_shipped_golden_fixture_regenerates_exactly():
    payload = json.loads(GOLDEN.read_text())
    regenerated = generate_golden_reports()
    assert len(payload["reports"]) == len(regenerated)
    for shipped, fresh in zip(payload["reports"], regenerated):
        assert shipped["quantity"] == fresh.quantity
        assert fresh.passes(), fresh.quantity
        # A row's error scale is max(|analytic|, |oracle|, scale_floor), so
        # the rounding residue of an exact zero is compared at 1e-12 of the
        # row's floor; rows with scale_floor=0 are compared relatively.
        floor = 1e-12 * shipped["scale_floor"]
        for field in ("analytic", "oracle"):
            a, b = shipped[field], getattr(fresh, field)
            assert a == pytest.approx(b, rel=1e-12, abs=floor), (
                f"{fresh.quantity}: {field} drifted {a} -> {b}"
            )


QUARTER_METER = MeterState(alpha=1.0 / math.sqrt(2.0), beta=1j / math.sqrt(2.0))


def _fixture_oracles(probe, params):
    """Every oracle behind a golden fixture row, evaluated on one probe."""
    values = {
        f"pure {view}": qfi_fd_kraus_pure(probe, params, view)
        for view in (SUCCESS, FAILURE, MeterState.trivial(), QUARTER_METER)
    }
    values["bures richardson"] = qfi_fd_kraus_bures(probe, params, 1e-3, richardson=True)
    values["bures rank-1"] = qfi_fd_kraus_bures(probe, params, 1e-4, branches=(SUCCESS,))
    for detector in ("photon-counting", "homodyne"):
        values[f"joint {detector}"] = joint_fi_direct(probe, params, detector)
    for branch in (SUCCESS, FAILURE):
        values[f"dp_{branch}"] = probability_derivative_fd(probe, params, branch)
    values["coupling"] = _coupling_fd(probe, params)
    return values


def test_fixture_oracles_are_insensitive_to_one_ulp_of_the_probe(
    coherent_nbar1, squeezed_nbar1, two_level
):
    # A difference taken on double-precision states amplifies their 1e-16
    # rounding ~1e5 times; taken on the Kraus images in extended precision,
    # it leaves one ulp of input at the 1e-16 level it started from.
    rng = np.random.default_rng(20190121)
    params = NlaParams(g=2.0, p=3)
    for name, probe in (
        ("coherent", coherent_nbar1),
        ("squeezed", squeezed_nbar1),
        ("two-level", two_level),
    ):
        toward = np.where(rng.random(probe.dim) < 0.5, -np.inf, np.inf)
        jittered = FockVector(np.nextafter(probe.amps.real, toward))
        assert np.any(jittered.amps != probe.amps)
        ref = _fixture_oracles(probe, params)
        moved = _fixture_oracles(jittered, params)
        for key, value in ref.items():
            assert value != 0.0, f"{name} {key}"
            assert moved[key] == pytest.approx(value, rel=1e-13), (
                f"{name} {key}: {value!r} -> {moved[key]!r}"
            )


def test_kraus_fd_agrees_with_double_precision_families(coherent_nbar1):
    params = NlaParams(g=2.0, p=3)

    def pure_family(view):
        if isinstance(view, MeterState):
            return lambda g: FockVector(
                joint_state(coherent_nbar1, NlaParams(g=g, p=3), view).as_vector()
            )
        return lambda g: conditional_state(coherent_nbar1, NlaParams(g=g, p=3), view).state

    for view in (SUCCESS, FAILURE, MeterState.trivial(), QUARTER_METER):
        images = qfi_fd_kraus_pure(coherent_nbar1, params, view)
        assert images == pytest.approx(qfi_fd_pure(pure_family(view), 2.0, 1e-4), rel=1e-8)
    rich = qfi_fd_kraus_bures(coherent_nbar1, params, 1e-3, richardson=True)
    assert rich == pytest.approx(qfi_unconditional(coherent_nbar1, params), rel=1e-12)


def test_kraus_fd_zero_and_validation(vacuum, g2p1, two_level):
    # vacuum: the success state and the unconditional output never move
    assert qfi_fd_kraus_pure(vacuum, g2p1, SUCCESS) == 0.0
    assert qfi_fd_kraus_bures(vacuum, g2p1, richardson=True) == 0.0
    # the rank-1 Uhlmann root fidelity is the pure-state overlap
    rank_one = qfi_fd_kraus_bures(two_level, g2p1, 1e-4, branches=(SUCCESS,))
    assert rank_one == pytest.approx(qfi_fd_kraus_pure(two_level, g2p1, SUCCESS), rel=1e-15)
    with pytest.raises(ValueError):
        qfi_fd_kraus_pure(vacuum, g2p1, SUCCESS, 5e-3)
    with pytest.raises(ValueError):
        qfi_fd_kraus_pure(vacuum, g2p1, "neither")
    with pytest.raises(ValueError):
        qfi_fd_kraus_bures(vacuum, g2p1, branches=())
    with pytest.raises(ValueError):
        qfi_fd_kraus_bures(vacuum, g2p1, 1.5e-6, richardson=True)


def test_fd_pure_zero_for_constant_family():
    family = lambda g: FockVector([0.6, 0.8])
    assert qfi_fd_pure(family, 2.0, 1e-4) == 0.0


def test_fd_pure_step_too_small_band():
    # family engineered so the overlap deficit lands inside the refusal band
    def family(g):
        c = 1e-4 * g
        return FockVector(np.array([1.0, c]) / math.hypot(1.0, c))

    # deficit ~ (1e-4)^2 (1e-3)^2 / 2 = 5e-15, inside [1e-15, 2.2e-14)
    with pytest.raises(StepTooSmall):
        qfi_fd_pure(family, 2.0, 1e-3)
    assert ZERO_DEFICIT_BAND < 5e-15 < DEFICIT_FLOOR


def test_fd_step_validation():
    family = lambda g: FockVector([1.0])
    for bad in (1e-7, 5e-3, 0.0):
        with pytest.raises(ValueError):
            qfi_fd_pure(family, 2.0, bad)


def test_overlap_deficit_cancellation_free():
    a = FockVector([1.0, 0.0])
    b = FockVector(np.array([math.sqrt(1 - 1e-20), 1e-10]))
    d = overlap_deficit(a, b)
    assert d == pytest.approx(5e-21, rel=1e-6)


@pytest.mark.parametrize("separation", [1e-4, 1e-3])
def test_overlap_deficit_exact_on_complex_pair(separation):
    # a - b^2/2 drops quartic terms: 4e-9 (1e-4) and 4e-7 (1e-3) relative here
    rng = np.random.default_rng(20190121)
    u = rng.normal(size=6) + 1j * rng.normal(size=6)
    u /= np.linalg.norm(u)
    v = u + separation * (rng.normal(size=6) + 1j * rng.normal(size=6))
    v /= np.linalg.norm(v)
    with mpmath.workdps(50):
        mu = [mpmath.mpc(complex(x)) for x in u]
        mv = [mpmath.mpc(complex(x)) for x in v]
        z = mpmath.fsum(mpmath.conj(x) * y for x, y in zip(mu, mv))
        norms = mpmath.sqrt(
            mpmath.fsum(abs(x) ** 2 for x in mu) * mpmath.fsum(abs(y) ** 2 for y in mv)
        )
        exact = float(1 - abs(z) / norms)
    assert overlap_deficit(FockVector(u), FockVector(v)) == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_fd_matches_analytic_branch_qfi(two_level, g2p1):
    def family(g):
        return conditional_state(two_level, NlaParams(g=g, p=1), SUCCESS).state

    fd = qfi_fd_pure(family, 2.0, 1e-4)
    assert fd == pytest.approx(0.16, rel=1e-6)


def test_probability_derivative_fd(squeezed_nbar1):
    params = NlaParams(g=1.5, p=2)
    fd = probability_derivative_fd(squeezed_nbar1, params, SUCCESS)
    analytic = branch_probability_derivative(squeezed_nbar1, params, SUCCESS)
    assert fd == pytest.approx(analytic, rel=1e-8)


def test_joint_fi_direct_reference_points(vacuum, g2p1):
    # uninformative probe: zero joint information
    one = FockVector([0.0, 1.0])
    assert joint_fi_direct(one, g2p1, "photon-counting") == pytest.approx(0.0, abs=1e-12)
    # vacuum at g=2, p=1: q_eff = 1/3
    assert joint_fi_direct(vacuum, g2p1, "photon-counting") == pytest.approx(
        1.0 / 3.0, rel=1e-5
    )
    probe = ProbeSpec.from_nbar("squeezed-vacuum", 1.0).build()
    params = NlaParams(g=1.5, p=2)
    assert joint_fi_direct(probe, params, "homodyne") == pytest.approx(
        qfi_effective_closed_form(probe, params), rel=1e-5
    )


def test_oracle_report_scale_floor_semantics():
    rep = OracleReport.build("zeroish", analytic=1e-33, oracle=0.0, step=0.0, tol=1e-9)
    assert rep.rel_error == 1.0  # plain relative error explodes on zeros
    floored = OracleReport.build(
        "zeroish", analytic=1e-33, oracle=0.0, step=0.0, tol=1e-9, scale_floor=1.0
    )
    assert floored.rel_error == pytest.approx(1e-33)
    assert floored.scale_floor == 1.0
    assert floored.passes()


def test_step_policy_and_certifiable_tol():
    assert resolution_floor(1e-3) == pytest.approx(8 * 100 * 2.0 ** -53 / 1e-6)


# The closed forms an oracle must never reach; the oracle module imports them
# only for the analytic side of the golden rows.
ANALYTIC_PATHS = (
    "qfi_branch",
    "qfi_effective",
    "qfi_joint_meter",
    "meter_coupling_term",
    "qfi_unconditional",
)


def _bar_analytic_paths(mp):
    def forbidden(*args, **kwargs):
        raise AssertionError("oracle reached an analytic path")

    for name in ANALYTIC_PATHS:
        mp.setattr(oracles, name, forbidden)


@pytest.fixture(scope="module")
def oracle_suite():
    """The oracle suite's rows, with the analytic paths barred from the
    oracle module, and the number of image Gram matrices it built."""
    breakdowns = standard_breakdowns()
    grams = []
    original = oracles._image_gram

    def counted(*args):
        grams.append(args)
        return original(*args)

    with pytest.MonkeyPatch.context() as mp:
        _bar_analytic_paths(mp)
        mp.setattr(oracles, "_image_gram", counted)
        rows = check_oracle_suite(breakdowns)
    return rows, len(grams)


ORACLE_ROWS = {
    "q_s": "q_s vs ",
    "q_f": "q_f vs ",
    "q_eff": "q_eff vs ",
    "q_unc": "q_unc vs ",
    "meter": "joint QFI with generic meters vs ",
}


@pytest.mark.parametrize("row_key", list(ORACLE_ROWS))
def test_selfcheck_oracle_row_scores_every_point_on_the_images(oracle_suite, row_key):
    # Every row's oracle is the Kraus-image deficit in extended precision,
    # which has no noise floor, so every grid point is scored at the row
    # tolerance; the O(dg^2) truncation at dg=1e-4 stays under 1e-6
    # (measured worst 4.0e-7, on the q_unc row).
    (row,) = [r for r in oracle_suite[0] if r.name.startswith(ORACLE_ROWS[row_key])]
    assert row.passed
    assert row.points == 280
    assert row.worst <= 1e-6
    assert "below FD resolution" not in row.detail
    assert "low-signal" not in row.detail


def test_oracle_suite_builds_one_set_of_image_grams_per_point(oracle_suite):
    # three Gram matrices (cross, g-, g+) per point, shared by the five rows
    assert oracle_suite[1] == 3 * 280


@pytest.mark.parametrize(
    "kind, nbar, g, p", [("coherent", 1.0, 2.0, 3), ("squeezed-vacuum", 2.0, 1.05, 5)]
)
def test_shared_image_grams_match_separate_oracles_bit_for_bit(monkeypatch, kind, nbar, g, p):
    probe = ProbeSpec.from_nbar(kind, nbar).build()
    params = NlaParams(g=g, p=p)
    views = (SUCCESS, FAILURE, MeterState.trivial(), QUARTER_METER)
    separate = [qfi_fd_kraus_pure(probe, params, view, 1e-4) for view in views]
    separate.append(qfi_fd_kraus_bures(probe, params, 1e-4))
    _bar_analytic_paths(monkeypatch)
    fd = KrausImageFD(probe, params, 1e-4)
    assert [fd.pure(view) for view in views] + [fd.bures()] == separate


def test_meter_suite_computes_one_coupling_term_per_point(monkeypatch):
    # q_eff and X do not depend on the meter: one qfi_joint_meter call per
    # grid point covers its 50 random and 4 real-phase meters.
    calls = []
    original = fisher.meter_coupling_term

    def counted(probe, params):
        calls.append(params)
        return original(probe, params)

    monkeypatch.setattr(fisher, "meter_coupling_term", counted)
    bound, equality = check_meter_suite()
    assert bound.passed and equality.passed
    assert (bound.points, equality.points) == (14000, 1120)
    assert len(calls) <= 280


def test_detector_suite_makes_a_fixed_number_of_calls_per_probe(monkeypatch):
    # each detector function takes a probe's 35 points, of all thresholds, at
    # once, and takes their conditional rows from one kernel evaluation
    calls = collections.Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("fi_photon_counting", "photon_counting_dist", "fi_homodyne",
                 "homodyne_distribution", "sequential_fi"):
        count(selfcheck, name)
    count(measurements, "_conditional_rows")
    results = selfcheck.check_detector_suite(standard_breakdowns())
    assert all(r.passed for r in results)
    probes = len(selfcheck.STANDARD_KINDS) * len(selfcheck.STANDARD_NBARS)
    assert calls == {
        "fi_photon_counting": 2 * probes,
        "photon_counting_dist": 2 * probes,
        "fi_homodyne": 2 * probes,
        "homodyne_distribution": 2 * probes,
        "sequential_fi": 2 * probes,
        "_conditional_rows": 8 * probes,
    }


def test_identity_suite_builds_no_dense_operator(monkeypatch):
    # the unit-trace row is ||A||_F^2 of the Kraus images, not a dim x dim trace
    def forbidden(*args, **kwargs):
        raise AssertionError("dense path reached")

    monkeypatch.setattr(DensityOperator, "__post_init__", forbidden)
    results = check_identity_suite(standard_breakdowns())
    assert all(r.passed for r in results)
    (row,) = [r for r in results if r.name == "unconditional state has unit trace"]
    assert row.points == 280


def test_probability_derivative_row_fails_on_a_wrong_failure_kraus_derivative(monkeypatch):
    # each branch differentiates its own Kraus weights, so the row sees the error
    original = instrument.kraus_diagonal_derivative

    def corrupted(params, branch, dim):
        slope = original(params, branch, dim)
        return 1.01 * slope if branch == FAILURE else slope

    monkeypatch.setattr(instrument, "kraus_diagonal_derivative", corrupted)
    results = check_identity_suite(standard_breakdowns())
    (row,) = [r for r in results if r.name == "branch probability derivatives sum to 0"]
    assert not row.passed and row.worst > 1e-3
