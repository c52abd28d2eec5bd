import collections
import fractions
import json
import math
import pathlib
import sys
import warnings

import mpmath
import numpy as np
import pytest
import dense
from conftest import points_of
from dense import (
    DEFICIT_FLOOR,
    StepTooSmall,
    ZERO_DEFICIT_BAND,
    joint_state,
    overlap_deficit,
    qfi_fd_pure,
    resolution_floor,
)

import nlametro
from nlametro import cli, fisher, instrument, measurements, oracles, selfcheck
from nlametro.fock import DensityOperator, FockVector
from nlametro.instrument import (
    BRANCHES,
    FAILURE,
    SUCCESS,
    BranchImpossible,
    MeterBatch,
    MeterState,
    NlaParams,
    branch_probability_derivative,
    conditional_state,
)
from nlametro.fisher import qfi_branch, qfi_effective, qfi_effective_closed_form, qfi_unconditional
from nlametro.oracles import (
    DD_UNIT,
    IMAGE_ZERO_DEFICIT,
    KrausImageFD,
    OracleReport,
    PROB_STEP,
    _DD,
    generate_golden_reports,
    joint_fi_direct,
)
from nlametro.probes import ProbeSpec
from nlametro.selfcheck import (
    STANDARD_GAINS,
    STANDARD_KINDS,
    STANDARD_THRESHOLDS,
    check_identity_suite,
    check_meter_suite,
    check_oracle_suite,
    standard_grids,
    standard_probe_grids,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden.json"


def test_golden_regeneration_runs_one_copy_of_the_oracles(tmp_path, run_python):
    # run as __main__, a module the package imports would be executed twice
    out = tmp_path / "golden.json"
    proc = run_python("-W", "error::RuntimeWarning", "-m", "nlametro.golden", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(out.read_text())["reports"]) == 34


# Names the package namespace must not expose: the dense-state and per-shot
# Monte-Carlo test references, which live in the tests' dense module, the per-shot
# sampler, whose every call rebuilt the whole shot source, and the wrappers
# that built a KrausImageFD for one view.
DROPPED_NAMES = (
    "DensityOperator",
    "JointState",
    "StepTooSmall",
    "fidelity",
    "joint_state",
    "mle_estimate",
    "qfi_fd_mixed",
    "qfi_fd_kraus_bures",
    "qfi_fd_kraus_pure",
    "qfi_fd_pure",
    "qfi_mixed",
    "qfi_pure",
    "sample_shot",
    "sample_shots",
    "unconditional_state",
)
# Test-only names that left the package modules, and the oracle helpers
# that built a Kraus pair of their own beside KrausImageFD.
DROPPED_MODULE_NAMES = {
    "instrument": ("conditional_state_derivative", "Points"),
    "fisher": ("Meters", "_imbalances"),
    "montecarlo": ("crb_for_strategy", "_discrete_sampler", "mle_estimate", "sample_shots"),
    "measurements": ("photon_counting_mass_derivative",),
    "selfcheck": ("standard_breakdowns",),
    "oracles": ("_point_arrays", "_mass_slopes", "_image_slope_and_sum", "_coupling_fd",
                "probability_derivative_fd", "qfi_fd_kraus_pure", "qfi_fd_kraus_bures"),
}


def test_package_never_imports_the_dense_references(run_python):
    # a fresh interpreter, since this test session imports the tests' dense
    # module and mpmath; the oracles run in double-double, so mpmath is a
    # test-only reference too, and the dense references are not in the
    # package at all
    proc = run_python("-c", (
        "import importlib.util, sys, nlametro, nlametro.cli, nlametro.selfcheck\n"
        "assert importlib.util.find_spec('nlametro.dense') is None, 'nlametro.dense exists'\n"
        "for name in ('dense', 'mpmath'):\n"
        "    assert name not in sys.modules, f'the package imported {name}'\n"
    ))
    assert proc.returncode == 0, proc.stderr
    for name in DROPPED_NAMES:
        assert not hasattr(nlametro, name), name
        assert name not in nlametro.__all__, name
    for module, names in DROPPED_MODULE_NAMES.items():
        for name in names:
            assert not hasattr(getattr(nlametro, module), name), f"{module}.{name}"
    # a batch budget is read as arrays, not split into per-point breakdowns
    assert not hasattr(fisher.FisherBreakdown, "points")


def test_selfcheck_text_does_not_depend_on_the_blas_thread_count(run_python):
    # the budgets, SVDs and oracle sums must not pick up the summation order
    # of a multi-threaded BLAS
    runs = [
        run_python("-m", "nlametro.cli", "selfcheck", timeout=300, **extra)
        for extra in ({"OPENBLAS_NUM_THREADS": "1"}, {})
    ]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert runs[0].stdout == runs[1].stdout


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
    fd = KrausImageFD(probe, params, 1e-4)
    values = {
        f"pure {view}": fd.pure(view)
        for view in (SUCCESS, FAILURE, MeterState.trivial(), QUARTER_METER)
    }
    values["bures"] = KrausImageFD(probe, params, 1e-6).bures()
    values["bures rank-1"] = fd.bures((SUCCESS,))
    for detector in ("photon-counting", "homodyne"):
        values[f"joint {detector}"] = joint_fi_direct(probe, params, detector)
    slopes = KrausImageFD(probe, params, PROB_STEP)
    for branch in (SUCCESS, FAILURE):
        values[f"dp_{branch}"] = slopes.probability_slope(branch)
    values["coupling"] = slopes.coupling()
    return values


def test_fixture_oracles_are_insensitive_to_one_ulp_of_the_probe(
    coherent_nbar1, squeezed_nbar1, two_level
):
    # A difference taken on double-precision states amplifies their 1e-16
    # rounding ~1e5 times; taken on the Kraus images in double-double, it
    # leaves one ulp of input at the 1e-16 level it started from.
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

    fd = KrausImageFD(coherent_nbar1, params, 1e-4)
    for view in (SUCCESS, FAILURE, MeterState.trivial(), QUARTER_METER):
        images = fd.pure(view)
        assert images == pytest.approx(qfi_fd_pure(pure_family(view), 2.0, 1e-4), rel=1e-8)
    bures = KrausImageFD(coherent_nbar1, params, 1e-6).bures()
    assert bures == pytest.approx(qfi_unconditional(coherent_nbar1, params), rel=1e-12)


def test_kraus_fd_zero_and_validation(vacuum, g2p1, two_level):
    # vacuum: the success state and the unconditional output never move
    assert KrausImageFD(vacuum, g2p1).pure(SUCCESS) == 0.0
    assert KrausImageFD(vacuum, g2p1, 1e-6).bures() == 0.0
    # the rank-1 Uhlmann root fidelity is the pure-state overlap
    fd = KrausImageFD(two_level, g2p1, 1e-4)
    assert fd.bures((SUCCESS,)) == pytest.approx(fd.pure(SUCCESS), rel=1e-15)
    with pytest.raises(ValueError):
        KrausImageFD(vacuum, g2p1, 5e-3)
    with pytest.raises(ValueError):
        KrausImageFD(vacuum, g2p1).pure("neither")
    with pytest.raises(ValueError):
        KrausImageFD(vacuum, g2p1).bures(())
    with pytest.raises(ValueError):
        KrausImageFD(vacuum, g2p1).probability_slope("neither")
    # g - dg/2 would reach unit gain, where the failure entries vanish
    with pytest.raises(ValueError, match="unit gain"):
        KrausImageFD(vacuum, NlaParams(g=1.0004, p=1), 1e-3)
    # one probe, or one per point; one meter, or one per point
    points = NlaParams(g=[2.0, 3.0], p=[1, 2])
    with pytest.raises(ValueError, match="1 probes for 2 points"):
        KrausImageFD([vacuum], points)
    with pytest.raises(ValueError, match=r"meters of shape \(3,\) for 2 points"):
        KrausImageFD(two_level, points).pure(MeterBatch(np.zeros(3), np.ones(3)))


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


def test_probability_slope_matches_the_analytic_derivative(squeezed_nbar1):
    params = NlaParams(g=1.5, p=2)
    fd = KrausImageFD(squeezed_nbar1, params, PROB_STEP).probability_slope(SUCCESS)
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


def test_joint_fi_direct_never_reaches_the_library_homodyne_kernels(monkeypatch):
    # the oracle's slope fields are its own full-dim sums: with the library's
    # Fisher integrals barred it still runs, at the golden points and a few
    # standard ones, and it never imports the Kraus-image basis
    golden = [
        (FockVector([0.0, 1.0]), NlaParams(g=2.0, p=1)),
        (FockVector([1.0]), NlaParams(g=2.0, p=1)),
        (ProbeSpec.from_nbar("squeezed-vacuum", 1.0).build(), NlaParams(g=1.5, p=2)),
        (ProbeSpec.from_nbar("coherent", 1.0).build(), NlaParams(g=2.0, p=3)),
    ]
    standard = [
        (probe, points_of(points)[i])
        for (probe, _, points), i in zip(standard_probe_grids(), (0, 12, 24, 34))
    ]
    cases = [(probe, params, qfi_effective_closed_form(probe, params))
             for probe, params in golden + standard]

    def forbidden(*args, **kwargs):
        raise AssertionError("oracle reached a library homodyne kernel")

    for name in ("_fisher_integral", "fi_homodyne", "sequential_fi"):
        monkeypatch.setattr(measurements, name, forbidden)
    _bar_analytic_paths(monkeypatch)
    for probe, params, q_eff in cases:
        for detector in ("photon-counting", "homodyne"):
            assert joint_fi_direct(probe, params, detector) == pytest.approx(
                q_eff, rel=1e-5, abs=1e-12
            )
    source = pathlib.Path(oracles.__file__).read_text()
    for name in ("_image_basis", "_basis_parts"):
        assert not hasattr(oracles, name) and name not in source


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


# The closed forms and analytic slopes an oracle must never reach; the oracle
# module imports them only for the analytic side of the golden rows.
ANALYTIC_PATHS = (
    "qfi_branch",
    "qfi_effective",
    "qfi_joint_meter",
    "meter_coupling_term",
    "qfi_unconditional",
    "branch_probability_derivative",
)


def _bar_analytic_paths(mp):
    def forbidden(*args, **kwargs):
        raise AssertionError("oracle reached an analytic path")

    for name in ANALYTIC_PATHS:
        mp.setattr(oracles, name, forbidden)


@pytest.fixture(scope="module")
def oracle_suite():
    """The oracle suite's rows, with the analytic paths barred from the
    oracle module, the batch size of each image Gram build, and the points
    of each analytic joint-meter call."""
    grids = standard_grids()
    grams, joint = [], []
    original_gram, original_joint = oracles._image_gram, selfcheck._joint_meter

    def counted_gram(x, *args):
        grams.append(x.hi.shape[0])
        return original_gram(x, *args)

    def counted_joint(q_eff, coupling, meters):
        joint.append(q_eff.size)
        return original_joint(q_eff, coupling, meters)

    with pytest.MonkeyPatch.context() as mp:
        _bar_analytic_paths(mp)
        mp.setattr(oracles, "_image_gram", counted_gram)
        mp.setattr(selfcheck, "_joint_meter", counted_joint)
        rows = check_oracle_suite(grids)
    return rows, grams, joint


ORACLE_ROWS = {
    "q_s": "q_s vs ",
    "q_f": "q_f vs ",
    "q_eff": "q_eff vs ",
    "q_unc": "q_unc vs ",
    "meter": "joint QFI with generic meters vs ",
}


@pytest.mark.parametrize("row_key", list(ORACLE_ROWS))
def test_selfcheck_oracle_row_scores_every_point_on_the_images(oracle_suite, row_key):
    # Every row's oracle is the Kraus-image deficit in double-double,
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
    # one batched build: three Gram matrices (cross, g-, g+) for all 280
    # points at once, shared by the five rows
    assert oracle_suite[1] == [280, 280, 280]


PROBES = len(STANDARD_KINDS) * len(selfcheck.STANDARD_NBARS)


def test_oracle_suite_analytic_meter_side_is_one_call_per_probe(oracle_suite):
    # each call covers a probe's 35 points, thresholds mixed, with one
    # random meter per point
    assert oracle_suite[2] == [len(STANDARD_GAINS) * len(STANDARD_THRESHOLDS)] * PROBES


@pytest.mark.parametrize(
    "kind, nbar, g, p", [("coherent", 1.0, 2.0, 3), ("squeezed-vacuum", 2.0, 1.05, 5)]
)
def test_shared_image_grams_match_separate_oracles_bit_for_bit(monkeypatch, kind, nbar, g, p):
    probe = ProbeSpec.from_nbar(kind, nbar).build()
    params = NlaParams(g=g, p=p)
    views = (SUCCESS, FAILURE, MeterState.trivial(), QUARTER_METER)
    separate = [KrausImageFD(probe, params, 1e-4).pure(view) for view in views]
    separate.append(KrausImageFD(probe, params, 1e-4).bures())
    _bar_analytic_paths(monkeypatch)
    fd = KrausImageFD(probe, params, 1e-4)
    assert [fd.pure(view) for view in views] + [fd.bures()] == separate


def test_meter_suite_computes_one_coupling_term_per_point(monkeypatch):
    # q_eff and X do not depend on the meter: one joint-meter call per probe
    # covers its 35 points' 50 random and 4 real-phase meters, on the
    # budget's q_eff and one coupling term per point from the probe's images
    grids = standard_grids()
    calls = []
    original = selfcheck._coupling

    def counted(images):
        calls.append(images.g.shape[0])
        return original(images)

    def forbidden(*args, **kwargs):
        raise AssertionError("public path reached")

    monkeypatch.setattr(selfcheck, "_coupling", counted)
    monkeypatch.setattr(fisher, "meter_coupling_term", forbidden)
    monkeypatch.setattr(instrument.KrausImages, "of", forbidden)
    bound, equality = check_meter_suite(grids)
    assert bound.passed and equality.passed
    assert (bound.points, equality.points) == (14000, 1120)
    assert calls == [35] * PROBES


def test_worst_of_an_error_array_is_the_first_largest_in_row_major_order():
    worst = selfcheck._Worst()
    worst.update(np.array([[1.0, 3.0], [3.0, 2.0]]), ["a", "b"])
    worst.update([3.0], ["c"])
    assert (worst.value, worst.label, worst.count) == (3.0, "a", 5)
    worst.update([0.0, 4.0, 4.0, 1.0], ["d", "e", "f", "g"])
    assert (worst.value, worst.label, worst.count) == (4.0, "e", 9)
    # a NaN or an infinity never counts as the largest: it is counted
    # apart, the first one names its own location, and it fails the row
    nan_first = selfcheck._Worst()
    nan_first.update([math.nan, 0.5], ["x", "y"])
    nan_first.update(np.array([[0.1, math.inf], [math.nan, 0.2]]), ["z", "w"])
    assert (nan_first.value, nan_first.label, nan_first.count) == (0.5, "y", 6)
    assert (nan_first.nonfinite, nan_first.nonfinite_label) == (3, "x")
    row = nan_first.result("row", 1.0)
    assert not row.passed
    assert row.detail == "y; 3 non-finite, first at x"


# The rows whose analytic side is the joint-meter kernel, and the meters
# that reach it there: a MeterBatch of one meter per point from the oracle
# suite, and from the meter suite a MeterBatch of 50 random then 4
# real-phase meters per point.
NAN_ROWS = {
    "joint QFI with generic meters": lambda meters, q: (
        np.full_like(q, np.nan) if meters.alpha.ndim == 1 else q),
    "joint QFI <= q_eff over random meters": lambda meters, q: (
        np.where(np.arange(q.shape[-1]) < 50, np.nan, q) if q.ndim == 2 else q),
    "joint QFI equals q_eff when Im[alpha conj(beta)] = 0": lambda meters, q: (
        np.where(np.arange(q.shape[-1]) >= 50, np.nan, q) if q.ndim == 2 else q),
}


@pytest.mark.parametrize("row_name", list(NAN_ROWS))
def test_selfcheck_fails_a_row_whose_analytic_side_is_nan(monkeypatch, capsys, row_name):
    original, poison = selfcheck._joint_meter, NAN_ROWS[row_name]

    def nan_joint(q_eff, coupling, meters):
        return poison(meters, original(q_eff, coupling, meters))

    monkeypatch.setattr(selfcheck, "_joint_meter", nan_joint)
    assert cli.main(["selfcheck"]) == cli.CHECK_FAILED
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 1 and failed[0].startswith(f"FAIL  {row_name}"), failed
    assert "non-finite, first at coherent nbar=0.5 g=1.05 p=1" in failed[0]


# The KrausImageFD view behind each oracle-suite row, told apart by its
# method and arguments: a branch, the trivial meter, the Bures default and
# a batch of one meter per point.
ORACLE_VIEWS = {
    "q_s": ("pure", lambda view: view == SUCCESS),
    "q_f": ("pure", lambda view: view == FAILURE),
    "q_eff": ("pure", lambda view: isinstance(view, MeterState)),
    "q_unc": ("bures", lambda: True),
    "meter": ("pure", lambda view: isinstance(view, MeterBatch)),
}


@pytest.mark.parametrize("row_key", list(ORACLE_VIEWS))
def test_selfcheck_fails_a_row_whose_oracle_side_is_nan(monkeypatch, capsys, row_key):
    method, matches = ORACLE_VIEWS[row_key]
    original = getattr(KrausImageFD, method)

    def nan_view(fd, *args):
        values = original(fd, *args)
        # the golden rows build single points, the oracle suite all 280 at once
        return np.full_like(values, np.nan) if fd.g.size == 280 and matches(*args) else values

    monkeypatch.setattr(KrausImageFD, method, nan_view)
    assert cli.main(["selfcheck"]) == cli.CHECK_FAILED
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 1 and failed[0].startswith(f"FAIL  {ORACLE_ROWS[row_key]}"), failed
    assert "non-finite, first at coherent nbar=0.5 g=1.05 p=1" in failed[0]


# The detector kernel behind each detector row: the selfcheck's row names
# that a NaN from it must fail, and no others.
DETECTOR_NAN_ROWS = {
    "_branch_counting_fi": ("photon-counting FI saturates the branch QFI",),
    "_branch_homodyne_fi": ("homodyne FI saturates the branch QFI",),
    "_record_fi": (
        "sequential photon-counting record FI equals the sum",
        "sequential homodyne record FI equals the sum",
    ),
}


@pytest.mark.parametrize("function", list(DETECTOR_NAN_ROWS))
def test_selfcheck_fails_a_detector_row_that_is_nan(monkeypatch, capsys, function):
    original = getattr(selfcheck, function)

    def nan_detector(*args):
        return np.full_like(original(*args), np.nan)

    monkeypatch.setattr(selfcheck, function, nan_detector)
    assert cli.main(["selfcheck"]) == cli.CHECK_FAILED
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    rows = DETECTOR_NAN_ROWS[function]
    assert len(failed) == len(rows), failed
    for line, row_name in zip(failed, rows):
        assert line.startswith(f"FAIL  {row_name}"), failed
        assert "non-finite, first at coherent nbar=0.5 g=1.05 p=1" in line


def test_detector_suite_makes_a_fixed_number_of_calls_per_probe(monkeypatch):
    # each detector kernel takes a probe's 35 points, of all thresholds, at
    # once, on the images of the grid: the suite builds no images and calls
    # no Kraus kernel; photon counting takes its conditional rows from one
    # kernel evaluation per branch and kernel, and homodyne never forms them
    # over all dim levels
    grids = standard_grids()
    calls = collections.Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def forbidden(*args, **kwargs):
        raise AssertionError("images rebuilt")

    for name in ("_branch_counting_fi", "_counting_dist", "_branch_homodyne_fi",
                 "_homodyne_dist", "_record_fi"):
        count(selfcheck, name)
    count(measurements, "_conditional_rows")
    monkeypatch.setattr(instrument.KrausImages, "of", forbidden)
    monkeypatch.setattr(instrument, "_kraus_pair", forbidden)
    results = selfcheck.check_detector_suite(grids)
    assert all(r.passed for r in results)
    probes = len(selfcheck.STANDARD_KINDS) * len(selfcheck.STANDARD_NBARS)
    assert calls == {
        "_branch_counting_fi": 2 * probes,
        "_counting_dist": 2 * probes,
        "_branch_homodyne_fi": 2 * probes,
        "_homodyne_dist": 2 * probes,
        "_record_fi": 2 * probes,
        "_conditional_rows": 4 * probes,
    }


def test_run_all_computes_each_standard_budget_once(monkeypatch):
    # one set of images and one budget per standard probe serve the
    # identity, oracle, detector and meter suites; the figure suite's gain
    # lists and the boundary row's gains are never a probe's 35 standard
    # points
    calls = collections.Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args):
            points = args[-1] if args and isinstance(args[-1], NlaParams) else None
            points = args[0].params if name == "_budget" else points
            calls[name, np.size(points.g) if points is not None else 0] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)

    for name in ("qfi_effective", "qfi_effective_closed_form", "standard_probe_grids",
                 "_budget"):
        count(selfcheck, name)
    count(instrument.KrausImages, "of")
    assert all(r.passed for r in selfcheck.run_all())
    points = len(STANDARD_GAINS) * len(STANDARD_THRESHOLDS)
    probes = len(STANDARD_KINDS) * len(selfcheck.STANDARD_NBARS)
    assert calls["of", points] == probes
    assert calls["_budget", points] == probes
    assert calls["qfi_effective", points] == 0
    assert calls["qfi_effective_closed_form", points] == 0
    assert calls["standard_probe_grids", 0] == 1


def test_identity_suite_builds_no_dense_operator(monkeypatch):
    # the unit-trace row is ||A||_F^2 of the Kraus images, not a dim x dim trace
    def forbidden(*args, **kwargs):
        raise AssertionError("dense path reached")

    monkeypatch.setattr(DensityOperator, "__post_init__", forbidden)
    results = check_identity_suite(standard_grids())
    assert all(r.passed for r in results)
    (row,) = [r for r in results if r.name == "unconditional state has unit trace"]
    assert row.points == 280


def _assert_every_image_view_scores_the_grid(fd):
    views = [fd.pure(SUCCESS), fd.pure(FAILURE), fd.pure(MeterState.trivial()), fd.bures(),
             fd.mass_slopes(), fd.probability_slope(SUCCESS), fd.probability_slope(FAILURE),
             fd.coupling()]
    for values in views:
        assert values.shape[0] == 280 and np.isfinite(values).all()


def test_image_oracle_views_never_call_the_instrument_kernel(monkeypatch):
    # KrausImageFD builds its own double-double Kraus entries, so with the
    # library's kernel raising in every namespace each view still scores all
    # 280 standard points.  joint_fi_direct is not among them: its centre
    # masses come from the library by design.
    def forbidden(*args, **kwargs):
        raise AssertionError("instrument._kraus_pair reached")

    patched = [name for name, module in list(sys.modules.items())
               if name.startswith("nlametro") and hasattr(module, "_kraus_pair")]
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "_kraus_pair", forbidden)
    assert {"nlametro.instrument", "nlametro.montecarlo"} <= set(patched)
    with pytest.raises(AssertionError, match="_kraus_pair reached"):
        instrument.kraus_diagonal(NlaParams(g=2.0, p=1), SUCCESS, 3)
    probes, points = _standard_grid()
    assert points.g.size == 280
    _assert_every_image_view_scores_the_grid(KrausImageFD(probes, points, oracles.DEFAULT_QFI_STEP))


def test_image_oracles_and_dense_references_never_build_the_kraus_images(monkeypatch):
    # the package's Kraus images are what KrausImageFD and the dense
    # references check, so with KrausImages.of raising every view still
    # scores the 280 standard points and the dense q_unc reference still runs
    def forbidden(*args, **kwargs):
        raise AssertionError("KrausImages built")

    monkeypatch.setattr(instrument.KrausImages, "of", forbidden)
    with pytest.raises(AssertionError, match="KrausImages built"):
        instrument.branch_probability(FockVector([1.0]), NlaParams(g=2.0, p=1), SUCCESS)
    probes, points = _standard_grid()
    _assert_every_image_view_scores_the_grid(KrausImageFD(probes, points, oracles.DEFAULT_QFI_STEP))
    for probe, _, batch in standard_probe_grids():
        params = points_of(batch)[-1]
        rho = dense.unconditional_state(probe, params)
        assert dense.qfi_mixed(rho, dense.unconditional_state_derivative(probe, params)) > 0.0
        for branch in BRANCHES:
            assert np.isfinite(dense.conditional_state_derivative(probe, params, branch)).all()


# _kraus_pair calls of one selfcheck pass (the golden rows, then run_all),
# by the function that asked for the Kraus entries: one set of images per
# standard probe, completeness_defect over all levels, the figure suite's
# and the golden rows' budgets, and the golden rows' public calls.
SELFCHECK_KRAUS_CALLS = {
    "standard_grids": 8,
    "completeness_defect": 8,
    "qfi_effective": 8,
    "branch_probability": 10,
    "photon_counting_dist": 6,
    "branch_probability_derivative": 4,
    "meter_coupling_term": 3,
    "qfi_branch": 2,
    "homodyne_distribution": 2,
    "homodyne_density": 2,
    "qfi_unconditional": 1,
}


def test_one_selfcheck_pass_makes_a_pinned_number_of_kraus_kernel_calls(monkeypatch, capsys):
    calls = collections.Counter()
    original = instrument._kraus_pair

    def counted(*args):
        frame = sys._getframe(1)
        while frame.f_code.co_name in ("_kraus_at", "of", "kraus_diagonal",
                                       "kraus_diagonal_derivative"):
            frame = frame.f_back
        calls[frame.f_code.co_name] += 1
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("nlametro") and getattr(module, "_kraus_pair", None) is original:
            monkeypatch.setattr(module, "_kraus_pair", counted)
    assert cli.main(["selfcheck"]) == 0
    capsys.readouterr()
    assert dict(calls) == SELFCHECK_KRAUS_CALLS
    assert sum(calls.values()) == 54


def test_probability_derivative_row_fails_on_a_wrong_failure_kraus_derivative(monkeypatch):
    # each branch differentiates its own Kraus weights, so the row sees the error
    original = instrument._kraus_pair

    def corrupted(g, p, levels):
        pair = original(g, p, levels)
        pair[..., BRANCHES.index(FAILURE), 1, :] *= 1.01
        return pair

    monkeypatch.setattr(instrument, "_kraus_pair", corrupted)
    results = check_identity_suite(standard_grids())
    (row,) = [r for r in results if r.name == "branch probability derivatives sum to 0"]
    assert not row.passed and row.worst > 1e-3


# ---------------------------------------------------------------------------
# Double-double arithmetic and the batched image build
# ---------------------------------------------------------------------------

def _exact(x):
    return fractions.Fraction(float(x))


def test_double_double_primitives_are_error_free_and_accurate():
    rng = np.random.default_rng(104)
    a = rng.standard_normal(300) * 10.0 ** rng.integers(-8, 9, 300)
    b = rng.standard_normal(300) * 10.0 ** rng.integers(-8, 9, 300)
    s, e = oracles._two_sum(a, b)
    p, f = oracles._two_prod(a, b)
    for i in range(a.size):
        assert _exact(s[i]) + _exact(e[i]) == _exact(a[i]) + _exact(b[i])
        assert _exact(p[i]) + _exact(f[i]) == _exact(a[i]) * _exact(b[i])
    # normalized double-doubles with a non-zero low word
    x = _DD(*oracles._two_sum(a, a * 3e-17))
    y = _DD(*oracles._two_sum(b, b * -7e-17))
    value = lambda z, i: _exact(z.hi[i]) + _exact(z.lo[i])
    q, r = x / y, abs(x).sqrt()
    for i in range(a.size):
        want = value(x, i) / value(y, i)
        assert abs(value(q, i) - want) <= 4 * DD_UNIT * abs(want)
        # a relative error d of the root is 2d in its square
        assert abs(value(r, i) ** 2 - abs(value(x, i))) <= 8 * DD_UNIT * abs(value(x, i))


def test_double_double_square_root_of_zero_is_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        root = _DD(np.zeros(3)).sqrt()
    assert not root.hi.any() and not root.lo.any()


@pytest.mark.parametrize("kind", STANDARD_KINDS)
def test_gain_independent_families_read_exactly_zero(kind, vacuum):
    # one occupied failure level (n < p) at p=1, and at p=2 for squeezed
    # vacuum, whose odd levels are empty; the vacuum's success state and
    # unconditional output never move.  The failure entry at n = p and the
    # Bures trace, at the default step and at 1e-6, pass exact zeros through sqrt.
    probe = ProbeSpec.from_nbar(kind, 1.0).build()
    constant = [1, 2] if kind == "squeezed-vacuum" else [1]
    points = NlaParams(g=np.repeat(STANDARD_GAINS, len(constant)),
                       p=np.tile(constant, len(STANDARD_GAINS)))
    vacuum_points = next(standard_probe_grids())[2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not KrausImageFD(probe, points).pure(FAILURE).any()
        fd = KrausImageFD(vacuum, vacuum_points)
        assert not fd.pure(SUCCESS).any()
        assert not fd.bures().any()
        assert not KrausImageFD(vacuum, vacuum_points, 1e-6).bures().any()


def _standard_grid():
    """The 280 standard points as one batch, with one probe per point."""
    grids = list(standard_probe_grids())
    probes = [probe for probe, _, points in grids for _ in range(points.g.size)]
    points = NlaParams(g=np.concatenate([pts.g for *_, pts in grids]),
                       p=np.concatenate([pts.p for *_, pts in grids]))
    return probes, points


def _grid_meters(count):
    rng = np.random.default_rng(11)
    z = rng.standard_normal((count, 4))
    amps = z.view(np.complex128) / np.linalg.norm(z, axis=1, keepdims=True)
    return MeterBatch(amps[:, 0], amps[:, 1])


def _views(fd, meter):
    """The oracle suite's five views, the probability slopes and the coupling term."""
    return [fd.pure(SUCCESS), fd.pure(FAILURE), fd.pure(MeterState.trivial()), fd.bures(),
            fd.pure(meter), fd.probability_slope(SUCCESS), fd.probability_slope(FAILURE),
            fd.coupling()]


def _same_slopes(padded, own):
    """Mass slopes on more levels equal a build's own, and read 0 above them."""
    levels = own.shape[-1]
    return padded[..., :levels].tolist() == own.tolist() and not padded[..., levels:].any()


def test_batched_image_build_equals_single_point_builds_bit_for_bit(monkeypatch):
    # one build over the whole grid (probes and thresholds mixed) against a
    # build of its own for every point, in every view; no view may reach an
    # analytic path
    _bar_analytic_paths(monkeypatch)
    labels = [label for _, grid_labels, _ in standard_probe_grids() for label in grid_labels]
    probes, points = _standard_grid()
    meters = _grid_meters(points.g.size)
    grid = KrausImageFD(probes, points)
    batched, slopes = _views(grid, meters), grid.mass_slopes()
    for i, (label, probe, params) in enumerate(zip(labels, probes, points_of(points))):
        single = KrausImageFD(probe, params)
        meter = MeterState(meters.alpha[i], meters.beta[i])
        assert _views(single, meter) == [float(values[i]) for values in batched], label
        assert _same_slopes(slopes[i], single.mass_slopes()[0]), label
    # the joint-record FI takes its slopes from the same kind of build
    for detector in ("photon-counting", "homodyne"):
        assert joint_fi_direct(probes[0], points_of(points)[0], detector) > 0.0
    # one probe for a probe's 35 points gives the same numbers
    start = 0
    for probe, _, grid_points in standard_probe_grids():
        part = slice(start, start + grid_points.g.size)
        fd = KrausImageFD(probe, grid_points)
        for values, whole in zip(_views(fd, MeterBatch(meters.alpha[part], meters.beta[part])),
                                 batched):
            assert values.tolist() == whole[part].tolist()
        assert _same_slopes(slopes[part], fd.mass_slopes())
        start = part.stop


def _image_fd_reference(probe, params, dg, view=None, branches=None, dps=50):
    """A Kraus-image fidelity FD in ``dps`` digits, from the images themselves.

    ``view`` gives the pure-state deficit of a branch or a joint state;
    ``branches`` the Bures deficit of the masked images, whose root
    fidelity is the sum of the singular values of ``A(g-)^+ A(g+)``.
    Deficits under ``IMAGE_ZERO_DEFICIT`` read 0, as in the oracle.
    """
    with mpmath.workdps(dps):
        p, half = params.p, mpmath.mpf(dg) / 2

        def images(gain):
            amps = [mpmath.mpc(complex(c)) for c in probe.amps]
            es = [gain ** (n - p) if n <= p else mpmath.mpf(1) for n in range(len(amps))]
            return ([e * c for e, c in zip(es, amps)],
                    [mpmath.sqrt(1 - e * e) * c for e, c in zip(es, amps)])

        def dot(x, y):
            return mpmath.fsum(mpmath.conj(a) * b for a, b in zip(x, y))

        lo, hi = images(mpmath.mpf(params.g) - half), images(mpmath.mpf(params.g) + half)
        if branches is not None:
            keep = [b in branches for b in BRANCHES]
            a, b = ([x if k else [0] * len(x) for x, k in zip(pair, keep)] for pair in (lo, hi))
            m = mpmath.matrix([[dot(a[i], b[j]) for j in range(2)] for i in range(2)])
            nuclear = mpmath.fsum(mpmath.svd(m, compute_uv=False))
            trace = mpmath.re(sum(dot(x, x) for x in a) * sum(dot(y, y) for y in b))
            deficit = 1 - nuclear / mpmath.sqrt(trace)
        else:
            if isinstance(view, MeterState):
                alpha, beta = mpmath.mpc(view.alpha), mpmath.mpc(view.beta)
                u, v = ([beta * s + alpha * f for s, f in zip(*x)]
                        + [beta * f - alpha * s for s, f in zip(*x)] for x in (lo, hi))
            else:
                u, v = lo[BRANCHES.index(view)], hi[BRANCHES.index(view)]
            deficit = 1 - abs(dot(u, v)) / mpmath.sqrt(mpmath.re(dot(u, u) * dot(v, v)))
        if deficit < IMAGE_ZERO_DEFICIT:
            return mpmath.mpf(0)
        return 8 * deficit / mpmath.mpf(dg) ** 2


@pytest.mark.parametrize("p", STANDARD_THRESHOLDS)
@pytest.mark.parametrize("kind", STANDARD_KINDS)
def test_image_fd_matches_a_50_digit_reference(kind, p):
    # double-double carries ~32 digits; the smallest deficit on the grid
    # (~4e-17 at dg=1e-4) leaves about 14 of them in the information
    probe = ProbeSpec.from_nbar(kind, 1.0).build()
    batch = NlaParams(g=[1.05, 2.0, 6.0], p=p)
    fd = KrausImageFD(probe, batch)
    for view in (SUCCESS, FAILURE, MeterState.trivial(), QUARTER_METER):
        for params, value in zip(points_of(batch), fd.pure(view)):
            want = float(_image_fd_reference(probe, params, 1e-4, view=view))
            assert value == pytest.approx(want, rel=1e-14, abs=0.0), (params, view)
    for params, value in zip(points_of(batch), fd.bures()):
        want = float(_image_fd_reference(probe, params, 1e-4, branches=BRANCHES))
        assert value == pytest.approx(want, rel=1e-14, abs=0.0), params


def test_golden_bures_rows_match_a_50_digit_reference(coherent_nbar1, two_level, g2p1):
    params = NlaParams(g=2.0, p=3)
    unconditional = float(_image_fd_reference(coherent_nbar1, params, 1e-6, branches=BRANCHES))
    assert KrausImageFD(coherent_nbar1, params, 1e-6).bures() == pytest.approx(
        unconditional, rel=1e-14, abs=0.0
    )
    rank_one = float(_image_fd_reference(two_level, g2p1, 1e-4, branches=(SUCCESS,)))
    assert KrausImageFD(two_level, g2p1, 1e-4).bures((SUCCESS,)) == pytest.approx(
        rank_one, rel=1e-14, abs=0.0
    )


def test_identity_suite_makes_a_fixed_number_of_kernel_calls_per_probe(monkeypatch):
    # the Kraus rows and branch probabilities of a probe's 35 points are its
    # images' arrays, its conditional states and slopes come from one kernel
    # call per branch on them, and the only Kraus-kernel call is the one of
    # completeness_defect over all levels; the images are never rebuilt and
    # the per-point and public views are never reached
    grids = standard_grids()
    calls = collections.Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def forbidden(*args, **kwargs):
        raise AssertionError("per-point or public view reached")

    for name in ("_conditional_rows", "completeness_defect"):
        count(selfcheck, name)
    count(instrument, "_kraus_pair")
    for name in ("conditional_state", "kraus_diagonal", "kraus_diagonal_derivative",
                 "branch_probability", "branch_probability_derivative"):
        monkeypatch.setattr(instrument, name, forbidden)
    monkeypatch.setattr(instrument.KrausImages, "of", forbidden)
    results = check_identity_suite(grids)
    assert all(r.passed for r in results)
    probes = len(selfcheck.STANDARD_KINDS) * len(selfcheck.STANDARD_NBARS)
    assert calls == {"_conditional_rows": 2 * probes, "completeness_defect": probes,
                     "_kraus_pair": probes}


def test_oracle_views_of_one_point_are_floats_and_joint_fi_direct_refuses_a_batch():
    probe, _, batch = next(standard_probe_grids())
    one = KrausImageFD(probe, points_of(batch)[0])
    assert isinstance(one.bures(), float) and isinstance(one.pure(MeterState.trivial()), float)
    with pytest.raises(ValueError, match="one operating point"):
        joint_fi_direct(probe, batch, "photon-counting")


def test_image_fd_takes_one_meter_for_all_points_or_a_batch_of_one_per_point():
    probe, _, batch = next(standard_probe_grids())
    fd = KrausImageFD(probe, batch)
    meters = _grid_meters(batch.g.size)
    per_point = fd.pure(meters)
    for i in range(batch.g.size):
        meter = MeterState(meters.alpha[i], meters.beta[i])
        assert per_point[i] == fd.pure(meter)[i]
        assert per_point[i] == fd.pure(MeterBatch(meters.alpha[i:i + 1], meters.beta[i:i + 1]))[i]
    with pytest.raises(TypeError, match="MeterState or a MeterBatch"):
        fd.pure([MeterState(a, b) for a, b in zip(meters.alpha, meters.beta)])
    with pytest.raises(TypeError, match="MeterState or a MeterBatch"):
        KrausImageFD(probe, points_of(batch)[0]).pure([MeterState.trivial()])
    for wrong in (MeterBatch(meters.alpha[:2], meters.beta[:2]),
                  MeterBatch(meters.alpha[:, None], meters.beta[:, None])):
        with pytest.raises(ValueError, match=f"for {batch.g.size} points"):
            fd.pure(wrong)


def _random_custom_sweep():
    """400 seeded custom probes and one point each, beyond the standard grid.

    Dims 1-29, every other probe complex, ``p`` in ``0 .. dim + 2`` and ``g``
    log-uniform in [1.01, 30].
    """
    rng = np.random.default_rng(20190121)
    probes, gains, thresholds = [], [], []
    for i in range(400):
        dim = int(rng.integers(1, 30))
        amps = rng.standard_normal(dim) + (1j * rng.standard_normal(dim) if i % 2 else 0.0)
        probes.append(FockVector(amps).normalized())
        thresholds.append(int(rng.integers(0, dim + 3)))
        gains.append(float(np.exp(rng.uniform(math.log(1.01), math.log(30.0)))))
    return probes, np.array(gains), np.array(thresholds)


def test_random_custom_probes_meet_the_image_oracles_within_their_error_model():
    # Error model at dg = 1e-4: the oracle errs by its O(dg^2) truncation,
    # (o(2dg) - o(dg)) / 3, taken twice here; by its zero-deficit
    # resolution, 8 IMAGE_ZERO_DEFICIT / dg^2 = 8.2e-20 (where the q_f of
    # 1e-21 to 1e-18 at g near 20-30 with p > dim sit), taken four times;
    # and by rounding, 1e-13 of the value.
    probes, g, p = _random_custom_sweep()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        budgets = [qfi_effective(probe, NlaParams(g=gi, p=int(pi))) for probe, gi, pi in zip(probes, g, p)]
    # at p = 0 the failure branch is impossible: q_f reads 0 and has no oracle
    live = p >= 1
    assert all(budget.q_f == 0.0 for budget, alive in zip(budgets, live) if not alive)

    def oracles_at(dg):
        fd = KrausImageFD(probes, NlaParams(g=g, p=p), dg)
        failure = KrausImageFD([x for x, alive in zip(probes, live) if alive],
                               NlaParams(g=g[live], p=p[live]), dg)
        return {"q_s": fd.pure(SUCCESS), "q_eff": fd.pure(MeterState.trivial()),
                "q_unc": fd.bures(), "q_f": failure.pure(FAILURE)}

    dg = 1e-4
    at_dg, at_2dg = oracles_at(dg), oracles_at(2.0 * dg)
    compared = 0
    for name, oracle in at_dg.items():
        analytic = np.array([getattr(budget, name) for budget in budgets])
        analytic = analytic[live] if name == "q_f" else analytic
        bound = (2.0 * np.abs(at_2dg[name] - oracle) / 3.0 + 4.0 * 8.0 * IMAGE_ZERO_DEFICIT / dg**2
                 + 1e-13 * np.abs(analytic))
        worst = int(np.argmax(np.abs(analytic - oracle) / bound))
        assert np.all(np.abs(analytic - oracle) <= bound), (name, worst, analytic[worst], oracle[worst])
        compared += analytic.size
    assert compared == 1568
    # vacuum at g 30, p 250: p_s = 30^-500 underflows
    vacuum, extreme = FockVector([1.0]), NlaParams(g=30.0, p=250)
    with pytest.raises(BranchImpossible, match=r"\(point 0\)"):
        qfi_effective(vacuum, extreme)
    fd = KrausImageFD(vacuum, extreme, dg)
    with pytest.raises(BranchImpossible, match=r"\(point 0\)"):
        fd.pure(SUCCESS)
    assert qfi_unconditional(vacuum, extreme) == 0.0 and fd.bures() == 0.0
