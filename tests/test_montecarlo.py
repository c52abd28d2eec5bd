import collections
import dataclasses
import functools
import json
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from nlametro.fock import FockVector, wavefunction_matrix
from nlametro.instrument import BRANCHES, FAILURE, SUCCESS, NlaParams, kraus_diagonal
from nlametro.fisher import qfi_effective_closed_form
from nlametro.measurements import MASS_FLOOR
from nlametro import montecarlo
from nlametro.dense import _PerShotSource, mle_estimate, sample_shots
from nlametro.montecarlo import (
    DegenerateLikelihood,
    ExperimentConfig,
    GainGrid,
    fisher_per_shot,
    run_crb_experiment,
    write_records_jsonl,
    _branch_masses,
    _cramer_rao,
    _Counts,
    _log_likelihoods,
    _Quadratures,
    _scores,
    _ShotSource,
)
from nlametro.probes import ProbeSpec

ONE_PHOTON = FockVector([0.0, 1.0])
SEARCH = GainGrid(lo=4.0 / 3.0, hi=3.0, points=61)


def test_gain_grid_validation():
    with pytest.raises(ValueError):
        GainGrid(lo=0.9, hi=3.0, points=61)
    with pytest.raises(ValueError):
        GainGrid(lo=2.0, hi=1.5, points=61)
    with pytest.raises(ValueError):
        GainGrid(lo=1.5, hi=3.0, points=2)
    grid = GainGrid(lo=1.5, hi=2.5, points=5)
    npt.assert_allclose(grid.values(), [1.5, 1.75, 2.0, 2.25, 2.5])


def test_experiment_config_validation(g2p1):
    spec = ProbeSpec(kind="custom", amps=(1.0 + 0j,))
    with pytest.raises(ValueError):
        ExperimentConfig(
            probe=spec, params_true=g2p1, detector="heterodyne",
            shots=10, seed=0, grid=SEARCH,
        )
    with pytest.raises(ValueError):
        ExperimentConfig(
            probe=spec, params_true=g2p1, detector="herald-only",
            shots=0, seed=0, grid=SEARCH,
        )
    with pytest.raises(ValueError):
        ExperimentConfig(
            probe=spec, params_true=NlaParams(g=5.0, p=1), detector="herald-only",
            shots=10, seed=0, grid=SEARCH,
        )
    # one true operating point, never a batch read at its first point
    with pytest.raises(ValueError, match="one operating point"):
        ExperimentConfig(
            probe=spec, params_true=NlaParams(g=np.array([2.0, 2.5]), p=1),
            detector="herald-only", shots=10, seed=0, grid=SEARCH,
        )


def test_one_photon_probe_is_deterministic(g2p1):
    rng = np.random.default_rng(7)
    success, outcomes = sample_shots(ONE_PHOTON, g2p1, "photon-counting", rng, 20)
    assert success.all()
    assert np.array_equal(outcomes, np.ones(20))


def test_branch_frequency_matches_probability(vacuum, g2p1):
    # p_s = 0.25 for the vacuum at g=2, p=1; binomial 4-sigma band at M=1e5
    m = 100_000
    rng = np.random.default_rng(20260814)
    success, _ = sample_shots(vacuum, g2p1, "herald-only", rng, m)
    freq = success.mean()
    sigma = math.sqrt(0.25 * 0.75 / m)
    assert abs(freq - 0.25) < 4 * sigma


def test_success_branch_click_frequencies(two_level, g2p1):
    # success-state masses are (0.2, 0.8)
    m = 100_000
    rng = np.random.default_rng(5)
    success, outcomes = sample_shots(two_level, g2p1, "photon-counting", rng, m)
    clicks = outcomes[success]
    freq1 = np.mean(clicks == 1)
    sigma = math.sqrt(0.8 * 0.2 / clicks.size)
    assert abs(freq1 - 0.8) < 4 * sigma


def test_homodyne_outcomes_have_expected_spread(two_level, g2p1):
    rng = np.random.default_rng(11)
    success, outcomes = sample_shots(two_level, g2p1, "homodyne", rng, 40_000)
    xs = outcomes[success]
    # success state sqrt(0.2)|0> + sqrt(0.8)|1>:
    #   <x> = 2 sqrt(0.16)/sqrt(2), <x^2> = (2*0.8 + 1)/2 = 1.3
    assert abs(xs.mean() - 2 * math.sqrt(0.16) / math.sqrt(2)) < 0.02
    assert abs((xs ** 2).mean() - 1.3) < 0.05
    assert np.isnan(outcomes).sum() == 0


def test_herald_only_mle_matches_closed_form(vacuum, g2p1):
    rng = np.random.default_rng(42)
    records = sample_shots(vacuum, g2p1, "herald-only", rng, 10_000)
    f = records[0].mean()
    closed_form = f ** (-1.0 / 2.0)  # inverts ps = g^(-2p) at p = 1
    est = mle_estimate(records, vacuum, 1, "herald-only", SEARCH)
    assert est == pytest.approx(closed_form, abs=2e-6)


def test_mle_consistency_photon_counting(coherent_nbar1):
    params = NlaParams(g=2.0, p=3)
    shots = 40_000
    rng = np.random.default_rng(303)
    records = sample_shots(coherent_nbar1, params, "photon-counting", rng, shots)
    est = mle_estimate(records, coherent_nbar1, 3, "photon-counting", SEARCH)
    info = fisher_per_shot(coherent_nbar1, params, "photon-counting")
    se = math.sqrt(_cramer_rao(info, "photon-counting", shots))
    assert abs(est - 2.0) < 3 * se


def test_degenerate_likelihood_for_uninformative_probe(g2p1):
    rng = np.random.default_rng(3)
    records = sample_shots(ONE_PHOTON, g2p1, "photon-counting", rng, 200)
    with pytest.raises(DegenerateLikelihood):
        mle_estimate(records, ONE_PHOTON, 1, "photon-counting", SEARCH)
    with pytest.raises(DegenerateLikelihood):
        _cramer_rao(fisher_per_shot(ONE_PHOTON, g2p1, "photon-counting"), "photon-counting", 100)


def test_fisher_per_shot_strategy_map(two_level, g2p1):
    assert fisher_per_shot(two_level, g2p1, "photon-counting") == pytest.approx(
        qfi_effective_closed_form(two_level, g2p1)
    )
    assert fisher_per_shot(two_level, g2p1, "herald-only") == pytest.approx(
        1.0 / 15.0, abs=1e-12
    )
    assert fisher_per_shot(two_level, g2p1, "success-only") == pytest.approx(
        0.1, abs=1e-12
    )


def test_run_is_deterministic(vacuum, g2p1):
    spec = ProbeSpec(kind="custom", amps=(1.0 + 0j,))
    cfg = ExperimentConfig(
        probe=spec, params_true=g2p1, detector="herald-only",
        shots=1_000, seed=99, grid=SEARCH,
    )
    a = run_crb_experiment(cfg, 50)
    b = run_crb_experiment(cfg, 50)
    npt.assert_array_equal(a.estimates, b.estimates)
    assert a.ratio == b.ratio
    assert a.ratio_ci == b.ratio_ci


def test_success_only_counts_and_interval(two_level):
    spec = ProbeSpec(kind="custom", amps=(1 / math.sqrt(2), 1 / math.sqrt(2)))
    cfg = ExperimentConfig(
        probe=spec, params_true=NlaParams(g=2.0, p=1), detector="success-only",
        shots=2_000, seed=17, grid=SEARCH,
    )
    res = run_crb_experiment(cfg, 60)
    assert np.all(res.success_counts <= cfg.shots)
    assert np.all(res.estimates >= SEARCH.lo) and np.all(res.estimates <= SEARCH.hi)
    assert res.ratio_ci[0] < res.ratio < res.ratio_ci[1]


def test_homodyne_experiment_saturates_loosely(two_level):
    # small-sample sanity; the acceptance suite owns the tight checks
    spec = ProbeSpec(kind="custom", amps=(1 / math.sqrt(2), 1 / math.sqrt(2)))
    cfg = ExperimentConfig(
        probe=spec, params_true=NlaParams(g=2.0, p=1), detector="homodyne",
        shots=2_000, seed=23, grid=SEARCH,
    )
    res = run_crb_experiment(cfg, 100)
    assert 0.6 < res.ratio < 1.6


def test_records_jsonl_roundtrip(tmp_path, g2p1):
    spec = ProbeSpec(kind="custom", amps=(1.0 + 0j,))
    cfg = ExperimentConfig(
        probe=spec, params_true=g2p1, detector="herald-only",
        shots=500, seed=31, grid=SEARCH,
    )
    res = run_crb_experiment(cfg, 20)
    path = tmp_path / "records.jsonl"
    write_records_jsonl(path, cfg, res)
    lines = path.read_text().splitlines()
    assert len(lines) == 20
    first = json.loads(lines[0])
    assert set(first) == {"replication", "estimate", "shots", "success_count"}
    assert first["shots"] == 500


_RECORDED = {"photon-counting": BRANCHES, "success-only": (SUCCESS,), "herald-only": ()}


def _replayed_records(cfg, replications):
    """The experiment's records, replayed from its replication stream.

    The root seed spawns the replication stream and the bootstrap stream.  A
    homodyne experiment draws its records shot by shot, one after another.  A
    counting experiment draws every record's ``n_s ~ Binomial(shots, p_s)``
    in one call, then ``Multinomial(n, masses)`` of every record per
    recorded branch that fired; each record is expanded shot by shot into
    ``(success_mask, outcomes)``.
    """
    probe, params, shots = cfg.probe.build(), cfg.params_true, cfg.shots
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(2)[0])
    if cfg.detector == "homodyne":
        return [sample_shots(probe, params, cfg.detector, rng, shots) for _ in range(replications)]
    ps, ms, mf = _branch_masses(probe, params)
    n_s = rng.binomial(shots, ps, size=replications)
    levels = {
        branch: rng.multinomial(n, masses)
        for branch, n, masses in ((SUCCESS, n_s, ms), (FAILURE, shots - n_s, mf))
        if n.any() and branch in _RECORDED[cfg.detector]
    }
    records = []
    for r in range(replications):
        success = np.repeat([True, False], [n_s[r], shots - n_s[r]])
        outcomes = np.full(shots, np.nan)
        for branch, mask in ((SUCCESS, success), (FAILURE, ~success)):
            if branch in levels:
                outcomes[mask] = np.repeat(np.arange(probe.dim), levels[branch][r])
        records.append((success, outcomes))
    return records


def _redrawn_estimates(cfg, replications):
    """Per-replication reference: the replayed records, one MLE each."""
    probe = cfg.probe.build()
    records = _replayed_records(cfg, replications)
    estimates = [
        mle_estimate(record, probe, cfg.params_true.p, cfg.detector, cfg.grid)
        for record in records
    ]
    return np.array(estimates), np.array([int(success.sum()) for success, _ in records])


_COUNT_DETECTORS = ("photon-counting", "success-only", "herald-only")
_HALF = 1 / math.sqrt(2)
# (id prefix, probe, true parameters); the coherent rows keep their original ids
_BATCH_CASES = (
    ("", ProbeSpec.from_nbar("coherent", 1.0), NlaParams(g=2.0, p=3)),
    ("two-level-", ProbeSpec(kind="custom", amps=(_HALF, _HALF)), NlaParams(g=2.0, p=1)),
    ("squeezed-dim149-", ProbeSpec.from_nbar("squeezed-vacuum", 2.0), NlaParams(g=1.5, p=5)),
)


@pytest.mark.parametrize(
    "spec, params, detector, replications",
    [
        *[
            pytest.param(spec, params, d, 20, id=f"{prefix}{d}-20")
            for prefix, spec, params in _BATCH_CASES
            for d in _COUNT_DETECTORS
        ],
        pytest.param(*_BATCH_CASES[0][1:], "homodyne", 3, id="homodyne-3"),
    ],
)
def test_batched_estimates_equal_per_record_mle(spec, params, detector, replications):
    cfg = ExperimentConfig(
        probe=spec, params_true=params,
        detector=detector, shots=2_000, seed=41, grid=SEARCH,
    )
    res = run_crb_experiment(cfg, replications)
    estimates, counts = _redrawn_estimates(cfg, replications)
    npt.assert_array_equal(res.estimates, estimates)
    npt.assert_array_equal(res.success_counts, counts)


class _CountingGenerator:
    """A generator that counts its calls by method name."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls[name] += 1
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize("replications", [20, 500])
@pytest.mark.parametrize("detector", _COUNT_DETECTORS)
def test_counting_experiment_draws_with_a_fixed_number_of_calls(monkeypatch, detector, replications):
    spawned, generators = [], []
    seed_sequence, default_rng = np.random.SeedSequence, np.random.default_rng

    class CountingSeedSequence(seed_sequence):
        def spawn(self, n):
            spawned.append(n)
            return super().spawn(n)

    def counting_rng(seed):
        generators.append(collections.Counter())
        return _CountingGenerator(default_rng(seed), generators[-1])

    monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    spec, params = _BATCH_CASES[0][1:]
    cfg = ExperimentConfig(
        probe=spec, params_true=params, detector=detector, shots=2_000, seed=41, grid=SEARCH,
    )
    res = run_crb_experiment(cfg, replications)
    assert res.replications == replications
    assert spawned == [2]
    draws, boot = generators
    # 0 < p_s < 1: both branches fire
    assert draws == collections.Counter(binomial=1, multinomial=len(_RECORDED[detector]))
    assert set(boot) == {"integers"}


_CASES_BY_ID = {
    "coherent-dim17": (ProbeSpec.from_nbar("coherent", 1.0).build(), NlaParams(g=2.0, p=3)),
    "two-level": (FockVector([_HALF, _HALF]), NlaParams(g=2.0, p=1)),
}


@pytest.mark.parametrize("detector", _COUNT_DETECTORS)
def test_shot_source_counts_draw_a_binomial_then_a_multinomial_per_recorded_branch(detector):
    probe, params = _CASES_BY_ID["coherent-dim17"]
    ps, ms, mf = _branch_masses(probe, params)
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    counts = _ShotSource(probe, params, detector).counts(a, 3_000, 7)
    npt.assert_array_equal(counts.n_s, b.binomial(3_000, ps, size=7))
    npt.assert_array_equal(counts.n_s + counts.n_f, 3_000)
    assert ((0 < counts.n_s) & (counts.n_s < 3_000)).all()
    for branch, n, masses, rows in (
        (SUCCESS, counts.n_s, ms, counts.success), (FAILURE, counts.n_f, mf, counts.failure),
    ):
        assert rows.shape == (7, probe.dim)
        if branch in _RECORDED[detector]:
            npt.assert_array_equal(rows, b.multinomial(n, masses))
            npt.assert_array_equal(rows.sum(axis=1), n)
        else:
            npt.assert_array_equal(rows, 0)
    assert a.random() == b.random()


@pytest.mark.parametrize("case", sorted(_CASES_BY_ID))
def test_count_draw_matches_the_per_shot_draw_in_distribution(case):
    probe, params = _CASES_BY_ID[case]
    ps, ms, mf = _branch_masses(probe, params)
    source = _PerShotSource(probe, params, "photon-counting")
    shots, replications = 1_000, 2_000
    # mean counts per replication: one row per branch, one column per level
    expected = shots * np.array([ps * ms, (1.0 - ps) * mf])
    sigma = np.sqrt(expected * (1.0 - expected / shots) / replications)

    def summed_counts(rng):
        counts = source.counts(rng, shots, replications)
        return np.array([counts.success.sum(axis=0), counts.failure.sum(axis=0)])

    def summed_draws(rng):
        total = np.zeros((2, probe.dim), dtype=np.int64)
        for _ in range(replications):
            drawn = source.draw(rng, shots)[1]
            for row, branch in enumerate(BRANCHES):
                if branch in drawn:
                    total[row] += np.bincount(drawn[branch], minlength=probe.dim)
        return total

    for name, summed in (("counts", summed_counts), ("draw", summed_draws)):
        total = summed(np.random.default_rng(13))
        assert total.sum() == shots * replications, name
        mean = total / replications
        npt.assert_array_equal(total[expected == 0.0], 0, err_msg=name)
        assert (np.abs(mean - expected) <= 5.0 * sigma).all(), (name, mean - expected, sigma)


def test_shot_source_draws_only_homodyne_runs_shot_by_shot(g2p1):
    for detector in ("photon-counting", "success-only"):
        with pytest.raises(ValueError, match="drawn as counts"):
            _ShotSource(ONE_PHOTON, g2p1, detector).draw(np.random.default_rng(3), 10)
    success, drawn = _ShotSource(ONE_PHOTON, g2p1, "homodyne").draw(np.random.default_rng(3), 10)
    assert success.all() and drawn[SUCCESS].shape == (10,)


@pytest.mark.parametrize("branch", BRANCHES)
def test_homodyne_sampler_gives_the_sorted_outcomes_of_its_uniforms(branch):
    sample = montecarlo._homodyne_sampler(_COHERENT, NlaParams(g=2.0, p=3), branch)
    u = np.random.default_rng(23).random(2_000)
    # one uniform per call: the outcome each uniform maps to, in draw order
    unsorted = np.array([sample(u[i:i + 1])[0] for i in range(u.size)])
    drawn = sample(u)
    assert np.all(np.diff(drawn) >= 0.0)
    assert np.array_equal(drawn, np.sort(unsorted))


def test_count_draw_of_a_one_photon_probe_never_fails(g2p1):
    counts = _ShotSource(ONE_PHOTON, g2p1, "photon-counting").counts(
        np.random.default_rng(3), 500, 4
    )
    npt.assert_array_equal(counts.n_s, 500)
    npt.assert_array_equal(counts.n_f, 0)
    npt.assert_array_equal(counts.success, [[0, 500]] * 4)
    # the failure branch never fired: its rows stay zero
    npt.assert_array_equal(counts.failure, 0)


def test_count_draw_clamps_a_success_probability_rounded_above_one():
    # the norm check accepts 1 + 4e-11, so p_s rounds above 1
    probe, params = FockVector([0.0, 1.0 + 4e-11]), NlaParams(g=2.0, p=0)
    assert _branch_masses(probe, params)[0] > 1.0
    counts = _ShotSource(probe, params, "photon-counting").counts(
        np.random.default_rng(3), 500, 4
    )
    npt.assert_array_equal(counts.n_s, 500)
    npt.assert_array_equal(counts.success.sum(axis=1), 500)
    npt.assert_array_equal(counts.failure, 0)


def test_count_draw_puts_the_remainder_of_a_short_table_in_the_last_level(monkeypatch):
    masses = np.array([0.125, 0.25, 0.125])  # sums to 1/2
    monkeypatch.setattr(
        montecarlo, "_branch_masses", lambda probe, params: (1.0, masses, np.zeros(3))
    )
    source = _PerShotSource(FockVector([1.0, 0.0, 0.0]), NlaParams(g=2.0, p=1), "success-only")
    shots = 40_000
    expected = shots * np.array([0.125, 0.25, 0.625])
    sigma = np.sqrt(expected * (1.0 - expected / shots))
    rng = np.random.default_rng(21)
    counted = source.counts(rng, shots, 1)
    assert counted.n_s[0] == shots and counted.success[0].sum() == shots
    success, drawn = source.draw(rng, shots)
    assert success.all()
    for counts in (counted.success[0], np.bincount(drawn[SUCCESS], minlength=3)):
        assert (np.abs(counts - expected) <= 5.0 * sigma).all(), counts


def test_one_flat_replication_makes_the_batch_degenerate():
    # |1> alone is uninformative: a record of only level-1 successes is flat
    spec = ProbeSpec(kind="custom", amps=(math.sqrt(0.02), math.sqrt(0.98)))
    cfg = ExperimentConfig(
        probe=spec, params_true=NlaParams(g=2.0, p=1), detector="photon-counting",
        shots=20, seed=4, grid=SEARCH,
    )
    probe = spec.build()
    flat = []
    for records in _replayed_records(cfg, 4):
        try:
            mle_estimate(records, probe, 1, cfg.detector, SEARCH)
            flat.append(False)
        except DegenerateLikelihood:
            flat.append(True)
    assert any(flat) and not all(flat)
    with pytest.raises(DegenerateLikelihood, match="flat across the search grid"):
        run_crb_experiment(cfg, 4)


def _homodyne_record(probe, params, shots, seed):
    success, outcomes = sample_shots(probe, params, "homodyne", np.random.default_rng(seed), shots)
    drawn = {SUCCESS: outcomes[success], FAILURE: outcomes[~success]}
    return {branch: xs for branch, xs in drawn.items() if xs.size}


def _full_vector_log_likelihood(probe, p, drawn, g):
    """Uncompressed reference: ``(E c) @ <x|n>`` over every level of the probe."""
    total = 0.0
    for branch, xs in drawn.items():
        amps = kraus_diagonal(NlaParams(g=g, p=p), branch, probe.dim) * probe.amps
        field = amps @ wavefunction_matrix(probe.dim, xs)
        total += float(np.sum(np.log(np.maximum(np.abs(field) ** 2, MASS_FLOOR))))
    return total


_COHERENT = ProbeSpec.from_nbar("coherent", 1.0).build()
_COMPLEX = FockVector(np.array([0.6, 0.5j, 0.4 * np.exp(1j * np.pi / 3), 0.3 - 0.2j])).normalized()


@pytest.mark.parametrize(
    "probe, p, g_true, keep",
    [
        pytest.param(_COHERENT, 3, 2.0, BRANCHES, id="coherent-dim17"),
        pytest.param(
            ProbeSpec.from_nbar("squeezed-vacuum", 2.0).build(), 5, 1.5, BRANCHES,
            id="squeezed-dim149",
        ),
        pytest.param(_COMPLEX, 1, 2.0, BRANCHES, id="complex-custom"),
        pytest.param(_COMPLEX, 3, 2.0, BRANCHES, id="no-tail-row"),
        pytest.param(_COHERENT, 3, 2.0, (SUCCESS,), id="failure-never-fired"),
        pytest.param(_COHERENT, 3, 2.0, (FAILURE,), id="success-never-fired"),
    ],
)
def test_compressed_homodyne_likelihood_matches_full_vector(probe, p, g_true, keep):
    record = _homodyne_record(probe, NlaParams(g=g_true, p=p), 400, seed=17)
    drawn = {branch: xs for branch, xs in record.items() if branch in keep}
    assert set(drawn) == set(keep)
    stats = _Quadratures.of(probe, p, drawn)
    for branch, parts, levels in ((SUCCESS, stats.success, p + 2), (FAILURE, stats.failure, p + 1)):
        if branch not in drawn:
            assert parts is None
            continue
        # the real rows, then the imaginary rows of a complex probe
        assert len(parts) == 1 + bool(probe.amps.imag.any())
        for part in parts:
            assert part.shape == (min(levels, probe.dim), drawn[branch].size)
            assert part.dtype == np.float64 and part.flags.c_contiguous
    for g in SEARCH.values():
        compressed = _log_likelihoods(probe, p, "homodyne", stats, np.array([g]))[0]
        assert compressed == pytest.approx(_full_vector_log_likelihood(probe, p, drawn, g), rel=1e-12)


def _blockwise_surface_reference(p, stats, gains):
    """Unfused homodyne surface: per gain, ``np.log(np.maximum(re^2 + im^2, MASS_FLOOR)).sum()``.

    The field parts come from the same ``GRID_BLOCK``-gain products as the
    surface's: a BLAS product of one row may round differently from the same
    row inside a larger product.
    """
    total = np.zeros(gains.size)
    block = montecarlo.GRID_BLOCK
    for branch, parts in ((SUCCESS, stats.success), (FAILURE, stats.failure)):
        if parts is None:
            continue
        e = kraus_diagonal(NlaParams(g=gains, p=p), branch, parts[0].shape[0])
        for start in range(0, gains.size, block):
            fields = [e[start:start + block] @ part for part in parts]
            for i, row in enumerate(zip(*fields), start):
                density = sum(f * f for f in row)
                total[i] += np.log(np.maximum(density, MASS_FLOOR)).sum()
    return total


def _with_a_vanished_field(stats):
    """``stats`` with one more success outcome whose field is 0 at every gain."""
    parts = tuple(np.hstack((part, np.zeros((part.shape[0], 1)))) for part in stats.success)
    return _Quadratures(parts, stats.failure)


@pytest.mark.parametrize(
    "probe, p, floored",
    [
        pytest.param(_COHERENT, 3, False, id="real-coherent"),
        pytest.param(_COMPLEX, 1, False, id="complex-custom"),
        pytest.param(_COHERENT, 3, True, id="real-floored"),
        pytest.param(_COMPLEX, 1, True, id="complex-floored"),
    ],
)
def test_fused_homodyne_surface_equals_the_unfused_reference_bit_for_bit(probe, p, floored):
    stats = _Quadratures.of(probe, p, _homodyne_record(probe, NlaParams(g=2.0, p=p), 3_000, seed=19))
    gains = SEARCH.values()
    if floored:
        plain = _log_likelihoods(probe, p, "homodyne", stats, gains)
        stats = _with_a_vanished_field(stats)
    surface = _log_likelihoods(probe, p, "homodyne", stats, gains)
    assert surface.shape == (1, gains.size)
    npt.assert_array_equal(surface[0], _blockwise_surface_reference(p, stats, gains))
    if floored:
        # the vanished field adds log(MASS_FLOOR) at every gain
        npt.assert_allclose(surface - plain, math.log(MASS_FLOOR), rtol=1e-9)


def _count_row(counts, r):
    """Replication ``r`` of ``counts`` as a one-row :class:`_Counts`."""
    return _Counts(*(getattr(counts, f.name)[r:r + 1] for f in dataclasses.fields(counts)))


def _failure_never_fired(counts):
    """``counts`` with every shot a success: the failure branch never fired."""
    zeros = np.zeros_like(counts.n_f)
    return _Counts(counts.n_s + counts.n_f, zeros, counts.success, np.zeros_like(counts.failure))


def _score_cases():
    """(id, probe, p, detector, stats) for every detector, with never-fired branches."""
    cases = []
    # at p = 3 the complex probe's imaginary amplitudes reach gain-dependent
    # levels, so its homodyne score has an imaginary cross term
    for name, probe, p in (("coherent", _COHERENT, 3), ("complex", _COMPLEX, 1),
                           ("complex-p3", _COMPLEX, 3)):
        for detector in _COUNT_DETECTORS:
            counts = _ShotSource(probe, NlaParams(g=2.0, p=p), detector).counts(
                np.random.default_rng(5), 2_000, 4
            )
            cases.append((f"{name}-{detector}", probe, p, detector, counts))
        cases.append((
            f"{name}-photon-counting-failure-never-fired", probe, p, "photon-counting",
            _failure_never_fired(cases[-3][-1]),
        ))
        record = _homodyne_record(probe, NlaParams(g=2.0, p=p), 400, seed=17)
        for keep in (BRANCHES, (SUCCESS,), (FAILURE,)):
            drawn = {branch: xs for branch, xs in record.items() if branch in keep}
            label = "" if keep == BRANCHES else f"-only-{keep[0]}-fired"
            cases.append(
                (f"{name}-homodyne{label}", probe, p, "homodyne", _Quadratures.of(probe, p, drawn))
            )
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


@pytest.mark.parametrize("probe, p, detector, stats", _score_cases())
def test_score_is_the_gain_derivative_of_the_log_likelihood(probe, p, detector, stats):
    # The central difference errs by h^2 |l'''| / 6 plus a rounding of about
    # eps |l| / h = 2e-11 |l|; both stay below 1e-9 |l| on these records, and
    # the test allows ten times that.
    gains, h = np.array([1.4, 1.8, 2.0, 2.3, 2.9]), 1e-5
    surface = functools.partial(_log_likelihoods, probe, p, detector, stats)
    rows = surface(gains).shape[0]
    scores = np.array([_scores(probe, p, detector, stats, np.full(rows, g)) for g in gains]).T
    central = (surface(gains + h) - surface(gains - h)) / (2.0 * h)
    assert np.all(np.abs(central - scores) <= 1e-8 * np.abs(surface(gains)))


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section_reference(probe, p, detector, stats, grid, tol=1e-6):
    """The log-path estimate of a one-row record: grid argmax, then golden section.

    The search brackets the two grid cells around the argmax and narrows
    them by golden section on the log-likelihood itself to ``tol``.
    """
    def loglik(g):
        return _log_likelihoods(probe, p, detector, stats, np.array([g]))[0, 0]

    values = grid.values()
    i = int(np.argmax(_log_likelihoods(probe, p, detector, stats, values)[0]))
    a, b = values[max(i - 1, 0)], values[min(i + 1, values.size - 1)]
    x1, x2 = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    f1, f2 = loglik(x1), loglik(x2)
    while b - a > tol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = loglik(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = loglik(x2)
    return 0.5 * (a + b)


@pytest.mark.parametrize(
    "spec, params, detector",
    [
        *[
            pytest.param(spec, params, d, id=f"{prefix}{d}")
            for prefix, spec, params in _BATCH_CASES
            for d in _COUNT_DETECTORS
        ],
        pytest.param(*_BATCH_CASES[0][1:], "homodyne", id="homodyne"),
    ],
)
def test_score_root_search_agrees_with_golden_section_on_the_log_path(spec, params, detector):
    probe, p = spec.build(), params.p
    rng = np.random.default_rng(29)
    source = _ShotSource(probe, params, detector)
    if detector == "homodyne":
        records = [_Quadratures.of(probe, p, source.draw(rng, 2_000)[1]) for _ in range(3)]
    else:
        counts = source.counts(rng, 2_000, 8)
        records = [_count_row(counts, r) for r in range(8)]
    for stats in records:
        estimate = montecarlo._estimates(probe, p, detector, stats, SEARCH)[0][0]
        assert abs(estimate - _golden_section_reference(probe, p, detector, stats, SEARCH)) <= 1e-6


@pytest.mark.parametrize("edge", ["lo", "hi"])
def test_a_true_gain_at_the_grid_edge_gives_estimates_at_the_edge(edge):
    g_true = getattr(SEARCH, edge)
    cfg = ExperimentConfig(
        probe=ProbeSpec(kind="custom", amps=(1.0 + 0j,)), params_true=NlaParams(g=g_true, p=1),
        detector="herald-only", shots=2_000, seed=5, grid=SEARCH,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_crb_experiment(cfg, 40)
    # about half the records' likelihoods still rise at the edge: those estimate the edge
    at_edge = res.estimates == g_true
    assert 0 < at_edge.sum() < 40
    assert res.edge_hits >= at_edge.sum()
    assert np.all((res.estimates >= SEARCH.lo) & (res.estimates <= SEARCH.hi))


def test_a_secant_step_onto_a_bracket_end_takes_the_minimum_step():
    # Two-level photon counting at p = 1: the likelihood of u = 1/g^2 peaks at
    # n_0 / (n_0 + n_f), so the counts n_0 : n_f = 1 : 3 put the maximum
    # exactly on the grid gain 2.  The secant step then rounds onto the end of
    # the bracket; moved tol/2 inside, it closes the bracket at once.  A
    # bisection there takes 17 score evaluations.
    assert 2.0 in SEARCH.values()
    half = 1.0 / math.sqrt(2.0)
    stats = _Counts(np.array([7_000]), np.array([3_000]), np.array([[1_000, 6_000]]),
                    np.array([[3_000, 0]]))
    (estimate,), (evaluations,), _ = montecarlo._estimates(
        FockVector([half, half]), 1, "photon-counting", stats, SEARCH
    )
    assert estimate == pytest.approx(2.0, rel=0.0, abs=1e-9)
    assert evaluations <= 3


@pytest.mark.parametrize("detector, replications", [("photon-counting", 500), ("homodyne", 3)])
def test_search_makes_one_surface_and_a_few_score_steps(monkeypatch, detector, replications):
    calls = collections.Counter()
    for name in ("_log_likelihoods", "_scores"):
        def counted(*args, _name=name, _original=getattr(montecarlo, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(montecarlo, name, counted)
    spec, params = _BATCH_CASES[0][1:]
    cfg = ExperimentConfig(
        probe=spec, params_true=params, detector=detector, shots=2_000, seed=41, grid=SEARCH,
    )
    res = run_crb_experiment(cfg, replications)
    # one surface per experiment, or per replication when no count summarises it
    searches = 1 if detector == "photon-counting" else replications
    assert calls["_log_likelihoods"] == searches
    # the two cell ends, then at most four lockstep steps (golden section took 25)
    assert 2 * searches < calls["_scores"] <= 6 * searches
    assert res.likelihood_evaluations == SEARCH.points * replications
    # the weighted steps take about 3 per replication; unweighted regula falsi about 4
    assert 2 * replications < res.score_evaluations <= 5.5 * replications
