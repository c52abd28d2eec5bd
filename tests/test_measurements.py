import math

import numpy as np
import numpy.testing as npt
import pytest
from conftest import points_of
from dense import conditional_state_derivative

from nlametro import instrument, measurements, montecarlo
from nlametro.fock import FockVector, build_quadrature_grid, default_half_width, wavefunction_matrix
from nlametro.instrument import (
    BRANCHES,
    FAILURE,
    SUCCESS,
    BranchImpossible,
    KrausImages,
    NlaParams,
    _conditional_factors,
    _conditional_rows,
    _kraus_pair,
    _point_columns,
    conditional_state,
    kraus_diagonal,
    kraus_diagonal_derivative,
)
from nlametro.fisher import qfi_branch, qfi_effective
from nlametro.measurements import (
    HOMODYNE,
    PHOTON_COUNTING,
    ROW_CHUNK,
    ComplexProbeUnsupported,
    OutcomeDistribution,
    fi_homodyne,
    fi_photon_counting,
    homodyne_density,
    homodyne_distribution,
    photon_counting_dist,
    sequential_fi,
)
from nlametro.probes import ProbeSpec
from nlametro.selfcheck import (
    NUMERICAL_ZERO,
    STANDARD_GAINS,
    STANDARD_THRESHOLDS,
    standard_probe_grids,
)

SQRT_PI = math.sqrt(math.pi)


def test_photon_counting_masses_two_level(two_level, g2p1):
    dist = photon_counting_dist(two_level, g2p1, SUCCESS)
    npt.assert_allclose(dist.masses, [0.2, 0.8], atol=1e-14)
    assert dist.total() == pytest.approx(1.0, abs=1e-14)
    # failure branch keeps only the sub-threshold levels
    fail = photon_counting_dist(two_level, g2p1, FAILURE)
    npt.assert_allclose(fail.masses, [1.0, 0.0], atol=1e-14)


def test_homodyne_density_hand_values(vacuum, two_level, g2p1):
    # vacuum conditional states stay vacuum: |psi_0(0)|^2 = 1/sqrt(pi);
    # two-level success state has weight 0.2 on |0>; psi_1(0) = 0.  A
    # scalar x, as the golden spot rows pass it, gives a float.
    for probe, want in ((vacuum, 1.0 / SQRT_PI), (two_level, 0.2 / SQRT_PI)):
        assert homodyne_density(probe, g2p1, SUCCESS, np.array([0.0]))[0] == pytest.approx(
            want, rel=1e-12
        )
        spot = homodyne_density(probe, g2p1, SUCCESS, 0.0)
        assert isinstance(spot, float) and spot == pytest.approx(want, rel=1e-12)


def test_homodyne_density_keeps_every_outcome_in_the_shape_of_x(coherent_nbar1):
    # a list or a tuple once gave the density at its first outcome only
    params = NlaParams(g=2.0, p=3)
    xs = np.array([[0.0, 1.0, -0.5], [2.0, 0.25, -3.0]])
    grid = homodyne_density(coherent_nbar1, params, SUCCESS, xs)
    row = homodyne_density(coherent_nbar1, params, SUCCESS, xs[0])
    assert grid.shape == xs.shape and np.unique(grid).size == xs.size
    npt.assert_allclose(row, grid[0], rtol=1e-12)
    for x, want in ((xs.tolist(), grid), (tuple(map(tuple, xs)), grid),
                    (xs[0].tolist(), row), (tuple(xs[0]), row)):
        got = homodyne_density(coherent_nbar1, params, SUCCESS, x)
        assert isinstance(got, np.ndarray) and got.shape == np.shape(x)
        npt.assert_array_equal(got, want)
    one = homodyne_density(coherent_nbar1, params, SUCCESS, [1.0])
    assert one.shape == (1,) and one[0] == pytest.approx(row[1], rel=1e-12)
    for x in (np.array(1.0), 1.0, np.float64(1.0)):
        got = homodyne_density(coherent_nbar1, params, SUCCESS, x)
        assert isinstance(got, float) and got == one[0]


def test_homodyne_distribution_normalized(squeezed_nbar1):
    params = NlaParams(g=1.5, p=2)
    for branch in (SUCCESS, FAILURE):
        dist = homodyne_distribution(squeezed_nbar1, params, branch)
        assert dist.total() == pytest.approx(1.0, abs=1e-10)
        assert np.all(dist.masses >= 0.0)


def test_photon_counting_saturates_branch_qfi(coherent_nbar1):
    params = NlaParams(g=2.0, p=3)
    for branch in (SUCCESS, FAILURE):
        fi = fi_photon_counting(coherent_nbar1, params, branch)
        assert fi == pytest.approx(qfi_branch(coherent_nbar1, params, branch), rel=1e-10)


def test_homodyne_saturates_branch_qfi_for_real_probes(squeezed_nbar1):
    params = NlaParams(g=1.5, p=2)
    for branch in (SUCCESS, FAILURE):
        fi = fi_homodyne(squeezed_nbar1, params, branch)
        assert fi == pytest.approx(qfi_branch(squeezed_nbar1, params, branch), rel=1e-7)


def test_homodyne_rejects_complex_probes():
    probe = FockVector(np.array([1.0, 1j]) / math.sqrt(2.0))
    with pytest.raises(ComplexProbeUnsupported):
        fi_homodyne(probe, NlaParams(g=2.0, p=1), SUCCESS)
    # explicit opt-in evaluates the x-quadrature FI, which is then lossy
    fi = fi_homodyne(probe, NlaParams(g=2.0, p=1), SUCCESS, allow_complex=True)
    assert fi >= 0.0


def test_sequential_fi_equals_breakdown_sum(two_level, coherent_nbar1):
    for probe, params in ((two_level, NlaParams(g=2.0, p=1)),
                          (coherent_nbar1, NlaParams(g=1.5, p=3))):
        bd = qfi_effective(probe, params)
        seq_pc = sequential_fi(probe, params, "photon-counting")
        assert seq_pc == pytest.approx(bd.component_sum(), rel=1e-10)
        seq_hd = sequential_fi(probe, params, "homodyne")
        assert seq_hd == pytest.approx(bd.component_sum(), rel=1e-7)


def test_impossible_branch_distribution_is_empty_weighted(vacuum):
    # at p=1 a |1> probe never fails; the vacuum always can
    one = FockVector([0.0, 1.0])
    params = NlaParams(g=2.0, p=1)
    dist = photon_counting_dist(one, params, SUCCESS)
    npt.assert_allclose(dist.masses, [0.0, 1.0], atol=1e-14)


STANDARD_BATCH = NlaParams(g=np.repeat(STANDARD_GAINS, len(STANDARD_THRESHOLDS)),
                           p=np.tile(STANDARD_THRESHOLDS, len(STANDARD_GAINS)))
STANDARD_POINTS = points_of(STANDARD_BATCH)


def _head(count):
    """The first ``count`` standard points, as a batch."""
    return NlaParams(g=STANDARD_BATCH.g[:count], p=STANDARD_BATCH.p[:count])


def _complex_fisher_integral(dim, rows):
    """Loop reference: one complex field product per row on the window-0 grid.

    ``rows`` is a list of (amplitudes, slopes) pairs whose integrands add up.
    """
    grid, psi = measurements._grid_and_wavefunctions(dim, 0)
    integrand = np.zeros(grid.nodes.size)
    for amps, slopes in rows:
        field = np.asarray(amps, dtype=complex) @ psi
        dfield = np.asarray(slopes, dtype=complex) @ psi
        dens = np.abs(field) ** 2
        ddens = 2.0 * (np.conj(field) * dfield).real
        keep = dens > measurements.MASS_FLOOR
        integrand[keep] += ddens[keep] ** 2 / dens[keep]
    return grid.integrate(integrand)


def _counting_sum(rows):
    """Loop reference: ``sum dm^2 / m`` over occupied levels of (masses, derivatives) pairs."""
    total = 0.0
    for m, dm in rows:
        keep = m > measurements.MASS_FLOOR
        total += float(np.sum(dm[keep] ** 2 / m[keep]))
    return total


@pytest.mark.parametrize("kind, nbar", [("squeezed-vacuum", 2.0), ("coherent", 1.0)])
def test_stacked_detectors_equal_one_point_at_a_time(kind, nbar):
    probe = ProbeSpec.from_nbar(kind, nbar).build()
    assert len(STANDARD_POINTS) > ROW_CHUNK
    for branch in BRANCHES:
        stacked = fi_homodyne(probe, STANDARD_BATCH, branch)
        assert stacked.shape == (len(STANDARD_POINTS),)
        for value, params in zip(stacked, STANDARD_POINTS):
            assert value == pytest.approx(fi_homodyne(probe, params, branch), rel=1e-12)
            cond = conditional_state(probe, params, branch).state.amps
            slope = conditional_state_derivative(probe, params, branch)
            assert value == pytest.approx(
                _complex_fisher_integral(probe.dim, [(cond, slope)]), rel=1e-12
            )
        dist = homodyne_distribution(probe, STANDARD_BATCH, branch)
        totals = dist.total()
        for row, total, params in zip(dist.masses, totals, STANDARD_POINTS, strict=True):
            one = homodyne_distribution(probe, params, branch)
            # near a node of the field the density is a cancellation residue
            npt.assert_allclose(row, one.masses, rtol=1e-12, atol=1e-15 * one.masses.max())
            assert total == pytest.approx(one.total(), rel=1e-12)
        counted = fi_photon_counting(probe, STANDARD_BATCH, branch)
        dist = photon_counting_dist(probe, STANDARD_BATCH, branch)
        assert counted.shape == (len(STANDARD_POINTS),)
        assert dist.masses.shape == (len(STANDARD_POINTS), probe.dim)
        for value, row, params in zip(counted, dist.masses, STANDARD_POINTS, strict=True):
            assert value == pytest.approx(fi_photon_counting(probe, params, branch), rel=1e-12)
            npt.assert_array_equal(row, photon_counting_dist(probe, params, branch).masses)
            cond = conditional_state(probe, params, branch).state.amps
            slope = conditional_state_derivative(probe, params, branch)
            masses = np.abs(cond) ** 2
            npt.assert_allclose(row, masses, rtol=1e-12, atol=1e-300)
            ref_dm = 2.0 * (np.conj(cond) * slope).real
            assert value == pytest.approx(_counting_sum([(masses, ref_dm)]), rel=1e-12)
    for detector in (HOMODYNE, PHOTON_COUNTING):
        stacked = sequential_fi(probe, STANDARD_BATCH, detector)
        for value, params in zip(stacked, STANDARD_POINTS):
            assert value == pytest.approx(sequential_fi(probe, params, detector), rel=1e-12)
            e = [kraus_diagonal(params, b, probe.dim) for b in BRANCHES]
            de = [kraus_diagonal_derivative(params, b, probe.dim) for b in BRANCHES]
            if detector == HOMODYNE:
                rows = [(ei * probe.amps, dei * probe.amps) for ei, dei in zip(e, de)]
                reference = _complex_fisher_integral(probe.dim, rows)
            else:
                w = probe.weights()
                reference = _counting_sum([(ei * ei * w, 2.0 * ei * dei * w) for ei, dei in zip(e, de)])
            assert value == pytest.approx(reference, rel=1e-12)


def test_impossible_branch_in_a_batch_names_the_point():
    # |1> can fail below a threshold of 2, but never at threshold 1
    one = FockVector([0.0, 1.0])
    points = NlaParams(g=[2.0, 2.0], p=[2, 1])
    assert fi_photon_counting(one, NlaParams(g=[2.0], p=2), FAILURE).shape == (1,)
    for function in (photon_counting_dist, fi_photon_counting, fi_homodyne):
        with pytest.raises(BranchImpossible, match=r"failure branch .* g=2\.0, p=1 \(point 1\)"):
            function(one, points, FAILURE)
    with pytest.raises(BranchImpossible, match=r"p=1 \(point 0\)"):
        conditional_state(one, NlaParams(g=2.0, p=1), FAILURE)


def test_stacked_homodyne_of_a_complex_probe_uses_both_quadrature_parts():
    probe = FockVector([0.6, 0.5j, 0.3 + 0.4j, -0.2]).normalized()
    for branch in BRANCHES:
        stacked = fi_homodyne(probe, STANDARD_BATCH, branch, allow_complex=True)
        for value, params in zip(stacked, STANDARD_POINTS):
            single = fi_homodyne(probe, params, branch, allow_complex=True)
            assert value == pytest.approx(single, rel=1e-12)
            cond = conditional_state(probe, params, branch).state.amps
            slope = conditional_state_derivative(probe, params, branch)
            assert value == pytest.approx(
                _complex_fisher_integral(probe.dim, [(cond, slope)]), rel=1e-12
            )


WINDOWS = measurements._grid_and_wavefunctions


def _widened_points(monkeypatch, probe):
    """Which standard failure-branch points a truncated window-0 table widens.

    At half-width 6 the failure-branch integrand of some standard points
    keeps more than TAIL_SHARE in an outermost panel, and of others not.
    The truncated window-0 table is scaled by 1 + 1e-6, which marks every
    value integrated on it.
    """
    exact = fi_homodyne(probe, STANDARD_BATCH, FAILURE)
    requested = []

    def truncated(dim, widen=0):
        requested.append(widen)
        if widen:
            return WINDOWS(dim, widen)
        grid = build_quadrature_grid(6.0, 64)
        return grid, wavefunction_matrix(dim, grid.nodes) * (1.0 + 1e-6)

    monkeypatch.setattr(measurements, "_grid_and_wavefunctions", truncated)
    stacked = fi_homodyne(probe, STANDARD_BATCH, FAILURE)
    widened = []
    for value, params, reference in zip(stacked, STANDARD_POINTS, exact):
        requested.clear()
        single = fi_homodyne(probe, params, FAILURE)
        assert value == pytest.approx(single, rel=1e-12)
        widened.append(1 in requested)
        if widened[-1]:
            assert value == pytest.approx(reference, rel=1e-10)
        else:
            assert value == pytest.approx(reference * (1.0 + 1e-6) ** 2, rel=1e-10)
    monkeypatch.undo()
    return widened


def test_only_groups_with_a_heavy_tail_are_widened(monkeypatch, coherent_nbar1):
    widened = _widened_points(monkeypatch, coherent_nbar1)
    assert 0 < sum(widened) < len(STANDARD_POINTS)


def test_groups_with_a_heavy_left_tail_are_widened(monkeypatch, coherent_nbar1):
    # c_n (-1)^n has the field of c reflected in x, so its heavy tails sit in
    # the leftmost panel wherever those of c sit in the rightmost one.
    flipped = FockVector(coherent_nbar1.amps * (-1.0) ** np.arange(coherent_nbar1.dim))
    widened = _widened_points(monkeypatch, coherent_nbar1)
    assert _widened_points(monkeypatch, flipped) == widened
    assert 0 < sum(widened) < len(STANDARD_POINTS)


def _two_pass_integral(grid, amps, slopes, fields):
    """The integrand formed as ``ddens * (ddens / dens)``, its tail by per-panel sums.

    ``fields(rows)`` gives the field products of the stacked ``(G, K, levels)``
    rows on ``grid``.  Evaluates one chunk of groups and requires every group
    to pass the tail check there.
    """
    per_group = amps.shape[1]
    rows = np.concatenate((amps, slopes), axis=1).reshape(-1, amps.shape[-1])
    dens = cross = 0.0
    for prod in fields(rows):
        field, dfield = np.split(prod.reshape(len(amps), 2 * per_group, -1), 2, axis=1)
        dens = dens + field * field
        cross = cross + field * dfield
    ddens = 2.0 * cross
    keep = dens > measurements.MASS_FLOOR
    integrand = (ddens * np.divide(ddens, dens, out=np.zeros_like(dens), where=keep)).sum(axis=1)
    total = integrand @ grid.weights
    prods = grid.weights * integrand
    panel_sums = prods.reshape(len(amps), grid.panels, grid.order).sum(axis=-1)
    assert np.all(np.maximum(panel_sums[:, 0], panel_sums[:, -1])
                  <= measurements.TAIL_SHARE * total)
    return total


def _two_pass_fisher_integral(probe, amps, slopes):
    """:func:`_two_pass_integral` of real coefficient rows on the probe's window-0 basis."""
    grid, parts = measurements._basis_parts(probe, amps.shape[-1], 0)
    return _two_pass_integral(grid, amps, slopes, lambda rows: measurements._fields(rows, parts))


def _dim_row_fields(rows, psi):
    """The fields of ``dim``-level rows: real and imaginary parts of ``rows @ psi``."""
    if np.any(rows.imag):
        return [rows.real @ psi, rows.imag @ psi]
    return [rows.real @ psi]


def _dim_row_fisher_integral(dim, amps, slopes):
    """:func:`_two_pass_integral` of full ``dim``-level rows on the window-0 table.

    The kernel before the Kraus-image basis: every row multiplies all ``dim``
    rows of the wavefunction table.
    """
    grid, psi = measurements._grid_and_wavefunctions(dim, 0)
    return _two_pass_integral(grid, amps, slopes, lambda rows: _dim_row_fields(rows, psi))


def _joint_rows(points, levels, c=1.0):
    """The joint-record rows ``E_i c`` and slopes ``dE_i c``, ``(G, 2, levels)``."""
    rows = _kraus_pair(*_point_columns(points), levels)
    return rows[:, :, 0] * c, rows[:, :, 1] * c


@pytest.mark.parametrize("complex_rows", [False, True])
def test_one_pass_fisher_integral_equals_the_two_pass_formula_bit_for_bit(
    complex_rows, coherent_nbar1
):
    probe = coherent_nbar1
    one = np.zeros(probe.dim)
    one[1] = 1.0
    one = FockVector(one)
    if complex_rows:
        probe = FockVector(probe.amps * np.exp(0.7j * np.arange(probe.dim)))
        one = FockVector(one.amps * np.exp(0.7j))
    # K = 1: the conditional factor rows of each branch
    for branch in BRANCHES:
        amps, slopes = _conditional_factors(KrausImages.of(probe, _head(ROW_CHUNK)), branch)
        parts = measurements._basis_parts(probe, amps.shape[1])[1]
        assert len(parts) == 1 + complex_rows
        npt.assert_array_equal(
            measurements._fisher_integral(probe, amps[:, None], slopes[:, None]),
            _two_pass_fisher_integral(probe, amps[:, None], slopes[:, None]),
        )
    # K = 2: joint-record rows, and |1> at p = 1, whose failure field is
    # zero, so its density is floored at every node
    head = _head(ROW_CHUNK // 2 - 1)
    points = NlaParams(g=np.append(head.g, 2.0), p=np.append(head.p, 1))
    amps, slopes = _joint_rows(points, min(probe.dim, 5 + 2))
    assert len(amps) == ROW_CHUNK // 2
    for state in (probe, one):
        npt.assert_array_equal(
            measurements._fisher_integral(state, amps, slopes),
            _two_pass_fisher_integral(state, amps, slopes),
        )
    fields = measurements._fields(amps[-1, 1:], measurements._basis_parts(one, amps.shape[-1])[1])
    assert not any(np.any(f) for f in fields)


def _close(got, want, rel=1e-12):
    """Within ``rel`` of the reference where the scale reaches NUMERICAL_ZERO, and
    both below NUMERICAL_ZERO elsewhere (the exact zeros of an uninformative branch)."""
    got, want = np.asarray(got), np.asarray(want)
    scale = np.maximum(np.abs(got), np.abs(want))
    error = np.abs(got - want)
    return bool(np.all(np.where(scale < NUMERICAL_ZERO, error <= NUMERICAL_ZERO,
                                error <= rel * scale)))


def _standard_and_complex_grids():
    grids = [(probe, points) for probe, _, points in standard_probe_grids()]
    probe, points = grids[0]
    return grids + [(FockVector(probe.amps * np.exp(0.7j * np.arange(probe.dim))), points)]


def test_basis_kernels_equal_the_dim_row_formula_on_every_standard_point():
    # the p+2-row basis regroups only the gain-free tail sum; a density's
    # scale is its row maximum, since near a node of the field the density
    # is a cancellation residue
    for probe, points in _standard_and_complex_grids():
        dim = probe.dim
        psi = measurements._grid_and_wavefunctions(dim, 0)[1]
        for branch in BRANCHES:
            amps, slopes, _ = _conditional_rows(KrausImages.of(probe, points), probe.amps, branch)
            assert _close(fi_homodyne(probe, points, branch, allow_complex=True),
                          _dim_row_fisher_integral(dim, amps[:, None], slopes[:, None]))
            want = sum(f * f for f in _dim_row_fields(amps, psi))
            got = homodyne_distribution(probe, points, branch).masses
            scale = np.maximum(want.max(axis=1, keepdims=True), NUMERICAL_ZERO)
            assert np.all(np.abs(got - want) <= 1e-12 * scale)
        if probe.is_real():
            amps, slopes = _joint_rows(points, dim, probe.amps)
            assert _close(sequential_fi(probe, points, HOMODYNE),
                          _dim_row_fisher_integral(dim, amps, slopes))


def test_homodyne_kernels_multiply_only_the_kraus_image_basis(monkeypatch):
    # every product is against min(dim, max p + 2) rows, and the conditional
    # amplitudes over all dim levels are never formed
    shapes = []
    original = measurements._fields

    def recorded(rows, parts):
        shapes.extend((rows.shape[1],) + part.shape for part in parts)
        return original(rows, parts)

    def forbidden(*args, **kwargs):
        raise AssertionError("dim-level conditional rows reached")

    monkeypatch.setattr(measurements, "_fields", recorded)
    monkeypatch.setattr(measurements, "_conditional_rows", forbidden)
    for probe, points in _standard_and_complex_grids():
        levels = min(probe.dim, max(STANDARD_THRESHOLDS) + 2)
        assert levels < probe.dim
        shapes.clear()
        for branch in BRANCHES:
            fi_homodyne(probe, points, branch, allow_complex=True)
            homodyne_distribution(probe, points, branch)
        if probe.is_real():
            sequential_fi(probe, points, HOMODYNE)
        assert shapes and {s[:2] for s in shapes} == {(levels, levels)}


def _conditional_state_density(probe, params, branch, x):
    """The density before the Kraus-image basis: ``|conditional amplitudes @ <x|n>|^2``."""
    amps = conditional_state(probe, params, branch).state.amps
    return np.abs(amps @ wavefunction_matrix(probe.dim, x)) ** 2


def test_homodyne_density_equals_the_conditional_state_formula_on_every_standard_point():
    # the basis regroups only the gain-free tail sum; as for the tabulated
    # densities, a row's scale is its maximum, floored at NUMERICAL_ZERO
    for probe, points in _standard_and_complex_grids():
        half_width = default_half_width(probe.dim)
        xs = np.linspace(-half_width, half_width, 257)
        for params in points_of(points):
            for branch in BRANCHES:
                got = homodyne_density(probe, params, branch, xs)
                want = _conditional_state_density(probe, params, branch, xs)
                assert got.dtype == np.float64 and got.shape == xs.shape
                scale = max(want.max(), NUMERICAL_ZERO)
                assert np.all(np.abs(got - want) <= 1e-12 * scale)


def test_homodyne_density_and_sampler_never_build_the_conditional_state(monkeypatch):
    # a real probe's density is real factor rows times real basis parts, and
    # neither the density nor the Monte-Carlo sampler built on it reaches
    # the complex conditional state
    products = []
    original = measurements._fields

    def recorded(rows, parts):
        products.extend((rows.dtype,) + tuple(part.dtype for part in parts))
        return original(rows, parts)

    def forbidden(*args, **kwargs):
        raise AssertionError("conditional state built")

    monkeypatch.setattr(measurements, "_fields", recorded)
    for module in (instrument, measurements, montecarlo):
        monkeypatch.setattr(module, "conditional_state", forbidden, raising=False)
    monkeypatch.setattr(measurements, "_conditional_rows", forbidden)
    probe = ProbeSpec.from_nbar("coherent", 1.0).build()
    params = NlaParams(g=2.0, p=3)
    uniforms = np.random.default_rng(3).random(500)
    for branch in BRANCHES:
        dens = homodyne_density(probe, params, branch, np.linspace(-4.0, 4.0, 65))
        assert dens.dtype == np.float64
        assert isinstance(homodyne_density(probe, params, branch, 0.5), float)
        outcomes = montecarlo._homodyne_sampler(KrausImages.of(probe, params), probe, branch)(uniforms)
        assert outcomes.dtype == np.float64 and np.all(np.diff(outcomes) >= 0.0)
    assert products and set(products) == {np.dtype(np.float64)}


def test_a_batch_distribution_is_one_object_whose_row_totals_are_the_single_totals():
    for probe, labels, points in standard_probe_grids():
        for branch in BRANCHES:
            for distribution in (photon_counting_dist, homodyne_distribution):
                dist = distribution(probe, points, branch)
                assert isinstance(dist, OutcomeDistribution)
                assert dist.masses.shape == (points.g.size, dist.support.size)
                assert not dist.masses.flags.writeable
                totals = dist.total()
                assert totals.shape == (points.g.size,)
                for row, total in zip(dist.masses, totals, strict=True):
                    one = OutcomeDistribution(dist.kind, branch, dist.support, row.copy(),
                                              dist.weights)
                    # bit for bit: one product of the batch against the
                    # weights would round some rows differently
                    assert type(one.total()) is float and one.total() == total, labels[0]


def test_outcome_distributions_are_read_only_and_never_aliased_to_the_caller():
    probe = ProbeSpec.from_nbar("coherent", 1.0).build()
    params = NlaParams(g=2.0, p=3)
    grid = measurements._grid_and_wavefunctions(probe.dim, 0)[0]
    for branch in BRANCHES:
        counted = photon_counting_dist(probe, params, branch)
        measured = homodyne_distribution(probe, params, branch)
        assert measured.support is grid.nodes and measured.weights is grid.weights
        for dist in (counted, measured):
            for arr in (dist.support, dist.masses, dist.weights):
                assert arr is None or (arr.dtype == np.float64 and not arr.flags.writeable)
    support, masses, weights = np.arange(3), np.array([0.2, 0.3, 0.5]), np.ones(3)
    dist = OutcomeDistribution(HOMODYNE, SUCCESS, support, masses, weights)
    support += 1
    masses[:] = 0.0
    weights *= 2.0
    npt.assert_array_equal(dist.support, [0.0, 1.0, 2.0])
    npt.assert_array_equal(dist.masses, [0.2, 0.3, 0.5])
    npt.assert_array_equal(dist.weights, [1.0, 1.0, 1.0])
    assert dist.total() == pytest.approx(1.0, abs=1e-15)
    for arr in (dist.support, dist.masses, dist.weights):
        assert not arr.flags.writeable


def test_fisher_integral_raises_when_the_tail_never_vanishes(monkeypatch, coherent_nbar1):
    def truncated(dim, widen=0):
        grid = build_quadrature_grid(3.0, 16)
        return grid, wavefunction_matrix(dim, grid.nodes)

    monkeypatch.setattr(measurements, "_grid_and_wavefunctions", truncated)
    with pytest.raises(RuntimeError, match="tail"):
        fi_homodyne(coherent_nbar1, _head(3), SUCCESS)


def _random_probe_stacks(count=100, seed=2024):
    """Seeded custom probes of dims 1-29, every other one complex, each with a
    stack of points whose thresholds run from 0 to dim + 2 and whose gains are
    log-uniform in [1.001, 30]."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        dim = int(rng.integers(1, 30))
        amps = rng.standard_normal(dim)
        if i % 2:
            amps = amps + 1j * rng.standard_normal(dim)
        ps = np.unique(np.concatenate(([0, dim + 2], rng.integers(0, dim + 3, size=2))))
        gains = np.exp(rng.uniform(math.log(1.001), math.log(30.0), size=ps.size))
        yield FockVector(amps).normalized(), NlaParams(g=gains, p=ps)


def test_basis_kernels_on_random_probes_and_mixed_thresholds():
    # p = 0 has no basis row below the tail, and p + 1 >= dim leaves no tail;
    # the failure branch is impossible at p = 0, where E_f = 0 on every level
    for probe, points in _random_probe_stacks():
        dim = probe.dim
        psi = measurements._grid_and_wavefunctions(dim, 0)[1]
        for branch in BRANCHES:
            live = points.p > 0
            stack = points if branch == SUCCESS else NlaParams(g=points.g[live], p=points.p[live])
            if branch == FAILURE:
                with pytest.raises(BranchImpossible):
                    fi_homodyne(probe, points, branch, allow_complex=True)
            amps, slopes, _ = _conditional_rows(KrausImages.of(probe, stack), probe.amps, branch)
            stacked = fi_homodyne(probe, stack, branch, allow_complex=True)
            assert _close(stacked, _dim_row_fisher_integral(dim, amps[:, None], slopes[:, None]))
            want = sum(f * f for f in _dim_row_fields(amps, psi))
            got = homodyne_distribution(probe, stack, branch).masses
            assert np.all(np.abs(got - want) <= 1e-12 * want.max(axis=1, keepdims=True))
            for value, row, params in zip(stacked, got, points_of(stack), strict=True):
                assert value == pytest.approx(
                    fi_homodyne(probe, params, branch, allow_complex=True), rel=1e-12, abs=1e-300
                )
                one = homodyne_distribution(probe, params, branch).masses
                npt.assert_allclose(row, one, rtol=1e-12, atol=1e-15 * one.max())
        if probe.is_real():
            amps, slopes = _joint_rows(points, dim, probe.amps)
            stacked = sequential_fi(probe, points, HOMODYNE)
            assert _close(stacked, _dim_row_fisher_integral(dim, amps, slopes))
            for value, params in zip(stacked, points_of(points)):
                assert value == pytest.approx(sequential_fi(probe, params, HOMODYNE), rel=1e-12)


# Rounding bound of a real probe's detector informations against the same
# probe times a global phase e^{0.7i}, where the scale reaches NUMERICAL_ZERO:
# the complex path forms the masses and densities from products of rotated
# parts.  A nearly uninformative failure branch (FI down to 3e-8) is a
# cancellation residue of the branch's slopes, which amplifies that rounding:
# measured worst 36.6 eps there, 5.5 eps elsewhere.  Below NUMERICAL_ZERO
# (a one-level branch, whose FI is 0 up to rounding) both paths stay below it.
PHASE_BRANCH_EPS = 64.0
PHASE_RECORD_EPS = 8.0


def _within_eps(got, want, n_eps):
    scale = np.maximum(np.abs(got), np.abs(want))
    error = np.abs(got - want)
    bound = n_eps * np.finfo(float).eps * scale
    return bool(np.all(np.where(scale < NUMERICAL_ZERO, True, error <= bound)))


def test_a_global_phase_leaves_the_detector_informations_within_rounding():
    for probe, labels, points in standard_probe_grids():
        phased = FockVector(probe.amps * np.exp(0.7j))
        for branch in BRANCHES:
            assert _within_eps(fi_photon_counting(phased, points, branch),
                               fi_photon_counting(probe, points, branch), PHASE_BRANCH_EPS), labels[0]
            assert _within_eps(fi_homodyne(phased, points, branch, allow_complex=True),
                               fi_homodyne(probe, points, branch), PHASE_BRANCH_EPS), labels[0]
        real = sequential_fi(probe, points, PHOTON_COUNTING)
        rotated = sequential_fi(phased, points, PHOTON_COUNTING)
        assert np.all(real > 0.0) and _within_eps(rotated, real, PHASE_RECORD_EPS), labels[0]
        # the joint homodyne record takes real amplitudes only
        assert sequential_fi(probe, points, HOMODYNE).shape == (points.g.size,)
        with pytest.raises(ComplexProbeUnsupported):
            sequential_fi(phased, points, HOMODYNE)


def test_homodyne_density_refuses_a_batch(coherent_nbar1):
    batch = NlaParams(g=np.array([1.5, 2.0]), p=3)
    with pytest.raises(ValueError, match="one operating point"):
        homodyne_density(coherent_nbar1, batch, SUCCESS, np.linspace(-1, 1, 5))
    # a batch of one is still a batch: one row of masses
    for distribution in (photon_counting_dist, homodyne_distribution):
        dist = distribution(coherent_nbar1, NlaParams(g=[1.5], p=3), SUCCESS)
        assert dist.masses.shape == (1, dist.support.size) and dist.total().shape == (1,)
