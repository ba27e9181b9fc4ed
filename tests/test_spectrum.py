"""Tests for the eigensolver, sweeps, gap extraction, and dark-mode metrics."""

import math
import warnings

import numpy as np
import pytest

from loopmag.cli import PRESETS
from loopmag.model import CouplingEdge, ModeSpec, SystemModel, build_hamiltonian
from loopmag.spectrum import (
    DEGENERACY_CLUSTER_GHZ,
    GapReport,
    branch_frequencies,
    dark_mode_metric,
    eig_hermitian,
    min_gap,
    resonant_gap,
    sweep,
    sweep_to_csv,
)
from devices import (fit_device, preset, preset_grid, raises_exactly, rejected_calls,
                     single_pair_system, table1_device)
from oracles import OracleError, char_poly_eigenvalues

PI = math.pi


def star_device(n_magnons, g_mhz=120.0, omega_c=5.0, extra_photon_offset=None):
    modes = [ModeSpec("c1", "photon", omega_c)]
    edges = []
    if extra_photon_offset is not None:
        modes.append(ModeSpec("c2", "photon", omega_c + extra_photon_offset))
    for k in range(n_magnons):
        label = f"m{k + 1}"
        modes.append(ModeSpec(label, "magnon", omega_c))
        edges.append(CouplingEdge("c1", label, g_mhz, 0.0))
        if extra_photon_offset is not None:
            edges.append(CouplingEdge("c2", label, g_mhz, 0.0))
    return SystemModel(
        tuple(modes), tuple(edges), frozenset(f"m{k + 1}" for k in range(n_magnons))
    )


def random_hermitian(rng, dim, scale=10.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (a + a.conj().T) / 2
    return h * (scale / max(np.linalg.norm(h), 1e-30))


# ====== eig_hermitian ======


def test_resonant_two_by_two_closed_form():
    h = np.array([[4.5, 0.1], [0.1, 4.5]])
    vals, vecs = eig_hermitian(h)
    assert np.allclose(vals, [4.4, 4.6], atol=1e-14)
    for k, sign in enumerate((-1.0, 1.0)):
        v = vecs[:, k]
        want = np.array([1.0, sign]) / math.sqrt(2)
        phase = v[np.argmax(np.abs(v))] / want[np.argmax(np.abs(v))]
        assert np.allclose(v, want * phase, atol=1e-12)


def test_one_photon_two_degenerate_magnons_dark_middle():
    g = 0.12
    h = np.array([[5.0, g, g], [g, 5.0, 0.0], [g, 0.0, 5.0]])
    vals, vecs = eig_hermitian(h)
    root2 = math.sqrt(2)
    assert np.allclose(vals, [5.0 - root2 * g, 5.0, 5.0 + root2 * g], atol=1e-13)
    assert abs(vecs[0, 1]) < 1e-13  # middle eigenvector carries no photon amplitude


def test_diagonal_matrix_sorted():
    h = np.diag([3.0, 1.0, 2.0]).astype(complex)
    vals, vecs = eig_hermitian(h)
    assert np.allclose(vals, [1.0, 2.0, 3.0], atol=0)
    assert np.allclose(np.abs(vecs), np.eye(3)[:, [1, 2, 0]], atol=1e-14)


def test_single_entry():
    vals, vecs = eig_hermitian(np.array([[7.25]], dtype=complex))
    assert vals.tolist() == [7.25]
    assert abs(abs(vecs[0, 0]) - 1.0) < 1e-15


def test_residual_and_orthonormality_property():
    rng = np.random.default_rng(17)
    for _ in range(200):
        dim = int(rng.integers(1, 10))
        h = random_hermitian(rng, dim, scale=float(rng.uniform(0.5, 20)))
        vals, vecs = eig_hermitian(h)
        scale = np.linalg.norm(h)
        assert np.all(np.diff(vals) >= -1e-300)
        residual = h @ vecs - vecs * vals[None, :]
        assert np.linalg.norm(residual, axis=0).max() <= 1e-10 * max(scale, 1e-30)
        gram = vecs.conj().T @ vecs
        assert np.abs(gram - np.eye(dim)).max() <= 1e-10


def test_matches_polynomial_oracle_six_by_six():
    rng = np.random.default_rng(2025)
    checked = 0
    for _ in range(12):
        h = random_hermitian(rng, 6, scale=10.0)
        try:
            want = char_poly_eigenvalues(h)
        except OracleError:
            continue
        vals, _ = eig_hermitian(h)
        assert np.abs(vals - want).max() < 1e-9
        checked += 1
    assert checked >= 8


def test_rejects_a_matrix_that_is_not_square():
    for bad in (np.ones((2, 3)), np.ones(3), np.ones((2, 2, 2))):
        with raises_exactly(ValueError, "expected a square matrix"):
            eig_hermitian(bad)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(math.nan, 0)])
def test_rejects_non_finite_entries_before_the_norms(value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with raises_exactly(ValueError, "matrix entries must be finite"):
            eig_hermitian(np.array([[value]]))
        with raises_exactly(ValueError, "matrix entries must be finite"):
            eig_hermitian(np.array([[1.0, value], [value, 2.0]], dtype=complex))


def test_accepts_model_matrix_wrapper():
    system = fit_device()
    wrapped = build_hamiltonian(system, 5.0)
    vals_w, _ = eig_hermitian(wrapped)
    vals_a, _ = eig_hermitian(wrapped.entries)
    assert np.array_equal(vals_w, vals_a)


def test_zero_matrix():
    vals, vecs = eig_hermitian(np.zeros((4, 4), dtype=complex))
    assert np.all(vals == 0.0)
    assert np.abs(vecs.conj().T @ vecs - np.eye(4)).max() < 1e-12


# ====== sweep ======


def test_sweep_shapes_and_invariants():
    system = fit_device()
    grid = np.linspace(4.0, 7.0, 121)
    result = sweep(system, grid)
    assert result.branches.shape == (121, 4)
    assert result.photon_weights.shape == (121, 4)
    assert result.eigenvectors.shape == (121, 4, 4)
    assert np.all(np.diff(result.branches, axis=1) >= 0)
    assert np.all(result.photon_weights >= -1e-12)
    assert np.all(result.photon_weights <= 1 + 1e-12)
    norms = np.linalg.norm(result.eigenvectors, axis=1)
    assert np.abs(norms - 1).max() < 1e-10


def test_sweep_trace_conservation():
    rng = np.random.default_rng(99)
    for _ in range(40):
        n_p = int(rng.integers(1, 4))
        n_m = int(rng.integers(1, 4))
        modes = [ModeSpec(f"c{i}", "photon", float(rng.uniform(3, 9))) for i in range(n_p)]
        modes += [ModeSpec(f"m{i}", "magnon", float(rng.uniform(3, 9))) for i in range(n_m)]
        edges = [
            CouplingEdge(f"c{i}", f"m{j}", float(rng.uniform(20, 250)), float(rng.uniform(-PI, PI)))
            for i in range(n_p)
            for j in range(n_m)
            if rng.uniform() < 0.7
        ]
        system = SystemModel(
            tuple(modes), tuple(edges), frozenset(f"m{j}" for j in range(n_m))
        )
        grid = np.sort(rng.uniform(3.5, 8.5, size=5))
        if np.any(np.diff(grid) <= 0):
            continue
        result = sweep(system, grid)
        for k, omega_m in enumerate(grid):
            h = build_hamiltonian(system, float(omega_m)).entries
            trace = np.trace(h).real
            assert abs(result.branches[k].sum() - trace) <= 1e-10 * max(1.0, abs(trace))


def test_sweep_continuity():
    system = fit_device()
    grid = np.linspace(4.0, 7.0, 301)
    result = sweep(system, grid)
    step = grid[1] - grid[0]
    assert np.abs(np.diff(result.branches, axis=0)).max() <= step + 1e-9


def test_sweep_zero_couplings_gives_bare_lines():
    system = SystemModel(
        modes=(
            ModeSpec("c1", "photon", 4.5),
            ModeSpec("c2", "photon", 6.0),
            ModeSpec("m1", "magnon", 5.0),
        ),
        edges=(),
        magnon_sweep_target=frozenset({"m1"}),
    )
    grid = np.linspace(4.0, 6.5, 26)
    result = sweep(system, grid)
    for k, omega_m in enumerate(grid):
        want = np.sort([4.5, 6.0, omega_m])
        assert np.abs(result.branches[k] - want).max() < 1e-12


def test_sweep_asymptotes_fit_device():
    result = sweep(fit_device(), np.linspace(4.0, 7.0, 2))
    for k, omega_m in enumerate([4.0, 7.0]):
        asymptotes = np.sort([4.527, 6.19, omega_m, omega_m])
        assert np.abs(np.sort(result.branches[k]) - asymptotes).max() < 0.15


@pytest.mark.parametrize("grid", [[5.0, math.inf], [math.inf], [-math.inf, 5.0], [math.nan]])
def test_sweep_rejects_a_non_finite_grid(grid):
    with raises_exactly(ValueError, "omega_m_grid must be finite"):
        sweep(fit_device(), np.array(grid))
    with raises_exactly(ValueError, "omega_m_grid must be finite"):
        branch_frequencies(fit_device(), np.array(grid))


def test_pi0_has_five_branches_and_matches_oracle():
    system = preset("cavity-pi0-table2")
    grid = np.linspace(6.85, 7.40, 10)
    result = sweep(system, grid)
    assert result.branches.shape[1] == 5
    checked = 0
    for k, omega_m in enumerate(grid):
        h = build_hamiltonian(system, float(omega_m)).entries
        try:
            want = char_poly_eigenvalues(h)
        except OracleError:
            continue
        assert np.abs(result.branches[k] - want).max() < 1e-9
        checked += 1
    assert checked >= 7


def test_degenerate_cluster_weight_is_basis_free():
    # one uncoupled photon sits exactly on the swept magnon line at 5.0
    system = SystemModel(
        modes=(
            ModeSpec("c1", "photon", 5.0),
            ModeSpec("m1", "magnon", 4.8),
            ModeSpec("m9", "magnon", 4.9),
        ),
        edges=(CouplingEdge("c1", "m9", 0.0, 0.0),),
        magnon_sweep_target=frozenset({"m1"}),
    )
    result = sweep(system, np.array([4.9, 5.0, 5.1]))
    row = result.branches[1]
    assert abs(row[1] - 5.0) < 1e-12 and abs(row[2] - 5.0) < 1e-12
    # photon + magnon eigenspace: cluster-averaged photon weight 1/2 each
    assert abs(result.photon_weights[1, 1] - 0.5) < 1e-12
    assert abs(result.photon_weights[1, 2] - 0.5) < 1e-12
    # away from the degeneracy the weights are crisp 0 / 1
    assert abs(result.photon_weights[0, 1] - 0.0) < 1e-12
    assert abs(result.photon_weights[0, 2] - 1.0) < 1e-12


def per_row_cluster_weights(result):
    """Photon weights averaged over degenerate clusters, one row at a time."""
    weights = (np.abs(result.eigenvectors[:, result.photon_indices, :]) ** 2).sum(axis=1)
    for row in range(result.omega_m_grid.size):
        cuts = np.nonzero(np.diff(result.branches[row]) >= DEGENERACY_CLUSTER_GHZ)[0] + 1
        for segment in np.split(np.arange(result.branches.shape[1]), cuts):
            if segment.size > 1:
                weights[row, segment] = weights[row, segment].mean()
    return weights


def three_fold_device():
    # c1 and m9 are degenerate at 5.0 on every row; the uncoupled swept m1
    # joins them only where omega_m is 5.0; c2 and m8 hybridize
    return SystemModel(
        modes=(
            ModeSpec("c1", "photon", 5.0),
            ModeSpec("c2", "photon", 6.0),
            ModeSpec("m1", "magnon", 4.0),
            ModeSpec("m8", "magnon", 6.1),
            ModeSpec("m9", "magnon", 5.0),
        ),
        edges=(
            CouplingEdge("c1", "m1", 0.0, 0.0),
            CouplingEdge("c1", "m9", 0.0, 0.0),
            CouplingEdge("c2", "m8", 80.0, 0.3),
        ),
        magnon_sweep_target=frozenset({"m1"}),
    )


@pytest.mark.parametrize(
    "system, grid",
    [
        (three_fold_device(), [4.5, 4.9, 5.0, 5.1, 6.05]),
        (star_device(8), np.linspace(4.8, 5.2, 41)),
        (preset("cavity-pi0-table2"), np.linspace(6.4, 9.0, 2001)),
    ],
)
def test_sweep_cluster_weights_equal_the_per_row_average(system, grid):
    result = sweep(system, np.array(grid))
    assert np.array_equal(result.photon_weights, per_row_cluster_weights(result))


def test_three_fold_device_has_a_three_fold_cluster_on_one_row_only():
    result = sweep(three_fold_device(), np.array([4.5, 4.9, 5.0, 5.1, 6.05]))
    close = np.diff(result.branches, axis=1) < DEGENERACY_CLUSTER_GHZ
    assert close.sum(axis=1).tolist() == [1, 1, 2, 1, 1]
    assert result.photon_weights[2, :3] == pytest.approx([1.0 / 3.0] * 3, abs=1e-12)


def test_modes_exactly_one_cluster_width_apart_are_not_one_cluster():
    # 2e-9 - 1e-9 is exactly 1e-9: the two bare lines keep their own weights
    system = SystemModel(
        modes=(ModeSpec("c1", "photon", 1e-9), ModeSpec("m1", "magnon", 5.0)),
        edges=(),
        magnon_sweep_target=frozenset({"m1"}),
    )
    result = sweep(system, np.array([2e-9]))
    assert np.diff(result.branches).tolist() == [[DEGENERACY_CLUSTER_GHZ]]
    assert result.photon_weights.tolist() == [[1.0, 0.0]]


# ====== branch_frequencies ======


def test_branch_frequencies_matches_sweep():
    system = fit_device()
    grid = np.linspace(4.2, 6.8, 37)
    freqs = branch_frequencies(system, grid)
    result = sweep(system, grid)
    assert np.array_equal(freqs, result.branches)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_branch_frequencies_matches_sweep_on_each_preset(name):
    system = preset(name)
    grid = preset_grid(name, "magnon_grid")
    assert np.array_equal(branch_frequencies(system, grid), sweep(system, grid).branches)


# ====== min_gap ======


PAD_GHZ = 1e-12  # min_gap's slack at the window ends


def grid_gaps(result):
    """|branch 1 - branch 0| at each grid point, in GHz."""
    return np.abs(result.branches[:, 1] - result.branches[:, 0])


def test_min_gap_single_pair_closed_form():
    system = single_pair_system(81.0, 0.0, 4.56)
    grid = np.linspace(4.0, 7.0, 299)  # 4.56 is not a grid point
    result = sweep(system, grid)
    report = min_gap(result, 0, 1, (4.0, 7.0), system=system)
    assert isinstance(report, GapReport)
    assert abs(report.min_gap_mhz - 162.0) < 1e-3
    assert abs(report.omega_m_at_min - 4.56) < 1e-4
    assert not report.is_crossing
    coarse = min_gap(result, 0, 1, (4.0, 7.0))
    assert abs(coarse.min_gap_mhz - 162.0) < 0.05


def test_min_gap_fit_device_middle_branches():
    system = fit_device()
    grid = np.linspace(4.0, 7.0, 601)
    result = sweep(system, grid)
    report = min_gap(result, 1, 2, (5.1, 5.62), system=system)
    assert 45.0 < report.min_gap_mhz < 50.0
    assert 5.15 < report.omega_m_at_min < 5.25
    assert not report.is_crossing


def test_min_gap_theta_zero_crossing():
    system = fit_device((0.0, 0.0, 0.0, 0.0))
    grid = np.linspace(4.0, 7.0, 601)
    result = sweep(system, grid)
    report = min_gap(result, 1, 2, (4.7, 6.0), system=system)
    assert report.min_gap_mhz < 0.1
    assert report.is_crossing
    assert 4.9 < report.omega_m_at_min < 5.2


def test_min_gap_threshold_flips_flag():
    system = fit_device()
    result = sweep(system, np.linspace(5.0, 5.7, 141))
    strict = min_gap(result, 1, 2, (5.1, 5.62), crossing_threshold_ghz=0.080)
    assert strict.is_crossing  # 47 MHz sits below an 80 MHz threshold
    loose = min_gap(result, 1, 2, (5.1, 5.62), crossing_threshold_ghz=0.001)
    assert not loose.is_crossing


def test_min_gap_rejects_an_empty_window():
    result = sweep(fit_device(), np.linspace(4.5, 6.5, 21))
    for window in ((5.5, 5.5), (6.0, 5.0)):
        with raises_exactly(ValueError, "window is empty"):
            min_gap(result, 0, 1, window)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_min_gap_rejects_a_non_finite_threshold_after_the_branch_and_window_checks(threshold):
    result = sweep(fit_device(), preset_grid("cavity-pi-fit", "magnon_grid"))
    with raises_exactly(ValueError, "crossing_threshold_ghz must be finite"):
        min_gap(result, 1, 2, (5.1, 5.6), crossing_threshold_ghz=threshold)
    with raises_exactly(ValueError, "branch index 4 out of range"):
        min_gap(result, 1, 4, (5.1, 5.6), crossing_threshold_ghz=threshold)
    with raises_exactly(ValueError, "window contains no grid points"):
        min_gap(result, 1, 2, (5.101, 5.102), crossing_threshold_ghz=threshold)


def test_min_gap_accepts_a_window_out_to_the_grid_ends_plus_the_pad():
    grid = np.linspace(5.0, 6.0, 5)
    result = sweep(single_pair_system(81.0, 0.0, 4.0), grid)
    report = min_gap(result, 0, 1, (grid[0] - PAD_GHZ, grid[-1] + PAD_GHZ))
    assert report.omega_m_at_min == grid[0]
    for window in ((np.nextafter(grid[0] - PAD_GHZ, 0.0), 6.0),
                   (5.0, np.nextafter(grid[-1] + PAD_GHZ, 7.0))):
        with raises_exactly(ValueError, "window extends beyond the sweep grid"):
            min_gap(result, 0, 1, window)


@pytest.mark.parametrize("omega_c, end", [(4.0, 0), (7.0, -1)], ids=["first", "last"])
def test_min_gap_counts_grid_points_exactly_one_pad_outside_the_window(omega_c, end):
    lo, hi = 5.0, 6.0
    grid = np.array([lo - PAD_GHZ, 5.25, 5.5, 5.75, hi + PAD_GHZ])
    assert grid[0] + PAD_GHZ == lo and grid[-1] - PAD_GHZ == hi
    result = sweep(single_pair_system(81.0, 0.0, omega_c), grid)
    report = min_gap(result, 0, 1, (lo, hi))
    # the gap is narrowest at that end point, which has no neighbour past it
    assert report.omega_m_at_min == grid[end]
    assert report.min_gap_mhz == grid_gaps(result)[end] * 1e3


@pytest.mark.parametrize("grid, end", [(np.linspace(4.557, 4.657, 11), 0),
                                       (np.linspace(4.463, 4.563, 11), -1)],
                         ids=["first", "last"])
def test_min_gap_at_a_window_end_refines_only_into_the_window(grid, end):
    # the gap's true minimum lies 3 MHz inside the end point
    system = single_pair_system(81.0, 0.0, 4.56)
    result = sweep(system, grid)
    gaps = grid_gaps(result)
    assert int(np.argmin(gaps)) == end % grid.size
    coarse = min_gap(result, 0, 1, (grid[0], grid[-1]), crossing_threshold_ghz=gaps[end])
    assert (coarse.omega_m_at_min, coarse.min_gap_mhz) == (grid[end], gaps[end] * 1e3)
    assert not coarse.is_crossing  # the threshold equals the gap: not below it
    above = min_gap(result, 0, 1, (grid[0], grid[-1]),
                    crossing_threshold_ghz=np.nextafter(gaps[end], 1.0))
    assert above.is_crossing
    exact = min_gap(result, 0, 1, (grid[0], grid[-1]), system=system)
    inner = grid[1] if end == 0 else grid[-2]
    assert min(grid[end], inner) < exact.omega_m_at_min < max(grid[end], inner)
    assert abs(exact.omega_m_at_min - 4.56) < 1e-5
    assert abs(exact.min_gap_mhz - 162.0) < 1e-6


def test_min_gap_without_a_system_takes_the_vertex_of_the_parabola_through_three_gaps():
    grid = np.linspace(4.0, 7.0, 299)
    result = sweep(single_pair_system(81.0, 0.0, 4.56), grid)
    gaps = grid_gaps(result)
    k = int(np.argmin(gaps))
    (x0, x1, x2), (y0, y1, y2) = grid[k - 1:k + 2], gaps[k - 1:k + 2]
    # Lagrange form, independent of spectrum.parabola_vertex's Newton form
    a = y0 / ((x0 - x1) * (x0 - x2)) + y1 / ((x1 - x0) * (x1 - x2)) + y2 / ((x2 - x0) * (x2 - x1))
    b = (-y0 * (x1 + x2) / ((x0 - x1) * (x0 - x2)) - y1 * (x0 + x2) / ((x1 - x0) * (x1 - x2))
         - y2 * (x0 + x1) / ((x2 - x0) * (x2 - x1)))
    vertex = -b / (2 * a)
    value = y1 + (vertex - x1) * (b + a * (vertex + x1))
    report = min_gap(result, 0, 1, (4.0, 7.0))
    assert abs(report.omega_m_at_min - vertex) < 1e-9
    assert abs(report.min_gap_mhz - value * 1e3) < 1e-6
    # the refinement moves the gap by far more than that tolerance
    assert gaps[k] * 1e3 - report.min_gap_mhz > 0.01


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_min_gap_refinement_reaches_a_fine_scan_of_its_bracket(name):
    system = preset(name)
    grid = preset_grid(name, "magnon_grid")
    result = sweep(system, grid)
    for a in range(result.branches.shape[1] - 1):
        gaps = np.abs(result.branches[:, a + 1] - result.branches[:, a])
        k = int(np.argmin(gaps))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
        rows = branch_frequencies(system, np.linspace(lo, hi, round((hi - lo) / 1e-5) + 1))
        scan_mhz = float(np.abs(rows[:, a + 1] - rows[:, a]).min()) * 1e3
        report = min_gap(result, a, a + 1, (grid[0], grid[-1]), system=system)
        assert report.min_gap_mhz <= scan_mhz + 1e-6, (a, report, scan_mhz)
        assert report.min_gap_mhz <= gaps[k] * 1e3, (a, report)
        assert lo <= report.omega_m_at_min <= hi


# ====== resonant_gap ======


def test_resonant_gap_single_sphere():
    gap = resonant_gap(star_device(1), "c1")
    assert abs(gap - 240.0) < 240.0 * 1e-9


def test_resonant_gap_sqrt_n_law():
    for n in (1, 2, 3, 4):
        gap = resonant_gap(star_device(n), "c1")
        want = 2.0 * math.sqrt(n) * 120.0
        assert abs(gap - want) <= want * 1e-6


def test_resonant_gap_detuned_second_photon_within_one_percent():
    system = star_device(2, extra_photon_offset=10 * 0.120)
    gap = resonant_gap(system, "c1")
    want = 2.0 * math.sqrt(2) * 120.0
    assert abs(gap - want) <= want * 0.01


def test_resonant_gap_fit_device_exact_block():
    # theta = pi makes the symmetric magnon pair couple only to c2, so the
    # detuned-mode correction vanishes identically for this preset
    gap = resonant_gap(fit_device(), "c2")
    want = 2.0 * math.sqrt(2) * 120.0
    assert abs(gap - want) <= want * 1e-9
    assert abs(gap - want) <= want * 0.05


def test_resonant_gap_table1_device_exact_block():
    gap = resonant_gap(table1_device(), "c2")
    want = 2.0 * math.sqrt(2) * 207.0
    assert abs(gap - want) <= want * 1e-9


def test_resonant_gap_counts_an_eigenvalue_at_the_photon_frequency_as_below_it():
    bare = SystemModel(modes=(ModeSpec("c1", "photon", 5.0), ModeSpec("m1", "magnon", 6.0)),
                       edges=())
    assert np.linalg.eigvalsh(build_hamiltonian(bare, 5.0).entries).tolist() == [5.0, 6.0]
    assert resonant_gap(bare, "c1") == 1000.0


# ====== dark_mode_metric ======


def test_dark_mode_metric_antisymmetric_branch_zero():
    system = star_device(2, g_mhz=100.0)
    result = sweep(system, np.linspace(4.5, 5.5, 41))
    # the antisymmetric magnon pair stays at omega_m between the polaritons
    assert dark_mode_metric(result, 1) < 1e-13


def test_dark_mode_metric_fit_device_not_dark():
    result = sweep(fit_device(), np.linspace(4.0, 7.0, 301))
    assert dark_mode_metric(result, 1) > 1e-3
    assert dark_mode_metric(result, 2) > 1e-3


def test_dark_mode_metric_pi0_crossing_branch():
    result = sweep(preset("cavity-pi0-table2"), np.linspace(7.58, 8.60, 205))
    floor = min(dark_mode_metric(result, b) for b in range(1, 4))
    assert 5e-3 < floor < 2e-2


@pytest.mark.parametrize("bad", [True, False, 1.5, 2.0, np.float64(1.0), np.bool_(True), "1", None])
def test_branch_indices_must_be_integers_before_the_range_check(bad):
    result = sweep(fit_device(), preset_grid("cavity-pi-fit", "magnon_grid"))
    got = repr(bad)
    with raises_exactly(ValueError, "branch_a: expected an integer, got " + got):
        min_gap(result, bad, 2, (5.1, 5.6))
    with raises_exactly(ValueError, "branch_b: expected an integer, got " + got):
        min_gap(result, 1, bad, (5.1, 5.6))
    with raises_exactly(ValueError, "branch: expected an integer, got " + got):
        dark_mode_metric(result, bad)
    # numpy integers are integers, and a range fault keeps its message
    assert min_gap(result, np.int64(1), np.int32(2), (5.1, 5.6)) == min_gap(result, 1, 2, (5.1, 5.6))
    assert dark_mode_metric(result, np.int64(1)) == dark_mode_metric(result, 1)
    with raises_exactly(ValueError, "branch index 4 out of range"):
        min_gap(result, np.int64(4), 2, (5.1, 5.6))
    with raises_exactly(ValueError, "branch index -1 out of range"):
        dark_mode_metric(result, np.int8(-1))


# ====== theta signature property ======


def test_theta_signature_template():
    def template(theta):
        return SystemModel(
            modes=(
                ModeSpec("c1", "photon", 5.0),
                ModeSpec("c2", "photon", 6.6),
                ModeSpec("m1", "magnon", 5.8),
                ModeSpec("m2", "magnon", 5.8),
            ),
            edges=(
                CouplingEdge("c1", "m1", 100.0, 0.0),
                CouplingEdge("c1", "m2", 100.0, 0.0),
                CouplingEdge("c2", "m1", 100.0, 0.0),
                CouplingEdge("c2", "m2", 100.0, theta),
            ),
            magnon_sweep_target=frozenset({"m1", "m2"}),
        )

    grid = np.linspace(4.4, 7.2, 281)
    window = (5.2, 6.4)
    anticross = min_gap(sweep(template(PI), grid), 1, 2, window, system=template(PI))
    assert not anticross.is_crossing
    assert anticross.min_gap_mhz > 1.0
    cross = min_gap(sweep(template(0.0), grid), 1, 2, window, system=template(0.0))
    assert cross.is_crossing
    assert cross.min_gap_mhz < 0.1


# ====== CSV emission ======


def test_sweep_csv_format():
    system = SystemModel(
        modes=(ModeSpec("c1", "photon", 4.5), ModeSpec("m1", "magnon", 5.0)),
        edges=(CouplingEdge("c1", "m1", 100.0, 0.0),),
        magnon_sweep_target=frozenset({"m1"}),
    )
    result = sweep(system, np.array([4.4, 4.5]))
    text = sweep_to_csv(result)
    lines = text.strip().split("\n")
    assert lines[0] == "omega_m_ghz,branch_0_ghz,branch_1_ghz,pweight_0,pweight_1"
    assert lines[2] == "4.5,4.4,4.6,0.5,0.5"
    split = math.sqrt(0.05**2 + 0.1**2)
    lower, upper = 4.45 - split, 4.45 + split
    w_low = 0.1**2 / ((lower - 4.5) ** 2 + 0.1**2)
    cells = [
        f"{v:.9g}" for v in (4.4, lower, upper, w_low, 1 - w_low)
    ]
    assert lines[1] == ",".join(cells)
    assert sweep_to_csv(result) == text  # deterministic


def test_sweep_csv_uses_nine_significant_digits():
    system = fit_device()
    result = sweep(system, np.array([4.987654321, 5.123456789]))
    lines = sweep_to_csv(result).strip().split("\n")
    assert lines[1].startswith("4.98765432,")
    assert lines[2].startswith("5.12345679,")


def template_sweep_csv(result):
    """The sweep CSV as one '%.9g' row template filled with every value by Python's %."""
    n = result.branches.shape[1]
    header = ["omega_m_ghz"] + [f"branch_{k}_ghz" for k in range(n)]
    header += [f"pweight_{k}" for k in range(n)]
    table = np.column_stack([result.omega_m_grid, result.branches, result.photon_weights])
    row = ",".join(["%.9g"] * table.shape[1]) + "\n"
    return ",".join(header) + "\n" + (row * table.shape[0]) % tuple(table.ravel().tolist())


def test_sweep_csv_equals_the_template_writer_on_a_preset_at_bench_size():
    name = "cavity-pi0-table2"
    result = sweep(preset(name), preset_grid(name, "magnon_grid", 2001))
    assert sweep_to_csv(result).split("\n") == template_sweep_csv(result).split("\n")


def test_sweep_csv_equals_the_template_writer_on_python_formatted_weights():
    # a weakly coupled, detuned magnon has photon weights far below 1e-4 (exponent form),
    # and an uncoupled one has weights of exactly 0 and 1
    system = SystemModel(
        modes=(ModeSpec("c1", "photon", 4.5), ModeSpec("m1", "magnon", 5.0),
               ModeSpec("m2", "magnon", 7.0)),
        edges=(CouplingEdge("c1", "m1", 0.01, 0.0),),
        magnon_sweep_target=frozenset({"m1"}),
    )
    result = sweep(system, np.linspace(5.0, 6.0, 101))
    weights = result.photon_weights
    assert np.any((weights > 0) & (weights < 1e-4)) and np.any(weights == 0.0)
    assert sweep_to_csv(result).split("\n") == template_sweep_csv(result).split("\n")


# ====== rejected calls ======


def fit_sweep():
    return sweep(fit_device(), np.linspace(4.5, 6.5, 21))


REJECTED = [
    pytest.param(lambda: eig_hermitian(np.array([[1.0, 0.5], [0.2, 1.0]], dtype=complex)),
                 ValueError, "matrix is not Hermitian within 1e-10 relative tolerance",
                 id="eig-not-hermitian"),
    *[pytest.param(lambda grid=grid, call=call: call(fit_device(), np.array(grid)), ValueError,
                   message, id="%s-%s" % (call.__name__, grid))
      for grid, message in [([], "omega_m_grid must be a non-empty 1-d array"),
                            ([5.0, 5.0], "omega_m_grid must be strictly increasing"),
                            ([5.0, 4.9], "omega_m_grid must be strictly increasing"),
                            ([0.0, 5.0], "omega_m must be > 0 GHz"),
                            ([-1.0, 5.0], "omega_m must be > 0 GHz")]
      for call in (sweep, branch_frequencies)],
    *[pytest.param(lambda args=args: min_gap(fit_sweep(), *args), ValueError, message, id=name)
      for name, args, message in [
          ("min-gap-window-beyond-grid", (0, 1, (6.6, 7.0)), "window extends beyond the sweep grid"),
          ("min-gap-window-between-points", (0, 1, (5.21, 5.22)),
           "window contains no grid points"),
          ("min-gap-branch-out-of-range", (0, 9, (4.5, 6.5)), "branch index 9 out of range"),
          ("min-gap-same-branch", (2, 2, (4.5, 6.5)), "branch indices must differ")]],
    pytest.param(lambda: resonant_gap(SystemModel((ModeSpec("c1", "photon", 5.0),), ()), "c1"),
                 ValueError, "no polariton pair straddles the photon frequency",
                 id="resonant-gap-lone-photon"),
    pytest.param(lambda: resonant_gap(star_device(2), "c9"), ValueError,
                 "unknown mode label 'c9'", id="resonant-gap-unknown-label"),
    pytest.param(lambda: resonant_gap(star_device(2), "m1"), ValueError,
                 "mode 'm1' is not a photon", id="resonant-gap-magnon"),
    pytest.param(lambda: dark_mode_metric(sweep(star_device(1), np.linspace(4.5, 5.5, 5)), 2),
                 ValueError, "branch index 2 out of range", id="dark-mode-branch-out-of-range"),
]

test_rejected_calls = rejected_calls(REJECTED)
