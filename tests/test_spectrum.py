"""Tests for the eigensolver, sweeps, gap extraction, and dark-mode metrics."""

import math

import numpy as np
import pytest

from loopmag.model import CouplingEdge, ModeSpec, SystemModel, build_hamiltonian
from loopmag.spectrum import (
    GapReport,
    branch_frequencies,
    dark_mode_metric,
    eig_hermitian,
    min_gap,
    resonant_gap,
    sweep,
    sweep_to_csv,
)
from oracles import OracleError, char_poly_eigenvalues

PI = math.pi


def fit_device(theta=PI):
    return SystemModel(
        modes=(
            ModeSpec("c1", "photon", 4.527),
            ModeSpec("c2", "photon", 6.19),
            ModeSpec("m1", "magnon", 5.36),
            ModeSpec("m2", "magnon", 5.36),
        ),
        edges=(
            CouplingEdge("c1", "m1", 81.0, 0.0),
            CouplingEdge("c1", "m2", 81.0, theta),
            CouplingEdge("c2", "m1", 120.0, 0.0),
            CouplingEdge("c2", "m2", 120.0, 0.0),
        ),
        magnon_sweep_target=frozenset({"m1", "m2"}),
    )


def table1_device():
    return SystemModel(
        modes=(
            ModeSpec("c1", "photon", 4.524),
            ModeSpec("c2", "photon", 6.378),
            ModeSpec("m1", "magnon", 5.36),
            ModeSpec("m2", "magnon", 5.36),
        ),
        edges=(
            CouplingEdge("c1", "m1", 139.0, -PI / 2),
            CouplingEdge("c1", "m2", 139.0, -PI / 2),
            CouplingEdge("c2", "m1", 207.0, PI / 2),
            CouplingEdge("c2", "m2", 207.0, -PI / 2),
        ),
        magnon_sweep_target=frozenset({"m1", "m2"}),
    )


def pi0_device():
    phases = {"c1": (-PI / 2, -PI / 2), "c2": (PI / 2, -PI / 2), "c3": (PI / 2, -PI / 2)}
    strengths = {"c1": 130.0, "c2": 150.0, "c3": 104.0}
    freqs = {"c1": 6.594, "c2": 7.562, "c3": 8.619}
    modes = tuple(ModeSpec(c, "photon", freqs[c]) for c in ("c1", "c2", "c3")) + (
        ModeSpec("m1", "magnon", 7.5),
        ModeSpec("m2", "magnon", 7.5),
    )
    edges = tuple(
        CouplingEdge(c, m, strengths[c], phases[c][k])
        for c in ("c1", "c2", "c3")
        for k, m in enumerate(("m1", "m2"))
    )
    return SystemModel(modes, edges, frozenset({"m1", "m2"}))


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


def test_rejects_non_hermitian():
    bad = np.array([[1.0, 0.5], [0.2, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        eig_hermitian(bad)


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


def test_sweep_validates_grid():
    system = fit_device()
    with pytest.raises(ValueError):
        sweep(system, np.array([]))
    with pytest.raises(ValueError):
        sweep(system, np.array([5.0, 5.0]))
    with pytest.raises(ValueError):
        sweep(system, np.array([5.0, 4.9]))


def test_sweep_rejects_a_non_positive_grid_at_the_first_point():
    for grid in ([0.0, 5.0], [-1.0, 5.0]):
        with pytest.raises(ValueError, match="^omega_m must be > 0 GHz$"):
            sweep(fit_device(), np.array(grid))
        with pytest.raises(ValueError, match="^omega_m must be > 0 GHz$"):
            branch_frequencies(fit_device(), np.array(grid))


def test_pi0_has_five_branches_and_matches_oracle():
    system = pi0_device()
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


# ====== branch_frequencies ======


def test_branch_frequencies_matches_sweep():
    system = fit_device()
    grid = np.linspace(4.2, 6.8, 37)
    freqs = branch_frequencies(system, grid)
    result = sweep(system, grid)
    assert np.array_equal(freqs, result.branches)


# ====== min_gap ======


def test_min_gap_single_pair_closed_form():
    system = SystemModel(
        modes=(ModeSpec("c1", "photon", 4.56), ModeSpec("m1", "magnon", 5.0)),
        edges=(CouplingEdge("c1", "m1", 81.0, 0.0),),
        magnon_sweep_target=frozenset({"m1"}),
    )
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
    system = fit_device(theta=0.0)
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


def test_min_gap_validates_window_and_branches():
    system = fit_device()
    result = sweep(system, np.linspace(4.5, 6.5, 21))
    with pytest.raises(ValueError):
        min_gap(result, 0, 1, (6.6, 7.0))
    with pytest.raises(ValueError):
        min_gap(result, 0, 1, (5.21, 5.22))  # no grid point inside
    with pytest.raises(ValueError):
        min_gap(result, 0, 9, (4.5, 6.5))
    with pytest.raises(ValueError):
        min_gap(result, 2, 2, (4.5, 6.5))


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


def test_resonant_gap_validates_label():
    system = star_device(2)
    with pytest.raises(ValueError):
        resonant_gap(system, "c9")
    with pytest.raises(ValueError):
        resonant_gap(system, "m1")


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
    result = sweep(pi0_device(), np.linspace(7.58, 8.60, 205))
    floor = min(dark_mode_metric(result, b) for b in range(1, 4))
    assert 5e-3 < floor < 2e-2


def test_dark_mode_metric_validates_branch():
    result = sweep(star_device(1), np.linspace(4.5, 5.5, 5))
    with pytest.raises(ValueError):
        dark_mode_metric(result, 2)


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
