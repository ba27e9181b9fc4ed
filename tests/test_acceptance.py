"""Acceptance suite: one test per shipped-behavior criterion.

Each test carries its runtime budget and is summarized as a single line in
the terminal summary (see conftest).  The dark-branch invisibility criterion
is a documented expected failure; its test states the measured values.
"""

import math
import time

import numpy as np
import pytest

from loopmag.calibrate import FitSpec, PeakDataset, PeakRecord, fit
from loopmag.fieldmap import (
    DEFAULT_CONSTANTS,
    FieldTable,
    SphereRegion,
    coupling_phase,
    coupling_strength,
    coupling_table,
    filling_factor,
)
from loopmag.gauge import reduce_system
from loopmag.model import (
    CouplingEdge,
    ModeSpec,
    SystemModel,
    apply_vertex_phases,
    build_hamiltonian,
    fold_phase,
)
from loopmag.spectrum import (
    branch_frequencies,
    dark_mode_metric,
    eig_hermitian,
    min_gap,
    resonant_gap,
    sweep,
)
from loopmag.transmission import PortSpec, s21_at
from devices import component_count, fit_device, preset, preset_grid, random_system
from oracles import char_poly_eigenvalues
from synthfields import circulating_field, pi_device_posts, sphere_grid

# ====== helpers ======


def folded_thetas(system) -> list:
    return [fold_phase(p.theta) for p in reduce_system(system).physical_phases]


def assert_same_phase_multiset(first, second, tol=1e-9):
    assert len(first) == len(second)
    remaining = list(second)
    for value in first:
        dists = [abs(fold_phase(value - other)) for other in remaining]
        best = int(np.argmin(dists))
        assert dists[best] < tol
        remaining.pop(best)


def cycle_sum(system, photon_a, photon_b) -> float:
    """Loop phase of the cycle photon_a -> m1 -> photon_b -> m2 -> photon_a."""
    phase = {(e.photon, e.magnon): e.phase for e in system.edges}
    return fold_phase(
        phase[(photon_a, "m1")]
        - phase[(photon_b, "m1")]
        + phase[(photon_b, "m2")]
        - phase[(photon_a, "m2")]
    )


FIT_TRUTH = (4.527, 6.19, 0.081, 0.120)


def two_tone_fit_spec() -> FitSpec:
    return FitSpec(
        base_system=fit_device(),
        free_photon_frequencies=("c1", "c2"),
        free_couplings=("c1", "c2"),
        theta_hypotheses=((math.pi,), (0.0,)),
    )


def synthetic_peaks(system, grid, noise=None, rng=None) -> PeakDataset:
    table = branch_frequencies(system, grid)
    records = []
    for i, omega_m in enumerate(grid):
        for peak in table[i]:
            value = float(peak)
            if noise is not None:
                value += noise * rng.standard_normal()
            records.append(PeakRecord(float(omega_m), value))
    return PeakDataset(records=tuple(records))


# ====== criteria ======


def test_acceptance_01_two_sphere_loop_phase_is_pi():
    """two-sphere preset reduces to the single loop phase pi"""
    system = preset("cavity-pi-table1")
    start = time.perf_counter()
    thetas = folded_thetas(system)
    elapsed = time.perf_counter() - start
    assert len(thetas) == 1
    assert abs(fold_phase(thetas[0] - math.pi)) < 1e-9
    assert elapsed < 0.010


def test_acceptance_02_three_mode_preset_phase_set_is_pi_and_zero():
    """three-photon preset carries loop phases pi (c1,c2 cycle) and 0 (c3,c2 cycle)"""
    system = preset("cavity-pi0-table2")
    start = time.perf_counter()
    thetas = sorted(folded_thetas(system))
    theta_c1_c2 = cycle_sum(system, "c1", "c2")
    theta_c3_c2 = cycle_sum(system, "c3", "c2")
    elapsed = time.perf_counter() - start
    assert len(thetas) == 2
    assert abs(thetas[0]) < 1e-9
    assert abs(fold_phase(thetas[1] - math.pi)) < 1e-9
    assert abs(fold_phase(theta_c1_c2 - math.pi)) < 1e-9
    assert abs(theta_c3_c2) < 1e-9
    assert elapsed < 0.010


def test_acceptance_03_loop_count_and_gauge_invariance_on_random_devices():
    """random bipartite devices: loop count E-V+C, phases invariant under rotations"""
    rng = np.random.default_rng(930)
    start = time.perf_counter()
    for _ in range(200):
        system = random_system(rng, 3, 0.6)
        thetas = folded_thetas(system)
        pairs = [(e.photon, e.magnon) for e in system.edges]
        used = {v for pair in pairs for v in pair}
        expected = len(pairs) - len(used) + component_count(used, pairs)
        assert len(thetas) == expected
        rotations = {m.label: float(rng.uniform(-math.pi, math.pi)) for m in system.modes}
        rotated = apply_vertex_phases(system, rotations)
        assert_same_phase_multiset(thetas, folded_thetas(rotated), tol=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0


def test_acceptance_04_reduction_preserves_spectra():
    """gauge-reduced systems reproduce the original eigenvalues to 1e-12 relative"""
    start = time.perf_counter()
    for name in ("cavity-pi-table1", "cavity-pi0-table2"):
        system = preset(name)
        grid = preset_grid(name, "magnon_grid", 50)
        reduced = apply_vertex_phases(system, reduce_system(system).vertex_phases)
        original_vals = branch_frequencies(system, grid)
        reduced_vals = branch_frequencies(reduced, grid)
        scale = max(
            np.linalg.norm(build_hamiltonian(system, float(w)).entries) for w in grid
        )
        assert np.max(np.abs(original_vals - reduced_vals)) <= 1e-12 * scale
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0


def test_acceptance_05_collective_gap_scales_as_sqrt_n():
    """resonant gap grows as 2*sqrt(N)*g for N degenerate spheres"""
    start = time.perf_counter()
    for n in (1, 2, 3, 4):
        modes = [ModeSpec("c", "photon", 5.0)]
        modes += [ModeSpec("m%d" % k, "magnon", 5.0) for k in range(n)]
        edges = tuple(CouplingEdge("c", "m%d" % k, 120.0, 0.0) for k in range(n))
        system = SystemModel(
            modes=tuple(modes),
            edges=edges,
            magnon_sweep_target=frozenset("m%d" % k for k in range(n)),
        )
        gap = resonant_gap(system, "c")
        target = 2.0 * math.sqrt(n) * 120.0
        assert abs(gap - target) / target < 1e-6
    preset_gap = resonant_gap(preset("cavity-pi-fit"), "c2")
    target = 2.0 * math.sqrt(2.0) * 120.0
    assert abs(preset_gap - target) / target < 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0


def test_acceptance_06_middle_branches_avoid_crossing_only_for_loop_pi():
    """middle branches keep a finite gap at loop phase pi and cross at zero"""
    system = preset("cavity-pi-fit")
    grid = np.linspace(4.8, 5.8, 501)
    start = time.perf_counter()
    report_pi = min_gap(sweep(system, grid), 1, 2, (5.1, 5.62), system=system)
    zero_system = SystemModel(
        modes=system.modes,
        edges=tuple(
            CouplingEdge(e.photon, e.magnon, e.strength, 0.0) for e in system.edges
        ),
        magnon_sweep_target=system.magnon_sweep_target,
    )
    report_zero = min_gap(
        sweep(zero_system, grid), 1, 2, (4.8, 5.8), system=zero_system
    )
    elapsed = time.perf_counter() - start
    assert report_pi.min_gap_mhz > 1.0
    assert not report_pi.is_crossing
    assert report_zero.min_gap_mhz < 1.0
    assert report_zero.is_crossing
    assert elapsed < 2.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "documented limitation: between the second and third anticrossings the"
        " crossing branch's photon weight bottoms out near 9e-3, not below 1e-3,"
        " and transmission at its eigenfrequency sits ~0.3 dB off the bare"
        " background rather than within 0.1 dB"
    ),
)
def test_acceptance_07_crossing_branch_is_invisible_in_transmission():
    """crossing branch: photon weight < 1e-3 and transmission equal to background"""
    system = preset("cavity-pi0-table2")
    start = time.perf_counter()
    segment = np.linspace(7.7, 8.5, 161)
    result = sweep(system, segment)
    metrics = [dark_mode_metric(result, b) for b in range(result.branches.shape[1])]
    branch = int(np.argmin(metrics))
    weights = result.photon_weights[:, branch]
    at_min = int(np.argmin(weights))
    omega_m = float(result.omega_m_grid[at_min])
    eigenfrequency = float(result.branches[at_min, branch])
    ports = (PortSpec(1), PortSpec(2))
    with_magnons = 20.0 * math.log10(abs(s21_at(system, ports, eigenfrequency, omega_m)))
    bare = SystemModel(
        modes=tuple(m for m in system.modes if m.kind == "photon"),
        edges=(),
        magnon_sweep_target=frozenset(),
    )
    background = 20.0 * math.log10(abs(s21_at(bare, ports, eigenfrequency, omega_m)))
    elapsed = time.perf_counter() - start
    print(
        "measured: min photon weight %.3e at omega_m %.4f GHz; "
        "s21 %.3f dB vs background %.3f dB (offset %.3f dB)"
        % (weights[at_min], omega_m, with_magnons, background,
           abs(with_magnons - background))
    )
    assert elapsed < 5.0
    assert weights[at_min] < 1e-3
    assert abs(with_magnons - background) <= 0.1


def test_acceptance_08_eigensolver_matches_characteristic_polynomial_oracle():
    """eigensolver agrees with a characteristic-polynomial oracle to 1e-9"""
    rng = np.random.default_rng(808)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        raw = rng.normal(scale=10.0, size=(n, n)) + 1j * rng.normal(scale=10.0, size=(n, n))
        h = (raw + raw.conj().T) / 2.0
        values, _ = eig_hermitian(h)
        oracle = char_poly_eigenvalues(h)
        worst = max(worst, float(np.max(np.abs(values - oracle))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 30.0


def test_acceptance_09_coupling_strength_scaling_and_round_trip():
    """coupling strength is linear in eta, scales as sqrt(omega), and round-trips"""
    rng = np.random.default_rng(909)
    start = time.perf_counter()
    for _ in range(60):
        eta = float(rng.uniform(0.01, 5.0))
        omega = float(rng.uniform(1.0, 20.0))
        factor = float(rng.uniform(0.1, 10.0))
        base = coupling_strength(eta, omega)
        assert abs(coupling_strength(factor * eta, omega) - factor * base) <= (
            1e-12 * factor * base
        )
        assert abs(coupling_strength(eta, 4.0 * omega) - 2.0 * base) <= 1e-12 * 2.0 * base
    unit = coupling_strength(1.0, 4.524, DEFAULT_CONSTANTS)
    eta_star = 139.0 / unit
    assert abs(coupling_strength(eta_star, 4.524) - 139.0) <= 1e-9 * 139.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0


def test_acceptance_10_circulating_fields_realize_the_pi_device():
    """synthetic circulating fields reproduce the phase pattern and loop pi"""
    half_span = 0.01
    radius = 0.2 * half_span
    centers = ((half_span / 2, 0.0, 0.0), (-half_span / 2, 0.0, 0.0))
    regions = (
        SphereRegion(centers[0], radius, "m1"),
        SphereRegion(centers[1], radius, "m2"),
    )
    mode1_posts, mode2_posts = pi_device_posts(half_span)
    start = time.perf_counter()

    def table(posts, n):
        chunks = [sphere_grid(c, radius, n, n, n) for c in centers]
        positions = np.concatenate([p for p, _ in chunks])
        weights = np.concatenate([w for _, w in chunks])
        h = circulating_field(positions, posts).astype(np.complex128)
        return FieldTable(positions, h, weights)

    table1, table2 = table(mode1_posts, 12), table(mode2_posts, 12)
    phi_1_m1 = coupling_phase(table1, regions[0])
    phi_1_m2 = coupling_phase(table1, regions[1])
    phi_2_m1 = coupling_phase(table2, regions[0])
    phi_2_m2 = coupling_phase(table2, regions[1])
    assert abs(fold_phase(phi_1_m1 - phi_1_m2)) < 1e-6
    assert abs(abs(fold_phase(phi_2_m1 - phi_2_m2)) - math.pi) < 1e-6

    edges = coupling_table(
        {"c1": table1, "c2": table2},
        regions,
        {"c1": 4.524, "c2": 6.378},
    )
    system = SystemModel(
        modes=(
            ModeSpec("c1", "photon", 4.524),
            ModeSpec("c2", "photon", 6.378),
            ModeSpec("m1", "magnon", 5.0),
            ModeSpec("m2", "magnon", 5.0),
        ),
        edges=tuple(edges),
        magnon_sweep_target=frozenset({"m1", "m2"}),
    )
    thetas = folded_thetas(system)
    assert len(thetas) == 1
    assert abs(abs(thetas[0]) - math.pi) < 1e-6

    posts = [
        (1.3 * half_span, 0.2 * half_span, 1.0, 0.05 * half_span),
        (-0.7 * half_span, -0.4 * half_span, -0.6, 0.05 * half_span),
    ]
    etas, phis = [], []
    for n in (6, 12, 24):
        positions, weights = sphere_grid(centers[0], radius, n, n, n)
        h = circulating_field(positions, posts).astype(np.complex128)
        probe = FieldTable(positions, h, weights)
        etas.append(filling_factor(probe, regions[0]))
        phis.append(coupling_phase(probe, regions[0]))
    eta_order = math.log2(abs(etas[0] - etas[1]) / abs(etas[1] - etas[2]))
    phi_order = math.log2(abs(phis[0] - phis[1]) / abs(phis[1] - phis[2]))
    elapsed = time.perf_counter() - start
    assert eta_order >= 1.8
    assert phi_order >= 1.8
    assert elapsed < 10.0


def test_acceptance_11_fit_recovers_synthetic_devices():
    """fits recover synthetic truth exactly without noise and robustly with noise"""
    spec = two_tone_fit_spec()
    grid = np.linspace(4.3, 6.4, 16)
    start = time.perf_counter()

    clean = synthetic_peaks(fit_device(), grid)
    result = fit(spec, clean, (4.512, 6.205, 0.060, 0.100))
    assert result.theta_assignment == (math.pi,)
    for name, truth in zip(("omega_c:c1", "omega_c:c2", "g:c1", "g:c2"), FIT_TRUTH):
        assert abs(result.params[name] - truth) < 1e-4

    rng = np.random.default_rng(5150)
    recovered = 0
    for _ in range(100):
        noisy = synthetic_peaks(fit_device(), grid, noise=0.001, rng=rng)
        trial = fit(spec, noisy, (4.52, 6.195, 0.078, 0.118))
        errors = [
            abs(trial.params[name] - truth)
            for name, truth in zip(
                ("omega_c:c1", "omega_c:c2", "g:c1", "g:c2"), FIT_TRUTH
            )
        ]
        if trial.theta_assignment == (math.pi,) and max(errors) < 0.002:
            recovered += 1
    elapsed = time.perf_counter() - start
    assert recovered >= 95
    assert elapsed < 120.0
