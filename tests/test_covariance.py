"""Gauge covariance of the presets and of seeded random devices: a vertex rotation, or a
reordering of modes and edges, keeps every loop phase, and with it every physical result,
except S21 where a port drives two photons and so closes a loop of its own through them."""

import math

import numpy as np
import pytest

from loopmag.calibrate import FitSpec, PeakDataset, fit_spec_from_document, residual
from loopmag.cli import PRESETS
from loopmag.fieldmap import FieldTable, coupling_table, field_table_from_csv, regions_from_document
from loopmag.gauge import Cycle, build_graph, loop_phase, reduce_system
from loopmag.model import ModeSpec, SystemModel, apply_vertex_phases, fold_phase
from loopmag.spectrum import branch_frequencies, sweep
from loopmag.transmission import PortSpec, ports_from_document, s21_map
from devices import preset, preset_grid, random_system
from synthfields import pi_device_exports

ROTATIONS = 5
RANDOM_DEVICES = 20


def rotated(name) -> tuple:
    """The preset, and ROTATIONS copies under seeded random vertex phases on every mode."""
    base = preset(name)
    rng = np.random.default_rng(list(PRESETS).index(name))
    return base, [apply_vertex_phases(base, {m.label: float(rng.uniform(-math.pi, math.pi))
                                             for m in base.modes})
                  for _ in range(ROTATIONS)]


def preset_map(system, name, ports) -> np.ndarray:
    """magnitude_db of s21_map at the preset's probe and magnon grids."""
    return s21_map(system, ports, preset_grid(name, "probe_grid"),
                   preset_grid(name, "magnon_grid")).magnitude_db


def assert_same_loop_phases(system, reference):
    phases, expected = reduce_system(system).physical_phases, reduce_system(reference).physical_phases
    assert [p.cycle for p in phases] == [p.cycle for p in expected]
    for phase, want in zip(phases, expected):
        assert abs(fold_phase(phase.theta - want.theta)) <= 1e-12


@pytest.mark.parametrize("name", list(PRESETS))
def test_vertex_rotations_keep_every_loop_phase(name):
    base, systems = rotated(name)
    for system in systems:
        assert_same_loop_phases(system, base)


@pytest.mark.parametrize("name", list(PRESETS))
def test_vertex_rotations_keep_sweep_branches_and_photon_weights(name):
    base, systems = rotated(name)
    grid = preset_grid(name, "magnon_grid")
    reference = sweep(base, grid)
    for system in systems:
        result = sweep(system, grid)
        assert np.all(np.abs(result.branches - reference.branches)
                      <= 1e-12 * np.abs(reference.branches))
        assert np.max(np.abs(result.photon_weights - reference.photon_weights)) <= 1e-9


def test_vertex_rotations_keep_the_fit_residual():
    base, systems = rotated("cavity-pi-fit")
    omega_m = preset_grid("cavity-pi-fit", "magnon_grid")[::8]
    data = PeakDataset([(w, peak) for w, row in zip(omega_m, branch_frequencies(base, omega_m))
                        for peak in row])
    document = {"free_photon_frequencies": ["c1", "c2"], "free_couplings": ["c1", "c2"],
                "theta_hypotheses": [["pi"], [0]], "initial": [4.52, 6.195, 0.078, 0.118]}

    def residuals(system):
        spec, initial, _ = fit_spec_from_document(document, system)
        return np.array([residual(spec, initial, thetas, data) for thetas in ((math.pi,), (0.0,))])

    reference = residuals(base)
    assert np.all(reference > 0)
    for system in systems:
        assert np.all(np.abs(residuals(system) - reference) <= 1e-9 * reference)


@pytest.mark.parametrize("name", list(PRESETS))
def test_s21_keeps_its_map_under_the_reductions_own_vertex_phases(name):
    # the reduction rotates photons only by 0 or pi together here, which keeps every port loop
    base = preset(name)
    ports = ports_from_document(None, base)
    reduced = apply_vertex_phases(base, reduce_system(base).vertex_phases)
    moved = np.abs(preset_map(reduced, name, ports) - preset_map(base, name, ports))
    assert moved.max() <= 1e-9


@pytest.mark.parametrize("name", list(PRESETS))
def test_s21_keeps_its_map_under_rotations_when_both_ports_drive_one_photon(name):
    base, systems = rotated(name)
    ports = (PortSpec(1, {"c2": 5.0}), PortSpec(2, {"c2": 5.0}))
    reference = preset_map(base, name, ports)
    for system in systems:
        assert np.max(np.abs(preset_map(system, name, ports) - reference)) <= 1e-9


def test_s21_depends_on_the_port_loop_that_default_ports_close():
    # default ports drive c1, c2 and c3 with a real sqrt(kappa): a loop through the port
    # and two photons, whose phase a rotation of c3 alone changes and no loop phase sees
    name = "cavity-pi0-table2"
    base = preset(name)
    flipped = apply_vertex_phases(base, {"c3": math.pi})
    assert_same_loop_phases(flipped, base)
    ports = ports_from_document(None, base)
    moved = np.abs(preset_map(flipped, name, ports) - preset_map(base, name, ports))
    assert moved.size == 261 * 131
    assert np.count_nonzero(moved > 1.0) > 20_000
    assert moved.max() > 40.0


def export_loop_phase(tables, regions, frequencies) -> float:
    """The one loop phase of the device that coupling_table's edges describe."""
    modes = [ModeSpec(label, "photon", f) for label, f in frequencies.items()]
    modes += [ModeSpec(region.label, "magnon", 5.45) for region in regions]
    edges = coupling_table(tables, regions, frequencies)
    (phase,) = reduce_system(SystemModel(tuple(modes), tuple(edges))).physical_phases
    return phase.theta


@pytest.mark.parametrize("psi", [0.7, -2.1, math.pi / 2])
@pytest.mark.parametrize("mode", ["c1", "c2"])
def test_a_global_phase_on_one_field_export_keeps_the_loop_phase(mode, psi):
    texts, config = pi_device_exports(6)
    regions, frequencies = regions_from_document(config)
    tables = {label: field_table_from_csv(text) for label, text in texts.items()}
    reference = export_loop_phase(tables, regions, frequencies)
    assert abs(abs(reference) - math.pi) <= 1e-9
    table = tables[mode]
    tables[mode] = FieldTable(table.positions, np.exp(1j * psi) * table.h, table.weights)
    theta = export_loop_phase(tables, regions, frequencies)
    assert abs(fold_phase(theta - reference)) <= 1e-12


# ====== seeded random devices, rotated and reordered ======


def transformed(system, rng) -> tuple:
    """system under random vertex phases, with its modes and edges in a random order, and
    each new edge's index in system."""
    rotated = apply_vertex_phases(system, {m.label: float(rng.uniform(-math.pi, math.pi))
                                           for m in system.modes})
    order = rng.permutation(len(system.edges))
    modes = [system.modes[k] for k in rng.permutation(len(system.modes))]
    edges = [rotated.edges[k] for k in order]
    return SystemModel(tuple(modes), tuple(edges), system.magnon_sweep_target), order


def random_devices():
    """RANDOM_DEVICES seeded random devices, each with one transformed copy."""
    rng = np.random.default_rng(2023)
    for _ in range(RANDOM_DEVICES):
        system = random_system(rng, 4, 0.55)
        yield system, *transformed(system, rng)


def test_random_devices_keep_the_loop_phases_on_the_same_vertex_walks():
    loops = 0
    for system, moved, order in random_devices():
        new_index = np.argsort(order)
        graph = build_graph(moved)
        for phase in reduce_system(system).physical_phases:
            cycle = phase.cycle
            edges = tuple((int(new_index[k]), sign) for k, sign in cycle.edges)
            walk = Cycle(cycle.vertices, edges, int(new_index[cycle.chord]))
            assert abs(fold_phase(loop_phase(walk, graph) - phase.theta)) <= 1e-12
            loops += 1
    assert loops >= 10


def isolated(branches, gap_ghz=1e-6) -> np.ndarray:
    """Where a branch lies at least gap_ghz from both neighbours: outside any degeneracy cluster."""
    gaps = np.diff(branches, axis=1)
    wide = np.full((branches.shape[0], 1), np.inf)
    return np.minimum(np.hstack([wide, gaps]), np.hstack([gaps, wide])) >= gap_ghz


def test_random_devices_keep_sweep_branches_and_photon_weights():
    grid = np.linspace(3.0, 9.0, 61)
    compared = 0
    for system, moved, _ in random_devices():
        reference, result = sweep(system, grid), sweep(moved, grid)
        assert np.all(np.abs(result.branches - reference.branches)
                      <= 1e-12 * np.abs(reference.branches))
        mask = isolated(reference.branches)
        assert np.max(np.abs(result.photon_weights - reference.photon_weights)[mask]) <= 1e-9
        compared += np.count_nonzero(mask)
    assert compared > RANDOM_DEVICES * grid.size


def test_random_devices_keep_the_fit_residual_at_their_own_loop_phases():
    omega_m = np.linspace(3.5, 8.5, 11)
    for system, moved, _ in random_devices():
        photons = system.photon_labels()
        coupled = tuple(label for label in photons if any(e.photon == label for e in system.edges))
        table = branch_frequencies(system, omega_m)
        data = PeakDataset([(w, peak) for w, row in zip(omega_m, table) for peak in row])
        params = [m.frequency + 0.05 for m in system.modes if m.kind == "photon"]
        params += [0.1] * len(coupled)

        def at_own_loop_phases(device):
            thetas = tuple(p.theta for p in reduce_system(device).physical_phases)
            spec = FitSpec(device, photons, coupled, (thetas,))
            return residual(spec, params, thetas, data)

        reference = at_own_loop_phases(system)
        assert reference > 0
        assert abs(at_own_loop_phases(moved) - reference) <= 1e-9 * reference
