"""Tests for the input-output transmission model: S21 maps, line cuts, peaks."""

import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from loopmag import transmission
from loopmag.cli import PRESETS
from loopmag.fieldmap import field_table_from_csv
from loopmag.model import (
    BLOCK_VALUES,
    MAX_FREQUENCY_GHZ,
    MAX_RATE_MHZ,
    MAX_STACK_ENTRIES,
    CouplingEdge,
    ModeSpec,
    SystemModel,
    apply_vertex_phases,
    build_hamiltonian,
    csv_rows,
    hamiltonians,
    system_from_document,
)
from loopmag.spectrum import eig_hermitian
from loopmag.transmission import (
    DEFAULT_MAGNON_LOSS_MHZ,
    DEFAULT_PHOTON_LOSS_MHZ,
    MAX_MAP_POINTS,
    RESIDUE_COND_LIMIT,
    S21_FLOOR,
    PortSpec,
    TransmissionMap,
    _local_maxima,
    _loss_model,
    check_map,
    extract_peaks,
    line_cut_csv,
    map_to_csv,
    s21_at,
    s21_map,
)
from devices import chain_document, fit_device, preset, preset_grid, table1_device
from synthfields import pi_device_exports

PI = math.pi
# s21_map (eigenmode residues) against the per-point solve, in dB
MAP_TOLERANCE_DB = 1e-9


def single_photon(kappa_int=5.0):
    return SystemModel(
        modes=(ModeSpec("c", "photon", 5.0, intrinsic_loss=kappa_int),),
        edges=(),
        magnon_sweep_target=frozenset(),
    )


def symmetric_ports(rate_mhz=5.0, label="c"):
    return (PortSpec(1, {label: rate_mhz}), PortSpec(2, {label: rate_mhz}))


def random_loop_system(rng, phase_pool):
    """Two photons, two magnons, all four edges present, explicit losses."""
    modes = (
        ModeSpec("c1", "photon", float(rng.uniform(4.0, 5.0)), intrinsic_loss=float(rng.uniform(2.0, 8.0))),
        ModeSpec("c2", "photon", float(rng.uniform(6.0, 7.0)), intrinsic_loss=float(rng.uniform(2.0, 8.0))),
        ModeSpec("m1", "magnon", float(rng.uniform(5.0, 5.8)), intrinsic_loss=float(rng.uniform(1.0, 6.0))),
        ModeSpec("m2", "magnon", float(rng.uniform(5.0, 5.8)), intrinsic_loss=float(rng.uniform(1.0, 6.0))),
    )
    edges = tuple(
        CouplingEdge(c, m, float(rng.uniform(30.0, 200.0)), float(rng.choice(phase_pool)))
        for c in ("c1", "c2")
        for m in ("m1", "m2")
    )
    return SystemModel(modes, edges, frozenset({"m1", "m2"}))


def asymmetric_ports():
    return (
        PortSpec(1, {"c1": 4.0, "c2": 1.0}),
        PortSpec(2, {"c1": 1.0, "c2": 6.0}),
    )


def probe_frequencies(system):
    freqs = sorted(m.frequency for m in system.modes)
    mid = 0.5 * (freqs[0] + freqs[-1])
    return [freqs[0] - 0.05, freqs[0], mid, freqs[-1], freqs[-1] + 0.05]


# ====== closed-form checks on a single photon ======


def test_symmetric_critical_coupling_peak_is_two_thirds():
    system = single_photon(kappa_int=5.0)
    value = s21_at(system, symmetric_ports(5.0), omega=5.0, omega_m=1.0)
    assert isinstance(value, complex)
    assert value == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert abs(value.imag) <= 1e-15


def test_detuned_single_photon_matches_scalar_inversion():
    system = single_photon(kappa_int=5.0)
    ports = symmetric_ports(5.0)
    delta = 0.01
    value = s21_at(system, ports, omega=5.0 + delta, omega_m=1.0)
    expected = 0.005 / (0.0075 - 1j * delta)
    assert value == pytest.approx(expected, rel=1e-13)


def test_port_rate_resolution_precedence():
    # port map beats the mode-level rate; the mode-level rate covers
    # unconfigured ports; nothing here falls back to a default.
    system = SystemModel(
        modes=(ModeSpec("c", "photon", 5.0, intrinsic_loss=4.0, external_loss=8.0),),
        edges=(),
        magnon_sweep_target=frozenset(),
    )
    ports = (PortSpec(1, {"c": 3.0}), PortSpec(2))
    value = s21_at(system, ports, omega=5.0, omega_m=1.0)
    expected = math.sqrt(0.003) * math.sqrt(0.008) / ((0.004 + 0.003 + 0.008) / 2.0)
    assert value == pytest.approx(expected, rel=1e-13)
    tmap = s21_map(system, ports, [5.0], [1.0])
    assert tmap.defaults_applied == ()


def test_unspecified_losses_fall_back_to_recorded_defaults():
    system = SystemModel(
        modes=(
            ModeSpec("c", "photon", 5.0),
            ModeSpec("m", "magnon", 5.4),
        ),
        edges=(CouplingEdge("c", "m", 50.0, 0.0),),
        magnon_sweep_target=frozenset(),
    )
    ports = (PortSpec(1), PortSpec(2))
    tmap = s21_map(system, ports, [5.0], [1.0])
    notes = "\n".join(tmap.defaults_applied)
    assert "c: intrinsic" in notes
    assert "m: intrinsic" in notes
    assert "port 1" in notes and "port 2" in notes
    assert f"{DEFAULT_PHOTON_LOSS_MHZ:g}" in notes
    assert f"{DEFAULT_MAGNON_LOSS_MHZ:g}" in notes


def test_far_detuned_default_map_peak_value():
    # magnon parked far away, peak still the critical-coupling value
    system = SystemModel(
        modes=(
            ModeSpec("c", "photon", 5.0),
            ModeSpec("m", "magnon", 9.0, intrinsic_loss=2.0),
        ),
        edges=(CouplingEdge("c", "m", 1.0, 0.0),),
        magnon_sweep_target=frozenset(),
    )
    value = s21_at(system, (PortSpec(1), PortSpec(2)), omega=5.0, omega_m=9.0)
    assert abs(value) == pytest.approx(2.0 / 3.0, rel=1e-4)


# ====== validation and error paths ======


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_probe_frequency_is_rejected(bad):
    with pytest.raises(ValueError, match="^omega must be finite$"):
        s21_at(single_photon(), (PortSpec(1), PortSpec(2)), bad, 1.0)


def test_port_spec_validation():
    with pytest.raises(ValueError):
        PortSpec(3)
    with pytest.raises(ValueError):
        PortSpec(0)
    with pytest.raises(ValueError):
        PortSpec(1, {"c": -1.0})
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="'c' must be finite"):
            PortSpec(2, {"c": bad})
    with pytest.raises(ValueError, match=r"^port 2: external rate for 'c' must be <= 1e\+09 MHz$"):
        PortSpec(2, {"c": 1.000001e9})
    # the ceiling is checked after every rate passed the earlier rule
    with pytest.raises(ValueError, match="'d' must be finite"):
        PortSpec(2, {"c": 1e300, "d": -1.0})
    assert PortSpec(2, {"c": MAX_RATE_MHZ}).couplings == {"c": MAX_RATE_MHZ}


def test_ports_must_carry_distinct_ids_one_and_two():
    system = single_photon()
    with pytest.raises(ValueError):
        s21_at(system, (PortSpec(1, {"c": 5.0}),), 5.0, 1.0)
    with pytest.raises(ValueError):
        s21_at(system, (PortSpec(1, {"c": 5.0}), PortSpec(1, {"c": 5.0})), 5.0, 1.0)
    # a third spec is rejected by count, even though the ids cover 1 and 2
    with pytest.raises(ValueError, match=r"^expected exactly two port specifications$"):
        s21_at(system, (PortSpec(1), PortSpec(2), PortSpec(2)), 5.0, 1.0)


def test_port_couplings_must_name_photon_modes():
    system = SystemModel(
        modes=(ModeSpec("c", "photon", 5.0), ModeSpec("m", "magnon", 5.2)),
        edges=(CouplingEdge("c", "m", 50.0, 0.0),),
        magnon_sweep_target=frozenset(),
    )
    with pytest.raises(ValueError, match="photon"):
        s21_at(system, (PortSpec(1, {"m": 3.0}), PortSpec(2, {"c": 5.0})), 5.0, 5.2)
    with pytest.raises(ValueError, match="photon"):
        s21_at(system, (PortSpec(1, {"nope": 3.0}), PortSpec(2, {"c": 5.0})), 5.0, 5.2)


def test_port_coupled_to_no_photon_is_rejected():
    system = single_photon()
    with pytest.raises(ValueError, match="no photon"):
        s21_at(system, (PortSpec(1, {}), PortSpec(2, {"c": 5.0})), 5.0, 1.0)


def test_zero_total_loss_is_rejected():
    system = SystemModel(
        modes=(ModeSpec("c", "photon", 5.0, intrinsic_loss=0.0),),
        edges=(),
        magnon_sweep_target=frozenset(),
    )
    with pytest.raises(ValueError, match="zero total loss"):
        s21_at(system, (PortSpec(1, {"c": 0.0}), PortSpec(2, {"c": 0.0})), 5.0, 1.0)
    system = SystemModel(
        modes=(
            ModeSpec("c", "photon", 5.0, intrinsic_loss=5.0),
            ModeSpec("m", "magnon", 5.2, intrinsic_loss=0.0),
        ),
        edges=(CouplingEdge("c", "m", 50.0, 0.0),),
        magnon_sweep_target=frozenset(),
    )
    with pytest.raises(ValueError, match="zero total loss"):
        s21_at(system, symmetric_ports(5.0), 5.0, 5.2)


def test_map_grid_validation():
    system = single_photon()
    ports = symmetric_ports()
    with pytest.raises(ValueError):
        s21_map(system, ports, [], [1.0])
    with pytest.raises(ValueError):
        s21_map(system, ports, [5.0, 4.9], [1.0])
    with pytest.raises(ValueError):
        s21_map(system, ports, [4.9, 5.0], [])
    with pytest.raises(ValueError):
        s21_map(system, ports, [4.9, 5.0], [2.0, 2.0])


@pytest.mark.parametrize("bad", [[5.0, math.inf], [math.inf], [-math.inf, 5.0], [math.nan]])
def test_non_finite_grids_are_rejected(bad):
    system, ports = fit_device(), (PortSpec(1), PortSpec(2))
    with pytest.raises(ValueError, match="^omega_grid must be finite$"):
        s21_map(system, ports, bad, [5.36])
    with pytest.raises(ValueError, match="^omega_m_grid must be finite$"):
        s21_map(system, ports, [5.0], bad)
    with pytest.raises(ValueError, match="^omega_grid must be finite$"):
        TransmissionMap(np.array(bad), np.array([1.0]), np.zeros((len(bad), 1)))
    with pytest.raises(ValueError, match="^omega_m_grid must be finite$"):
        TransmissionMap(np.array([1.0]), np.array(bad), np.zeros((1, len(bad))))


def test_maps_beyond_the_ceiling_raise_before_anything_is_allocated(monkeypatch):
    system, ports = fit_device(), (PortSpec(1), PortSpec(2))
    grids = {points: np.linspace(4.2, 6.6, points) for points in (1000, 1001, 1_000_000)}

    def no_allocation(*args, **kwargs):
        raise AssertionError("an array was allocated")

    # hamiltonians' stack comes from np.broadcast_to, the map from np.empty
    monkeypatch.setattr(np, "broadcast_to", no_allocation)
    monkeypatch.setattr(np, "empty", no_allocation)
    with pytest.raises(AssertionError, match="allocated"):
        s21_map(system, ports, grids[1000], grids[1000])  # exactly MAX_MAP_POINTS
    message = "len(omega_grid) * len(omega_m_grid) must be <= %d" % MAX_MAP_POINTS
    for probe, magnon in ((1000, 1001), (1001, 1000), (1_000_000, 1_000_000)):
        with pytest.raises(ValueError) as error:
            s21_map(system, ports, grids[probe], grids[magnon])
        assert str(error.value) == message


@pytest.mark.parametrize("names", [None, ("probe", "magnon")])
def test_check_map_reports_the_map_then_the_probe_then_the_magnon_stack(names):
    probe, magnon = names or ("len(omega_grid)", "len(omega_m_grid)")
    args = () if names is None else (names,)
    n = 200  # 40 000 entries per matrix: 420 of them exceed MAX_STACK_ENTRIES
    cases = [
        # all three over, then both stacks over, then the magnon stack alone
        ((2000, 1000), "%s * %s must be <= %d" % (probe, magnon, MAX_MAP_POINTS)),
        ((1000, 1000), "%s * modes^2 must be <= %d" % (probe, MAX_STACK_ENTRIES)),
        ((1, 1000), "%s * modes^2 must be <= %d" % (magnon, MAX_STACK_ENTRIES)),
    ]
    for (probes, magnons), message in cases:
        with pytest.raises(ValueError) as error:
            check_map(probes, magnons, n, *args)
        assert str(error.value) == message
    check_map(1, 1, n, *args)
    check_map(MAX_MAP_POINTS, 1, 4, *args)


@pytest.mark.parametrize("probe", [1e7, -1e7, math.nextafter(MAX_FREQUENCY_GHZ, math.inf)])
def test_s21_at_rejects_a_probe_past_the_frequency_ceiling_as_s21_map_does(probe):
    system, ports = single_photon(), (PortSpec(1), PortSpec(2))
    with pytest.raises(ValueError, match=r"^omega must be within \+-1e\+06 GHz$"):
        s21_at(system, ports, probe, 1.0)
    with pytest.raises(ValueError, match=r"^omega_grid must be within \+-1e\+06 GHz$"):
        s21_map(system, ports, [probe], [1.0])
    for edge in (-MAX_FREQUENCY_GHZ, MAX_FREQUENCY_GHZ):
        assert math.isfinite(abs(s21_at(system, ports, edge, 1.0)))


def test_s21_at_rejects_an_infinite_magnon_frequency():
    with pytest.raises(ValueError, match="^omega_m must be finite$"):
        s21_at(fit_device(), (PortSpec(1), PortSpec(2)), 5.0, math.inf)


def test_transmission_map_invariants():
    grid = np.array([4.9, 5.0])
    with pytest.raises(ValueError):
        TransmissionMap(grid, np.array([1.0]), np.array([[np.nan], [0.0]]))
    with pytest.raises(ValueError):
        TransmissionMap(grid, np.array([1.0]), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        TransmissionMap(np.array([5.0, 4.9]), np.array([1.0]), np.zeros((2, 1)))


# ====== map structure and serialization ======


def test_map_matches_pointwise_evaluation():
    system = fit_device()
    ports = (PortSpec(1), PortSpec(2))
    omega = np.array([4.4, 4.527, 5.0, 5.36, 6.19])
    omega_m = np.array([5.2, 5.36, 5.5])
    tmap = s21_map(system, ports, omega, omega_m)
    assert tmap.magnitude_db.shape == (5, 3)
    for j, om in enumerate(omega_m):
        for i, w in enumerate(omega):
            point = 20.0 * math.log10(abs(s21_at(system, ports, w, om)))
            assert tmap.magnitude_db[i, j] == pytest.approx(point, abs=1e-9)


def per_point_map(system, ports, omega, omega_m):
    """|S21| in dB with the damped matrix and probe term rebuilt at every magnon point."""
    gamma, d1, d2, _ = _loss_model(system, *ports)
    eye = np.eye(len(system.modes))
    mags = np.empty((omega.size, omega_m.size))
    for j, h in enumerate(hamiltonians(system, omega_m)):
        a = 1j * h + np.diag(gamma) / 2.0
        m = a[None, :, :] - 1j * omega[:, None, None] * eye
        x = np.linalg.solve(m, d1[:, None])[..., 0]
        mags[:, j] = 20.0 * np.log10(np.maximum(np.abs(x @ d2), S21_FLOOR))
    return mags


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_map_equals_the_per_point_solve_on_the_presets(name):
    system, ports = preset(name), (PortSpec(1), PortSpec(2))
    omega, omega_m = preset_grid(name, "probe_grid", 1601), preset_grid(name, "magnon_grid", 21)
    tmap = s21_map(system, ports, omega, omega_m)
    diff = np.abs(tmap.magnitude_db - per_point_map(system, ports, omega, omega_m))
    assert diff.max() <= MAP_TOLERANCE_DB


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_bench_size_maps_keep_the_solve_path_values_and_peak_counts(name):
    system, ports = preset(name), (PortSpec(1), PortSpec(2))
    omega, omega_m = preset_grid(name, "probe_grid", 1601), preset_grid(name, "magnon_grid", 201)
    tmap = s21_map(system, ports, omega, omega_m)
    solved = TransmissionMap(omega, omega_m, per_point_map(system, ports, omega, omega_m))
    assert np.abs(tmap.magnitude_db - solved.magnitude_db).max() <= MAP_TOLERANCE_DB
    counts = [len(extract_peaks(tmap, j)) for j in range(omega_m.size)]
    assert counts == [len(extract_peaks(solved, j)) for j in range(omega_m.size)]
    assert sum(counts) > omega_m.size


def exceptional_point_device():
    """Photon (15 MHz total linewidth) and magnon (2 MHz) with g = |15 - 2| / 4 MHz:
    on resonance the two eigenvectors of the damped matrix coalesce."""
    system = SystemModel(
        modes=(
            ModeSpec("c", "photon", 5.0, intrinsic_loss=5.0),
            ModeSpec("m", "magnon", 5.0, intrinsic_loss=2.0),
        ),
        edges=(CouplingEdge("c", "m", 13.0 / 4.0, 0.0),),
        magnon_sweep_target=frozenset({"m"}),
    )
    return system, symmetric_ports(5.0)


def test_exceptional_point_column_falls_back_to_the_solve_bit_for_bit():
    system, ports = exceptional_point_device()
    omega, omega_m = np.linspace(4.95, 5.05, 1601), np.array([4.99, 5.0, 5.01])
    gamma, _, _, _ = _loss_model(system, *ports)
    _, r = np.linalg.eig(1j * hamiltonians(system, omega_m) + np.diag(gamma) / 2.0)
    cond = np.linalg.cond(r)
    assert cond[1] > 1e6 > RESIDUE_COND_LIMIT > 10 > max(cond[0], cond[2])
    tmap = s21_map(system, ports, omega, omega_m)
    solved = per_point_map(system, ports, omega, omega_m)
    assert np.array_equal(tmap.magnitude_db[:, 1], solved[:, 1])
    assert np.abs(tmap.magnitude_db - solved).max() <= MAP_TOLERANCE_DB


def test_a_point_whose_condition_number_equals_the_limit_keeps_its_residue_sum(monkeypatch):
    # cond(R) <= RESIDUE_COND_LIMIT, not <: at the limit no solve runs, one ulp below it one does
    system, ports = exceptional_point_device()
    omega, omega_m = np.linspace(4.95, 5.05, 11), np.array([4.99])
    gamma, _, _, _ = _loss_model(system, *ports)
    _, r = np.linalg.eig(1j * hamiltonians(system, omega_m) + np.diag(gamma) / 2.0)
    (cond,) = np.linalg.cond(r).tolist()
    solve, solved = transmission._solved, []

    def no_solve(*args):
        raise AssertionError("a point at the limit was solved")

    monkeypatch.setattr(transmission, "RESIDUE_COND_LIMIT", cond)
    monkeypatch.setattr(transmission, "_solved", no_solve)
    s21_map(system, ports, omega, omega_m)
    monkeypatch.setattr(transmission, "RESIDUE_COND_LIMIT", float(np.nextafter(cond, 0.0)))
    monkeypatch.setattr(transmission, "_solved", lambda *args: solved.append(args) or solve(*args))
    s21_map(system, ports, omega, omega_m)
    assert len(solved) == 1


def test_s21_at_equals_the_exceptional_point_column_bit_for_bit():
    system, ports = exceptional_point_device()
    omega = np.linspace(4.95, 5.05, 1601)
    tmap = s21_map(system, ports, omega, np.array([4.99, 5.0, 5.01]))
    s21 = np.array([s21_at(system, ports, w, 5.0) for w in omega.tolist()])
    assert np.array_equal(20.0 * np.log10(np.maximum(np.abs(s21), S21_FLOOR)),
                          tmap.magnitude_db[:, 1])


def test_a_non_finite_residue_sum_falls_back_to_the_solve_bit_for_bit():
    """A magnon of 1e-300 MHz loss, coupled by 1e-300 MHz, at the probe frequency:
    cond(R) is 1, but a residue divided by its pole is 0/0, and the solve is finite."""
    system = SystemModel(
        modes=(ModeSpec("c1", "photon", 5.0),
               ModeSpec("m1", "magnon", 6.0, intrinsic_loss=1e-300)),
        edges=(CouplingEdge("c1", "m1", 1e-300, 0.0),),
        magnon_sweep_target=frozenset(),
    )
    ports, omega, omega_m = (PortSpec(1), PortSpec(2)), np.array([6.0, 7.0]), [6.0, 7.0]
    gamma, _, _, _ = _loss_model(system, *ports)
    _, r = np.linalg.eig(1j * hamiltonians(system, omega_m) + np.diag(gamma) / 2.0)
    assert np.all(np.linalg.cond(r) <= RESIDUE_COND_LIMIT)
    tmap = s21_map(system, ports, omega, omega_m)
    for j, point in enumerate(omega_m):
        s21 = np.array([s21_at(system, ports, w, point) for w in omega.tolist()])
        assert np.array_equal(20.0 * np.log10(np.maximum(np.abs(s21), S21_FLOOR)),
                              tmap.magnitude_db[:, j])
    assert tmap.magnitude_db.round(7).tolist() == [[-46.0208442] * 2, [-52.0412609] * 2]


def test_the_block_width_changes_no_bit_of_the_map(monkeypatch):
    name = "cavity-pi0-table2"
    system, ports = exceptional_point_device()
    cases = [
        (preset(name), (PortSpec(1), PortSpec(2)), preset_grid(name, "probe_grid"),
         preset_grid(name, "magnon_grid")),
        # the exceptional point at 5.0 GHz opens the second block of one magnon point,
        # and sits inside the first block of two or three
        (system, ports, np.linspace(4.95, 5.05, 1601), np.array([4.99, 5.0, 5.01, 5.02])),
    ]
    for system, ports, omega, omega_m in cases:
        default = s21_map(system, ports, omega, omega_m).magnitude_db
        for block_values in (1, 2 * omega.size, 3 * omega.size):
            monkeypatch.setattr(transmission, "BLOCK_VALUES", block_values)
            assert np.array_equal(s21_map(system, ports, omega, omega_m).magnitude_db, default)
        monkeypatch.undo()


@st.composite
def random_devices(draw):
    """2-5 modes, at least one photon and one magnon, random couplings and
    losses, and ports with unequal rates, so S21 and S12 differ."""
    n = draw(st.integers(2, 5))
    n_photons = draw(st.integers(1, n - 1))
    frequency, loss = st.floats(4.0, 7.0), st.floats(0.5, 10.0)
    modes = tuple(
        ModeSpec("%s%d" % ("c" if k < n_photons else "m", k),
                 "photon" if k < n_photons else "magnon", draw(frequency),
                 intrinsic_loss=draw(loss))
        for k in range(n)
    )
    phase = st.sampled_from([0.0, PI / 2, PI, -PI / 2]) | st.floats(-PI, PI)
    edges = tuple(
        CouplingEdge(c.label, m.label, draw(st.floats(0.0, 200.0)), draw(phase))
        for c in modes[:n_photons]
        for m in modes[n_photons:]
        if draw(st.booleans())
    )
    swept = frozenset(m.label for m in modes[n_photons:] if draw(st.booleans()))
    ports = tuple(
        PortSpec(port, {c.label: draw(loss) for c in modes[:n_photons]}) for port in (1, 2)
    )
    return SystemModel(modes, edges, swept), ports


@settings(derandomize=True, max_examples=100, deadline=None)
@given(random_devices())
def test_map_equals_the_per_point_solve_on_random_devices(device):
    system, ports = device
    omega, omega_m = np.linspace(3.8, 7.2, 341), np.linspace(4.0, 7.0, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tmap = s21_map(system, ports, omega, omega_m)
    solved = per_point_map(system, ports, omega, omega_m)
    assert np.abs(tmap.magnitude_db - solved).max() <= MAP_TOLERANCE_DB


def test_rates_at_the_ceiling_give_a_finite_map():
    rate = MAX_RATE_MHZ
    system = SystemModel(
        modes=(
            ModeSpec("c", "photon", MAX_FREQUENCY_GHZ, intrinsic_loss=rate, external_loss=rate),
            ModeSpec("d", "photon", 5.0, intrinsic_loss=rate),
            ModeSpec("m", "magnon", 5.0, intrinsic_loss=rate),
        ),
        edges=(CouplingEdge("c", "m", rate, 0.3), CouplingEdge("d", "m", -rate, 2.0)),
        magnon_sweep_target=frozenset({"m"}),
    )
    ports = (PortSpec(1, {"c": rate, "d": rate}), PortSpec(2, {"c": rate, "d": rate}))
    omega = np.array([-MAX_FREQUENCY_GHZ, 0.0, 5.0, MAX_FREQUENCY_GHZ])
    omega_m = np.array([1.0, MAX_FREQUENCY_GHZ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tmap = s21_map(system, ports, omega, omega_m)
    solved = per_point_map(system, ports, omega, omega_m)
    assert np.abs(tmap.magnitude_db - solved).max() <= MAP_TOLERANCE_DB


def test_zero_coupling_map_is_magnon_independent():
    system = SystemModel(
        modes=(
            ModeSpec("c", "photon", 5.0, intrinsic_loss=5.0),
            ModeSpec("m", "magnon", 5.3, intrinsic_loss=2.0),
        ),
        edges=(CouplingEdge("c", "m", 0.0, 0.0),),
        magnon_sweep_target=frozenset({"m"}),
    )
    tmap = s21_map(system, symmetric_ports(), np.arange(4.95, 5.0501, 0.005), [4.5, 5.0, 5.5])
    spread = np.max(np.abs(tmap.magnitude_db - tmap.magnitude_db[:, :1]))
    assert spread <= 1e-12


def test_decoupled_ports_read_the_floor_instead_of_failing():
    system = SystemModel(
        modes=(ModeSpec("c", "photon", 5.0), ModeSpec("d", "photon", 6.0)),
        edges=(),
        magnon_sweep_target=frozenset(),
    )
    ports = (PortSpec(1, {"c": 5.0}), PortSpec(2, {"d": 5.0}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tmap = s21_map(system, ports, np.linspace(4.9, 5.1, 5), [5.0])
    assert np.all(tmap.magnitude_db == 20.0 * np.log10(S21_FLOOR))
    assert extract_peaks(tmap, 0) == []


def test_map_csv_long_form_frozen_values():
    system = single_photon(kappa_int=5.0)
    tmap = s21_map(system, symmetric_ports(5.0), [4.99, 5.0, 5.01], [1.0])
    text = map_to_csv(tmap)
    assert text == (
        "omega_ghz,omega_m_ghz,s21_db\n"
        "4.99,1,-7.95880017\n"
        "5,1,-3.52182518\n"
        "5.01,1,-7.95880017\n"
    )


def test_map_and_csv_are_deterministic():
    system = fit_device()
    ports = (PortSpec(1), PortSpec(2))
    omega = np.arange(4.4, 6.4, 0.05)
    omega_m = np.array([5.2, 5.36])
    a = s21_map(system, ports, omega, omega_m)
    b = s21_map(system, ports, omega, omega_m)
    assert np.array_equal(a.magnitude_db, b.magnitude_db)
    assert map_to_csv(a) == map_to_csv(b)


def test_line_cut_csv_and_offset_flag():
    system = single_photon(kappa_int=5.0)
    tmap = s21_map(system, symmetric_ports(5.0), [4.99, 5.0, 5.01], [1.0])
    assert line_cut_csv(tmap, 0) == (
        "omega_ghz,s21_db\n"
        "4.99,-7.95880017\n"
        "5,-3.52182518\n"
        "5.01,-7.95880017\n"
    )
    shifted = line_cut_csv(tmap, 0, offset_db=45.0)
    assert shifted == (
        "omega_ghz,s21_db\n"
        "4.99,37.0411998\n"
        "5,41.4781748\n"
        "5.01,37.0411998\n"
    )
    with pytest.raises(ValueError):
        line_cut_csv(tmap, 5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_offsets_and_prominence_floors_are_rejected(bad):
    tmap = TransmissionMap(np.array([4.9, 5.0, 5.1]), np.array([1.0]),
                           np.array([[-30.0], [-10.0], [-30.0]]))
    with pytest.raises(ValueError, match="^offset_db must be finite$"):
        line_cut_csv(tmap, 0, bad)
    with pytest.raises(ValueError, match="^prominence_floor_db must be finite$"):
        extract_peaks(tmap, 0, prominence_floor_db=bad)
    # the index is checked first
    with pytest.raises(ValueError, match="^omega_m_index 1 out of range$"):
        line_cut_csv(tmap, 1, bad)
    with pytest.raises(ValueError, match="^omega_m_index 1 out of range$"):
        extract_peaks(tmap, 1, prominence_floor_db=bad)


@pytest.mark.parametrize("offset", [0.0, 45.0, -3.25, 7])
def test_line_cut_csv_equals_per_row_formatting(offset):
    omega = np.linspace(4.2, 6.6, 241)
    tmap = s21_map(fit_device(), (PortSpec(1), PortSpec(2)), omega, [5.2, 5.36])
    lines = ["omega_ghz,s21_db"]
    for i, om in enumerate(tmap.omega_grid):
        lines.append(f"{om:.9g},{tmap.magnitude_db[i, 1] + offset:.9g}")
    assert line_cut_csv(tmap, 1, offset) == "\n".join(lines) + "\n"


# The writers are compared with their oracles line by line: equal line lists are equal
# strings, and a failure reports the first differing line instead of diffing megabytes.


def template_map_csv(tmap):
    """The map CSV as one '%.9g' row template per map, filled per column by Python's %."""
    texts = lambda values: [f"{v:.9g}" for v in values.tolist()]
    template = "".join(om + ",\0,%.9g\n" for om in texts(tmap.omega_grid))
    return "omega_ghz,omega_m_ghz,s21_db\n" + "".join(
        template.replace("\0", om_m) % tuple(column.tolist())
        for om_m, column in zip(texts(tmap.omega_m_grid), tmap.magnitude_db.T)
    )


def test_map_csv_equals_the_template_writer_on_a_preset_at_bench_size():
    tmap = s21_map(preset("cavity-pi-table1"), (PortSpec(1), PortSpec(2)),
                   preset_grid("cavity-pi-table1", "probe_grid", 1601),
                   preset_grid("cavity-pi-table1", "magnon_grid", 201))
    assert map_to_csv(tmap).split("\n") == template_map_csv(tmap).split("\n")


@pytest.mark.parametrize(
    "probes, columns",
    # one column per block; blocks of 32 columns that 70 does not fill
    [(BLOCK_VALUES + 5, 3), (1000, 70)],
)
def test_map_csv_equals_the_template_writer_across_blocks(probes, columns):
    rng = np.random.default_rng(probes)
    tmap = TransmissionMap(np.linspace(4.0, 7.0, probes), np.linspace(5.0, 6.0, columns),
                           rng.uniform(-80.0, 0.0, (probes, columns)))
    assert map_to_csv(tmap).split("\n") == template_map_csv(tmap).split("\n")


def test_map_csv_equals_the_template_writer_on_python_formatted_values():
    rng = np.random.default_rng(3)
    omega = np.concatenate([[1e-5, 9.99999999995e-05, 1e-4], np.linspace(4.0, 7.0, 47)])
    omega_m = np.array([2.5e-7, 0.5, 999999.5, 1e6])
    mags = rng.uniform(-60.0, 0.0, (50, 4))
    mags[::7, 0] = 0.0
    mags[1::5, 1] = -1e-5
    mags[:, 2] = 20.0 * np.log10(S21_FLOOR)
    mags[2::3, 3] = [-0.0, -1e-300, -123456789.5, -1.25e-4, -(2.0**-30), -1e-8] * 2 + [-0.0] * 4
    tmap = TransmissionMap(omega, omega_m, mags)
    assert map_to_csv(tmap).split("\n") == template_map_csv(tmap).split("\n")


def traced_peak(call, *args):
    """What call(*args) returns and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_writers_hold_one_csv_plus_one_block():
    # a list of blocks and their join would hold the CSV twice, a peak of 2x its length
    rng = np.random.default_rng(24)
    tmap = TransmissionMap(np.linspace(4.0, 7.0, 1601), np.linspace(5.0, 6.0, 601),
                           rng.uniform(-80.0, 0.0, (1601, 601)))
    for _ in range(2):
        text, peak = traced_peak(map_to_csv, tmap)
        assert peak < 1.3 * len(text), peak / len(text)
    # csv_rows' block holds more temporaries, so a longer table keeps them under the margin
    text, peak = traced_peak(csv_rows, np.vstack([tmap.magnitude_db] * 2))
    assert peak < 1.3 * len(text), peak / len(text)


def test_s21_map_holds_one_magnon_block_at_a_time():
    # stacks of all 4000 damped 20 x 20 matrices, their eigenvectors and residues would
    # peak near 106 MB; one block of them and the 0.7 MB map stay near 3 MB
    system = system_from_document(chain_document(10))
    tmap, peak = traced_peak(s21_map, system, (PortSpec(1), PortSpec(2)),
                             np.linspace(4.0, 6.0, 23), np.linspace(4.0, 6.0, 4000))
    assert tmap.magnitude_db.shape == (23, 4000)
    assert peak < 16e6, peak


def test_field_export_parse_peaks_under_three_times_its_text():
    # numpy's reader holds the split lines and the array (about 2.1x); a list of
    # float lists per row, as the float loop builds, peaked at about 5.3x
    text = pi_device_exports(24)[0]["c1"]
    assert text.count("\n") == 1 + 2 * 24**3
    table, peak = traced_peak(field_table_from_csv, text)
    assert len(table.positions) == 2 * 24**3
    assert peak < 3 * len(text), peak / len(text)


# ====== peak extraction ======


def test_single_lorentzian_peak_recovered_off_grid():
    system = single_photon(kappa_int=5.0)
    omega = np.arange(4.9005, 5.1, 0.002)
    assert not np.any(np.abs(omega - 5.0) < 1e-9)
    tmap = s21_map(system, symmetric_ports(5.0), omega, [1.0])
    peaks = extract_peaks(tmap, 0)
    assert len(peaks) == 1
    center, prominence = peaks[0]
    assert abs(center - 5.0) < 5e-4
    assert prominence > 3.0


def test_two_polariton_peaks_recovered_to_under_one_mhz():
    system = SystemModel(
        modes=(ModeSpec("c", "photon", 5.0), ModeSpec("m", "magnon", 5.0)),
        edges=(CouplingEdge("c", "m", 100.0, 0.0),),
        magnon_sweep_target=frozenset(),
    )
    tmap = s21_map(system, (PortSpec(1), PortSpec(2)), np.arange(4.7, 5.3001, 0.001), [5.0])
    peaks = extract_peaks(tmap, 0)
    assert len(peaks) == 2
    assert abs(peaks[0][0] - 4.9) < 1e-3
    assert abs(peaks[1][0] - 5.1) < 1e-3


def test_flat_column_yields_no_peaks():
    tmap = TransmissionMap(
        np.array([4.9, 5.0, 5.1]), np.array([1.0]), np.full((3, 1), -30.0)
    )
    assert extract_peaks(tmap, 0) == []


def test_prominence_floor_filters_peaks():
    system = SystemModel(
        modes=(ModeSpec("c", "photon", 5.0), ModeSpec("m", "magnon", 5.0)),
        edges=(CouplingEdge("c", "m", 100.0, 0.0),),
        magnon_sweep_target=frozenset(),
    )
    tmap = s21_map(system, (PortSpec(1), PortSpec(2)), np.arange(4.7, 5.3001, 0.001), [5.0])
    assert len(extract_peaks(tmap, 0, prominence_floor_db=3.0)) == 2
    assert extract_peaks(tmap, 0, prominence_floor_db=100.0) == []


def test_local_maxima_match_scipy_find_peaks_on_plateau_rich_arrays():
    # every 0/1/2-valued array up to length 7 (plateaus at either end, lengths
    # 1-3 included), then longer random ones with few distinct levels
    arrays = [
        np.array(values, dtype=float)
        for n in range(1, 8)
        for values in itertools.product(range(3), repeat=n)
    ]
    rng = np.random.default_rng(5)
    arrays += [rng.integers(0, 4, rng.integers(8, 40)).astype(float) for _ in range(2000)]
    for values in arrays:
        for height in (-math.inf, 1.0, 2.0):
            expected, _ = find_peaks(values, height=height)
            assert np.array_equal(_local_maxima(values, height), expected), (values, height)


def local_maxima_oracle_cases():
    """Seeded arrays of length 1-400: plateau-free ones, then ones with a plateau at either end."""
    rng = np.random.default_rng(24)
    arrays = [rng.standard_normal(rng.integers(1, 401)) for _ in range(2000)]
    for _ in range(500):
        values = rng.standard_normal(rng.integers(12, 401))
        head, tail = rng.integers(2, 6, 2)
        # each end run sits above, below or level with the sample next to it
        levels = [values.max() + 1.0, values.min() - 1.0]
        values[:head] = rng.choice(levels + [values[head]])
        values[-tail:] = rng.choice(levels + [values[-tail - 1]])
        arrays.append(values)
    return arrays


def test_local_maxima_match_scipy_find_peaks_on_plateau_free_and_end_plateau_arrays():
    arrays = local_maxima_oracle_cases()
    assert all(np.all(np.diff(values) != 0) for values in arrays[:2000])
    assert all(values[0] == values[1] and values[-2] == values[-1] for values in arrays[2000:])
    for values in arrays:
        for height in (-math.inf, float(np.median(values)), float(np.percentile(values, 90))):
            expected, _ = find_peaks(values, height=height)
            assert np.array_equal(_local_maxima(values, height), expected), (values, height)


def test_extract_peaks_returns_plain_python_floats():
    system = SystemModel(
        modes=(ModeSpec("c", "photon", 5.0), ModeSpec("m", "magnon", 5.0)),
        edges=(CouplingEdge("c", "m", 100.0, 0.0),),
        magnon_sweep_target=frozenset(),
    )
    refined = s21_map(system, (PortSpec(1), PortSpec(2)), np.arange(4.7, 5.3001, 0.001), [5.0])
    # a flat-topped peak keeps its sample, the other branch of the refinement
    column = np.array([-40.0, -10.0, -10.0, -10.0, -40.0])
    flat = TransmissionMap(4.0 + 0.1 * np.arange(column.size), np.array([1.0]), column[:, None])
    peaks = extract_peaks(refined, 0) + extract_peaks(flat, 0, prominence_floor_db=0.0)
    assert len(peaks) == 3
    assert all(type(center) is float and type(prominence) is float for center, prominence in peaks)


def test_plateau_peak_is_reported_at_its_midpoint():
    column = np.array([-40.0, -10.0, -10.0, -10.0, -10.0, -40.0, -20.0, -20.0])
    tmap = TransmissionMap(4.0 + 0.1 * np.arange(column.size), np.array([1.0]), column[:, None])
    # the run at 1..4 peaks at (1 + 4) // 2; the run touching the end never does
    expected = [(tmap.omega_grid[2], -10.0 - column.mean())]
    assert extract_peaks(tmap, 0, prominence_floor_db=0.0) == expected


def test_extract_peaks_index_validation():
    tmap = TransmissionMap(np.array([4.9, 5.0, 5.1]), np.array([1.0]), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        extract_peaks(tmap, 1)
    with pytest.raises(ValueError):
        extract_peaks(tmap, -1)


@pytest.mark.parametrize("bad", [True, False, 1.5, 2.0, np.float64(0.0), np.bool_(False), "0", None])
def test_map_column_indices_must_be_integers_before_the_range_check(bad):
    tmap = s21_map(fit_device(), (PortSpec(1), PortSpec(2)), preset_grid("cavity-pi-fit", "probe_grid", 5),
                   preset_grid("cavity-pi-fit", "magnon_grid", 3))
    message = "^omega_m_index: expected an integer, got %s$" % re.escape(repr(bad))
    with pytest.raises(ValueError, match=message):
        extract_peaks(tmap, bad)
    with pytest.raises(ValueError, match=message):
        line_cut_csv(tmap, bad)
    # numpy integers are integers, and a range fault keeps its message
    assert extract_peaks(tmap, np.int64(2)) == extract_peaks(tmap, 2)
    assert line_cut_csv(tmap, np.uint8(2)) == line_cut_csv(tmap, 2)
    with pytest.raises(ValueError, match="^omega_m_index 3 out of range$"):
        extract_peaks(tmap, np.int64(3))


def test_peak_positions_track_eigenvalues_within_half_linewidth():
    system = fit_device()
    ports = (PortSpec(1), PortSpec(2))
    omega = np.arange(4.2, 6.6005, 0.0005)
    tmap = s21_map(system, ports, omega, [5.36])
    peaks = extract_peaks(tmap, 0)
    assert len(peaks) == 4

    vals, vecs = eig_hermitian(build_hamiltonian(system, 5.36))
    # total per-mode linewidths with default rates: photons 15 MHz, magnons 2 MHz
    gamma = np.array([0.015, 0.015, 0.002, 0.002])
    for center, _ in peaks:
        k = int(np.argmin(np.abs(vals - center)))
        half_width = float(np.abs(vecs[:, k]) ** 2 @ gamma) / 2.0
        assert abs(center - vals[k]) <= half_width


# ====== dark-mode suppression ======


def dark_pair_device():
    return SystemModel(
        modes=(
            ModeSpec("c", "photon", 5.0),
            ModeSpec("m1", "magnon", 5.5),
            ModeSpec("m2", "magnon", 5.5),
        ),
        edges=(
            CouplingEdge("c", "m1", 100.0, 0.0),
            CouplingEdge("c", "m2", 100.0, 0.0),
        ),
        magnon_sweep_target=frozenset(),
    )


def test_consolidating_the_bright_superposition_preserves_s21_everywhere():
    full = dark_pair_device()
    bright_only = SystemModel(
        modes=(ModeSpec("c", "photon", 5.0), ModeSpec("mb", "magnon", 5.5)),
        edges=(CouplingEdge("c", "mb", 100.0 * math.sqrt(2.0), 0.0),),
        magnon_sweep_target=frozenset(),
    )
    ports = (PortSpec(1), PortSpec(2))
    for omega in np.arange(4.7, 5.9001, 0.01):
        a = s21_at(full, ports, float(omega), 1.0)
        b = s21_at(bright_only, ports, float(omega), 1.0)
        assert abs(a - b) <= 1e-12 * max(abs(a), 1e-30)


def test_dark_eigenfrequency_contributes_no_peak():
    full = dark_pair_device()
    vals, _ = eig_hermitian(build_hamiltonian(full, 1.0))
    assert vals[1] == pytest.approx(5.5, abs=1e-12)
    tmap = s21_map(full, (PortSpec(1), PortSpec(2)), np.arange(4.7, 5.9001, 0.001), [1.0])
    peaks = extract_peaks(tmap, 0)
    assert len(peaks) == 2
    for center, _ in peaks:
        assert abs(center - 5.5) > 0.02


def test_dark_eigenfrequency_sits_on_an_antiresonance_not_the_background():
    # the uncoupled superposition leaves no pole, but the bright branch's
    # transmission zero lands at the same frequency, well below background
    full = dark_pair_device()
    background = single_photon(kappa_int=DEFAULT_PHOTON_LOSS_MHZ)
    ports = (PortSpec(1), PortSpec(2))
    at_dark = abs(s21_at(full, ports, 5.5, 1.0))
    bg = abs(s21_at(background, ports, 5.5, 1.0))
    assert 20.0 * math.log10(bg / at_dark) > 10.0


def test_pi0_crossing_branch_is_strongly_suppressed_in_the_map():
    system = preset("cavity-pi0-table2")
    ports = (PortSpec(1), PortSpec(2))
    omega = np.arange(6.2, 9.2005, 0.0005)
    for om_m in (8.0, 8.619):
        tmap = s21_map(system, ports, omega, [om_m])
        peaks = extract_peaks(tmap, 0)
        vals, vecs = eig_hermitian(build_hamiltonian(system, om_m))
        weights = (np.abs(vecs[:3, :]) ** 2).sum(axis=0)
        dark_branch = int(np.argmin(weights))
        assert weights[dark_branch] < 0.05
        strongest = max(p for _, p in peaks)
        near_dark = [p for c, p in peaks if abs(c - vals[dark_branch]) < 0.01]
        assert near_dark, "suppressed branch should still be locatable"
        assert near_dark[0] <= strongest - 15.0


# ====== reciprocity ======


def max_swap_difference(system, ports, omegas, omega_m):
    worst = 0.0
    p1, p2 = ports
    swapped = (
        PortSpec(1, p2.couplings),
        PortSpec(2, p1.couplings),
    )
    for omega in omegas:
        a = abs(s21_at(system, ports, float(omega), omega_m))
        b = abs(s21_at(system, swapped, float(omega), omega_m))
        worst = max(worst, abs(a - b) / max(a, b, 1e-30))
    return worst


def test_real_coupling_systems_are_reciprocal_for_any_ports():
    rng = np.random.default_rng(411)
    for _ in range(20):
        system = random_loop_system(rng, phase_pool=(0.0, PI))
        worst = max_swap_difference(
            system, asymmetric_ports(), probe_frequencies(system), 5.4
        )
        assert worst <= 1e-11


def test_quarter_phase_gauges_are_reciprocal_for_any_ports():
    # purely imaginary coupling blocks, arbitrary strengths and losses
    rng = np.random.default_rng(412)
    for _ in range(20):
        system = random_loop_system(rng, phase_pool=(PI / 2, -PI / 2))
        worst = max_swap_difference(
            system, asymmetric_ports(), probe_frequencies(system), 5.4
        )
        assert worst <= 1e-11


def test_presets_are_reciprocal_with_asymmetric_ports():
    for system in (table1_device(), preset("cavity-pi0-table2")):
        labels = system.photon_labels()
        ports = (
            PortSpec(1, {lab: 2.0 + 3.0 * k for k, lab in enumerate(labels)}),
            PortSpec(2, {lab: 7.0 - 2.0 * k for k, lab in enumerate(labels)}),
        )
        worst = max_swap_difference(system, ports, probe_frequencies(system), 6.0)
        assert worst <= 1e-11


def test_rotated_gauges_stay_reciprocal_for_single_photon_ports():
    rng = np.random.default_rng(413)
    for _ in range(20):
        base = random_loop_system(rng, phase_pool=(0.0, PI))
        rotation = {m.label: float(rng.uniform(-PI, PI)) for m in base.modes}
        system = apply_vertex_phases(base, rotation)
        ports = (PortSpec(1, {"c1": 4.0}), PortSpec(2, {"c2": 6.0}))
        worst = max_swap_difference(system, ports, probe_frequencies(system), 5.4)
        assert worst <= 1e-11


def test_quarter_loop_phase_with_unequal_magnon_losses_is_nonreciprocal():
    # one loop phase of pi/2 plus loss contrast: the model genuinely
    # distinguishes the two propagation directions for multi-photon ports
    system = SystemModel(
        modes=(
            ModeSpec("c1", "photon", 4.5, intrinsic_loss=5.0),
            ModeSpec("c2", "photon", 6.2, intrinsic_loss=5.0),
            ModeSpec("m1", "magnon", 5.3, intrinsic_loss=2.0),
            ModeSpec("m2", "magnon", 5.3, intrinsic_loss=9.0),
        ),
        edges=(
            CouplingEdge("c1", "m1", 120.0, PI / 2),
            CouplingEdge("c1", "m2", 120.0, 0.0),
            CouplingEdge("c2", "m1", 120.0, 0.0),
            CouplingEdge("c2", "m2", 120.0, 0.0),
        ),
        magnon_sweep_target=frozenset({"m1", "m2"}),
    )
    worst = max_swap_difference(
        system, asymmetric_ports(), np.arange(4.3, 6.5, 0.01), 5.3
    )
    assert worst > 1e-2
