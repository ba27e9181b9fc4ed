"""Tests for peak-data calibration: residuals, hypothesis fits, CSV input."""

import contextlib
import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopmag import calibrate, model
from loopmag.calibrate import (
    AMBIGUITY_RATIO,
    DEFAULT_SIGMA_GHZ,
    MIN_SIGMA_GHZ,
    FitSpec,
    HypothesisFit,
    PeakDataset,
    PeakRecord,
    dataset_from_csv,
    fit,
    fit_spec_from_document,
    _nelder_mead,
    _residual_of_table,
    residual,
)
from loopmag.gauge import reduce_system
from loopmag.model import (
    CouplingEdge,
    ModeSpec,
    SchemaError,
    SystemModel,
    apply_vertex_phases,
    fold_phase,
)
from loopmag.spectrum import branch_frequencies
from devices import fit_device, preset, random_system
from oracles import PeakDataset as RecordLoopPeakDataset
from oracles import fit_objective, read_numeric_csv as float_loop_read_numeric_csv


# ====== device builders ======


def two_tone_spec(**overrides):
    kwargs = dict(
        base_system=fit_device(),
        free_photon_frequencies=("c1", "c2"),
        free_couplings=("c1", "c2"),
        theta_hypotheses=((math.pi,), (0.0,)),
    )
    kwargs.update(overrides)
    return FitSpec(**kwargs)


TRUTH = (4.527, 6.19, 0.081, 0.120)


def branch_records(system, omega_ms, sigma=None, noise=None, rng=None, branches=None):
    """Branch frequencies of `system` at each omega_m, as peak records.

    branches selects sorted-branch indices (default: all of them).
    """
    table = branch_frequencies(system, omega_ms)
    records = []
    for i, omega_m in enumerate(omega_ms):
        row = table[i] if branches is None else table[i][list(branches)]
        for peak in row:
            value = float(peak)
            if noise is not None:
                value += noise * rng.standard_normal()
            if sigma is None:
                records.append(PeakRecord(float(omega_m), value, DEFAULT_SIGMA_GHZ))
            else:
                records.append(PeakRecord(float(omega_m), value, sigma))
    return PeakDataset(records=tuple(records))


ANTICROSSING_GRID = tuple(np.linspace(4.3, 6.4, 16))
DISPERSIVE_GRID = tuple(np.linspace(3.4, 4.0, 16))


def record_order_residual(system, data):
    """Residual as a running total over records, nearest branch per record."""
    omegas = np.unique([r.omega_m for r in data.records])
    table = branch_frequencies(system, omegas)
    row_of = {value: k for k, value in enumerate(omegas.tolist())}
    total = 0.0
    for r in data.records:
        nearest = np.min(np.abs(table[row_of[r.omega_m]] - r.omega_peak))
        total += (nearest / r.sigma) ** 2
    return float(total)


def dataclass_residual(spec, params, thetas, data):
    """Reference objective: the trial point as a validated SystemModel.

    The base system is gauge-reduced, every tree edge is held at zero phase,
    each chord takes its loop's phase, and free parameters are written in
    through ModeSpec and CouplingEdge before the branches are solved.
    """
    reduction = reduce_system(spec.base_system)
    template = apply_vertex_phases(spec.base_system, reduction.vertex_phases)
    chord_loop = {p.cycle.chord: k for k, p in enumerate(reduction.physical_phases)}
    n_free = len(spec.free_photon_frequencies)
    frequency = dict(zip(spec.free_photon_frequencies, params[:n_free]))
    strength_ghz = dict(zip(spec.free_couplings, params[n_free:]))
    modes = tuple(
        dataclasses.replace(m, frequency=float(frequency[m.label]))
        if m.label in frequency
        else m
        for m in template.modes
    )
    edges = tuple(
        CouplingEdge(
            e.photon,
            e.magnon,
            float(strength_ghz[e.photon]) * 1e3 if e.photon in strength_ghz else e.strength,
            float(thetas[chord_loop[k]]) if k in chord_loop else 0.0,
        )
        for k, e in enumerate(template.edges)
    )
    system = SystemModel(modes, edges, template.magnon_sweep_target)
    return record_order_residual(system, data)


def three_tone_spec():
    """Three photons on two swept magnons: two loops, one photon held fixed."""
    return FitSpec(
        base_system=preset("cavity-pi0-table2"),
        free_photon_frequencies=("c1", "c3"),
        free_couplings=("c2", "c3"),
        theta_hypotheses=((1.0, 2.0),),
    )


# ====== residual oracle ======


def test_residual_matches_hand_computed_value():
    # Single photon-magnon pair on resonance: branches are omega +- g.
    system = SystemModel(
        modes=(ModeSpec("c", "photon", 5.0), ModeSpec("m", "magnon", 5.0)),
        edges=(CouplingEdge("c", "m", 100.0, 0.0),),
        magnon_sweep_target=frozenset({"m"}),
    )
    spec = FitSpec(
        base_system=system,
        free_photon_frequencies=("c",),
        free_couplings=("c",),
        theta_hypotheses=((),),
    )
    data = PeakDataset(
        records=(
            PeakRecord(5.0, 4.95, 0.0025),
            PeakRecord(5.0, 5.11, 0.0025),
        )
    )
    # Nearest branches are 4.9 and 5.1: ((0.05/0.0025)^2 + (0.01/0.0025)^2).
    expected = 20.0**2 + 4.0**2
    value = residual(spec, (5.0, 0.1), (), data)
    assert math.isclose(value, expected, rel_tol=1e-12)


def test_vectorized_residual_equals_record_order_loop():
    # the objective must match a running total over records bit for bit, or
    # the simplex path (and its evaluation count) would change
    system = fit_device()
    rng = np.random.default_rng(11)
    omega_ms = rng.choice(np.linspace(4.3, 6.4, 6), size=40)
    records = tuple(
        PeakRecord(float(om), float(rng.uniform(4.0, 6.8)), float(sigma))
        for om, sigma in zip(omega_ms, rng.choice([0.001, 0.0025, 0.013], size=40))
    )
    data = PeakDataset(records=records)
    assert len(set(omega_ms)) < len(records) and list(omega_ms) != sorted(omega_ms)

    table = branch_frequencies(system, np.unique(omega_ms))
    assert _residual_of_table(table, data) == record_order_residual(system, data)


@pytest.mark.parametrize("make_spec", [two_tone_spec, three_tone_spec])
def test_residual_equals_the_validated_dataclass_path(make_spec):
    # the objective writes trial points into matrices built once per call;
    # it must equal rebuilding the whole device as dataclasses bit for bit,
    # negative couplings (a pi phase shift) and unfolded loop phases included
    spec = make_spec()
    n_loops = len(spec.theta_hypotheses[0])
    rng = np.random.default_rng(5)
    system = spec.base_system
    omega_m = system.mode("m1").frequency
    omega_ms = rng.uniform(omega_m - 1.0, omega_m + 1.0, size=12)
    data = PeakDataset(
        records=tuple(
            PeakRecord(float(om), float(om + rng.uniform(-1.5, 1.5)), 0.0025)
            for om in np.repeat(omega_ms, 3)
        )
    )
    for _ in range(25):
        frequencies = [
            system.mode(label).frequency + rng.uniform(-0.2, 0.2)
            for label in spec.free_photon_frequencies
        ]
        couplings = rng.uniform(-0.2, 0.2, size=len(spec.free_couplings))
        params = tuple(frequencies) + tuple(couplings)
        thetas = tuple(rng.uniform(-3.0 * math.pi, 3.0 * math.pi, size=n_loops))
        assert residual(spec, params, thetas, data) == dataclass_residual(
            spec, params, thetas, data
        )
    negative = tuple(frequencies) + tuple(-abs(c) for c in couplings)
    assert residual(spec, negative, thetas, data) == dataclass_residual(
        spec, negative, thetas, data
    )


def test_residual_rejects_a_non_positive_free_frequency():
    spec = two_tone_spec()
    data = branch_records(fit_device(), (5.0,))
    for bad in (0.0, -4.5):
        with pytest.raises(ValueError, match="'c1': frequency must be finite and > 0"):
            residual(spec, (bad, 6.19, 0.081, 0.120), (math.pi,), data)


def test_residual_rejects_a_free_frequency_above_the_ceiling_as_modespec_does():
    spec = two_tone_spec()
    data = branch_records(fit_device(), (5.0,))
    with pytest.raises(ValueError) as modespec:
        ModeSpec("c1", "photon", 1e300)
    with pytest.raises(ValueError) as objective:
        residual(spec, (1e300, 6.19, 0.081, 0.120), (math.pi,), data)
    message = "mode 'c1': frequency must be <= 1e+06 GHz"
    assert str(objective.value) == str(modespec.value) == message
    assert math.isfinite(residual(spec, (1e6, 6.19, 0.081, 0.120), (math.pi,), data))


def test_residual_is_zero_on_exact_branch_data():
    system = fit_device()
    data = branch_records(system, ANTICROSSING_GRID)
    assert residual(two_tone_spec(), TRUTH, (math.pi,), data) == 0.0


def test_residual_counts_uniform_sigma_offsets():
    system = fit_device()
    exact = branch_records(system, ANTICROSSING_GRID)
    shifted = PeakDataset(
        records=tuple(
            PeakRecord(r.omega_m, r.omega_peak + r.sigma, r.sigma)
            for r in exact.records
        )
    )
    value = residual(two_tone_spec(), TRUTH, (math.pi,), shifted)
    assert math.isclose(value, len(shifted.records), rel_tol=1e-9)


def test_residual_invariant_under_record_permutation():
    system = fit_device()
    data = branch_records(
        system, ANTICROSSING_GRID, noise=0.002, rng=np.random.default_rng(7)
    )
    forward = residual(two_tone_spec(), TRUTH, (math.pi,), data)
    perm = np.random.default_rng(8).permutation(len(data.records))
    shuffled = PeakDataset(records=tuple(data.records[i] for i in perm))
    backward = residual(two_tone_spec(), TRUTH, (math.pi,), shuffled)
    assert math.isclose(forward, backward, rel_tol=1e-12)


def test_residual_mean_tracks_noise_to_sigma_ratio():
    # 1 MHz Gaussian noise against the 2.5 MHz default sigma: each record
    # contributes (1/2.5)^2 on average, so the per-record mean sits near 0.16.
    system = fit_device()
    spec = two_tone_spec()
    rng = np.random.default_rng(2024)
    per_record = []
    for _ in range(100):
        data = branch_records(system, ANTICROSSING_GRID, noise=0.001, rng=rng)
        per_record.append(
            residual(spec, TRUTH, (math.pi,), data) / len(data.records)
        )
    mean = float(np.mean(per_record))
    assert 0.5 * 0.16 < mean < 1.5 * 0.16


def test_residual_rejects_bad_vectors():
    spec = two_tone_spec()
    data = branch_records(fit_device(), (5.0,))
    with pytest.raises(ValueError, match="4 parameters"):
        residual(spec, (4.5, 6.2, 0.08), (math.pi,), data)
    with pytest.raises(ValueError, match="loop"):
        residual(spec, TRUTH, (math.pi, 0.0), data)
    with pytest.raises(ValueError, match=r"^parameters must be finite$"):
        residual(spec, (4.5, math.nan, 0.08, 0.12), (math.pi,), data)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"^loop phases must be finite$"):
            residual(spec, TRUTH, (bad,), data)


@pytest.mark.parametrize("hypotheses, message", [
    (((math.pi, 0.0),), "hypothesis 0: expected 1 loop phase(s), got 2"),
    (((math.pi,), ()), "hypothesis 1: expected 1 loop phase(s), got 0"),
    (((math.pi,), (0.0,), (math.nan,)), "hypothesis 2: loop phases must be finite"),
    (((-math.inf,), (0.0,)), "hypothesis 0: loop phases must be finite"),
    # the count is checked before finiteness
    (((0.0,), (math.nan, math.nan)), "hypothesis 1: expected 1 loop phase(s), got 2"),
], ids=["too-many", "too-few", "nan", "minus-inf", "count-first"])
def test_fitspec_names_the_hypothesis_that_breaks_the_loop_phase_rule(hypotheses, message):
    with pytest.raises(ValueError) as got:
        two_tone_spec(theta_hypotheses=hypotheses)
    assert str(got.value) == message


def test_residual_keeps_the_loop_phase_messages_without_a_hypothesis_index():
    spec = two_tone_spec()
    data = branch_records(fit_device(), (5.0,))
    for thetas, message in (((math.pi, 0.0), "expected 1 loop phase(s), got 2"),
                            ((), "expected 1 loop phase(s), got 0"),
                            ((math.nan, 0.0), "expected 1 loop phase(s), got 2")):
        with pytest.raises(ValueError) as got:
            residual(spec, TRUTH, thetas, data)
        assert str(got.value) == message
    # a device without a loop takes no loop phase
    loopless = FitSpec(edgeless_photon_template(), theta_hypotheses=((),))
    with pytest.raises(ValueError) as got:
        residual(loopless, (), (0.0,), data)
    assert str(got.value) == "expected 0 loop phase(s), got 1"
    with pytest.raises(ValueError) as got:
        FitSpec(edgeless_photon_template(), theta_hypotheses=((), (0.0,)))
    assert str(got.value) == "hypothesis 1: expected 0 loop phase(s), got 1"


def test_a_spec_reduces_its_device_once_and_no_residual_or_fit_reduces_again(monkeypatch):
    reduced, reduce = [], calibrate.reduce_system
    monkeypatch.setattr(calibrate, "reduce_system",
                        lambda system: reduced.append(system) or reduce(system))
    spec = two_tone_spec()
    assert reduced == [spec.base_system]
    data = branch_records(fit_device(), ANTICROSSING_GRID[::5])
    for thetas in ((math.pi,), (0.0,), (1.0,)):
        residual(spec, TRUTH, thetas, data)
    result = fit(spec, data, (4.52, 6.195, 0.078, 0.118), max_iterations=20)
    assert result.theta_assignment == (math.pi,)
    assert reduced == [spec.base_system]


def test_a_spec_builds_its_phase_zero_device_once_and_no_residual_or_fit_builds_one(
        monkeypatch):
    spec = two_tone_spec()
    untwisted = tuple(dataclasses.replace(e, phase=0.0) for e in spec.base_system.edges)
    assert spec._untwisted == dataclasses.replace(spec.base_system, edges=untwisted)
    data = branch_records(fit_device(), ANTICROSSING_GRID[::5])

    def refuse(*args, **kwargs):
        raise AssertionError("a device was built after the spec")

    # on the classes, so that every way of building one raises, dataclasses.replace too
    monkeypatch.setattr(model.SystemModel, "__post_init__", refuse)
    monkeypatch.setattr(model.CouplingEdge, "__post_init__", refuse)
    for thetas in ((math.pi,), (0.0,), (1.0,)):
        residual(spec, TRUTH, thetas, data)
    result = fit(spec, data, (4.52, 6.195, 0.078, 0.118), max_iterations=20)
    assert result.theta_assignment == (math.pi,)


# ====== the objective against its oracle ======


def random_fit_case(seed):
    """A FitSpec over a seeded random device, its peak data, and the generator.

    Random subsets of the photons have free frequencies and free couplings;
    every other edge is fixed.  Odd seeds with a loop are continuous-theta
    specs, the rest hold two loop-phase hypotheses.
    """
    rng = np.random.default_rng(seed)
    system = random_system(rng, 3, 0.7)
    coupled = sorted({e.photon for e in system.edges})
    n_loops = len(reduce_system(system).physical_phases)
    continuous = n_loops > 0 and seed % 2 == 1
    spec = FitSpec(
        base_system=system,
        free_photon_frequencies=tuple(p for p in system.photon_labels() if rng.uniform() < 0.5),
        free_couplings=tuple(p for p in coupled if rng.uniform() < 0.5),
        theta_hypotheses=tuple(tuple(rng.uniform(-3.0 * math.pi, 3.0 * math.pi, n_loops))
                               for _ in range(1 if continuous else 2)),
        continuous_theta=continuous,
    )
    omega_ms = rng.choice(rng.uniform(3.0, 9.0, int(rng.integers(1, 6))), size=12)
    data = PeakDataset(records=tuple(
        PeakRecord(float(om), float(rng.uniform(2.5, 9.5)), float(rng.choice([0.001, 0.013])))
        for om in omega_ms))
    return spec, data, rng


def test_the_objective_equals_its_oracle_bit_for_bit_on_random_fit_specs():
    # trial couplings are negative, zero of either sign or positive; discrete specs
    # return to their hypotheses, continuous ones draw new loop phases every time
    for seed in range(200):
        spec, data, rng = random_fit_case(seed)
        ours, theirs = calibrate._objective(spec, data), fit_objective(spec, data)
        n_loops = len(spec.theta_hypotheses[0])
        for k in range(20):
            couplings = rng.uniform(-0.3, 0.3, len(spec.free_couplings))
            couplings[rng.uniform(size=couplings.size) < 0.25] = rng.choice([0.0, -0.0])
            params = rng.uniform(3.0, 9.0, len(spec.free_photon_frequencies)).tolist()
            params += couplings.tolist()
            thetas = (rng.uniform(-3.0 * math.pi, 3.0 * math.pi, n_loops).tolist()
                      if spec.continuous_theta else spec.theta_hypotheses[k % 2])
            assert ours(params, thetas).hex() == theirs(params, thetas).hex(), (seed, k)


def oracle_residual(spec, params, thetas, data):
    return fit_objective(spec, data)(calibrate._checked_params(spec, params),
                                     calibrate._checked_thetas(spec, thetas))


@pytest.mark.parametrize("params, thetas, message", [
    ((4.5, 6.2, math.nan, 0.12), (math.pi,), "parameters must be finite"),
    ((4.5, 6.2, 2e6, 0.12), (math.pi,), "edge (c1, m1): strength must be within +-1e+09 MHz"),
    ((4.5, 6.2, 0.08, -1e306), (math.pi,), "edge (c2, m1): strength and phase must be finite"),
    ((0.0, 6.2, 0.08, 0.12), (math.pi,), "mode 'c1': frequency must be finite and > 0 GHz"),
    ((4.5, 2e6, 0.08, 0.12), (math.pi,), "mode 'c2': frequency must be <= 1e+06 GHz"),
], ids=["nan-coupling", "coupling-over-cap", "coupling-overflow", "frequency-zero",
        "frequency-over-cap"])
def test_residual_and_the_objective_raise_the_oracles_messages(params, thetas, message):
    spec = two_tone_spec()
    data = branch_records(fit_device(), (5.0,))
    with pytest.raises(ValueError) as got:
        residual(spec, params, thetas, data)
    with pytest.raises(ValueError) as want:
        oracle_residual(spec, params, thetas, data)
    assert str(got.value) == str(want.value) == message
    # the objective itself checks no vector: a NaN coupling reaches the edge rule
    with pytest.raises(ValueError) as got:
        calibrate._objective(spec, data)(params, thetas)
    with pytest.raises(ValueError) as want:
        fit_objective(spec, data)(params, thetas)
    assert str(got.value) == str(want.value)


def test_an_evaluation_writes_only_moving_edges_and_rotates_only_new_phases(monkeypatch):
    spec = three_tone_spec()
    data = branch_records(spec.base_system, ANTICROSSING_GRID)
    chords = {p.cycle.chord for p in reduce_system(spec.base_system).physical_phases}
    edges = spec.base_system.edges
    moving = [k for k, e in enumerate(edges) if e.photon in spec.free_couplings or k in chords]
    assert 0 < len(chords) < len(moving) < len(edges)
    objective = calibrate._objective(spec, data)

    def forbidden(*args):
        raise AssertionError("an evaluation built a CouplingEdge or rewrote an edge")

    monkeypatch.setattr(calibrate, "CouplingEdge", forbidden)
    monkeypatch.setattr(model, "write_coupling", forbidden)
    rotated, exp = [], np.exp
    monkeypatch.setattr(np, "exp", lambda z: rotated.append(z) or exp(z))
    params = [5.0, 6.5, 0.05, 0.07]
    objective(params, (1.0, 2.0))
    assert len(rotated) == len(moving)
    objective(params, (1.0, 2.0))
    assert len(rotated) == len(moving)
    objective(params, (1.5, 2.5))  # each chord turns once
    assert len(rotated) == len(moving) + len(chords)
    monkeypatch.setattr(np, "exp", exp)
    # continuous loop phases: one slot per moving edge, however many phases pass by
    tracemalloc.start()
    try:
        objective(params, (0.5, 0.5))
        before = tracemalloc.get_traced_memory()[0]
        for theta in np.linspace(-3.0, 3.0, 2000).tolist():
            objective(params, (theta, -theta))
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 4096


# ====== dataset construction and CSV input ======


def test_peak_record_validation():
    with pytest.raises(ValueError, match="sigma"):
        PeakDataset(records=(PeakRecord(5.0, 5.0, 0.0),))
    with pytest.raises(ValueError, match="omega_m"):
        PeakDataset(records=(PeakRecord(-1.0, 5.0, 0.001),))
    with pytest.raises(ValueError, match="finite"):
        PeakDataset(records=(PeakRecord(5.0, math.inf, 0.001),))
    with pytest.raises(ValueError, match="at least one"):
        PeakDataset(records=())
    for record in ((1e300, 5.9), (6.0, 1e300), (6.0, -2e6)):
        with pytest.raises(ValueError, match=r"^record 0: frequencies must be <= 1e\+06 GHz$"):
            PeakDataset(records=(PeakRecord(*record),))


def test_peak_dataset_rejects_sigma_below_one_hz_after_the_sign_check():
    for sigma in (1e-300, 0.99e-9):
        with pytest.raises(ValueError, match=r"^record 0: sigma must be >= 1e-09 GHz$"):
            PeakDataset(records=(PeakRecord(5.0, 5.0, sigma),))
    for sigma in (0.0, -1.0):
        with pytest.raises(ValueError, match=r"^record 0: sigma must be > 0 GHz$"):
            PeakDataset(records=(PeakRecord(5.0, 5.0, sigma),))
    assert PeakDataset(records=((5.0, 5.0, MIN_SIGMA_GHZ),)).records[0].sigma == 1e-9
    with pytest.raises(SchemaError, match=r"^record 1: sigma must be >= 1e-09 GHz$"):
        dataset_from_csv("omega_m_ghz,omega_peak_ghz,sigma_ghz\n5.0,4.5,0.001\n5.1,4.6,1e-300\n")


@pytest.mark.parametrize("bad", [(5.0,), (1.0, 2.0, 3.0, 4.0), None, (), 5.0])
def test_peak_dataset_rejects_a_record_of_the_wrong_length_with_value_error(bad):
    with pytest.raises(ValueError, match=r"^record 1: expected 2 or 3 values$"):
        PeakDataset(records=((5.0, 4.5), bad))
    # the length comes before every per-record check, of this record and of the others
    with pytest.raises(ValueError, match=r"^record 1: expected 2 or 3 values$"):
        PeakDataset(records=((-1.0, 4.5), bad))


def test_a_record_failing_the_finite_and_the_sigma_checks_is_reported_not_finite():
    for record in ((5.0, math.nan, 0.0), (math.inf, 4.5, 1e-12), (5.0, 4.5, -math.inf)):
        with pytest.raises(ValueError, match=r"^record 1: all values must be finite$"):
            PeakDataset(records=((5.0, 4.5), record))


def test_the_first_failing_record_is_named_before_a_later_one_that_fails_an_earlier_check():
    with pytest.raises(ValueError, match=r"^record 0: sigma must be >= 1e-09 GHz$"):
        PeakDataset(records=((5.0, 4.5, 1e-10), (math.nan, 4.5)))
    with pytest.raises(ValueError, match=r"^record 1: omega_m must be > 0 GHz$"):
        PeakDataset(records=((5.0, 4.5), (-1.0, 4.5, 0.0), (5.0, math.inf)))


def test_a_float_error_comes_before_a_later_records_length_error():
    with pytest.raises(TypeError) as expected:
        float(None)
    with pytest.raises(TypeError) as got:
        PeakDataset(records=((5.0, None), (1.0,)))
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("record, message", [
    ((0.0, 4.5), "omega_m must be > 0 GHz"),
    ((-0.0, 4.5), "omega_m must be > 0 GHz"),
    ((math.nextafter(1e6, math.inf), 4.5), "frequencies must be <= 1e+06 GHz"),
    ((5.0, math.nextafter(1e6, math.inf)), "frequencies must be <= 1e+06 GHz"),
    ((5.0, math.nextafter(-1e6, -math.inf)), "frequencies must be <= 1e+06 GHz"),
    ((5.0, 4.5, -0.0), "sigma must be > 0 GHz"),
    ((5.0, 4.5, math.nextafter(MIN_SIGMA_GHZ, 0.0)), "sigma must be >= 1e-09 GHz"),
])
def test_a_value_one_step_past_its_limit_is_rejected(record, message):
    with pytest.raises(ValueError, match="^record 1: %s$" % re.escape(message)):
        PeakDataset(records=((5.0, 4.5), record))


def test_values_at_their_limits_are_accepted():
    records = ((5e-324, 4.5), (1e6, -1e6), (5.0, 1e6, MIN_SIGMA_GHZ), (5.0, -0.0, 5e-9))
    data = PeakDataset(records=records)
    assert data.records == tuple(PeakRecord(*r) for r in records)
    np.testing.assert_array_equal(data._columns[0], [5e-324, 5.0, 1e6])


MAX_GHZ = model.MAX_FREQUENCY_GHZ
LIMITS = [0.0, -0.0, 5e-324, -5e-324, MIN_SIGMA_GHZ, math.nextafter(MIN_SIGMA_GHZ, 0.0),
          math.nextafter(MIN_SIGMA_GHZ, 1.0), MAX_GHZ, -MAX_GHZ, math.nextafter(MAX_GHZ, 0.0),
          math.nextafter(MAX_GHZ, math.inf), math.nextafter(-MAX_GHZ, -math.inf),
          math.nan, math.inf, -math.inf]
PLAIN_VALUES = st.floats(0.5, 9.5) | st.sampled_from([0.001, 0.013, DEFAULT_SIGMA_GHZ])
ODD_VALUES = (st.integers(-2, 10**6 + 1) | st.booleans() | st.sampled_from([None, "x", " 5 ", "nan"])
              | (PLAIN_VALUES | st.sampled_from(LIMITS)).map(repr))
VALID_RECORDS = st.tuples(PLAIN_VALUES | st.sampled_from([5e-324, MAX_GHZ]),
                          PLAIN_VALUES | st.sampled_from([0.0, -0.0, MAX_GHZ, -MAX_GHZ]),
                          PLAIN_VALUES | st.sampled_from([MIN_SIGMA_GHZ]))


@st.composite
def peak_record_inputs(draw):
    """One record as a caller may pass it: valid, at a limit, mistyped, of the wrong
    length or not iterable, as a tuple, list, numpy row or PeakRecord."""
    kind = draw(st.sampled_from(["valid"] * 8 + ["any"] * 8 + ["wrong length", "not iterable"]))
    if kind == "not iterable":
        return draw(st.sampled_from([None, 5.0, 7, "12", "1x"]))
    value = st.one_of(PLAIN_VALUES, st.sampled_from(LIMITS), st.sampled_from(LIMITS), ODD_VALUES)
    if kind == "valid":
        values = list(draw(VALID_RECORDS))[:draw(st.sampled_from([2, 3]))]
    else:
        sizes = [2, 3] if kind == "any" else [0, 1, 4]
        values = [draw(value) for _ in range(draw(st.sampled_from(sizes)))]
    as_floats = all(type(v) is float for v in values)
    row = np.array(values, dtype=np.float64 if as_floats else object)
    shapes = [tuple(values), values, row] + ([PeakRecord(*values)] if len(values) in (2, 3) else [])
    return draw(st.sampled_from(shapes))


def dataset_outcome(build, argument):
    """What build(argument) makes: its exception's type and message, or its records
    and the bits of its columns."""
    try:
        data = build(argument)
    except Exception as error:
        return type(error), str(error)
    return repr(data.records), [(a.dtype.str, a.shape, a.tobytes()) for a in data._columns]


def record_loop_dataset_from_csv(text):
    _, data = float_loop_read_numeric_csv(
        text, ("omega_m_ghz,omega_peak_ghz", "omega_m_ghz,omega_peak_ghz,sigma_ghz"))
    with model.anchored(""):
        return RecordLoopPeakDataset(records=data.tolist())


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(peak_record_inputs(), max_size=6))
def test_peak_dataset_equals_the_record_loop_oracle(records):
    assert (dataset_outcome(lambda r: PeakDataset(records=r), records)
            == dataset_outcome(lambda r: RecordLoopPeakDataset(records=r), records))
    rows = []
    for record in records:
        with contextlib.suppress(TypeError, ValueError):
            values = tuple(map(float, record))
            if len(values) in (2, 3):
                rows.append(PeakRecord(*values))
    for header, width in (("omega_m_ghz,omega_peak_ghz", 2),
                          ("omega_m_ghz,omega_peak_ghz,sigma_ghz", 3)):
        text = "".join("\n" + ",".join(map(repr, row[:width])) for row in rows)
        assert (dataset_outcome(dataset_from_csv, header + text + "\n")
                == dataset_outcome(record_loop_dataset_from_csv, header + text + "\n"))


def test_dataset_from_csv_with_sigma_column():
    text = (
        "omega_m_ghz,omega_peak_ghz,sigma_ghz\n"
        "5.1,4.52,0.001\n"
        "5.2,6.21,0.004\n"
    )
    data = dataset_from_csv(text)
    assert data.records == (
        PeakRecord(5.1, 4.52, 0.001),
        PeakRecord(5.2, 6.21, 0.004),
    )


def test_dataset_from_csv_defaults_sigma():
    text = "omega_m_ghz,omega_peak_ghz\n5.1,4.52\n5.3,5.0\n"
    data = dataset_from_csv(text)
    assert all(r.sigma == DEFAULT_SIGMA_GHZ for r in data.records)
    assert DEFAULT_SIGMA_GHZ == 0.0025


def test_dataset_from_csv_rejects_malformed_input():
    with pytest.raises(SchemaError, match="header"):
        dataset_from_csv("omega_m,omega_peak\n5.1,4.52\n")
    with pytest.raises(SchemaError, match="line 2"):
        dataset_from_csv("omega_m_ghz,omega_peak_ghz\n5.1\n")
    with pytest.raises(SchemaError, match="line 3"):
        dataset_from_csv("omega_m_ghz,omega_peak_ghz\n5.1,4.5\n5.2,abc\n")
    with pytest.raises(SchemaError, match="no data"):
        dataset_from_csv("omega_m_ghz,omega_peak_ghz\n")


def test_dataset_from_csv_skips_blank_lines_and_counts_them():
    text = "\n\nomega_m_ghz,omega_peak_ghz\n5.1,4.52\n\n5.3,5.0\n"
    assert dataset_from_csv(text).records == (PeakRecord(5.1, 4.52), PeakRecord(5.3, 5.0))
    with pytest.raises(SchemaError, match="^line 6: expected 2 columns, got 3$"):
        dataset_from_csv(text.replace("5.3,5.0", "5.3,5.0,0.001"))
    with pytest.raises(SchemaError, match="^line 6: expected finite numbers$"):
        dataset_from_csv(text.replace("5.3,5.0", "5.3,nan"))


# ====== fit spec validation ======


def test_fitspec_rejects_unknown_or_non_photon_labels():
    with pytest.raises(ValueError, match="photon"):
        two_tone_spec(free_photon_frequencies=("c1", "m1"))
    with pytest.raises(ValueError, match="photon"):
        two_tone_spec(free_couplings=("nope",))
    with pytest.raises(ValueError, match="duplicate"):
        two_tone_spec(free_couplings=("c1", "c1"))


def test_fitspec_rejects_bad_hypotheses():
    with pytest.raises(ValueError, match="loop"):
        two_tone_spec(theta_hypotheses=((math.pi, 0.0),))
    with pytest.raises(ValueError, match="at least one"):
        two_tone_spec(theta_hypotheses=())
    with pytest.raises(ValueError, match="finite"):
        two_tone_spec(theta_hypotheses=((math.nan,),))


def test_fitspec_rejects_bad_bounds():
    with pytest.raises(ValueError, match="finite"):
        two_tone_spec(bounds={"omega_c:c1": (4.0, math.inf)})
    with pytest.raises(ValueError, match="below"):
        two_tone_spec(bounds={"g:c1": (0.2, 0.1)})
    with pytest.raises(ValueError, match="not a parameter"):
        two_tone_spec(bounds={"g:m1": (0.0, 0.2)})
    with pytest.raises(ValueError, match=r"^bounds for 'omega_c:c1' must be <= 1e\+06 GHz$"):
        two_tone_spec(bounds={"omega_c:c1": (0.1, 1e300)})
    with pytest.raises(ValueError, match=r"^bounds for 'g:c1' must be within \+-1e\+06 GHz$"):
        two_tone_spec(bounds={"g:c1": (0, 1e7)})
    spec = two_tone_spec(bounds={"omega_c:c1": (0.1, 1e6), "g:c1": (0, 1e6)})
    assert spec.bounds == {"omega_c:c1": (0.1, 1e6), "g:c1": (0.0, 1e6)}


def test_fitspec_rejects_a_frequency_lower_bound_at_or_below_zero_after_the_other_checks():
    for pair in ((-5.0, 5.0), (0.0, 5.0)):
        with pytest.raises(ValueError, match=r"^bounds for 'omega_c:c1' must be > 0 GHz$"):
            two_tone_spec(bounds={"omega_c:c1": pair})
    with pytest.raises(ValueError, match=r"^bounds for 'omega_c:c1' must be finite$"):
        two_tone_spec(bounds={"omega_c:c1": (-math.inf, 5.0)})
    with pytest.raises(ValueError, match="^bounds for 'omega_c:c1': upper end -6 is below"):
        two_tone_spec(bounds={"omega_c:c1": (-5.0, -6.0)})
    with pytest.raises(ValueError, match=r"^bounds for 'omega_c:c1' must be <= 1e\+06 GHz$"):
        two_tone_spec(bounds={"omega_c:c1": (-5.0, 1e7)})
    assert two_tone_spec(bounds={"omega_c:c1": (1e-9, 5)}).bounds == {"omega_c:c1": (1e-9, 5.0)}
    # the lower-bound floor is for frequencies only: a coupling may still be negative
    assert two_tone_spec(bounds={"g:c1": (-0.2, 0.2)}).bounds == {"g:c1": (-0.2, 0.2)}


def edgeless_photon_template():
    """Photons c1 at 4.5 and c2 at 6.0 GHz and a swept magnon m1; only c1-m1 is an edge."""
    return SystemModel(
        modes=(ModeSpec("c1", "photon", 4.5), ModeSpec("c2", "photon", 6.0),
               ModeSpec("m1", "magnon", 5.0)),
        edges=(CouplingEdge("c1", "m1", 50.0, 0.0),),
        magnon_sweep_target=frozenset({"m1"}),
    )


def test_fitspec_rejects_a_free_coupling_on_a_photon_without_an_edge():
    with pytest.raises(ValueError, match=r"^free coupling 'c2': the photon has no coupling edge$"):
        FitSpec(edgeless_photon_template(), free_couplings=("c1", "c2"))
    # the photon's frequency may still be free: it moves the photon's own bare branch
    system = edgeless_photon_template()
    result = fit(FitSpec(system, free_photon_frequencies=("c2",)),
                 branch_records(system, (4.8, 5.2)), (5.9,))
    assert result.converged
    assert abs(result.params["omega_c:c2"] - 6.0) < 1e-4


def test_parameter_names_order_frequencies_then_couplings():
    spec = two_tone_spec()
    assert spec.parameter_names() == ("omega_c:c1", "omega_c:c2", "g:c1", "g:c2")


def test_fit_rejects_bad_initial():
    spec = two_tone_spec()
    data = branch_records(fit_device(), ANTICROSSING_GRID)
    with pytest.raises(ValueError, match="4 parameters"):
        fit(spec, data, (4.5, 6.2, 0.08))
    with pytest.raises(ValueError, match="bounds"):
        fit(spec, data, (4.5, 6.2, 0.08, 9.9), )


# ====== fitting ======


def test_fit_recovers_noise_free_truth_and_selects_pi():
    truth_system = fit_device()
    data = branch_records(truth_system, ANTICROSSING_GRID)
    initial = (4.512, 6.205, 0.060, 0.100)
    result = fit(two_tone_spec(), data, initial)
    assert result.theta_assignment == (math.pi,)
    fitted = result.params
    assert abs(fitted["omega_c:c1"] - 4.527) < 1e-4
    assert abs(fitted["omega_c:c2"] - 6.19) < 1e-4
    assert abs(fitted["g:c1"] - 0.081) < 1e-4
    assert abs(fitted["g:c2"] - 0.120) < 1e-4
    assert result.residual < 1e-3
    assert result.converged
    assert not result.ambiguous


def test_fit_selects_zero_when_truth_has_no_loop_phase():
    truth_system = fit_device((0.0, 0.0, 0.0, 0.0))
    data = branch_records(truth_system, ANTICROSSING_GRID)
    result = fit(two_tone_spec(), data, (4.512, 6.205, 0.060, 0.100))
    assert result.theta_assignment == (0.0,)
    assert result.residual < 1e-3
    assert not result.ambiguous


def test_fit_orders_hypotheses_by_given_sequence():
    truth_system = fit_device()
    data = branch_records(truth_system, ANTICROSSING_GRID)
    result = fit(two_tone_spec(), data, (4.512, 6.205, 0.060, 0.100))
    assert len(result.per_hypothesis) == 2
    assert result.per_hypothesis[0].theta_assignment == (math.pi,)
    assert result.per_hypothesis[1].theta_assignment == (0.0,)
    best = min(h.residual for h in result.per_hypothesis)
    assert result.residual == best
    assert result.per_hypothesis[0].residual < result.per_hypothesis[1].residual


def test_fit_flags_dispersive_data_as_ambiguous():
    # Far below both photon lines only the photon-like peaks are visible in
    # transmission, and their dispersive shifts carry no loop-phase signature:
    # either hypothesis reaches the same noise floor.
    truth_system = fit_device()
    data = branch_records(
        truth_system,
        DISPERSIVE_GRID,
        noise=0.001,
        rng=np.random.default_rng(21),
        branches=(2, 3),
    )
    result = fit(two_tone_spec(), data, (4.527, 6.19, 0.081, 0.120))
    assert result.ambiguous
    eps = 1e-12 * len(data.records)
    residuals = sorted(h.residual for h in result.per_hypothesis)
    assert (residuals[1] + eps) / (residuals[0] + eps) < 1.05


def test_fit_theta_discrimination_is_symmetric():
    spec = two_tone_spec()
    initial = (4.52, 6.195, 0.078, 0.118)
    for truth_phases, winner in (((0.0, math.pi, 0.0, 0.0), math.pi),
                                 ((0.0, 0.0, 0.0, 0.0), 0.0)):
        data = branch_records(fit_device(truth_phases), ANTICROSSING_GRID)
        by_theta = {
            h.theta_assignment[0]: h.residual
            for h in fit(spec, data, initial).per_hypothesis
        }
        loser = 0.0 if winner == math.pi else math.pi
        assert by_theta[winner] < by_theta[loser]


def test_fit_respects_bounds():
    truth_system = fit_device()
    data = branch_records(truth_system, ANTICROSSING_GRID)
    spec = two_tone_spec(bounds={"g:c1": (0.086, 0.3)})
    result = fit(spec, data, (4.512, 6.205, 0.090, 0.100))
    assert result.params["g:c1"] >= 0.086 - 1e-12
    assert result.params["g:c1"] < 0.0875


def test_fit_reports_best_so_far_when_iteration_capped():
    truth_system = fit_device()
    data = branch_records(truth_system, ANTICROSSING_GRID)
    initial = (4.512, 6.205, 0.060, 0.100)
    result = fit(two_tone_spec(), data, initial, max_iterations=2)
    assert not result.converged
    assert math.isfinite(result.residual)
    start = residual(two_tone_spec(), initial, (math.pi,), data)
    assert result.residual <= start


def test_an_iteration_cap_of_one_is_accepted():
    data = branch_records(fit_device(), ANTICROSSING_GRID)
    assert not fit(two_tone_spec(), data, (4.512, 6.205, 0.060, 0.100), 1).converged
    document = {"free_couplings": ["c1"], "theta_hypotheses": [["pi"]], "initial": [0.08],
                "max_iterations": 1}
    assert fit_spec_from_document(document, fit_device())[2] == 1


@pytest.mark.parametrize("bad", [0, -3, True, 2.5])
def test_fit_rejects_a_max_iterations_that_is_not_a_positive_int(bad):
    data = branch_records(fit_device(), (5.0,))
    with pytest.raises(ValueError, match=r"^max_iterations: expected a positive integer$"):
        fit(two_tone_spec(), data, TRUTH, max_iterations=bad)


def test_fit_is_deterministic():
    truth_system = fit_device()
    data = branch_records(
        truth_system, ANTICROSSING_GRID, noise=0.001, rng=np.random.default_rng(3)
    )
    initial = (4.512, 6.205, 0.060, 0.100)
    a = fit(two_tone_spec(), data, initial)
    b = fit(two_tone_spec(), data, initial)
    assert a.params == b.params
    assert a.residual == b.residual
    assert a.theta_assignment == b.theta_assignment


def test_fit_with_noise_stays_near_truth():
    truth_system = fit_device()
    data = branch_records(
        truth_system, ANTICROSSING_GRID, noise=0.001, rng=np.random.default_rng(11)
    )
    result = fit(two_tone_spec(), data, (4.52, 6.195, 0.078, 0.118))
    assert result.theta_assignment == (math.pi,)
    for name, truth_value in zip(
        ("omega_c:c1", "omega_c:c2", "g:c1", "g:c2"), TRUTH
    ):
        assert abs(result.params[name] - truth_value) < 0.002


# ====== continuous loop-phase mode ======


def test_continuous_theta_recovers_pi():
    truth_system = fit_device()
    data = branch_records(truth_system, ANTICROSSING_GRID)
    spec = two_tone_spec(theta_hypotheses=((2.0,),), continuous_theta=True)
    result = fit(spec, data, (4.52, 6.195, 0.078, 0.118))
    assert len(result.theta_assignment) == 1
    assert abs(fold_phase(result.theta_assignment[0] - math.pi)) < 0.05
    assert result.residual < 1e-4
    assert not result.ambiguous


def test_continuous_theta_requires_single_seed():
    with pytest.raises(ValueError, match="exactly one"):
        two_tone_spec(
            theta_hypotheses=((2.0,), (0.0,)), continuous_theta=True
        )


def test_a_loop_phase_bound_keeps_the_continuous_fit_inside_its_box():
    data = branch_records(fit_device(), ANTICROSSING_GRID)
    initial = (4.52, 6.195, 0.078, 0.118)
    free = fit(two_tone_spec(theta_hypotheses=((2.0,),), continuous_theta=True), data, initial)
    spec = two_tone_spec(theta_hypotheses=((2.0,),), continuous_theta=True,
                         bounds={"theta:0": (1.5, 2.5)})
    result = fit(spec, data, initial)
    assert spec.bounds == {"theta:0": (1.5, 2.5)}
    # the truth, pi, lies above the box: the descent ends at its upper end
    assert 2.49 < result.theta_assignment[0] <= 2.5
    assert result.residual > free.residual


@pytest.mark.parametrize(
    "seed, bounds, message",
    [
        (7.0, {}, r"^initial value 7 for 'theta:0' is outside its bounds \[-6.28319, 6.28319\]$"),
        (2.0, {"theta:0": (2.5, 3.0)},
         r"^initial value 2 for 'theta:0' is outside its bounds \[2.5, 3\]$"),
    ],
)
def test_a_loop_phase_seed_outside_its_bounds_is_rejected(seed, bounds, message):
    spec = two_tone_spec(theta_hypotheses=((seed,),), continuous_theta=True, bounds=bounds)
    data = branch_records(fit_device(), ANTICROSSING_GRID)
    with pytest.raises(ValueError, match=message):
        fit(spec, data, (4.52, 6.195, 0.078, 0.118))


@pytest.mark.parametrize("end", [0, 1], ids=["lower", "upper"])
def test_a_start_on_either_end_of_its_bounds_is_accepted(end):
    bounds = {"g:c1": (0.07, 0.09), "theta:0": (2.5, 3.0)}
    spec = two_tone_spec(theta_hypotheses=((bounds["theta:0"][end],),), continuous_theta=True,
                         bounds=bounds)
    initial = (4.52, 6.195, bounds["g:c1"][end], 0.118)
    data = branch_records(fit_device(), ANTICROSSING_GRID)
    (theta,) = fit(spec, data, initial, 1).theta_assignment
    assert bounds["theta:0"][0] <= theta <= bounds["theta:0"][1]
    document = {"free_couplings": ["c1"], "theta_hypotheses": [[spec.theta_hypotheses[0][0]]],
                "continuous_theta": True, "initial": [bounds["g:c1"][end]],
                "bounds": {name: list(pair) for name, pair in bounds.items()}}
    assert fit_spec_from_document(document, fit_device())[1] == (bounds["g:c1"][end],)


def test_a_loop_phase_bound_is_not_a_parameter_of_a_discrete_fit():
    with pytest.raises(ValueError, match=r"^bound 'theta:0' is not a parameter of this fit$"):
        two_tone_spec(bounds={"theta:0": (0.0, 1.0)})
    with pytest.raises(ValueError, match=r"^bound 'theta:1' is not a parameter of this fit$"):
        two_tone_spec(theta_hypotheses=((2.0,),), continuous_theta=True,
                      bounds={"theta:1": (0.0, 1.0)})


@pytest.mark.parametrize(
    "overrides", [{}, {"theta_hypotheses": ((2.0,),), "continuous_theta": True}],
    ids=["discrete", "continuous"])
def test_fit_result_is_its_winning_hypothesis_fit(overrides):
    spec = two_tone_spec(**overrides)
    data = branch_records(fit_device(), ANTICROSSING_GRID)
    result = fit(spec, data, (4.52, 6.195, 0.078, 0.118), 200)
    assert isinstance(result, HypothesisFit)
    assert len(result.per_hypothesis) == len(spec.theta_hypotheses)
    winner = min(result.per_hypothesis, key=lambda h: h.residual)
    shared = {f.name: getattr(result, f.name) for f in dataclasses.fields(HypothesisFit)}
    assert shared == vars(winner)


# ====== fits with no free parameter ======


def ambiguous_by_rule(residuals, data):
    ordered = sorted(residuals)
    eps = 1e-12 * len(data.records)
    return (ordered[1] + eps) / (ordered[0] + eps) < AMBIGUITY_RATIO


@pytest.mark.parametrize("hypotheses", [((math.pi,), (0.0,)), ((math.pi,), (math.pi,))])
def test_fit_with_no_free_parameter_reports_each_residual_without_a_simplex(
        monkeypatch, hypotheses):
    def no_simplex(*args):
        raise AssertionError("no simplex runs without a free parameter")

    monkeypatch.setattr(calibrate, "_nelder_mead", no_simplex)
    spec = two_tone_spec(free_photon_frequencies=(), free_couplings=(),
                         theta_hypotheses=hypotheses)
    data = branch_records(fit_device(), ANTICROSSING_GRID)
    result = fit(spec, data, ())
    residuals = [residual(spec, (), h, data) for h in hypotheses]
    assert [h.theta_assignment for h in result.per_hypothesis] == list(hypotheses)
    assert [h.residual for h in result.per_hypothesis] == residuals
    assert all(h.converged and h.params == {} for h in result.per_hypothesis)
    assert (result.params, result.residual, result.converged) == ({}, min(residuals), True)
    assert result.ambiguous == ambiguous_by_rule(residuals, data)
    assert result.ambiguous == (hypotheses[0] == hypotheses[1])


def test_a_residual_ratio_at_the_ambiguity_ratio_is_not_ambiguous(monkeypatch):
    # the rule is ratio < AMBIGUITY_RATIO: at the ratio itself the fit is decided
    spec = two_tone_spec(free_photon_frequencies=(), free_couplings=(),
                         theta_hypotheses=((math.pi,), (2.0,)))
    data = branch_records(fit_device(), ANTICROSSING_GRID)
    low, high = sorted(residual(spec, (), h, data) for h in spec.theta_hypotheses)
    eps = 1e-12 * len(data.records)
    ratio = (high + eps) / (low + eps)
    monkeypatch.setattr(calibrate, "AMBIGUITY_RATIO", ratio)
    assert not fit(spec, data, ()).ambiguous
    monkeypatch.setattr(calibrate, "AMBIGUITY_RATIO", float(np.nextafter(ratio, math.inf)))
    assert fit(spec, data, ()).ambiguous


# ====== the bounded simplex against scipy's ======


def scipy_nelder_mead(objective, x0, lower, upper, max_iterations, xatol, max_evaluations):
    """The oracle: scipy.optimize.minimize on the options the port stands for."""
    from scipy.optimize import minimize

    options = {"maxiter": max_iterations, "maxfev": max_evaluations, "xatol": xatol,
               "fatol": math.inf}
    return minimize(objective, x0, method="Nelder-Mead", bounds=list(zip(lower, upper)),
                    options=options)


def simplex_problem(seed):
    """A seeded bounded objective in 1-5 dimensions with its start and caps.

    Starts cycle through the interior, the lower bound, the upper bound and
    the origin clipped into the box (the zero-coordinate step); minima may lie
    outside the box, and every third objective is rounded so that ties test
    both contraction rules and the reordering.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    lower = rng.uniform(-3.0, 1.0, n)
    upper = lower + rng.uniform(0.5, 4.0, n)
    centre = rng.uniform(lower - 0.5, upper + 0.5)
    weights = rng.uniform(0.1, 5.0, n)
    x0 = (rng.uniform(lower, upper), lower.copy(), upper.copy(),
          np.clip(np.zeros(n), lower, upper))[seed % 4]

    def objective(x):
        value = float(np.sum(weights * (x - centre) ** 2) + 0.3 * math.sin(3.0 * x[0]))
        return round(value, 1) if seed % 3 == 0 else value

    max_iterations = int(rng.choice([1, 2, 5, 17, 60, 5000]))
    max_evaluations = int(rng.choice([1, 3, 7, 25, 10**7]))
    xatol = float(rng.choice([1e-6, 1e-3]))
    return objective, x0, lower, upper, max_iterations, xatol, max_evaluations


def test_nelder_mead_takes_scipys_steps_on_seeded_bounded_objectives():
    statuses = []
    for seed in range(1200):
        problem = simplex_problem(seed)
        want = scipy_nelder_mead(*problem)
        got = _nelder_mead(*problem)
        assert got.x.tobytes() == want.x.tobytes(), seed
        assert (got.fun, got.nit, got.nfev, got.success) == (
            want.fun, want.nit, want.nfev, want.success), seed
        statuses.append(want.status)
    # converged runs, evaluation-capped runs and iteration-capped runs all occur
    assert min(statuses.count(status) for status in (0, 1, 2)) >= 100


def signed_zero_problem(seed):
    """A seeded bounded objective whose box ends at 0.0 or -0.0 in every coordinate,
    as the default (0.0, 2.0) coupling box does, started on those ends.

    Each coordinate's box is one of (0.0, 2.0), (-0.0, 2.0), (-2.0, 0.0) and
    (-2.0, -0.0); its start is its zero end or the zero of the other sign, and
    the minimum often lies beyond that end, so clips land on signed zeros.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    boxes = [((0.0, 2.0), (-0.0, 2.0), (-2.0, 0.0), (-2.0, -0.0))[k]
             for k in rng.integers(0, 4, n)]
    lower, upper = (np.array(ends) for ends in zip(*boxes))
    ends = np.where(lower == 0, lower, upper)
    x0 = np.where(rng.uniform(size=n) < 0.5, ends, -ends)
    centre = np.where(lower == 0, -1.0, 1.0) * rng.uniform(-0.5, 1.0, n)
    weights = rng.uniform(0.1, 5.0, n)

    def objective(x):
        return float(np.sum(weights * (x - centre) ** 2))

    max_iterations = int(rng.choice([1, 3, 17, 5000]))
    max_evaluations = int(rng.choice([2, 9, 10**7]))
    return objective, x0, lower, upper, max_iterations, 1e-6, max_evaluations


def test_nelder_mead_takes_scipys_steps_from_signed_zero_bounds():
    for seed in range(300):
        problem = signed_zero_problem(seed)
        want = scipy_nelder_mead(*problem)
        got = _nelder_mead(*problem)
        assert got.x.tobytes() == want.x.tobytes(), seed
        assert (got.fun, got.nit, got.nfev, got.success) == (
            want.fun, want.nit, want.nfev, want.success), seed


def test_nelder_mead_stops_when_the_simplex_diameter_equals_xatol():
    # scipy stops on max |vertex - best| <= xatol, so a diameter of exactly xatol ends
    # the descent after the initial simplex, and one ulp less does not
    def objective(x):
        return float((x[0] - 3.0) ** 2)

    x0, lower, upper = np.array([1.0]), np.array([-10.0]), np.array([10.0])
    diameter = (1 + 0.05) * 1.0 - 1.0
    for xatol, first in ((diameter, True), (float(np.nextafter(diameter, 0.0)), False)):
        want = scipy_nelder_mead(objective, x0, lower, upper, 5000, xatol, 10**7)
        got = _nelder_mead(objective, x0, lower, upper, 5000, xatol, 10**7)
        assert (got.x.tobytes(), got.nit, got.nfev) == (want.x.tobytes(), want.nit, want.nfev)
        assert (got.nit, got.nfev) == (1, 2) if first else got.nit > 1


@pytest.mark.parametrize("max_iterations", [5000, 40])
def test_fit_equals_the_fit_on_scipys_simplex(monkeypatch, max_iterations):
    # the acceptance-11 device, clean and noisy
    initial = (4.52, 6.195, 0.078, 0.118)
    for noise in (None, 0.001):
        data = branch_records(fit_device(), ANTICROSSING_GRID, noise=noise,
                              rng=np.random.default_rng(5150))
        ours = fit(two_tone_spec(), data, initial, max_iterations)
        with monkeypatch.context() as patch:
            patch.setattr(calibrate, "_nelder_mead", scipy_nelder_mead)
            theirs = fit(two_tone_spec(), data, initial, max_iterations)
        assert repr(ours) == repr(theirs)
        assert ours.converged == (max_iterations == 5000)
