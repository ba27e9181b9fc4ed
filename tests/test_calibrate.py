"""Tests for peak-data calibration: residuals, hypothesis fits, CSV input."""

import dataclasses
import math

import numpy as np
import pytest

from loopmag.calibrate import (
    DEFAULT_SIGMA_GHZ,
    MIN_SIGMA_GHZ,
    FitSpec,
    PeakDataset,
    PeakRecord,
    dataset_from_csv,
    fit,
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


# ====== device builders ======


def two_tone_template(phases=(0.0, math.pi, 0.0, 0.0)):
    """Two photons, two degenerate swept magnons, four coupling edges."""
    p1, p2, p3, p4 = phases
    return SystemModel(
        modes=(
            ModeSpec("c1", "photon", 4.527),
            ModeSpec("c2", "photon", 6.19),
            ModeSpec("m1", "magnon", 5.36),
            ModeSpec("m2", "magnon", 5.36),
        ),
        edges=(
            CouplingEdge("c1", "m1", 81.0, p1),
            CouplingEdge("c1", "m2", 81.0, p2),
            CouplingEdge("c2", "m1", 120.0, p3),
            CouplingEdge("c2", "m2", 120.0, p4),
        ),
        magnon_sweep_target=frozenset({"m1", "m2"}),
    )


def two_tone_spec(**overrides):
    kwargs = dict(
        base_system=two_tone_template(),
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
    system = SystemModel(
        modes=(
            ModeSpec("c1", "photon", 6.594),
            ModeSpec("c2", "photon", 7.562),
            ModeSpec("c3", "photon", 8.619),
            ModeSpec("m1", "magnon", 7.5),
            ModeSpec("m2", "magnon", 7.5),
        ),
        edges=(
            CouplingEdge("c1", "m1", 130.0, -math.pi / 2),
            CouplingEdge("c1", "m2", 130.0, -math.pi / 2),
            CouplingEdge("c2", "m1", 150.0, math.pi / 2),
            CouplingEdge("c2", "m2", 150.0, -math.pi / 2),
            CouplingEdge("c3", "m1", 104.0, math.pi / 2),
            CouplingEdge("c3", "m2", 104.0, -math.pi / 2),
        ),
        magnon_sweep_target=frozenset({"m1", "m2"}),
    )
    return FitSpec(
        base_system=system,
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
    system = two_tone_template()
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
    data = branch_records(two_tone_template(), (5.0,))
    for bad in (0.0, -4.5):
        with pytest.raises(ValueError, match="'c1': frequency must be finite and > 0"):
            residual(spec, (bad, 6.19, 0.081, 0.120), (math.pi,), data)


def test_residual_is_zero_on_exact_branch_data():
    system = two_tone_template()
    data = branch_records(system, ANTICROSSING_GRID)
    assert residual(two_tone_spec(), TRUTH, (math.pi,), data) == 0.0


def test_residual_counts_uniform_sigma_offsets():
    system = two_tone_template()
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
    system = two_tone_template()
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
    system = two_tone_template()
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
    data = branch_records(two_tone_template(), (5.0,))
    with pytest.raises(ValueError, match="4 parameters"):
        residual(spec, (4.5, 6.2, 0.08), (math.pi,), data)
    with pytest.raises(ValueError, match="loop"):
        residual(spec, TRUTH, (math.pi, 0.0), data)
    with pytest.raises(ValueError, match="finite"):
        residual(spec, (4.5, math.nan, 0.08, 0.12), (math.pi,), data)


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


def test_parameter_names_order_frequencies_then_couplings():
    spec = two_tone_spec()
    assert spec.parameter_names() == ("omega_c:c1", "omega_c:c2", "g:c1", "g:c2")


def test_fit_rejects_bad_initial():
    spec = two_tone_spec()
    data = branch_records(two_tone_template(), ANTICROSSING_GRID)
    with pytest.raises(ValueError, match="4 parameters"):
        fit(spec, data, (4.5, 6.2, 0.08))
    with pytest.raises(ValueError, match="bounds"):
        fit(spec, data, (4.5, 6.2, 0.08, 9.9), )


# ====== fitting ======


def test_fit_recovers_noise_free_truth_and_selects_pi():
    truth_system = two_tone_template(phases=(0.0, math.pi, 0.0, 0.0))
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
    truth_system = two_tone_template(phases=(0.0, 0.0, 0.0, 0.0))
    data = branch_records(truth_system, ANTICROSSING_GRID)
    result = fit(two_tone_spec(), data, (4.512, 6.205, 0.060, 0.100))
    assert result.theta_assignment == (0.0,)
    assert result.residual < 1e-3
    assert not result.ambiguous


def test_fit_orders_hypotheses_by_given_sequence():
    truth_system = two_tone_template(phases=(0.0, math.pi, 0.0, 0.0))
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
    truth_system = two_tone_template(phases=(0.0, math.pi, 0.0, 0.0))
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
        data = branch_records(two_tone_template(truth_phases), ANTICROSSING_GRID)
        by_theta = {
            h.theta_assignment[0]: h.residual
            for h in fit(spec, data, initial).per_hypothesis
        }
        loser = 0.0 if winner == math.pi else math.pi
        assert by_theta[winner] < by_theta[loser]


def test_fit_respects_bounds():
    truth_system = two_tone_template(phases=(0.0, math.pi, 0.0, 0.0))
    data = branch_records(truth_system, ANTICROSSING_GRID)
    spec = two_tone_spec(bounds={"g:c1": (0.086, 0.3)})
    result = fit(spec, data, (4.512, 6.205, 0.090, 0.100))
    assert result.params["g:c1"] >= 0.086 - 1e-12
    assert result.params["g:c1"] < 0.0875


def test_fit_reports_best_so_far_when_iteration_capped():
    truth_system = two_tone_template(phases=(0.0, math.pi, 0.0, 0.0))
    data = branch_records(truth_system, ANTICROSSING_GRID)
    initial = (4.512, 6.205, 0.060, 0.100)
    result = fit(two_tone_spec(), data, initial, max_iterations=2)
    assert not result.converged
    assert math.isfinite(result.residual)
    start = residual(two_tone_spec(), initial, (math.pi,), data)
    assert result.residual <= start


def test_fit_is_deterministic():
    truth_system = two_tone_template(phases=(0.0, math.pi, 0.0, 0.0))
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
    truth_system = two_tone_template(phases=(0.0, math.pi, 0.0, 0.0))
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
    truth_system = two_tone_template(phases=(0.0, math.pi, 0.0, 0.0))
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
