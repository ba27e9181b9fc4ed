"""Tests for field-map integrals: coupling phases, filling factors, strengths."""

import math
import warnings

import numpy as np
import pytest

from loopmag import fieldmap
from loopmag.fieldmap import (
    DEFAULT_CONSTANTS,
    FieldSample,
    FieldTable,
    PhaseUndefinedError,
    PhysicalConstants,
    SphereRegion,
    coupling_phase,
    coupling_strength,
    coupling_table,
    field_table_from_csv,
    filling_factor,
    region_integrals,
    regions_from_document,
)
from loopmag.gauge import reduce_system
from loopmag.model import (MAX_FREQUENCY_GHZ, MAX_RATE_MHZ, CouplingEdge, ModeSpec, SchemaError,
                           SystemModel, fold_phase)
from synthfields import circulating_field, pi_device_posts, sphere_grid

PI = math.pi

A = 0.01  # device length scale in meters
R_SPHERE = 0.2 * A


def sphere_table(center, direction=None, n=(10, 10, 12)):
    positions, weights = sphere_grid(center, R_SPHERE, *n)
    h = np.zeros((len(positions), 3), dtype=np.complex128)
    if direction is not None:
        h[:] = np.asarray(direction, dtype=np.complex128)
    return FieldTable(positions, h, weights)


def mode_table(posts, centers, n=(10, 10, 12)):
    chunks = [sphere_grid(c, R_SPHERE, *n) for c in centers]
    positions = np.concatenate([p for p, _ in chunks])
    weights = np.concatenate([w for _, w in chunks])
    h = circulating_field(positions, posts).astype(np.complex128)
    return FieldTable(positions, h, weights)


def rotated_about_z(table, region_centers, alpha):
    c, s = math.cos(alpha), math.sin(alpha)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    new_table = FieldTable(table.positions @ rot.T, table.h @ rot.T, table.weights)
    new_centers = [rot @ np.asarray(center) for center in region_centers]
    return new_table, new_centers


SPHERE_VOLUME = 4.0 * PI * R_SPHERE**3 / 3.0


# ====== region integrals ======


def test_uniform_fields_give_volume_weighted_integrals():
    region = SphereRegion((0.0, 0.0, 0.0), R_SPHERE, "m1")
    ix, iy = region_integrals(sphere_table((0, 0, 0), (1, 0, 0)), region)
    assert ix == pytest.approx(SPHERE_VOLUME, rel=1e-12)
    assert abs(iy) <= 1e-15 * SPHERE_VOLUME
    ix, iy = region_integrals(sphere_table((0, 0, 0), (0, 1, 0)), region)
    assert abs(ix) <= 1e-15 * SPHERE_VOLUME
    assert iy == pytest.approx(SPHERE_VOLUME, rel=1e-12)
    ix, _ = region_integrals(sphere_table((0, 0, 0), (-1, 0, 0)), region)
    assert ix == pytest.approx(-SPHERE_VOLUME, rel=1e-12)


def test_region_with_no_samples_is_rejected():
    table = sphere_table((0, 0, 0), (1, 0, 0))
    far = SphereRegion((10 * A, 0.0, 0.0), R_SPHERE, "m1")
    with pytest.raises(ValueError, match="no samples"):
        region_integrals(table, far)


def test_lengths_up_to_the_ceiling_are_accepted_and_beyond_it_rejected():
    assert fieldmap.MAX_LENGTH_M == 1e6
    edge = fieldmap.MAX_LENGTH_M
    FieldTable([[edge, -edge, 0.0]], [[1.0, 0.0, 0.0]], [1.0])
    SphereRegion((edge, 0.0, -edge), edge, "m1")
    with pytest.raises(ValueError, match=r"^positions must be within \+-1e\+06 m$"):
        FieldTable([[0.0, 0.0, 0.0], [0.0, -1.5e6, 0.0]], np.ones((2, 3)), [1.0, 1.0])
    with pytest.raises(ValueError, match=r"^center must be within \+-1e\+06 m$"):
        SphereRegion((0.0, 0.0, 1e200), 1.0, "m1")
    with pytest.raises(ValueError, match=r"^radius must be <= 1e\+06 m$"):
        SphereRegion((0.0, 0.0, 0.0), 1e300, "m1")
    # the existing checks come first
    with pytest.raises(ValueError, match="weights must be > 0"):
        FieldTable([[1e200, 0.0, 0.0]], [[1.0, 0.0, 0.0]], [0.0])
    with pytest.raises(ValueError, match="radius must be finite and > 0"):
        SphereRegion((1e200, 0.0, 0.0), -1.0, "m1")


def test_field_sample_list_matches_columnar_table():
    table = sphere_table((0, 0, 0), (0.3, -0.8, 0.1))
    samples = [
        FieldSample(tuple(p), tuple(h), float(w))
        for p, h, w in zip(table.positions, table.h, table.weights)
    ]
    region = SphereRegion((0.0, 0.0, 0.0), R_SPHERE, "m1")
    assert region_integrals(samples, region) == region_integrals(table, region)
    assert coupling_phase(samples, region) == coupling_phase(table, region)
    assert filling_factor(samples, region) == filling_factor(table, region)


def test_field_sample_validation():
    with pytest.raises(ValueError):
        FieldSample((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        FieldSample((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), -1e-9)
    with pytest.raises(ValueError):
        SphereRegion((0.0, 0.0, 0.0), 0.0, "m1")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_field_data_is_rejected(bad):
    table = sphere_table((0, 0, 0), (1.0, 0.0, 0.0), n=(2, 2, 2))
    columns = {"positions": table.positions, "h": table.h, "weights": table.weights}
    for name in columns:
        broken = dict(columns, **{name: columns[name].copy()})
        broken[name].flat[3] = bad
        with pytest.raises(ValueError, match="%s must be finite" % name):
            FieldTable(**broken)
    with pytest.raises(ValueError, match="center"):
        SphereRegion((0.0, bad, 0.0), R_SPHERE, "m1")
    with pytest.raises(ValueError, match="radius"):
        SphereRegion((0.0, 0.0, 0.0), abs(bad), "m1")
    with pytest.raises(ValueError, match="spin_density"):
        PhysicalConstants(spin_density=abs(bad))


# ====== coupling phase ======


def test_cardinal_directions_give_quarter_turn_phases():
    region = SphereRegion((0.0, 0.0, 0.0), R_SPHERE, "m1")
    cases = [
        ((1, 0, 0), 0.0),
        ((0, 1, 0), PI / 2),
        ((-1, 0, 0), PI),
        ((0, -1, 0), -PI / 2),
    ]
    for direction, expected in cases:
        phase = coupling_phase(sphere_table((0, 0, 0), direction), region)
        assert phase == pytest.approx(expected, abs=1e-12)
        assert -PI < phase <= PI


def test_opposite_fields_at_two_spheres_differ_by_pi():
    centers = [(A / 2, 0.0, 0.0), (-A / 2, 0.0, 0.0)]
    chunks = [sphere_grid(c, R_SPHERE, 10, 10, 12) for c in centers]
    positions = np.concatenate([p for p, _ in chunks])
    weights = np.concatenate([w for _, w in chunks])
    h = np.zeros((len(positions), 3), dtype=np.complex128)
    h[positions[:, 0] > 0, 0] = 1.0
    h[positions[:, 0] < 0, 0] = -1.0
    table = FieldTable(positions, h, weights)
    phi_1 = coupling_phase(table, SphereRegion(centers[0], R_SPHERE, "m1"))
    phi_2 = coupling_phase(table, SphereRegion(centers[1], R_SPHERE, "m2"))
    assert abs(fold_phase(phi_1 - phi_2)) == pytest.approx(PI, abs=1e-12)


def test_axial_or_vanishing_transverse_field_has_no_phase():
    region = SphereRegion((0.0, 0.0, 0.0), R_SPHERE, "m1")
    with pytest.raises(PhaseUndefinedError):
        coupling_phase(sphere_table((0, 0, 0), (0, 0, 1)), region)
    # transverse part far below the degeneracy floor
    with pytest.raises(PhaseUndefinedError):
        coupling_phase(sphere_table((0, 0, 0), (1e-14, 0, 1.0)), region)


def test_complex_input_is_reduced_by_a_global_phase():
    region = SphereRegion((0.0, 0.0, 0.0), R_SPHERE, "m1")
    real_table = sphere_table((0, 0, 0), (0.6, 0.8, 0.2))
    phi_real = coupling_phase(real_table, region)
    eta_real = filling_factor(real_table, region)
    for factor in (np.exp(0.73j), 1j, -2.5 + 0j, 3e4 * np.exp(-1.1j)):
        scaled = FieldTable(real_table.positions, factor * real_table.h, real_table.weights)
        eta = filling_factor(scaled, region)
        assert eta == pytest.approx(eta_real, rel=1e-12)
        phi = coupling_phase(scaled, region)
        # the real reduction leaves a sign ambiguity only, and resolves it
        # deterministically; the phase can differ by pi at most
        assert min(abs(fold_phase(phi - phi_real)), abs(abs(fold_phase(phi - phi_real)) - PI)) <= 1e-12


# ====== filling factor ======


def test_uniform_transverse_field_filling_the_cavity_gives_eta_one():
    region = SphereRegion((0.0, 0.0, 0.0), R_SPHERE, "m1")
    assert filling_factor(sphere_table((0, 0, 0), (1, 0, 0)), region) == 1.0
    assert filling_factor(sphere_table((0, 0, 0), (0, 0, 1)), region) == 0.0


def test_partial_overlap_gives_square_root_volume_ratio():
    centers = [(A / 2, 0.0, 0.0), (-A / 2, 0.0, 0.0)]
    chunks = [sphere_grid(c, R_SPHERE, 10, 10, 12) for c in centers]
    positions = np.concatenate([p for p, _ in chunks])
    weights = np.concatenate([w for _, w in chunks])
    h = np.zeros((len(positions), 3), dtype=np.complex128)
    h[:, 0] = 1.0
    table = FieldTable(positions, h, weights)
    eta = filling_factor(table, SphereRegion(centers[0], R_SPHERE, "m1"))
    assert eta == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)


def test_zero_energy_mode_is_rejected():
    region = SphereRegion((0.0, 0.0, 0.0), R_SPHERE, "m1")
    with pytest.raises(ValueError, match="zero"):
        filling_factor(sphere_table((0, 0, 0), (0, 0, 0)), region)


def test_filling_factor_never_exceeds_one():
    rng = np.random.default_rng(97)
    positions, weights = sphere_grid((0, 0, 0), R_SPHERE, 8, 8, 8)
    region = SphereRegion((0.0, 0.0, 0.0), R_SPHERE, "m1")
    for _ in range(25):
        h = rng.normal(size=(len(positions), 3)) + 1j * rng.normal(size=(len(positions), 3))
        eta = filling_factor(FieldTable(positions, h, weights), region)
        assert 0.0 <= eta <= 1.0


# ====== coupling strength ======


def test_coupling_strength_frozen_reference_value():
    # independent evaluation of the strength formula at eta = 1, 4.524 GHz
    gamma_over_4pi = 0.5 * 28.0e9
    omega_angular = 2.0 * PI * 4.524e9
    inner = (5.0 / 2.0) * 1.054571817e-34 * 1.25663706212e-6 * 4.22e23
    expected_mhz = gamma_over_4pi * math.sqrt(omega_angular * inner) * 1e-6
    assert abs(expected_mhz - 27.9094) < 1e-3
    assert coupling_strength(1.0, 4.524) == pytest.approx(expected_mhz, rel=1e-12)


def test_coupling_strength_scaling_laws():
    base = coupling_strength(0.37, 4.524)
    assert coupling_strength(0.74, 4.524) == pytest.approx(2.0 * base, rel=1e-14)
    assert coupling_strength(0.37, 4 * 4.524) == pytest.approx(2.0 * base, rel=1e-13)
    assert coupling_strength(0.0, 4.524) == 0.0


def test_coupling_strength_round_trips_through_eta():
    g_unit = coupling_strength(1.0, 4.524)
    eta = 139.0 / g_unit
    assert eta > 1.0  # small sphere, strong coupling: beyond the overlap bound
    assert coupling_strength(eta, 4.524) == pytest.approx(139.0, rel=1e-9)


def test_coupling_strength_validation():
    with pytest.raises(ValueError):
        coupling_strength(-0.1, 4.524)
    with pytest.raises(ValueError):
        coupling_strength(0.5, 0.0)
    with pytest.raises(ValueError):
        PhysicalConstants(gyromagnetic_ratio=-28.0)
    assert DEFAULT_CONSTANTS.spin_density == pytest.approx(4.22e23)


@pytest.mark.parametrize(
    "eta, omega_ghz, message",
    [
        (math.inf, 4.524, "eta must be finite"),
        (0.1, math.inf, "omega_ghz must be finite"),
        (math.nan, 4.524, "eta must be >= 0"),
        (-math.inf, 4.524, "eta must be >= 0"),
        (0.1, math.nan, "omega_ghz must be > 0"),
        (math.inf, math.nan, "omega_ghz must be > 0"),
    ],
)
def test_coupling_strength_rejects_infinite_inputs_after_the_sign_checks(eta, omega_ghz, message):
    with pytest.raises(ValueError) as error:
        coupling_strength(eta, omega_ghz)
    assert str(error.value) == message


def test_coupling_strength_beyond_the_rate_ceiling_is_rejected():
    # eta at which the rate reaches the ceiling that every CouplingEdge enforces
    ceiling_eta = MAX_RATE_MHZ / coupling_strength(1.0, 1.0)
    below = coupling_strength(0.999 * ceiling_eta, 1.0)
    assert CouplingEdge("c1", "m1", below, 0.0).strength == below
    for eta in (1.001 * ceiling_eta, 1e300):  # 1e300 overflows the rate to inf
        with pytest.raises(ValueError, match=r"^coupling strength must be <= 1e\+09 MHz$"):
            coupling_strength(eta, 1.0)


@pytest.mark.parametrize(
    "eta, omega_ghz, message",
    [
        # a zero filling factor at a huge frequency is blamed on the frequency, not the rate
        (0.0, 1e300, "omega_ghz must be <= 1e+06 GHz"),
        (0.1, math.nextafter(MAX_FREQUENCY_GHZ, math.inf), "omega_ghz must be <= 1e+06 GHz"),
        # the sign and finite checks still come first
        (-1.0, 1e300, "eta must be >= 0"),
        (0.1, -1e300, "omega_ghz must be > 0"),
        (math.inf, 1e300, "eta must be finite"),
        # and the rate ceiling last
        (1e300, MAX_FREQUENCY_GHZ, "coupling strength must be <= 1e+09 MHz"),
    ],
)
def test_coupling_strength_beyond_the_frequency_ceiling_is_rejected(eta, omega_ghz, message):
    with pytest.raises(ValueError) as error:
        coupling_strength(eta, omega_ghz)
    assert str(error.value) == message


def test_coupling_strength_at_the_frequency_ceiling_is_accepted():
    assert coupling_strength(0.0, MAX_FREQUENCY_GHZ) == 0.0
    assert coupling_strength(0.5, MAX_FREQUENCY_GHZ) == pytest.approx(
        0.5 * coupling_strength(1.0, 1.0) * math.sqrt(MAX_FREQUENCY_GHZ), rel=1e-12
    )


# ====== synthetic circulation patterns ======


def test_two_post_circulation_reproduces_quarter_phase_pattern():
    mode1_posts, mode2_posts = pi_device_posts(A)
    centers = [(A / 2, 0.0, 0.0), (-A / 2, 0.0, 0.0)]
    regions = [
        SphereRegion(centers[0], R_SPHERE, "m1"),
        SphereRegion(centers[1], R_SPHERE, "m2"),
    ]
    table1 = mode_table(mode1_posts, centers)
    table2 = mode_table(mode2_posts, centers)
    assert coupling_phase(table1, regions[0]) == pytest.approx(-PI / 2, abs=1e-6)
    assert coupling_phase(table1, regions[1]) == pytest.approx(-PI / 2, abs=1e-6)
    assert coupling_phase(table2, regions[0]) == pytest.approx(PI / 2, abs=1e-6)
    assert coupling_phase(table2, regions[1]) == pytest.approx(-PI / 2, abs=1e-6)


def test_coupling_table_feeds_gauge_reduction_with_loop_pi():
    mode1_posts, mode2_posts = pi_device_posts(A)
    centers = [(A / 2, 0.0, 0.0), (-A / 2, 0.0, 0.0)]
    regions = [
        SphereRegion(centers[0], R_SPHERE, "m1"),
        SphereRegion(centers[1], R_SPHERE, "m2"),
    ]
    edges = coupling_table(
        {"c1": mode_table(mode1_posts, centers), "c2": mode_table(mode2_posts, centers)},
        regions,
        {"c1": 4.524, "c2": 6.378},
    )
    assert [(e.photon, e.magnon) for e in edges] == [
        ("c1", "m1"),
        ("c1", "m2"),
        ("c2", "m1"),
        ("c2", "m2"),
    ]
    assert all(e.strength > 0 for e in edges)
    system = SystemModel(
        modes=(
            ModeSpec("c1", "photon", 4.524),
            ModeSpec("c2", "photon", 6.378),
            ModeSpec("m1", "magnon", 5.36),
            ModeSpec("m2", "magnon", 5.36),
        ),
        edges=tuple(edges),
        magnon_sweep_target=frozenset({"m1", "m2"}),
    )
    reduction = reduce_system(system)
    assert len(reduction.physical_phases) == 1
    theta = reduction.physical_phases[0].theta
    assert abs(abs(theta) - PI) <= 1e-6


def test_coupling_table_validation():
    table = sphere_table((0, 0, 0), (1, 0, 0))
    region = SphereRegion((0.0, 0.0, 0.0), R_SPHERE, "m1")
    with pytest.raises(ValueError, match="frequency"):
        coupling_table({"c1": table}, [region], {})
    with pytest.raises(ValueError, match="unique"):
        coupling_table(
            {"c1": table},
            [region, SphereRegion((0.0, 0.0, 0.0), R_SPHERE, "m1")],
            {"c1": 4.5},
        )
    # a region labelled like a photon would make the edge (c1, c1)
    with pytest.raises(ValueError, match=r"^region 'c1': label is also a photon mode$"):
        coupling_table({"c1": table}, [SphereRegion((0.0, 0.0, 0.0), R_SPHERE, "c1")],
                       {"c1": 4.5})


def test_regions_loader_rejects_a_region_labelled_like_a_photon():
    config = {"regions": [{"label": "m1", "center_m": [0, 0, 0], "radius_m": 1.0},
                          {"label": "c2", "center_m": [1, 0, 0], "radius_m": 1.0}],
              "mode_frequencies_ghz": {"c1": 4.5, "c2": 6.2}}
    with pytest.raises(SchemaError) as error:
        regions_from_document(config)
    assert str(error.value) == "regions[1].label: 'c2' is a photon label of mode_frequencies_ghz"
    config["regions"][1]["label"] = "m2"
    assert [r.label for r in regions_from_document(config)[0]] == ["m1", "m2"]


def parent_filling_factor_and_phase(table, region):
    """Per-pair reference: filling factor and coupling phase as separate
    passes over the whole table, each with its own reduction and mask."""
    bilinear = np.sum(table.weights * np.sum(table.h * table.h, axis=1))
    psi = 0.0 if bilinear == 0 else -0.5 * np.angle(bilinear)
    hr = np.real(np.exp(1j * psi) * table.h)
    mask = np.linalg.norm(table.positions - np.asarray(region.center), axis=1) <= region.radius
    w = table.weights[mask]
    ix, iy, v_m = map(float, (np.sum(w * hr[mask, 0]), np.sum(w * hr[mask, 1]), np.sum(w)))
    energy = float(np.sum(table.weights * np.sum(hr * hr, axis=1)))
    eta = min(math.sqrt((ix * ix + iy * iy) / (v_m * energy)), 1.0)
    h_scale = float(np.max(np.linalg.norm(table.h, axis=1)))
    assert math.hypot(ix, iy) > 1e-12 * v_m * h_scale
    return eta, fold_phase(math.atan2(iy, ix))


def complex_mode_tables():
    """Two modes whose fields are not real up to a global phase, over three spheres."""
    mode1_posts, mode2_posts = pi_device_posts(A)
    centers = [(A / 2, 0.0, 0.0), (-A / 2, 0.0, 0.0), (0.0, A / 2, 0.0)]
    tables = {}
    for label, posts, other, tilt in (
        ("c1", mode1_posts, mode2_posts, 0.61),
        ("c2", mode2_posts, mode1_posts, -2.3),
    ):
        table = mode_table(posts, centers, n=(4, 4, 6))
        quadrature = circulating_field(table.positions, other)
        tables[label] = FieldTable(
            table.positions, np.exp(1j * tilt) * (table.h + 0.3j * quadrature), table.weights
        )
    regions = [SphereRegion(c, R_SPHERE, "m%d" % (k + 1)) for k, c in enumerate(centers)]
    return tables, regions


def test_coupling_table_equals_the_per_pair_reference_bit_for_bit():
    tables, regions = complex_mode_tables()
    frequencies = {"c1": 4.524, "c2": 6.378}
    edges = coupling_table(tables, regions, frequencies)
    reference = []
    for label, table in tables.items():
        for region in regions:
            eta, phi = parent_filling_factor_and_phase(table, region)
            assert filling_factor(table, region) == eta
            assert coupling_phase(table, region) == phi
            g_mhz = coupling_strength(eta, frequencies[label])
            reference.append(CouplingEdge(label, region.label, g_mhz, phi))
    assert edges == reference
    assert len({e.phase for e in edges}) > 2 and all(0 < e.strength for e in edges)


@pytest.mark.parametrize(
    "field_scale, weight_scale",
    [(2.0**664, 1.0), (1.0, 2.0**996), (2.0**664, 2.0**996), (2.0**-900, 2.0**-900)],
)
def test_huge_or_tiny_fields_and_weights_give_the_same_edges(field_scale, weight_scale):
    """Fields near 1e200 and weights near 1e300 (or tiny ones) overflow no product."""
    tables, regions = complex_mode_tables()
    frequencies = {"c1": 4.524, "c2": 6.378}
    reference = coupling_table(tables, regions, frequencies)
    scaled = {
        label: FieldTable(table.positions, table.h * field_scale, table.weights * weight_scale)
        for label, table in tables.items()
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert coupling_table(scaled, regions, frequencies) == reference
        for label, table in scaled.items():
            assert filling_factor(table, regions[0]) == filling_factor(tables[label], regions[0])
            assert coupling_phase(table, regions[0]) == coupling_phase(tables[label], regions[0])


def test_coupling_table_reduces_each_mode_once_and_masks_each_pair_once(monkeypatch):
    calls = {"_reduced": 0, "_moments": 0}
    for name in calls:

        def counted(*args, _name=name, _original=getattr(fieldmap, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(fieldmap, name, counted)
    tables, regions = complex_mode_tables()
    edges = coupling_table(tables, regions, {"c1": 4.524, "c2": 6.378})
    assert len(edges) == 6
    assert calls == {"_reduced": 2, "_moments": 6}


def test_coupling_table_reports_the_first_fault_of_each_pair():
    zero = sphere_table((0, 0, 0), (0, 0, 0))
    axial = sphere_table((0, 0, 0), (0, 0, 1))
    inside = SphereRegion((0.0, 0.0, 0.0), R_SPHERE, "m1")
    far = SphereRegion((10 * A, 0.0, 0.0), R_SPHERE, "m2")
    frequencies = {"c1": 4.5, "c2": 6.3}
    cases = [
        # an empty region comes before the zero energy of the same mode
        ({"c1": zero}, [far, inside], ValueError, "^no samples inside region 'm2'$"),
        # zero energy comes before the undefined phase of the same pair
        ({"c1": zero}, [inside, far], ValueError, "^mode has zero field energy$"),
        ({"c1": axial}, [inside, far], PhaseUndefinedError, "^region 'm1': transverse"),
        # modes go in order: the first mode's fault wins
        ({"c1": axial, "c2": zero}, [inside], PhaseUndefinedError, "^region 'm1'"),
        ({"c2": zero, "c1": axial}, [inside], ValueError, "^mode has zero field energy$"),
    ]
    for mode_fields, regions, error, message in cases:
        with pytest.raises(error, match=message):
            coupling_table(mode_fields, regions, frequencies)


# ====== frame rotation ======


def test_frame_rotation_shifts_phases_and_preserves_loop_phase():
    mode1_posts, mode2_posts = pi_device_posts(A)
    centers = [(A / 2, 0.0, 0.0), (-A / 2, 0.0, 0.0)]
    alpha = 0.7
    table1 = mode_table(mode1_posts, centers)
    table2 = mode_table(mode2_posts, centers)
    rot1, rot_centers = rotated_about_z(table1, centers, alpha)
    rot2, _ = rotated_about_z(table2, centers, alpha)
    regions = [SphereRegion(tuple(c), R_SPHERE, f"m{k+1}") for k, c in enumerate(centers)]
    rot_regions = [
        SphereRegion(tuple(c), R_SPHERE, f"m{k+1}") for k, c in enumerate(rot_centers)
    ]
    for table, rot_table in ((table1, rot1), (table2, rot2)):
        for region, rot_region in zip(regions, rot_regions):
            before = coupling_phase(table, region)
            after = coupling_phase(rot_table, rot_region)
            assert fold_phase(after - before - alpha) == pytest.approx(0.0, abs=1e-9)

    def loop_theta(t1, t2, regs):
        edges = coupling_table({"c1": t1, "c2": t2}, regs, {"c1": 4.524, "c2": 6.378})
        system = SystemModel(
            modes=(
                ModeSpec("c1", "photon", 4.524),
                ModeSpec("c2", "photon", 6.378),
                ModeSpec("m1", "magnon", 5.36),
                ModeSpec("m2", "magnon", 5.36),
            ),
            edges=tuple(edges),
            magnon_sweep_target=frozenset({"m1", "m2"}),
        )
        return reduce_system(system).physical_phases[0].theta

    theta_before = loop_theta(table1, table2, regions)
    theta_after = loop_theta(rot1, rot2, rot_regions)
    assert abs(fold_phase(theta_after - theta_before)) <= 1e-9


# ====== quadrature convergence ======


def test_refinement_converges_at_second_order():
    # asymmetric post layout so neither eta nor phi is protected by symmetry
    posts = [(1.3 * A, 0.2 * A, 1.0, 0.05 * A), (-0.7 * A, -0.4 * A, -0.6, 0.05 * A)]
    center = (A / 2, 0.0, 0.0)
    region = SphereRegion(center, R_SPHERE, "m1")
    etas = []
    phis = []
    for n in (6, 12, 24):
        positions, weights = sphere_grid(center, R_SPHERE, n, n, n)
        h = circulating_field(positions, posts).astype(np.complex128)
        table = FieldTable(positions, h, weights)
        etas.append(filling_factor(table, region))
        phis.append(coupling_phase(table, region))
    eta_order = math.log2(abs(etas[0] - etas[1]) / abs(etas[1] - etas[2]))
    phi_order = math.log2(abs(phis[0] - phis[1]) / abs(phis[1] - phis[2]))
    assert eta_order >= 1.8
    assert phi_order >= 1.8


# ====== CSV input ======


CSV_WITH_WEIGHTS = """x_m,y_m,z_m,hx_re,hx_im,hy_re,hy_im,hz_re,hz_im,weight_m3
0.001,0,0,1,0,0,-0.5,0.25,0,1e-09
-0.001,0.002,0,0,0,2,0,0,1,2e-09
"""


def test_csv_with_weights_parses_all_columns():
    table = field_table_from_csv(CSV_WITH_WEIGHTS)
    assert table.positions.shape == (2, 3)
    assert table.positions[0, 0] == pytest.approx(0.001)
    assert table.h[0, 0] == 1.0
    assert table.h[0, 1] == -0.5j
    assert table.h[0, 2] == 0.25
    assert table.h[1, 2] == 1j
    assert np.allclose(table.weights, [1e-9, 2e-9])


def test_csv_without_weights_gets_uniform_box_weights():
    lines = ["x_m,y_m,z_m,hx_re,hx_im,hy_re,hy_im,hz_re,hz_im"]
    for x in (0.0, 0.01):
        for y in (0.0, 0.01):
            for z in (0.0, 0.01):
                lines.append(f"{x},{y},{z},1,0,0,0,0,0")
    table = field_table_from_csv("\n".join(lines) + "\n")
    assert np.allclose(table.weights, 1.25e-7, rtol=1e-12)


def test_csv_validation_errors():
    with pytest.raises(SchemaError, match="header"):
        field_table_from_csv("x,y,z\n1,2,3\n")
    with pytest.raises(SchemaError):
        field_table_from_csv(
            "x_m,y_m,z_m,hx_re,hx_im,hy_re,hy_im,hz_re,hz_im,weight_m3\n"
            "0,0,0,1,0,0,0,0,0,oops\n"
        )
    with pytest.raises(SchemaError, match="no data"):
        field_table_from_csv(
            "x_m,y_m,z_m,hx_re,hx_im,hy_re,hy_im,hz_re,hz_im,weight_m3\n"
        )
    for bad in ("nan", "inf", "-inf", "1e999"):
        with pytest.raises(SchemaError, match="line 3: expected finite numbers"):
            field_table_from_csv(CSV_WITH_WEIGHTS.replace("0.002", bad))
    # line numbers count the blank lines of the file
    header, first, second = CSV_WITH_WEIGHTS.splitlines()
    with pytest.raises(SchemaError, match="^line 5: expected 10 columns, got 11$"):
        field_table_from_csv("\n".join([header, first, "", "", second + ",0"]))
    with pytest.raises(SchemaError, match="^line 4: expected finite numbers$"):
        field_table_from_csv("\n".join(["", header, "", second.replace("0.002", "nan")]))
    # degenerate bounding box cannot define uniform weights
    with pytest.raises(SchemaError, match="bounding box"):
        field_table_from_csv(
            "x_m,y_m,z_m,hx_re,hx_im,hy_re,hy_im,hz_re,hz_im\n"
            "0,0,0,1,0,0,0,0,0\n"
            "0.01,0.01,0,1,0,0,0,0,0\n"
        )
