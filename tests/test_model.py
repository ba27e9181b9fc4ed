"""Tests for the device description and Hamiltonian assembly."""

import math
import re

import numpy as np
import pytest

from loopmag.model import (
    CouplingEdge,
    HermitianMatrixGHz,
    ModeSpec,
    SchemaError,
    SystemModel,
    apply_vertex_phases,
    build_hamiltonian,
    check_rwa,
    fold_phase,
    frequency_axis,
    parse_phase,
    read_numeric_csv,
    system_from_document,
    system_to_document,
)
from oracles import OracleError, char_poly_eigenvalues

PI = math.pi


def single_pair_system(g_mhz=139.0, phase=-PI / 2, omega_c=4.524):
    return SystemModel(
        modes=(
            ModeSpec("c1", "photon", omega_c),
            ModeSpec("m1", "magnon", 5.0),
        ),
        edges=(CouplingEdge("c1", "m1", g_mhz, phase),),
        magnon_sweep_target=frozenset({"m1"}),
    )


def cavity_pi_fit_system(theta=PI):
    # two photons, two magnons, couplings in the loop-reduced pattern
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


def random_system(rng, max_photons=4, max_magnons=4):
    n_p = int(rng.integers(1, max_photons + 1))
    n_m = int(rng.integers(1, max_magnons + 1))
    photons = [f"c{i}" for i in range(n_p)]
    magnons = [f"m{i}" for i in range(n_m)]
    modes = [ModeSpec(p, "photon", float(rng.uniform(3.0, 9.0))) for p in photons]
    modes += [ModeSpec(m, "magnon", float(rng.uniform(3.0, 9.0))) for m in magnons]
    edges = []
    for p in photons:
        for m in magnons:
            if rng.uniform() < 0.6:
                edges.append(
                    CouplingEdge(
                        p, m, float(rng.uniform(10.0, 300.0)), float(rng.uniform(-PI, PI))
                    )
                )
    return SystemModel(tuple(modes), tuple(edges), frozenset(magnons))


# ====== phase folding ======


def test_fold_phase_range_and_values():
    assert fold_phase(0.0) == pytest.approx(0.0, abs=1e-15)
    assert fold_phase(PI) == pytest.approx(PI, abs=1e-15)
    assert fold_phase(-PI) == pytest.approx(PI, abs=1e-15)
    assert fold_phase(3 * PI / 2) == pytest.approx(-PI / 2, abs=1e-12)
    assert fold_phase(-2 * PI) == pytest.approx(0.0, abs=1e-12)
    for x in np.linspace(-20.0, 20.0, 401):
        y = fold_phase(float(x))
        assert -PI < y <= PI
        assert math.isclose(
            math.cos(y), math.cos(x), abs_tol=1e-12
        ) and math.isclose(math.sin(y), math.sin(x), abs_tol=1e-12)


# ====== type validation ======


def test_mode_spec_validation():
    with pytest.raises(ValueError):
        ModeSpec("c1", "qubit", 4.0)
    with pytest.raises(ValueError):
        ModeSpec("c1", "photon", 0.0)
    with pytest.raises(ValueError):
        ModeSpec("c1", "photon", 4.0, intrinsic_loss=-1.0)
    with pytest.raises(ValueError):
        ModeSpec("m1", "magnon", 4.0, external_loss=3.0)
    spec = ModeSpec("c1", "photon", 4.0, intrinsic_loss=5.0, external_loss=5.0)
    assert spec.external_loss == 5.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_mode_spec_and_edge_reject_non_finite_values(bad):
    with pytest.raises(ValueError, match="finite"):
        ModeSpec("c1", "photon", bad)
    with pytest.raises(ValueError, match="finite"):
        ModeSpec("c1", "photon", 4.0, intrinsic_loss=bad)
    with pytest.raises(ValueError, match="finite"):
        ModeSpec("c1", "photon", 4.0, external_loss=bad)
    with pytest.raises(ValueError, match="finite"):
        CouplingEdge("c1", "m1", bad, 0.0)
    with pytest.raises(ValueError, match="finite"):
        CouplingEdge("c1", "m1", 10.0, bad)


def test_coupling_edge_normalizes_negative_strength():
    edge = CouplingEdge("c1", "m1", -139.0, -PI / 2)
    assert edge.strength == pytest.approx(139.0)
    assert edge.phase == pytest.approx(PI / 2, abs=1e-12)


def test_negative_strength_same_hamiltonian():
    sys_a = single_pair_system(g_mhz=-139.0, phase=-PI / 2)
    sys_b = single_pair_system(g_mhz=139.0, phase=PI / 2)
    ha = build_hamiltonian(sys_a, 4.524).entries
    hb = build_hamiltonian(sys_b, 4.524).entries
    assert np.allclose(ha, hb, atol=1e-15)


def test_system_model_validation():
    c1 = ModeSpec("c1", "photon", 4.0)
    m1 = ModeSpec("m1", "magnon", 5.0)
    with pytest.raises(ValueError):
        SystemModel((c1, c1), (), frozenset())
    with pytest.raises(ValueError):
        SystemModel((c1, m1), (CouplingEdge("c1", "m2", 10.0, 0.0),), frozenset())
    with pytest.raises(ValueError):
        SystemModel((c1, m1), (CouplingEdge("m1", "c1", 10.0, 0.0),), frozenset())
    with pytest.raises(ValueError):
        SystemModel(
            (c1, m1),
            (CouplingEdge("c1", "m1", 10.0, 0.0), CouplingEdge("c1", "m1", 20.0, 0.0)),
            frozenset(),
        )
    with pytest.raises(ValueError):
        SystemModel((c1, m1), (), frozenset({"c1"}))


def test_hermitian_matrix_rejects_asymmetric():
    bad = np.array([[1.0, 0.5], [0.0, 2.0]], dtype=complex)
    with pytest.raises(ValueError):
        HermitianMatrixGHz(("a", "b"), bad)


# ====== build_hamiltonian ======


def test_single_pair_matrix_entries():
    system = single_pair_system()
    h = build_hamiltonian(system, 4.524)
    assert h.dimension == 2
    assert h.labels == ("c1", "m1")
    m = h.entries
    assert m[0, 0] == pytest.approx(4.524)
    assert m[1, 1] == pytest.approx(4.524)
    # phase -pi/2 puts +i*g on the (photon, magnon) entry
    assert abs(m[0, 1] - 0.139j) < 1e-15
    assert abs(m[1, 0] + 0.139j) < 1e-15


def test_empty_edges_diagonal():
    system = SystemModel(
        modes=(
            ModeSpec("c1", "photon", 4.2),
            ModeSpec("m1", "magnon", 5.1),
            ModeSpec("m2", "magnon", 6.3),
        ),
        edges=(),
        magnon_sweep_target=frozenset({"m1"}),
    )
    h = build_hamiltonian(system, 5.5).entries
    assert np.allclose(h, np.diag([4.2, 5.5, 6.3]), atol=1e-15)


def test_non_target_magnon_keeps_frequency():
    system = SystemModel(
        modes=(
            ModeSpec("c1", "photon", 4.2),
            ModeSpec("m1", "magnon", 5.1),
            ModeSpec("m2", "magnon", 6.3),
        ),
        edges=(),
        magnon_sweep_target=frozenset({"m2"}),
    )
    h = build_hamiltonian(system, 7.7).entries
    assert h[1, 1] == pytest.approx(5.1)
    assert h[2, 2] == pytest.approx(7.7)


def test_loop_system_matches_polynomial_oracle():
    system = cavity_pi_fit_system()
    h = build_hamiltonian(system, 5.0)
    from loopmag.spectrum import eig_hermitian

    values, _ = eig_hermitian(h)
    oracle = char_poly_eigenvalues(h.entries)
    assert np.max(np.abs(values - oracle)) < 1e-10


def test_build_hamiltonian_rejects_bad_omega():
    with pytest.raises(ValueError):
        build_hamiltonian(single_pair_system(), 0.0)
    with pytest.raises(ValueError):
        build_hamiltonian(single_pair_system(), -1.0)


@pytest.mark.parametrize(
    "values, message",
    [
        ([], "non-empty 1-d"),
        ([[4.0, 5.0]], "non-empty 1-d"),
        ([5.0, 5.0], "strictly increasing"),
        ([5.0, 4.9], "strictly increasing"),
        ([4.0, math.nan], "strictly increasing"),
    ],
)
def test_frequency_axis_rejects_malformed_grids(values, message):
    with pytest.raises(ValueError, match="^grid must be (a )?%s" % message):
        frequency_axis(values, "grid")


def test_read_numeric_csv_header_and_rows():
    header, data = read_numeric_csv("\n a,b \n1,2\n\n3,4e0\n", ("a,b,c", "a,b"))
    assert header == "a,b"
    assert data.dtype == np.float64 and data.tolist() == [[1.0, 2.0], [3.0, 4.0]]


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "CSV is empty; expected the header 'a,b'"),
        (" \n\n", "CSV is empty; expected the header 'a,b'"),
        ("\nx,y\n1,2\n", "line 2: unrecognized header; expected 'a,b'"),
        ("a,b\n\n", "CSV contains no data rows"),
        ("a,b\n1,2\n\n1,x\n", "line 4: could not parse a numeric value"),
        ("a,b\n\n1,2\n1,inf\n", "line 4: expected finite numbers"),
    ],
)
def test_read_numeric_csv_messages(text, message):
    with pytest.raises(SchemaError, match="^%s$" % re.escape(message)):
        read_numeric_csv(text, ("a,b",))


def test_hermiticity_property_random_systems():
    rng = np.random.default_rng(7)
    for _ in range(120):
        system = random_system(rng)
        h = build_hamiltonian(system, float(rng.uniform(3.0, 9.0))).entries
        scale = max(np.linalg.norm(h), 1e-300)
        assert np.linalg.norm(h - h.conj().T) <= 1e-12 * scale


# ====== check_rwa ======


def test_rwa_table_values():
    checks = check_rwa(single_pair_system())
    assert len(checks) == 1
    edge, ratio, ok = checks[0]
    assert edge.photon == "c1"
    assert ratio == pytest.approx(0.139 / 4.524, rel=1e-12)
    assert ok

    zero = check_rwa(single_pair_system(g_mhz=0.0))
    assert zero[0].ratio == 0.0 and zero[0].ok

    strong = check_rwa(single_pair_system(g_mhz=500.0, omega_c=4.5))
    assert strong[0].ratio == pytest.approx(0.5 / 4.5, rel=1e-12)
    assert not strong[0].ok


# ====== apply_vertex_phases ======


def test_identity_rotation():
    system = cavity_pi_fit_system()
    rotated = apply_vertex_phases(system, {"c1": 0.0, "m2": 0.0})
    assert rotated == system


def test_rotation_unknown_label():
    with pytest.raises(ValueError):
        apply_vertex_phases(single_pair_system(), {"nope": 1.0})


def test_cavity_pi_phases_reduce_to_single_pi():
    # the tree-zeroing rotation for the published pi-device phase pattern
    system = SystemModel(
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
    alphas = {"c1": 0.0, "m1": -PI / 2, "c2": -PI, "m2": PI / 2}
    rotated = apply_vertex_phases(system, alphas)
    got = [e.phase for e in rotated.edges]
    want = [0.0, PI, 0.0, 0.0]
    for g, w in zip(got, want):
        assert abs(fold_phase(g - w)) < 1e-9
    assert [e.strength for e in rotated.edges] == [139.0, 139.0, 207.0, 207.0]


def test_rotation_is_exact_diagonal_similarity():
    rng = np.random.default_rng(12)
    checked_with_oracle = 0
    for trial in range(120):
        system = random_system(rng)
        labels = [m.label for m in system.modes]
        alphas = {lab: float(rng.uniform(-4 * PI, 4 * PI)) for lab in labels}
        omega_m = float(rng.uniform(3.0, 9.0))
        h = build_hamiltonian(system, omega_m).entries
        h_rot = build_hamiltonian(apply_vertex_phases(system, alphas), omega_m).entries
        u = np.diag([np.exp(-1j * alphas[lab]) for lab in labels])
        expected = u @ h @ u.conj().T
        scale = max(np.linalg.norm(h), 1e-300)
        assert np.linalg.norm(h_rot - expected) <= 1e-13 * scale
        if checked_with_oracle < 10 and len(system.edges) > 0:
            try:
                a = char_poly_eigenvalues(h)
                b = char_poly_eigenvalues(h_rot)
            except OracleError:
                continue  # near-degenerate draw, outside the oracle's domain
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, scale)
            checked_with_oracle += 1
    assert checked_with_oracle >= 10


# ====== JSON document interface ======


def test_parse_phase_strings():
    assert parse_phase("pi/2") == pytest.approx(PI / 2)
    assert parse_phase("-pi/2") == pytest.approx(-PI / 2)
    assert parse_phase("pi") == pytest.approx(PI)
    assert parse_phase("0") == 0.0
    assert parse_phase(1.25) == 1.25
    with pytest.raises(SchemaError):
        parse_phase("tau/2")


def test_document_round_trip():
    system = cavity_pi_fit_system()
    doc = system_to_document(system)
    assert doc["sweep"] == ["m1", "m2"]
    assert doc["modes"][0]["frequency_ghz"] == 4.527
    assert doc["modes"][0]["intrinsic_loss_mhz"] is None
    back = system_from_document(doc)
    assert back == system


def test_document_phase_strings_accepted():
    doc = {
        "modes": [
            {"label": "c1", "kind": "photon", "frequency_ghz": 4.524,
             "intrinsic_loss_mhz": None, "external_loss_mhz": None},
            {"label": "m1", "kind": "magnon", "frequency_ghz": 5.0,
             "intrinsic_loss_mhz": None, "external_loss_mhz": None},
        ],
        "edges": [{"photon": "c1", "magnon": "m1", "g_mhz": 139.0, "phase_rad": "-pi/2"}],
        "sweep": ["m1"],
    }
    system = system_from_document(doc)
    assert system.edges[0].phase == pytest.approx(-PI / 2)


def test_document_errors_are_path_anchored():
    doc = {
        "modes": [
            {"label": "c1", "kind": "photon", "frequency_ghz": -1.0,
             "intrinsic_loss_mhz": None, "external_loss_mhz": None},
        ],
        "edges": [],
        "sweep": [],
    }
    with pytest.raises(SchemaError) as err:
        system_from_document(doc)
    assert "modes[0]" in str(err.value)
    with pytest.raises(SchemaError) as err2:
        system_from_document({"modes": [], "sweep": []})
    assert "edges" in str(err2.value)


def pair_document():
    return {
        "modes": [
            {"label": "c1", "kind": "photon", "frequency_ghz": 4.5,
             "intrinsic_loss_mhz": 1.0, "external_loss_mhz": 1.0},
            {"label": "m1", "kind": "magnon", "frequency_ghz": 5.0},
        ],
        "edges": [{"photon": "c1", "magnon": "m1", "g_mhz": 50.0, "phase_rad": 0.5}],
        "sweep": ["m1"],
    }


@pytest.mark.parametrize(
    "section, index, key, where",
    [
        ("modes", 0, "frequency_ghz", "modes[0].frequency_ghz"),
        ("modes", 0, "intrinsic_loss_mhz", "modes[0].intrinsic_loss_mhz"),
        ("modes", 0, "external_loss_mhz", "modes[0].external_loss_mhz"),
        ("edges", 0, "g_mhz", "edges[0].g_mhz"),
        ("edges", 0, "phase_rad", "edges[0].phase_rad"),
    ],
)
@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "10**400"]
)
def test_document_rejects_non_finite_numbers(section, index, key, where, bad):
    doc = pair_document()
    system_from_document(doc)
    doc[section][index][key] = bad
    with pytest.raises(SchemaError, match=r"^%s: expected a finite number$" % re.escape(where)):
        system_from_document(doc)


def test_document_rejects_non_label_sweep_entries():
    for bad in (["m1"], 3, None, {"m1": 1}):
        doc = pair_document()
        doc["sweep"] = ["m1", bad]
        with pytest.raises(SchemaError, match=r"^sweep\[1\]: expected a mode label$"):
            system_from_document(doc)


@pytest.mark.parametrize(
    "section, key, where",
    [
        ("modes", "label", "modes[0].label"),
        ("modes", "kind", "modes[0].kind"),
        ("edges", "photon", "edges[0].photon"),
        ("edges", "magnon", "edges[0].magnon"),
    ],
)
@pytest.mark.parametrize("bad", [["c1"], {"c1": 1}, 3, None], ids=["list", "object", "number", "null"])
def test_document_rejects_non_string_labels_and_endpoints(section, key, where, bad):
    doc = pair_document()
    doc[section][0][key] = bad
    with pytest.raises(SchemaError, match=r"^%s: expected a string$" % re.escape(where)):
        system_from_document(doc)
