"""Tests for the device description and Hamiltonian assembly."""

import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopmag.calibrate import FitSpec, PeakDataset, residual
from loopmag.model import (
    CELL_BYTES,
    CSV_BLOCK_VALUES,
    CouplingEdge,
    MAX_FREQUENCY_GHZ,
    MAX_RATE_MHZ,
    MAX_STACK_ENTRIES,
    RWA_LIMIT,
    HermitianMatrixGHz,
    ModeSpec,
    SchemaError,
    SystemModel,
    apply_vertex_phases,
    build_hamiltonian,
    cells_text,
    check_rwa,
    csv_rows,
    fold_phase,
    frequency_axis,
    g9_cells,
    hamiltonians,
    parse_phase,
    read_numeric_csv,
    system_from_document,
    system_to_document,
)
from loopmag.spectrum import branch_frequencies, sweep
from loopmag.transmission import S21_FLOOR, PortSpec, s21_map
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
    with pytest.raises(ValueError, match=r"^mode 'c1': frequency must be <= 1e\+06 GHz$"):
        ModeSpec("c1", "photon", 1.000001e6)
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


def test_rates_above_the_rate_ceiling_are_rejected():
    with pytest.raises(ValueError, match=r"^mode 'c1': intrinsic_loss must be <= 1e\+09 MHz$"):
        ModeSpec("c1", "photon", 4.0, intrinsic_loss=1.000001e9)
    with pytest.raises(ValueError, match=r"^mode 'c1': external_loss must be <= 1e\+09 MHz$"):
        ModeSpec("c1", "photon", 4.0, external_loss=1e300)
    # the ceiling is checked after every earlier rule
    with pytest.raises(ValueError, match=r"^mode 'c1': external_loss must be finite"):
        ModeSpec("c1", "photon", 4.0, intrinsic_loss=1e300, external_loss=-1.0)
    with pytest.raises(ValueError, match=r"^mode 'm1': magnons do not couple"):
        ModeSpec("m1", "magnon", 4.0, intrinsic_loss=1e300, external_loss=1.0)
    for strength in (1e300, -1.000001e9):
        with pytest.raises(
            ValueError, match=r"^edge \(c1, m1\): strength must be within \+-1e\+09 MHz$"
        ):
            CouplingEdge("c1", "m1", strength, 0.0)
    mode = ModeSpec("c1", "photon", 4.0, intrinsic_loss=MAX_RATE_MHZ, external_loss=MAX_RATE_MHZ)
    assert mode.intrinsic_loss == mode.external_loss == MAX_RATE_MHZ
    assert CouplingEdge("c1", "m1", -MAX_RATE_MHZ, 0.0).strength == MAX_RATE_MHZ


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0, math.inf)])
def test_hermitian_matrix_rejects_non_finite_entries_before_the_norms(value):
    entries = np.array([[1.0, 0.5], [0.5, value]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^entries must be finite$"):
            HermitianMatrixGHz(("a", "b"), entries)
        with pytest.raises(ValueError, match="^entries must be finite$"):
            HermitianMatrixGHz(("a",), [[value]])


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
    for bad in (0.0, -1.0, -math.inf, math.nan):
        with pytest.raises(ValueError, match="^omega_m must be > 0 GHz$"):
            build_hamiltonian(single_pair_system(), bad)
    with pytest.raises(ValueError, match="^omega_m must be finite$"):
        build_hamiltonian(single_pair_system(), math.inf)
    with pytest.raises(ValueError, match=r"^omega_m must be <= 1e\+06 GHz$"):
        build_hamiltonian(single_pair_system(), 1e300)


@pytest.mark.parametrize(
    "values, message",
    [
        ([], "non-empty 1-d"),
        ([[4.0, 5.0]], "non-empty 1-d"),
        ([5.0, 5.0], "strictly increasing"),
        ([5.0, 4.9], "strictly increasing"),
        ([4.0, math.nan], "strictly increasing"),
        ([5.0, math.inf], "finite"),
        ([math.inf], "finite"),
        ([-math.inf, 5.0], "finite"),
        ([math.nan], "finite"),
        ([5.0, 1e300], r"within \+-1e\+06 GHz"),
        ([-1e300, 5.0], r"within \+-1e\+06 GHz"),
        ([2e6], r"within \+-1e\+06 GHz"),
    ],
)
def test_frequency_axis_rejects_malformed_grids(values, message):
    with pytest.raises(ValueError, match="^grid must be (a )?%s" % message):
        frequency_axis(values, "grid")


def test_frequencies_at_the_ceiling_stay_finite():
    system = single_pair_system(omega_c=MAX_FREQUENCY_GHZ)
    h = build_hamiltonian(system, MAX_FREQUENCY_GHZ).entries
    assert np.all(np.isfinite(h)) and h[0, 0] == h[1, 1] == MAX_FREQUENCY_GHZ
    axis = [-MAX_FREQUENCY_GHZ, MAX_FREQUENCY_GHZ]
    assert frequency_axis(axis, "grid").tolist() == axis


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


# ====== %.9g cells ======


def g9_texts(values) -> list:
    return cells_text(g9_cells(values, ord("\n"))).split("\n")[:-1]


def assert_g9_exact(values):
    values = np.asarray(values, dtype=np.float64).ravel()
    with np.errstate(all="raise"):
        texts = g9_texts(values)
    assert texts == ["%.9g" % v for v in values.tolist()]


def from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    patterns=st.lists(st.integers(0, 2**64 - 1).map(from_bits), max_size=40),
    values=st.lists(st.floats(-1e10, 1e10), max_size=40),
    scaled=st.lists(
        st.builds(lambda m, x: m * 10.0**x, st.floats(-10.0, 10.0), st.integers(-6, 10)),
        max_size=40,
    ),
)
def test_g9_cells_equal_python_on_any_float64(patterns, values, scaled):
    assert_g9_exact(patterns + values + scaled)


def test_g9_cells_equal_python_on_ties_edges_and_specials():
    rng = np.random.default_rng(11)
    # exact ties at the tenth significant digit: r / 2**d with r odd and 5**d * r ten digits long
    d = rng.integers(1, 14, 4000)
    r = np.floor(rng.uniform(1e9, 1e10, 4000) / 5.0**d / 2) * 2 + 1
    exact_ties = r / 2.0**d
    # (k + 1/2) * 10**j, the nearest float64 to a decimal tie, for nine-digit k
    k = rng.integers(10**8, 10**9, 4000)
    decimal_ties = (k + 0.5) * 10.0 ** rng.integers(-13, 1, 4000)
    edges = [9.9999999995, 999999999.5, 1e-4, 9.99999999e-05, 99999999.995, 0.99999999995,
             9.999999995e-05, 999999999.4, 1e9, 1e8, 1.0, 100.0]
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300,
                20.0 * math.log10(S21_FLOOR)]
    for values in (exact_ties, decimal_ties, edges, specials):
        assert_g9_exact(values)
        assert_g9_exact(np.negative(values))
    assert "%.9g" % exact_ties[0] != "%.10g" % exact_ties[0]  # a tie: the tenth digit is a 5


@pytest.mark.parametrize("error", [-1e-7, 1e-7])
def test_g9_cells_fall_back_where_log10_is_off_by_one(monkeypatch, error):
    # numpy's log10 is off by a few ulps at most, and near a power of ten the rounding
    # of s absorbs that; a log10 off by 1e-7 puts values up to 2e-7 from a power of ten
    # in the wrong decade, and they must go to Python instead of losing or gaining a digit
    values = np.outer(10.0 ** np.arange(-4, 9), [1 - 1e-7, 1 - 1e-8, 1.0, 1 + 1e-8, 1 + 1e-7])
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + error)
    assert_g9_exact(values)
    assert_g9_exact(-values)


def test_g9_cells_keep_the_shape_and_end_bytes():
    cells = g9_cells(np.arange(6.0).reshape(2, 3) + 0.5, np.array([1, 2, 3], np.uint8))
    assert cells.shape == (2, 3, CELL_BYTES) and cells.dtype == np.uint8
    assert cells[..., -1].tolist() == [[1, 2, 3], [1, 2, 3]]
    assert g9_cells(-2.5).shape == (CELL_BYTES,)
    assert cells_text(g9_cells(-2.5, ord(","))) == "-2.5,"


def test_csv_rows_equal_a_row_template_across_blocks():
    rng = np.random.default_rng(5)
    rows = CSV_BLOCK_VALUES // 3 * 2 + 7  # two full blocks and a partial one
    table = rng.normal(0.0, 1.0, (rows, 3)) * 10.0 ** rng.integers(-7, 11, (rows, 3))
    table[:5] = [[0.0, -0.0, 1e-5], [S21_FLOOR, 1e300, -1e-4], [0.5, 1e9 - 0.5, 123456789.5],
                 [1.0, 2.0, 3.0], [-1e-12, 5e-324, 99999999.95]]
    template = ",".join(["%.9g"] * 3) + "\n"
    want = (template * rows) % tuple(table.ravel().tolist())
    assert csv_rows(table).split("\n") == want.split("\n")


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


def test_rwa_ratios_need_no_mode_lookup_per_edge(monkeypatch):
    rng = np.random.default_rng(16)
    systems = [random_system(rng) for _ in range(60)]
    ratios = [[(e.strength * 1e-3) / s.mode(e.photon).frequency for e in s.edges] for s in systems]

    def no_lookup(self, label):
        raise AssertionError("a linear scan of the modes")

    monkeypatch.setattr(SystemModel, "mode", no_lookup)
    for system, want in zip(systems, ratios):
        checks = check_rwa(system)
        assert [check.edge for check in checks] == list(system.edges)
        assert [check.ratio for check in checks] == want
        assert [check.ok for check in checks] == [ratio < RWA_LIMIT for ratio in want]
    assert sum(map(len, ratios)) > 100


# ====== the stack budget ======


def chain_system(pairs=32):
    """A chain of 2 * pairs modes, photon c0 - magnon m0 - photon c1 - ..."""
    modes = [ModeSpec("%s%d" % (prefix, k), kind, 5.0)
             for k in range(pairs) for prefix, kind in (("c", "photon"), ("m", "magnon"))]
    edges = [CouplingEdge("c%d" % k, "m%d" % j, 50.0, 0.0)
             for k in range(pairs) for j in (k - 1, k) if j >= 0]
    return SystemModel(tuple(modes), tuple(edges), frozenset("m%d" % k for k in range(pairs)))


def test_stacks_beyond_the_budget_raise_before_they_are_allocated(monkeypatch):
    system = chain_system()
    budget = MAX_STACK_ENTRIES // len(system.modes) ** 2  # 4096 grid points of 64 modes
    ports = (PortSpec(1), PortSpec(2))
    fit_spec = FitSpec(base_system=system, free_photon_frequencies=("c0",))

    def grid(points):
        return np.linspace(4.0, 6.0, points)

    def no_stack(*args, **kwargs):
        raise AssertionError("a stack was allocated")

    monkeypatch.setattr(np, "broadcast_to", no_stack)
    with pytest.raises(AssertionError, match="allocated"):
        hamiltonians(system, grid(budget))
    message = "len(omega_m_grid) * modes^2 must be <= %d" % MAX_STACK_ENTRIES
    over = grid(budget + 1)
    calls = [
        lambda: hamiltonians(system, over),
        lambda: sweep(system, over),
        lambda: branch_frequencies(system, over),
        lambda: s21_map(system, ports, grid(1), over),
        lambda: residual(fit_spec, [5.0], [], PeakDataset([(w, 5.0) for w in over])),
    ]
    for call in calls:
        with pytest.raises(ValueError) as error:
            call()
        assert str(error.value) == message
    with pytest.raises(ValueError) as error:
        s21_map(system, ports, over, grid(1))
    assert str(error.value) == "len(omega_grid) * modes^2 must be <= %d" % MAX_STACK_ENTRIES


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
