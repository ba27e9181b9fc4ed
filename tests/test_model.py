"""Tests for the device description and Hamiltonian assembly."""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopmag.calibrate import FitSpec, PeakDataset, residual
from loopmag.model import (
    BLOCK_VALUES,
    CELL_BYTES,
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
from devices import (chain_document, fit_device, raises_exactly, random_system, rejected_calls,
                     single_pair_system)
from oracles import OracleError, char_poly_eigenvalues
from oracles import read_numeric_csv as float_loop_read_numeric_csv

PI = math.pi
MAGNON_PORT = "mode 'm1': magnons do not couple to ports, external_loss must be unset"


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
    with raises_exactly(ValueError, "mode 'c1': kind must be 'photon' or 'magnon'"):
        ModeSpec("c1", "qubit", 4.0)
    with raises_exactly(ValueError, "mode 'c1': frequency must be finite and > 0 GHz"):
        ModeSpec("c1", "photon", 0.0)
    with raises_exactly(ValueError, "mode 'c1': intrinsic_loss must be finite and >= 0 MHz"):
        ModeSpec("c1", "photon", 4.0, intrinsic_loss=-1.0)
    with raises_exactly(ValueError, MAGNON_PORT):
        ModeSpec("m1", "magnon", 4.0, external_loss=3.0)
    with raises_exactly(ValueError, "mode 'c1': frequency must be <= 1e+06 GHz"):
        ModeSpec("c1", "photon", 1.000001e6)
    spec = ModeSpec("c1", "photon", 4.0, intrinsic_loss=5.0, external_loss=5.0)
    assert spec.external_loss == 5.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_mode_spec_and_edge_reject_non_finite_values(bad):
    with raises_exactly(ValueError, "mode 'c1': frequency must be finite and > 0 GHz"):
        ModeSpec("c1", "photon", bad)
    with raises_exactly(ValueError, "mode 'c1': intrinsic_loss must be finite and >= 0 MHz"):
        ModeSpec("c1", "photon", 4.0, intrinsic_loss=bad)
    with raises_exactly(ValueError, "mode 'c1': external_loss must be finite and >= 0 MHz"):
        ModeSpec("c1", "photon", 4.0, external_loss=bad)
    with raises_exactly(ValueError, "edge (c1, m1): strength and phase must be finite"):
        CouplingEdge("c1", "m1", bad, 0.0)
    with raises_exactly(ValueError, "edge (c1, m1): strength and phase must be finite"):
        CouplingEdge("c1", "m1", 10.0, bad)


def test_rates_above_the_rate_ceiling_are_rejected():
    with raises_exactly(ValueError, "mode 'c1': intrinsic_loss must be <= 1e+09 MHz"):
        ModeSpec("c1", "photon", 4.0, intrinsic_loss=1.000001e9)
    with raises_exactly(ValueError, "mode 'c1': external_loss must be <= 1e+09 MHz"):
        ModeSpec("c1", "photon", 4.0, external_loss=1e300)
    # the ceiling is checked after every earlier rule
    with raises_exactly(ValueError, "mode 'c1': external_loss must be finite and >= 0 MHz"):
        ModeSpec("c1", "photon", 4.0, intrinsic_loss=1e300, external_loss=-1.0)
    with raises_exactly(ValueError, MAGNON_PORT):
        ModeSpec("m1", "magnon", 4.0, intrinsic_loss=1e300, external_loss=1.0)
    for strength in (1e300, -1.000001e9):
        with raises_exactly(ValueError, "edge (c1, m1): strength must be within +-1e+09 MHz"):
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


def test_mode_looks_up_a_label_and_rejects_an_unknown_one():
    system = single_pair_system()
    assert system.mode("m1") is system.modes[1]
    with raises_exactly(ValueError, "unknown mode label 'nope'"):
        system.mode("nope")


def test_hermitian_matrix_rejects_entries_that_are_not_one_square_row_per_label():
    for labels, entries in ((("a", "b"), np.eye(3)), (("a", "b"), np.ones(2)), (("a",), [[1, 0]])):
        with raises_exactly(ValueError, "entries must be square with one row per label"):
            HermitianMatrixGHz(labels, entries)


def test_hermitian_matrix_accepts_an_asymmetry_of_exactly_its_tolerance():
    at = 1e-12 / 2  # entries - entries^H is 2j * at: 1e-12 of the norm 1
    HermitianMatrixGHz(("a",), [[1 + at * 1j]])
    with raises_exactly(ValueError, "matrix is not Hermitian to 1e-12 relative"):
        HermitianMatrixGHz(("a",), [[1 + math.nextafter(at, 1) * 1j]])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0, math.inf)])
def test_hermitian_matrix_rejects_non_finite_entries_before_the_norms(value):
    entries = np.array([[1.0, 0.5], [0.5, value]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with raises_exactly(ValueError, "entries must be finite"):
            HermitianMatrixGHz(("a", "b"), entries)
        with raises_exactly(ValueError, "entries must be finite"):
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
    system = fit_device()
    h = build_hamiltonian(system, 5.0)
    from loopmag.spectrum import eig_hermitian

    values, _ = eig_hermitian(h)
    oracle = char_poly_eigenvalues(h.entries)
    assert np.max(np.abs(values - oracle)) < 1e-10


# the ids of the rows whose message grew are those of the table's first form
@pytest.mark.parametrize(
    "values, message",
    [
        pytest.param([], "a non-empty 1-d array", id="values0-non-empty 1-d"),
        pytest.param([[4.0, 5.0]], "a non-empty 1-d array", id="values1-non-empty 1-d"),
        ([5.0, 5.0], "strictly increasing"),
        ([5.0, 4.9], "strictly increasing"),
        ([4.0, math.nan], "strictly increasing"),
        ([5.0, math.inf], "finite"),
        ([math.inf], "finite"),
        ([-math.inf, 5.0], "finite"),
        ([math.nan], "finite"),
        pytest.param([5.0, 1e300], "within +-1e+06 GHz", id=r"values9-within \+-1e\+06 GHz"),
        pytest.param([-1e300, 5.0], "within +-1e+06 GHz", id=r"values10-within \+-1e\+06 GHz"),
        pytest.param([2e6], "within +-1e+06 GHz", id=r"values11-within \+-1e\+06 GHz"),
    ],
)
def test_frequency_axis_rejects_malformed_grids(values, message):
    with raises_exactly(ValueError, "grid must be " + message):
        frequency_axis(values, "grid")


def test_frequencies_at_the_ceiling_stay_finite():
    system = single_pair_system(omega_c=MAX_FREQUENCY_GHZ)
    h = build_hamiltonian(system, MAX_FREQUENCY_GHZ).entries
    assert np.all(np.isfinite(h)) and h[0, 0] == h[1, 1] == MAX_FREQUENCY_GHZ
    axis = [-MAX_FREQUENCY_GHZ, MAX_FREQUENCY_GHZ]
    assert frequency_axis(axis, "grid").tolist() == axis


# Every line break str.splitlines knows besides "\n"; numpy's reader is handed split lines.
LINE_BREAKS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize(
    "text, header, rows",
    [
        pytest.param("\n a,b \n1,2\n\n3,4e0\n", "a,b", [[1.0, 2.0], [3.0, 4.0]],
                     id="padded-header-and-a-blank-line"),
        # float takes underscores, non-ASCII digits and non-ASCII spaces; numpy's reader does not
        pytest.param("a,b\n1_0,2\n", "a,b", [[10.0, 2.0]], id="underscore"),
        pytest.param("a,b\n\u0661,2\n", "a,b", [[1.0, 2.0]], id="arabic-indic-digit"),
        pytest.param("a,b\n 1\xa0,2\n", "a,b", [[1.0, 2.0]], id="no-break-space"),
        pytest.param("a,b\r\n1,2\r\n3,4\r\n", "a,b", [[1.0, 2.0], [3.0, 4.0]], id="crlf"),
        pytest.param("a,b\r1,2\r3,4\r", "a,b", [[1.0, 2.0], [3.0, 4.0]], id="lone-cr"),
        pytest.param("a,b" + "".join(b + "%d,%d" % (k, -k) for k, b in enumerate(LINE_BREAKS)),
                     "a,b", [[k, -k] for k in range(len(LINE_BREAKS))], id="every-line-break"),
        pytest.param("a,b\n \t \n1,2\n\xa0\n3,4\n", "a,b", [[1.0, 2.0], [3.0, 4.0]],
                     id="whitespace-only-lines"),
        pytest.param("a,b\n\t1\t,\t2\t\n", "a,b", [[1.0, 2.0]], id="tabs-around-fields"),
        pytest.param("a,b,c\n1,2,3\n", "a,b,c", [[1.0, 2.0, 3.0]], id="second-header"),
    ],
)
def test_read_numeric_csv_header_and_rows(text, header, rows):
    got_header, data = read_numeric_csv(text, ("a,b,c", "a,b"))
    assert got_header == header
    assert data.dtype == np.float64 and data.tolist() == rows


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "CSV is empty; expected the header 'a,b'"),
        (" \n\n", "CSV is empty; expected the header 'a,b'"),
        ("\nx,y\n1,2\n", "line 2: unrecognized header; expected 'a,b'"),
        ("a,b\n\n", "CSV contains no data rows"),
        ("a,b\n1,2\n\n1,x\n", "line 4: could not parse a numeric value"),
        ("a,b\n\n1,2\n1,inf\n", "line 4: expected finite numbers"),
        ("a,b\n \t\n\xa0\n", "CSV contains no data rows"),
        ("a,b\n1,#2\n", "line 2: could not parse a numeric value"),
        ("a,b\n1,2,\n", "line 2: expected 2 columns, got 3"),
        ("a,b\n1,2\n3\n", "line 3: expected 2 columns, got 1"),
        ("a,b\n1,nan\n", "line 2: expected finite numbers"),
        ("a,b\n1,2\n-inf,0\n", "line 3: expected finite numbers"),
        ("a,b\n1,2\n \n3,4\n1,\n", "line 5: could not parse a numeric value"),
        # numpy's reader strips \x1f around a number; float does not
        ("a,b\n1\x1f,2\n", "line 2: could not parse a numeric value"),
        ("a,b\n1_0,2\n\u0661,x\n", "line 3: could not parse a numeric value"),
        *[("a,b%s%s1,2%s1,x" % (b, b, b), "line 4: could not parse a numeric value")
          for b in LINE_BREAKS],
        *[("a,b%s1,2%s%s1,nan%s" % (b, b, b, b), "line 4: expected finite numbers")
          for b in LINE_BREAKS],
    ],
)
def test_read_numeric_csv_messages(text, message):
    with raises_exactly(SchemaError, message):
        read_numeric_csv(text, ("a,b",))


def csv_outcome(reader, text):
    """What reader makes of text: its message, or its header and the data's exact bits."""
    try:
        header, data = reader(text, ("a,b", "a,b,c", "a"))
    except SchemaError as error:
        return str(error)
    return header, data.dtype.str, data.shape, data.tobytes()


CSV_PADS = ["", " ", "\t", "\xa0", "\x1f", "\x00", "\u3000"]
CSV_TRAPS = ["1_0", "\u0661", "#2", "", "nan", "inf", "-inf", "1e400", "x", "0x1", "1 2", "1e-320"]


@st.composite
def trap_csvs(draw):
    """CSV texts near the readers' edges: numbers padded and broken by the traps above."""
    header = draw(st.sampled_from(["a,b", "a,b", " a,b ", "a,b,c", "a", ""]))
    number = st.floats(width=64).map(repr) | st.integers(-999, 999).map(str)
    field = st.tuples(st.sampled_from(["", " "]), number, st.sampled_from(["", "\t"])).map("".join)
    if draw(st.booleans()):
        trap = st.sampled_from(CSV_TRAPS) | number
        field |= st.tuples(st.sampled_from(CSV_PADS), trap, st.sampled_from(CSV_PADS)).map("".join)
    widths = st.sampled_from([header.count(",") + 1] * 6 + [1, 2, 3])
    row = widths.flatmap(lambda k: st.lists(field, min_size=k, max_size=k)).map(",".join)
    lines = draw(st.lists(st.sampled_from(CSV_PADS + ["\t "]) | row | row, max_size=6))
    breaks = st.sampled_from(["\n"] * 4 + LINE_BREAKS)
    return "".join(line + draw(breaks) for line in [header, *lines])


@settings(derandomize=True, max_examples=500, deadline=None)
@given(trap_csvs())
def test_read_numeric_csv_equals_the_float_loop(text):
    assert csv_outcome(read_numeric_csv, text) == csv_outcome(float_loop_read_numeric_csv, text)


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
    rows = BLOCK_VALUES // 3 * 2 + 7  # two full blocks and a partial one
    table = rng.normal(0.0, 1.0, (rows, 3)) * 10.0 ** rng.integers(-7, 11, (rows, 3))
    table[:5] = [[0.0, -0.0, 1e-5], [S21_FLOOR, 1e300, -1e-4], [0.5, 1e9 - 0.5, 123456789.5],
                 [1.0, 2.0, 3.0], [-1e-12, 5e-324, 99999999.95]]
    template = ",".join(["%.9g"] * 3) + "\n"
    want = (template * rows) % tuple(table.ravel().tolist())
    assert csv_rows(table).split("\n") == want.split("\n")


def test_hermiticity_property_random_systems():
    rng = np.random.default_rng(7)
    for _ in range(120):
        system = random_system(rng, 4, 0.6)
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


def test_an_edge_at_the_rwa_limit_is_not_ok():
    (check,) = check_rwa(single_pair_system(g_mhz=500.0, omega_c=5.0))
    assert (check.ratio, check.ok) == (RWA_LIMIT, False)


def test_rwa_ratios_need_no_mode_lookup_per_edge(monkeypatch):
    rng = np.random.default_rng(16)
    systems = [random_system(rng, 4, 0.6) for _ in range(60)]
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


def test_stacks_beyond_the_budget_raise_before_they_are_allocated(monkeypatch):
    system = system_from_document(chain_document())
    budget = MAX_STACK_ENTRIES // len(system.modes) ** 2  # 4096 grid points of 64 modes
    ports = (PortSpec(1), PortSpec(2))
    fit_spec = FitSpec(base_system=system, free_photon_frequencies=("c0",))

    def grid(points):
        return np.linspace(4.0, 6.0, points)

    def no_stack(*args, **kwargs):
        raise AssertionError("a stack was allocated")

    monkeypatch.setattr(np, "broadcast_to", no_stack)
    with raises_exactly(AssertionError, "a stack was allocated"):
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
        with raises_exactly(ValueError, message):
            call()
    with raises_exactly(ValueError, "len(omega_grid) * modes^2 must be <= %d" % MAX_STACK_ENTRIES):
        s21_map(system, ports, over, grid(1))


# ====== apply_vertex_phases ======


def test_identity_rotation():
    system = fit_device()
    rotated = apply_vertex_phases(system, {"c1": 0.0, "m2": 0.0})
    assert rotated == system


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
        system = random_system(rng, 4, 0.6)
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
    with raises_exactly(SchemaError, "phase_rad: unknown phase string 'tau/2' "
                                     "(allowed: -pi/2, 0, pi, pi/2)"):
        parse_phase("tau/2")


def test_document_round_trip():
    system = fit_device()
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
    with raises_exactly(SchemaError, "%s: expected a finite number" % where):
        system_from_document(doc)


def test_document_rejects_non_label_sweep_entries():
    for bad in (["m1"], 3, None, {"m1": 1}):
        doc = pair_document()
        doc["sweep"] = ["m1", bad]
        with raises_exactly(SchemaError, "sweep[1]: expected a mode label"):
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
    with raises_exactly(SchemaError, "%s: expected a string" % where):
        system_from_document(doc)


# ====== rejected calls ======


def pair_system(*edges, sweep=()):
    """Photon c1 at 4 GHz and magnon m1 at 5 GHz with edges and sweep."""
    modes = (ModeSpec("c1", "photon", 4.0), ModeSpec("m1", "magnon", 5.0))
    return SystemModel(modes, edges, frozenset(sweep))


PAIR_EDGE = CouplingEdge("c1", "m1", 10.0, 0.0)

REJECTED = [
    pytest.param(lambda: SystemModel((ModeSpec("c1", "photon", 4.0),) * 2, ()), ValueError,
                 "mode labels must be unique", id="system-duplicate-label"),
    pytest.param(lambda: pair_system(CouplingEdge("c1", "m2", 10.0, 0.0)), ValueError,
                 "edge (c1, m2): 'm2' is not a magnon mode", id="system-edge-unknown-magnon"),
    pytest.param(lambda: pair_system(CouplingEdge("m1", "c1", 10.0, 0.0)), ValueError,
                 "edge (m1, c1): 'm1' is not a photon mode", id="system-edge-reversed"),
    pytest.param(lambda: pair_system(PAIR_EDGE, CouplingEdge("c1", "m1", 20.0, 0.0)), ValueError,
                 "duplicate edge for pair (c1, m1)", id="system-duplicate-edge"),
    pytest.param(lambda: pair_system(sweep={"c1"}), ValueError,
                 "sweep target 'c1' is not a magnon mode", id="system-sweeps-a-photon"),
    pytest.param(lambda: HermitianMatrixGHz(("a", "b"), [[1.0, 0.5], [0.0, 2.0]]), ValueError,
                 "matrix is not Hermitian to 1e-12 relative", id="matrix-asymmetric"),
    # build_hamiltonian's rule, which hamiltonians applies at every grid point, not only
    # the first: here a bad value follows a good one
    *[pytest.param(lambda call=call, bad=bad: call(single_pair_system(), bad), ValueError,
                   "omega_m must be " + rule, id="%s-%r" % (name, bad))
      for name, call in [("build-hamiltonian", build_hamiltonian),
                         ("hamiltonians", lambda system, bad: hamiltonians(system, [5.0, bad]))]
      for bad, rule in [(0.0, "> 0 GHz"), (-1.0, "> 0 GHz"), (-math.inf, "> 0 GHz"),
                        (math.nan, "> 0 GHz"), (math.inf, "finite"), (1e300, "<= 1e+06 GHz")]],
    pytest.param(lambda: hamiltonians(single_pair_system(), np.array([5.0, 6.0, 1e300, -1.0])),
                 ValueError, "omega_m must be <= 1e+06 GHz", id="hamiltonians-first-bad-point"),
    pytest.param(lambda: apply_vertex_phases(single_pair_system(), {"nope": 1.0}), ValueError,
                 "unknown mode label 'nope'", id="vertex-phases-unknown-label"),
    pytest.param(lambda: system_from_document({"modes": [
        {"label": "c1", "kind": "photon", "frequency_ghz": -1.0}], "edges": [], "sweep": []}),
                 SchemaError, "modes[0]: mode 'c1': frequency must be finite and > 0 GHz",
                 id="document-mode-frequency"),
    *[pytest.param(lambda key=key: system_from_document(
        {k: [] for k in ("modes", "edges", "sweep") if k != key}), SchemaError,
                   "%s: missing required key" % key, id="document-no-" + key)
      for key in ("modes", "edges", "sweep")],
    pytest.param(lambda: system_from_document([]), SchemaError, "document: expected an object",
                 id="document-not-an-object"),
]

test_rejected_calls = rejected_calls(REJECTED)
