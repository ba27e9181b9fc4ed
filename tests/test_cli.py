"""End-to-end tests for the command-line interface."""

import ast
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import loopmag.cli
from loopmag.calibrate import dataset_from_csv, fit_spec_from_document
from loopmag.cli import PRESETS, main
from loopmag.fieldmap import field_table_from_csv, regions_from_document
from loopmag.model import (
    MAX_STACK_ENTRIES,
    CouplingEdge,
    ModeSpec,
    SchemaError,
    SystemModel,
    system_from_document,
)
from loopmag.spectrum import branch_frequencies, sweep, sweep_to_csv
from loopmag.transmission import PortSpec, map_to_csv, ports_from_document, s21_map

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"


def run(*args, **kwargs):
    return CliRunner().invoke(main, list(args), catch_exceptions=False, **kwargs)


def preset_system(name) -> SystemModel:
    return system_from_document(PRESETS[name]["system"])


def grid_from(config_key, name):
    spec = PRESETS[name][config_key]
    return np.linspace(spec["start_ghz"], spec["stop_ghz"], spec["points"])


# ====== gauge command ======


def test_gauge_pi_preset_reports_single_pi_phase():
    result = run("gauge", "--preset", "cavity-pi-table1")
    assert result.exit_code == 0
    report = json.loads(result.output)
    thetas = [p["theta_rad"] for p in report["physical_phases"]]
    assert len(thetas) == 1
    assert abs(thetas[0] - math.pi) < 1e-9


def test_gauge_pi0_preset_reports_pi_and_zero():
    result = run("gauge", "--preset", "cavity-pi0-table2")
    assert result.exit_code == 0
    thetas = sorted(
        p["theta_rad"] for p in json.loads(result.output)["physical_phases"]
    )
    assert len(thetas) == 2
    assert abs(thetas[0] - 0.0) < 1e-9
    assert abs(thetas[1] - math.pi) < 1e-9


def test_gauge_edgeless_config_has_no_physical_phases(tmp_path):
    config = {
        "system": {
            "modes": [{"label": "c1", "kind": "photon", "frequency_ghz": 5.0}],
            "edges": [],
            "sweep": [],
        }
    }
    path = tmp_path / "device.json"
    path.write_text(json.dumps(config))
    result = run("gauge", "--config", str(path))
    assert result.exit_code == 0
    assert json.loads(result.output)["physical_phases"] == []


def test_gauge_output_is_deterministic_and_round_trips():
    first = run("gauge", "--preset", "cavity-pi-table1")
    second = run("gauge", "--preset", "cavity-pi-table1")
    assert first.output == second.output
    document = json.loads(first.output)
    assert json.loads(json.dumps(document)) == document


def test_gauge_writes_file_and_keeps_stdout_clean(tmp_path):
    out = tmp_path / "report.json"
    result = run("gauge", "--preset", "cavity-pi-table1", "--out", str(out))
    assert result.exit_code == 0
    assert result.output == ""
    assert json.loads(out.read_text())["physical_phases"]


def test_gauge_rejects_unknown_preset():
    result = run("gauge", "--preset", "nope")
    assert result.exit_code == 2


def test_gauge_requires_exactly_one_source(tmp_path):
    assert run("gauge").exit_code == 2
    path = tmp_path / "d.json"
    path.write_text("{}")
    result = run("gauge", "--preset", "cavity-pi-table1", "--config", str(path))
    assert result.exit_code == 2


def test_gauge_schema_violation_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"system": {"modes": [], "edges": []}}))
    result = run("gauge", "--config", str(path))
    assert result.exit_code == 2
    assert "sweep" in result.output


# ====== spectrum command ======


def test_spectrum_golden_cavity_pi_table1():
    result = run("spectrum", "--preset", "cavity-pi-table1")
    assert result.exit_code == 0
    golden = (GOLDEN_DIR / "spectrum_cavity_pi_table1.csv").read_text()
    assert result.output == golden
    oracle = sweep_to_csv(
        sweep(preset_system("cavity-pi-table1"), grid_from("magnon_grid", "cavity-pi-table1"))
    )
    assert result.output == oracle


def test_spectrum_golden_cavity_pi0_table2():
    result = run("spectrum", "--preset", "cavity-pi0-table2")
    assert result.exit_code == 0
    golden = (GOLDEN_DIR / "spectrum_cavity_pi0_table2.csv").read_text()
    assert result.output == golden
    oracle = sweep_to_csv(
        sweep(preset_system("cavity-pi0-table2"), grid_from("magnon_grid", "cavity-pi0-table2"))
    )
    assert result.output == oracle


def test_spectrum_grid_flags_override_preset_grid():
    result = run(
        "spectrum",
        "--preset",
        "cavity-pi-fit",
        "--grid-start-ghz",
        "5.0",
        "--grid-stop-ghz",
        "6.0",
        "--grid-points",
        "11",
    )
    assert result.exit_code == 0
    lines = result.output.strip().split("\n")
    assert len(lines) == 12
    assert lines[1].startswith("5,")
    assert lines[-1].startswith("6,")


def test_spectrum_zero_coupling_run_keeps_branches_flat(tmp_path):
    config = {
        "system": {
            "modes": [
                {"label": "c1", "kind": "photon", "frequency_ghz": 5.0},
                {"label": "m1", "kind": "magnon", "frequency_ghz": 5.0},
            ],
            "edges": [{"photon": "c1", "magnon": "m1", "g_mhz": 0.0, "phase_rad": 0}],
            "sweep": ["m1"],
        },
        "magnon_grid": {"start_ghz": 4.0, "stop_ghz": 4.8, "points": 9},
    }
    path = tmp_path / "device.json"
    path.write_text(json.dumps(config))
    result = run("spectrum", "--config", str(path))
    assert result.exit_code == 0
    rows = [line.split(",") for line in result.output.strip().split("\n")[1:]]
    for row in rows:
        omega_m, low, high = float(row[0]), float(row[1]), float(row[2])
        assert abs(low - omega_m) < 1e-12
        assert abs(high - 5.0) < 1e-12


def test_spectrum_single_sphere_variant_drops_second_magnon():
    result = run("spectrum", "--preset", "cavity-pi-fit", "--single-sphere")
    assert result.exit_code == 0
    header = result.output.split("\n", 1)[0]
    assert header.count("branch_") == 3
    full = preset_system("cavity-pi-fit")
    keep = full.magnon_labels()[0]
    reduced = SystemModel(
        modes=tuple(m for m in full.modes if m.kind == "photon" or m.label == keep),
        edges=tuple(e for e in full.edges if e.magnon == keep),
        magnon_sweep_target=frozenset({keep}),
    )
    oracle = sweep_to_csv(sweep(reduced, grid_from("magnon_grid", "cavity-pi-fit")))
    assert result.output == oracle


def test_spectrum_empty_grid_exits_2():
    result = run("spectrum", "--preset", "cavity-pi-fit", "--grid-points", "0")
    assert result.exit_code == 2


def write_config(tmp_path, edit):
    config = json.loads(json.dumps(PRESETS["cavity-pi-table1"]))
    edit(config)
    path = tmp_path / "device.json"
    path.write_text(json.dumps(config))
    return path


def write_preset_config(tmp_path, edit):
    return write_config(tmp_path, lambda config: edit(config["system"]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_spectrum_non_finite_coupling_exits_2(tmp_path, bad):
    def edit(system):
        system["edges"][0]["g_mhz"] = bad

    path = write_preset_config(tmp_path, edit)
    assert ("NaN" if math.isnan(bad) else "Infinity") in path.read_text()
    result = run("spectrum", "--config", str(path))
    assert result.exit_code == 2
    assert result.output == "error: edges[0].g_mhz: expected a finite number\n"


def test_spectrum_non_label_sweep_entry_exits_2(tmp_path):
    def edit(system):
        system["sweep"] = [["m1"]]

    result = run("spectrum", "--config", str(write_preset_config(tmp_path, edit)))
    assert result.exit_code == 2
    assert result.output == "error: sweep[0]: expected a mode label\n"


@pytest.mark.parametrize(
    "section, key, bad, message",
    [
        ("modes", "label", ["x"], "modes[0].label: expected a string"),
        ("edges", "photon", {"label": "c1"}, "edges[0].photon: expected a string"),
    ],
)
def test_spectrum_non_string_label_exits_2(tmp_path, section, key, bad, message):
    def edit(system):
        system[section][0][key] = bad

    result = run("spectrum", "--config", str(write_preset_config(tmp_path, edit)))
    assert result.exit_code == 2
    assert result.output == "error: %s\n" % message


@pytest.mark.parametrize(
    "key, bad, message",
    [
        ("start_ghz", "4", "magnon_grid.start_ghz: expected a number"),
        ("stop_ghz", math.inf, "magnon_grid.stop_ghz: expected a finite number"),
        ("points", 121.0, "magnon_grid.points: expected an integer"),
        ("points", "121", "magnon_grid.points: expected an integer"),
        ("start_ghz", 0.0, "magnon_grid.start_ghz must be > 0"),
        ("stop_ghz", 4.0, "magnon_grid: stop_ghz must exceed start_ghz"),
        ("points", 0, "magnon_grid.points must be >= 1"),
    ],
)
def test_spectrum_malformed_grid_setting_exits_2(tmp_path, key, bad, message):
    def edit(config):
        config["magnon_grid"][key] = bad

    result = run("spectrum", "--config", str(write_config(tmp_path, edit)))
    assert result.exit_code == 2
    assert result.output == "error: %s\n" % message


def test_spectrum_grid_that_is_not_an_object_exits_2(tmp_path):
    def edit(config):
        config["magnon_grid"] = [4.0, 7.0, 121]

    result = run("spectrum", "--config", str(write_config(tmp_path, edit)))
    assert result.exit_code == 2
    assert result.output == "error: magnon_grid: expected an object\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (("spectrum", "--grid-points", "100001"), "magnon_grid.points must be <= 100000"),
        (("s21", "--probe-points", "100001"), "probe_grid.points must be <= 100000"),
        (("s21", "--magnon-points", "100001"), "magnon_grid.points must be <= 100000"),
        (
            ("s21", "--probe-points", "100000", "--magnon-points", "11"),
            "probe_grid.points * magnon_grid.points must be <= 1000000",
        ),
    ],
)
def test_grids_beyond_their_caps_exit_2_before_any_grid_is_built(monkeypatch, args, message):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(np, "linspace", no_grid)
    result = run(*args, "--preset", "cavity-pi-fit")
    assert result.exit_code == 2
    assert result.output == "error: %s\n" % message


@pytest.mark.parametrize(
    "command, args, sizes",
    [
        ("sweep", ("spectrum", "--grid-points", "100000"), [(100000,)]),
        ("s21_map", ("s21", "--probe-points", "100000", "--magnon-points", "10"), [(100000, 10)]),
    ],
)
def test_grids_at_their_caps_are_accepted(monkeypatch, command, args, sizes):
    seen = []

    def stop(*arguments):
        seen.append(tuple(grid.size for grid in arguments if isinstance(grid, np.ndarray)))
        raise RuntimeError("stopped before solving")

    monkeypatch.setattr(loopmag.cli, command, stop)
    result = run(*args, "--preset", "cavity-pi-fit")
    assert (result.exit_code, result.output) == (1, "error: stopped before solving\n")
    assert seen == sizes


def chain_document(pairs=32):
    """A chain of 2 * pairs modes, photon c0 - magnon m0 - photon c1 - ..., all at 5 GHz."""
    modes = [{"label": "%s%d" % (prefix, k), "kind": kind, "frequency_ghz": 5.0}
             for k in range(pairs) for prefix, kind in (("c", "photon"), ("m", "magnon"))]
    edges = [{"photon": "c%d" % k, "magnon": "m%d" % j, "g_mhz": 50.0, "phase_rad": 0}
             for k in range(pairs) for j in (k - 1, k) if j >= 0]
    return {"modes": modes, "edges": edges, "sweep": ["m%d" % k for k in range(pairs)]}


@pytest.mark.parametrize(
    "command, args, where",
    [
        ("sweep", ("spectrum", "--config", "{config}", "--grid-points", "{points}"),
         "magnon_grid.points"),
        ("s21_map", ("s21", "--config", "{config}", "--probe-points", "{points}"),
         "probe_grid.points"),
        ("s21_map", ("s21", "--config", "{config}", "--magnon-points", "{points}"),
         "magnon_grid.points"),
        ("fit", ("fit", "--data", "{data}", "--spec", "{spec}"),
         "--data: unique omega_m_ghz values"),
    ],
)
def test_matrix_stacks_beyond_the_budget_exit_2_before_any_is_built(
        tmp_path, monkeypatch, command, args, where):
    system = chain_document()
    budget = MAX_STACK_ENTRIES // len(system["modes"]) ** 2  # 4096 grid points of 64 modes
    grid = {"start_ghz": 4.0, "stop_ghz": 6.0, "points": 1}
    files = {name: tmp_path / name for name in ("config", "spec", "data")}
    files["config"].write_text(json.dumps({"system": system, "magnon_grid": grid, "probe_grid": grid}))
    files["spec"].write_text(json.dumps({"system": system, "free_photon_frequencies": ["c0"],
                                         "theta_hypotheses": [[]], "initial": [5.0]}))

    def no_stack(*arguments):
        raise RuntimeError("stopped before building a stack")

    monkeypatch.setattr(loopmag.cli, command, no_stack)
    for points, expected in ((budget, (1, "error: stopped before building a stack\n")),
                             (budget + 1, (2, "error: %s * modes^2 must be <= %d\n"
                                           % (where, MAX_STACK_ENTRIES)))):
        files["data"].write_text("omega_m_ghz,omega_peak_ghz\n"
                                 + "".join("%d,5\n" % (k + 1) for k in range(points)))
        result = run(*(arg.format(points=points, **files) for arg in args))
        assert (result.exit_code, result.stdout, result.stderr) == (expected[0], "", expected[1])


@pytest.mark.parametrize(
    "args, message",
    [
        (("spectrum", "--grid-start-ghz", "1e300", "--grid-stop-ghz", "1.1e300",
          "--grid-points", "2"), "magnon_grid.start_ghz must be <= 1e+06"),
        (("spectrum", "--grid-start-ghz", "1e300", "--grid-points", "1"),
         "magnon_grid.start_ghz must be <= 1e+06"),
        (("s21", "--probe-stop-ghz", "2e6"), "probe_grid.stop_ghz must be <= 1e+06"),
        (("s21", "--magnon-stop-ghz", "1e300"), "magnon_grid.stop_ghz must be <= 1e+06"),
    ],
)
def test_grids_beyond_the_frequency_ceiling_exit_2_without_warnings(args, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(*args, "--preset", "cavity-pi-fit")
    assert [str(w.message) for w in caught] == []
    assert (result.exit_code, result.output) == (2, "error: %s\n" % message)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda config: config["magnon_grid"].update(stop_ghz=1e300),
         "magnon_grid.stop_ghz must be <= 1e+06"),
        (lambda config: config["system"]["modes"][1].update(frequency_ghz=1e300),
         "modes[1]: mode 'c2': frequency must be <= 1e+06 GHz"),
    ],
)
def test_configs_beyond_the_frequency_ceiling_exit_2_without_warnings(tmp_path, edit, message):
    path = write_config(tmp_path, edit)
    for command in ("spectrum", "s21"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run(command, "--config", str(path))
        assert [str(w.message) for w in caught] == []
        assert (result.exit_code, result.output) == (2, "error: %s\n" % message)


@pytest.mark.parametrize(
    "commands, edit, message",
    [
        (("spectrum", "s21"), lambda config: config["system"]["edges"][0].update(g_mhz=1e300),
         "edges[0]: edge (c1, m1): strength must be within +-1e+09 MHz"),
        (("spectrum", "s21"),
         lambda config: config["system"]["modes"][2].update(intrinsic_loss_mhz=1e300),
         "modes[2]: mode 'm1': intrinsic_loss must be <= 1e+09 MHz"),
        (("spectrum", "s21"),
         lambda config: config["system"]["modes"][0].update(external_loss_mhz=1e300),
         "modes[0]: mode 'c1': external_loss must be <= 1e+09 MHz"),
        (("s21",), lambda config: config.update(ports={"1": {"c1": 1e300}, "2": None}),
         "port 1: external rate for 'c1' must be <= 1e+09 MHz"),
    ],
)
def test_configs_beyond_the_rate_ceiling_exit_2_without_warnings(tmp_path, commands, edit, message):
    path = write_config(tmp_path, edit)
    for command in commands:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run(command, "--config", str(path))
        assert [str(w.message) for w in caught] == []
        assert (result.exit_code, result.output) == (2, "error: %s\n" % message)


def test_fit_coupling_bound_beyond_the_rate_ceiling_exits_2(tmp_path):
    data, spec = write_fit_inputs(tmp_path)
    spec.write_text(json.dumps({
        "preset": "cavity-pi-fit", "free_couplings": ["c1"], "theta_hypotheses": [["pi"]],
        "initial": [0.1], "bounds": {"g:c1": [0.0, 1e7]},
    }))
    result = run("fit", "--data", str(data), "--spec", str(spec))
    assert (result.exit_code, result.output) == (
        2, "error: bounds for 'g:c1' must be within +-1e+06 GHz\n")


def test_s21_infinite_port_rate_exits_2(tmp_path):
    def edit(config):
        config["ports"] = {"1": {"c1": math.inf}, "2": None}

    path = write_config(tmp_path, edit)
    assert "Infinity" in path.read_text()
    result = run("s21", "--config", str(path))
    assert result.exit_code == 2
    assert result.output == "error: ports.1.c1: expected a finite number\n"


@pytest.mark.parametrize(
    "ports, message",
    [
        ({"1": {"zz": 1.0}, "2": None}, "port 1: 'zz' is not a photon mode of the system"),
        ({"1": {}, "2": None}, "port 1 couples to no photon mode"),
        ({"1": {"c1": None}, "2": None}, "ports.1.c1: expected a number"),
        ({"1": None, "2": {"c2": "5"}}, "ports.2.c2: expected a number"),
        ({"1": {"c1": True}, "2": None}, "ports.1.c1: expected a number"),
        ({"1": 5.0, "2": None}, "ports.1: expected null or a label->rate object"),
        ({"1": None}, "ports: expected an object with exactly the keys '1' and '2'"),
    ],
)
def test_s21_malformed_ports_exit_2(tmp_path, ports, message):
    def edit(config):
        config["ports"] = ports

    result = run("s21", "--config", str(write_config(tmp_path, edit)))
    assert result.exit_code == 2
    assert result.output == "error: %s\n" % message


def test_spectrum_eigensolver_failure_exits_1(monkeypatch):
    def failing_eigh(mats):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    result = run("spectrum", "--preset", "cavity-pi-table1")
    assert result.exit_code == 1
    assert result.output == "error: Eigenvalues did not converge\n"


# ====== s21 command ======


PI0_S21_FLAGS = (
    "--probe-start-ghz", "6.4", "--probe-stop-ghz", "9.0", "--probe-points", "1301",
    "--magnon-start-ghz", "7.9", "--magnon-stop-ghz", "8.1", "--magnon-points", "3",
)


def test_s21_map_matches_library_output(tmp_path):
    out = tmp_path / "map.csv"
    result = run("s21", "--preset", "cavity-pi0-table2", *PI0_S21_FLAGS, "--out", str(out))
    assert result.exit_code == 0
    tmap = s21_map(
        preset_system("cavity-pi0-table2"),
        (PortSpec(1), PortSpec(2)),
        np.linspace(6.4, 9.0, 1301),
        np.linspace(7.9, 8.1, 3),
    )
    assert out.read_text() == map_to_csv(tmap)
    sidecar = json.loads((tmp_path / "map.csv.json").read_text())
    assert any("intrinsic" in note for note in sidecar["defaults_applied"])
    assert any("port" in note for note in sidecar["defaults_applied"])
    assert "generated_at" not in sidecar


def test_s21_sidecar_timestamp_is_opt_in(tmp_path):
    out = tmp_path / "map.csv"
    args = ("s21", "--preset", "cavity-pi0-table2",
            "--probe-start-ghz", "7.9", "--probe-stop-ghz", "8.1",
            "--probe-points", "11", "--magnon-points", "2")
    first = run(*args, "--out", str(out))
    assert first.exit_code == 0
    bytes_first = out.read_bytes() + (tmp_path / "map.csv.json").read_bytes()
    second = run(*args, "--out", str(out))
    assert second.exit_code == 0
    assert out.read_bytes() + (tmp_path / "map.csv.json").read_bytes() == bytes_first
    stamped = run(*args, "--timestamp", "--out", str(out))
    assert stamped.exit_code == 0
    assert "generated_at" in json.loads((tmp_path / "map.csv.json").read_text())


def test_s21_dark_segment_stays_suppressed_on_pi0(tmp_path):
    out = tmp_path / "map.csv"
    result = run("s21", "--preset", "cavity-pi0-table2", *PI0_S21_FLAGS, "--out", str(out))
    assert result.exit_code == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    column = {
        float(r[0]): float(r[2]) for r in rows if abs(float(r[1]) - 8.0) < 1e-9
    }
    omegas = np.array(sorted(column))
    values = np.array([column[w] for w in omegas])
    eigen = branch_frequencies(preset_system("cavity-pi0-table2"), [8.0])[0]
    dark = eigen[np.argmin(np.abs(eigen - 8.0))]
    near_dark = values[np.abs(omegas - dark) <= 0.01]
    assert np.max(near_dark) < np.max(values) - 15.0


def test_s21_ports_from_config(tmp_path):
    config = {
        "system": {
            "modes": [
                {"label": "c1", "kind": "photon", "frequency_ghz": 5.0,
                 "intrinsic_loss_mhz": 5.0},
                {"label": "m1", "kind": "magnon", "frequency_ghz": 5.0,
                 "intrinsic_loss_mhz": 2.0},
            ],
            "edges": [{"photon": "c1", "magnon": "m1", "g_mhz": 50.0, "phase_rad": 0}],
            "sweep": ["m1"],
        },
        "ports": {"1": {"c1": 5.0}, "2": {"c1": 5.0}},
        "probe_grid": {"start_ghz": 4.8, "stop_ghz": 5.2, "points": 21},
        "magnon_grid": {"start_ghz": 5.0, "stop_ghz": 5.1, "points": 2},
    }
    path = tmp_path / "device.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "map.csv"
    result = run("s21", "--config", str(path), "--out", str(out))
    assert result.exit_code == 0
    sidecar = json.loads((tmp_path / "map.csv.json").read_text())
    assert not any("port" in note for note in sidecar["defaults_applied"])
    assert sidecar["ports"] == {"1": {"c1": 5.0}, "2": {"c1": 5.0}}


# ====== fieldmap command ======


UNIFORM_FIELD_CSV = (
    "x_m,y_m,z_m,hx_re,hx_im,hy_re,hy_im,hz_re,hz_im,weight_m3\n"
    "0.1,0,0,1,0,0,0,0,0,0.5\n"
    "-0.1,0,0,1,0,0,0,0,0,0.5\n"
)

FIELDMAP_CONFIG = {
    "regions": [{"label": "m1", "center_m": [0.0, 0.0, 0.0], "radius_m": 1.0}],
    "mode_frequencies_ghz": {"c1": 4.524},
}


def test_fieldmap_emits_edge_document(tmp_path):
    mode_file = tmp_path / "c1.csv"
    mode_file.write_text(UNIFORM_FIELD_CSV)
    config = tmp_path / "regions.json"
    config.write_text(json.dumps(FIELDMAP_CONFIG))
    out = tmp_path / "edges.json"
    result = run(
        "fieldmap",
        "--mode-file", "c1=%s" % mode_file,
        "--config", str(config),
        "--out", str(out),
    )
    assert result.exit_code == 0
    document = json.loads(out.read_text())
    assert len(document["edges"]) == 1
    edge = document["edges"][0]
    assert edge["photon"] == "c1"
    assert edge["magnon"] == "m1"
    assert abs(edge["g_mhz"] - 27.9094456) < 1e-3
    assert abs(edge["phase_rad"]) < 1e-12


@pytest.mark.parametrize(
    "old, new",
    [("0,0,1,0,0,0,0,0,0.5", "0,0,1e200,0,0,0,0,0,0.5"),
     ("0,0,1,0,0,0,0,0,0.5", "0,0,1,0,0,0,0,0,1e300")],
)
def test_fieldmap_huge_field_or_weight_gives_the_unscaled_edge(tmp_path, old, new):
    (tmp_path / "c1.csv").write_text(UNIFORM_FIELD_CSV.replace(old, new))
    (tmp_path / "regions.json").write_text(json.dumps(FIELDMAP_CONFIG))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(
            "fieldmap", "--mode-file", "c1=%s" % (tmp_path / "c1.csv"),
            "--config", str(tmp_path / "regions.json"),
        )
    assert [str(w.message) for w in caught] == []
    assert result.exit_code == 0, result.output
    edge = json.loads(result.output)["edges"][0]
    assert abs(edge["g_mhz"] - 27.9094456) < 1e-3
    assert abs(edge["phase_rad"]) < 1e-12


def test_fieldmap_rejects_mode_without_frequency(tmp_path):
    mode_file = tmp_path / "c9.csv"
    mode_file.write_text(UNIFORM_FIELD_CSV)
    config = tmp_path / "regions.json"
    config.write_text(json.dumps(FIELDMAP_CONFIG))
    result = run(
        "fieldmap", "--mode-file", "c9=%s" % mode_file, "--config", str(config)
    )
    assert result.exit_code == 2
    assert "frequency" in result.output


def test_fieldmap_bad_csv_exits_2(tmp_path):
    mode_file = tmp_path / "c1.csv"
    mode_file.write_text("x,y\n1,2\n")
    config = tmp_path / "regions.json"
    config.write_text(json.dumps(FIELDMAP_CONFIG))
    result = run(
        "fieldmap", "--mode-file", "c1=%s" % mode_file, "--config", str(config)
    )
    assert result.exit_code == 2
    assert "header" in result.output


def test_fieldmap_degenerate_phase_is_computation_failure(tmp_path):
    axial = (
        "x_m,y_m,z_m,hx_re,hx_im,hy_re,hy_im,hz_re,hz_im,weight_m3\n"
        "0.1,0,0,0,0,0,0,1,0,0.5\n"
        "-0.1,0,0,0,0,0,0,1,0,0.5\n"
    )
    mode_file = tmp_path / "c1.csv"
    mode_file.write_text(axial)
    config = tmp_path / "regions.json"
    config.write_text(json.dumps(FIELDMAP_CONFIG))
    result = run(
        "fieldmap", "--mode-file", "c1=%s" % mode_file, "--config", str(config)
    )
    assert result.exit_code == 1


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda c: c.update(regions=5), "regions: expected a list"),
        (lambda c: c.update(mode_frequencies_ghz=[1]),
         "mode_frequencies_ghz: expected a label->GHz object"),
        (lambda c: c["mode_frequencies_ghz"].update(c1=math.nan),
         "mode_frequencies_ghz.c1: expected a finite number"),
        (lambda c: c["mode_frequencies_ghz"].update(c1=-4.524),
         "mode_frequencies_ghz.c1 must be > 0"),
        (lambda c: c["regions"][0]["center_m"].__setitem__(1, math.nan),
         "regions[0].center_m[1]: expected a finite number"),
        (lambda c: c["regions"].append(c["regions"][0]),
         "regions[1].label: duplicate region label 'm1'"),
        (lambda c: c["regions"][0].update(label=[1]), "regions[0].label: expected a string"),
        (lambda c: c["regions"][0].update(radius_m="1"), "regions[0].radius_m: expected a number"),
        (lambda c: c["regions"][0].update(radius_m=-1.0),
         "regions[0]: radius must be finite and > 0 m"),
        (lambda c: c["regions"][0].pop("center_m"), "regions[0].center_m: missing required key"),
        (lambda c: c["regions"][0].update(center_m=[0.0, 0.0]),
         "regions[0].center_m: expected a list of three numbers"),
        (lambda c: c["regions"][0].update(center_m=[1e200, 0, 0]),
         "regions[0]: center must be within +-1e+06 m"),
        (lambda c: c["regions"][0].update(radius_m=1e300), "regions[0]: radius must be <= 1e+06 m"),
        (lambda c: c["mode_frequencies_ghz"].update(c1=1e300),
         "mode_frequencies_ghz.c1 must be <= 1e+06"),
        (lambda c: c["mode_frequencies_ghz"].update(c1=1e7),
         "mode_frequencies_ghz.c1 must be <= 1e+06"),
        (lambda c: c["mode_frequencies_ghz"].pop("c1"), "no frequency given for mode 'c1'"),
    ],
)
def test_fieldmap_malformed_config_exits_2(tmp_path, edit, message):
    config = json.loads(json.dumps(FIELDMAP_CONFIG))
    edit(config)
    (tmp_path / "regions.json").write_text(json.dumps(config))
    (tmp_path / "c1.csv").write_text(UNIFORM_FIELD_CSV)
    result = run(
        "fieldmap", "--mode-file", "c1=%s" % (tmp_path / "c1.csv"),
        "--config", str(tmp_path / "regions.json"),
    )
    assert result.exit_code == 2
    assert result.output == "error: %s\n" % message


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_fieldmap_non_finite_sample_exits_2_without_a_warning(tmp_path, bad):
    (tmp_path / "c1.csv").write_text(UNIFORM_FIELD_CSV.replace("-0.1,0,0,1", "-0.1,0,0," + bad))
    (tmp_path / "regions.json").write_text(json.dumps(FIELDMAP_CONFIG))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(
            "fieldmap", "--mode-file", "c1=%s" % (tmp_path / "c1.csv"),
            "--config", str(tmp_path / "regions.json"),
        )
    assert result.exit_code == 2
    assert result.output == "error: --mode-file c1: line 3: expected finite numbers\n"
    assert [str(w.message) for w in caught] == []


UNWEIGHTED_FIELD_CSV = (
    "x_m,y_m,z_m,hx_re,hx_im,hy_re,hy_im,hz_re,hz_im\n"
    "-1e308,-1e200,-1e200,1,0,0,0,0,0\n"
    "1e308,1e200,1e200,1,0,0,0,0,0\n"
)


@pytest.mark.parametrize(
    "csv",
    [UNIFORM_FIELD_CSV.replace("\n0.1,0,0", "\n1e200,0,0"), UNWEIGHTED_FIELD_CSV],
    ids=["weighted", "unweighted"],
)
def test_fieldmap_export_beyond_the_length_ceiling_exits_2_without_warnings(tmp_path, csv):
    (tmp_path / "regions.json").write_text(json.dumps(FIELDMAP_CONFIG))
    (tmp_path / "c1.csv").write_text(csv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(
            "fieldmap", "--mode-file", "c1=%s" % (tmp_path / "c1.csv"),
            "--config", str(tmp_path / "regions.json"),
        )
    assert [str(w.message) for w in caught] == []
    assert (result.exit_code, result.output) == (
        2, "error: --mode-file c1: positions must be within +-1e+06 m\n")


# ====== fit command ======


def fit_truth_system():
    return SystemModel(
        modes=(
            ModeSpec("c1", "photon", 4.527),
            ModeSpec("c2", "photon", 6.19),
            ModeSpec("m1", "magnon", 5.36),
            ModeSpec("m2", "magnon", 5.36),
        ),
        edges=(
            CouplingEdge("c1", "m1", 81.0, 0.0),
            CouplingEdge("c1", "m2", 81.0, math.pi),
            CouplingEdge("c2", "m1", 120.0, 0.0),
            CouplingEdge("c2", "m2", 120.0, 0.0),
        ),
        magnon_sweep_target=frozenset({"m1", "m2"}),
    )


def write_fit_inputs(tmp_path):
    grid = np.linspace(4.4, 6.3, 8)
    table = branch_frequencies(fit_truth_system(), grid)
    lines = ["omega_m_ghz,omega_peak_ghz"]
    for i, omega_m in enumerate(grid):
        for peak in table[i]:
            lines.append("%.12g,%.12g" % (omega_m, peak))
    data = tmp_path / "peaks.csv"
    data.write_text("\n".join(lines) + "\n")
    fitspec = {
        "preset": "cavity-pi-fit",
        "free_photon_frequencies": ["c1", "c2"],
        "free_couplings": ["c1", "c2"],
        "theta_hypotheses": [["pi"], [0]],
        "initial": [4.52, 6.195, 0.078, 0.118],
    }
    spec = tmp_path / "fitspec.json"
    spec.write_text(json.dumps(fitspec))
    return data, spec


def test_fit_command_recovers_truth(tmp_path):
    data, spec = write_fit_inputs(tmp_path)
    out = tmp_path / "fit.json"
    result = run("fit", "--data", str(data), "--spec", str(spec), "--out", str(out))
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert abs(report["theta_assignment_rad"][0] - math.pi) < 1e-12
    assert abs(report["params"]["omega_c:c1"] - 4.527) < 1e-3
    assert abs(report["params"]["omega_c:c2"] - 6.19) < 1e-3
    assert abs(report["params"]["g:c1"] - 0.081) < 1e-3
    assert abs(report["params"]["g:c2"] - 0.120) < 1e-3
    assert report["converged"] is True
    assert report["ambiguous"] is False
    assert len(report["per_hypothesis"]) == 2


def test_fit_command_is_deterministic(tmp_path):
    data, spec = write_fit_inputs(tmp_path)
    first = run("fit", "--data", str(data), "--spec", str(spec))
    second = run("fit", "--data", str(data), "--spec", str(spec))
    assert first.exit_code == 0
    assert first.output == second.output
    document = json.loads(first.output)
    assert json.loads(json.dumps(document)) == document


def test_fit_command_rejects_malformed_peaks(tmp_path):
    _, spec = write_fit_inputs(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_text("frequency,peak\n1,2\n")
    result = run("fit", "--data", str(bad), "--spec", str(spec))
    assert result.exit_code == 2
    assert "header" in result.output


def test_fit_initial_value_outside_its_bounds_exits_2(tmp_path):
    data, spec = write_fit_inputs(tmp_path)
    spec.write_text(json.dumps({
        "preset": "cavity-pi-fit", "free_couplings": ["c1"],
        "theta_hypotheses": [["pi"]], "initial": [5.0],
    }))
    result = run("fit", "--data", str(data), "--spec", str(spec))
    assert result.exit_code == 2
    assert result.output == "error: initial value 5 for 'g:c1' is outside its bounds [0, 2]\n"


def test_fit_frequency_bound_at_or_below_zero_exits_2_at_load(tmp_path):
    data = tmp_path / "peaks.csv"
    data.write_text("omega_m_ghz,omega_peak_ghz\n5.0,-1.0\n5.1,-1.0\n5.2,-1.1\n")
    spec = tmp_path / "fitspec.json"
    spec.write_text(json.dumps({
        "preset": "cavity-pi-fit", "free_photon_frequencies": ["c1"],
        "theta_hypotheses": [["pi"]], "initial": [0.5], "bounds": {"omega_c:c1": [-5, 5]},
    }))
    result = run("fit", "--data", str(data), "--spec", str(spec))
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == "error: bounds for 'omega_c:c1' must be > 0 GHz\n"


def test_fit_sigma_below_one_hz_exits_2_without_warnings(tmp_path):
    _, spec = write_fit_inputs(tmp_path)
    data = tmp_path / "peaks.csv"
    data.write_text("omega_m_ghz,omega_peak_ghz,sigma_ghz\n5.0,4.5,1e-300\n5.1,4.6,1e-300\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run("fit", "--data", str(data), "--spec", str(spec))
    assert [str(w.message) for w in caught] == []
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == "error: record 0: sigma must be >= 1e-09 GHz\n"


def test_fit_command_rejects_bad_spec(tmp_path):
    data, _ = write_fit_inputs(tmp_path)
    spec = tmp_path / "fitspec.json"
    spec.write_text(json.dumps({"preset": "cavity-pi-fit", "initial": []}))
    result = run("fit", "--data", str(data), "--spec", str(spec))
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "key, bad, message",
    [
        ("theta_hypotheses", 5, "fit spec.theta_hypotheses: expected a list"),
        ("theta_hypotheses", ["pi", "0"], "fit spec.theta_hypotheses[0]: expected a list"),
        ("theta_hypotheses", [["x"], [0]], "fit spec.theta_hypotheses[0]: phase_rad: unknown"),
        ("free_couplings", 5, "fit spec.free_couplings: expected a list of labels"),
        ("free_couplings", [["c1"]], "fit spec.free_couplings[0]: expected a string"),
        ("initial", 5, "fit spec.initial: expected a list of numbers"),
        ("initial", [4.52, "6.195", 0.078, 0.118], "fit spec.initial[1]: expected a number"),
        ("bounds", [1, 2], "fit spec.bounds: expected an object"),
        ("bounds", {"g:c1": 0.1}, "fit spec.bounds.g:c1: expected a [lower, upper] pair"),
        ("bounds", {"g:c1": [0.0, None]}, "fit spec.bounds.g:c1[1]: expected a number"),
        ("preset", ["x"], "fit spec.preset: expected a string"),
        ("max_iterations", [1], "fit spec.max_iterations: expected a positive integer"),
        ("continuous_theta", "false", "fit spec.continuous_theta: expected true or false"),
        ("initial", [4.52], "fit spec: 'initial' must hold 4 value(s), got 1"),
    ],
)
def test_fit_command_rejects_mistyped_spec_fields(tmp_path, key, bad, message):
    data, spec = write_fit_inputs(tmp_path)
    document = json.loads(spec.read_text())
    document[key] = bad
    spec.write_text(json.dumps(document))
    result = run("fit", "--data", str(data), "--spec", str(spec))
    assert result.exit_code == 2
    assert message in result.output


# ====== rotating-wave warnings ======


def test_presets_print_no_rotating_wave_warning(tmp_path):
    out = str(tmp_path / "out")
    for name in PRESETS:
        for command in ("gauge", "spectrum", "s21"):
            assert (run(command, "--preset", name, "--out", out).output) == ""
    data, spec = write_fit_inputs(tmp_path)
    spec.write_text(json.dumps({"preset": "cavity-pi-fit", "free_couplings": ["c1"],
                                "theta_hypotheses": [["pi"]], "initial": [0.08],
                                "max_iterations": 5}))
    assert run("fit", "--data", str(data), "--spec", str(spec), "--out", out).output == ""


def test_an_edge_beyond_the_rotating_wave_limit_warns_once_on_stderr(tmp_path):
    config = json.loads(json.dumps(PRESETS["cavity-pi-fit"]))
    config["system"]["edges"][2]["g_mhz"] = 1e7  # c2-m1: 1e4 GHz against 6.19 GHz
    path = tmp_path / "device.json"
    path.write_text(json.dumps(config))
    warning = ("warning: edge (c2, m1): g/omega_photon = 1.62e+03 is not below the "
               "rotating-wave limit 0.1\n")
    out = tmp_path / "out"
    for command in ("gauge", "spectrum", "s21"):
        result = run(command, "--config", str(path), "--out", str(out))
        assert (result.exit_code, result.output) == (0, warning)
    system = system_from_document(config["system"])
    assert out.read_text() == map_to_csv(s21_map(
        system, (PortSpec(1), PortSpec(2)), grid_from("probe_grid", "cavity-pi-fit"),
        grid_from("magnon_grid", "cavity-pi-fit")))
    data, spec = write_fit_inputs(tmp_path)
    spec.write_text(json.dumps({"system": config["system"], "free_couplings": ["c1"],
                                "theta_hypotheses": [["pi"]], "initial": [0.08],
                                "max_iterations": 5}))
    result = run("fit", "--data", str(data), "--spec", str(spec), "--out", str(out))
    assert (result.exit_code, result.output) == (0, warning)


# ====== library loaders ======


def arguments_of(monkeypatch, name):
    """The positional arguments each call of loopmag.cli.<name> gets; the call then fails."""
    seen = []

    def stop(*arguments):
        seen.append(arguments)
        raise RuntimeError("stopped before computing")

    monkeypatch.setattr(loopmag.cli, name, stop)
    return seen


def test_ports_loader_returns_what_s21_builds(tmp_path, monkeypatch):
    seen = arguments_of(monkeypatch, "s21_map")
    system = preset_system("cavity-pi-table1")
    for ports_doc in (None, {"1": {"c1": 5.0}, "2": None}, {"1": None, "2": {"c2": 0.5}}):
        path = write_config(tmp_path, lambda config: config.update(ports=ports_doc))
        assert run("s21", "--config", str(path)).exit_code == 1
        assert seen.pop()[:2] == (system, ports_from_document(ports_doc, system))
    assert ports_from_document(None, system) == (PortSpec(1), PortSpec(2))


def test_ports_loader_raises_the_message_s21_prints():
    with pytest.raises(SchemaError) as error:
        ports_from_document({"1": 5.0, "2": None}, preset_system("cavity-pi-table1"))
    assert str(error.value) == "ports.1: expected null or a label->rate object"


def test_regions_loader_returns_what_fieldmap_builds(tmp_path, monkeypatch):
    seen = arguments_of(monkeypatch, "coupling_table")
    config = json.loads(json.dumps(FIELDMAP_CONFIG))
    config["regions"].append({"label": "m2", "center_m": [0.5, 0, 0], "radius_m": 0.25})
    config["mode_frequencies_ghz"]["c2"] = 6.19
    (tmp_path / "regions.json").write_text(json.dumps(config))
    (tmp_path / "c1.csv").write_text(UNIFORM_FIELD_CSV)
    result = run("fieldmap", "--mode-file", "c1=%s" % (tmp_path / "c1.csv"),
                 "--config", str(tmp_path / "regions.json"))
    assert result.exit_code == 1
    (mode_fields, regions, frequencies), = seen
    assert (regions, frequencies) == regions_from_document(config)
    assert [r.label for r in regions] == ["m1", "m2"] and frequencies == {"c1": 4.524, "c2": 6.19}
    table = field_table_from_csv(UNIFORM_FIELD_CSV)
    assert list(mode_fields) == ["c1"]
    for name in ("positions", "h", "weights"):
        assert np.array_equal(getattr(mode_fields["c1"], name), getattr(table, name))


def test_regions_loader_raises_the_message_fieldmap_prints():
    config = json.loads(json.dumps(FIELDMAP_CONFIG))
    config["regions"][0]["center_m"] = [0.0, 0.0]
    with pytest.raises(SchemaError) as error:
        regions_from_document(config)
    assert str(error.value) == "regions[0].center_m: expected a list of three numbers"


def test_fit_spec_loader_returns_what_fit_builds(tmp_path, monkeypatch):
    seen = arguments_of(monkeypatch, "fit")
    data, spec = write_fit_inputs(tmp_path)
    document = json.loads(spec.read_text())
    for extra in ({}, {"bounds": {"g:c1": [0.05, 0.1]}, "max_iterations": 7}):
        document.update(extra)
        spec.write_text(json.dumps(document))
        assert run("fit", "--data", str(data), "--spec", str(spec)).exit_code == 1
        fit_spec, dataset, initial, max_iterations = seen.pop()
        assert dataset == dataset_from_csv(data.read_text())
        assert (fit_spec, initial, max_iterations) == fit_spec_from_document(
            document, preset_system("cavity-pi-fit"))
    assert fit_spec.bounds == {"g:c1": (0.05, 0.1)} and max_iterations == 7
    assert initial == (4.52, 6.195, 0.078, 0.118)
    assert fit_spec.theta_hypotheses == ((math.pi,), (0.0,))


def test_fit_spec_loader_raises_the_message_fit_prints(tmp_path):
    document = json.loads(write_fit_inputs(tmp_path)[1].read_text())
    document["initial"] = [4.52]
    with pytest.raises(SchemaError) as error:
        fit_spec_from_document(document, preset_system("cavity-pi-fit"))
    assert str(error.value) == "fit spec: 'initial' must hold 4 value(s), got 1"


# ====== command runner ======


def command_args(command, tmp_path):
    if command == "fieldmap":
        (tmp_path / "c1.csv").write_text(UNIFORM_FIELD_CSV)
        (tmp_path / "regions.json").write_text(json.dumps(FIELDMAP_CONFIG))
        return ["fieldmap", "--mode-file", "c1=%s" % (tmp_path / "c1.csv"),
                "--config", str(tmp_path / "regions.json")]
    if command == "fit":
        data, spec = write_fit_inputs(tmp_path)
        return ["fit", "--data", str(data), "--spec", str(spec)]
    return [command, "--preset", "cavity-pi-fit"]


@pytest.mark.parametrize("command", ["gauge", "spectrum", "s21", "fieldmap", "fit"])
def test_unwritable_out_exits_1_with_one_error_line(tmp_path, command):
    out = tmp_path / "no" / "such" / "dir" / "payload"
    result = run(*command_args(command, tmp_path), "--out", str(out))
    assert result.exit_code == 1
    assert result.output.startswith("error: ") and result.output.count("\n") == 1


def test_s21_unwritable_sidecar_exits_1_after_the_csv(tmp_path):
    out = tmp_path / "map.csv"
    (tmp_path / "map.csv.json").mkdir()
    result = run("s21", "--preset", "cavity-pi-fit", "--out", str(out))
    assert result.exit_code == 1
    assert result.output.startswith("error: ") and result.output.count("\n") == 1
    assert out.read_text() == run("s21", "--preset", "cavity-pi-fit").output


def test_only_the_runner_maps_errors_to_exit_codes():
    tree = ast.parse(pathlib.Path(loopmag.cli.__file__).read_text())
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef) or node.name == "_runs":
            continue
        inner = list(ast.walk(node))
        assert not {"_fail", "_LOAD_ERRORS"} & {n.id for n in inner if isinstance(n, ast.Name)}
        if node.name.startswith("cmd_"):
            assert not any(isinstance(n, ast.Try) for n in inner), node.name


# ====== start-up imports ======


def fresh_python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_importing_the_package_and_cli_loads_no_scipy():
    for modules in ("loopmag, loopmag.cli", "loopmag.spectrum"):
        proc = fresh_python(
            "-c",
            "import sys, %s; " % modules
            + "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n", modules


def test_fit_command_runs_in_a_fresh_process(tmp_path):
    data, spec = write_fit_inputs(tmp_path)
    proc = fresh_python("-m", "loopmag.cli", "fit", "--data", str(data), "--spec", str(spec))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run("fit", "--data", str(data), "--spec", str(spec)).output
    assert abs(json.loads(proc.stdout)["theta_assignment_rad"][0] - math.pi) < 1e-12


@pytest.mark.parametrize("command", ["gauge", "fieldmap", "fit"])
def test_json_nested_too_deep_exits_2_with_one_error_line(tmp_path, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    (tmp_path / "c1.csv").write_text(UNIFORM_FIELD_CSV)
    data, _ = write_fit_inputs(tmp_path)
    args = {
        "gauge": ["--config", str(deep)],
        "fieldmap": ["--mode-file", "c1=%s" % (tmp_path / "c1.csv"), "--config", str(deep)],
        "fit": ["--data", str(data), "--spec", str(deep)],
    }[command]
    proc = fresh_python("-m", "loopmag.cli", command, *args)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: %s: JSON nesting is too deep\n" % deep


@pytest.mark.parametrize(
    "args, document, message",
    [
        (("gauge",), {}, "give exactly one of --preset or --config"),
        (("gauge", "--config", "{config}"), [], "{config}: expected a JSON object at top level"),
        (("gauge", "--config", "{config}"), {}, "config: missing required key 'system'"),
        (("gauge", "--config", "{config}"), {"system": {"modes": [], "edges": [], "sweep": "m1"}},
         "sweep: expected a list"),
        (("spectrum", "--single-sphere", "--config", "{config}"),
         {"system": {"modes": [{"label": "c1", "kind": "photon", "frequency_ghz": 4.5}],
                     "edges": [], "sweep": []}},
         "--single-sphere requires at least one magnon mode"),
        (("spectrum", "--config", "{config}"), {"system": PRESETS["cavity-pi-fit"]["system"]},
         "magnon_grid.start_ghz: missing (set it in the config or by flag)"),
        (("fieldmap", "--mode-file", "c1", "--config", "{config}"), FIELDMAP_CONFIG,
         "--mode-file 'c1': expected label=path.csv"),
        (("fieldmap", "--mode-file", "c1={csv}", "--mode-file", "c1={csv}", "--config", "{config}"),
         FIELDMAP_CONFIG, "--mode-file: duplicate label 'c1'"),
        (("fit", "--data", "{data}", "--spec", "{config}"), {},
         "fit spec: give exactly one of 'preset' or 'system'"),
        (("fit", "--data", "{data}", "--spec", "{config}"), {"preset": "nope"},
         "fit spec: unknown preset 'nope'"),
    ],
)
def test_malformed_inputs_exit_2_with_one_error_line(tmp_path, args, document, message):
    files = {"config": tmp_path / "config.json", "csv": tmp_path / "c1.csv",
             "data": write_fit_inputs(tmp_path)[0]}
    files["config"].write_text(json.dumps(document))
    files["csv"].write_text(UNIFORM_FIELD_CSV)
    result = run(*(arg.format(**files) for arg in args))
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == "error: %s\n" % message.format(**files)
