"""End-to-end tests for the command-line interface."""

import ast
import copy
import inspect
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import loopmag.cli
from loopmag.calibrate import (
    AMBIGUITY_RATIO,
    dataset_from_csv,
    fit,
    fit_spec_from_document,
    residual,
)
from loopmag.cli import PRESETS, main
from loopmag.fieldmap import coupling_strength, field_table_from_csv, regions_from_document
from loopmag.model import (
    MAX_STACK_ENTRIES,
    SchemaError,
    SystemModel,
    system_from_document,
)
from loopmag.spectrum import branch_frequencies, min_gap, sweep, sweep_to_csv
from loopmag.transmission import PortSpec, map_to_csv, ports_from_document, s21_at, s21_map
from devices import chain_document, fit_device, preset, preset_grid, raises_exactly
from synthfields import pi_device_exports

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"


def run(*args, **kwargs):
    return CliRunner().invoke(main, list(args), catch_exceptions=False, **kwargs)


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


# ====== spectrum command ======


def test_spectrum_golden_cavity_pi_table1():
    result = run("spectrum", "--preset", "cavity-pi-table1")
    assert result.exit_code == 0
    golden = (GOLDEN_DIR / "spectrum_cavity_pi_table1.csv").read_text()
    assert result.output == golden
    oracle = sweep_to_csv(
        sweep(preset("cavity-pi-table1"), preset_grid("cavity-pi-table1", "magnon_grid"))
    )
    assert result.output == oracle


def test_spectrum_golden_cavity_pi0_table2():
    result = run("spectrum", "--preset", "cavity-pi0-table2")
    assert result.exit_code == 0
    golden = (GOLDEN_DIR / "spectrum_cavity_pi0_table2.csv").read_text()
    assert result.output == golden
    oracle = sweep_to_csv(
        sweep(preset("cavity-pi0-table2"), preset_grid("cavity-pi0-table2", "magnon_grid"))
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


def test_runs_with_grid_flags_leave_the_presets_as_they_were(tmp_path):
    before = copy.deepcopy(PRESETS)
    for flags in (("spectrum", "--grid-start-ghz", "5.0", "--grid-points", "11"),
                  ("s21", "--probe-points", "31", "--magnon-points", "11")):
        for name in sorted(PRESETS):
            result = run(*flags, "--preset", name, "--out", str(tmp_path / "out"))
            assert (result.exit_code, result.output) == (0, "")
    assert PRESETS == before


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
    full = preset("cavity-pi-fit")
    keep = full.magnon_labels()[0]
    reduced = SystemModel(
        modes=tuple(m for m in full.modes if m.kind == "photon" or m.label == keep),
        edges=tuple(e for e in full.edges if e.magnon == keep),
        magnon_sweep_target=frozenset({keep}),
    )
    oracle = sweep_to_csv(sweep(reduced, preset_grid("cavity-pi-fit", "magnon_grid")))
    assert result.output == oracle


def edited(document, edit):
    """A copy of the JSON document, changed in place by edit."""
    document = json.loads(json.dumps(document))
    edit(document)
    return document


def write_config(tmp_path, edit):
    path = tmp_path / "device.json"
    path.write_text(json.dumps(edited(PRESETS["cavity-pi-table1"], edit)))
    return path


# a command, one of its grids, and flags that set all three of that grid's fields
GRID_FLAGS = [
    ("spectrum", "magnon_grid", ("--grid-start-ghz", "4", "--grid-stop-ghz", "7",
                                 "--grid-points", "5")),
    ("s21", "probe_grid", ("--probe-start-ghz", "4", "--probe-stop-ghz", "7",
                           "--probe-points", "5")),
]


@pytest.mark.parametrize("command, key, flags", GRID_FLAGS)
def test_null_grid_setting_is_an_absent_one(tmp_path, command, key, flags):
    outputs = []
    for edit in (lambda config: config.update({key: None}), lambda config: config.pop(key)):
        result = run(command, "--config", str(write_config(tmp_path, edit)), *flags)
        assert result.exit_code == 0
        outputs.append(result.output)
    assert outputs[0] == outputs[1] and outputs[0].count("\n") > 5


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


@pytest.mark.parametrize(
    "args",
    [("spectrum", "--grid-start-ghz", "1e6", "--grid-points", "1"),
     ("s21", "--probe-start-ghz", "999999", "--probe-stop-ghz", "1e6", "--probe-points", "2",
      "--magnon-points", "1")],
)
def test_grids_ending_at_the_frequency_ceiling_are_accepted(args):
    result = run(*args, "--preset", "cavity-pi-fit")
    assert (result.exit_code, result.stderr) == (0, "")
    assert result.stdout.splitlines()[-1].startswith("1000000,")


# a 64-mode chain at one grid point: its stack budget is 4096 grid points
CHAIN_GRID = {"start_ghz": 4.0, "stop_ghz": 6.0, "points": 1}
CHAIN_CONFIG = {"system": chain_document(), "magnon_grid": CHAIN_GRID, "probe_grid": CHAIN_GRID}
CHAIN_SPEC = {"system": chain_document(), "free_photon_frequencies": ["c0"],
              "theta_hypotheses": [[]], "initial": [5.0]}
STACK_BUDGET = MAX_STACK_ENTRIES // len(CHAIN_CONFIG["system"]["modes"]) ** 2


def unique_peaks_csv(points):
    """A peak CSV of points distinct omega_m_ghz values."""
    return "omega_m_ghz,omega_peak_ghz\n" + "".join("%d,5\n" % (k + 1) for k in range(points))


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
    files = {name: tmp_path / name for name in ("config", "spec", "data")}
    files["config"].write_text(json.dumps(CHAIN_CONFIG))
    files["spec"].write_text(json.dumps(CHAIN_SPEC))

    def no_stack(*arguments):
        raise RuntimeError("stopped before building a stack")

    monkeypatch.setattr(loopmag.cli, command, no_stack)
    for points, expected in ((STACK_BUDGET, (1, "error: stopped before building a stack\n")),
                             (STACK_BUDGET + 1, (2, "error: %s * modes^2 must be <= %d\n"
                                                 % (where, MAX_STACK_ENTRIES)))):
        files["data"].write_text(unique_peaks_csv(points))
        result = run(*(arg.format(points=points, **files) for arg in args))
        assert (result.exit_code, result.stdout, result.stderr) == (expected[0], "", expected[1])


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
        preset("cavity-pi0-table2"),
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
    eigen = branch_frequencies(preset("cavity-pi0-table2"), [8.0])[0]
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


# ====== fit command ======


FIT_SPEC = {
    "preset": "cavity-pi-fit",
    "free_photon_frequencies": ["c1", "c2"],
    "free_couplings": ["c1", "c2"],
    "theta_hypotheses": [["pi"], [0]],
    "initial": [4.52, 6.195, 0.078, 0.118],
}


def write_fit_inputs(tmp_path):
    grid = np.linspace(4.4, 6.3, 8)
    table = branch_frequencies(fit_device(), grid)
    lines = ["omega_m_ghz,omega_peak_ghz"]
    for i, omega_m in enumerate(grid):
        for peak in table[i]:
            lines.append("%.12g,%.12g" % (omega_m, peak))
    data = tmp_path / "peaks.csv"
    data.write_text("\n".join(lines) + "\n")
    spec = tmp_path / "fitspec.json"
    spec.write_text(json.dumps(FIT_SPEC))
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


def test_fit_with_no_free_parameter_reports_each_hypothesis_residual(tmp_path):
    data, spec = write_fit_inputs(tmp_path)
    document = {"preset": "cavity-pi-fit", "theta_hypotheses": [["pi"], ["0"]], "initial": []}
    spec.write_text(json.dumps(document))
    result = run("fit", "--data", str(data), "--spec", str(spec))
    assert result.exit_code == 0, result.output
    report = json.loads(result.stdout)
    dataset = dataset_from_csv(data.read_text())
    fit_spec, initial, _ = fit_spec_from_document(document, preset("cavity-pi-fit"))
    residuals = [residual(fit_spec, initial, h, dataset) for h in fit_spec.theta_hypotheses]
    assert initial == ()
    assert [h["theta_assignment_rad"] for h in report["per_hypothesis"]] == [[math.pi], [0.0]]
    assert [h["residual"] for h in report["per_hypothesis"]] == residuals
    assert all(h["converged"] is True and h["params"] == {} for h in report["per_hypothesis"])
    assert (report["residual"], report["converged"], report["params"]) == (
        min(residuals), True, {})
    eps = 1e-12 * len(dataset.records)
    low, high = sorted(residuals)
    assert report["ambiguous"] is ((high + eps) / (low + eps) < AMBIGUITY_RATIO)
    assert report["ambiguous"] is False  # the anticrossing peaks pick the loop phase pi


def test_fit_command_is_deterministic(tmp_path):
    data, spec = write_fit_inputs(tmp_path)
    first = run("fit", "--data", str(data), "--spec", str(spec))
    second = run("fit", "--data", str(data), "--spec", str(spec))
    assert first.exit_code == 0
    assert first.output == second.output
    document = json.loads(first.output)
    assert json.loads(json.dumps(document)) == document


PEAK_HEADERS = "'omega_m_ghz,omega_peak_ghz' or 'omega_m_ghz,omega_peak_ghz,sigma_ghz'"


def loop_phase_spec(**fields):
    return {"preset": "cavity-pi-fit", "free_couplings": ["c1"], "theta_hypotheses": [["pi"]],
            "initial": [0.08], **fields}


def test_fit_loop_phase_bound_keeps_the_continuous_fit_inside_its_box(tmp_path):
    data, spec = write_fit_inputs(tmp_path)
    spec.write_text(json.dumps(loop_phase_spec(theta_hypotheses=[[2.0]], continuous_theta=True,
                                               bounds={"theta:0": [1.5, 2.5]})))
    result = run("fit", "--data", str(data), "--spec", str(spec))
    assert result.exit_code == 0, result.output
    assert 2.49 < json.loads(result.stdout)["theta_assignment_rad"][0] <= 2.5


@pytest.mark.parametrize("key", ["bounds", "continuous_theta", "max_iterations",
                                 "free_couplings", "free_photon_frequencies"])
def test_null_fit_spec_key_is_an_absent_one(tmp_path, key):
    data, spec = write_fit_inputs(tmp_path)
    # loop_phase_spec frees c1's coupling; with free_couplings absent, nothing is free
    document = (loop_phase_spec() if key != "free_couplings" else
                {"preset": "cavity-pi-fit", "theta_hypotheses": [["pi"], [0]], "initial": []})
    outputs = []
    for edit in (lambda doc: doc.update({key: None}), lambda doc: doc.pop(key)):
        edit(document)
        spec.write_text(json.dumps(document))
        result = run("fit", "--data", str(data), "--spec", str(spec))
        assert result.exit_code == 0, result.output
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1] and '"per_hypothesis"' in outputs[0]


# a fit spec whose photon c2 has no coupling edge
EDGELESS_C2_SPEC = {
    "system": {"modes": [{"label": "c1", "kind": "photon", "frequency_ghz": 4.5},
                         {"label": "c2", "kind": "photon", "frequency_ghz": 6.0},
                         {"label": "m1", "kind": "magnon", "frequency_ghz": 5.0}],
               "edges": [{"photon": "c1", "magnon": "m1", "g_mhz": 50.0, "phase_rad": 0}],
               "sweep": ["m1"]},
    "theta_hypotheses": [[]], "initial": [0.05],
}


def test_fit_command_rejects_a_free_coupling_on_a_photon_without_an_edge(tmp_path):
    # the rejection is a row of test_malformed_inputs_exit_2_with_one_error_line;
    # a free frequency on that photon still fits
    data, spec = write_fit_inputs(tmp_path)
    spec.write_text(json.dumps({**EDGELESS_C2_SPEC, "free_photon_frequencies": ["c2"],
                                "initial": [6.0]}))
    result = run("fit", "--data", str(data), "--spec", str(spec))
    assert result.exit_code == 0, result.output
    assert list(json.loads(result.stdout)["params"]) == ["omega_c:c2"]


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
        system, (PortSpec(1), PortSpec(2)), preset_grid("cavity-pi-fit", "probe_grid"),
        preset_grid("cavity-pi-fit", "magnon_grid")))
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
    system = preset("cavity-pi-table1")
    for ports_doc in (None, {"1": {"c1": 5.0}, "2": None}, {"1": None, "2": {"c2": 0.5}}):
        path = write_config(tmp_path, lambda config: config.update(ports=ports_doc))
        assert run("s21", "--config", str(path)).exit_code == 1
        assert seen.pop()[:2] == (system, ports_from_document(ports_doc, system))
    assert ports_from_document(None, system) == (PortSpec(1), PortSpec(2))


def test_ports_loader_raises_the_message_s21_prints():
    with raises_exactly(SchemaError, "ports.1: expected null or a label->rate object"):
        ports_from_document({"1": 5.0, "2": None}, preset("cavity-pi-table1"))


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
    with raises_exactly(SchemaError, "regions[0].center_m: expected a list of three numbers"):
        regions_from_document(config)


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
            document, preset("cavity-pi-fit"))
    assert fit_spec.bounds == {"g:c1": (0.05, 0.1)} and max_iterations == 7
    assert initial == (4.52, 6.195, 0.078, 0.118)
    assert fit_spec.theta_hypotheses == ((math.pi,), (0.0,))


def test_fit_spec_loader_raises_the_message_fit_prints(tmp_path):
    document = json.loads(write_fit_inputs(tmp_path)[1].read_text())
    document["initial"] = [4.52]
    with raises_exactly(SchemaError, "fit spec: 'initial' must hold 4 value(s), got 1"):
        fit_spec_from_document(document, preset("cavity-pi-fit"))


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


# Runs the command in argv and prints its exit code and its own peak RSS in kB.
# On Linux a child's ru_maxrss starts at the high-water mark of the process that
# spawned it, so the spawner is this small python -S process, not pytest.
PEAK_RSS_OF = """
import resource, subprocess, sys
code = subprocess.call(sys.argv[1:], stdout=subprocess.DEVNULL)
print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def own_peak_rss_mb(*argv):
    """A fresh `loopmag <argv>` process's own peak RSS in MiB; it must exit 0."""
    proc = fresh_python("-S", "-c", PEAK_RSS_OF, sys.executable, "-m", "loopmag.cli", *argv)
    code, kib = proc.stdout.split()
    assert code == "0", proc.stderr
    return int(kib) / 1024


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB and set at exec on Linux")
def test_fieldmap_holds_under_three_times_its_exports_above_gauge(tmp_path):
    # the float loop held about 4.2x the exports above gauge's peak, numpy's reader 2.3x
    texts, config = pi_device_exports(24)
    argv = ["fieldmap", "--config", str(tmp_path / "regions.json")]
    (tmp_path / "regions.json").write_text(json.dumps(config))
    for mode, text in texts.items():
        (tmp_path / ("%s.csv" % mode)).write_text(text)
        argv += ["--mode-file", "%s=%s" % (mode, tmp_path / ("%s.csv" % mode))]
    gauge = own_peak_rss_mb("gauge", "--preset", "cavity-pi-table1")
    fieldmap = own_peak_rss_mb(*argv)
    exports_mib = sum(map(len, texts.values())) / 2**20
    assert fieldmap < gauge + 3 * exports_mib, ((fieldmap - gauge) / exports_mib, gauge)


def test_blank_csv_bodies_exit_2_with_one_line_and_no_warning(tmp_path):
    # numpy's reader warns on a body of empty lines; a fresh process shows what reaches stderr
    (tmp_path / "c1.csv").write_text(UNIFORM_FIELD_CSV.splitlines()[0] + "\n\n\n")
    (tmp_path / "regions.json").write_text(json.dumps(FIELDMAP_CONFIG))
    proc = fresh_python("-m", "loopmag.cli", "fieldmap", "--mode-file",
                        "c1=%s" % (tmp_path / "c1.csv"), "--config", str(tmp_path / "regions.json"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: --mode-file c1: CSV contains no data rows\n")
    _, spec = write_fit_inputs(tmp_path)
    (tmp_path / "blank.csv").write_text("omega_m_ghz,omega_peak_ghz\n\n")
    proc = fresh_python("-m", "loopmag.cli", "fit", "--data", str(tmp_path / "blank.csv"),
                        "--spec", str(spec))
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: CSV contains no data rows\n")


SCIPY_MODULES = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"

# Runs the command in argv as `python -m loopmag.cli` would, then prints the
# scipy modules the process loaded to stderr.
SCIPY_AFTER = """
import runpy, sys

try:
    runpy.run_module("loopmag.cli", run_name="__main__", alter_sys=True)
except SystemExit as exit_:
    if exit_.code:
        raise
print(%s, file=sys.stderr)
""" % SCIPY_MODULES


def test_importing_the_package_and_cli_loads_no_scipy(tmp_path):
    for modules in ("loopmag, loopmag.cli", "loopmag.spectrum"):
        proc = fresh_python("-c", "import sys, %s; print(%s)" % (modules, SCIPY_MODULES))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n", modules
    # a whole fit, simplex included
    data, spec = write_fit_inputs(tmp_path)
    proc = fresh_python("-c", SCIPY_AFTER, "fit", "--data", str(data), "--spec", str(spec))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["converged"] is True
    assert proc.stderr.splitlines()[-1] == "[]"


def test_fit_command_runs_in_a_fresh_process(tmp_path):
    data, spec = write_fit_inputs(tmp_path)
    proc = fresh_python("-m", "loopmag.cli", "fit", "--data", str(data), "--spec", str(spec))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run("fit", "--data", str(data), "--spec", str(spec)).output
    assert abs(json.loads(proc.stdout)["theta_assignment_rad"][0] - math.pi) < 1e-12


# ====== BLAS threads ======

# Runs the command in argv as `python -m loopmag.cli` would (none: no loopmag),
# then imports what `fit` imports and prints the pool size of every OpenBLAS
# in the process to stderr, each library found in /proc/self/maps.
POOLS_AFTER = """
import ctypes, runpy, sys

if len(sys.argv) > 1:
    try:
        runpy.run_module("loopmag.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exit_:
        if exit_.code:
            raise
import numpy
from scipy.optimize import minimize

def pool_size(path):
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, name):
            return getattr(lib, name)()
    return None

with open("/proc/self/maps") as maps:
    paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
print({path: pool_size(path) for path in paths}, file=sys.stderr)
"""


def openblas_pools(threads, *argv):
    """Pool size per OpenBLAS library in a fresh process, with OPENBLAS_NUM_THREADS=threads."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC_DIR)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run([sys.executable, "-c", POOLS_AFTER, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    pools = ast.literal_eval(proc.stderr.splitlines()[-1])
    if not pools:
        pytest.skip("numpy and scipy load no OpenBLAS here")
    return pools


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/maps")
def test_a_command_starts_openblas_with_one_thread_unless_the_user_sets_it():
    gauge = ("gauge", "--preset", "cavity-pi-table1")
    assert set(openblas_pools(None, *gauge).values()) == {1}
    # numpy's and scipy's own libraries both take a set value as it is
    assert openblas_pools("2", *gauge) == openblas_pools("2")


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




# ====== rejected inputs ======


@pytest.mark.parametrize(
    "args, last_line",
    [
        (("gauge", "--preset", "nope"), "Error: Invalid value for '--preset': 'nope' is not one of "
         "'cavity-pi-fit', 'cavity-pi-table1', 'cavity-pi0-table2'."),
        (("spectrum", "--preset", "cavity-pi-fit", "--grid-points", "abc"),
         "Error: Invalid value for '--grid-points': 'abc' is not a valid integer."),
        (("fieldmap", "--config", "x.json"), "Error: Missing option '--mode-file'."),
    ],
)
def test_options_click_rejects_exit_2_with_its_usage_block(args, last_line):
    result = run(*args)
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.startswith("Usage: ")
    assert result.stderr.splitlines()[-1] == last_line


def table1(edit):
    return {"config": edited(PRESETS["cavity-pi-table1"], edit)}


def regions(edit):
    return {"regions": edited(FIELDMAP_CONFIG, edit)}


# each command with its input files as placeholders; a row's files replace the
# defaults: the cavity-pi-table1 config, FIELDMAP_CONFIG, UNIFORM_FIELD_CSV and
# write_fit_inputs' peaks and spec
GAUGE = ("gauge", "--config", "{config}")
SPECTRUM = ("spectrum", "--config", "{config}")
S21 = ("s21", "--config", "{config}")
FIELDMAP = ("fieldmap", "--mode-file", "c1={csv}", "--config", "{regions}")
FIT = ("fit", "--data", "{data}", "--spec", "{spec}")
FIT_PRESET = ("--preset", "cavity-pi-fit")
NOT_UTF8 = b"{\xff}"
FIELD_HEADER = "x_m,y_m,z_m,hx_re,hx_im,hy_re,hy_im,hz_re,hz_im"
PEAK_HEADER = "omega_m_ghz,omega_peak_ghz"


def assert_rejected(tmp_path, args, files, message):
    """Run args with its placeholders' files written: exit 2, one error: line, no warning."""
    paths = dict(zip(("data", "spec"), write_fit_inputs(tmp_path)))
    for name, content in {"config": PRESETS["cavity-pi-table1"], "regions": FIELDMAP_CONFIG,
                          "csv": UNIFORM_FIELD_CSV, **files}.items():
        path = paths[name] = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content if isinstance(content, str) else json.dumps(content))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(*(arg.format(**paths) for arg in args))
    assert [str(w.message) for w in caught] == []
    assert (result.exit_code, result.stdout, result.stderr) == (
        2, "", "error: %s\n" % message.format(**paths))


# (arguments, files by placeholder, the message of the one error: line); the
# first 17 rows are the table's oldest, in their first order, so that their ids
# args<i>-document<i>-<message> stay as they were
MALFORMED_INPUTS = [
    (("gauge",), {}, "give exactly one of --preset or --config"),
    (GAUGE, {"config": []}, "{config}: expected a JSON object at top level"),
    (GAUGE, {"config": {}}, "config: missing required key 'system'"),
    (GAUGE, {"config": {"system": {"modes": [], "edges": [], "sweep": "m1"}}},
     "sweep: expected a list"),
    (("spectrum", "--single-sphere", "--config", "{config}"),
     {"config": {"system": {"modes": [{"label": "c1", "kind": "photon", "frequency_ghz": 4.5}],
                            "edges": [], "sweep": []}}},
     "--single-sphere requires at least one magnon mode"),
    (SPECTRUM, {"config": {"system": PRESETS["cavity-pi-fit"]["system"]}},
     "magnon_grid.start_ghz: missing (set it in the config or by flag)"),
    (("fieldmap", "--mode-file", "c1", "--config", "{regions}"), {},
     "--mode-file 'c1': expected label=path.csv"),
    (("fieldmap", "--mode-file", "c1={csv}", "--mode-file", "c1={csv}", "--config", "{regions}"),
     {}, "--mode-file: duplicate label 'c1'"),
    (FIT, {"spec": {}}, "fit spec: give exactly one of 'preset' or 'system'"),
    (FIT, {"spec": {"preset": "nope"}}, "fit spec: unknown preset 'nope'"),
    (GAUGE, {"config": {"system": {**PRESETS["cavity-pi-fit"]["system"],
                                   "edges": [{"photon": "c1", "magnon": "m1", "g_mhz": 81.0}]}}},
     "edges[0].phase_rad: missing required key"),
    (GAUGE, {"config": {"system": {**PRESETS["cavity-pi-fit"]["system"], "edges": [
        {"photon": "c1", "magnon": "m1", "g_mhz": 81.0, "phase_rad": [1]}]}}},
     "edges[0].phase_rad: expected number or phase string, got [1]"),
    (GAUGE, {"config": {"system": {"modes": {}, "edges": [], "sweep": []}}},
     "modes: expected a list"),
    (GAUGE, {"config": {"system": {"modes": [], "edges": {}, "sweep": []}}},
     "edges: expected a list"),
    (FIT, {"spec": loop_phase_spec(theta_hypotheses=[[7.0]], continuous_theta=True)},
     "initial value 7 for 'theta:0' is outside its bounds [-6.28319, 6.28319]"),
    (FIT, {"spec": loop_phase_spec(theta_hypotheses=[[2.0]], continuous_theta=True,
                                   bounds={"theta:0": [2.5, 3.0]})},
     "initial value 2 for 'theta:0' is outside its bounds [2.5, 3]"),
    (FIT, {"spec": loop_phase_spec(bounds={"theta:0": [0, 1]})},
     "bound 'theta:0' is not a parameter of this fit"),
    # ---- gauge: the device document ----
    (("gauge", "--preset", "cavity-pi-table1", "--config", "{config}"), {"config": {}},
     "give exactly one of --preset or --config"),
    (GAUGE, {"config": {"system": {"modes": [], "edges": []}}},
     "sweep: missing required key"),
    (GAUGE, {"config": {"system": {"modes": [5], "edges": [], "sweep": []}}},
     "modes[0]: expected an object"),
    # ---- spectrum and s21: the device and its grids ----
    *[(SPECTRUM, table1(lambda c: c["system"]["edges"][0].update(g_mhz=bad)),
       "edges[0].g_mhz: expected a finite number") for bad in (math.nan, math.inf)],
    (SPECTRUM, table1(lambda c: c["system"].update(sweep=[["m1"]])),
     "sweep[0]: expected a mode label"),
    (SPECTRUM, table1(lambda c: c["system"]["modes"][0].update(label=["x"])),
     "modes[0].label: expected a string"),
    (SPECTRUM, table1(lambda c: c["system"]["edges"][0].update(photon={"label": "c1"})),
     "edges[0].photon: expected a string"),
    (SPECTRUM, table1(lambda c: c.update(magnon_grid=[4.0, 7.0, 121])),
     "magnon_grid: expected an object"),
    (("spectrum", "--grid-points", "0", *FIT_PRESET), {}, "magnon_grid.points must be >= 1"),
    (("spectrum", "--grid-points", "100001", *FIT_PRESET), {},
     "magnon_grid.points must be <= 100000"),
    (("spectrum", "--config", "{config}", "--grid-points", str(STACK_BUDGET + 1)),
     {"config": CHAIN_CONFIG}, "magnon_grid.points * modes^2 must be <= 16777216"),
    (("spectrum", "--grid-start-ghz", "1e300", "--grid-stop-ghz", "1.1e300", "--grid-points", "2",
      *FIT_PRESET), {}, "magnon_grid.start_ghz must be <= 1e+06"),
    (("spectrum", "--grid-start-ghz", "1e300", "--grid-points", "1", *FIT_PRESET), {},
     "magnon_grid.start_ghz must be <= 1e+06"),
    (("s21", "--probe-stop-ghz", "2e6", *FIT_PRESET), {}, "probe_grid.stop_ghz must be <= 1e+06"),
    (("s21", "--magnon-stop-ghz", "1e300", *FIT_PRESET), {},
     "magnon_grid.stop_ghz must be <= 1e+06"),
    # linspace repeats values between start and stop one ulp apart
    *[((command, "--%s-start-ghz" % flag, "5", "--%s-stop-ghz" % flag, "5.000000000000001",
        "--%s-points" % flag, "100", *FIT_PRESET), {}, "%s must be strictly increasing" % key)
      for command, flag, key in [("spectrum", "grid", "magnon_grid"),
                                 ("s21", "probe", "probe_grid"), ("s21", "magnon", "magnon_grid")]],
    # the frequency and rate ceilings, in both commands that read a device's grids
    *[((command, "--config", "{config}"), table1(edit), message)
      for command in ("spectrum", "s21") for edit, message in [
          (lambda c: c["magnon_grid"].update(stop_ghz=1e300),
           "magnon_grid.stop_ghz must be <= 1e+06"),
          (lambda c: c["system"]["modes"][1].update(frequency_ghz=1e300),
           "modes[1]: mode 'c2': frequency must be <= 1e+06 GHz"),
          (lambda c: c["system"]["edges"][0].update(g_mhz=1e300),
           "edges[0]: edge (c1, m1): strength must be within +-1e+09 MHz"),
          (lambda c: c["system"]["modes"][2].update(intrinsic_loss_mhz=1e300),
           "modes[2]: mode 'm1': intrinsic_loss must be <= 1e+09 MHz"),
          (lambda c: c["system"]["modes"][0].update(external_loss_mhz=1e300),
           "modes[0]: mode 'c1': external_loss must be <= 1e+09 MHz"),
      ]],
    # ---- fieldmap: the mode files ----
    (("fieldmap", "--mode-file", "c9={csv}", "--config", "{regions}"), {},
     "no frequency given for mode 'c9'"),
    (FIELDMAP, {"csv": "x,y\n1,2\n"}, "--mode-file c1: line 1: unrecognized header; "
     "expected '%s' or '%s,weight_m3'" % (FIELD_HEADER, FIELD_HEADER)),
    (FIELDMAP, {"csv": FIELD_HEADER + "\n0,0,0,1,0,0,0,0,0\n0.1,0.1,0,1,0,0,0,0,0\n"},
     "--mode-file c1: "
     "degenerate bounding box: cannot infer uniform weights, provide a weight_m3 column"),
    *[(FIELDMAP, {"csv": UNIFORM_FIELD_CSV.replace("-0.1,0,0,1", "-0.1,0,0," + bad)},
       "--mode-file c1: line 3: expected finite numbers") for bad in ("nan", "inf")],
    *[(FIELDMAP, {"csv": csv}, "--mode-file c1: positions must be within +-1e+06 m") for csv in (
        UNIFORM_FIELD_CSV.replace("\n0.1,0,0", "\n1e200,0,0"),
        FIELD_HEADER + "\n-1e308,-1e200,-1e200,1,0,0,0,0,0\n1e308,1e200,1e200,1,0,0,0,0,0\n")],
    # ---- fit: the peak CSV ----
    *[(FIT, {"data": text}, message) for text, message in [
        ("", "CSV is empty; expected the header " + PEAK_HEADERS),
        ("frequency,peak\n1,2\n", "line 1: unrecognized header; expected " + PEAK_HEADERS),
        ("\n \nomega_m,peak\n5.0,4.5\n", "line 3: unrecognized header; expected " + PEAK_HEADERS),
        (PEAK_HEADER + "\n\n", "CSV contains no data rows"),
        (PEAK_HEADER + "\n5.0,4.5\n\n5.1,4.6,0.001\n", "line 4: expected 2 columns, got 3"),
        (PEAK_HEADER + "\n5.0,4.5\n5.1,x\n", "line 3: could not parse a numeric value"),
        (PEAK_HEADER + ",sigma_ghz\n5.0,4.5,1e-300\n5.1,4.6,1e-300\n",
         "record 0: sigma must be >= 1e-09 GHz"),
    ]],
    (FIT, {"data": unique_peaks_csv(STACK_BUDGET + 1), "spec": CHAIN_SPEC},
     "--data: unique omega_m_ghz values * modes^2 must be <= 16777216"),
    # ---- fit: the spec ----
    (FIT, {"spec": {"preset": "cavity-pi-fit", "initial": []}},
     "fit spec: 'theta_hypotheses' and 'initial' are required"),
    (FIT, {"spec": {**EDGELESS_C2_SPEC, "free_couplings": ["c2"]}},
     "free coupling 'c2': the photon has no coupling edge"),
    (FIT, {"spec": loop_phase_spec(initial=[5.0])},
     "initial value 5 for 'g:c1' is outside its bounds [0, 2]"),
    (FIT, {"spec": loop_phase_spec(initial=[0.1], bounds={"g:c1": [0.0, 1e7]})},
     "bounds for 'g:c1' must be within +-1e+06 GHz"),
    (FIT, {"spec": {"preset": "cavity-pi-fit", "free_photon_frequencies": ["c1"],
                    "theta_hypotheses": [["pi"]], "initial": [0.5],
                    "bounds": {"omega_c:c1": [-5, 5]}},
           "data": PEAK_HEADER + "\n5.0,-1.0\n5.1,-1.0\n5.2,-1.1\n"},
     "bounds for 'omega_c:c1' must be > 0 GHz"),
    # ---- gauge: a device that is not an object (added last, so no id above moves) ----
    (GAUGE, {"config": {"system": 5}}, "document: expected an object"),
]


@pytest.mark.parametrize("args, document, message", MALFORMED_INPUTS)
def test_malformed_inputs_exit_2_with_one_error_line(tmp_path, args, document, message):
    assert_rejected(tmp_path, args, document, message)


# the tables below keep the parameters, and so the ids, of their tests; each
# row goes through the same assert_rejected

GRID_SETTINGS = [
    ("start_ghz", "4", "magnon_grid.start_ghz: expected a number"),
    ("stop_ghz", math.inf, "magnon_grid.stop_ghz: expected a finite number"),
    ("points", 121.0, "magnon_grid.points: expected an integer"),
    ("points", "121", "magnon_grid.points: expected an integer"),
    ("start_ghz", 0.0, "magnon_grid.start_ghz must be > 0"),
    ("stop_ghz", 4.0, "magnon_grid: stop_ghz must exceed start_ghz"),
    ("points", 0, "magnon_grid.points must be >= 1"),
]


@pytest.mark.parametrize("key, bad, message", GRID_SETTINGS)
def test_spectrum_malformed_grid_setting_exits_2(tmp_path, key, bad, message):
    assert_rejected(tmp_path, SPECTRUM, table1(lambda c: c["magnon_grid"].update({key: bad})),
                    message)


# a falsy grid is not an absent one, though flags set all of its fields
@pytest.mark.parametrize("command, key, flags", GRID_FLAGS)
@pytest.mark.parametrize("falsy", [False, 0, [], ""])
def test_falsy_grid_setting_is_not_an_absent_one(tmp_path, command, key, flags, falsy):
    assert_rejected(tmp_path, (command, "--config", "{config}", *flags),
                    table1(lambda c: c.update({key: falsy})), "%s: expected an object" % key)


PORTS = [
    ({"1": {"zz": 1.0}, "2": None}, "port 1: 'zz' is not a photon mode of the system"),
    ({"1": {}, "2": None}, "port 1 couples to no photon mode"),
    ({"1": {"c1": None}, "2": None}, "ports.1.c1: expected a number"),
    ({"1": None, "2": {"c2": "5"}}, "ports.2.c2: expected a number"),
    ({"1": {"c1": True}, "2": None}, "ports.1.c1: expected a number"),
    ({"1": 5.0, "2": None}, "ports.1: expected null or a label->rate object"),
    ({"1": None}, "ports: expected an object with exactly the keys '1' and '2'"),
    ({"1": {"c1": 1e300}, "2": None}, "port 1: external rate for 'c1' must be <= 1e+09 MHz"),
    ({"1": {"c1": math.inf}, "2": None}, "ports.1.c1: expected a finite number"),
]


@pytest.mark.parametrize("ports, message", PORTS)
def test_s21_malformed_ports_exit_2(tmp_path, ports, message):
    assert_rejected(tmp_path, S21, table1(lambda c: c.update(ports=ports)), message)


REGION_EDITS = [
    (lambda c: c.update(regions=5), "regions: expected a list"),
    (lambda c: c.update(mode_frequencies_ghz=[1]),
     "mode_frequencies_ghz: expected a label->GHz object"),
    (lambda c: c["mode_frequencies_ghz"].update(c1=math.nan),
     "mode_frequencies_ghz.c1: expected a finite number"),
    (lambda c: c["mode_frequencies_ghz"].update(c1=-4.524), "mode_frequencies_ghz.c1 must be > 0"),
    pytest.param(lambda c: c["mode_frequencies_ghz"].update(c1=0.0),
                 "mode_frequencies_ghz.c1 must be > 0", id="zero-frequency"),
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
    (lambda c: c.pop("regions"), "config: 'regions' and 'mode_frequencies_ghz' are both required"),
    # a region labelled like a photon would make the edge (c1, c1)
    (lambda c: c["regions"][0].update(label="c1"),
     "regions[0].label: 'c1' is a photon label of mode_frequencies_ghz"),
]


@pytest.mark.parametrize("edit, message", REGION_EDITS)
def test_fieldmap_malformed_config_exits_2(tmp_path, edit, message):
    assert_rejected(tmp_path, FIELDMAP, regions(edit), message)


# the placeholder of the file each command's option reads
OPTION_FILES = {("gauge", "--config"): (GAUGE, "config"),
                ("fieldmap", "--config"): (FIELDMAP, "regions"),
                ("fieldmap", "--mode-file"): (FIELDMAP, "csv"),
                ("fit", "--spec"): (FIT, "spec"), ("fit", "--data"): (FIT, "data")}
NOT_UTF8_MESSAGE = "{%s}: not UTF-8 text at byte 1"


@pytest.mark.parametrize("command, flag", list(OPTION_FILES))
def test_an_input_file_that_is_not_utf8_exits_2_naming_the_file(tmp_path, command, flag):
    args, name = OPTION_FILES[command, flag]
    assert_rejected(tmp_path, args, {name: NOT_UTF8}, NOT_UTF8_MESSAGE % name)


SPEC_FIELDS = [
    ("theta_hypotheses", 5, "fit spec.theta_hypotheses: expected a list of loop-phase lists"),
    ("theta_hypotheses", ["pi", "0"], "fit spec.theta_hypotheses[0]: expected a list of loop phases"),
    ("theta_hypotheses", [["x"], [0]], "fit spec.theta_hypotheses[0]: "
     "phase_rad: unknown phase string 'x' (allowed: -pi/2, 0, pi, pi/2)"),
    ("free_couplings", 5, "fit spec.free_couplings: expected a list of labels"),
    ("free_couplings", [["c1"]], "fit spec.free_couplings[0]: expected a string"),
    ("initial", 5, "fit spec.initial: expected a list of numbers"),
    ("initial", [4.52, "6.195", 0.078, 0.118], "fit spec.initial[1]: expected a number"),
    ("bounds", [1, 2], "fit spec.bounds: expected an object of [lower, upper] pairs"),
    ("bounds", {"g:c1": 0.1}, "fit spec.bounds.g:c1: expected a [lower, upper] pair"),
    ("bounds", {"g:c1": [0.0, None]}, "fit spec.bounds.g:c1[1]: expected a number"),
    ("preset", ["x"], "fit spec.preset: expected a string"),
    ("max_iterations", [1], "fit spec.max_iterations: expected a positive integer"),
    ("continuous_theta", "false", "fit spec.continuous_theta: expected true or false"),
    ("initial", [4.52], "fit spec: 'initial' must hold 4 value(s), got 1"),
    ("initial", None, "fit spec.initial: expected a list of numbers"),
]


@pytest.mark.parametrize("key, bad, message", SPEC_FIELDS)
def test_fit_command_rejects_mistyped_spec_fields(tmp_path, key, bad, message):
    assert_rejected(tmp_path, FIT, {"spec": {**FIT_SPEC, key: bad}}, message)


@pytest.mark.parametrize("bad", [0, -3, True, 2.5])
def test_fit_command_rejects_a_max_iterations_that_is_not_a_positive_integer(tmp_path, bad):
    assert_rejected(tmp_path, FIT, {"spec": loop_phase_spec(max_iterations=bad)},
                    "fit spec.max_iterations: expected a positive integer")



def test_every_message_the_readme_quotes_comes_from_a_table_row_or_a_library_call():
    result = sweep(fit_device(), preset_grid("cavity-pi-fit", "magnon_grid"))
    spec, initial, _ = fit_spec_from_document(FIT_SPEC, preset("cavity-pi-fit"))
    data = dataset_from_csv(PEAK_HEADER + "\n5,5\n")
    library = {
        "branch_a: expected an integer, got 1.5": lambda: min_gap(result, 1.5, 2, (5.1, 5.6)),
        "crossing_threshold_ghz must be finite":
            lambda: min_gap(result, 1, 2, (5.1, 5.6), crossing_threshold_ghz=math.nan),
        "omega must be within +-1e+06 GHz":
            lambda: s21_at(fit_device(), (PortSpec(1), PortSpec(2)), 1e7, 5.0),
        "omega_ghz must be <= 1e+06 GHz": lambda: coupling_strength(0.0, 1e300),
        "max_iterations: expected a positive integer":
            lambda: fit(spec, data, initial, max_iterations=0),
        "mode 'c1': frequency must be <= 1e+06 GHz":
            lambda: residual(spec, (1e300, *initial[1:]), (math.pi,), data),
    }
    for message, call in library.items():
        with raises_exactly(ValueError, message):
            call()
    rows = [*MALFORMED_INPUTS, *GRID_SETTINGS, *PORTS, *REGION_EDITS, *SPEC_FIELDS]
    messages = [getattr(row, "values", row)[-1] for row in rows] + list(library)
    messages += ["%s: expected an object" % key for _, key, _ in GRID_FLAGS]
    messages += [NOT_UTF8_MESSAGE % name for _, name in OPTION_FILES.values()]
    readme = re.sub(r"```.*?```", "", (SRC_DIR.parent / "README.md").read_text(), flags=re.S)
    unmatched = []
    for quote in re.findall("`([^`]*)`", readme):
        quote = " ".join(quote.split())
        if quote == "error:" or not re.search("must|expected|error:", quote):  # not a message
            continue
        pattern = re.escape(quote.removeprefix("error: "))
        pattern = pattern.replace("<path>", ".+").replace("<k>", ".+")
        if not any(re.fullmatch(pattern, message) for message in messages):
            unmatched.append(quote)
    # only a fresh process shows this one, in the test it names
    assert unmatched == ["error: <path>: JSON nesting is too deep"]
    fresh = inspect.getsource(test_json_nested_too_deep_exits_2_with_one_error_line)
    assert '"error: %s: JSON nesting is too deep\\n"' in fresh


def test_every_command_of_the_readme_examples_exits_0(tmp_path, monkeypatch):
    readme = (SRC_DIR.parent / "README.md").read_text()
    lines = "".join(re.findall(r"```\n(.*?)```", readme, flags=re.S)).replace("\\\n", " ")
    commands = [shlex.split(line) for line in lines.splitlines() if line.startswith("loopmag ")]
    assert [args[1] for args in commands] == "gauge spectrum spectrum s21 fieldmap fit".split()
    # the inputs the examples name, in the directory they run in
    monkeypatch.chdir(tmp_path)
    texts, config = pi_device_exports(4)
    (tmp_path / "device.json").write_text(json.dumps(config))
    for mode, text in texts.items():
        (tmp_path / ("%s_field.csv" % mode)).write_text(text)
    write_fit_inputs(tmp_path)
    for args in commands:
        result = run(*args[1:])
        assert result.exit_code == 0, (args, result.output)
        if "--out" in args:
            assert (tmp_path / args[args.index("--out") + 1]).is_file(), args
    assert (tmp_path / "map.csv.json").is_file()
