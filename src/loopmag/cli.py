"""Command-line entry point.

Five commands cover the analysis pipeline: gauge reduction report, spectrum
sweep, transmission map, field-export ingestion, and peak fitting.  Devices
come either from a JSON config file or from one of the built-in presets; any
grid settings in the file are overridden by the long-form flags.

Exit codes: 0 on success, 2 when inputs fail to load or validate, 1 when the
computation fails on well-formed inputs or the payload cannot be written to
--out (or its sidecar); each such failure prints one error: line.  An option
that click rejects itself (an unknown preset, a flag value of the wrong type,
a missing required option) exits 2 with click's usage block instead, ending
in an Error: line.  Input validation is everything that happens before numerical work starts, in each
command's load step; for example a field export whose transverse moments
vanish parses fine but has no defined coupling phase, which is reported as
a computation failure.

All outputs are deterministic byte-for-byte.  The transmission sidecar can
carry a wall-clock timestamp, but only behind --timestamp.

Importing this module sets OPENBLAS_NUM_THREADS to 1 unless it is already
set, before numpy loads: every device matrix is at most a few modes wide, so
more BLAS threads only spin-wait, about 70 ms per process.  To run with N
threads anyway: OPENBLAS_NUM_THREADS=N loopmag ...
"""

import contextlib
import datetime
import functools
import json
import os
import pathlib

# matrices here are a few modes wide, so BLAS threads only spin-wait (~70 ms a process)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import click
import numpy as np

from .calibrate import dataset_from_csv, fit, fit_spec_from_document
from .fieldmap import coupling_table, field_table_from_csv, regions_from_document
from .gauge import reduce_system, reduction_to_document
from .model import (MAX_FREQUENCY_GHZ, RWA_LIMIT, SchemaError, SystemModel, anchored,
                    check_rwa, check_stack, edges_to_document, frequency_axis, number, optional,
                    string, system_from_document)
from .spectrum import sweep, sweep_to_csv
from .transmission import check_map, map_to_csv, ports_from_document, s21_map

MAX_GRID_POINTS = 100_000  # points of any one grid

PRESETS = {
    "cavity-pi-table1": {
        "system": {
            "modes": [
                {"label": "c1", "kind": "photon", "frequency_ghz": 4.524},
                {"label": "c2", "kind": "photon", "frequency_ghz": 6.378},
                {"label": "m1", "kind": "magnon", "frequency_ghz": 5.45},
                {"label": "m2", "kind": "magnon", "frequency_ghz": 5.45},
            ],
            "edges": [
                {"photon": "c1", "magnon": "m1", "g_mhz": 139.0, "phase_rad": "-pi/2"},
                {"photon": "c1", "magnon": "m2", "g_mhz": 139.0, "phase_rad": "-pi/2"},
                {"photon": "c2", "magnon": "m1", "g_mhz": 207.0, "phase_rad": "pi/2"},
                {"photon": "c2", "magnon": "m2", "g_mhz": 207.0, "phase_rad": "-pi/2"},
            ],
            "sweep": ["m1", "m2"],
        },
        "magnon_grid": {"start_ghz": 4.0, "stop_ghz": 7.0, "points": 121},
        "probe_grid": {"start_ghz": 4.0, "stop_ghz": 7.0, "points": 241},
    },
    "cavity-pi-fit": {
        "system": {
            "modes": [
                {"label": "c1", "kind": "photon", "frequency_ghz": 4.527},
                {"label": "c2", "kind": "photon", "frequency_ghz": 6.19},
                {"label": "m1", "kind": "magnon", "frequency_ghz": 5.36},
                {"label": "m2", "kind": "magnon", "frequency_ghz": 5.36},
            ],
            "edges": [
                {"photon": "c1", "magnon": "m1", "g_mhz": 81.0, "phase_rad": "0"},
                {"photon": "c1", "magnon": "m2", "g_mhz": 81.0, "phase_rad": "pi"},
                {"photon": "c2", "magnon": "m1", "g_mhz": 120.0, "phase_rad": "0"},
                {"photon": "c2", "magnon": "m2", "g_mhz": 120.0, "phase_rad": "0"},
            ],
            "sweep": ["m1", "m2"],
        },
        "magnon_grid": {"start_ghz": 4.2, "stop_ghz": 6.6, "points": 121},
        "probe_grid": {"start_ghz": 4.2, "stop_ghz": 6.6, "points": 241},
    },
    "cavity-pi0-table2": {
        "system": {
            "modes": [
                {"label": "c1", "kind": "photon", "frequency_ghz": 6.594},
                {"label": "c2", "kind": "photon", "frequency_ghz": 7.562},
                {"label": "c3", "kind": "photon", "frequency_ghz": 8.619},
                {"label": "m1", "kind": "magnon", "frequency_ghz": 7.5},
                {"label": "m2", "kind": "magnon", "frequency_ghz": 7.5},
            ],
            "edges": [
                {"photon": "c1", "magnon": "m1", "g_mhz": 130.0, "phase_rad": "-pi/2"},
                {"photon": "c1", "magnon": "m2", "g_mhz": 130.0, "phase_rad": "-pi/2"},
                {"photon": "c2", "magnon": "m1", "g_mhz": 150.0, "phase_rad": "pi/2"},
                {"photon": "c2", "magnon": "m2", "g_mhz": 150.0, "phase_rad": "-pi/2"},
                {"photon": "c3", "magnon": "m1", "g_mhz": 104.0, "phase_rad": "pi/2"},
                {"photon": "c3", "magnon": "m2", "g_mhz": 104.0, "phase_rad": "-pi/2"},
            ],
            "sweep": ["m1", "m2"],
        },
        "magnon_grid": {"start_ghz": 6.4, "stop_ghz": 9.0, "points": 131},
        "probe_grid": {"start_ghz": 6.4, "stop_ghz": 9.0, "points": 261},
    },
}


# ====== plumbing ======


def _json_text(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _read_text(path) -> str:
    try:
        return pathlib.Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as error:
        raise SchemaError("%s: not UTF-8 text at byte %d" % (path, error.start)) from None


def _load_json(path) -> dict:
    try:
        document = json.loads(_read_text(path))
    except RecursionError:
        raise SchemaError("%s: JSON nesting is too deep" % path) from None
    if not isinstance(document, dict):
        raise SchemaError("%s: expected a JSON object at top level" % path)
    return document


def _device(preset_name, config_path):
    """The config of --preset (its PRESETS entry, only read) or --config, and its system."""
    if (preset_name is None) == (config_path is None):
        raise SchemaError("give exactly one of --preset or --config")
    if preset_name is not None:
        config = PRESETS[preset_name]
    else:
        config = _load_json(config_path)
        if "system" not in config:
            raise SchemaError("config: missing required key 'system'")
    return config, system_from_document(config["system"])


def _grid(config: dict, key: str, start, stop, points) -> dict:
    """A grid's checked {start_ghz, stop_ghz, points}, in np.linspace's order, flags over config."""
    settings = optional(config, key, {})
    if not isinstance(settings, dict):
        raise SchemaError("%s: expected an object" % key)
    settings = dict(settings)
    for field, flag in (("start_ghz", start), ("stop_ghz", stop), ("points", points)):
        if flag is not None:
            settings[field] = flag
        if field not in settings:
            raise SchemaError("%s.%s: missing (set it in the config or by flag)" % (key, field))
    lo, hi, n = settings["start_ghz"], settings["stop_ghz"], settings["points"]
    number(lo, key + ".start_ghz")
    number(hi, key + ".stop_ghz")
    if not isinstance(n, int) or isinstance(n, bool):
        raise SchemaError("%s.points: expected an integer" % key)
    if n < 1:
        raise SchemaError("%s.points must be >= 1" % key)
    if n > MAX_GRID_POINTS:
        raise SchemaError("%s.points must be <= %d" % (key, MAX_GRID_POINTS))
    if not lo > 0:
        raise SchemaError("%s.start_ghz must be > 0" % key)
    if n > 1 and not hi > lo:
        raise SchemaError("%s: stop_ghz must exceed start_ghz" % key)
    for field, value in (("start_ghz", lo), ("stop_ghz", hi)):
        if value > MAX_FREQUENCY_GHZ:
            raise SchemaError("%s.%s must be <= %g" % (key, field, MAX_FREQUENCY_GHZ))
    return {"start_ghz": lo, "stop_ghz": hi, "points": n}


def _single_sphere(system: SystemModel) -> SystemModel:
    magnons = system.magnon_labels()
    if not magnons:
        raise SchemaError("--single-sphere requires at least one magnon mode")
    keep = magnons[0]
    return SystemModel(
        modes=tuple(m for m in system.modes if m.kind == "photon" or m.label == keep),
        edges=tuple(e for e in system.edges if e.magnon == keep),
        magnon_sweep_target=system.magnon_sweep_target & {keep},
    )


def _mode_fields(mode_files, frequencies) -> dict:
    """The mode_fields argument of coupling_table: one field export per --mode-file."""
    mode_fields = {}
    for item in mode_files:
        label, sep, path = item.partition("=")
        if not sep or not label or not path:
            raise SchemaError("--mode-file %r: expected label=path.csv" % item)
        if label in mode_fields:
            raise SchemaError("--mode-file: duplicate label %r" % label)
        if label not in frequencies:
            raise SchemaError("no frequency given for mode %r" % label)
        text = _read_text(path)
        with anchored("--mode-file %s: " % label):
            mode_fields[label] = field_table_from_csv(text)
    return mode_fields


def _fit_system(document: dict) -> SystemModel:
    """The base system of a fit spec document, named by 'preset' or given as 'system'."""
    if ("preset" in document) == ("system" in document):
        raise SchemaError("fit spec: give exactly one of 'preset' or 'system'")
    if "preset" in document:
        name = string(document["preset"], "fit spec.preset")
        if name not in PRESETS:
            raise SchemaError("fit spec: unknown preset %r" % name)
        document = PRESETS[name]
    return system_from_document(document["system"])


def _hypothesis_document(h) -> dict:
    """A HypothesisFit's four fields as JSON; a FitResult is its winning HypothesisFit."""
    return {"theta_assignment_rad": list(h.theta_assignment), "params": h.params,
            "residual": h.residual, "converged": h.converged}


def _warn_rwa(system: SystemModel) -> None:
    """One warning: line on stderr per edge at or above the rotating-wave limit."""
    for check in check_rwa(system):
        if not check.ok:
            click.echo("warning: edge (%s, %s): g/omega_photon = %.3g is not below the "
                       "rotating-wave limit %g" % (check.edge.photon, check.edge.magnon,
                                                   check.ratio, RWA_LIMIT), err=True)


# ====== command runner ======

_LOAD_ERRORS = (ValueError, OSError)
_SLICE_CHARS = 1 << 20  # 1 MiB of ASCII payload per write


def _fail(code: int, error) -> None:
    click.echo("error: %s" % error, err=True)
    raise SystemExit(code)


def _write(text: str, path) -> None:
    """Write text to the file at path, or to stdout when path is None, one slice of
    _SLICE_CHARS at a time: encoding it whole would hold a second copy of the text."""
    with (open(path, "w") if path is not None
          else contextlib.nullcontext(click.get_text_stream("stdout"))) as stream:
        for start in range(0, len(text), _SLICE_CHARS):
            stream.write(text[start:start + _SLICE_CHARS])
        stream.flush()


def _runs(load):
    """Run a command body as its load step and the thunk it returns as its compute step.

    The thunk returns (payload text, sidecar text or None): a sidecar goes
    to <out>.json, written after the payload, and only with --out.  Load
    errors exit 2; errors while computing or writing exit 1.
    """

    @functools.wraps(load)
    def run(out, **options):
        try:
            compute = load(**options)
        except _LOAD_ERRORS as error:
            _fail(2, error)
        try:
            text, sidecar = compute()
            _write(text, out)
            if out is not None and sidecar is not None:
                _write(sidecar, str(out) + ".json")
        except Exception as error:
            _fail(1, error)

    return run


def _source_options(fn):
    fn = click.option(
        "--config",
        "config_path",
        type=click.Path(),
        help="Device config JSON (system document plus optional ports/grids).",
    )(fn)
    fn = click.option(
        "--preset",
        "preset_name",
        type=click.Choice(sorted(PRESETS)),
        help="Built-in device preset.",
    )(fn)
    return fn


@click.group()
def main():
    """Loop-coupled cavity magnonics toolkit."""


# ====== commands ======


@main.command("gauge")
@_source_options
@click.option("--out", type=click.Path(), help="Write the JSON report here instead of stdout.")
@_runs
def cmd_gauge(preset_name, config_path):
    """Reduce a device to its gauge-invariant loop phases."""
    _, system = _device(preset_name, config_path)
    _warn_rwa(system)
    return lambda: (_json_text(reduction_to_document(reduce_system(system))), None)


@main.command("spectrum")
@_source_options
@click.option("--grid-start-ghz", type=float, help="Magnon sweep start.")
@click.option("--grid-stop-ghz", type=float, help="Magnon sweep stop.")
@click.option("--grid-points", type=int, help="Magnon sweep point count.")
@click.option(
    "--single-sphere",
    is_flag=True,
    help="Keep only the first magnon mode (single-sphere device variant).",
)
@click.option("--out", type=click.Path(), help="Write the CSV here instead of stdout.")
@_runs
def cmd_spectrum(preset_name, config_path, grid_start_ghz, grid_stop_ghz, grid_points, single_sphere):
    """Sweep the magnon frequency and emit branch frequencies as CSV."""
    config, system = _device(preset_name, config_path)
    if single_sphere:
        system = _single_sphere(system)
    grid = _grid(config, "magnon_grid", grid_start_ghz, grid_stop_ghz, grid_points)
    grid = frequency_axis(np.linspace(*grid.values()), "magnon_grid")
    check_stack(grid.size, len(system.modes), "magnon_grid.points")
    _warn_rwa(system)
    return lambda: (sweep_to_csv(sweep(system, grid)), None)


@main.command("s21")
@_source_options
@click.option("--probe-start-ghz", type=float, help="Probe frequency start.")
@click.option("--probe-stop-ghz", type=float, help="Probe frequency stop.")
@click.option("--probe-points", type=int, help="Probe frequency point count.")
@click.option("--magnon-start-ghz", type=float, help="Magnon sweep start.")
@click.option("--magnon-stop-ghz", type=float, help="Magnon sweep stop.")
@click.option("--magnon-points", type=int, help="Magnon sweep point count.")
@click.option("--timestamp", is_flag=True, help="Record the wall-clock time in the sidecar.")
@click.option("--out", type=click.Path(), help="Write CSV here (sidecar lands at <out>.json).")
@_runs
def cmd_s21(preset_name, config_path, probe_start_ghz, probe_stop_ghz, probe_points,
            magnon_start_ghz, magnon_stop_ghz, magnon_points, timestamp):
    """Compute a two-port transmission map over probe and magnon frequency."""
    config, system = _device(preset_name, config_path)
    ports = ports_from_document(config.get("ports"), system)
    probe_grid = _grid(config, "probe_grid", probe_start_ghz, probe_stop_ghz, probe_points)
    magnon_grid = _grid(config, "magnon_grid", magnon_start_ghz, magnon_stop_ghz, magnon_points)
    check_map(probe_grid["points"], magnon_grid["points"], len(system.modes),
              ("probe_grid.points", "magnon_grid.points"))
    probe = frequency_axis(np.linspace(*probe_grid.values()), "probe_grid")
    magnon = frequency_axis(np.linspace(*magnon_grid.values()), "magnon_grid")
    _warn_rwa(system)

    def compute():
        tmap = s21_map(system, ports, probe, magnon)
        sidecar = {
            "preset": preset_name,
            "ports": config.get("ports"),
            "probe_grid": probe_grid,
            "magnon_grid": magnon_grid,
            "defaults_applied": list(tmap.defaults_applied),
        }
        if timestamp:
            sidecar["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        return map_to_csv(tmap), _json_text(sidecar)

    return compute


@main.command("fieldmap")
@click.option(
    "--mode-file",
    "mode_files",
    multiple=True,
    required=True,
    help="label=path.csv field export for one photon mode (repeatable).",
)
@click.option("--config", "config_path", required=True, type=click.Path(),
              help="JSON with sphere regions and mode frequencies.")
@click.option("--out", type=click.Path(), help="Write the edge document here instead of stdout.")
@_runs
def cmd_fieldmap(mode_files, config_path):
    """Turn field exports into coupling edges (strength and phase per sphere)."""
    regions, frequencies = regions_from_document(_load_json(config_path))
    mode_fields = _mode_fields(mode_files, frequencies)
    return lambda: (_json_text(
        {"edges": edges_to_document(coupling_table(mode_fields, regions, frequencies))}), None)


@main.command("fit")
@click.option("--data", "data_path", required=True, type=click.Path(),
              help="Peak CSV (omega_m_ghz, omega_peak_ghz, optional sigma_ghz).")
@click.option("--spec", "spec_path", required=True, type=click.Path(),
              help="Fit spec JSON (template, free parameters, hypotheses, initial).")
@click.option("--out", type=click.Path(), help="Write the fit report here instead of stdout.")
@_runs
def cmd_fit(data_path, spec_path):
    """Fit free device parameters to measured peaks under loop-phase hypotheses."""
    dataset = dataset_from_csv(_read_text(data_path))
    document = _load_json(spec_path)
    system = _fit_system(document)
    spec, initial, max_iterations = fit_spec_from_document(document, system)
    check_stack(dataset._columns[0].size, len(system.modes), "--data: unique omega_m_ghz values")
    _warn_rwa(system)

    def compute():
        result = fit(spec, dataset, initial, max_iterations)
        hypotheses = [_hypothesis_document(h) for h in result.per_hypothesis]
        return _json_text({**_hypothesis_document(result), "ambiguous": result.ambiguous,
                           "per_hypothesis": hypotheses}), None

    return compute


if __name__ == "__main__":
    main()
