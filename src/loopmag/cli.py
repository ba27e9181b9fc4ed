"""Command-line entry point.

Five commands cover the analysis pipeline: gauge reduction report, spectrum
sweep, transmission map, field-export ingestion, and peak fitting.  Devices
come either from a JSON config file or from one of the built-in presets; any
grid settings in the file are overridden by the long-form flags.

Exit codes: 0 on success, 2 when inputs fail to load or validate, 1 when the
computation fails on well-formed inputs or the payload cannot be written to
--out (or its sidecar); each failure prints one error: line.  Input
validation is everything that happens before numerical work starts, in each
command's load step; for example a field export whose transverse moments
vanish parses fine but has no defined coupling phase, which is reported as
a computation failure.

All outputs are deterministic byte-for-byte.  The transmission sidecar can
carry a wall-clock timestamp, but only behind --timestamp.
"""

import datetime
import functools
import json
import pathlib

import click
import numpy as np

from .calibrate import dataset_from_csv, fit, fit_spec_from_document
from .fieldmap import coupling_table, field_table_from_csv, regions_from_document
from .gauge import reduce_system, reduction_to_document
from .model import (MAX_FREQUENCY_GHZ, RWA_LIMIT, SchemaError, SystemModel, check_rwa,
                    check_stack, edges_to_document, number, string, system_from_document)
from .spectrum import sweep, sweep_to_csv
from .transmission import map_to_csv, ports_from_document, s21_map

MAX_GRID_POINTS = 100_000  # points of any one grid
MAX_MAP_POINTS = 1_000_000  # probe x magnon points of one s21 map

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


def _load_json(path) -> dict:
    try:
        document = json.loads(pathlib.Path(path).read_text())
    except RecursionError:
        raise SchemaError("%s: JSON nesting is too deep" % path) from None
    if not isinstance(document, dict):
        raise SchemaError("%s: expected a JSON object at top level" % path)
    return document


def _device(preset_name, config_path):
    """The config document of --preset or --config, and its validated system."""
    if (preset_name is None) == (config_path is None):
        raise SchemaError("give exactly one of --preset or --config")
    if preset_name is not None:
        config = json.loads(json.dumps(PRESETS[preset_name]))
    else:
        config = _load_json(config_path)
        if "system" not in config:
            raise SchemaError("config: missing required key 'system'")
    return config, system_from_document(config["system"])


def _grid(config: dict, key: str, start, stop, points) -> tuple:
    """A grid's checked (start, stop, points), flags overriding config, recorded in config."""
    settings = config.get(key) or {}
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
    config[key] = {"start_ghz": lo, "stop_ghz": hi, "points": n}
    return lo, hi, n


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
        text = pathlib.Path(path).read_text()
        try:
            mode_fields[label] = field_table_from_csv(text)
        except ValueError as error:
            raise SchemaError("--mode-file %s: %s" % (label, error)) from None
    return mode_fields


def _fit_system(document: dict) -> SystemModel:
    """The base system of a fit spec document, named by 'preset' or given as 'system'."""
    if ("preset" in document) == ("system" in document):
        raise SchemaError("fit spec: give exactly one of 'preset' or 'system'")
    if "preset" in document:
        name = string(document["preset"], "fit spec.preset")
        if name not in PRESETS:
            raise SchemaError("fit spec: unknown preset %r" % name)
        return system_from_document(PRESETS[name]["system"])
    return system_from_document(document["system"])


def _hypothesis_document(h) -> dict:
    """The four fields a HypothesisFit and the winning FitResult share, as JSON."""
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


def _fail(code: int, error) -> None:
    click.echo("error: %s" % error, err=True)
    raise SystemExit(code)


def _runs(load):
    """Run a command body as its load step and the thunk it returns as its compute step.

    The thunk returns the payload text, or (text, sidecar text) when --out
    gets a <out>.json sidecar, written after the payload.  Load errors exit
    2; errors while computing or writing exit 1.
    """

    @functools.wraps(load)
    def run(out, **options):
        try:
            compute = load(**options)
        except _LOAD_ERRORS as error:
            _fail(2, error)
        try:
            payload = compute()
            text, sidecar = payload if isinstance(payload, tuple) else (payload, None)
            if out is None:
                click.echo(text, nl=False)
            else:
                pathlib.Path(out).write_text(text)
                if sidecar is not None:
                    pathlib.Path(str(out) + ".json").write_text(sidecar)
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
    return lambda: _json_text(reduction_to_document(reduce_system(system)))


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
    grid = np.linspace(*_grid(config, "magnon_grid", grid_start_ghz, grid_stop_ghz, grid_points))
    check_stack(grid.size, len(system.modes), "magnon_grid.points")
    _warn_rwa(system)
    return lambda: sweep_to_csv(sweep(system, grid))


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
    probe = _grid(config, "probe_grid", probe_start_ghz, probe_stop_ghz, probe_points)
    magnon = _grid(config, "magnon_grid", magnon_start_ghz, magnon_stop_ghz, magnon_points)
    if probe[2] * magnon[2] > MAX_MAP_POINTS:
        raise SchemaError("probe_grid.points * magnon_grid.points must be <= %d" % MAX_MAP_POINTS)
    for key, grid in (("probe_grid", probe), ("magnon_grid", magnon)):
        check_stack(grid[2], len(system.modes), key + ".points")
    probe, magnon = np.linspace(*probe), np.linspace(*magnon)
    _warn_rwa(system)

    def compute():
        tmap = s21_map(system, ports, probe, magnon)
        sidecar = {
            "preset": preset_name,
            "ports": config.get("ports"),
            "probe_grid": config["probe_grid"],
            "magnon_grid": config["magnon_grid"],
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
    return lambda: _json_text(
        {"edges": edges_to_document(coupling_table(mode_fields, regions, frequencies))})


@main.command("fit")
@click.option("--data", "data_path", required=True, type=click.Path(),
              help="Peak CSV (omega_m_ghz, omega_peak_ghz, optional sigma_ghz).")
@click.option("--spec", "spec_path", required=True, type=click.Path(),
              help="Fit spec JSON (template, free parameters, hypotheses, initial).")
@click.option("--out", type=click.Path(), help="Write the fit report here instead of stdout.")
@_runs
def cmd_fit(data_path, spec_path):
    """Fit free device parameters to measured peaks under loop-phase hypotheses."""
    dataset = dataset_from_csv(pathlib.Path(data_path).read_text())
    document = _load_json(spec_path)
    system = _fit_system(document)
    spec, initial, max_iterations = fit_spec_from_document(document, system)
    unique = len({record.omega_m for record in dataset.records})
    check_stack(unique, len(system.modes), "--data: unique omega_m_ghz values")
    _warn_rwa(system)

    def compute():
        result = fit(spec, dataset, initial, max_iterations)
        hypotheses = [_hypothesis_document(h) for h in result.per_hypothesis]
        return _json_text({**_hypothesis_document(result), "ambiguous": result.ambiguous,
                           "per_hypothesis": hypotheses})

    return compute


if __name__ == "__main__":
    main()
