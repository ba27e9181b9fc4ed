"""The three workloads: their generated inputs, their jobs and each job's checks.

A workload is built from the seed alone; loopmag sees only the generated
inputs.  ``round(r)`` returns the jobs of one round, the same operations in
every round, so each run attempts whole rounds.  A job's ``run`` does the
timed work and returns its output; ``check`` verifies that output against
the reference computations in ``checks`` and runs outside the timed region.
"""

import contextlib
import copy
import functools
import io
import json
import math
import os
import subprocess
import sys
import time
from typing import Any, Callable, NamedTuple

import numpy as np

import checks

PRESET_ORDER = ("cavity-pi-table1", "cavity-pi-fit", "cavity-pi0-table2")

# Loop phases the paper reports for its two devices.
PAPER_LOOP_PHASES = {"cavity-pi-table1": (math.pi,), "cavity-pi0-table2": (math.pi, 0.0)}

# The two-photon, two-sphere fitting device of acceptance criterion 11.
FIT_DEVICE = {
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
}
FIT_TRUTH = {"omega_c:c1": 4.527, "omega_c:c2": 6.19, "g:c1": 0.081, "g:c2": 0.120}
FIT_INITIAL = (4.52, 6.195, 0.078, 0.118)
FIT_GRID = np.linspace(4.3, 6.4, 16)
FIT_NOISE_GHZ = 0.001

VNA_PROBE_POINTS = 1601
VNA_MAGNON_POINTS = 201
VNA_SWEEP_POINTS = 2001
S21_SAMPLES = 64

FIELD_SAMPLES_PER_AXIS = 24  # per sphere: 24**3 samples, two spheres per export


class Job(NamedTuple):
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


class ChildRun(NamedTuple):
    """One finished command: its stdout and its own cost (None when in process)."""

    stdout: bytes
    code: int
    wall_s: float | None = None
    cpu_s: float | None = None


def import_program(root):
    """Import loopmag from the checkout's ``src``, and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import loopmag
    import loopmag.cli

    if not os.path.abspath(loopmag.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError("loopmag was imported from %s, not from %s" % (loopmag.__file__, src))
    return loopmag


def _peak_csv(rng, table, noise):
    """Peak CSV (with a sigma column) of one noisy draw, and its true-parameter chi2."""
    peaks = table + noise * rng.standard_normal(table.shape) if noise else table.copy()
    omega_m = np.repeat(FIT_GRID, table.shape[1])
    values = peaks.ravel()
    sigma = np.full(values.size, noise or 0.0025)
    lines = ["omega_m_ghz,omega_peak_ghz,sigma_ghz"]
    lines += ["%r,%r,%r" % (float(a), float(b), float(c)) for a, b, c in zip(omega_m, values, sigma)]
    return "\n".join(lines) + "\n", checks.chi2(omega_m, values, sigma, FIT_GRID, table)


# ====== cli-cold ======


def _sphere_grid(center, radius, n):
    """Midpoint product grid in (r, cos theta, phi) with exact cell volumes."""
    r = np.linspace(0.0, radius, n + 1)
    u = np.linspace(-1.0, 1.0, n + 1)
    p = np.linspace(0.0, 2.0 * math.pi, n + 1)
    rm, um, pm = np.meshgrid((r[:-1] + r[1:]) / 2, (u[:-1] + u[1:]) / 2, (p[:-1] + p[1:]) / 2,
                             indexing="ij")
    vol = np.broadcast_to(((r[1:] ** 3 - r[:-1] ** 3) / 3.0)[:, None, None], rm.shape)
    s = np.sqrt(1.0 - um ** 2)
    xyz = np.stack([rm * s * np.cos(pm), rm * s * np.sin(pm), rm * um], axis=-1).reshape(-1, 3)
    return xyz + np.asarray(center), (vol * (u[1] - u[0]) * (p[1] - p[0])).ravel()


def _circulation(xyz, posts):
    """Real field circulating around vertical posts (x0, y0, kappa, r_reg)."""
    h = np.zeros_like(xyz)
    for x0, y0, kappa, r_reg in posts:
        dx, dy = xyz[:, 0] - x0, xyz[:, 1] - y0
        d = dx ** 2 + dy ** 2 + r_reg ** 2
        h[:, 0] -= kappa * dy / d
        h[:, 1] += kappa * dx / d
    return h


def field_exports(rng):
    """Field exports of the loop-pi two-sphere device, turned about z by a seeded
    angle and shifted by a seeded offset, with the reference edge phases."""
    a = 0.01
    radius = 0.2 * a
    posts = {"c1": [(a, 0.0, 1.0, 0.05 * a), (-a, 0.0, -1.0, 0.05 * a)],
             "c2": [(0.0, 0.0, 1.0, 0.05 * a)]}
    alpha = rng.uniform(0.0, 2.0 * math.pi)
    shift = np.array([*rng.uniform(-a, a, 2), 0.0])
    turn = np.array([[math.cos(alpha), -math.sin(alpha), 0.0],
                     [math.sin(alpha), math.cos(alpha), 0.0], [0.0, 0.0, 1.0]])
    centers = {"m1": np.array([a / 2, 0.0, 0.0]), "m2": np.array([-a / 2, 0.0, 0.0])}
    grids = [_sphere_grid(c, radius, FIELD_SAMPLES_PER_AXIS) for c in centers.values()]
    xyz = np.concatenate([g[0] for g in grids])
    weights = np.concatenate([g[1] for g in grids])
    placed = xyz @ turn.T + shift
    regions = {label: c @ turn.T + shift for label, c in centers.items()}
    texts, expected = {}, {}
    for mode, mode_posts in posts.items():
        h = _circulation(xyz, mode_posts) @ turn.T
        rows = ["x_m,y_m,z_m,hx_re,hx_im,hy_re,hy_im,hz_re,hz_im,weight_m3"]
        rows += ["%r,%r,%r,%r,0.0,%r,0.0,%r,0.0,%r" % tuple(map(float, row))
                 for row in np.column_stack([placed, h, weights])]
        texts[mode] = "\n".join(rows) + "\n"
        for label, center in regions.items():
            expected[(mode, label)] = checks.transverse_phase(placed, h, weights, center, radius)
    config = {
        "regions": [{"label": label, "center_m": c.tolist(), "radius_m": radius}
                    for label, c in regions.items()],
        "mode_frequencies_ghz": {"c1": 4.524, "c2": 6.378},
    }
    return texts, config, expected


class CliCold:
    """Every command as a fresh ``python -m loopmag.cli`` process.

    Set-up imports no loopmag: the commands pay for their own imports.  The
    checks import it once, for the preset documents.  The traced run calls
    ``loopmag.cli.main`` in process instead.
    """

    # two rounds: 11 commands are too few samples for a steady median, and the
    # second round's output is compared byte for byte with the first's
    min_rounds = 2

    def __init__(self, root, seed, workdir, in_process=False):
        self.root = root
        self.workdir = workdir
        self.in_process = in_process
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.seen = {}
        self.peak_rss_mb = 0.0
        rng = np.random.default_rng([seed, 0])
        texts, config, self.field_expected = field_exports(rng)
        for mode, text in texts.items():
            self._write("%s_field.csv" % mode, text)
        self._write("regions.json", json.dumps(config))
        self.rng = rng  # picks the S21 rows each check compares
        table = checks.branches(FIT_DEVICE, FIT_GRID)
        peaks, self.fit_chi2 = _peak_csv(rng, table, FIT_NOISE_GHZ)
        self._write("peaks.csv", peaks)
        self._write("fitspec.json", json.dumps({
            "system": FIT_DEVICE, "free_photon_frequencies": ["c1", "c2"],
            "free_couplings": ["c1", "c2"], "theta_hypotheses": [["pi"], ["0"]],
            "initial": list(FIT_INITIAL)}))

    @functools.cached_property
    def cli(self):
        return import_program(self.root).cli

    @property
    def presets(self):
        return self.cli.PRESETS

    def _write(self, name, text):
        with open(self._path(name), "w") as f:
            f.write(text)

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _child(self, argv):
        out_path = self._path("stdout")
        with open(out_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "loopmag.cli", *argv],
                                    stdout=out, env=self.env, cwd=self.root)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as f:
            stdout = f.read()
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        return ChildRun(stdout, proc.returncode, wall, usage.ru_utime + usage.ru_stime)

    def _in_process(self, argv):
        buf = io.StringIO()
        code = 0
        with contextlib.redirect_stdout(buf):
            try:
                self.cli.main.main(args=list(argv), prog_name="loopmag", standalone_mode=False)
            except SystemExit as exit_:
                code = exit_.code or 0
        return ChildRun(buf.getvalue().encode(), code)

    def _job(self, key, argv, check):
        runner = self._in_process if self.in_process else self._child

        def verify(result):
            checks.check_repeat(self.seen, key, result.stdout)
            check(result.stdout.decode())

        return Job(key, lambda: runner(argv), verify)

    def _check_gauge(self, name, text):
        checks.check_gauge(json.loads(text), self.presets[name]["system"],
                           PAPER_LOOP_PHASES.get(name), what="gauge " + name)

    def _check_spectrum(self, name, text):
        doc = self.presets[name]
        omega_m = np.linspace(**_grid_args(doc["magnon_grid"]))
        n = len(doc["system"]["modes"])
        what = "spectrum " + name
        axis, table, weights = checks.parse_spectrum_csv(text, n, omega_m.size, what)
        if not np.allclose(axis, omega_m, rtol=1e-8, atol=0.0):
            raise checks.CheckError("%s: magnon axis differs from the stored grid" % what)
        checks.check_branches(table, doc["system"], omega_m, rtol=1e-8, what=what)
        checks.check_photon_weights(weights, checks.n_photons(doc["system"]), 1e-8, what)

    def _check_s21(self, name, text):
        doc = self.presets[name]
        probe = np.linspace(**_grid_args(doc["probe_grid"]))
        magnon = np.linspace(**_grid_args(doc["magnon_grid"]))
        what = "s21 " + name
        rows = self.rng.choice(probe.size * magnon.size, S21_SAMPLES, replace=False)
        parsed = checks.parse_s21_csv(text, probe.size, magnon.size, rows, what)
        got = np.array([parsed[k] for k in rows])
        axes = np.column_stack([probe[rows % probe.size], magnon[rows // probe.size]])
        if not np.allclose(got[:, :2], axes, rtol=1e-8, atol=0.0):
            raise checks.CheckError("%s: axis values differ from the stored grids" % what)
        checks.check_s21(got[:, 2], doc["system"], axes[:, 0], axes[:, 1], what=what)
        # axis values are positive, so ",-" can only open an s21_db field
        if text.count(",-") != probe.size * magnon.size:
            raise checks.CheckError("%s: an |S21| value is not below 0 dB" % what)

    def _check_fieldmap(self, text):
        checks.check_field_edges(json.loads(text)["edges"], self.field_expected)

    def _check_fit(self, text):
        report = json.loads(text)
        checks.check_fit(report["theta_assignment_rad"], report["residual"], self.fit_chi2)

    def warmup_job(self):
        name = PRESET_ORDER[0]
        return self._job("gauge " + name, ["gauge", "--preset", name],
                         lambda text: self._check_gauge(name, text))

    def round(self, _):
        jobs = []
        for name in PRESET_ORDER:
            preset = ["--preset", name]
            jobs.append(self._job("gauge " + name, ["gauge", *preset],
                                  lambda text, n=name: self._check_gauge(n, text)))
            jobs.append(self._job("spectrum " + name, ["spectrum", *preset],
                                  lambda text, n=name: self._check_spectrum(n, text)))
            jobs.append(self._job("s21 " + name, ["s21", *preset],
                                  lambda text, n=name: self._check_s21(n, text)))
        jobs.append(self._job("fieldmap", [
            "fieldmap", "--config", self._path("regions.json"),
            "--mode-file", "c1=" + self._path("c1_field.csv"),
            "--mode-file", "c2=" + self._path("c2_field.csv")], self._check_fieldmap))
        jobs.append(self._job("fit", ["fit", "--data", self._path("peaks.csv"),
                                      "--spec", self._path("fitspec.json")], self._check_fit))
        return jobs


def _grid_args(grid):
    return {"start": grid["start_ghz"], "stop": grid["stop_ghz"], "num": grid["points"]}


# ====== vna-map ======


class VnaMap:
    """Sweep, S21 map at measurement resolution, CSV output and peak extraction."""

    min_rounds = 1

    def __init__(self, root, seed, workdir=None):
        loopmag = import_program(root)
        self.spectrum = loopmag.spectrum
        self.transmission = loopmag.transmission
        self.ports = (loopmag.transmission.PortSpec(1), loopmag.transmission.PortSpec(2))
        self.seen = {}
        rng = np.random.default_rng([seed, 1])
        self.devices = []
        for name in PRESET_ORDER:
            doc = copy.deepcopy(loopmag.cli.PRESETS[name])
            for mode in doc["system"]["modes"]:
                mode["frequency_ghz"] *= 1.0 + 0.002 * rng.uniform(-1.0, 1.0)
            for edge in doc["system"]["edges"]:
                edge["g_mhz"] *= 1.0 + 0.05 * rng.uniform(-1.0, 1.0)
            m, p = doc["magnon_grid"], doc["probe_grid"]
            magnon = np.linspace(m["start_ghz"], m["stop_ghz"], VNA_MAGNON_POINTS)
            self.devices.append({
                "name": name,
                "doc": doc["system"],
                "system": loopmag.model.system_from_document(doc["system"]),
                "fine": np.linspace(m["start_ghz"], m["stop_ghz"], VNA_SWEEP_POINTS),
                "magnon": magnon,
                "probe": np.linspace(p["start_ghz"], p["stop_ghz"], VNA_PROBE_POINTS),
                "samples": rng.choice(VNA_PROBE_POINTS * VNA_MAGNON_POINTS, S21_SAMPLES,
                                      replace=False),
            })

    def _job(self, device):
        spectrum, transmission = self.spectrum, self.transmission

        def run():
            result = spectrum.sweep(device["system"], device["fine"])
            sweep_csv = spectrum.sweep_to_csv(result)
            tmap = transmission.s21_map(device["system"], self.ports, device["probe"],
                                        device["magnon"])
            map_csv = transmission.map_to_csv(tmap)
            peaks = [transmission.extract_peaks(tmap, j) for j in range(device["magnon"].size)]
            return result, sweep_csv, tmap, map_csv, peaks

        return Job(device["name"], run, lambda out: self._check(device, *out))

    def _check(self, device, result, sweep_csv, tmap, map_csv, peaks):
        doc, name = device["doc"], device["name"]
        photons = checks.n_photons(doc)
        checks.check_branches(result.branches, doc, device["fine"], what="sweep " + name)
        checks.check_photon_weights(result.photon_weights, photons, what="sweep " + name)
        what = "sweep CSV " + name
        axis, table, weights = checks.parse_spectrum_csv(
            sweep_csv, len(doc["modes"]), VNA_SWEEP_POINTS, what)
        if not np.allclose(axis, device["fine"], rtol=1e-8, atol=0.0):
            raise checks.CheckError("%s: magnon axis differs from the sweep grid" % what)
        checks.check_branches(table, doc, device["fine"], rtol=1e-8, what=what)
        checks.check_photon_weights(weights, photons, 1e-8, what)

        probe, magnon, rows = device["probe"], device["magnon"], device["samples"]
        i, j = rows % probe.size, rows // probe.size
        if tmap.magnitude_db.shape != (probe.size, magnon.size):
            raise checks.CheckError("s21_map %s: shape %s" % (name, tmap.magnitude_db.shape))
        checks.check_s21(tmap.magnitude_db[i, j], doc, probe[i], magnon[j], what="s21_map " + name)
        checks.check_passive(tmap.magnitude_db, what="s21_map " + name)
        parsed = checks.parse_s21_csv(map_csv, probe.size, magnon.size, rows, "map CSV " + name)
        got = np.array([parsed[k] for k in rows])
        want = np.column_stack([probe[i], magnon[j], tmap.magnitude_db[i, j]])
        if not np.allclose(got, want, rtol=1e-8, atol=1e-7):
            raise checks.CheckError("map CSV %s: values differ from the map" % name)

        step = probe[1] - probe[0]
        ref = checks.branches(doc, magnon)
        checks.check_peaks(peaks, ref, 3.0 * step, what="peaks " + name)
        checks.check_repeat(self.seen, name, sweep_csv, map_csv)

    def warmup_job(self):
        return self._job(self.devices[0])

    def round(self, _):
        return [self._job(device) for device in self.devices]


# ====== fit-recover ======


class FitRecover:
    """One full two-hypothesis fit (loop phase pi against 0) per job."""

    min_rounds = 1

    def __init__(self, root, seed, workdir=None):
        loopmag = import_program(root)
        self.calibrate = loopmag.calibrate
        self.spectrum = loopmag.spectrum
        self.system = loopmag.model.system_from_document(FIT_DEVICE)
        self.table = checks.branches(FIT_DEVICE, FIT_GRID)
        self.spec = loopmag.calibrate.FitSpec(
            base_system=self.system, free_photon_frequencies=("c1", "c2"),
            free_couplings=("c1", "c2"), theta_hypotheses=((math.pi,), (0.0,)))
        self.seed = seed

    def _job(self, name, text, check):
        calibrate = self.calibrate

        def run():
            return calibrate.fit(self.spec, calibrate.dataset_from_csv(text), FIT_INITIAL)

        return Job(name, run, check)

    def warmup_job(self):
        text, _ = _peak_csv(None, self.table, 0.0)

        def check(result):
            # chi2 at the truth is 0 here, so the residual bound does not apply
            checks.check_fit(result.theta_assignment, 0.0, 0.0, what="clean fit")
            checks.check_recovery(result.params, FIT_TRUTH, 1e-4, what="clean fit")
            checks.check_branches(self.spectrum.branch_frequencies(self.system, FIT_GRID),
                                  FIT_DEVICE, FIT_GRID, what="fit data branches")

        return self._job("clean fit", text, check)

    def round(self, r):
        rng = np.random.default_rng([self.seed, 2, r])
        text, chi2 = _peak_csv(rng, self.table, FIT_NOISE_GHZ)
        return [self._job("noisy fit", text,
                          lambda result: checks.check_fit(result.theta_assignment,
                                                          result.residual, chi2))]


WORKLOADS = {"cli-cold": CliCold, "vna-map": VnaMap, "fit-recover": FitRecover}
