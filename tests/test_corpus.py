"""Exactness corpus: the sha256 of every command's stdout on fixed inputs.

Each hash was recorded from the package's own output and pins that payload
byte for byte, so a refactor that moves one digit of one row fails here.  A
change that alters a payload on purpose updates the hash and says so in
CHANGES.md.  Peak lists are pinned through the repr of their floats, which
round-trips exactly, so an equal hash means `==` on every value.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner
from devices import fit_device, preset, preset_grid
from synthfields import circulating_field, pi_device_posts, sphere_grid

from loopmag.cli import PRESETS, main
from loopmag.spectrum import branch_frequencies
from loopmag.transmission import PortSpec, extract_peaks, s21_map

STDOUT_SHA256 = {
    "gauge cavity-pi-table1": "83915fef5952bcc8c1d1ad9e6c8273da8db3e180232ec0f11df5ed3b6014b739",
    "gauge cavity-pi-fit": "64fc621e848c21d0f4fd284b3ba60f4cbde5c7866487c3cec6d40b39a4503c09",
    "gauge cavity-pi0-table2": "d0b6d8b643461269fe5976fcc5264847ce8f8c1d3bb7bec7f23e5ab5cdb47deb",
    "spectrum cavity-pi-table1": "111364af244a374ee87fee1db0874584901928a817a47b2d90ed38efd416a309",
    "spectrum cavity-pi-fit": "a7adde958e7133b07d9bd76209bc62aae731824d5e06a525acfc85af4e577114",
    "spectrum cavity-pi0-table2": "e0d6f9ca9bf3a8b9b6ac4ac5a7f41ac87390f96d816bc4a152d0242767cba078",
    "s21 cavity-pi-table1": "522bb61288670aabc80da386fa88baad178e01d947db09fb57124501a8406afa",
    "s21 cavity-pi-fit": "d3373a3ba12f7a66148b7863ea325caac615b4f4be1a75c688ae54818d4eff17",
    "s21 cavity-pi0-table2": "5a221ddd4fcaa57c52df6c60b2741eb916bc50f5a8abbb02692f5c34fc825dac",
    "fieldmap": "9b9d549c93ea7ceb799e1178b379f89ca64244a5cabc36a98d52f9f186353405",
    "fit": "2e7b50c46f8e7326f4df87f6b51affac90de202dbde1c6afcfc9f624be57342c",
}

PEAKS_SHA256 = {
    "cavity-pi-table1": "c8ac6cf6842706518431b83b0cf82d4e0f65f40838666c58df8b85717fef81d2",
    "cavity-pi-fit": "381533a96571605292c51f0313a148514c1e49af3b80244eaf319b39f47ea144",
    "cavity-pi0-table2": "88b70b5de7ee60dd5d489b9df4a947480e6be8830ef848c6102e5cf453eba190",
}

# the <out>.json sidecar of s21 --out: on each preset, and on device.json (with a ports
# block) run with grid flags
SIDECAR_SHA256 = {
    "s21 cavity-pi-table1": "9e7358e89003ace5c4ef6d1411074152cf43b08f90b6eeb16234fb6f13227c09",
    "s21 cavity-pi-fit": "5e112637f057d56f2b5c1ef26058c9bea7d11fcdedd290ed933869301dd4c262",
    "s21 cavity-pi0-table2": "e64cc9f2f58f7ac40e05b56f24ea45e408f5aa448e035e3ad397ec2cf0b2c0e4",
    "s21 --config": "8f6faf2098fba3ef85ca050e79a74a6189ec78cb17fec0dfe1f1cce2b9ae37d7",
}

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"

FIELD_HEADER = "x_m,y_m,z_m,hx_re,hx_im,hy_re,hy_im,hz_re,hz_im"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def field_export(rng, posts, centers, radius, weighted: bool) -> str:
    """A small two-sphere export of a circulating field with seeded noise."""
    chunks = [sphere_grid(c, radius, 4, 4, 6) for c in centers]
    positions = np.concatenate([p for p, _ in chunks])
    weights = np.concatenate([w for _, w in chunks])
    real = circulating_field(positions, posts)
    scale = float(np.max(np.abs(real)))
    h = real + scale * 0.05 * (rng.standard_normal(real.shape) + 1j * rng.standard_normal(real.shape))
    columns = [positions[:, 0], positions[:, 1], positions[:, 2]]
    for axis in range(3):
        columns += [h[:, axis].real, h[:, axis].imag]
    header = FIELD_HEADER
    if weighted:
        columns.append(weights)
        header += ",weight_m3"
    rows = [",".join(repr(v) for v in row) for row in np.column_stack(columns).tolist()]
    return "\n".join([header, *rows]) + "\n"


def peak_csv(rng) -> str:
    """64 noisy peaks of the cavity-pi-fit device: 16 magnon points, 4 branches."""
    grid = np.linspace(4.4, 6.3, 16)
    table = branch_frequencies(fit_device(), grid) + 1e-3 * rng.standard_normal((16, 4))
    lines = ["omega_m_ghz,omega_peak_ghz,sigma_ghz"]
    for omega_m, row in zip(grid.tolist(), table.tolist()):
        lines += ["%r,%r,0.001" % (omega_m, peak) for peak in row]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    rng = np.random.default_rng(20231)
    half_span = 0.01
    radius = 0.2 * half_span
    centers = ((half_span / 2, 0.0, 0.0), (-half_span / 2, 0.0, 0.0))
    mode1, mode2 = pi_device_posts(half_span)
    (root / "c1.csv").write_text(field_export(rng, mode1, centers, radius, weighted=True))
    (root / "c2.csv").write_text(field_export(rng, mode2, centers, radius, weighted=False))
    (root / "regions.json").write_text(
        '{"regions": [{"label": "m1", "center_m": [0.005, 0, 0], "radius_m": 0.002},'
        ' {"label": "m2", "center_m": [-0.005, 0, 0], "radius_m": 0.002}],'
        ' "mode_frequencies_ghz": {"c1": 4.524, "c2": 6.378}}'
    )
    (root / "peaks.csv").write_text(peak_csv(rng))
    (root / "fitspec.json").write_text(
        '{"preset": "cavity-pi-fit", "free_photon_frequencies": ["c1", "c2"],'
        ' "free_couplings": ["c1", "c2"], "theta_hypotheses": [["pi"], [0]],'
        ' "initial": [4.52, 6.195, 0.078, 0.118]}'
    )
    (root / "device.json").write_text(json.dumps({
        "system": PRESETS["cavity-pi-fit"]["system"],
        "ports": {"1": {"c1": 5.0, "c2": 2.5}, "2": None},
        "probe_grid": {"start_ghz": 4.2, "stop_ghz": 6.6, "points": 241},
        "magnon_grid": {"start_ghz": 4, "stop_ghz": 7, "points": 121},
    }))
    return root


def corpus_args(name: str, root) -> list:
    if name == "fieldmap":
        return ["fieldmap", "--config", str(root / "regions.json"),
                "--mode-file", "c1=%s" % (root / "c1.csv"),
                "--mode-file", "c2=%s" % (root / "c2.csv")]
    if name == "fit":
        return ["fit", "--data", str(root / "peaks.csv"), "--spec", str(root / "fitspec.json")]
    if name == "s21 --config":
        # integer grid ends in the file, float ones from the flags
        return ["s21", "--config", str(root / "device.json"), "--probe-points", "61",
                "--magnon-start-ghz", "5", "--magnon-points", "21"]
    command, preset = name.split()
    return [command, "--preset", preset]


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_stdout_matches_the_recorded_hash(name, inputs):
    result = CliRunner().invoke(main, corpus_args(name, inputs), catch_exceptions=False)
    assert result.exit_code == 0, result.output
    assert sha256(result.output) == STDOUT_SHA256[name]


@pytest.mark.parametrize("name", sorted(SIDECAR_SHA256))
def test_s21_sidecar_matches_the_recorded_hash(name, inputs, tmp_path):
    out = tmp_path / "map.csv"
    result = CliRunner().invoke(main, [*corpus_args(name, inputs), "--out", str(out)],
                                catch_exceptions=False)
    assert (result.exit_code, result.output) == (0, "")
    assert sha256((tmp_path / "map.csv.json").read_text()) == SIDECAR_SHA256[name]


@pytest.mark.parametrize("name", sorted(PEAKS_SHA256))
def test_peaks_on_every_map_column_match_the_recorded_hash(name):
    tmap = s21_map(preset(name), (PortSpec(1), PortSpec(2)), preset_grid(name, "probe_grid"),
                   preset_grid(name, "magnon_grid"))
    peaks = [extract_peaks(tmap, j) for j in range(tmap.omega_m_grid.size)]
    assert sum(map(len, peaks)) > 0
    assert sha256(repr(peaks)) == PEAKS_SHA256[name]


@pytest.mark.parametrize("name", ["s21 cavity-pi0-table2", "fit"])
def test_stdout_is_the_same_bytes_whatever_the_blas_thread_count(name, inputs):
    # a fresh command starts OpenBLAS with one thread unless OPENBLAS_NUM_THREADS is set
    argv = [sys.executable, "-m", "loopmag.cli", *corpus_args(name, inputs)]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC_DIR)
    outputs = [subprocess.run(argv, env=dict(env, **threads), capture_output=True,
                              timeout=120, check=True).stdout
               for threads in ({}, {"OPENBLAS_NUM_THREADS": "2"})]
    in_process = CliRunner().invoke(main, corpus_args(name, inputs), catch_exceptions=False)
    assert outputs == [in_process.stdout_bytes] * 2
