"""Each correctness check of the benchmark accepts loopmag's real output and
rejects a wrong answer; a check that passes on every input proves nothing.

Run from the repository root:  python -m pytest -q perfbench/tests
"""

import copy
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import jobs  # noqa: E402
import tracing  # noqa: E402
from loopmag import fieldmap, model, spectrum, transmission  # noqa: E402
from loopmag.cli import PRESETS  # noqa: E402

PORTS = (transmission.PortSpec(1), transmission.PortSpec(2))


def preset_doc(name):
    return copy.deepcopy(PRESETS[name]["system"])


def with_edge(doc, index, **changes):
    doc = copy.deepcopy(doc)
    doc["edges"][index].update(changes)
    return doc


def loop_zero_doc():
    """cavity-pi-table1 with one coupling phase turned by pi: loop phase 0."""
    return with_edge(preset_doc("cavity-pi-table1"), 3, phase_rad="pi/2")


def small_map(doc, probe_points=161, magnon_points=21):
    grid = PRESETS["cavity-pi-table1"]
    probe = np.linspace(grid["probe_grid"]["start_ghz"], grid["probe_grid"]["stop_ghz"], probe_points)
    magnon = np.linspace(grid["magnon_grid"]["start_ghz"], grid["magnon_grid"]["stop_ghz"],
                         magnon_points)
    return transmission.s21_map(model.system_from_document(doc), PORTS, probe, magnon), probe, magnon


def test_branch_check_rejects_the_loop_zero_device_where_pi_is_expected():
    doc = preset_doc("cavity-pi-table1")
    grid = np.linspace(4.0, 7.0, 61)
    good = spectrum.branch_frequencies(model.system_from_document(doc), grid)
    checks.check_branches(good, doc, grid)
    wrong = spectrum.branch_frequencies(model.system_from_document(loop_zero_doc()), grid)
    with pytest.raises(checks.CheckError):
        checks.check_branches(wrong, doc, grid)
    with pytest.raises(checks.CheckError):
        checks.check_branches(good[:-1], doc, grid)


def test_photon_weight_check_rejects_weights_off_the_photon_count_or_outside_0_1():
    doc = preset_doc("cavity-pi0-table2")
    result = spectrum.sweep(model.system_from_document(doc), np.linspace(6.4, 9.0, 41))
    photons = checks.n_photons(doc)
    checks.check_photon_weights(result.photon_weights, photons)
    with pytest.raises(checks.CheckError):
        checks.check_photon_weights(1.0 - result.photon_weights, photons)
    shifted = result.photon_weights.copy()
    shifted[3, 0] += 1e-3
    with pytest.raises(checks.CheckError):
        checks.check_photon_weights(shifted, photons)
    negative = result.photon_weights.copy()
    negative[0, :2] += (-0.5, 0.5)
    with pytest.raises(checks.CheckError):
        checks.check_photon_weights(negative, photons)


def test_s21_check_rejects_a_map_with_one_coupling_sign_flipped():
    doc = preset_doc("cavity-pi-table1")
    tmap, probe, magnon = small_map(doc)
    i, j = np.meshgrid(np.arange(0, probe.size, 7), np.arange(magnon.size), indexing="ij")
    i, j = i.ravel(), j.ravel()
    checks.check_s21(tmap.magnitude_db[i, j], doc, probe[i], magnon[j])
    flipped, _, _ = small_map(with_edge(doc, 0, g_mhz=-doc["edges"][0]["g_mhz"]))
    with pytest.raises(checks.CheckError):
        checks.check_s21(flipped.magnitude_db[i, j], doc, probe[i], magnon[j])


def test_passivity_check_rejects_gain():
    tmap, _, _ = small_map(preset_doc("cavity-pi-table1"))
    checks.check_passive(tmap.magnitude_db)
    gained = tmap.magnitude_db.copy()
    gained[5, 5] = 0.01
    with pytest.raises(checks.CheckError):
        checks.check_passive(gained)


def test_peak_check_rejects_peaks_away_from_every_branch():
    doc = preset_doc("cavity-pi-table1")
    tmap, probe, magnon = small_map(doc, probe_points=1601)
    peaks = [transmission.extract_peaks(tmap, j) for j in range(magnon.size)]
    ref = checks.branches(doc, magnon)
    tol = 3.0 * (probe[1] - probe[0])
    assert sum(map(len, peaks)) > magnon.size
    checks.check_peaks(peaks, ref, tol)
    moved = [list(p) for p in peaks]
    omega, prominence = moved[10][0]
    moved[10][0] = (omega + 0.02, prominence)
    with pytest.raises(checks.CheckError):
        checks.check_peaks(moved, ref, tol)
    # the loop-zero device's peaks sit away from the loop-pi branches
    wrong, _, _ = small_map(loop_zero_doc(), probe_points=1601)
    with pytest.raises(checks.CheckError):
        checks.check_peaks([transmission.extract_peaks(wrong, j) for j in range(magnon.size)],
                           ref, tol)


def gauge_report(doc):
    from loopmag.gauge import reduce_system, reduction_to_document

    return json.loads(json.dumps(reduction_to_document(reduce_system(model.system_from_document(doc)))))


def test_gauge_check_rejects_wrong_loop_phases():
    table1, table2 = preset_doc("cavity-pi-table1"), preset_doc("cavity-pi0-table2")
    checks.check_gauge(gauge_report(table1), table1, jobs.PAPER_LOOP_PHASES["cavity-pi-table1"])
    checks.check_gauge(gauge_report(table2), table2, jobs.PAPER_LOOP_PHASES["cavity-pi0-table2"])
    checks.check_gauge(gauge_report(preset_doc("cavity-pi-fit")), preset_doc("cavity-pi-fit"))
    with pytest.raises(checks.CheckError):  # loop phase 0 reported where pi is expected
        checks.check_gauge(gauge_report(loop_zero_doc()), table1, (math.pi,))
    with pytest.raises(checks.CheckError):  # theta that does not match its cycle
        checks.check_gauge(gauge_report(loop_zero_doc()), table1)
    with pytest.raises(checks.CheckError):  # one loop missing
        report = gauge_report(table2)
        report["physical_phases"].pop()
        checks.check_gauge(report, table2)
    with pytest.raises(checks.CheckError):
        checks.check_gauge(gauge_report(table2), table2, (math.pi, math.pi))


@pytest.fixture(scope="module")
def field_case():
    saved = jobs.FIELD_SAMPLES_PER_AXIS
    jobs.FIELD_SAMPLES_PER_AXIS = 8
    try:
        texts, config, expected = jobs.field_exports(np.random.default_rng(3))
    finally:
        jobs.FIELD_SAMPLES_PER_AXIS = saved
    regions = [fieldmap.SphereRegion(tuple(r["center_m"]), r["radius_m"], r["label"])
               for r in config["regions"]]
    tables = {mode: fieldmap.field_table_from_csv(text) for mode, text in texts.items()}
    edges = fieldmap.coupling_table(tables, regions, config["mode_frequencies_ghz"])
    docs = [{"photon": e.photon, "magnon": e.magnon, "g_mhz": e.strength, "phase_rad": e.phase}
            for e in edges]
    return docs, expected


def test_field_edge_check_rejects_a_wrong_phase_or_loop(field_case):
    edges, expected = field_case
    checks.check_field_edges(edges, expected)
    turned = copy.deepcopy(edges)
    turned[0]["phase_rad"] += 0.01
    with pytest.raises(checks.CheckError):
        checks.check_field_edges(turned, expected)
    # the same turn applied to the reference too: phases agree, the loop is no longer pi
    shifted = dict(expected)
    key = (turned[0]["photon"], turned[0]["magnon"])
    shifted[key] = checks.fold(shifted[key] + 0.01)
    with pytest.raises(checks.CheckError, match="loop"):
        checks.check_field_edges(turned, shifted)
    with pytest.raises(checks.CheckError):
        checks.check_field_edges(edges[:-1], expected)


def test_fit_checks_reject_the_wrong_hypothesis_a_poor_optimum_and_missed_parameters():
    checks.check_fit((math.pi,), 50.0, 60.0)
    checks.check_fit((-math.pi,), 50.0, 60.0)
    with pytest.raises(checks.CheckError):
        checks.check_fit((0.0,), 50.0, 60.0)
    with pytest.raises(checks.CheckError):
        checks.check_fit((math.pi,), 61.0, 60.0)
    checks.check_recovery(dict(jobs.FIT_TRUTH), jobs.FIT_TRUTH, 1e-4)
    off = dict(jobs.FIT_TRUTH, **{"g:c2": jobs.FIT_TRUTH["g:c2"] + 2e-4})
    with pytest.raises(checks.CheckError):
        checks.check_recovery(off, jobs.FIT_TRUTH, 1e-4)


def test_chi2_counts_distance_to_the_nearest_branch():
    table = checks.branches(jobs.FIT_DEVICE, jobs.FIT_GRID)
    text, chi2 = jobs._peak_csv(np.random.default_rng(1), table, 0.001)
    assert 20.0 < chi2 < 140.0  # 64 peaks with unit-variance scaled noise
    clean, zero = jobs._peak_csv(None, table, 0.0)
    assert zero == 0.0 and text != clean


def test_repeat_check_rejects_different_bytes():
    seen = {}
    checks.check_repeat(seen, "gauge", b"abc\n")
    checks.check_repeat(seen, "gauge", b"abc\n")
    with pytest.raises(checks.CheckError):
        checks.check_repeat(seen, "gauge", b"abd\n")


def test_csv_parse_back_rejects_a_wrong_shape():
    doc = preset_doc("cavity-pi-table1")
    text = spectrum.sweep_to_csv(spectrum.sweep(model.system_from_document(doc),
                                                np.linspace(4.0, 7.0, 11)))
    checks.parse_spectrum_csv(text, 4, 11)
    with pytest.raises(checks.CheckError):
        checks.parse_spectrum_csv(text.rsplit("\n", 2)[0] + "\n", 4, 11)
    with pytest.raises(checks.CheckError):
        checks.parse_spectrum_csv(text.replace("branch_0_ghz", "branch_1_ghz", 1), 4, 11)
    tmap, probe, magnon = small_map(doc, probe_points=11, magnon_points=3)
    csv = transmission.map_to_csv(tmap)
    rows = checks.parse_s21_csv(csv, 11, 3, [0, 32])
    assert rows[32][:2] == (probe[10], magnon[2])
    with pytest.raises(checks.CheckError):
        checks.parse_s21_csv(csv, 11, 4, [0])
    with pytest.raises(checks.CheckError):
        checks.parse_s21_csv(csv.replace(",", ";", 1).replace("\n", ",\n", 1), 11, 3, [0])


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    """Every cli-cold command, run in process, with its checker."""
    saved = jobs.FIELD_SAMPLES_PER_AXIS
    jobs.FIELD_SAMPLES_PER_AXIS = 8
    try:
        workload = jobs.CliCold(ROOT, 5, str(tmp_path_factory.mktemp("cli")), in_process=True)
    finally:
        jobs.FIELD_SAMPLES_PER_AXIS = saved
    return workload, [(job, job.run()) for job in workload.round(0)]


def test_cli_checks_accept_every_real_command_output(cli_outputs):
    _, outputs = cli_outputs
    assert len(outputs) == 11
    for job, out in outputs:
        assert out.code == 0, job.name
        job.check(out)


def nudge_cell(text, line, column, delta):
    lines = text.split("\n")
    cells = lines[line].split(",")
    cells[column] = "%.9g" % (float(cells[column]) + delta)
    lines[line] = ",".join(cells)
    return "\n".join(lines)


def test_cli_checks_reject_tampered_outputs(cli_outputs):
    workload, outputs = cli_outputs
    by_name = {job.name: (job, out) for job, out in outputs}
    tampered = {
        "spectrum cavity-pi-table1": lambda t: nudge_cell(t, 5, 2, 1e-5),
        "s21 cavity-pi0-table2": lambda t: t.replace(",-", ",", 1),
        "gauge cavity-pi0-table2": lambda t: t.replace('"theta_rad": 0.0', '"theta_rad": 0.5', 1),
        "fit": lambda t: t.replace("3.14159", "0.14159"),
    }
    for name, change in tampered.items():
        job, out = by_name[name]
        text = change(out.stdout.decode())
        assert text != out.stdout.decode(), name
        workload.seen.clear()
        with pytest.raises(checks.CheckError):
            job.check(out._replace(stdout=text.encode()))
    job, out = by_name["fieldmap"]
    edges = json.loads(out.stdout)
    edges["edges"][0]["phase_rad"] += 0.01
    workload.seen.clear()
    with pytest.raises(checks.CheckError):
        job.check(out._replace(stdout=json.dumps(edges).encode()))


def test_tracer_records_calls_through_every_binding_and_restores_them():
    import loopmag.calibrate
    import loopmag.cli

    originals = (loopmag.cli.sweep, loopmag.calibrate.branch_frequencies, spectrum.sweep)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert loopmag.cli.sweep is spectrum.sweep is not originals[2]
        system = model.system_from_document(preset_doc("cavity-pi-table1"))
        loopmag.cli.sweep(system, np.linspace(4.0, 7.0, 5))
        loopmag.calibrate.branch_frequencies(system, np.linspace(4.0, 7.0, 3))
    finally:
        tracer.uninstall()
    assert (loopmag.cli.sweep, loopmag.calibrate.branch_frequencies, spectrum.sweep) == originals
    assert tracer.counts["spectrum.sweep.points"] == 5
    assert tracer.counts["spectrum.branch_frequencies.points"] == 3
    assert tracer.counts["model.system_from_document.calls"] == 1
    # sweep builds one Hamiltonian; its self time excludes that child span
    names = [s[0] for s in tracer.spans]
    assert names.count("model.build_hamiltonian") == 2
    selfs = tracer.self_times()
    sweep_span = next(s for s in tracer.spans if s[0] == "spectrum.sweep")
    assert 0.0 < selfs["spectrum.sweep"] < sweep_span[2] - sweep_span[1]
    metrics = tracing.per_job_metrics(tracer, 1, 0)
    assert set(metrics) | {n for n, _ in tracing.METRICS if n.startswith(("cli.import", "trace."))} \
        == {n for n, _ in tracing.METRICS}


def test_run_exits_nonzero_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "vna-map",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_vna_map_job_passes_its_checks_and_a_damaged_output_fails():
    workload = jobs.VnaMap(ROOT, 4)
    job = workload.round(0)[1]
    result, sweep_csv, tmap, map_csv, peaks = job.run()
    job.check((result, sweep_csv, tmap, map_csv, peaks))
    damaged = [
        (result, nudge_cell(sweep_csv, 100, 1, 1e-5), tmap, map_csv, peaks),
        (result, sweep_csv, tmap, map_csv.replace("\n", "\n\n", 1), peaks),
        (result, sweep_csv, tmap, map_csv, peaks[:-1] + [peaks[-1] + [(1.0, 5.0)]]),
    ]
    for out in damaged:
        workload.seen.clear()
        with pytest.raises(checks.CheckError):
            job.check(out)


def test_fit_recover_jobs_pass_their_checks_and_the_wrong_hypothesis_fails():
    import dataclasses

    workload = jobs.FitRecover(ROOT, 4)
    warm = workload.warmup_job()
    clean = warm.run()
    warm.check(clean)
    with pytest.raises(checks.CheckError):
        warm.check(dataclasses.replace(clean, params=dict(clean.params, **{"omega_c:c1": 4.53})))
    job = workload.round(0)[0]
    noisy = job.run()
    job.check(noisy)
    with pytest.raises(checks.CheckError):
        job.check(dataclasses.replace(noisy, theta_assignment=(0.0,)))
    with pytest.raises(checks.CheckError):
        job.check(dataclasses.replace(noisy, residual=noisy.residual * 10.0))
