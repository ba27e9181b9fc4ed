"""Property-based CLI fuzz: a mutated input file loads, or exits 2 with one error line.

Each example takes a valid device config, fit spec or fieldmap config and
replaces one or two values anywhere in it with a wrong type, a NaN or
Infinity literal or a nested list, or deletes them.  Every mutation lands
only on input values, so a run either succeeds or is an input problem: it
must exit 0, or exit 2 with exactly one error: line, and never raise or warn.
"""

import copy
import json
import math
import warnings

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from loopmag.cli import PRESETS, main

DELETE = object()
REPLACEMENTS = [None, True, "x", "5", {}, [], [[1.0]], [["pi"]], math.nan, math.inf, -math.inf,
                DELETE]

FUZZ = settings(derandomize=True, max_examples=100, deadline=None)

DEVICE = dict(
    copy.deepcopy(PRESETS["cavity-pi-table1"]),
    ports={"1": {"c1": 5.0}, "2": {"c1": 2.0, "c2": 5.0}},
    magnon_grid={"start_ghz": 5.0, "stop_ghz": 6.0, "points": 5},
    probe_grid={"start_ghz": 4.0, "stop_ghz": 7.0, "points": 9},
)
FIT_SPEC = {
    "preset": "cavity-pi-fit",
    "free_photon_frequencies": ["c1"],
    "free_couplings": ["c1", "c2"],
    "theta_hypotheses": [["pi"], [0.0]],
    "initial": [4.52, 0.078, 0.118],
    "bounds": {"g:c1": [0.0, 0.5]},
    "continuous_theta": False,
    "max_iterations": 40,
}
FIELDMAP_CONFIG = {
    "regions": [
        {"label": "m1", "center_m": [0.1, 0.0, 0.0], "radius_m": 0.15},
        {"label": "m2", "center_m": [-0.1, 0.0, 0.0], "radius_m": 0.15},
    ],
    "mode_frequencies_ghz": {"c1": 4.524},
}
FIELD_CSV = (
    "x_m,y_m,z_m,hx_re,hx_im,hy_re,hy_im,hz_re,hz_im,weight_m3\n"
    "0.1,0,0,1,0,0.5,0,0,0,0.5\n"
    "-0.1,0,0,0.5,0,1,0,0,0,0.5\n"
)
PEAKS_CSV = "omega_m_ghz,omega_peak_ghz\n5.0,4.5\n5.5,6.2\n6.0,5.9\n"


@st.composite
def mutated(draw, document):
    """document with one or two values replaced or deleted at random paths."""
    document = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, 2))):
        parent, key = None, None
        node = document
        while isinstance(node, (dict, list)) and node:
            if parent is not None and draw(st.integers(0, 3)) == 0:
                break  # mutate this inner node; leaves are reached three times in four
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, draw(st.sampled_from(list(keys)))
            node = parent[key]
        if parent is None:
            continue
        replacement = draw(st.sampled_from(REPLACEMENTS))
        if replacement is DELETE:
            del parent[key]
        else:
            parent[key] = copy.deepcopy(replacement)
    return document


def check_run(tmp_path, document, args):
    """Write the document, run the command, and check the exit contract."""
    (tmp_path / "input.json").write_text(json.dumps(document))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = CliRunner().invoke(main, args)
    assert [str(w.message) for w in caught] == []
    assert result.exit_code in (0, 2), (result.exit_code, result.output, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    if result.exit_code == 2:
        assert result.output.startswith("error: ") and result.output.count("\n") == 1


@FUZZ
@given(document=mutated(DEVICE), command=st.sampled_from(["gauge", "spectrum", "s21"]))
def test_mutated_device_configs_load_or_exit_2(tmp_path_factory, document, command):
    tmp_path = tmp_path_factory.mktemp("device")
    check_run(tmp_path, document, [command, "--config", str(tmp_path / "input.json")])


@FUZZ
@given(document=mutated(FIT_SPEC))
def test_mutated_fit_specs_load_or_exit_2(tmp_path_factory, document):
    tmp_path = tmp_path_factory.mktemp("fit")
    (tmp_path / "peaks.csv").write_text(PEAKS_CSV)
    check_run(tmp_path, document, ["fit", "--data", str(tmp_path / "peaks.csv"),
                                   "--spec", str(tmp_path / "input.json")])


@FUZZ
@given(document=mutated(FIELDMAP_CONFIG))
def test_mutated_fieldmap_configs_load_or_exit_2(tmp_path_factory, document):
    tmp_path = tmp_path_factory.mktemp("fieldmap")
    (tmp_path / "c1.csv").write_text(FIELD_CSV)
    check_run(tmp_path, document, ["fieldmap", "--mode-file", "c1=%s" % (tmp_path / "c1.csv"),
                                   "--config", str(tmp_path / "input.json")])
