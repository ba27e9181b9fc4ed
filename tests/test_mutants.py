"""tools/mutants.py on a fixture module: its sites, a killed mutant, a survivor, a timeout."""

import json
import pathlib

from devices import load

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "mutants.py"

FIXTURE = '''"""A fixture module: a clamp from below, and one check that raises."""


def clamp(x, lo):
    if x < lo:  # "x <= lo" returns lo at x == lo either way: a survivor
        return lo
    return x


def check(x):
    if x != x:
        raise ValueError("nan")
    return x
'''

FIXTURE_TEST = '''import pytest

from fixture import check, clamp


def test_clamp():
    assert [clamp(x, 0) for x in (-1, 1)] == [0, 1]


def test_check():
    with pytest.raises(ValueError):
        check(float("nan"))
'''


def fixture_tree(tmp_path, test=FIXTURE_TEST) -> pathlib.Path:
    root = tmp_path / "tree"
    (root / "src").mkdir(parents=True)
    (root / "tests").mkdir()
    (root / "src" / "fixture.py").write_text(FIXTURE)
    (root / "tests" / "test_fixture.py").write_text(test)
    return root


def test_sites_come_in_source_order_with_their_flips():
    mutants = load("mutants", TOOL)
    found = mutants.sites(FIXTURE)
    assert [(kind, line, rep) for kind, line, _, _, rep in found] == [
        ("compare", 5, "<="), ("compare", 11, "=="), ("raise", 12, "pass")]
    assert [FIXTURE[start:end] for _, _, start, end, _ in found] == [
        "<", "!=", 'raise ValueError("nan")']


def test_a_sweep_reports_the_killed_mutant_and_the_survivor(tmp_path):
    mutants = load("mutants", TOOL)
    root = fixture_tree(tmp_path)
    out = tmp_path / "MUTANTS_fixture.json"
    code = mutants.main(["--root", str(root), "--file", "src/fixture.py", "--seed", "3",
                         "--sample", "10", "--out", str(out),
                         "tests/test_fixture.py"])
    report = json.loads(out.read_text())
    assert code == 0
    assert (root / "src" / "fixture.py").read_text() == FIXTURE
    assert report["sites"] == 3
    assert [(m["kind"], m["line"]) for m in report["killed"]] == [("compare", 11), ("raise", 12)]
    (survivor,) = report["survived"]
    assert (survivor["kind"], survivor["line"]) == ("compare", 5)
    assert "-    if x < lo:" in survivor["diff"] and "+    if x <= lo:" in survivor["diff"]
    assert report["timed_out"] == [] and report["survival_rate"] == 1 / 3
    assert report["timeout_s"] >= 30.0


def test_a_run_past_its_timeout_is_reported_as_timed_out(tmp_path):
    mutants = load("mutants", TOOL)
    root = fixture_tree(tmp_path, "import time\n\n\ndef test_sleeps():\n    time.sleep(60)\n")
    assert mutants.run_tests(root, ["tests/test_fixture.py"], 1.0) == "timed_out"


def test_the_default_tests_add_the_cli_tests_once():
    mutants = load("mutants", TOOL)
    assert mutants.default_pytest_args("src/loopmag/calibrate.py") == [
        "tests/test_calibrate.py", "tests/test_cli.py", "tests/test_corpus.py",
        "tests/test_acceptance.py"]
    assert mutants.default_pytest_args("src/loopmag/cli.py") == [
        "tests/test_cli.py", "tests/test_corpus.py", "tests/test_acceptance.py"]
