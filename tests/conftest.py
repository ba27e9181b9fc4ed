"""Pytest hooks: print the package's line count, in total and per module, and one summary
line per acceptance criterion."""

import pathlib
import re

_CRITERIA = {}
_RESULTS = {}

_NAME = re.compile(r"test_acceptance_(\d+)_")
_PACKAGE_DIR = pathlib.Path(__file__).resolve().parent.parent / "src" / "loopmag"


def pytest_collection_modifyitems(config, items):
    for item in items:
        match = _NAME.match(item.name)
        if match is None:
            continue
        doc = (item.function.__doc__ or "").strip().splitlines()
        title = doc[0] if doc else item.name
        _CRITERIA[item.nodeid] = (int(match.group(1)), title)


def pytest_runtest_logreport(report):
    if report.nodeid not in _CRITERIA:
        return
    if report.when == "setup" and report.outcome == "failed":
        _RESULTS[report.nodeid] = "ERROR"
    if report.when != "call":
        return
    if hasattr(report, "wasxfail"):
        _RESULTS[report.nodeid] = (
            "EXPECTED FAIL" if report.skipped else "UNEXPECTED PASS"
        )
    elif report.passed:
        _RESULTS[report.nodeid] = "PASS"
    elif report.failed:
        _RESULTS[report.nodeid] = "FAIL"
    else:
        _RESULTS[report.nodeid] = "SKIP"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = {path.name: path.read_bytes().count(b"\n")
             for path in sorted(_PACKAGE_DIR.glob("*.py"))}
    terminalreporter.write_line("src/loopmag: %d lines" % sum(lines.values()))
    for name, count in lines.items():
        terminalreporter.write_line("  %-15s %4d" % (name, count))
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    ordered = sorted(_CRITERIA.items(), key=lambda pair: pair[1][0])
    for nodeid, (index, title) in ordered:
        status = _RESULTS.get(nodeid, "NOT RUN")
        terminalreporter.write_line("%2d  %-15s %s" % (index, status, title))
