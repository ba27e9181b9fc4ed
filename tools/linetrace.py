"""List the lines of src/loopmag that no test runs.

Runs pytest in this process under a line tracer (sys.settrace and
threading.settrace), installed before loopmag is imported, then prints each
executable line of src/loopmag that no test ran, as path:line, and last
pytest's exit code, which is also this script's exit status.  A line is
executable when the line table of code compiled from the file (co_lines)
names it.  Tests that run loopmag in a fresh process are not traced, so
lines that only they reach are listed too.

While a trace function is set, CPython 3.11 runs every instruction
unspecialized, and a str then no longer grows in place under +=, so the CSV
writers copy their text once per block and
test_csv_writers_hold_one_csv_plus_one_block fails here (a peak of 2.05x the
CSV under a no-op trace function, 1.15x without).  pytest reports such
failures, and the lines are listed all the same.

It needs the standard library and the pytest it runs, and writes nothing
under the repository: no bytecode, no pytest cache, and pytest runs from a
temporary directory, where hypothesis keeps its files.

Usage: python tools/linetrace.py [pytest arguments, default: the testpaths]
"""

import collections
import os
import pathlib
import sys
import tempfile
import threading
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "loopmag"
TESTPATHS = ("tests", "perfbench/tests")


def executable_lines(path) -> set:
    """The line numbers that co_lines names in any code object compiled from path."""
    stack = [compile(pathlib.Path(path).read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: the module's start
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def unrun_lines(package_dir, run) -> tuple:
    """run()'s result and the sorted (path, line) pairs of the executable lines of
    package_dir/*.py that run() did not execute.  Import the package inside run:
    module-level lines execute at import."""
    files = {str(path): path for path in sorted(pathlib.Path(package_dir).resolve().glob("*.py"))}
    ran = collections.defaultdict(set)

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename in files else None

    saved = sys.gettrace(), threading.gettrace()
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        result = run()
    finally:
        sys.settrace(saved[0])
        threading.settrace(saved[1])
    missed = [(path, line) for name, path in files.items()
              for line in sorted(executable_lines(path) - ran[name])]
    return result, missed


def main(args) -> int:
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"  # and none from fresh-process tests
    sys.path.insert(0, str(PACKAGE_DIR.parent))
    import pytest

    # pytest runs elsewhere, so a path given here is made absolute first
    cwd = os.getcwd()
    args = [os.path.join(cwd, arg) if os.path.exists(arg.partition("::")[0]) else arg
            for arg in args] or [str(ROOT / path) for path in TESTPATHS]
    argv = ["-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
            "--rootdir", str(ROOT), *args]
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            code, missed = unrun_lines(PACKAGE_DIR, lambda: int(pytest.main(argv)))
        finally:
            os.chdir(cwd)
    for path, line in missed:
        print("%s:%d" % (path.relative_to(ROOT), line))
    print("pytest exit code: %d" % code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
