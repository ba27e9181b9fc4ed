"""Mutation sweep: how many small faults in one module do the tests catch?

Enumerates mutation sites of one Python file, in source order:

- flipped comparisons: < and <=, > and >=, == and != swap;
- a raise statement replaced by pass.

A seed samples a subset of the sites.  The tree under --root is copied once to
a temporary directory outside it (without .git and caches); each mutant is
written into that copy, and one pytest process per mutant runs the given tests
with -x and the copy's src/ first on PYTHONPATH.  The unmutated copy must pass
first; a mutant's run is stopped, with its process group, after ten times that
run's wall time (at least 30 s), since a flipped loop condition can run forever.
The report is a JSON file of the sites, and of the killed, survived (line and
diff) and timed-out mutants, with the survival rate survived / (killed + survived).

It needs the standard library and the pytest it runs.  Mutants are written
only to the copy; the report goes to --out, which must lie outside --root's src/.

Usage: python tools/mutants.py --file src/loopmag/calibrate.py --seed 1 --sample 40
           --out /tmp/MUTANTS_calibrate.json [--root DIR] [pytest args]
The default pytest arguments are tests/test_<module>.py, tests/test_cli.py
(where every document loader is tested), tests/test_corpus.py and
tests/test_acceptance.py, each listed once.
"""

import argparse
import ast
import difflib
import io
import json
import os
import pathlib
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
FLIPS = {ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">", ast.Eq: "!=", ast.NotEq: "=="}
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")


def _offset(lines, line, col) -> int:
    """The character offset of (1-based line, column in characters) in the joined lines."""
    return sum(map(len, lines[:line - 1])) + col


def _start(lines, node) -> tuple:
    """node's (line, column in characters); ast counts columns in UTF-8 bytes."""
    return node.lineno, len(lines[node.lineno - 1].encode()[:node.col_offset].decode())


def _end(lines, node) -> tuple:
    return node.end_lineno, len(lines[node.end_lineno - 1].encode()[:node.end_col_offset].decode())


def sites(source: str) -> list:
    """Every mutation site of source, in source order, as (kind, line, start, end,
    replacement): replacing source[start:end] by replacement makes the mutant."""
    lines = source.splitlines(keepends=True)
    operators = [tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                 if tok.type == tokenize.OP]
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            found.append(("raise", node.lineno, _offset(lines, *_start(lines, node)),
                          _offset(lines, *_end(lines, node)), "pass"))
        if not isinstance(node, ast.Compare):
            continue
        for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
            if type(op) not in FLIPS:
                continue
            # the operator is the first comparison token between its two operands
            after, before = _end(lines, left), _start(lines, right)
            tok = next(t for t in operators if after <= t.start and t.end <= before
                       and t.string in ("<", "<=", ">", ">=", "==", "!="))
            found.append(("compare", tok.start[0], _offset(lines, *tok.start),
                          _offset(lines, *tok.end), FLIPS[type(op)]))
    return sorted(found, key=lambda site: site[2])


def run_tests(work, pytest_args, timeout) -> str:
    """'survived' if pytest passes in work, 'killed' if it fails, 'timed_out' after timeout s
    (None: no limit)."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(work) / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *pytest_args]
    proc = subprocess.Popen(command, cwd=work, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # fresh-process tests go with it
        proc.wait()
        return "timed_out"
    return "survived" if code == 0 else "killed"


def sweep(root, file, pytest_args, seed, sample) -> dict:
    """Run the sampled mutants of root/file and report them."""
    root = pathlib.Path(root).resolve()
    source = (root / file).read_text(encoding="utf-8")
    found = sites(source)
    chosen = sorted(random.Random(seed).sample(range(len(found)), min(sample, len(found))))
    report = {"file": str(file), "seed": seed, "sample": sample, "sites": len(found),
              "pytest_args": list(pytest_args), "killed": [], "survived": [], "timed_out": []}
    with tempfile.TemporaryDirectory() as scratch:
        work = pathlib.Path(scratch) / "tree"
        shutil.copytree(root, work, ignore=IGNORED)
        target = work / file
        started = time.monotonic()
        if run_tests(work, pytest_args, None) != "survived":
            raise RuntimeError("the unmutated tree does not pass: %s" % " ".join(pytest_args))
        report["timeout_s"] = timeout = max(30.0, 10 * (time.monotonic() - started))
        for index in chosen:
            kind, line, start, end, replacement = found[index]
            mutant = source[:start] + replacement + source[end:]
            target.write_text(mutant, encoding="utf-8")
            outcome = run_tests(work, pytest_args, timeout)
            entry = {"site": index, "kind": kind, "line": line}
            if outcome == "survived":
                entry["diff"] = "".join(difflib.unified_diff(
                    source.splitlines(keepends=True), mutant.splitlines(keepends=True),
                    str(file), str(file), n=0))
            report[outcome].append(entry)
    judged = len(report["killed"]) + len(report["survived"])
    report["survival_rate"] = len(report["survived"]) / judged if judged else None
    return report


def default_pytest_args(file) -> list:
    """The test files run against a mutant of file when no pytest arguments are given."""
    own = "tests/test_%s.py" % pathlib.Path(file).stem
    return list(dict.fromkeys([own, "tests/test_cli.py", "tests/test_corpus.py",
                               "tests/test_acceptance.py"]))


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(ROOT), help="the tree to copy (default: this repo)")
    parser.add_argument("--file", required=True, help="the file to mutate, relative to --root")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sample", type=int, default=40, help="mutants to run (at most)")
    parser.add_argument("--out", required=True, help="the JSON report, outside --root's src/")
    parser.add_argument("pytest_args", nargs="*")
    args = parser.parse_args(argv)
    out = pathlib.Path(args.out).resolve()
    if out.is_relative_to(pathlib.Path(args.root).resolve() / "src"):
        parser.error("--out must lie outside the tree's src/")
    pytest_args = args.pytest_args or default_pytest_args(args.file)
    report = sweep(args.root, args.file, pytest_args, args.seed, args.sample)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print("%s: %d site(s), %d killed, %d survived, %d timed out"
          % (args.file, report["sites"], len(report["killed"]), len(report["survived"]),
             len(report["timed_out"])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
