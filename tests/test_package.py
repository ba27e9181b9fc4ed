"""Package-level contracts: the exported names and the module boundaries."""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys
import types

import loopmag
from devices import raises_exactly

SRC_DIR = pathlib.Path(loopmag.__file__).parent
TESTS_DIR = pathlib.Path(__file__).resolve().parent

EXPORTED = {
    "CouplingEdge", "CouplingGraph", "Cycle", "DEFAULT_CONSTANTS", "DEFAULT_SIGMA_GHZ",
    "FieldSample", "FieldTable", "FitResult", "FitSpec", "GapReport", "GaugeReduction",
    "HermitianMatrixGHz", "HypothesisFit", "ModeSpec", "PHASE_STRINGS", "PeakDataset",
    "PeakRecord", "PhaseUndefinedError", "PhysicalConstants", "PhysicalPhase", "PortSpec",
    "RwaCheck", "SchemaError", "SphereRegion", "SweepResult", "SystemModel", "TransmissionMap",
    "apply_vertex_phases", "branch_frequencies", "build_graph", "build_hamiltonian", "check_rwa",
    "coupling_phase", "coupling_strength", "coupling_table", "cycle_basis", "dark_mode_metric",
    "dataset_from_csv", "eig_hermitian", "extract_peaks", "field_table_from_csv",
    "filling_factor", "fit", "fold_phase", "line_cut_csv", "loop_phase", "map_to_csv", "min_gap",
    "parse_phase", "reduce_system", "reduction_to_document", "region_integrals", "resonant_gap",
    "residual", "s21_at", "s21_map", "sweep", "sweep_to_csv", "system_from_document",
    "system_to_document",
}


def test_all_is_the_sorted_exported_names_and_no_module():
    assert len(EXPORTED) == 60
    assert loopmag.__all__ == sorted(EXPORTED)
    assert not any(isinstance(getattr(loopmag, name), types.ModuleType) for name in loopmag.__all__)


def test_importing_the_package_loads_no_numpy_and_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, loopmag; print(sorted(m for m in sys.modules"
         " if m.split('.')[0] == 'numpy' or m.startswith('loopmag.')))"],
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR.parent)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_a_submodule_resolves_through_the_package_getattr_in_a_fresh_process():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, loopmag; before = 'loopmag.gauge' in sys.modules;"
         " gauge = loopmag.gauge; print(before, gauge is sys.modules['loopmag.gauge'])"],
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR.parent)),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False True\n"


def test_every_exported_name_is_the_object_its_module_defines():
    defined = {}
    for path in sorted(SRC_DIR.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                defined.setdefault(name, set()).add(path.stem)
    for name in loopmag.__all__:
        (module,) = defined[name]
        assert getattr(loopmag, name) is getattr(importlib.import_module("loopmag." + module), name)
    assert set(loopmag.__all__) <= set(dir(loopmag))
    with raises_exactly(AttributeError, "module 'loopmag' has no attribute 'no_such_name'"):
        loopmag.no_such_name


def test_no_module_imports_another_modules_underscore_name():
    for path in sorted(SRC_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, "%s imports %s from .%s" % (path.name, private, node.module)


def test_only_model_names_the_csv_cell_layout():
    # names, attributes, imported aliases and definitions alike
    for path in sorted(SRC_DIR.glob("*.py")):
        if path.name == "model.py":
            continue
        named = {getattr(node, field, None) for node in ast.walk(ast.parse(path.read_text()))
                 for field in ("id", "attr", "name")}
        assert not named & {"CELL_BYTES", "cells_text", "g9_cells"}, path.name


def test_one_block_constant_remains():
    for path in sorted(SRC_DIR.glob("*.py")):
        text = path.read_text()
        assert "BLOCK_ENTRIES" not in text and "CSV_BLOCK_VALUES" not in text, path.name


def test_only_the_package_init_assigns_all():
    for path in sorted(SRC_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        stored = {node.id for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        assert "__all__" not in stored, "%s assigns __all__" % path.name


def test_no_module_relies_on_an_assert_statement():
    # python -O strips assert statements, so a check the package needs must raise
    for path in sorted(SRC_DIR.glob("*.py")):
        asserts = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Assert)]
        assert not asserts, "%s has assert statements on lines %s" % (path.name, asserts)


def test_the_only_scipy_import_is_the_one_inside_min_gap():
    # fit descends on calibrate's own simplex, so no command loads scipy; only
    # min_gap's exact refinement imports it, when it is called
    found = []
    for path in sorted(SRC_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        scope = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):  # the innermost enclosing function
                scope[child] = node.name if isinstance(node, ast.FunctionDef) else scope.get(node)
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] if node.level == 0 else []
            else:
                continue
            if any(m == "scipy" or m.startswith("scipy.") for m in modules):
                found.append((path.stem, scope.get(node), node.lineno))
    assert [(module, function) for module, function, _ in found] == [("spectrum", "min_gap")], found


SPECIFIER = r"%[-#0 +]*\d*(?:\.\d+)?[a-z%]"


def test_every_cli_schema_error_message_is_asserted_by_a_cli_test():
    # in every module, the longest text between %-specifiers of each literal of a
    # SchemaError message or an anchored prefix must appear in the CLI tests
    tested = pathlib.Path(__file__).with_name("test_cli.py").read_text()
    untested = []
    for path in sorted(SRC_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
                    "SchemaError", "anchored"):
                for literal in ast.walk(node):
                    if isinstance(literal, ast.Constant) and isinstance(literal.value, str):
                        parts = re.split(SPECIFIER, literal.value)
                        if max((part.strip() for part in parts), key=len) not in tested:
                            untested.append((path.name, literal.lineno, literal.value))
    assert not untested, "SchemaError messages no CLI test asserts: %s" % untested


# message formats raised in src/loopmag that no test string needs to pin, each with
# one line of reason; none today
UNPINNED = {}


def test_every_raised_message_is_pinned_by_a_test_string():
    # each literal %-format or f-string that src/loopmag raises must fullmatch a string
    # constant of the tests: specifiers and fields match any text, after an optional
    # anchored prefix (<path>: or <path>.)
    strings = {node.value for path in TESTS_DIR.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    strings -= set(UNPINNED) | set(UNPINNED.values())  # an entry pins nothing
    patterns = {}
    for path in sorted(SRC_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and node.exc.args):
                continue
            message = node.exc.args[0]
            message = message.left if isinstance(message, ast.BinOp) else message  # "..." % args
            if isinstance(message, ast.Constant) and isinstance(message.value, str):
                body = ".*".join(map(re.escape, re.split(SPECIFIER, message.value)))
                patterns[message.value] = body
            elif isinstance(message, ast.JoinedStr):
                patterns[ast.unparse(message)] = "".join(
                    re.escape(part.value) if isinstance(part, ast.Constant) else ".*"
                    for part in message.values)
    unpinned = [text for text, body in patterns.items()
                if not any(re.fullmatch(r"(?:.+(?:: |\.))?" + body, string) for string in strings)]
    assert len(patterns) > 140 and sorted(unpinned) == sorted(UNPINNED), unpinned


def test_only_model_anchored_reraises_a_value_errors_message_as_a_schema_error():
    # an except clause that binds a ValueError and raises again, keeping its message
    rewrites = []
    for path in sorted(SRC_DIR.glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text())):
            if not isinstance(function, ast.FunctionDef):
                continue
            for handler in ast.walk(function):
                if (isinstance(handler, ast.ExceptHandler) and handler.name is not None
                        and getattr(handler.type, "id", None) in ("ValueError", "SchemaError")
                        and any(isinstance(node, ast.Raise) for node in ast.walk(handler))):
                    rewrites.append((path.name, function.name))
    assert rewrites == [("model.py", "anchored")]


def test_no_two_test_functions_share_a_body():
    # a shared device or helper lives once, in devices.py; a one-statement body may repeat
    seen = {}
    for path in sorted(TESTS_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and len(node.body) >= 2:
                where = "%s:%d %s" % (path.name, node.lineno, node.name)
                first = seen.setdefault(ast.dump(ast.Module(node.body, [])), where)
                assert first == where, "%s has the body of %s" % (where, first)


def test_no_test_module_imports_another():
    for path in sorted(TESTS_DIR.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        names = [node.module or "" for node in nodes if isinstance(node, ast.ImportFrom)]
        names += [alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names]
        assert not [name for name in names if name.startswith("test_")], path.name


README_NAME = re.compile(r"`(?:loopmag\.)?(calibrate|cli|fieldmap|gauge|model|spectrum|transmission)"
                         r"\.([A-Za-z_]\w*)`(?: = (\d(?:[\d.e^+-]*\d)?))?")


def test_every_module_name_in_the_readme_resolves_and_every_value_it_claims_holds():
    found = README_NAME.findall((TESTS_DIR.parent / "README.md").read_text())
    claims = [(module, name, value) for module, name, value in found if value]
    assert found and claims
    missing = [(module, name) for module, name, _ in found
               if not hasattr(importlib.import_module("loopmag." + module), name)]
    assert not missing, "README names what its module does not define: %s" % missing
    for module, name, value in claims:
        base, _, power = value.partition("^")
        claimed = int(base) ** int(power) if power else float(value)
        assert getattr(importlib.import_module("loopmag." + module), name) == claimed, name
