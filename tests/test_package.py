"""Package-level contracts: the exported names and the module boundaries."""

import ast
import pathlib
import types

import loopmag

SRC_DIR = pathlib.Path(loopmag.__file__).parent

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


def test_no_module_imports_another_modules_underscore_name():
    for path in sorted(SRC_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, "%s imports %s from .%s" % (path.name, private, node.module)
