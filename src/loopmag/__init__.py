"""Loop-coupled cavity magnonics: gauge reduction, spectra, transmission, fits.

Every exported name, and every submodule, resolves on first access, so
``import loopmag`` by itself loads neither numpy nor any submodule.
"""

import importlib

_EXPORTS = {
    "calibrate": (
        "DEFAULT_SIGMA_GHZ", "FitResult", "FitSpec", "HypothesisFit", "PeakDataset",
        "PeakRecord", "dataset_from_csv", "fit", "residual",
    ),
    "fieldmap": (
        "DEFAULT_CONSTANTS", "FieldSample", "FieldTable", "PhaseUndefinedError",
        "PhysicalConstants", "SphereRegion", "coupling_phase", "coupling_strength",
        "coupling_table", "field_table_from_csv", "filling_factor", "region_integrals",
    ),
    "gauge": (
        "CouplingGraph", "Cycle", "GaugeReduction", "PhysicalPhase", "build_graph",
        "cycle_basis", "loop_phase", "reduce_system", "reduction_to_document",
    ),
    "model": (
        "PHASE_STRINGS", "CouplingEdge", "HermitianMatrixGHz", "ModeSpec", "RwaCheck",
        "SchemaError", "SystemModel", "apply_vertex_phases", "build_hamiltonian", "check_rwa",
        "fold_phase", "parse_phase", "system_from_document", "system_to_document",
    ),
    "spectrum": (
        "GapReport", "SweepResult", "branch_frequencies", "dark_mode_metric", "eig_hermitian",
        "min_gap", "resonant_gap", "sweep", "sweep_to_csv",
    ),
    "transmission": (
        "PortSpec", "TransmissionMap", "extract_peaks", "line_cut_csv", "map_to_csv", "s21_at",
        "s21_map",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    if name in _MODULE_OF:
        return getattr(importlib.import_module("." + _MODULE_OF[name], __name__), name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(__all__))
