"""Loop-coupled cavity magnonics: gauge reduction, spectra, transmission, fits."""

import types

from .calibrate import (
    DEFAULT_SIGMA_GHZ,
    FitResult,
    FitSpec,
    HypothesisFit,
    PeakDataset,
    PeakRecord,
    dataset_from_csv,
    fit,
    residual,
)
from .fieldmap import (
    DEFAULT_CONSTANTS,
    FieldSample,
    FieldTable,
    PhaseUndefinedError,
    PhysicalConstants,
    SphereRegion,
    coupling_phase,
    coupling_strength,
    coupling_table,
    field_table_from_csv,
    filling_factor,
    region_integrals,
)
from .gauge import (
    CouplingGraph,
    Cycle,
    GaugeReduction,
    PhysicalPhase,
    build_graph,
    cycle_basis,
    loop_phase,
    reduce_system,
    reduction_to_document,
)
from .model import (
    PHASE_STRINGS,
    CouplingEdge,
    HermitianMatrixGHz,
    ModeSpec,
    RwaCheck,
    SchemaError,
    SystemModel,
    apply_vertex_phases,
    build_hamiltonian,
    check_rwa,
    fold_phase,
    parse_phase,
    system_from_document,
    system_to_document,
)
from .spectrum import (
    GapReport,
    SweepResult,
    branch_frequencies,
    dark_mode_metric,
    eig_hermitian,
    min_gap,
    resonant_gap,
    sweep,
    sweep_to_csv,
)
from .transmission import (
    PortSpec,
    TransmissionMap,
    extract_peaks,
    line_cut_csv,
    map_to_csv,
    s21_at,
    s21_map,
)

__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
