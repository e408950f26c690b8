"""Mixed graphs, phased Hermitian adjacency matrices, switching, and
quantum-walk periodicity."""

from .graphs import (
    ArcIndex,
    MixedGraph,
    build_cycle,
    build_path,
    from_json_dict,
    to_json_dict,
)
from .periodicity import PeriodReport, brute_force_period, certify_period, cycle_period, path_period, period_of
from .spectra import (
    ETA_GRID,
    RationalAngle,
    cospectral,
    cycle_charpoly_closed,
    det_cycle_closed,
    det_path_closed,
    h_eta,
    normalized_h_eta,
)
from .switching import (
    CycleClassification,
    apply_switching,
    canonicalize_cycle,
    classify_cycle,
    named_move,
)
from .walk import SpectralMapReport, WalkOperators, spectral_map_check, time_evolution

__all__ = [
    "ArcIndex",
    "MixedGraph",
    "build_cycle",
    "build_path",
    "from_json_dict",
    "to_json_dict",
    "PeriodReport",
    "brute_force_period",
    "certify_period",
    "cycle_period",
    "path_period",
    "period_of",
    "ETA_GRID",
    "RationalAngle",
    "cospectral",
    "cycle_charpoly_closed",
    "det_cycle_closed",
    "det_path_closed",
    "h_eta",
    "normalized_h_eta",
    "CycleClassification",
    "apply_switching",
    "canonicalize_cycle",
    "classify_cycle",
    "named_move",
    "SpectralMapReport",
    "WalkOperators",
    "spectral_map_check",
    "time_evolution",
]

__version__ = "0.1.0"
