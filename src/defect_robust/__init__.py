"""Topological defect estimation on lattice orientation fields, with a
per-edge robustness measure for the estimate."""

from .core import (
    QUANTIZATION_TOL,
    ChargeEstimate,
    LatticePath,
    OrientationField,
    PeriodMode,
    RobustnessReport,
    canonicalize,
    edge_robustness,
    estimate_charge,
    path_robustness,
    winding,
    wrap_diff,
)
from .errors import (
    DefectRobustError,
    DegenerateCenter,
    InvalidAngle,
    InvalidCellSet,
    InvalidPath,
    ParseError,
    QuantizationFailure,
    SweepFailure,
    UnknownTemplate,
)
from .experiments import (
    ConvergenceRow,
    IntervalEstimate,
    RankReport,
    SweepConfig,
    SweepResult,
    analytic_path_robustness,
    convergence_study,
    normalize_and_rank,
    run_sweep,
    theoretical_interval,
)
from .fieldio import read_field, write_field, write_report, write_summary
from .synthesis import (
    DefectSpec,
    NoiseSpec,
    add_noise,
    counter_uniform,
    derive_seed,
    synth_defect_field,
)
from .templates import (
    BUILTIN_TEMPLATE_NAMES,
    Template,
    boundary_of_cells,
    builtin_template,
    center_offset,
    max_view_angle,
)

__all__ = [name for name in dir() if not name.startswith("_")]
