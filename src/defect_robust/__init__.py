"""Topological defect estimation on lattice orientation fields, with a
per-edge robustness measure for the estimate."""


def _import_numpy_with_idle_blas_asleep():
    """Import numpy for the first time with OPENBLAS_THREAD_TIMEOUT=4, then restore os.environ.

    numpy's bundled OpenBLAS starts a worker thread per core when numpy is
    imported, and each busy-waits about 2**28 cycles (OpenBLAS's default timeout)
    before it sleeps.  The package calls no BLAS routine, so that wait is CPU
    spent for nothing: about 0.1 s per process on 2 cores.  4 is OpenBLAS's
    shortest timeout (2**4 cycles).  A timeout the caller set is kept, and if
    numpy is already loaded nothing changes.
    """
    import os
    import sys

    if "numpy" in sys.modules or "OPENBLAS_THREAD_TIMEOUT" in os.environ:
        return
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"
    try:
        import numpy  # noqa: F401
    finally:
        os.environ.pop("OPENBLAS_THREAD_TIMEOUT", None)


_import_numpy_with_idle_blas_asleep()

from .core import (
    QUANTIZATION_TOL,
    ChargeEstimate,
    LatticePath,
    OrientationField,
    PeriodMode,
    canonicalize,
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
)

__all__ = [name for name in dir() if not name.startswith("_")]
