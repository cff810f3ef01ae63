"""What ``import defect_robust`` does to the process: numpy's first import runs
with OpenBLAS's shortest thread timeout, and nothing else changes.

Each test runs a fresh interpreter, because numpy loads once per process.
"""
import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import defect_robust

SRC = Path(defect_robust.__file__).parents[1]

# Records OPENBLAS_THREAD_TIMEOUT while numpy is first imported, and os.environ
# before and after the import of the package (or of numpy, then the package).
_PROBE = """
import builtins, json, os, sys
sys.path.insert(0, sys.argv[1])
seen = []
_import = builtins.__import__
def hook(name, *args, **kwargs):
    if name == "numpy" and "numpy" not in sys.modules:
        seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
    return _import(name, *args, **kwargs)
builtins.__import__ = hook
if sys.argv[2] == "numpy-first":
    import numpy
before = dict(os.environ)
import defect_robust
print(json.dumps({"seen": seen, "before": before, "after": dict(os.environ),
                  "all": defect_robust.__all__}))
"""


def _probe(order="package-first", **env):
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    out = subprocess.run([sys.executable, "-c", _PROBE, str(SRC), order], env={**environ, **env},
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_numpy_loads_with_the_shortest_timeout_and_environ_is_restored():
    run = _probe()
    assert run["seen"] == ["4"]
    assert "OPENBLAS_THREAD_TIMEOUT" not in run["before"]
    assert run["after"] == run["before"]


def test_a_timeout_the_caller_set_is_kept():
    run = _probe(OPENBLAS_THREAD_TIMEOUT="7")
    assert run["seen"] == ["7"]
    assert run["before"]["OPENBLAS_THREAD_TIMEOUT"] == run["after"]["OPENBLAS_THREAD_TIMEOUT"] == "7"
    assert run["after"] == run["before"]


def test_numpy_imported_first_changes_nothing():
    run = _probe("numpy-first")
    assert run["seen"] == [None]
    assert run["after"] == run["before"]


def test_public_names_are_unchanged():
    assert _probe()["all"] == [
        "BUILTIN_TEMPLATE_NAMES", "ChargeEstimate", "ConvergenceRow", "DefectRobustError", "DefectSpec",
        "DegenerateCenter", "IntervalEstimate", "InvalidAngle", "InvalidCellSet", "InvalidPath", "LatticePath",
        "NoiseSpec", "OrientationField", "ParseError", "PeriodMode", "QUANTIZATION_TOL", "QuantizationFailure",
        "RankReport", "SweepConfig", "SweepFailure", "SweepResult", "Template", "UnknownTemplate", "add_noise",
        "analytic_path_robustness", "boundary_of_cells", "builtin_template", "canonicalize", "center_offset",
        "convergence_study", "core", "counter_uniform", "derive_seed", "errors", "estimate_charge", "experiments",
        "fieldio", "normalize_and_rank", "read_field", "run_sweep", "synth_defect_field",
        "synthesis", "templates", "theoretical_interval", "winding", "wrap_diff", "write_field", "write_report",
        "write_summary",
    ]


@pytest.mark.skipif(not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2,
                    reason="OpenBLAS starts idle workers only with 2 or more CPUs; rusage via os.wait4")
def test_import_spends_no_cpu_in_idle_blas_workers():
    # With OpenBLAS's default timeout, a worker spins about 2**28 cycles after
    # numpy's import: about 0.1 s of CPU above the wall time on 2 cores.
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    excess = []
    for _ in range(3):
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                                 "import defect_robust", str(SRC)], env=environ)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
        assert status == 0
        excess.append(usage.ru_utime + usage.ru_stime - wall)
    assert min(excess) <= 0.05, f"CPU above wall time per import: {excess}"


#: numpy routines that run on BLAS.  The start-up timeout above is free only
#: while the package calls none of them.
_BLAS_NAMES = {"dot", "vdot", "inner", "outer", "matmul", "tensordot", "einsum", "linalg"}


def _blas_uses(source: str) -> list:
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            uses.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Attribute) and node.attr in _BLAS_NAMES:
            uses.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] + ([node.module] if isinstance(node, ast.ImportFrom) else [])
            uses += [f"line {node.lineno}: import {n}" for n in names
                     if n and _BLAS_NAMES & set(n.split("."))]
    return uses


def test_blas_guard_finds_each_form():
    for source in ("a @ b", "a @= b", "np.dot(a, b)", "a.dot(b)", "np.linalg.norm(a)", "np.einsum('i,i', a, b)",
                   "from numpy import outer", "from numpy.linalg import norm", "import numpy.linalg"):
        assert _blas_uses(source), source
    assert not _blas_uses("@dataclass\nclass A:\n    x: int = 0\nnp.minimum(a, b)")


def test_package_calls_no_blas_routine():
    uses = {path.name: _blas_uses(path.read_text()) for path in sorted((SRC / "defect_robust").glob("*.py"))}
    assert not {name: u for name, u in uses.items() if u}


def _arctan2_uses(source: str) -> list:
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "arctan2":
            uses.append(f"line {node.lineno}: .arctan2")
        elif isinstance(node, ast.ImportFrom):
            uses += [f"line {node.lineno}: import {a.name}" for a in node.names if a.name == "arctan2"]
    return uses


def test_arctan2_guard_finds_each_form():
    for source in ("np.arctan2(y, x)", "numpy.arctan2(y, x)", "f = np.arctan2", "from numpy import arctan2"):
        assert _arctan2_uses(source), source
    assert not _arctan2_uses("math.atan2(y, x)\nnp.arctan(t)")


def test_package_calls_arctan2_once():
    # every synthetic angle comes from synthesis.defect_pattern's one call, so
    # an atan2 that gives the same bits on every machine replaces that call alone
    uses = {path.name: _arctan2_uses(path.read_text()) for path in sorted((SRC / "defect_robust").glob("*.py"))}
    assert [(name, len(u)) for name, u in uses.items() if u] == [("synthesis.py", 1)]
