#!/usr/bin/env python3
"""Benchmark of defect-robust: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
``src/``.  Load is a closed loop with one client: each operation starts
after the previous one ends.  A run repeats whole rounds of its workload's
operations until about S seconds of operations are measured, checks every
operation's outputs after its round, outside the timed interval, and prints
one JSON object as its last line.

``--trace 0`` runs each operation in a fresh interpreter, as a user would,
and reports the end-to-end metrics.  ``--trace 1`` runs each operation
in-process twice per round, once plain and once with spans around the
package's public functions, and reports the per-layer metrics and the
tracing overhead.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import sweep_op
import tracing

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
WORK = BENCH / "work"

TEMPLATES = ("single", "2x2", "cross", "3x3", "3x3ext")
SETUP_REPEATS = 5
OP_TIMEOUT_S = 150
MB = 1e6

ORACLE_DENSITY = 1000
CONVERGENCE_SIZES = (1, 2, 3, 4, 8, 16)
CONVERGENCE_DENSITY = 500
SCAN_SIZE = 256
SCAN_NOISE = 0.3
SCAN_TEMPLATES = ("single", "3x3", "3x3ext")

#: The console script ``defect-robust`` does exactly this.
CLI_ENTRY = "import sys; from defect_robust.cli import main; sys.exit(main())"
SETUP_CODE = "import time; import defect_robust; print(time.monotonic())"

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("output_mb", "MB"), ("setup_s", "s"))
PER_LAYER = (
    ("cli.self_s", "s"),
    ("fieldio.read_field_s", "s"),
    ("fieldio.write_report_s", "s"),
    ("fieldio.report_rows", "count"),
    ("fieldio.write_summary_s", "s"),
    ("experiments.run_sweep_s", "s"),
    ("experiments.run_sweep.self_s", "s"),
    ("experiments.result_mb", "MB"),
    ("experiments.normalize_and_rank_s", "s"),
    ("experiments.theoretical_interval_s", "s"),
    ("experiments.oracle_points", "count"),
    ("experiments.convergence_study_s", "s"),
    ("synthesis.counter_uniform_s", "s"),
    ("synthesis.counter_uniform_values", "count"),
    ("synthesis.derive_seed_s", "s"),
    ("core.canonicalize_s", "s"),
    ("core.canonicalize_values", "count"),
    ("core.wrap_diff_s", "s"),
    ("core.wrap_diff_values", "count"),
    ("core.estimate_charge_calls", "count"),
    ("core.estimate_charge_s", "s"),
    ("core.path_robustness_calls", "count"),
    ("core.path_robustness_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
)


@dataclass
class Op:
    """One operation: a CLI command, or the library sweep when ``argv`` is None."""

    label: str
    argv: list | None
    outputs: list
    stdout: Path
    config: dict | None = None


@dataclass
class Done:
    """An executed operation and what it cost."""

    ok: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    output_mb: float
    #: Sample arrays of an in-process library sweep.
    samples: dict | None = None
    #: Files that hold all of the op's outputs; None if some are only in memory.
    files: list | None = None


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _write_json(path, obj):
    path.write_text(json.dumps(obj, indent=1) + "\n")
    return path


def _output_mb(op):
    return sum(p.stat().st_size for p in [*op.outputs, op.stdout]) / MB


# ---------------------------------------------------------------- inputs

def _sweep_config(seed, n_centers, amplitudes):
    return {
        "templates": list(TEMPLATES),
        "n_centers": n_centers,
        "noise_amplitudes": amplitudes,
        "n_noise_realizations": 10,
        "base_seed": seed,
        "grid": {"nx": 32, "ny": 32, "h": 1.0},
        "mode": "nematic",
        "charge": "1/2",
        "oracle_density": 200,
    }


def scan_defects(seed):
    """Twelve +-1/2 defects: one per site of a 4x3 lattice, jittered by up to 10."""
    rng = np.random.default_rng(seed)
    sites = np.array([(SCAN_SIZE * (2 * i + 1) / 8, SCAN_SIZE * (2 * j + 1) / 6)
                      for j in range(3) for i in range(4)])
    centres = sites + rng.uniform(-10.0, 10.0, size=sites.shape)
    charges = rng.choice([-0.5, 0.5], size=len(sites))
    return centres, charges


def clean_field(centres, charges, size=SCAN_SIZE):
    """Sum of the defects' q*atan2 windings on a size x size grid, h = 1."""
    x = np.arange(size, dtype=float)
    theta = np.zeros((size, size))
    for (cx, cy), q in zip(centres, charges):
        theta += q * np.arctan2(x[:, None] - cy, x[None, :] - cx)
    return theta


def write_orifield(path, angles, h=1.0):
    ny, nx = angles.shape
    with open(path, "w") as fh:
        fh.write(f"ORIFIELD 1 {nx} {ny} {h!r} nematic\n")
        fh.writelines(" ".join(map(repr, row)) + "\n" for row in angles.tolist())


# ---------------------------------------------------------------- workloads
# Each builder writes its inputs into ``work`` and returns the ops of one
# round and the check of a round's outputs.

def sweep_report(seed, work, args):
    config = _sweep_config(seed, 10_000, [0.0, 0.2])
    path = _write_json(work / "sweep.json", config)
    report, summary = work / "report.csv", work / "summary.txt"
    op = Op("sweep", ["--seed", str(seed), "sweep", "--config", str(path), "--out", str(report),
                      "--summary", str(summary)], [report, summary], work / "sweep.stdout")

    def check(done):
        checks.check_sweep(config, checks.read_report(report), summary.read_text())

    return [op], check


def sweep_large(seed, work, args):
    config = _sweep_config(seed, args.centers, [0.0, 0.1, 0.2, 0.4])
    summary = work / "summary.txt"
    op = Op("sweep_large", None, [summary], work / "sweep_large.stdout", config)

    def check(done):
        samples = done["sweep_large"].samples or sweep_op.load_samples(work / "sweep_large.samples")
        checks.check_sweep(config, samples, summary.read_text())

    return [op], check


def oracle_bounds(seed, work, args):
    # The oracle is deterministic; the seed only orders the templates.
    order = list(TEMPLATES)
    np.random.default_rng(seed).shuffle(order)
    ops = [Op(f"oracle_{t}", ["--seed", str(seed), "oracle", "--template", t, "--charge", "1/2",
                              "--density", str(ORACLE_DENSITY)], [], work / f"oracle_{t}.stdout")
           for t in order]
    ops.append(Op("convergence", ["--seed", str(seed), "convergence", "--charge", "1/2", "--sizes",
                                  ",".join(map(str, CONVERGENCE_SIZES)), "--density", str(CONVERGENCE_DENSITY)],
                  [], work / "convergence.stdout"))

    def check(done):
        for t in TEMPLATES:
            checks.check_oracle(t, (work / f"oracle_{t}.stdout").read_text(), ORACLE_DENSITY)
        checks.check_convergence((work / "convergence.stdout").read_text(), CONVERGENCE_SIZES)

    return ops, check


def scan_field(seed, work, args):
    from defect_robust import NoiseSpec, OrientationField, add_noise

    clean = clean_field(*scan_defects(seed))
    noisy = add_noise(OrientationField.from_angles(clean), NoiseSpec(SCAN_NOISE, seed))
    field = work / "field.orif"
    write_orifield(field, noisy.angles)
    h, angles = checks.read_field_file(field)
    outs = {t: work / f"scan_{t}.csv" for t in SCAN_TEMPLATES}
    ops = [Op(f"scan_{t}", ["--seed", str(seed), "scan", "--field", str(field), "--template", t,
                            "--out", str(outs[t])], [outs[t]], work / f"scan_{t}.stdout")
           for t in SCAN_TEMPLATES]

    def check(done):
        checks.check_scan(angles, h, outs, clean, SCAN_NOISE)

    return ops, check


WORKLOADS = {f.__name__: f for f in (sweep_report, sweep_large, oracle_bounds, scan_field)}


# ---------------------------------------------------------------- execution

def _wait(proc):
    """Waits for ``proc`` (killing it after OP_TIMEOUT_S); returns its rusage."""
    killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        killer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_fresh(op, env):
    """One operation in a fresh interpreter, timed from launch."""
    err_path = op.stdout.with_suffix(".stderr")
    if op.argv is not None:
        cmd = [sys.executable, "-c", CLI_ENTRY, *op.argv]
    else:
        config = _write_json(op.stdout.with_suffix(".json"), op.config)
        stats, dump = op.stdout.with_suffix(".stats.json"), op.stdout.with_suffix(".samples")
        cmd = [sys.executable, str(BENCH / "sweep_op.py"), str(config), str(op.outputs[0]), str(stats), str(dump)]
    with open(op.stdout, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        usage = _wait(proc)
        end = time.monotonic()
    if proc.returncode != 0:
        sys.stderr.write(f"{op.label}: exit {proc.returncode}\n{err_path.read_text()}")
        return Done(False, end - start, 0.0, 0.0, 0.0)
    cpu, rss_kb, files = usage.ru_utime + usage.ru_stime, usage.ru_maxrss, [*op.outputs, op.stdout]
    if op.argv is None:
        # The library op reports its own clock and usage at its last output,
        # before it saves the samples for the checks.
        reported = json.loads(stats.read_text())
        end, cpu, rss_kb = reported["done"], reported["cpu_s"], reported["maxrss_kb"]
        files.append(dump)
    return Done(True, end - start, cpu, rss_kb * 1024 / MB, _output_mb(op), None, files)


def run_inprocess(op):
    """One operation in this process (the traced run), timed from its call."""
    from defect_robust import cli

    result = None
    start = time.perf_counter()
    with open(op.stdout, "w") as fh, contextlib.redirect_stdout(fh):
        if op.argv is not None:
            code = cli.main(op.argv)
        else:
            result = sweep_op.sweep(op.config, op.outputs[0])
            code = 0
    wall = time.perf_counter() - start
    if code != 0:
        sys.stderr.write(f"{op.label}: exit {code}\n")
        return Done(False, wall, 0.0, 0.0, 0.0)
    if result is None:
        return Done(True, wall, 0.0, 0.0, _output_mb(op), None, [*op.outputs, op.stdout])
    return Done(True, wall, 0.0, 0.0, _output_mb(op), sweep_op.samples(result))


def setup_time(env):
    """Seconds until a fresh interpreter has finished ``import defect_robust``."""
    start = time.monotonic()
    out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, capture_output=True,
                         text=True, timeout=OP_TIMEOUT_S, check=True)
    return float(out.stdout) - start


def _digest(done):
    """Digest of a round's output files, or None if some outputs are in memory."""
    if any(d.files is None for d in done.values()):
        return None
    h = hashlib.blake2b()
    for d in done.values():
        for path in d.files:
            h.update(path.read_bytes())
    return h.digest()


class Tally:
    """Operations attempted and failed, and the check failures.

    Every round's outputs are checked.  The program is deterministic, so a
    round whose output files are byte-identical to a round that passed every
    check passes them too; only new outputs are checked in full.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._verified = set()

    def round(self, done, check):
        self.attempted += len(done)
        failed = sum(not d.ok for d in done.values())
        self.failed += failed
        if failed:
            return
        digest = _digest(done)
        if digest is not None and digest in self._verified:
            return
        try:
            check(done)
        except (checks.CheckError, KeyError, ValueError, IndexError) as exc:
            # a missing key or an unparsable line is a wrong output too
            self.errors.append(f"{type(exc).__name__}: {exc}")
            sys.stderr.write(f"check failed: {type(exc).__name__}: {exc}\n")
        else:
            self._verified.add(digest)


def _keep_going(walls, seconds):
    # Whole rounds, as many as bring the measured time nearest to ``seconds``.
    measured = sum(walls)
    return not walls or measured + measured / len(walls) / 2 < seconds


def _mean_ok(done, field):
    values = [getattr(d, field) for d in done.values() if d.ok]
    return sum(values) / len(values) if values else float("nan")


def measure_end_to_end(ops, check, seconds, tally):
    env = _env()
    setup = statistics.median(setup_time(env) for _ in range(SETUP_REPEATS))
    rounds, walls = [], []
    while _keep_going(walls, seconds):
        done = {op.label: run_fresh(op, env) for op in ops}
        walls.append(sum(d.wall_s for d in done.values()))
        tally.round(done, check)
        rounds.append({f: _mean_ok(done, f) for f in ("wall_s", "cpu_s", "peak_rss_mb", "output_mb")})
    values = {f: statistics.median_low(r[f] for r in rounds) for f, _ in END_TO_END if f != "setup_s"}
    values["setup_s"] = setup
    return values, rounds


def _layer_values(tracer):
    total, own = tracer.layer_times()
    out = {}
    for name, _ in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = own.get(name[:-len(".self_s")], 0.0)
        elif name.endswith("_s"):
            out[name] = total.get(name[:-2], 0.0)
        else:
            out[name] = tracer.counts.get(name, 0)
    out["cli.self_s"] = own.get("cli.main", 0.0)
    out["experiments.result_mb"] = tracer.counts.get("experiments.result_bytes", 0) / MB
    out["trace.spans"] = len(tracer.spans)
    return out


def measure_traced(ops, check, seconds, tally):
    # An unmeasured pass first: in one process, later calls reuse memory the
    # first call had to fault in, which would otherwise count as overhead.
    tally.round({op.label: run_inprocess(op) for op in ops}, check)
    rounds, walls, passes = [], [], []
    while _keep_going(walls, seconds):
        # Alternate which pass goes first, so warm-up favours neither.
        order = (False, True) if len(rounds) % 2 == 0 else (True, False)
        plain = traced = tracer = None
        round_wall = 0.0
        for trace_on in order:
            if trace_on:
                tracer = tracing.Tracer()
                t0 = time.perf_counter()
                with tracer.installed():
                    done = {op.label: run_inprocess(op) for op in ops}
                passes.append((tracer, t0))
                traced = _mean_ok(done, "wall_s")
            else:
                done = {op.label: run_inprocess(op) for op in ops}
                plain = _mean_ok(done, "wall_s")
            round_wall += sum(d.wall_s for d in done.values())
            tally.round(done, check)
            del done
        walls.append(round_wall)
        layers = _layer_values(tracer)
        layers["trace.overhead_s"] = traced - plain
        layers["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
        rounds.append(layers)
    return {name: statistics.median_low(r[name] for r in rounds) for name, _ in PER_LAYER}, rounds, passes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--centers", type=int, default=20_000,
                        help="sweep_large centre count (default 20000); for scaling studies only")
    args = parser.parse_args(argv)

    if not (SRC / "defect_robust" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package source at {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import defect_robust

    if Path(defect_robust.__file__).resolve().parent != SRC / "defect_robust":
        sys.stderr.write(f"error: defect_robust imported from {defect_robust.__file__}, not {SRC}\n")
        return 2

    OUT.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    tally = Tally()
    try:
        ops, check = WORKLOADS[args.workload](args.seed, work, args)
        if args.trace:
            values, rounds, passes = measure_traced(ops, check, args.seconds, tally)
            tracing.write_spans(OUT / f"{args.workload}-seed{args.seed}-spans.csv", passes)
            units = PER_LAYER
        else:
            values, rounds = measure_end_to_end(ops, check, args.seconds, tally)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    _write_json(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", {**result, "rounds": rounds})
    print(f"{args.workload}: {tally.attempted} operations attempted, {tally.failed} failed, "
          f"outputs {'correct' if result['correct'] else 'WRONG'}")
    for name, unit in units:
        print(f"  {name} = {values[name]:.6g} {unit}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
