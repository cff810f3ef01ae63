"""The ``sweep_large`` operation: run_sweep, normalize_and_rank, write_summary.

As a script it is one operation in a fresh interpreter:

    python3 bench/sweep_op.py CONFIG.json SUMMARY STATS.json SAMPLES

Once the summary is written it records the time and its own CPU time and
peak memory in STATS.json, and only then saves the sample arrays to SAMPLES
for the output checks, so that saving is not measured.
"""
from __future__ import annotations

import json
from fractions import Fraction

import numpy as np


def sweep(config, summary_path):
    """Runs the sweep ``config`` (the sweep JSON as a dict); returns its result."""
    from defect_robust import experiments, fieldio
    from defect_robust.core import PeriodMode

    grid = config["grid"]
    cfg = experiments.SweepConfig(
        templates=tuple(config["templates"]),
        n_centers=config["n_centers"],
        noise_amplitudes=tuple(config["noise_amplitudes"]),
        n_noise_realizations=config["n_noise_realizations"],
        base_seed=config["base_seed"],
        nx=grid["nx"],
        ny=grid["ny"],
        h=grid["h"],
        mode=PeriodMode.from_name(config["mode"]),
        charge=Fraction(config["charge"]),
        oracle_density=config["oracle_density"],
    )
    result = experiments.run_sweep(cfg)
    rank = experiments.normalize_and_rank(result)
    fieldio.write_summary(result, rank, summary_path)
    return result


def samples(result) -> dict:
    """Sample arrays per (template, amplitude), named as the report columns."""
    return {
        key: {
            "sample_index": b.sample_index,
            "center_x": b.center_x,
            "center_y": b.center_y,
            "charge": b.charge,
            "robustness": b.robustness,
            "normalized_robustness": b.normalized,
        }
        for key, b in result.blocks.items()
    }


def save_samples(result, path):
    """One JSON line of keys, then one ``.npy`` record per array.

    Unlike ``np.savez``, which stamps the time, equal samples give equal bytes.
    """
    arrays = [((t, a, f), arr) for (t, a), fields in samples(result).items() for f, arr in fields.items()]
    with open(path, "wb") as fh:
        fh.write(json.dumps([key for key, _ in arrays]).encode() + b"\n")
        for _, arr in arrays:
            np.save(fh, arr)


def load_samples(path) -> dict:
    out = {}
    with open(path, "rb") as fh:
        for t, a, f in json.loads(fh.readline()):
            out.setdefault((t, a), {})[f] = np.load(fh)
    return out


if __name__ == "__main__":
    import resource
    import sys
    import time

    config_path, summary_path, stats_path, samples_path = sys.argv[1:]
    with open(config_path) as fh:
        result = sweep(json.load(fh), summary_path)
    done = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    with open(stats_path, "w") as fh:
        json.dump({"done": done, "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss}, fh)
    save_samples(result, samples_path)
