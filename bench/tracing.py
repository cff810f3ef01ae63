"""Spans and counters around the package's public functions (``--trace 1``).

The tracer replaces each traced function under the name its caller uses,
for example ``experiments.canonicalize`` (``core``'s function as imported
into ``experiments``), and restores the original afterwards.  A span is
(name, start, end, parent); spans are named after the module that defines
the function, so one layer's time is the sum over the names it is called
under.  Calls inside a module to its own functions are not traced, except
``experiments.theoretical_interval``, which ``run_sweep`` and
``convergence_study`` call.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _size_in(args, kwargs, out):
    return int(np.size(args[0]))


def _size_out(args, kwargs, out):
    return int(np.size(out))


def _one(args, kwargs, out):
    return 1


def _report_rows(args, kwargs, out):
    return sum(len(b.robustness) for b in args[0].blocks.values())


def _result_bytes(args, kwargs, out):
    return sum(v.nbytes for b in out.blocks.values() for v in vars(b).values() if isinstance(v, np.ndarray))


def _oracle_points(args, kwargs, out):
    return out.n_oracle_samples


# (module the caller uses, attribute, span name, counter name, counter)
BINDINGS = (
    ("cli", "main", "cli.main", None, None),
    ("cli", "read_field", "fieldio.read_field", None, None),
    ("cli", "write_report", "fieldio.write_report", "fieldio.report_rows", _report_rows),
    ("cli", "write_summary", "fieldio.write_summary", None, None),
    ("cli", "run_sweep", "experiments.run_sweep", "experiments.result_bytes", _result_bytes),
    ("cli", "normalize_and_rank", "experiments.normalize_and_rank", None, None),
    ("cli", "theoretical_interval", "experiments.theoretical_interval", "experiments.oracle_points", _oracle_points),
    ("cli", "convergence_study", "experiments.convergence_study", None, None),
    ("cli", "estimate_charge", "core.estimate_charge", "core.estimate_charge_calls", _one),
    ("cli", "path_robustness", "core.path_robustness", "core.path_robustness_calls", _one),
    ("experiments", "run_sweep", "experiments.run_sweep", "experiments.result_bytes", _result_bytes),
    ("experiments", "normalize_and_rank", "experiments.normalize_and_rank", None, None),
    ("experiments", "theoretical_interval", "experiments.theoretical_interval", "experiments.oracle_points",
     _oracle_points),
    ("experiments", "canonicalize", "core.canonicalize", "core.canonicalize_values", _size_in),
    ("experiments", "wrap_diff", "core.wrap_diff", "core.wrap_diff_values", _size_in),
    ("experiments", "counter_uniform", "synthesis.counter_uniform", "synthesis.counter_uniform_values", _size_out),
    ("experiments", "derive_seed", "synthesis.derive_seed", None, None),
    ("fieldio", "write_summary", "fieldio.write_summary", None, None),
)


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, name, fn, counter_name, counter):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                counts[counter_name] += counter(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name, counter_name, counter in BINDINGS:
                module = importlib.import_module(f"defect_robust.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, counter_name, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_times(self):
        """Total and self seconds per span name.

        Self time is a span's duration minus the durations of its direct
        children; calls are sequential, so children never overlap.
        """
        dur = np.array([end - start for _, start, end, _ in self.spans])
        parent = np.array([p for *_, p in self.spans], dtype=np.int64)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        total = defaultdict(float)
        own = defaultdict(float)
        for (name, *_), d, c in zip(self.spans, dur, child):
            total[name] += d
            own[name] += d - c
        return total, own


def write_spans(path, passes):
    """Writes the spans of every traced pass as CSV, times relative to ``t0``."""
    with open(path, "w") as fh:
        fh.write("pass,index,name,start_s,end_s,parent\n")
        for k, (tracer, t0) in enumerate(passes):
            fh.writelines(
                f"{k},{i},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n"
                for i, (name, start, end, parent) in enumerate(tracer.spans)
            )
