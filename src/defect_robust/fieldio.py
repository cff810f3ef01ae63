"""ORIFIELD text format, sweep report CSV, and the key-value summary.

ORIFIELD v1: line 1 is ``ORIFIELD 1 <nx> <ny> <h> <mode>``, followed by ny
lines of nx space-separated angles in radians (row 0 = lowest y).  Angles
are written with 17 significant digits, so write/read round-trips are exact.

The sweep report CSV writes its floats the same way, ``%.17g``, so every
value parses back to the sample bit for bit.  A report row repeats its
centre once per noise realization and its winding count takes a handful of
values, so each centre's text is formatted once per template and each
distinct count's charge once per block; only the two robustness columns are
formatted per row.
"""
from __future__ import annotations

import math

import numpy as np

from .core import OrientationField, PeriodMode
from .errors import InvalidAngle, ParseError
from .experiments import RankReport, SweepResult

_MAGIC = "ORIFIELD"
_VERSION = "1"

REPORT_COLUMNS = (
    "template", "amplitude", "sample_index", "center_x", "center_y",
    "charge", "robustness", "normalized_robustness",
)
#: Report columns after template and amplitude: sample index, the centre's and
#: the charge's preformatted text, robustness, normalized robustness.  Every
#: float is ``%.17g`` (as ``_fmt``), so the text round-trips exactly.
_REPORT_ROW = "%d,%s,%s,%.17g,%.17g\n"

#: Statistics of the robustness and the normalized robustness in the summary.
_SUMMARY_STATS = (("min", np.min), ("max", np.max), ("mean", np.mean), ("stddev", np.std))


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_field(field: OrientationField, path):
    with open(path, "w") as fh:
        fh.write(f"{_MAGIC} {_VERSION} {field.nx} {field.ny} {_fmt(field.h)} {field.mode.value}\n")
        for row in field.angles:
            fh.write(" ".join(_fmt(a) for a in row) + "\n")


def read_field(path) -> OrientationField:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(f"{path}: line 1: empty file")
    header = lines[0].split()
    if len(header) != 6 or header[0] != _MAGIC or header[1] != _VERSION:
        raise ParseError(f"{path}: line 1: expected '{_MAGIC} {_VERSION} <nx> <ny> <h> <mode>'")
    try:
        nx, ny = int(header[2]), int(header[3])
        h = float(header[4])
        mode = PeriodMode.from_name(header[5])
    except ValueError as exc:
        raise ParseError(f"{path}: line 1: {exc}") from None
    if nx < 0 or ny < 0:
        raise ParseError(f"{path}: line 1: negative grid size {nx}x{ny}")
    if len(lines) - 1 < ny:
        raise ParseError(f"{path}: line {len(lines) + 1}: expected {ny} data rows, found {len(lines) - 1}")
    rows = []
    for r in range(ny):
        lineno = r + 2
        parts = lines[1 + r].split()
        if len(parts) != nx:
            raise ParseError(f"{path}: line {lineno}: row {r} has {len(parts)} values, expected {nx}")
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: row {r} contains a non-numeric value") from None
        if not all(math.isfinite(v) for v in values):
            raise InvalidAngle(f"{path}: line {lineno}: row {r} contains a non-finite angle")
        rows.append(values)
    for k in range(1 + ny, len(lines)):
        if lines[k].strip():
            raise ParseError(f"{path}: line {k + 1}: unexpected data after the last of {ny} rows")
    return OrientationField(h=h, mode=mode, angles=np.array(rows))


def write_report(result: SweepResult, path):
    """Sweep samples as CSV, ordered by (template, amplitude, sample_index)."""
    with open(path, "w") as fh:
        fh.write(",".join(REPORT_COLUMNS) + "\n")
        centers = None
        for block in (result.blocks[key] for key in sorted(result.blocks)):
            if block.centers is not centers:  # a template's blocks share one array
                centers = block.centers
                center_text = np.array(["%.17g,%.17g" % (x, y) for x, y in centers.tolist()], dtype=object)
            counts, inverse = np.unique(block.winding, return_inverse=True)
            charge_text = np.array(["%.17g" % (k / block.periods_per_turn) for k in counts.tolist()], dtype=object)
            prefix = f"{block.template},{_fmt(block.amplitude)},"
            rows = zip(range(len(block.robustness)),
                       np.repeat(center_text, len(block.robustness) // len(centers)).tolist(),
                       charge_text[inverse].tolist(), block.robustness.tolist(), block.normalized.tolist())
            fh.writelines(prefix + _REPORT_ROW % row for row in rows)


def write_summary(result: SweepResult, rank: RankReport, path):
    """One datum per line: ``key = value``, keys dotted by template/amplitude."""
    cfg = result.config
    lines = [
        f"n_centers = {cfg.n_centers}",
        f"n_noise_realizations = {cfg.n_noise_realizations}",
        f"base_seed = {cfg.base_seed}",
        f"grid = {cfg.nx}x{cfg.ny}",
        f"spacing = {_fmt(cfg.h)}",
        f"mode = {cfg.mode.value}",
        f"charge = {cfg.charge}",
        f"oracle_density = {cfg.oracle_density}",
    ]
    for i, amp in enumerate(cfg.noise_amplitudes):
        lines.append(f"amplitude.{i} = {_fmt(amp)}")
    for template in cfg.templates:
        oracle = result.oracles[template.name]
        lines.append(f"{template.name}.resolution = {_fmt(template.resolution)}")
        lines.append(f"{template.name}.oracle_lower = {_fmt(oracle.lower)}")
        lines.append(f"{template.name}.oracle_upper = {_fmt(oracle.upper)}")
        for i, amp in enumerate(cfg.noise_amplitudes):
            block = result.block(template.name, amp)
            prefix = f"{template.name}.amplitude_{i}"
            for name, values in (("robustness", block.robustness), ("normalized", block.normalized)):
                for key, stat in _SUMMARY_STATS:
                    lines.append(f"{prefix}.{name}_{key} = {_fmt(stat(values))}")
            lines.append(f"{prefix}.charge_agreement = {_fmt(result.agreement(template.name, amp))}")
            lines.append(f"{prefix}.n_samples = {len(block.robustness)}")
    for i, amp in enumerate(cfg.noise_amplitudes):
        for rank_pos, entry in enumerate(rank.ranking(amp), start=1):
            lines.append(f"ranking.amplitude_{i}.{rank_pos} = {entry.template}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
