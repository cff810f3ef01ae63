"""ORIFIELD text format, sweep report CSV, scan CSV, and the key-value summary.

ORIFIELD v1: line 1 is ``ORIFIELD 1 <nx> <ny> <h> <mode>``, followed by ny
lines of nx space-separated angles in radians (row 0 = lowest y).  Angles
are written with 17 significant digits, so write/read round-trips are exact.

The sweep report CSV writes its floats the same way, ``%.17g``, so every
value parses back to the sample bit for bit.  A report row repeats its
centre once per noise realization and its winding count takes a handful of
values, so each centre's text is formatted once per template and each
distinct count's charge once per block.  ``_CHUNK_ROWS`` rows at a time
are built as one uint8 matrix, with NUL in the bytes a row's text leaves
out, and written as one block with the NULs dropped.  The scan CSV has one
row of ``SCAN_COLUMNS`` per placement with a defect.

Every float these writers put in a file takes its text from ``_g17``, which
gives each value's ``'%.17g' % v`` text for a whole array at once.  For a
positive value in [1e-4, 1e16), where ``%.17g`` uses fixed notation, it
computes the text exactly in numpy: ``x * 10**(16 - e)`` as an unevaluated
sum ``hi + lo`` of two doubles (Dekker's error-free product; ``10**k`` is an
exact double for k <= 22), rounded half to even to the 17-digit integer that
correctly rounded ``%.17g`` prints.  Every other value (zero, negatives,
subnormals, values outside that range, inf and nan) is formatted by Python.
"""
from __future__ import annotations

import functools
import math
import sys
from contextlib import nullcontext

import numpy as np

from .core import OrientationField, PeriodMode, _check_spacing
from .errors import InvalidAngle, ParseError
from .experiments import RankReport, SweepResult

_MAGIC = "ORIFIELD"
_VERSION = "1"

REPORT_COLUMNS = (
    "template", "amplitude", "sample_index", "center_x", "center_y",
    "charge", "robustness", "normalized_robustness",
)
SCAN_COLUMNS = ("offset_i", "offset_j", "center_x", "center_y", "charge", "robustness")
#: Report rows built and written at a time.  About 0.6 MB of text on the
#: builtin templates; of 2**10..2**16 rows, 2**12 wrote the 550k-row report
#: fastest (larger chunks fall out of the cache, smaller ones pay numpy's
#: per-call cost).
_CHUNK_ROWS = 1 << 12

#: Statistics of the robustness and the normalized robustness in the summary.
_SUMMARY_STATS = (("min", np.min), ("max", np.max), ("mean", np.mean), ("stddev", np.std))

#: The values ``_g17`` formats in numpy; ``%.17g`` writes them in fixed
#: notation with a decimal exponent X in [-4, 15] (the double 1e-4 is above
#: 10**-4).
_G17_LOW, _G17_HIGH = 1e-4, 1e16
_ASCII_0, _ASCII_DOT = ord("0"), ord(".")


@functools.cache
def _g17_tables():
    """``_fixed_text``'s tables, built on first use: the doubles 10**k for
    k = 0..22 (all exact), and for each of 0000..9999 its four ASCII digits
    (one column each) and its count of trailing zeros."""
    powers = np.array([float(10**k) for k in range(23)])
    quads = np.arange(10_000)
    digits = np.stack([quads // 10**k % 10 for k in (3, 2, 1, 0)]).astype(np.uint8) + _ASCII_0
    zeros = sum(quads % 10**k == 0 for k in range(1, 5)).astype(np.int8)
    return powers, digits, zeros


def _two_product(a, b):
    """``(hi, lo)`` with ``hi = fl(a*b)`` and ``hi + lo == a*b`` exactly (Dekker,
    with Veltkamp's split), barring overflow and underflow."""
    hi = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _split(a):
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _fixed_text(x: np.ndarray) -> np.ndarray:
    """The ``%.17g`` text of each x in [_G17_LOW, _G17_HIGH) as one column of a
    (22, len(x)) uint8 array, with NUL in the bytes the text leaves out.

    Columns, not rows, keep each step one pass over ``len(x)`` bytes per
    text position.
    """
    powers, quad, quad_zeros = _g17_tables()
    e = np.floor(np.log10(x)).astype(np.intp)
    hi, lo = _two_product(x, powers[16 - e])
    # log10 can miss by one next to a power of ten: put hi + lo in [1e16, 1e17)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    if low.any() or high.any():
        e += high.astype(np.intp) - low
        hi, lo = _two_product(x, powers[16 - e])
    # hi >= 1e16 > 2**53 is an even integer and |lo| <= 8, so this rounds
    # hi + lo half to even: the 17 significant digits, x rounded to 10**(e-16).
    # n < 10**17: a carry into an 18th digit needs a double within 5e-18
    # (relative) below a power of ten, and in range the nearest is 8.3e-17
    # below 0.1 (the test's powers of ten hold each double below one)
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    groups = [n // 10**k % 10_000 for k in (12, 8, 4, 0)]
    # rows 1..21 hold "0000" and the 17 digits: x * 10**(16-e) with four leading zeros
    z = np.zeros((24, len(x)), dtype=np.uint8)
    z[1:5] = _ASCII_0
    z[5] = n // 10**16 + _ASCII_0
    for i, g in enumerate(groups):
        # "clip" lets take write into out unbuffered; every g is below 10**4
        np.take(quad, g, axis=1, out=z[6 + 4 * i:10 + 4 * i], mode="clip")
    # the point goes after the units digit, row point + 1 of z; int8 keeps
    # these comparisons one byte per text position
    j = np.arange(22, dtype=np.int8)[:, None]
    point = (e + 4).astype(np.int8)
    text = z[1:23] * (j <= point) + z[0:22] * (j > point + 1) + (j == point + 1) * np.uint8(_ASCII_DOT)
    # leading zeros before the units digit, the fraction's trailing zeros and
    # a point with no fraction left become NUL
    g1, g2, g3, g4 = groups
    zeros = quad_zeros[g4] + (g4 == 0) * (quad_zeros[g3] + (g3 == 0) * (quad_zeros[g2] + (g2 == 0) * quad_zeros[g1]))
    fraction = 20 - point
    end = 22 - np.minimum(zeros, fraction) - (zeros >= fraction)
    text *= (j >= np.minimum(point, 4)) & (j < end)
    return text


def _g17(values) -> np.ndarray:
    """Each value's ``'%.17g' % v`` text as a row of a uint8 matrix, with NUL
    in the bytes the text leaves out."""
    x = np.asarray(values, dtype=np.float64).ravel()
    fast = (x >= _G17_LOW) & (x < _G17_HIGH)
    if fast.all():
        return _fixed_text(x).T
    out = np.zeros((len(x), 24), dtype=np.uint8)  # "-2.2250738585072014e-308" is the longest
    out[fast, :22] = _fixed_text(x[fast]).T
    slow = np.array(["%.17g" % v for v in x[~fast].tolist()], dtype=np.bytes_)
    out[~fast, :slow.itemsize] = slow.view(np.uint8).reshape(len(slow), -1)
    return out


def _hcat(rows: int, *parts) -> np.ndarray:
    """Text matrices side by side; a ``bytes`` part is the same text in every row."""
    return np.concatenate([np.broadcast_to(np.frombuffer(p, np.uint8), (rows, len(p))) if isinstance(p, bytes) else p
                           for p in parts], axis=1)


def _text(matrix: np.ndarray) -> bytes:
    """The rows of a text matrix, one after another, NULs dropped."""
    return matrix[matrix != 0].tobytes()


def _fmt(x: float) -> str:
    return _text(_g17(x)).decode()


def write_field(field: OrientationField, path):
    ny, nx = field.angles.shape
    with open(path, "wb") as fh:
        fh.write(f"{_MAGIC} {_VERSION} {nx} {ny} {_fmt(field.h)} {field.mode.value}\n".encode())
        rows = _hcat(ny * nx, _g17(field.angles), b" ").reshape(ny, nx, -1)
        rows[:, -1, -1] = ord("\n")
        fh.write(_text(rows))


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
        h = _check_spacing(float(header[4]))
        mode = PeriodMode.from_name(header[5])
    except ValueError as exc:
        raise ParseError(f"{path}: line 1: {exc}") from None
    if nx < 2 or ny < 2:
        raise ParseError(f"{path}: line 1: grid size {nx}x{ny} is smaller than 2x2")
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
    with open(path, "wb") as fh:
        fh.write((",".join(REPORT_COLUMNS) + "\n").encode())
        centers = None
        for block in (result.blocks[key] for key in sorted(result.blocks)):
            if block.centers is not centers:  # a template's blocks share one array
                centers = block.centers
                center_text = _hcat(len(centers), _g17(centers[:, 0]), b",", _g17(centers[:, 1]))
            counts, inverse = np.unique(block.winding, return_inverse=True)
            charge_text = _g17(counts / block.periods_per_turn)
            prefix = f"{block.template},{_fmt(block.amplitude)},".encode()
            robustness, normalized = block.robustness, block.normalized
            reps = len(robustness) // len(centers)
            for start in range(0, len(robustness), _CHUNK_ROWS):
                stop = min(start + _CHUNK_ROWS, len(robustness))
                rows, index = slice(start, stop), np.arange(start, stop)
                # %.17g of an integer below 2**53 is its %d text
                fh.write(_text(_hcat(len(index), prefix, _g17(index), b",", center_text[index // reps], b",",
                                     charge_text[inverse[rows]], b",", _g17(robustness[rows]), b",",
                                     _g17(normalized[rows]), b"\n")))


def write_scan(rows, path=None):
    """Rows of ``SCAN_COLUMNS`` values as CSV (integer offsets as ``%d``), to stdout if ``path`` is None."""
    table = np.array(rows, dtype=float).reshape(-1, len(SCAN_COLUMNS))
    cells = _hcat(table.size, _g17(table), b",")
    cells[len(SCAN_COLUMNS) - 1::len(SCAN_COLUMNS), -1] = ord("\n")
    with open(path, "w") if path else nullcontext(sys.stdout) as fh:
        fh.write(",".join(SCAN_COLUMNS) + "\n" + _text(cells).decode())


def write_summary(result: SweepResult, rank: RankReport, path):
    """One datum per line: ``key = value``, keys dotted by template/amplitude."""
    cfg = result.config
    items = [
        ("n_centers", cfg.n_centers),
        ("n_noise_realizations", cfg.n_noise_realizations),
        ("base_seed", cfg.base_seed),
        ("grid", f"{cfg.nx}x{cfg.ny}"),
        ("spacing", float(cfg.h)),
        ("mode", cfg.mode.value),
        ("charge", cfg.charge),
        ("oracle_density", cfg.oracle_density),
    ]
    items += [(f"amplitude.{i}", float(amp)) for i, amp in enumerate(cfg.noise_amplitudes)]
    for template in cfg.templates:
        oracle = result.oracles[template.name]
        items.append((f"{template.name}.resolution", float(template.resolution)))
        items.append((f"{template.name}.oracle_lower", float(oracle.lower)))
        items.append((f"{template.name}.oracle_upper", float(oracle.upper)))
        for i, amp in enumerate(cfg.noise_amplitudes):
            block = result.block(template.name, amp)
            prefix = f"{template.name}.amplitude_{i}"
            for name, values in (("robustness", block.robustness), ("normalized", block.normalized)):
                items += [(f"{prefix}.{name}_{key}", float(stat(values))) for key, stat in _SUMMARY_STATS]
            items.append((f"{prefix}.charge_agreement", float(result.agreement(template.name, amp))))
            items.append((f"{prefix}.n_samples", len(block.robustness)))
    for i, amp in enumerate(cfg.noise_amplitudes):
        items += [(f"ranking.amplitude_{i}.{pos}", entry.template) for pos, entry in enumerate(rank.ranking(amp), start=1)]
    # the floats' text in one call: the kernel's cost is per call, not per value
    texts = iter(_g17([value for _, value in items if isinstance(value, float)]))
    with open(path, "w") as fh:
        fh.writelines(f"{key} = {_text(next(texts)).decode() if isinstance(value, float) else value}\n"
                      for key, value in items)
