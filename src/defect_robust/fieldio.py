"""ORIFIELD text format, sweep report CSV, scan CSV, and the key-value summary.

ORIFIELD v1: line 1 is ``ORIFIELD 1 <nx> <ny> <h> <mode>``, followed by ny
lines of nx space-separated angles in radians (row 0 = lowest y).  Angles
are written with 17 significant digits, so write/read round-trips are exact.

The sweep report CSV writes its floats the same way, ``%.17g``, so every
value parses back to the sample bit for bit.  Each distinct text is made
once: the sample-index column once per report (each block's is a prefix of
the longest one's), each centre's text once per run of blocks that share a
centers array (a sweep's co-centred templates share one, so on the builtins
it is made twice; a row repeats it once per noise realization), and the
charge of each winding count from a block's least to its greatest once per
block.  These cached parts carry their trailing comma and lose their
all-NUL columns.  ``_CHUNK_ROWS`` rows at a time are built as one uint8
matrix, with NUL in the bytes a row's text leaves out: the cached parts'
rows, and the robustness and normalized robustness texts from one kernel
call for both columns.  The matrix is
written as one block with the NULs dropped.  The scan CSV has one row of
``SCAN_COLUMNS`` per placement with a defect.

Every float these writers put in a file takes its text from ``_g17`` (or
``_g17_parts``, the same text as matrices to put side by side), which gives
each value's ``'%.17g' % v`` text for a whole array at once.  For a positive
value in [1e-4, 1e16), where ``%.17g`` uses fixed notation, it computes the
text exactly in numpy: ``x * 10**(16 - X)`` as an unevaluated sum
``hi + lo`` of two doubles (Dekker's error-free product; ``10**k`` is an
exact double for k <= 22), rounded half to even to the 17-digit integer
that correctly rounded ``%.17g`` prints.  Its digits are looked up four at
a time, as 4-byte words, and the point, the leading zeros and the trailing
zeros come from which table each word is read from, so no step works on
single bytes.  Every other value (zero, negatives, subnormals, values
outside that range, inf and nan) is formatted by Python.
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
_SUMMARY_STATS = ("min", "max", "mean", "stddev")

#: The values ``_g17`` formats in numpy; ``%.17g`` writes them in fixed
#: notation with a decimal exponent X in [-4, 15] (the double 1e-4 is above
#: 10**-4).
_G17_LOW, _G17_HIGH = 1e-4, 1e16
_ASCII_0 = ord("0")


@functools.cache
def _g17_tables():
    """``_fixed_text``'s tables, built on first use.

    ``by_exponent`` holds, at X + 5 for each decimal exponent X in [-5, 16]
    (log10's estimate can miss the range by one), the double 10**(16 - X)
    (exact), the int64 divisor and multiplier that split the 17 digits at the
    first fraction digit (``_fixed_text``'s ``scale`` and ``lift``), and the
    base of ``heads``' index.  ``quads``
    holds, for each of 0000..9999, its four ASCII digits as one 4-byte word,
    three times over: as they are; with its trailing zeros NUL (a fraction's
    last nonzero group, or a zero group after it); with its leading zeros NUL
    (an integer part's first nonzero group, or a zero group before it).
    ``heads`` holds the text from the units digit through the first fraction
    digit, right-aligned in 8 bytes, at ``_head_key``.
    """
    exponents = range(-5, 17)
    by_exponent = (np.array([float(10 ** (16 - e)) for e in exponents]),
                   np.array([10 ** min(max(15 - e, 0), 16) for e in exponents], dtype=np.int64),
                   np.array([10 ** max(e + 1, 0) for e in exponents], dtype=np.int64),
                   np.array([_head_key(e, 0, 0) for e in exponents]))
    quad = np.arange(10_000)[:, None]
    place = 10 ** np.arange(3, -1, -1)  # each column's digit: thousands, hundreds, tens, units
    digits = (quad // place % 10 + _ASCII_0).astype(np.uint8)
    quads = np.concatenate([digits, digits * (quad % (10 * place) != 0), digits * (quad >= place)])

    def head(e, last, units_and_first):
        units, first = divmod(units_and_first, 10)
        if e < 0:
            return "0." + "0" * (-e - 1) + str(first)
        return str(units) + ("." + str(first) if first or not last else "")

    # in the order of _head_key: the exponent, then last, then the two digits
    heads = np.array([head(e, last, units_and_first).rjust(8, "\0") for e in range(-4, 1) for last in (False, True)
                      for units_and_first in range(100)], dtype="S8")
    return by_exponent, quads.view(np.uint32).ravel(), heads.view(np.uint64)


def _head_key(e, last, units_and_first):
    """``heads``' index: the exponent (every X >= 0 alike), whether the first
    fraction digit is the last nonzero one, and the units digit times 10 plus
    the first fraction digit."""
    return 200 * min(e, 0) + 800 + 100 * last + units_and_first


def _two_product(a, b):
    """``(hi, lo)`` with ``hi = fl(a*b)`` and ``hi + lo == a*b`` exactly (Dekker,
    with Veltkamp's split), barring overflow and underflow."""
    hi = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    lo = ah * bh
    lo -= hi
    lo += ah * bl
    lo += al * bh
    lo += al * bl
    return hi, lo


def _split(a):
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _fixed_text(x: np.ndarray) -> list:
    """The ``%.17g`` text of each x in [_G17_LOW, _G17_HIGH), as a list of
    uint8 matrices with a row per value, side by side, with NUL in the bytes
    the text leaves out.

    The parts are the integer part's digits above the units digit (only if
    some x >= 10), then a head from the units digit through the first
    fraction digit, then the fraction's other 16 digits as four 4-digit words.
    Each comes from one table lookup per word, so no step passes over single
    bytes, and every part is only as wide as the largest exponent needs.
    """
    (powers, scales, lifts, head_bases), quads, heads = _g17_tables()
    k = np.floor(np.log10(x)).astype(np.intp) + 5  # X + 5
    hi, lo = _two_product(x, powers[k])
    # log10 can miss by one next to a power of ten: put hi + lo in [1e16, 1e17)
    if hi.min(initial=2e16) <= 1e16 or hi.max(initial=0.0) >= 1e17:
        low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
        high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
        k += high.astype(np.intp) - low
        hi, lo = _two_product(x, powers[k])
    # hi >= 1e16 > 2**53 is an even integer and |lo| <= 8, so this rounds
    # hi + lo half to even: the 17 significant digits, x rounded to 10**(X-16).
    # n < 10**17: a carry into an 18th digit needs a double within 5e-18
    # (relative) below a power of ten, and in range the nearest is 8.3e-17
    # below 0.1 (the test's powers of ten hold each double below one)
    n = hi.astype(np.int64)
    n += np.rint(lo, out=lo).astype(np.int64)
    # t: the digits through the first fraction digit (for X < 0, the first
    # significant digit); rest: the 16 fraction digits after it, left-aligned
    scale = scales[k]
    t = n // scale
    n -= t * scale
    rest = n
    rest *= lifts[k]
    upper = t // 100
    t -= upper * 100
    units_and_first = t
    high8 = rest // 10**8
    low8 = rest - high8 * 10**8
    # a row per group, so that each step writes contiguous memory, turned to a
    # row per value for the lookup; a group after the last nonzero digit reads
    # its trailing-zero-free word
    groups = np.empty((4, len(x)), dtype=np.intp)
    np.floor_divide(high8, 10**4, out=groups[0])
    np.floor_divide(low8, 10**4, out=groups[2])
    np.subtract(high8, groups[0] * 10**4, out=groups[1])
    np.subtract(low8, groups[2] * 10**4, out=groups[3])
    zero_tail = low8 == 0
    groups[0] += ((groups[1] == 0) & zero_tail) * 10_000
    groups[1] += zero_tail * 10_000
    groups[2] += (groups[3] == 0) * 10_000
    groups[3] += 10_000
    fraction = quads.take(np.ascontiguousarray(groups.T), mode="clip")  # every index is in range
    head_key = head_bases[k]
    head_key += (rest == 0) * 100
    head_key += units_and_first
    e_min, e_max = int(k.min(initial=5)) - 5, int(k.max(initial=5)) - 5
    parts = [heads[head_key].view(np.uint8).reshape(-1, 8)[:, 5 - max(0, -1 - e_min):],
             fraction.view(np.uint8).reshape(-1, 16)]
    if e_max > 0:
        # the integer part above the units digit: e_max digits at most, a group
        # before the first nonzero digit reads its leading-zero-free word
        count = -(-e_max // 4)
        groups = np.empty((count, len(x)), dtype=np.intp)
        for g in range(count):
            lead = upper // 10 ** (4 * (count - 1 - g))
            groups[g] = lead % 10_000 + (lead < 10_000) * 20_000
        above = quads.take(np.ascontiguousarray(groups.T), mode="clip")
        parts.insert(0, above.view(np.uint8).reshape(-1, 4 * count)[:, 4 * count - e_max:])
    return parts


def _g17_parts(values) -> list:
    """Each value's ``'%.17g' % v`` text as the rows of uint8 matrices side by
    side, with NUL in the bytes the text leaves out."""
    x = np.asarray(values, dtype=np.float64).ravel()
    fast = (x >= _G17_LOW) & (x < _G17_HIGH)
    if fast.all():
        return _fixed_text(x)
    fixed = _hcat(np.count_nonzero(fast), *_fixed_text(x[fast]))
    out = np.zeros((len(x), max(fixed.shape[1], 24)), dtype=np.uint8)  # "-2.2250738585072014e-308" is the longest
    out[fast, :fixed.shape[1]] = fixed
    slow = np.array(["%.17g" % v for v in x[~fast].tolist()], dtype=np.bytes_)
    out[~fast, :slow.itemsize] = slow.view(np.uint8).reshape(len(slow), -1)
    return [out]


def _g17(values) -> np.ndarray:
    """Each value's ``'%.17g' % v`` text as a row of a uint8 matrix, with NUL
    in the bytes the text leaves out."""
    return _hcat(np.size(values), *_g17_parts(values))


def _trim(matrix: np.ndarray) -> np.ndarray:
    """A text matrix without its all-NUL columns."""
    return matrix.compress(matrix.any(axis=0), axis=1)


def _hcat(rows: int, *parts) -> np.ndarray:
    """Text matrices side by side; a ``bytes`` part is the same text in every row.

    Each part is copied through a view whose items are its whole rows, so a
    copy is one strided loop over the rows, not one per row.
    """
    parts = [np.frombuffer(p, np.uint8)[None] if isinstance(p, bytes) else p for p in parts]
    out = np.empty((rows, sum(p.shape[1] for p in parts)), dtype=np.uint8)
    col = 0
    for p in parts:
        width = p.shape[1]
        if width:
            row = np.dtype((np.void, width))
            out[:, col:col + width].view(row)[...] = p.view(row)
            col += width
    return out


def _text(matrix: np.ndarray) -> bytes:
    """The rows of a text matrix, one after another, NULs dropped.

    ``bytes.replace`` copies the runs between NULs whole.  A report's bytes
    are about 1.4% NUL, and on the 550k-row report it takes about half the
    time of indexing the matrix with a mask, which moves one byte at a time.
    """
    return matrix.tobytes().replace(b"\0", b"")


def _fmt(x: float) -> str:
    return _text(_g17(x)).decode()


def write_field(field: OrientationField, path):
    ny, nx = field.angles.shape
    with open(path, "wb") as fh:
        fh.write(f"{_MAGIC} {_VERSION} {nx} {ny} {_fmt(field.h)} {field.mode.value}\n".encode())
        rows = _hcat(ny * nx, *_g17_parts(field.angles), b" ").reshape(ny, nx, -1)
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
    blocks = [result.blocks[key] for key in sorted(result.blocks)]
    # %.17g of an integer below 2**53 is its %d text, and each block's index
    # column is a prefix of the longest one's
    longest = max((len(block.robustness) for block in blocks), default=0)
    index_text = _trim(_hcat(longest, *_g17_parts(np.arange(longest)), b","))
    with open(path, "wb") as fh:
        fh.write((",".join(REPORT_COLUMNS) + "\n").encode())
        centers = None
        for block in blocks:
            if block.centers is not centers:  # co-centred templates' blocks share one array
                centers = block.centers
                center_text = _trim(_hcat(len(centers), *_g17_parts(centers[:, 0]), b",",
                                          *_g17_parts(centers[:, 1]), b","))
            # every count from the block's least to its greatest: a handful, and
            # unlike np.unique no sort (nor numpy 2's import of numpy.ma with it)
            low = int(block.winding.min(initial=0))
            counts = np.arange(low, int(block.winding.max(initial=0)) + 1)
            charge_text = _trim(_hcat(len(counts), *_g17_parts(counts / block.periods_per_turn), b","))
            prefix = f"{block.template},{_fmt(block.amplitude)},".encode()
            robustness, normalized = block.robustness, block.normalized
            reps = len(robustness) // len(centers)
            for start in range(0, len(robustness), _CHUNK_ROWS):
                rows = slice(start, min(start + _CHUNK_ROWS, len(robustness)))
                n = rows.stop - start
                # both float columns from one kernel call, which halves its fixed cost per call
                floats = _g17_parts(np.concatenate((robustness[rows], normalized[rows])))
                fh.write(_text(_hcat(n, prefix, index_text[rows], center_text[np.arange(start, rows.stop) // reps],
                                     charge_text[block.winding[rows].astype(np.intp) - low],
                                     *(p[:n] for p in floats), b",",
                                     *(p[n:] for p in floats), b"\n")))


def write_scan(rows, path=None):
    """Rows of ``SCAN_COLUMNS`` values as CSV (integer offsets as ``%d``), to stdout if ``path`` is None."""
    table = np.array(rows, dtype=float).reshape(-1, len(SCAN_COLUMNS))
    cells = _hcat(table.size, *_g17_parts(table), b",")
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
            r, normalized = block.robustness, block.normalized
            low, high = float(np.min(r)), float(np.max(r))
            # Dividing by a positive constant keeps the order, so the normalized min
            # and max are these over the resolution bit for bit, as in normalize_and_rank.
            for name, stats in (("robustness", (low, high, np.mean(r), np.std(r))),
                                ("normalized", (low / block.resolution, high / block.resolution,
                                                np.mean(normalized), np.std(normalized)))):
                items += [(f"{prefix}.{name}_{key}", float(stat)) for key, stat in zip(_SUMMARY_STATS, stats)]
            items.append((f"{prefix}.charge_agreement", float(result.agreement(template.name, amp))))
            items.append((f"{prefix}.n_samples", len(block.robustness)))
    for i, amp in enumerate(cfg.noise_amplitudes):
        items += [(f"ranking.amplitude_{i}.{pos}", entry.template) for pos, entry in enumerate(rank.ranking(amp), start=1)]
    # the floats' text in one call: the kernel's cost is per call, not per value
    texts = iter(_g17([value for _, value in items if isinstance(value, float)]))
    with open(path, "w") as fh:
        fh.writelines(f"{key} = {_text(next(texts)).decode() if isinstance(value, float) else value}\n"
                      for key, value in items)
