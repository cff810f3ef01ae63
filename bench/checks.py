"""Output checks for the benchmark's workloads.

Every reference value here is computed apart from the package: the template
boundary cycles, the angle wrap, the field parser and the scan are the
benchmark's own, so a fault in the package cannot hide by also being in its
check.  The remaining checks test properties the method must have (the noise
guarantee, Stokes additivity, the closed-form convergence bound).  Each check
raises ``CheckError`` naming the first mismatch it finds.

Only nematic fields with charge 1/2 (period P = pi) are produced by the
workloads, so the checks fix that period.
"""
from __future__ import annotations

import math
import re

import numpy as np

PERIOD = math.pi
HALF = PERIOD / 2.0
#: Agreement asked of a robustness or centre recomputed from the same inputs.
VALUE_TOL = 1e-12
#: Agreement asked of a summary statistic recomputed from the samples.
STAT_RTOL = 1e-12
#: Agreement of a convergence row's lower bound with the closed form.
BOUND_TOL = 1e-9
#: Rounding of the convergence table, which prints 12 decimals.
TABLE_TOL = 1e-11


class CheckError(Exception):
    """An output of the program disagrees with the benchmark's own value."""


def require(condition, message):
    if not condition:
        raise CheckError(message)


# Counterclockwise boundary cycles and cell sets of the five figure
# templates, in template coordinates (cell (a, b) is [a, a+1] x [b, b+1]).
_SQUARE3 = {(a, b) for a in range(3) for b in range(3)}
CELLS = {
    "single": {(0, 0)},
    "2x2": {(a, b) for a in range(2) for b in range(2)},
    "cross": {(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)},
    "3x3": _SQUARE3,
    "3x3ext": _SQUARE3 | {(1, -1), (1, 3), (-1, 1), (3, 1)},
}
CYCLES = {
    "single": [(0, 0), (1, 0), (1, 1), (0, 1)],
    "2x2": [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1)],
    "cross": [(0, 1), (1, 1), (1, 0), (2, 0), (2, 1), (3, 1), (3, 2), (2, 2),
              (2, 3), (1, 3), (1, 2), (0, 2)],
    "3x3": [(0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (3, 2), (3, 3), (2, 3),
            (1, 3), (0, 3), (0, 2), (0, 1)],
    "3x3ext": [(1, -1), (2, -1), (2, 0), (3, 0), (3, 1), (4, 1), (4, 2), (3, 2),
               (3, 3), (2, 3), (2, 4), (1, 4), (1, 3), (0, 3), (0, 2), (-1, 2),
               (-1, 1), (0, 1), (0, 0), (1, 0)],
}
_SQUARE_RE = re.compile(r"^square\((\d+)\)$")


def template_cells(name):
    m = _SQUARE_RE.match(name)
    if m:
        n = int(m.group(1))
        return {(a, b) for a in range(n) for b in range(n)}
    return CELLS[name]


def template_cycle(name) -> np.ndarray:
    m = _SQUARE_RE.match(name)
    if m:
        n = int(m.group(1))
        side = range(n)
        cycle = ([(k, 0) for k in side] + [(n, k) for k in side]
                 + [(n - k, n) for k in side] + [(0, n - k) for k in side])
    else:
        cycle = CYCLES[name]
    return np.asarray(cycle, dtype=float)


def template_centroid(name):
    cells = np.asarray(sorted(template_cells(name)), dtype=float) + 0.5
    return tuple(cells.mean(axis=0))


def wrap(delta):
    """Representative of an angle difference in [-P/2, P/2)."""
    return np.remainder(delta + HALF, PERIOD) - HALF


def clean_robustness(name, centers, q=0.5, h=1.0, offset=(0.0, 0.0)) -> np.ndarray:
    """Robustness of the noise-free q-winding field around a placed template.

    ``centers`` is an (n, 2) array of defect centres in physical units.
    """
    verts = (template_cycle(name) + np.asarray(offset, dtype=float)) * h
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    theta = q * np.arctan2(verts[:, 1] - centers[:, 1:2], verts[:, 0] - centers[:, 0:1])
    diffs = wrap(np.roll(theta, -1, axis=1) - theta)
    return np.min(HALF - np.abs(diffs), axis=1)


def _close(a, b, rtol=STAT_RTOL):
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def parse_key_values(text) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        require(sep, f"summary line {line!r} is not 'key = value'")
        out[key] = value
    return out


# ---------------------------------------------------------------- sweeps

REPORT_HEADER = ("template,amplitude,sample_index,center_x,center_y,"
                 "charge,robustness,normalized_robustness")
SAMPLE_FIELDS = ("sample_index", "center_x", "center_y", "charge", "robustness",
                 "normalized_robustness")


def read_report(path) -> dict:
    """Sample arrays per (template, amplitude) from a sweep report CSV."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
    require(header == REPORT_HEADER, f"report header is {header!r}")
    names = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0,), dtype=str, ndmin=1)
    values = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(1, 8), ndmin=2)
    blocks = {}
    # Rows are grouped by (template, amplitude); a group boundary is where
    # either key changes.
    change = np.flatnonzero((names[1:] != names[:-1]) | (values[1:, 0] != values[:-1, 0])) + 1
    starts = np.concatenate([[0], change])
    ends = np.concatenate([change, [len(names)]])
    for s, e in zip(starts, ends):
        key = (str(names[s]), float(values[s, 0]))
        require(key not in blocks, f"rows of {key} are not contiguous")
        blocks[key] = {f: values[s:e, k + 1] for k, f in enumerate(SAMPLE_FIELDS)}
    order = list(blocks)
    require(order == sorted(order), "report blocks are not ordered by (template, amplitude)")
    return blocks


def check_sweep(config, blocks, summary_text):
    """Checks one sweep's samples and summary against the benchmark's values.

    ``config`` is the sweep JSON the program ran; ``blocks`` maps
    (template, amplitude) to the sample arrays named in ``SAMPLE_FIELDS``.
    """
    n = config["n_centers"]
    nreal = config["n_noise_realizations"]
    amps = [float(a) for a in config["noise_amplitudes"]]
    h = float(config["grid"]["h"])
    q = 0.5
    templates = config["templates"]
    expected_rows = sum(n * (1 + nreal * sum(a > 0 for a in amps)) for _ in templates)
    rows = sum(len(b["charge"]) for b in blocks.values())
    require(rows == expected_rows, f"{rows} samples, expected {expected_rows}")
    require(set(blocks) == {(t, a) for t in templates for a in amps},
            f"blocks {sorted(blocks)} do not match the configured templates and amplitudes")

    kv = parse_key_values(summary_text)
    for key, want in (("n_centers", n), ("n_noise_realizations", nreal),
                      ("base_seed", config["base_seed"])):
        require(kv.get(key) == str(want), f"summary {key} = {kv.get(key)}, expected {want}")

    min_normalized = {}
    for t in templates:
        cells = len(template_cells(t))
        cx, cy = template_centroid(t)
        r_centroid = float(clean_robustness(t, [(cx, cy)], q)[0])
        lower = float(kv[f"{t}.oracle_lower"])
        upper = float(kv[f"{t}.oracle_upper"])
        require(lower <= r_centroid + VALUE_TOL and r_centroid <= upper + VALUE_TOL and upper <= HALF,
                f"{t}: oracle [{lower}, {upper}] does not hold r(centroid) = {r_centroid} below P/2")
        centers0 = None
        for i, a in enumerate(amps):
            b = blocks[(t, a)]
            m = n if a == 0 else n * nreal
            require(len(b["charge"]) == m, f"{t} a={a}: {len(b['charge'])} samples, expected {m}")
            require(np.array_equal(b["sample_index"], np.arange(m)), f"{t} a={a}: sample_index is not 0..{m - 1}")
            per = m // n
            centers = np.column_stack([b["center_x"][::per], b["center_y"][::per]])
            require(np.array_equal(np.repeat(centers, per, axis=0),
                                   np.column_stack([b["center_x"], b["center_y"]])),
                    f"{t} a={a}: realizations of one centre do not share it")
            if centers0 is None:
                centers0 = centers
                # The program places the template near the grid middle; its
                # offset is read back from the centres, which must then all
                # lie in the central unit square.
                offset = np.rint(np.median(centers / h - (cx, cy), axis=0))
                rel = centers / h - (cx, cy) - offset
                require(np.all(np.abs(rel) <= 0.5), f"{t}: a centre lies outside the sampling square")
                clean = clean_robustness(t, centers, q, h, offset)
            require(np.array_equal(centers, centers0), f"{t} a={a}: centres differ from the first amplitude")
            charge, rob = b["charge"], b["robustness"]
            clean_rep = np.repeat(clean, per)
            if a == 0:
                bad = np.flatnonzero(charge != q)
                require(bad.size == 0, f"{t} a=0: sample {bad[:1]} has charge {charge[bad[:1]]}, expected 1/2")
                err = np.abs(rob - clean_rep)
                k = int(np.argmax(err))
                require(err[k] <= VALUE_TOL,
                        f"{t} a=0: sample {k} robustness {float(rob[k])!r}, benchmark computes {float(clean_rep[k])!r}")
            else:
                # Each vertex moves by at most a, each edge difference by at
                # most 2a, and edge robustness is 1-Lipschitz in it.
                err = np.abs(rob - clean_rep)
                k = int(np.argmax(err))
                require(err[k] <= 2 * a + VALUE_TOL,
                        f"{t} a={a}: sample {k} robustness {float(rob[k])!r} is {err[k]} from clean {float(clean_rep[k])!r}")
                guaranteed = clean_rep > 2 * a
                bad = np.flatnonzero(guaranteed & (charge != q))
                require(bad.size == 0,
                        f"{t} a={a}: sample {bad[:1]} has charge {charge[bad[:1]]} where clean robustness > 2a")
            norm = b["normalized_robustness"]
            err = np.abs(norm - rob / math.sqrt(cells))
            require(np.max(err) <= VALUE_TOL, f"{t} a={a}: normalized != robustness/sqrt({cells})")

            prefix = f"{t}.amplitude_{i}"
            for label, arr in (("robustness", rob), ("normalized", norm)):
                for stat, value in (("min", np.min(arr)), ("max", np.max(arr)),
                                    ("mean", np.mean(arr)), ("stddev", np.std(arr))):
                    got = float(kv[f"{prefix}.{label}_{stat}"])
                    require(_close(got, float(value)),
                            f"summary {prefix}.{label}_{stat} = {got}, samples give {float(value)}")
            agreement = float(np.mean(charge == q))
            got = float(kv[f"{prefix}.charge_agreement"])
            require(_close(got, agreement), f"summary {prefix}.charge_agreement = {got}, samples give {agreement}")
            require(kv[f"{prefix}.n_samples"] == str(m), f"summary {prefix}.n_samples is not {m}")
            min_normalized[(t, i)] = float(np.min(norm))

    for i in range(len(amps)):
        want = sorted(templates, key=lambda t: (-min_normalized[(t, i)], t))
        got = [kv.get(f"ranking.amplitude_{i}.{pos}") for pos in range(1, len(templates) + 1)]
        require(got == want, f"ranking at amplitude {amps[i]} is {got}, expected {want}")


# ---------------------------------------------------------------- oracle

def check_oracle(template, text, density, q=0.5):
    kv = parse_key_values(text.rstrip("\n"))
    lower, upper = float(kv["lower"]), float(kv["upper"])
    samples = int(kv["n_oracle_samples"])
    points = density if density % 2 == 1 else density + 1
    require(0 < samples <= points * points,
            f"{template}: {samples} oracle samples on a {points}x{points} grid")
    r = float(clean_robustness(template, [template_centroid(template)], q)[0])
    require(lower <= r + VALUE_TOL,
            f"{template}: oracle lower {lower!r} above the benchmark's r(centroid) {r!r}")
    require(r <= upper + VALUE_TOL,
            f"{template}: oracle upper {upper!r} below the benchmark's r(centroid) {r!r}")
    require(upper <= HALF, f"{template}: oracle upper {upper!r} above P/2")


def check_convergence(text, sizes, q=0.5, h=1.0):
    lines = text.splitlines()
    require(lines and lines[0].split() == ["n", "lower", "upper", "analytic_bound", "r_min"],
            "convergence table header is missing")
    rows = [line.split() for line in lines[1:]]
    require([int(r[0]) for r in rows] == list(sizes), f"convergence rows {[r[0] for r in rows]}, expected {sizes}")
    for n, (_, lower, upper, bound, r_min) in zip(sizes, rows):
        lower, upper, bound, r_min = float(lower), float(upper), float(bound), float(r_min)
        rm = (n - 1) / 2.0 * h
        require(abs(r_min - rm) <= 5e-4, f"square({n}): r_min {r_min}, expected {rm}")
        closed = HALF - abs(q) * 2.0 * math.atan2(h, 2.0 * rm)
        require(abs(lower - closed) <= BOUND_TOL,
                f"square({n}): lower {lower!r}, closed form P/2 - |q|*2*atan(h/(2*R_min)) = {closed!r}")
        require(bound <= lower, f"square({n}): analytic bound {bound} above lower {lower}")
        r = float(clean_robustness(f"square({n})", [template_centroid(f"square({n})")], q, h)[0])
        require(lower <= r + TABLE_TOL and r <= upper + TABLE_TOL and upper <= HALF + TABLE_TOL,
                f"square({n}): [{lower}, {upper}] does not hold r(centroid) = {r} below P/2")


# ---------------------------------------------------------------- scan

def read_field_file(path):
    """(h, angles) of an ORIFIELD 1 nematic file, parsed without the package."""
    with open(path) as fh:
        header = fh.readline().split()
        require(len(header) == 6 and header[:2] == ["ORIFIELD", "1"] and header[5] == "nematic",
                f"field header {header}")
        nx, ny, h = int(header[2]), int(header[3]), float(header[4])
        angles = np.loadtxt(fh, ndmin=2)
    require(angles.shape == (ny, nx), f"field body {angles.shape}, header says {(ny, nx)}")
    return h, angles


def scan_reference(angles, name):
    """Charge and robustness of ``name`` at every placement on a grid.

    Returns (charge, robustness, (i0, j0)); entry [j, i] belongs to the
    offset (i0 + i, j0 + j), the order in which the program scans.
    """
    cyc = template_cycle(name).astype(int)
    (xmin, ymin), (xmax, ymax) = cyc.min(axis=0), cyc.max(axis=0)
    ny, nx = angles.shape
    ni, nj = nx - (xmax - xmin), ny - (ymax - ymin)
    views = [angles[y - ymin:y - ymin + nj, x - xmin:x - xmin + ni] for x, y in cyc]
    total = np.zeros((nj, ni))
    robust = np.full((nj, ni), HALF)
    for a, b in zip(views, views[1:] + views[:1]):
        d = wrap(b - a)
        total += d
        robust = np.minimum(robust, HALF - np.abs(d))
    return np.rint(total / PERIOD) / 2.0, robust, (-int(xmin), -int(ymin))


def read_scan(path):
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
    require(header == "offset_i,offset_j,center_x,center_y,charge,robustness", f"scan header {header!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).reshape(-1, 6)


def check_scan(angles, h, scans, clean_angles, amplitude):
    """Checks scan CSVs (template -> path) of the field ``angles``.

    ``clean_angles`` is the noise-free field the benchmark made before noise
    of at most ``amplitude`` per vertex was added.
    """
    maps = {}
    for name, path in scans.items():
        rows = read_scan(path)
        charge, robust, (i0, j0) = scan_reference(angles, name)
        jj, ii = np.nonzero(charge)
        require(len(rows) == len(jj), f"{name}: {len(rows)} scan rows, benchmark finds {len(jj)} nonzero placements")
        offsets = np.column_stack([ii + i0, jj + j0])
        require(np.array_equal(rows[:, :2], offsets), f"{name}: scan rows list other placements than the benchmark")
        require(np.array_equal(rows[:, 4], charge[jj, ii]), f"{name}: a scan charge differs from the benchmark's")
        err = np.abs(rows[:, 5] - robust[jj, ii])
        require(err.size == 0 or err.max() <= VALUE_TOL,
                f"{name}: scan robustness differs from the benchmark's by {err.max() if err.size else 0}")
        centre = (offsets + template_cycle(name).mean(axis=0)) * h
        require(np.max(np.abs(rows[:, 2:4] - centre), initial=0.0) <= VALUE_TOL,
                f"{name}: a scan centre is not the mean of its vertices times h")
        program = np.zeros_like(charge)
        program[rows[:, 1].astype(int) - j0, rows[:, 0].astype(int) - i0] = rows[:, 4]
        maps[name] = (program, (i0, j0))

    cell, _ = maps["single"]
    for name, (program, (i0, j0)) in maps.items():
        if name == "single":
            continue
        nj, ni = program.shape
        stokes = sum(cell[j0 + b:j0 + b + nj, i0 + a:i0 + a + ni] for a, b in template_cells(name))
        bad = np.argwhere(stokes != program)
        require(bad.size == 0, f"{name}: charge at offset {bad[:1] + (i0, j0)} is not the sum of its cell charges")

    clean_charge, clean_robust, _ = scan_reference(clean_angles, "single")
    guaranteed = clean_robust > 2 * amplitude
    bad = np.argwhere(guaranteed & (cell != clean_charge))
    require(bad.size == 0, f"single: cell {bad[:1]} charge differs from the noise-free field's where its robustness > 2a")
