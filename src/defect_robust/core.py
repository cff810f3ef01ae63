"""Periodicity-aware angle arithmetic, winding-number charge estimation, and
the per-edge robustness measure.

Orientation angles are identified modulo a period P: pi for nematic
(headless) vectors, 2*pi for polar vectors.  The topological charge around a
closed lattice path is the accumulated wrapped angle difference divided by
2*pi; it is quantized to multiples of 1/2 (nematic) or integers (polar).

The robustness of a charge estimate is the smallest distance, over path
edges, of the edge's angle difference to the nearest wrap discontinuity
P/2 + k*P.  It is the largest per-edge orientation change that cannot alter
the estimate.

``winding`` is the one place where the wrapped edge differences are summed
and quantized and their per-edge robustness computed, for one path or many.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import InvalidAngle, InvalidPath, QuantizationFailure

#: Residual tolerance for charge quantization, in radians.  Far above
#: accumulated double rounding on paths of <= 1e4 edges, far below P/2.
QUANTIZATION_TOL = 1e-6


class PeriodMode(Enum):
    """Angle periodicity: nematic vectors wrap at pi, polar vectors at 2*pi."""

    NEMATIC = "nematic"
    POLAR = "polar"

    @property
    def period(self) -> float:
        return math.pi if self is PeriodMode.NEMATIC else 2.0 * math.pi

    @property
    def periods_per_turn(self) -> int:
        """Periods P in one full turn: a winding of k periods is charge k / periods_per_turn."""
        return 2 if self is PeriodMode.NEMATIC else 1

    @classmethod
    def from_name(cls, name: str) -> "PeriodMode":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown period mode {name!r}; expected 'nematic' or 'polar'") from None


def _as_finite_array(x, what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidAngle(f"non-finite {what}")
    return arr


def canonicalize(angle, mode: PeriodMode):
    """Map an angle (or array of angles) to its representative in [0, P).

    Accepts scalars or ndarrays; returns the same kind.  Idempotent, bit-exact
    on inputs already in [0, P).
    """
    arr = _as_finite_array(angle, "angle")
    p = mode.period
    out = np.asarray(arr - p * np.floor(arr / p))
    # Tiny negative inputs leave [0, p): arr / p underflows to -0.0, or floor
    # gives -1 and out rounds to p.  Fold in place; sweeps pass every sample.
    np.add(out, p, out=out, where=out < 0)
    np.subtract(out, p, out=out, where=out >= p)
    if np.ndim(angle) == 0:
        return float(out)
    return out


def wrap_diff(delta, mode: PeriodMode):
    """Minimal representative of an angle difference, in [-P/2, P/2).

    Implements delta - P*floor(0.5 + delta/P).  Accepts scalars or ndarrays.
    """
    arr = _as_finite_array(delta, "angle difference")
    p = mode.period
    out = arr - p * np.floor(0.5 + arr / p)
    if np.ndim(delta) == 0:
        return float(out)
    return out


def edge_robustness(theta_i, theta_j, mode: PeriodMode):
    """Distance of theta_j - theta_i to the nearest wrap discontinuity P/2 + k*P.

    Equals min over integer k of |theta_j - theta_i - P/2 - k*P|, always in
    [0, P/2].  Accepts scalars or ndarrays.
    """
    ti = _as_finite_array(theta_i, "angle")
    tj = _as_finite_array(theta_j, "angle")
    p = mode.period
    out = p / 2.0 - np.abs(wrap_diff(tj - ti, mode))
    if np.ndim(theta_i) == 0 and np.ndim(theta_j) == 0:
        return float(out)
    return out


def _check_spacing(h: float) -> float:
    if not (0 < h < math.inf):
        raise ValueError(f"grid spacing h must be positive and finite, got {h}")
    return h


@dataclass(frozen=True)
class OrientationField:
    """Rectangular grid of orientation angles with spacing ``h``.

    ``angles`` is stored as a read-only (ny, nx) float array, canonicalized
    into [0, P).  Grid vertex (i, j) sits at physical position (i*h, j*h) and
    carries angle ``angles[j, i]``.
    """

    h: float
    mode: PeriodMode
    angles: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.angles, dtype=float)
        if arr.ndim != 2 or min(arr.shape) < 2:
            raise ValueError(f"angles must be a 2-D array of at least 2x2, got shape {arr.shape}")
        _check_spacing(self.h)
        arr = np.ascontiguousarray(canonicalize(arr, self.mode))
        arr.flags.writeable = False
        object.__setattr__(self, "angles", arr)

    @property
    def nx(self) -> int:
        return self.angles.shape[1]

    @property
    def ny(self) -> int:
        return self.angles.shape[0]

    @classmethod
    def from_angles(cls, angles, h: float = 1.0, mode: PeriodMode = PeriodMode.NEMATIC) -> "OrientationField":
        return cls(h=h, mode=mode, angles=angles)

    def with_angles(self, angles) -> "OrientationField":
        return OrientationField(h=self.h, mode=self.mode, angles=angles)


@dataclass(frozen=True)
class LatticePath:
    """Cycle of grid vertices joined by unit axis-aligned steps.

    The first vertex is the implicit successor of the last (the closing
    vertex is not repeated), so a path of n vertices has n edges.
    """

    vertices: tuple

    def __post_init__(self):
        verts = tuple((int(i), int(j)) for i, j in self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 4:
            raise InvalidPath(f"a lattice cycle needs at least 4 vertices, got {len(verts)}")
        if len(set(verts)) != len(verts):
            raise InvalidPath("path revisits a vertex")
        for (i0, j0), (i1, j1) in zip(verts, verts[1:] + verts[:1]):
            if abs(i1 - i0) + abs(j1 - j0) != 1:
                raise InvalidPath(f"vertices {(i0, j0)} and {(i1, j1)} are not lattice 4-neighbors")

    def edge(self, k: int):
        """Endpoints of edge ``k`` in traversal order."""
        n = len(self.vertices)
        return self.vertices[k % n], self.vertices[(k + 1) % n]

    def translated(self, offset) -> "LatticePath":
        dx, dy = int(offset[0]), int(offset[1])
        return LatticePath(tuple((i + dx, j + dy) for i, j in self.vertices))

    def grid_indices(self, nx: int, ny: int, margin: int = 0):
        """The vertices' (row, column) index arrays into an (ny, nx) angle array.

        Raises InvalidPath if a vertex lies outside the grid shrunk by ``margin`` per side.
        """
        ii = np.array([v[0] for v in self.vertices])
        jj = np.array([v[1] for v in self.vertices])
        if ii.min() < margin or jj.min() < margin or ii.max() >= nx - margin or jj.max() >= ny - margin:
            raise InvalidPath(f"path leaves the field of {nx}x{ny} vertices (margin {margin})")
        return jj, ii


@dataclass(frozen=True)
class ChargeEstimate:
    """Quantized winding number along a closed path.

    ``raw_sum`` = charge * 2*pi + ``residual`` with |residual| below the
    quantization tolerance.  ``anchor`` is the centroid of the path vertices
    in grid-index coordinates.
    """

    charge: Fraction
    anchor: tuple
    raw_sum: float
    residual: float


@dataclass
class RobustnessReport:
    """Per-edge robustness values along a closed path, in traversal order.

    ``path_robustness`` is the minimum entry; ``min_edge`` gives the endpoints
    of an edge attaining it.
    """

    per_edge: np.ndarray
    path_robustness: float
    min_edge: tuple


def winding(theta, mode: PeriodMode):
    """Winding sums and per-edge robustness of closed paths, over the last axis.

    ``theta`` holds each path's vertex angles in traversal order, the first
    vertex following the last.  Returns ``(raw_sum, k, residual, per_edge)``:
    the sum of the wrapped successor differences, that sum in periods P
    rounded to int64 (charge ``k / mode.periods_per_turn``), ``raw_sum - k*P``,
    and ``P/2 - |wrapped difference|`` per edge.  Raises QuantizationFailure
    if any |residual| reaches QUANTIZATION_TOL.
    """
    theta = np.asarray(theta, dtype=float)
    p = mode.period
    # Preallocated: np.roll or np.diff(append=) copy theta once more per call.
    d = np.empty_like(theta)
    np.subtract(theta[..., 1:], theta[..., :-1], out=d[..., :-1])
    np.subtract(theta[..., 0], theta[..., -1], out=d[..., -1])
    d = wrap_diff(d, mode)
    raw = np.sum(d, axis=-1)
    k = np.rint(raw / p)
    residual = raw - k * p
    bad = np.abs(residual).max(initial=0.0)
    if bad >= QUANTIZATION_TOL:
        raise QuantizationFailure(f"winding residual {bad} above tolerance")
    np.abs(d, out=d)
    np.subtract(p / 2.0, d, out=d)
    return raw, k.astype(np.int64), residual, d


def _path_angles(field: OrientationField, path: LatticePath) -> np.ndarray:
    return field.angles[path.grid_indices(field.nx, field.ny)]


def estimate_charge(field: OrientationField, path: LatticePath) -> ChargeEstimate:
    """Quantized topological charge around a closed lattice path.

    Counterclockwise traversal around a positive defect yields a positive
    charge.
    """
    raw, k, residual, _ = winding(_path_angles(field, path), field.mode)
    ii = [v[0] for v in path.vertices]
    jj = [v[1] for v in path.vertices]
    anchor = (sum(ii) / len(ii), sum(jj) / len(jj))
    return ChargeEstimate(charge=Fraction(int(k), field.mode.periods_per_turn), anchor=anchor,
                          raw_sum=float(raw), residual=float(residual))


def path_robustness(field: OrientationField, path: LatticePath) -> RobustnessReport:
    """Per-edge and minimum robustness of the charge estimate along ``path``."""
    _, _, _, per_edge = winding(_path_angles(field, path), field.mode)
    k = int(np.argmin(per_edge))
    return RobustnessReport(
        per_edge=per_edge,
        path_robustness=float(per_edge[k]),
        min_edge=path.edge(k),
    )
