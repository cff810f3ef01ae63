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

``canonicalize`` (into [0, P)) and ``wrap_diff`` (into [-P/2, P/2)) are one
kernel that stays in its window.  A difference of two canonical angles wraps
exactly: reversed, it negates, except a tie, which reads -P/2 both ways.

``winding`` computes the wrapped edge differences of one path or many, then
sums and quantizes them (``_quantize``, which also checks the residual) and
takes their per-edge robustness (``_edge_robustness``).  The sweep calls
those two steps on edge rows that co-centred templates share.  The
path-vertex axis comes first, so a batch of paths is an (nv, ...) array.
``estimate_charge`` is its one-path form.
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


def _fold(x, mode: PeriodMode, low: float):
    """x - P*floor(x/P - low/P) in [low, low + P): a float for a scalar, else a fresh array."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidAngle("non-finite angle")
    p = mode.period
    # A 0-d arr / p is a numpy scalar, which cannot take out=; empty_like keeps it an
    # array.  Subtracting low / p = -0.5 is exact, 0.5 + y; at low = 0 it would
    # change no bit (-0.0 - 0.0 is -0.0), so that pass is skipped.
    out = np.divide(arr, p, out=np.empty_like(arr))
    if low:
        np.subtract(out, low / p, out=out)
    np.floor(out, out=out)
    np.multiply(p, out, out=out)
    np.subtract(arr, out, out=out)
    # Within an ulp of the window's ends the floor can pick the wrong period.  The
    # folds are exact and rarely needed, so a min and a max decide whether to run them.
    if out.min(initial=low) < low or out.max(initial=low) >= low + p:
        np.add(out, p, out=out, where=out < low)
        np.subtract(out, p, out=out, where=out >= low + p)
        # From about 2**53 * P on, the rounding of P*floor(x/P) spans many periods.
        # There the exact remainder fmod(x, P), in (-P, P), is folded instead.
        far = (out < low) | (out >= low + p)
        if far.any():
            out[far] = _fold(np.fmod(arr[far], p), mode, low)
    if np.ndim(x) == 0:
        return float(out)
    return out


def canonicalize(angle, mode: PeriodMode):
    """Map an angle (or array of angles) to its representative in [0, P).

    Accepts scalars or ndarrays; returns the same kind.  Idempotent, bit-exact
    on inputs already in [0, P).
    """
    return _fold(angle, mode, 0.0)


def wrap_diff(delta, mode: PeriodMode):
    """Minimal representative of an angle difference, in [-P/2, P/2).

    Implements delta - P*floor(0.5 + delta/P), exact for |delta| < P.  Accepts
    scalars or ndarrays.
    """
    return _fold(delta, mode, -mode.period / 2.0)


def _check_spacing(h: float) -> float:
    if not (0 < h < math.inf):
        raise ValueError(f"grid spacing h must be positive and finite, got {h}")
    return h


@dataclass(frozen=True, eq=False)
class OrientationField:
    """Rectangular grid of orientation angles with spacing ``h``.

    ``angles`` is stored as a read-only (ny, nx) float array, canonicalized
    into [0, P).  Grid vertex (i, j) sits at physical position (i*h, j*h) and
    carries angle ``angles[j, i]``.  Fields compare by identity: compare
    ``angles`` with ``np.array_equal``.
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
        ii, jj = zip(*self.vertices)
        if min(ii) < margin or min(jj) < margin or max(ii) >= nx - margin or max(jj) >= ny - margin:
            raise InvalidPath(f"path leaves the field of {nx}x{ny} vertices (margin {margin})")
        return np.array(jj), np.array(ii)


@dataclass(frozen=True, eq=False)
class ChargeEstimate:
    """Quantized winding number along a closed path, with its robustness.

    ``raw_sum`` = charge * 2*pi + ``residual``, |residual| below the quantization
    tolerance; ``per_edge`` is each edge's robustness in traversal order, read-only.
    Read from these: ``path_robustness`` (the minimum of ``per_edge``), ``min_edge``
    (the endpoints of an edge attaining it) and ``anchor`` (the vertices' centroid
    in grid-index coordinates).  Estimates compare and hash by value.
    """

    charge: Fraction
    raw_sum: float
    residual: float
    per_edge: np.ndarray
    path: LatticePath

    def _key(self):
        return self.charge, self.raw_sum, self.residual, self.path, self.per_edge.tobytes()

    def __eq__(self, other):
        return isinstance(other, ChargeEstimate) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def anchor(self) -> tuple:
        ii, jj = zip(*self.path.vertices)
        return sum(ii) / len(ii), sum(jj) / len(jj)

    @property
    def path_robustness(self) -> float:
        return float(self.per_edge.min())

    @property
    def min_edge(self) -> tuple:
        return self.path.edge(int(np.argmin(self.per_edge)))


def winding(theta, mode: PeriodMode):
    """Winding sums and per-edge robustness of closed paths, over the first axis.

    ``theta`` is (nv, ...): along axis 0, each path's vertex angles in
    traversal order, the first vertex following the last.  Returns
    ``(raw_sum, k, residual, per_edge)``: the sum of the wrapped successor
    differences in path order, shaped ``theta.shape[1:]``; that sum in
    periods P rounded to int64 (charge ``k / mode.periods_per_turn``);
    ``raw_sum - k*P``; and ``P/2 - |wrapped difference|`` per edge, shaped as
    ``theta``.  Raises QuantizationFailure if any |residual| reaches
    QUANTIZATION_TOL.
    """
    theta = np.asarray(theta, dtype=float)
    # Vertex-first, every pass runs over whole contiguous slabs, not row by row
    # over a short last axis.  The [:1] and [-1:] slices keep out= an array for
    # a 1-D path.
    d = np.empty_like(theta)
    np.subtract(theta[1:], theta[:-1], out=d[:-1])
    np.subtract(theta[:1], theta[-1:], out=d[-1:])
    d = wrap_diff(d, mode)
    raw, k, residual = _quantize(d, mode)
    return raw, k, residual, _edge_robustness(d, mode)


def _quantize(d, mode: PeriodMode):
    """``(raw_sum, k, residual)`` of ``winding`` from a path's wrapped edge
    differences ``d``, an (nv, ...) array or a sequence of nv arrays, in path
    order.  Raises QuantizationFailure if any |residual| reaches QUANTIZATION_TOL.
    """
    p = mode.period
    # Summed edge by edge: np.sum would add a 1-D path pairwise, so one path
    # alone and the same path in a batch would differ in the last bit.
    raw = d[0].copy()
    for edge in d[1:]:
        raw += edge
    k = np.rint(raw / p)
    residual = raw - k * p
    bad = np.abs(residual).max(initial=0.0)
    if bad >= QUANTIZATION_TOL:
        raise QuantizationFailure(f"winding residual {bad} above tolerance")
    return raw, k.astype(np.int64), residual


def _edge_robustness(d, mode: PeriodMode):
    """Each edge's robustness P/2 - |d| from its wrapped difference ``d``, in place."""
    np.abs(d, out=d)
    return np.subtract(mode.period / 2.0, d, out=d)


def estimate_charge(field: OrientationField, path: LatticePath) -> ChargeEstimate:
    """Quantized topological charge around a closed lattice path, with its robustness.

    Counterclockwise traversal around a positive defect yields a positive
    charge.
    """
    raw, k, residual, per_edge = winding(field.angles[path.grid_indices(field.nx, field.ny)], field.mode)
    per_edge.flags.writeable = False
    return ChargeEstimate(charge=Fraction(int(k), field.mode.periods_per_turn), raw_sum=float(raw),
                          residual=float(residual), per_edge=per_edge, path=path)
