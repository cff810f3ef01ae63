"""Named template paths for charge estimation, derived from lattice cell sets.

A template is a 4-connected, hole-free set of unit cells; its boundary is the
counterclockwise vertex cycle enclosing exactly those cells.  Resolution is
sqrt(#cells), the localization-precision proxy used when normalizing
robustness.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .core import LatticePath, PeriodMode, winding
from .errors import DegenerateCenter, InvalidCellSet, UnknownTemplate

#: Stable CLI-facing identifiers of the figure templates.
BUILTIN_TEMPLATE_NAMES = ("single", "2x2", "cross", "3x3", "3x3ext")

_CELL_SETS = {
    "single": {(0, 0)},
    "2x2": {(a, b) for a in range(2) for b in range(2)},
    "3x3": {(a, b) for a in range(3) for b in range(3)},
    "cross": {(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)},
    "3x3ext": {(a, b) for a in range(3) for b in range(3)} | {(1, -1), (1, 3), (-1, 1), (3, 1)},
}

_SQUARE_RE = re.compile(r"^square\((\d+)\)$")


def boundary_of_cells(cells) -> LatticePath:
    """Counterclockwise boundary cycle of a 4-connected, hole-free cell set.

    Cell (a, b) is the unit square [a, a+1] x [b, b+1].  The cycle starts at
    the lexicographically smallest boundary vertex.
    """
    cells = {(int(a), int(b)) for a, b in cells}
    if not cells:
        raise InvalidCellSet("empty cell set")

    seen = {next(iter(cells))}
    stack = [next(iter(seen))]
    while stack:
        a, b = stack.pop()
        for nb in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1)):
            if nb in cells and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if seen != cells:
        raise InvalidCellSet("cell set is not 4-connected")

    # Boundary faces, oriented counterclockwise around their owning cell.
    succ = {}
    for a, b in cells:
        for neighbor, start, end in (
            ((a, b - 1), (a, b), (a + 1, b)),          # bottom
            ((a + 1, b), (a + 1, b), (a + 1, b + 1)),  # right
            ((a, b + 1), (a + 1, b + 1), (a, b + 1)),  # top
            ((a - 1, b), (a, b + 1), (a, b)),          # left
        ):
            if neighbor not in cells:
                if start in succ:
                    raise InvalidCellSet(f"boundary pinches at vertex {start}")
                succ[start] = end

    start = min(succ)
    cycle = [start]
    v = succ[start]
    while v != start:
        cycle.append(v)
        v = succ[v]
    if len(cycle) != len(succ):
        raise InvalidCellSet("cell set has a hole")
    return LatticePath(tuple(cycle))


@dataclass(frozen=True)
class Template:
    """A named cell set with its counterclockwise boundary cycle."""

    name: str
    cells: frozenset
    boundary: LatticePath

    @classmethod
    def from_cells(cls, name: str, cells) -> "Template":
        cells = frozenset((int(a), int(b)) for a, b in cells)
        return cls(name=name, cells=cells, boundary=boundary_of_cells(cells))

    @property
    def resolution(self) -> float:
        """sqrt(#cells), so resolution**2 equals the pixel count exactly."""
        return math.sqrt(len(self.cells))

    @property
    def centroid(self):
        """Mean of cell centers, in lattice coordinates."""
        xs = [a + 0.5 for a, _ in self.cells]
        ys = [b + 0.5 for _, b in self.cells]
        return (sum(xs) / len(xs), sum(ys) / len(ys))


def builtin_template(name: str) -> Template:
    """Look up a canonical template by its stable identifier.

    Accepts the figure names (``single``, ``2x2``, ``cross``, ``3x3``,
    ``3x3ext``) plus ``square(n)`` for any n >= 1.
    """
    key = name.strip().lower().replace(" ", "")
    if key in _CELL_SETS:
        return Template.from_cells(key, _CELL_SETS[key])
    m = _SQUARE_RE.match(key)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise UnknownTemplate(f"square size must be >= 1, got {n}")
        return Template.from_cells(key, {(a, b) for a in range(n) for b in range(n)})
    raise UnknownTemplate(f"unknown template {name!r}; known: {', '.join(BUILTIN_TEMPLATE_NAMES)}, square(n)")


def center_offset(template: Template, nx: int, ny: int) -> tuple:
    """Integer offset that lands the template's centroid nearest the middle of an nx x ny grid."""
    cx, cy = template.centroid
    return (round((nx - 1) / 2 - cx), round((ny - 1) / 2 - cy))


def max_view_angle(template: Template, center) -> float:
    """Largest angle subtended by any boundary edge as seen from ``center``.

    ``center`` must lie strictly inside the boundary and off every edge;
    angles are wrapped atan2 differences in the polar (2*pi) convention.
    """
    verts = np.asarray(template.boundary.vertices, dtype=float)
    c = np.asarray(center, dtype=float)
    rel = verts - c
    if np.any(np.all(rel == 0.0, axis=1)):
        raise DegenerateCenter(f"center {tuple(c)} coincides with a path vertex")

    x0, y0 = rel[:, 0], rel[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    cross = x0 * y1 - y0 * x1
    dot = x0 * x1 + y0 * y1
    if np.any((cross == 0.0) & (dot <= 0.0)):
        raise DegenerateCenter(f"center {tuple(c)} lies on a path edge")

    # Seen from inside, the boundary winds once; an edge's robustness is pi less its view angle.
    _, k, _, per_edge = winding(np.arctan2(y0, x0), PeriodMode.POLAR)
    if k != 1:
        raise DegenerateCenter(f"center {tuple(c)} is not strictly inside the boundary")
    return math.pi - float(per_edge.min())
