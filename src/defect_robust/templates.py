"""Named template paths for charge estimation, derived from lattice cell sets.

A template is a 4-connected, hole-free set of unit cells; its boundary is the
counterclockwise vertex cycle enclosing exactly those cells.  Resolution is
sqrt(#cells), the localization-precision proxy used when normalizing
robustness.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .core import LatticePath
from .errors import InvalidCellSet, UnknownTemplate


def _square(n: int) -> set:
    return {(a, b) for a in range(n) for b in range(n)}


# The figure templates, in figure order.
_CELL_SETS = {
    "single": {(0, 0)},
    "2x2": _square(2),
    "cross": {(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)},
    "3x3": _square(3),
    "3x3ext": _square(3) | {(1, -1), (1, 3), (-1, 1), (3, 1)},
}

#: Stable CLI-facing identifiers of the figure templates.
BUILTIN_TEMPLATE_NAMES = tuple(_CELL_SETS)

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
    """A named cell set; ``boundary`` is derived, its counterclockwise boundary cycle."""

    name: str
    cells: frozenset
    boundary: LatticePath = field(init=False, compare=False)

    def __post_init__(self):
        cells = frozenset((int(a), int(b)) for a, b in self.cells)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "boundary", boundary_of_cells(cells))

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

    Accepts ``BUILTIN_TEMPLATE_NAMES`` plus ``square(n)`` for any n >= 1.
    """
    key = name.strip().lower().replace(" ", "")
    if key in _CELL_SETS:
        return Template(key, _CELL_SETS[key])
    m = _SQUARE_RE.match(key)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise UnknownTemplate(f"square size must be >= 1, got {n}")
        return Template(key, _square(n))
    raise UnknownTemplate(f"unknown template {name!r}; known: {', '.join(BUILTIN_TEMPLATE_NAMES)}, square(n)")


def center_offset(template: Template, nx: int, ny: int) -> tuple:
    """Integer offset that lands the template's centroid nearest the middle of an nx x ny grid."""
    cx, cy = template.centroid
    return (round((nx - 1) / 2 - cx), round((ny - 1) / 2 - cy))
