"""Template cell sets, boundary tracing, placements, view angles."""
import math

import numpy as np
import pytest

from defect_robust import (
    BUILTIN_TEMPLATE_NAMES,
    InvalidCellSet,
    InvalidPath,
    PeriodMode,
    Template,
    UnknownTemplate,
    analytic_path_robustness,
    boundary_of_cells,
    builtin_template,
    center_offset,
)


class TestBoundaryTracing:
    def test_single_cell(self):
        path = boundary_of_cells({(0, 0)})
        assert path.vertices == ((0, 0), (1, 0), (1, 1), (0, 1))

    def test_cross_cycle_frozen(self):
        path = builtin_template("cross").boundary
        assert path.vertices == (
            (0, 1), (1, 1), (1, 0), (2, 0), (2, 1), (3, 1),
            (3, 2), (2, 2), (2, 3), (1, 3), (1, 2), (0, 2),
        )

    def test_counterclockwise_by_shoelace(self):
        for name in BUILTIN_TEMPLATE_NAMES:
            verts = np.asarray(builtin_template(name).boundary.vertices, float)
            x, y = verts[:, 0], verts[:, 1]
            area2 = float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
            assert area2 > 0, f"{name} boundary is not counterclockwise"
            # enclosed area equals the pixel count
            assert area2 / 2 == len(builtin_template(name).cells)

    def test_disconnected_rejected(self):
        with pytest.raises(InvalidCellSet):
            boundary_of_cells({(0, 0), (2, 0)})

    def test_hole_rejected(self):
        ring = {(a, b) for a in range(3) for b in range(3)} - {(1, 1)}
        with pytest.raises(InvalidCellSet):
            boundary_of_cells(ring)

    def test_pinch_rejected(self):
        # (0,0) and (1,1) meet only at the vertex (1,1); the hook of cells
        # below keeps the set 4-connected, so the defect is the pinch itself
        pinched = {(0, 0), (1, 1), (0, -1), (1, -1), (2, -1), (2, 0), (2, 1)}
        with pytest.raises(InvalidCellSet):
            boundary_of_cells(pinched)

    def test_empty_rejected(self):
        with pytest.raises(InvalidCellSet):
            boundary_of_cells(set())


def _four_connected(cells):
    cells = set(cells)
    seen, stack = set(), [min(cells)]
    while stack:
        a, b = stack.pop()
        if (a, b) in cells and (a, b) not in seen:
            seen.add((a, b))
            stack += [(a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1)]
    return seen == cells


def _one_region(cells):
    """Reference rule, independent of the boundary walk: the set is non-empty and
    4-connected, its complement in the box padded by one cell is 4-connected (no
    hole), and no 2x2 window is a checkerboard (no two cells meet only at a corner)."""
    box = {(a, b) for a in range(-1, 4) for b in range(-1, 4)}
    checkerboard = any(((a, b) in cells) == ((a + 1, b + 1) in cells) != ((a + 1, b) in cells)
                       == ((a, b + 1) in cells) for a in range(-1, 3) for b in range(-1, 3))
    return bool(cells) and _four_connected(cells) and _four_connected(box - cells) and not checkerboard


def test_boundary_walk_accepts_exactly_the_one_region_sets_of_a_3x3_grid():
    grid = [(a, b) for b in range(3) for a in range(3)]
    accepted = 0
    for bits in range(512):
        cells = {c for k, c in enumerate(grid) if bits >> k & 1}
        if not _one_region(cells):
            with pytest.raises(InvalidCellSet):
                boundary_of_cells(cells)
            continue
        verts = np.asarray(boundary_of_cells(cells).vertices, float)
        x, y = verts[:, 0], verts[:, 1]
        assert float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)) == 2 * len(cells)
        accepted += 1
    assert accepted == 213


class TestTemplate:
    def test_boundary_derives_from_cells(self):
        cells = [(0, 0), (1, 0), (2.0, 0), (0, 1)]
        t = Template("ell", cells)
        assert t.cells == frozenset({(0, 0), (1, 0), (2, 0), (0, 1)})
        assert all(type(a) is int for cell in t.cells for a in cell)
        assert t.boundary == boundary_of_cells(cells)
        assert t == Template("ell", reversed(cells)) and hash(t) == hash(Template("ell", set(cells)))
        with pytest.raises(TypeError):
            Template("tiny", {(0, 0)}, boundary=builtin_template("3x3").boundary)
        with pytest.raises(InvalidCellSet):
            Template("gap", {(0, 0), (2, 0)})

    def test_builtin_names_are_the_figure_order(self):
        assert BUILTIN_TEMPLATE_NAMES == ("single", "2x2", "cross", "3x3", "3x3ext")
        for name in BUILTIN_TEMPLATE_NAMES:
            assert builtin_template(name).name == name
        assert builtin_template("3x3").cells == builtin_template("square(3)").cells
        assert builtin_template("3x3").cells < builtin_template("3x3ext").cells


class TestBuiltins:
    @pytest.mark.parametrize(
        "name,n_cells,n_edges",
        [("single", 1, 4), ("2x2", 4, 8), ("cross", 5, 12), ("3x3", 9, 12), ("3x3ext", 13, 20)],
    )
    def test_sizes(self, name, n_cells, n_edges):
        t = builtin_template(name)
        assert len(t.cells) == n_cells
        assert len(t.boundary.vertices) == n_edges
        assert t.resolution == pytest.approx(math.sqrt(n_cells))

    def test_name_normalization(self):
        assert builtin_template("3x3 ext").cells == builtin_template("3x3ext").cells
        assert builtin_template(" CROSS ").name == "cross"

    def test_square_n(self):
        t = builtin_template("square(4)")
        assert len(t.cells) == 16
        assert len(t.boundary.vertices) == 16
        assert builtin_template("square(1)").cells == builtin_template("single").cells

    def test_unknown_rejected(self):
        with pytest.raises(UnknownTemplate):
            builtin_template("hexagon")
        with pytest.raises(UnknownTemplate):
            builtin_template("square(0)")

    def test_centroids(self):
        assert builtin_template("single").centroid == (0.5, 0.5)
        assert builtin_template("cross").centroid == (1.5, 1.5)
        assert builtin_template("3x3").centroid == (1.5, 1.5)


class TestPlacement:
    def test_center_offset_is_central(self):
        for nx, ny in ((16, 16), (17, 12)):
            for name in BUILTIN_TEMPLATE_NAMES:
                t = builtin_template(name)
                di, dj = center_offset(t, nx, ny)
                assert abs(t.centroid[0] + di - (nx - 1) / 2) <= 0.5
                assert abs(t.centroid[1] + dj - (ny - 1) / 2) <= 0.5
                jj, ii = t.boundary.translated((di, dj)).grid_indices(nx, ny, margin=1)
                assert ii.min() >= 1 and jj.min() >= 1 and ii.max() <= nx - 2 and jj.max() <= ny - 2

    def test_grid_indices_rejects_overhang(self):
        path = builtin_template("3x3").boundary.translated((13, 1))
        with pytest.raises(InvalidPath, match=r"leaves the field of 16x16 vertices \(margin 0\)"):
            path.grid_indices(16, 16)
        path.grid_indices(17, 16)
        with pytest.raises(InvalidPath, match=r"17x16 vertices \(margin 1\)"):
            path.grid_indices(17, 16, margin=1)


def max_view_angle(template, center):
    """Largest angle a boundary edge subtends from ``center``: pi less the
    robustness of the unit polar winding field, whose edges each turn by their
    view angle."""
    return math.pi - float(analytic_path_robustness(template, [center], 1, PeriodMode.POLAR)[0])


class TestMaxViewAngle:
    def test_single_centroid_is_quarter_turn(self):
        t = builtin_template("single")
        assert max_view_angle(t, (0.5, 0.5)) == pytest.approx(math.pi / 2)

    def test_shrinks_with_template_size(self):
        c = (0.5, 0.5)
        # each square's middle cell holds the center
        angles = [max_view_angle(builtin_template(f"square({n})"), (c[0] + n // 2, c[1] + n // 2))
                  for n in (1, 3, 5)]
        assert angles[0] > angles[1] > angles[2]

    def test_arcsin_bound(self):
        # every edge seen from distance >= R subtends at most arcsin(h/R)
        t = builtin_template("3x3")
        a = max_view_angle(t, (1.5, 1.5))
        assert a <= math.asin(1.0 / 1.5) + 1e-12
