"""Template cell sets, boundary tracing, placements, view angles."""
import math

import numpy as np
import pytest

from defect_robust import (
    BUILTIN_TEMPLATE_NAMES,
    DegenerateCenter,
    InvalidCellSet,
    OrientationField,
    PeriodMode,
    Placement,
    UnknownTemplate,
    boundary_of_cells,
    builtin_template,
    center_placement,
    max_view_angle,
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


class TestBuiltins:
    @pytest.mark.parametrize(
        "name,n_cells,n_edges",
        [("single", 1, 4), ("2x2", 4, 8), ("cross", 5, 12), ("3x3", 9, 12), ("3x3ext", 13, 20)],
    )
    def test_sizes(self, name, n_cells, n_edges):
        t = builtin_template(name)
        assert len(t.cells) == n_cells
        assert t.boundary.n_edges == n_edges
        assert t.resolution == pytest.approx(math.sqrt(n_cells))

    def test_name_normalization(self):
        assert builtin_template("3x3 ext").cells == builtin_template("3x3ext").cells
        assert builtin_template(" CROSS ").name == "cross"

    def test_square_n(self):
        t = builtin_template("square(4)")
        assert len(t.cells) == 16
        assert t.boundary.n_edges == 16
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

    def test_translated(self):
        t = builtin_template("2x2").translated((5, 7))
        assert t.centroid == (6.0, 8.0)
        assert min(t.boundary.vertices) == (5, 7)


def _blank_field(nx=16, ny=16):
    return OrientationField(h=1.0, mode=PeriodMode.NEMATIC, angles=np.zeros((ny, nx)))


class TestPlacement:
    def test_center_placement_is_central(self):
        f = _blank_field()
        for name in BUILTIN_TEMPLATE_NAMES:
            t = builtin_template(name)
            pl = center_placement(t, f)
            cx = t.centroid[0] + pl.offset[0]
            cy = t.centroid[1] + pl.offset[1]
            assert abs(cx - (f.nx - 1) / 2) <= 0.5
            assert abs(cy - (f.ny - 1) / 2) <= 0.5
            pl.validate_in(f, margin=1)

    def test_validate_in_rejects_overhang(self):
        t = builtin_template("3x3")
        with pytest.raises(ValueError):
            Placement(template=t, offset=(14, 0)).validate_in(_blank_field())


class TestMaxViewAngle:
    def test_single_centroid_is_quarter_turn(self):
        t = builtin_template("single")
        assert max_view_angle(t, (0.5, 0.5)) == pytest.approx(math.pi / 2)

    def test_shrinks_with_template_size(self):
        c = (0.5, 0.5)
        angles = [max_view_angle(builtin_template(f"square({n})").translated(
            (-(n // 2), -(n // 2))), c) for n in (1, 3, 5)]
        assert angles[0] > angles[1] > angles[2]

    def test_arcsin_bound(self):
        # every edge seen from distance >= R subtends at most arcsin(h/R)
        t = builtin_template("3x3")
        a = max_view_angle(t, (1.5, 1.5))
        assert a <= math.asin(1.0 / 1.5) + 1e-12

    def test_degenerate_positions(self):
        t = builtin_template("single")
        with pytest.raises(DegenerateCenter):
            max_view_angle(t, (0.0, 0.0))  # vertex
        with pytest.raises(DegenerateCenter):
            max_view_angle(t, (0.5, 0.0))  # on an edge
        with pytest.raises(DegenerateCenter):
            max_view_angle(t, (2.5, 2.5))  # outside
