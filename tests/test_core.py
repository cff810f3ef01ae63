"""Angle arithmetic, path validation, charge quantization, robustness."""
import math
from fractions import Fraction

import numpy as np
import pytest

import defect_robust
from defect_robust import (
    InvalidAngle,
    InvalidPath,
    LatticePath,
    OrientationField,
    PeriodMode,
    QuantizationFailure,
    builtin_template,
    canonicalize,
    estimate_charge,
    path_robustness,
    winding,
    wrap_diff,
)

NEM = PeriodMode.NEMATIC
POL = PeriodMode.POLAR


class TestWrapping:
    def test_period_values(self):
        assert NEM.period == math.pi
        assert POL.period == 2.0 * math.pi

    def test_mode_from_name(self):
        assert PeriodMode.from_name(" Nematic ") is NEM
        assert PeriodMode.from_name("polar") is POL
        with pytest.raises(ValueError):
            PeriodMode.from_name("circular")

    @pytest.mark.parametrize("mode", [NEM, POL])
    def test_canonicalize_range_and_idempotence(self, mode):
        xs = np.linspace(-20.0, 20.0, 4001)
        out = canonicalize(xs, mode)
        assert np.all((out >= 0.0) & (out < mode.period))
        assert np.array_equal(canonicalize(out, mode), out)

    def test_canonicalize_scalar(self):
        assert canonicalize(-0.1, NEM) == pytest.approx(math.pi - 0.1)
        assert canonicalize(0.0, POL) == 0.0
        assert isinstance(canonicalize(1.0, NEM), float)

    def test_canonicalize_rejects_nonfinite(self):
        with pytest.raises(InvalidAngle):
            canonicalize(float("nan"), NEM)
        with pytest.raises(InvalidAngle):
            canonicalize(np.array([0.0, np.inf]), POL)

    @pytest.mark.parametrize("mode", [NEM, POL])
    def test_wrap_diff_range(self, mode):
        xs = np.linspace(-20.0, 20.0, 4001)
        out = wrap_diff(xs, mode)
        assert np.all((out >= -mode.period / 2) & (out < mode.period / 2))

    @pytest.mark.parametrize("mode", [NEM, POL])
    def test_in_place_kernels_match_the_formulas(self, mode):
        # the one-line formulas the kernels compute pass by pass, in a fresh array
        def canonical_ref(a, p):
            out = np.asarray(a - p * np.floor(a / p))
            np.add(out, p, out=out, where=out < 0)
            np.subtract(out, p, out=out, where=out >= p)
            return out

        def wrap_ref(a, p):
            out = np.asarray(a - p * np.floor(0.5 + a / p))
            np.add(out, p, out=out, where=out < -p / 2)
            np.subtract(out, p, out=out, where=out >= p / 2)
            return out

        p = mode.period
        edge = [-5e-324, -122.52211349000194, -0.0, 0.0, 5e-324, -1e-300, p / 2, -p / 2, p, -p, 1e15]
        xs = np.concatenate([edge, np.random.default_rng(0).uniform(-50.0, 50.0, 500)])
        xs.flags.writeable = False  # a write into the caller's array raises
        before = xs.copy()
        for fn, ref, low in ((canonicalize, canonical_ref, 0.0), (wrap_diff, wrap_ref, -p / 2)):
            out = fn(xs, mode)
            assert type(out) is np.ndarray and out.shape == xs.shape
            assert out.tobytes() == ref(xs, p).tobytes()
            assert np.all((out >= low) & (out < low + p))
            for x in xs.tolist():
                zero_d = np.array(x)
                zero_d.flags.writeable = False
                for arg in (x, zero_d):
                    y = fn(arg, mode)
                    assert type(y) is float
                    assert np.float64(y).tobytes() == ref(np.float64(x), p).tobytes()
        assert xs.tobytes() == before.tobytes()

    @pytest.mark.parametrize("mode", [NEM, POL])
    def test_huge_inputs_land_in_the_window(self, mode):
        # From about 2**53 * P on, P*floor(x/P) is rounded by thousands of periods
        huge = [1e20, -1e20, 1e300, -1e300, 1.7e308, -1.7e308]
        xs = np.concatenate([huge, np.random.default_rng(0).uniform(-1.0, 1.0, 100_000) * 1e20])
        p = mode.period
        for fn, low in ((canonicalize, 0.0), (wrap_diff, -p / 2)):
            out = fn(xs, mode)
            assert np.all((out >= low) & (out < low + p))
            for x in huge:
                assert low <= fn(x, mode) < low + p

    def test_wrap_diff_values(self):
        # frozen spot checks of delta - P*floor(0.5 + delta/P)
        assert wrap_diff(0.4, NEM) == pytest.approx(0.4)
        assert wrap_diff(2.0, NEM) == pytest.approx(2.0 - math.pi)
        assert wrap_diff(-math.pi / 2, NEM) == pytest.approx(-math.pi / 2)
        # the interval is half-open: +P/2 maps back to -P/2
        assert wrap_diff(math.pi / 2, NEM) == pytest.approx(-math.pi / 2)
        assert wrap_diff(3.5, POL) == pytest.approx(3.5 - 2 * math.pi)


def edge_robustness(ti, tj, mode):
    """Robustness of the first edge, ti to tj, of the 2-vertex cycle (ti, tj)."""
    return winding(np.stack([ti, tj]), mode)[3][0]


class TestEdgeRobustness:
    def test_frozen_example(self):
        assert edge_robustness(0.1, 0.5, NEM) == pytest.approx(1.1707963267948966, abs=1e-15)

    def test_matches_brute_force_min_over_k(self):
        rng = np.random.default_rng(42)
        for mode in (NEM, POL):
            p = mode.period
            ti = rng.uniform(0, p, 300)
            tj = rng.uniform(0, p, 300)
            ks = np.arange(-6, 7)
            brute = np.min(np.abs((tj - ti)[:, None] - p / 2 - ks[None, :] * p), axis=1)
            assert np.allclose(edge_robustness(ti, tj, mode), brute, atol=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(7)
        ti = rng.uniform(-10, 10, 500)
        tj = rng.uniform(-10, 10, 500)
        for mode in (NEM, POL):
            r = edge_robustness(ti, tj, mode)
            assert np.allclose(r, edge_robustness(tj, ti, mode), atol=1e-12)
            assert np.all((r >= 0.0) & (r <= mode.period / 2))

    def test_extremes(self):
        # equal angles are maximally robust; a quarter-turn apart is fragile
        assert edge_robustness(1.0, 1.0, NEM) == pytest.approx(math.pi / 2)
        assert edge_robustness(0.0, math.pi / 2, NEM) == pytest.approx(0.0, abs=1e-15)


class TestOrientationField:
    def test_canonicalizes_and_freezes(self):
        f = OrientationField.from_angles([[0.0, -0.1], [4.0, math.pi]], mode=NEM)
        assert f.angles[0, 1] == pytest.approx(math.pi - 0.1)
        assert f.angles[1, 1] == pytest.approx(0.0)
        with pytest.raises(ValueError):
            f.angles[0, 0] = 1.0

    def test_compares_and_hashes_by_identity(self):
        z = np.zeros((2, 2))
        f, g = OrientationField.from_angles(z), OrientationField.from_angles(z)
        assert f == f and f != g and hash(f) == hash(f)
        assert {f: 1, g: 2}[f] == 1
        assert np.array_equal(f.angles, g.angles)

    def test_shape_and_h_validation(self):
        with pytest.raises(ValueError):
            OrientationField(h=1.0, mode=NEM, angles=np.zeros(5))
        with pytest.raises(ValueError):
            OrientationField.from_angles(np.zeros((2, 2)), h=0.0)
        with pytest.raises(ValueError, match="finite"):
            OrientationField.from_angles(np.zeros((2, 2)), h=math.inf)
        with pytest.raises(ValueError):
            OrientationField.from_angles(np.zeros((1, 5)))


class TestLatticePath:
    def test_unit_cell_cycle(self):
        p = LatticePath(((0, 0), (1, 0), (1, 1), (0, 1)))
        assert p.edge(3) == ((0, 1), (0, 0))

    def test_rejects_diagonal_and_repeat(self):
        with pytest.raises(InvalidPath, match="not lattice 4-neighbors"):
            LatticePath(((0, 0), (1, 0), (2, 1), (1, 1)))
        with pytest.raises(InvalidPath, match="revisits"):
            LatticePath(((0, 0), (1, 0), (0, 0), (0, 1)))

    def test_closing_step_validated(self):
        # every listed step is a unit step; only the implicit (2, 1) -> (0, 0) is not
        with pytest.raises(InvalidPath, match=r"\(2, 1\) and \(0, 0\)"):
            LatticePath(((0, 0), (1, 0), (2, 0), (2, 1)))
        # (1, 0) -> (0, 0) closes a unit step too, but the cycle encloses nothing
        with pytest.raises(InvalidPath, match="at least 4 vertices"):
            LatticePath(((0, 0), (1, 0)))

    def test_translated(self):
        p = LatticePath(((0, 0), (1, 0), (1, 1), (0, 1)))
        assert p.translated((3, -1)).vertices == ((3, -1), (4, -1), (4, 0), (3, 0))


def _vortex_field(q, n=8, center=(3.4, 3.6), mode=NEM, phase=0.3):
    xs = np.arange(n) - center[0]
    ys = np.arange(n) - center[1]
    phi = np.arctan2(ys[:, None], xs[None, :])
    return OrientationField.from_angles(q * phi + phase, mode=mode)


UNIT_SQUARE = LatticePath(((3, 3), (4, 3), (4, 4), (3, 4)))


class TestEstimateCharge:
    @pytest.mark.parametrize("q,mode", [(0.5, NEM), (-0.5, NEM), (1.0, POL), (-1.0, POL)])
    def test_recovers_enclosed_charge(self, q, mode):
        f = _vortex_field(q, mode=mode)
        est = estimate_charge(f, UNIT_SQUARE)
        assert float(est.charge) == q
        assert abs(est.residual) < 1e-12
        assert est.anchor == (3.5, 3.5)

    def test_far_loop_sees_zero(self):
        f = _vortex_field(0.5)
        loop = LatticePath(((6, 6), (7, 6), (7, 7), (6, 7)))
        assert estimate_charge(f, loop).charge == 0

    def test_orientation_flips_sign(self):
        f = _vortex_field(0.5)
        est_ccw = estimate_charge(f, UNIT_SQUARE)
        est_cw = estimate_charge(f, LatticePath(UNIT_SQUARE.vertices[::-1]))
        assert est_cw.charge == -est_ccw.charge

    def test_residual_always_tiny(self):
        # the raw winding sum telescopes to an exact multiple of P, so the
        # residual is pure floating-point noise on any field
        rng = np.random.default_rng(11)
        for mode in (NEM, POL):
            for _ in range(20):
                f = OrientationField.from_angles(
                    rng.uniform(0, mode.period, (8, 8)), mode=mode)
                est = estimate_charge(f, UNIT_SQUARE)
                assert abs(est.residual) < 1e-12

    def test_path_validation(self):
        f = _vortex_field(0.5)
        with pytest.raises(InvalidPath, match=r"leaves the field of 8x8 vertices \(margin 0\)"):
            estimate_charge(f, UNIT_SQUARE.translated((10, 0)))
        with pytest.raises(InvalidPath, match="leaves the field"):
            path_robustness(f, UNIT_SQUARE.translated((0, -4)))


class TestPathRobustness:
    def test_per_edge_matches_edge_robustness(self):
        f = _vortex_field(0.5)
        rep = path_robustness(f, UNIT_SQUARE)
        assert rep.per_edge.shape == (4,)
        for k in range(4):
            (i0, j0), (i1, j1) = UNIT_SQUARE.edge(k)
            expected = edge_robustness(f.angles[j0, i0], f.angles[j1, i1], NEM)
            assert rep.per_edge[k] == pytest.approx(expected, abs=1e-15)
        assert rep.path_robustness == pytest.approx(float(rep.per_edge.min()))
        assert rep.min_edge in [UNIT_SQUARE.edge(k) for k in range(4)]

    def test_constant_field_is_maximally_robust(self):
        f = OrientationField.from_angles(np.full((5, 5), 0.7), mode=NEM)
        rep = path_robustness(f, UNIT_SQUARE.translated((-2, -2)))
        assert rep.path_robustness == pytest.approx(math.pi / 2)

    @pytest.mark.parametrize("mode", [NEM, POL])
    def test_cell_one_ulp_below_the_wrap(self, mode):
        # the true winding is 0 and the weakest edge is one ulp from the wrap
        angles = np.zeros((2, 2))
        angles[0, 1] = np.nextafter(mode.period / 2, 0)
        f = OrientationField.from_angles(angles, mode=mode)
        cell = LatticePath(((0, 0), (1, 0), (1, 1), (0, 1)))
        for path in (cell, LatticePath(cell.vertices[::-1])):
            est = estimate_charge(f, path)
            assert est.charge == 0
            assert est.path_robustness == mode.period / 2 - angles[0, 1] > 0.0


class TestOneEstimate:
    def test_one_winding_call_gives_charge_and_robustness(self):
        assert path_robustness is estimate_charge
        assert "RobustnessReport" not in defect_robust.__all__
        f = _vortex_field(0.5)
        est = estimate_charge(f, UNIT_SQUARE)
        # UNIT_SQUARE's vertices (i, j) index angles[j, i]
        raw, k, residual, per_edge = winding(f.angles[[3, 3, 4, 4], [3, 4, 4, 3]], NEM)
        assert est.charge == Fraction(int(k), 2) == Fraction(1, 2)
        assert (est.raw_sum, est.residual) == (raw, residual)
        assert np.array_equal(est.per_edge, per_edge) and not est.per_edge.flags.writeable
        assert est.path_robustness == per_edge.min()
        assert est.min_edge == UNIT_SQUARE.edge(int(np.argmin(per_edge)))
        assert est.path is UNIT_SQUARE and est.anchor == (3.5, 3.5)

    def test_estimates_compare_and_hash_by_value(self):
        f = _vortex_field(0.5)
        a, b = estimate_charge(f, UNIT_SQUARE), estimate_charge(f, UNIT_SQUARE)
        assert a.per_edge is not b.per_edge
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != estimate_charge(f, UNIT_SQUARE.translated((1, 0)))
        # one path, one charge, raw sum and residual; the per-edge robustness differs
        cell = LatticePath(((0, 0), (1, 0), (1, 1), (0, 1)))
        gentle, steep = (estimate_charge(OrientationField.from_angles([[0.0, s], [s, 2 * s]]), cell)
                         for s in (0.1, 0.2))
        assert (gentle.charge, gentle.raw_sum, gentle.residual) == (steep.charge, steep.raw_sum, steep.residual)
        assert gentle != steep and gentle.path_robustness > steep.path_robustness


class TestWinding:
    @pytest.mark.parametrize("mode", [NEM, POL])
    def test_batch_matches_single_path_functions(self, mode):
        path = builtin_template("3x3ext").boundary.translated((1, 1))
        ii = np.array([v[0] for v in path.vertices])
        jj = np.array([v[1] for v in path.vertices])
        rng = np.random.default_rng(5)
        theta = rng.uniform(0, mode.period, (len(ii), 300))
        raw, k, residual, per_edge = winding(theta, mode)
        assert k.dtype == np.int64 and per_edge.shape == theta.shape
        for n, column in enumerate(theta.T):
            angles = np.zeros((jj.max() + 2, ii.max() + 2))
            angles[jj, ii] = column
            field = OrientationField.from_angles(angles, mode=mode)
            est = estimate_charge(field, path)
            assert est.charge * mode.periods_per_turn == k[n]
            assert est.raw_sum == raw[n] and est.residual == residual[n]
            assert np.array_equal(est.per_edge, per_edge[:, n])
            assert est.min_edge == path.edge(int(np.argmin(per_edge[:, n])))
        assert len(set(k.tolist())) > 3

    @pytest.mark.parametrize("mode", [NEM, POL])
    @pytest.mark.parametrize("nv", [4, 8, 12, 20])
    @pytest.mark.parametrize("batch", [(), (1,), (37,), (5, 7)])
    def test_vertex_first_layout_matches_last_axis_reference(self, mode, nv, batch):
        rng = np.random.default_rng(nv)
        # Several draws, so that a pairwise sum of a 1-D path shows in some of them.
        for _ in range(20):
            theta = rng.uniform(0, mode.period, (nv,) + batch)
            raw, k, residual, per_edge = winding(theta, mode)
            # The last-axis formulas, on the transposed array.
            t = np.moveaxis(theta, 0, -1)
            d = np.empty_like(t)
            d[..., :-1] = t[..., 1:] - t[..., :-1]
            d[..., -1] = t[..., 0] - t[..., -1]
            d = wrap_diff(d, mode)
            raw_ref = np.sum(d, axis=-1)
            k_ref = np.rint(raw_ref / mode.period).astype(np.int64)
            per_edge_ref = np.moveaxis(mode.period / 2.0 - np.abs(d), -1, 0)
            assert np.shape(raw) == np.shape(k) == np.shape(residual) == batch
            assert np.array_equal(k, k_ref)
            assert per_edge.shape == theta.shape and np.array_equal(per_edge, per_edge_ref)
            running = d[..., 0]
            for e in range(1, nv):
                running = running + d[..., e]
            assert np.array_equal(raw, running)
            assert np.allclose(raw, raw_ref, rtol=0.0, atol=1e-12)
            assert np.array_equal(residual, raw - k * mode.period)

    def test_residual_at_tolerance_raises(self):
        # at 1e12 rad the wrapped differences keep only ~1e-4 rad of precision,
        # so the sum misses a whole number of periods by about 8.9e-6
        with pytest.raises(QuantizationFailure, match="residual 8.9"):
            winding(np.array([0.0, 1e12 + 0.3, 2e12 + 0.1, 0.5]), NEM)
