"""Angle arithmetic, path validation, charge quantization, robustness."""
import math

import numpy as np
import pytest

from defect_robust import (
    InvalidAngle,
    InvalidPath,
    LatticePath,
    OrientationField,
    PeriodMode,
    builtin_template,
    canonicalize,
    edge_robustness,
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

    def test_wrap_diff_values(self):
        # frozen spot checks of delta - P*floor(0.5 + delta/P)
        assert wrap_diff(0.4, NEM) == pytest.approx(0.4)
        assert wrap_diff(2.0, NEM) == pytest.approx(2.0 - math.pi)
        assert wrap_diff(-math.pi / 2, NEM) == pytest.approx(-math.pi / 2)
        # the interval is half-open: +P/2 maps back to -P/2
        assert wrap_diff(math.pi / 2, NEM) == pytest.approx(-math.pi / 2)
        assert wrap_diff(3.5, POL) == pytest.approx(3.5 - 2 * math.pi)


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
            assert np.all((r >= 0.0) & (r <= mode.period / 2 + 1e-15))

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


class TestWinding:
    @pytest.mark.parametrize("mode", [NEM, POL])
    def test_batch_matches_single_path_functions(self, mode):
        path = builtin_template("3x3ext").boundary.translated((1, 1))
        ii = np.array([v[0] for v in path.vertices])
        jj = np.array([v[1] for v in path.vertices])
        rng = np.random.default_rng(5)
        theta = rng.uniform(0, mode.period, (300, len(ii)))
        raw, k, residual, per_edge = winding(theta, mode)
        assert k.dtype == np.int64 and per_edge.shape == theta.shape
        for n, row in enumerate(theta):
            angles = np.zeros((jj.max() + 2, ii.max() + 2))
            angles[jj, ii] = row
            field = OrientationField.from_angles(angles, mode=mode)
            est = estimate_charge(field, path)
            rep = path_robustness(field, path)
            assert est.charge * mode.periods_per_turn == k[n]
            assert est.raw_sum == raw[n] and est.residual == residual[n]
            assert np.array_equal(rep.per_edge, per_edge[n])
            assert rep.min_edge == path.edge(int(np.argmin(per_edge[n])))
        assert len(set(k.tolist())) > 3
