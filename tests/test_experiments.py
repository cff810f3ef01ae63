"""Theoretical intervals, Monte Carlo sweeps, ranking, convergence."""
import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from defect_robust import (
    BUILTIN_TEMPLATE_NAMES,
    DefectSpec,
    NoiseSpec,
    PeriodMode,
    SweepConfig,
    SweepFailure,
    Template,
    add_noise,
    analytic_path_robustness,
    builtin_template,
    center_offset,
    convergence_study,
    derive_seed,
    estimate_charge,
    normalize_and_rank,
    path_robustness,
    run_sweep,
    synth_defect_field,
    theoretical_interval,
)
from defect_robust import experiments
from defect_robust.experiments import _centers_per_chunk

NEM = PeriodMode.NEMATIC
HALF = Fraction(1, 2)


class TestAnalyticRobustness:
    def test_matches_synthesized_field(self):
        # the analytic per-edge formula must agree with building the field
        # and measuring it
        t = builtin_template("2x2")
        centers = np.array([[0.73, 1.21], [1.49, 0.51], [1.03, 0.97]])
        r = analytic_path_robustness(t, centers, HALF)
        off = center_offset(t, 16, 16)
        for k, c in enumerate(centers):
            cx, cy = c[0] + off[0], c[1] + off[1]
            f = synth_defect_field(DefectSpec(charge=HALF, center=(cx, cy)), 16, 16)
            rep = path_robustness(f, t.boundary.translated(off))
            assert r[k] == pytest.approx(rep.path_robustness, abs=1e-12)

    def test_square1_centroid_value(self):
        r = analytic_path_robustness(builtin_template("single"), [(0.5, 0.5)], HALF)
        assert r[0] == pytest.approx(math.pi / 4)


class TestTheoreticalInterval:
    def test_bounds_are_ordered_and_in_range(self):
        for name in BUILTIN_TEMPLATE_NAMES:
            iv = theoretical_interval(builtin_template(name), HALF, oracle_density=60)
            assert 0.0 <= iv.lower <= iv.upper <= math.pi / 2 + 1e-12
            assert iv.n_oracle_samples > 0

    def test_lower_bound_ordering(self):
        # larger templates keep the defect farther from the path
        low = {n: theoretical_interval(builtin_template(n), HALF, oracle_density=120).lower
               for n in ("single", "2x2", "3x3")}
        assert low["3x3"] > low["2x2"] > low["single"]

    def test_refinement_only_widens(self):
        for name in ("2x2", "cross"):
            t = builtin_template(name)
            coarse = theoretical_interval(t, HALF, oracle_density=51)
            fine = theoretical_interval(t, HALF, oracle_density=101)
            assert fine.lower <= coarse.lower + 1e-12
            assert fine.upper >= coarse.upper - 1e-12

    def test_excluded_points_are_the_path_vertices(self):
        # density 3: the sampling square's corners, side midpoints and centroid;
        # all four corners of single and cross are path vertices, while 2x2's
        # centroid (1, 1) is a lattice point inside the path
        for name, count in (("single", 5), ("2x2", 9), ("cross", 5)):
            assert theoretical_interval(builtin_template(name), HALF, oracle_density=3).n_oracle_samples == count

    def test_matches_the_full_grid_without_path_vertices(self):
        density = 301
        for name in BUILTIN_TEMPLATE_NAMES:
            t = builtin_template(name)
            verts = np.asarray(t.boundary.vertices, dtype=float)
            xs, ys = (experiments._oracle_axis(c, density) for c in t.centroid)
            step = _centers_per_chunk(len(verts))
            assert len(xs) * len(ys) > 2 * step and len(xs) * len(ys) % step != 0
            gx, gy = np.meshgrid(xs, ys)
            grid = np.column_stack([gx.ravel(), gy.ravel()])
            on_vertex = np.any((grid[:, None, 0] == verts[:, 0]) & (grid[:, None, 1] == verts[:, 1]), axis=1)
            r = analytic_path_robustness(t, grid[~on_vertex], HALF)
            iv = theoretical_interval(t, HALF, oracle_density=density)
            assert (iv.lower, iv.upper, iv.n_oracle_samples) == (r.min(), r.max(), len(r))

    def test_density_validation(self):
        with pytest.raises(ValueError):
            theoretical_interval(builtin_template("single"), HALF, oracle_density=1)


def _small_config(**kw):
    defaults = dict(templates=("single", "2x2", "cross"), n_centers=300,
                    noise_amplitudes=(0.0, 0.2), n_noise_realizations=3)
    defaults.update(kw)
    return SweepConfig(**defaults)


class TestRunSweep:
    def test_block_shapes_and_determinism(self):
        cfg = _small_config()
        res1 = run_sweep(cfg)
        res2 = run_sweep(_small_config())
        for (name, amp), blk in res1.blocks.items():
            n = cfg.n_centers * (1 if amp == 0.0 else cfg.n_noise_realizations)
            assert len(blk.robustness) == n
            assert np.array_equal(blk.robustness, res2.blocks[(name, amp)].robustness)
            assert np.array_equal(blk.center_x, res2.blocks[(name, amp)].center_x)

    def test_seed_changes_samples(self):
        a = run_sweep(_small_config())
        b = run_sweep(_small_config(base_seed=1))
        blk_a = a.block("2x2", 0.0)
        blk_b = b.block("2x2", 0.0)
        assert not np.array_equal(blk_a.center_x, blk_b.center_x)

    def test_centers_in_central_unit_square(self):
        res = run_sweep(_small_config())
        for t in res.config.templates:
            off = center_offset(t, 32, 32)
            cx0 = t.centroid[0] + off[0]
            cy0 = t.centroid[1] + off[1]
            blk = res.block(t.name, 0.0)
            assert np.all(np.abs(blk.center_x - cx0) <= 0.5)
            assert np.all(np.abs(blk.center_y - cy0) <= 0.5)

    def test_matches_public_field_pipeline(self):
        # sweeping via path-vertex evaluation equals synthesizing the field,
        # adding noise, and measuring -- bit for bit, also on both sides of a
        # centre-chunk edge and at the last centre of a partial chunk
        most = max(BUILTIN_TEMPLATE_NAMES, key=lambda n: len(builtin_template(n).boundary.vertices))
        chunk = _centers_per_chunk(3 * len(builtin_template(most).boundary.vertices))
        n_last = 2 * chunk + 5
        for name, n_centers, indices in (("cross", 4, range(4)),
                                         (most, n_last, (0, chunk - 1, chunk, n_last - 1))):
            cfg = _small_config(templates=(name,), n_centers=n_centers)
            res = run_sweep(cfg)
            t = res.config.templates[0]
            path = t.boundary.translated(center_offset(t, 32, 32))
            clean = res.block(name, 0.0)
            noisy = res.block(name, 0.2)
            for i in indices:
                f = synth_defect_field(DefectSpec(charge=HALF,
                                                  center=(clean.center_x[i], clean.center_y[i])),
                                       32, 32)
                assert path_robustness(f, path).path_robustness == clean.robustness[i]
                assert float(estimate_charge(f, path).charge) == clean.charge[i]
                for r in range(cfg.n_noise_realizations):
                    g = add_noise(f, NoiseSpec(amplitude=0.2, seed=derive_seed(0, 3, i, r)))
                    j = i * cfg.n_noise_realizations + r
                    assert path_robustness(g, path).path_robustness == noisy.robustness[j]
                    assert float(estimate_charge(g, path).charge) == noisy.charge[j]

    def test_centers_on_a_grid_vertex_are_redrawn(self, monkeypatch):
        # a first draw of 0.5 puts every centre on the 2x2 template's centroid, a grid vertex
        real = experiments.counter_uniform
        seeds = []

        def first_draw_centred(seed, counter):
            seeds.append(seed)
            return np.full(len(counter), 0.5) if len(seeds) <= 2 else real(seed, counter)

        monkeypatch.setattr(experiments, "counter_uniform", first_draw_centred)
        res = run_sweep(_small_config(templates=("2x2",), noise_amplitudes=(0.0,)))
        assert len(seeds) == 4  # the first draw and one redraw, per axis
        blk = res.block("2x2", 0.0)
        t = res.config.templates[0]
        off = center_offset(t, 32, 32)
        index = np.arange(res.config.n_centers)
        for axis, centers in ((0, blk.center_x), (1, blk.center_y)):
            redraw = real(derive_seed(0, axis + 1, 1), index)  # stream tags 1 (x) and 2 (y), retry 1
            assert np.array_equal(centers, (t.centroid[axis] + off[axis]) + (redraw - 0.5))

        seeds.clear()
        monkeypatch.setattr(experiments, "counter_uniform",
                            lambda seed, counter: seeds.append(seed) or np.full(len(counter), 0.5))
        with pytest.raises(SweepFailure, match="100 retries"):
            run_sweep(_small_config(templates=("2x2",), noise_amplitudes=(0.0,)))
        assert len(seeds) == 2 * 101  # the first draw and 100 redraws, per axis

    def test_noise_free_agreement_is_exact(self):
        res = run_sweep(_small_config())
        for t in res.config.templates:
            assert res.agreement(t.name, 0.0) == 1.0

    def test_paired_noise_perturbation_bound(self):
        cfg = _small_config()
        res = run_sweep(cfg)
        for t in cfg.templates:
            clean = np.repeat(res.block(t.name, 0.0).robustness, cfg.n_noise_realizations)
            noisy = res.block(t.name, 0.2).robustness
            assert np.max(np.abs(noisy - clean)) <= 2 * 0.2 + 1e-12

    def test_config_validation(self):
        with pytest.raises(ValueError):
            _small_config(n_centers=0)
        with pytest.raises(ValueError):
            _small_config(noise_amplitudes=(-0.1,))
        with pytest.raises(ValueError):
            _small_config(charge=Fraction(1, 3))
        with pytest.raises(ValueError):
            _small_config(templates=("3x3ext",), nx=6, ny=6)  # no 1-cell margin
        # its boundary spans 8x8, so it fits 11x11 by size, but its centroid lies
        # off the bounding-box centre and the central placement crosses the margin
        ell = Template.from_cells("ell", {(a, 0) for a in range(8)} | {(0, b) for b in range(1, 8)})
        with pytest.raises(ValueError, match="'ell'"):
            _small_config(templates=(ell,), nx=11, ny=11)


@pytest.mark.parametrize("field, value", [
    ("n_centers", 2.7), ("n_noise_realizations", True), ("nx", 32.0),
    ("templates", "single"), ("templates", ("single", 3)),
    ("noise_amplitudes", (True,)), ("noise_amplitudes", (math.nan,)), ("noise_amplitudes", (math.inf,)),
    ("noise_amplitudes", (2.0,)),  # at or above P/2 = 1.571, as add_noise rejects it
    ("oracle_density", 1), ("mode", "circular"), ("charge", True),
    ("h", math.inf), ("h", 0.0),
])
def test_config_rejects_bad_fields(field, value):
    # built directly, as library callers and the benchmark build it, not through the JSON
    with pytest.raises(ValueError, match=f"'{field}'"):
        _small_config(**{field: value})


def test_config_json_round_trip():
    cfg = SweepConfig(templates=("cross", "3x3"), n_centers=7, noise_amplitudes=(0.5, 3.0),
                      n_noise_realizations=4, base_seed=9, nx=20, ny=24, h=0.5, mode=PeriodMode.POLAR,
                      charge=-1, oracle_density=31)
    default = SweepConfig(templates=BUILTIN_TEMPLATE_NAMES)
    for f in dataclasses.fields(SweepConfig):
        assert getattr(cfg, f.name) != getattr(default, f.name), f.name
    text = json.dumps({"templates": [t.name for t in cfg.templates], "n_centers": cfg.n_centers,
                       "noise_amplitudes": list(cfg.noise_amplitudes),
                       "n_noise_realizations": cfg.n_noise_realizations, "base_seed": cfg.base_seed,
                       "grid": {"nx": cfg.nx, "ny": cfg.ny, "h": cfg.h}, "mode": cfg.mode.value,
                       "charge": str(cfg.charge), "oracle_density": cfg.oracle_density})
    back = SweepConfig.from_mapping(json.loads(text))
    for f in dataclasses.fields(SweepConfig):
        assert getattr(back, f.name) == getattr(cfg, f.name), f.name


class TestRanking:
    def test_single_is_last_and_entries_sorted(self):
        res = run_sweep(_small_config())
        rank = normalize_and_rank(res)
        for amp in (0.0, 0.2):
            entries = rank.ranking(amp)
            assert entries[-1].template == "single"
            mins = [e.min_normalized for e in entries]
            assert mins == sorted(mins, reverse=True)
            assert rank.top(amp) == entries[0].template

    def test_normalization_uses_resolution(self):
        res = run_sweep(_small_config())
        rank = normalize_and_rank(res)
        for e in rank.ranking(0.0):
            blk = res.block(e.template, 0.0)
            assert e.min_normalized == pytest.approx(
                float(np.min(blk.robustness)) / e.resolution)


class TestConvergence:
    def test_rows_and_monotone_lower(self):
        rows = convergence_study(HALF, (1, 2, 4, 8), oracle_density=80)
        assert [r.n for r in rows] == [1, 2, 4, 8]
        lows = [r.lower for r in rows]
        assert lows == sorted(lows)
        assert all(0.0 <= r.lower <= r.upper <= math.pi / 2 + 1e-12 for r in rows)

    def test_square1_upper_is_quarter_pi(self):
        # at the cell centroid every edge subtends pi/2, giving pi/2 - q*pi/2;
        # a center on an edge sees that edge at pi, so the lower bound is 0
        rows = convergence_study(HALF, (1,), oracle_density=81)
        assert rows[0].upper == pytest.approx(math.pi / 4)
        assert rows[0].analytic_lower_bound == pytest.approx(0.0)
        assert rows[0].lower == pytest.approx(0.0)

    def test_bound_formula(self):
        rows = convergence_study(HALF, (8,), oracle_density=40)
        expected = math.pi / 2 - 0.5 * math.asin(1.0 / 3.5)
        assert rows[0].analytic_lower_bound == pytest.approx(expected)
        assert rows[0].r_min == pytest.approx(3.5)
