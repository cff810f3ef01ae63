"""Theoretical intervals, Monte Carlo sweeps, ranking, convergence."""
import dataclasses
import importlib
import json
import math
import typing
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
    run_sweep,
    synth_defect_field,
    theoretical_interval,
)
from defect_robust import experiments
from defect_robust.experiments import _centers_per_chunk

NEM = PeriodMode.NEMATIC
HALF = Fraction(1, 2)
# Non-convex; its sampling square [0.6, 1.6]^2 holds the reflex vertex (1, 1).
ELL = Template("ell", {(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)})


def _name(template):
    return template.name


def _oracle_grid(template, density):
    """The oracle's grid of centers, less the points on a path vertex."""
    verts = np.asarray(template.boundary.vertices, dtype=float)
    gx, gy = np.meshgrid(*(experiments._oracle_axis(c, density) for c in template.centroid))
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    return grid[~np.any((grid[:, None, 0] == verts[:, 0]) & (grid[:, None, 1] == verts[:, 1]), axis=1)]


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
            rep = estimate_charge(f, t.boundary.translated(off))
            assert r[k] == pytest.approx(rep.path_robustness, abs=1e-12)

    def test_square1_centroid_value(self):
        r = analytic_path_robustness(builtin_template("single"), [(0.5, 0.5)], HALF)
        assert r[0] == pytest.approx(math.pi / 4)


@pytest.mark.parametrize("charge, mode, message", [
    (Fraction(1, 3), NEM, "nematic charge must be a multiple of 1/2, got 1/3"),
    (Fraction(1, 2), PeriodMode.POLAR, "polar charge must be a multiple of 1, got 1/2"),
    ("1e400", NEM, "charge of about 1e400 is too large for a float"),
    ("1.7e308", NEM, r"charge 1.7e\+308 is too large: \|q\|\*pi is not a finite float"),
    (math.inf, NEM, "invalid charge inf: "),
    (math.nan, PeriodMode.POLAR, "invalid charge nan: "),
], ids=["nematic-1/3", "polar-1/2", "1e400", "1.7e308", "inf", "nan"])
def test_every_charge_entry_point_applies_one_rule(charge, mode, message):
    # analytic_path_robustness read a nematic 1/3 as 1/2 and returned [0.]; 1e400
    # raised OverflowError from float(Fraction) in every other entry point; a DefectSpec
    # keeps its charge as given, so inf and nan reach the one rule as the other inputs do
    single = builtin_template("single")
    for call in (lambda: analytic_path_robustness(single, [(0.5, 0.5)], charge, mode),
                 lambda: theoretical_interval(single, charge, mode, oracle_density=3),
                 lambda: convergence_study(charge, [1], mode, oracle_density=3),
                 lambda: synth_defect_field(DefectSpec(charge=charge, center=(3.3, 3.4)), 8, 8, mode=mode),
                 lambda: SweepConfig(templates=("single",), charge=charge, mode=mode)):
        with pytest.raises(ValueError, match=message):
            call()


class TestTheoreticalInterval:
    def test_bounds_are_ordered_and_in_range(self):
        for name in BUILTIN_TEMPLATE_NAMES:
            iv = theoretical_interval(builtin_template(name), HALF, oracle_density=60)
            assert 0.0 <= iv.lower <= iv.upper <= math.pi / 2 + 1e-12
            assert iv.n_oracle_samples > 0

    def test_lower_is_zero_where_a_centre_sees_an_edge_at_the_wrap(self):
        single = builtin_template("single")
        assert theoretical_interval(single, 1, NEM).lower == 0.0
        for q in (2, -2):
            assert theoretical_interval(single, q, PeriodMode.POLAR, oracle_density=301).lower == 0.0

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
            xs, ys = (experiments._oracle_axis(c, density) for c in t.centroid)
            step = _centers_per_chunk(len(t.boundary.vertices))
            assert len(xs) * len(ys) > 2 * step and len(xs) * len(ys) % step != 0
            r = analytic_path_robustness(t, _oracle_grid(t, density), HALF)
            iv = theoretical_interval(t, HALF, oracle_density=density)
            assert (iv.lower, iv.upper, iv.n_oracle_samples) == (r.min(), r.max(), len(r))

    @pytest.mark.parametrize("template", [builtin_template("square(1)"), builtin_template("2x2"), ELL], ids=_name)
    @pytest.mark.parametrize("mode, q", [(NEM, Fraction(-3, 2)), (NEM, Fraction(5, 2)),
                                         (PeriodMode.POLAR, Fraction(1)), (PeriodMode.POLAR, Fraction(-2))], ids=str)
    def test_skipped_tiles_change_no_bit(self, template, mode, q):
        # At -3/2 and 5/2 robustness reaches 0 inside the square, on square(1) along
        # whole sides; 131 points per axis leave partial tiles at every tile side.
        for density in (2, 3, 131):
            r = analytic_path_robustness(template, _oracle_grid(template, density), q, mode)
            iv = theoretical_interval(template, q, mode, oracle_density=density)
            assert (iv.lower, iv.upper, iv.n_oracle_samples) == (r.min(), r.max(), len(r))

    @pytest.mark.parametrize("name", ["single", "cross"])
    @pytest.mark.parametrize("q", [1e305, 5e307], ids=str)
    def test_huge_charges_evaluate_every_unbounded_tile(self, name, q):
        # |q| times the view-angle gradient overflows: the slack is inf, or nan on
        # a one-point tile, and such a tile was never evaluated (single at 5e307
        # read 0.0899 against the grid's 0.000216)
        t = builtin_template(name)
        r = analytic_path_robustness(t, _oracle_grid(t, 21), q)
        iv = theoretical_interval(t, q, oracle_density=21)
        assert (iv.lower, iv.upper, iv.n_oracle_samples) == (r.min(), r.max(), len(r))

    @pytest.mark.parametrize("template", [builtin_template("single"), builtin_template("cross"), ELL], ids=_name)
    @pytest.mark.parametrize("mode, q", [(NEM, HALF), (NEM, Fraction(5, 2)), (PeriodMode.POLAR, Fraction(-2))], ids=str)
    def test_tile_slack_bounds_every_point_of_the_tile(self, template, mode, q):
        rng = np.random.default_rng(7)
        verts = np.asarray(template.boundary.vertices, dtype=float)
        xs, ys = (experiments._oracle_axis(c, 131) for c in template.centroid)
        for _ in range(60):
            side = rng.choice([2, 4, 5, 16])
            i0, j0 = rng.integers(0, len(xs) - 1, size=2)
            i1, j1 = min(i0 + side, len(xs)) - 1, min(j0 + side, len(ys)) - 1
            im, jm = rng.integers(i0, i1 + 1), rng.integers(j0, j1 + 1)
            tile = [np.array([v]) for v in (xs[i0], xs[i1], ys[j0], ys[j1], xs[im], ys[jm])]
            (slack,), (holds_vertex,) = experiments._tile_slack(verts, float(q), *tile)
            holds = np.any((xs[i0] <= verts[:, 0]) & (verts[:, 0] <= xs[i1])
                           & (ys[j0] <= verts[:, 1]) & (verts[:, 1] <= ys[j1]))
            assert holds == holds_vertex == (slack == math.inf)
            if holds:
                continue
            gx, gy = np.meshgrid(xs[i0:i1 + 1], ys[j0:j1 + 1])
            r = analytic_path_robustness(template, np.column_stack([gx.ravel(), gy.ravel()]), q, mode)
            r_rep = analytic_path_robustness(template, [(xs[im], ys[jm])], q, mode)[0]
            assert np.all(np.abs(r - r_rep) <= slack + 1e-12)

    def test_density_validation(self):
        with pytest.raises(ValueError):
            theoretical_interval(builtin_template("single"), HALF, oracle_density=1)


def _small_config(**kw):
    defaults = dict(templates=("single", "2x2", "cross"), n_centers=300,
                    noise_amplitudes=(0.0, 0.2), n_noise_realizations=3)
    defaults.update(kw)
    return SweepConfig(**defaults)


def _centre_square(template):
    """The centre of the unit square a sweep on a 32 x 32 grid draws ``template``'s centers from."""
    offset = center_offset(template, 32, 32)
    return template.centroid[0] + offset[0], template.centroid[1] + offset[1]


def _union_chunk(names, n_noise_realizations):
    """Centers per chunk of a sweep of ``names`` on a 32 x 32 grid, for the
    templates that share the first one's centre square: the chunk budget
    counts their union of path vertices."""
    templates = [builtin_template(n) for n in names]
    square = _centre_square(templates[0])
    vertices = {v for t in templates if _centre_square(t) == square
                for v in t.boundary.translated(center_offset(t, 32, 32)).vertices}
    return _centers_per_chunk(n_noise_realizations * len(vertices))


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

    def test_results_and_blocks_compare_by_identity(self):
        r1 = run_sweep(_small_config(n_centers=5))
        r2 = run_sweep(_small_config(n_centers=5))
        assert r1 == r1 and r1 != r2
        blk = r1.block("2x2", 0.2)
        assert blk == blk and blk != r2.block("2x2", 0.2)
        assert {blk: "2x2"}[blk] == "2x2"

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

    @pytest.mark.parametrize("mode, charge, amplitude", [(NEM, HALF, 0.2), (PeriodMode.POLAR, -1, 0.5)],
                             ids=["nematic", "polar"])
    def test_matches_public_field_pipeline(self, mode, charge, amplitude):
        # sweeping via path-vertex evaluation equals synthesizing the field,
        # adding noise, and measuring -- bit for bit, also for every template
        # of a sweep that shares its vertices and edges between templates, on
        # both sides of each edge of the shared centre square's chunks and at
        # the last centre of a partial chunk, in both modes
        names = BUILTIN_TEMPLATE_NAMES + ("square(5)",)
        chunk = _union_chunk(names, 3)
        n_last = 2 * chunk + 5
        for templates, n_centers, indices in ((("cross",), 4, range(4)),
                                              (names, n_last, (0, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk,
                                                               n_last - 1))):
            cfg = _small_config(templates=templates, n_centers=n_centers, noise_amplitudes=(0.0, amplitude),
                                mode=mode, charge=charge)
            res = run_sweep(cfg)
            for t in res.config.templates:
                path = t.boundary.translated(center_offset(t, 32, 32))
                clean = res.block(t.name, 0.0)
                noisy = res.block(t.name, amplitude)
                for i in indices:
                    f = synth_defect_field(DefectSpec(charge=charge,
                                                      center=(clean.center_x[i], clean.center_y[i])),
                                           32, 32, mode=mode)
                    est = estimate_charge(f, path)
                    assert (est.path_robustness, float(est.charge)) == (clean.robustness[i], clean.charge[i])
                    for r in range(cfg.n_noise_realizations):
                        g = add_noise(f, NoiseSpec(amplitude=amplitude, seed=derive_seed(0, 3, i, r)))
                        j = i * cfg.n_noise_realizations + r
                        est = estimate_charge(g, path)
                        assert (est.path_robustness, float(est.charge)) == (noisy.robustness[j], noisy.charge[j])

    @pytest.mark.parametrize("mode, charge", [(NEM, HALF), (PeriodMode.POLAR, -1)])
    def test_a_templates_samples_do_not_depend_on_the_other_templates(self, mode, charge):
        # square(5) shares the centre square of single, cross, 3x3 and 3x3ext
        # (and 3x3ext's arm tips); 2x2 and square(4) each have their own
        names = BUILTIN_TEMPLATE_NAMES + ("square(5)", "square(4)")
        chunk = _union_chunk(names, 3)
        n_centers = 2 * chunk + chunk // 2 + 1
        assert n_centers < _union_chunk(("2x2",), 3)  # the 2x2 square is one chunk

        def sweep(templates):
            return run_sweep(SweepConfig(templates=templates, n_centers=n_centers, noise_amplitudes=(0.0, 0.3),
                                         n_noise_realizations=3, mode=mode, charge=charge, oracle_density=3))

        together = sweep(names)
        squares = {}
        for t in together.config.templates:
            alone = sweep((t.name,))
            for amplitude in (0.0, 0.3):
                blk, ref = together.block(t.name, amplitude), alone.block(t.name, amplitude)
                for field in ("winding", "robustness", "centers"):
                    assert np.array_equal(getattr(blk, field), getattr(ref, field)), (t.name, amplitude, field)
                # co-centred templates share one centers array
                assert blk.centers is squares.setdefault(_centre_square(t), blk.centers)
        assert len({id(c) for c in squares.values()}) == len(squares) == 3
        shared = together.block("single", 0.0).centers
        assert [n for n in names if together.block(n, 0.0).centers is shared] == [
            "single", "cross", "3x3", "3x3ext", "square(5)"]

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

    @pytest.mark.parametrize("cells, dtype", [(126, np.int8), (127, np.int16)])
    def test_winding_type_holds_half_the_vertex_count(self, cells, dtype):
        # a 1 x n strip has nv = 2n + 2 vertices: 254 fits int8, 256 needs int16 for +128
        strip = Template(f"strip{cells}", {(a, 0) for a in range(cells)})
        nv = len(strip.boundary.vertices)
        assert nv == 2 * cells + 2
        res = run_sweep(SweepConfig(templates=(strip,), n_centers=5, noise_amplitudes=(0.0, 0.2),
                                    n_noise_realizations=2, nx=cells + 5, ny=6, oracle_density=3))
        for amp in (0.0, 0.2):
            blk = res.block(strip.name, amp)
            assert blk.winding.dtype == dtype
            assert np.iinfo(blk.winding.dtype).max >= nv // 2
        assert res.agreement(strip.name, 0.0) == 1.0

    @pytest.mark.parametrize("mode, charge", [(NEM, HALF), (PeriodMode.POLAR, -1)])
    def test_builtin_counts_are_one_byte_and_charge_derives_from_them(self, mode, charge):
        res = run_sweep(SweepConfig(templates=BUILTIN_TEMPLATE_NAMES, n_centers=50, noise_amplitudes=(0.0, 1.0),
                                    n_noise_realizations=3, mode=mode, charge=charge, oracle_density=3))
        for blk in res.blocks.values():
            assert blk.winding.itemsize == 1
            assert blk.periods_per_turn == mode.periods_per_turn
            assert blk.charge.dtype == np.float64
            assert np.array_equal(blk.charge, blk.winding / mode.periods_per_turn)
            assert res.agreement(blk.template, blk.amplitude) == np.mean(blk.charge == float(charge))

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
        ell = Template("ell", {(a, 0) for a in range(8)} | {(0, b) for b in range(1, 8)})
        with pytest.raises(ValueError, match="'ell'"):
            _small_config(templates=(ell,), nx=11, ny=11)


@pytest.mark.parametrize("field, value", [
    ("n_centers", 2.7), ("n_noise_realizations", True), ("nx", 32.0),
    ("templates", "single"), ("templates", ("single", 3)),
    ("noise_amplitudes", (True,)), ("noise_amplitudes", (math.nan,)), ("noise_amplitudes", (math.inf,)),
    ("noise_amplitudes", (2.0,)),  # at or above P/2 = 1.571, as add_noise rejects it
    ("oracle_density", 1), ("mode", "circular"), ("charge", True),
    ("h", math.inf), ("h", 0.0), ("h", 1e308),  # the far corner 31e308 of the 32x32 grid overflows
    # one block per (template name, amplitude value)
    ("templates", ()), ("noise_amplitudes", ()),
    ("templates", ("2x2", "2x2")), ("templates", ("single", " SINGLE")), ("templates", (ELL, "cross", ELL)),
    ("templates", ("cross", Template("cross", {(0, 0)}))),  # two cell sets, one name
    ("noise_amplitudes", (0.0, -0.0)), ("noise_amplitudes", (0.2, 0, 0.2)), ("noise_amplitudes", (0, 0.0)),
])
def test_config_rejects_bad_fields(field, value):
    # built directly, as library callers and the benchmark build it, not through the JSON
    with pytest.raises(ValueError, match=f"'{field}'"):
        _small_config(**{field: value})


def test_config_json_round_trip():
    cfg = SweepConfig(templates=("cross", "3x3"), n_centers=7, noise_amplitudes=(0.5, 3.0),
                      n_noise_realizations=4, base_seed=9, nx=20, ny=24, h=0.5, mode=PeriodMode.POLAR,
                      charge=-1, oracle_density=31)
    default = SweepConfig()
    assert default.templates == tuple(map(builtin_template, BUILTIN_TEMPLATE_NAMES))
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


@pytest.mark.parametrize("module", ["core", "experiments", "synthesis", "templates", "fieldio"])
def test_dataclasses_holding_arrays_compare_by_identity(module):
    # numpy's elementwise == makes a generated __eq__ raise on any two
    # instances, and with it the __eq__ of every dataclass holding one
    module = importlib.import_module(f"defect_robust.{module}")
    for cls in vars(module).values():
        if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__:
            hints = typing.get_type_hints(cls)
            if any(hints[f.name] is np.ndarray for f in dataclasses.fields(cls)):
                assert not cls.__dataclass_params__.eq, cls.__name__


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
                float(np.min(blk.robustness)) / builtin_template(e.template).resolution)


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
