"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
``[criterion N] ... PASS/FAIL`` line (run pytest with ``-rA`` or ``-s`` to
see the lines for passing tests as well).

Three criteria assert what the lattice estimator and uniform center
sampling can deliver, not an idealized target:

* criterion 1: each wrapped edge difference lies in [-P/2, P/2), so edge e
  wraps exactly when q*phi_e crosses P/2 (phi_e is the signed view angle of
  e from the defect center), and the estimate is
  q - (P/2pi) * sum_e floor(1/2 + q*phi_e/P).  The test asserts this rule at
  every sampled center, and that the estimate equals q wherever no edge
  wraps.  The recovery rate is printed; it is below 1 for |q| >= 1 on
  ``single`` (a 4-edge path cannot reach nematic +1, +-3/2 or polar +-2) and
  for |q| = 3/2 on ``2x2`` and ``cross``.
* criterion 2: uniform centers cannot be relied on to reach oracle extremes
  whose neighbourhoods carry almost no probability mass (for ``cross`` the
  bottom 1% of the oracle range has mass ~8e-5).  The test asserts that the
  sampled extremes reach the 1e-3 and 0.999 quantiles of robustness under
  the uniform center law; a correct program fails this with probability
  ~(1 - 1e-3)**10000 ~ 5e-5 per end.  The coverage of the oracle range is
  printed per template.
* criterion 4: for square(n), P/2 minus the oracle lower bound is exactly
  |q| * 2*atan(h / (2*R_min)), the view angle of the nearest edge from the
  worst center.  At n = 16 that is ~0.0666 rad, so the convergence to P/2
  is asserted at this rate rather than against a fixed 0.05.
"""
import functools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from defect_robust import (
    BUILTIN_TEMPLATE_NAMES,
    DefectSpec,
    LatticePath,
    OrientationField,
    PeriodMode,
    SweepConfig,
    analytic_path_robustness,
    boundary_of_cells,
    builtin_template,
    center_placement,
    convergence_study,
    estimate_charge,
    normalize_and_rank,
    path_robustness,
    run_sweep,
    synth_defect_field,
    theoretical_interval,
    wrap_diff,
)
from defect_robust.cli import main
from defect_robust.experiments import _centers_per_chunk

NEM = PeriodMode.NEMATIC
POL = PeriodMode.POLAR
HALF = Fraction(1, 2)


def _report(num, label):
    """Print one PASS/FAIL line per criterion, then re-raise on failure."""
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num}] {label}: FAIL", file=sys.stderr)
                raise
            print(f"[criterion {num}] {label}: PASS")
        return wrapper
    return decorator


def _recovery_samples(q, mode, template_name, n_centers=1000, seed=17):
    """Estimated charge, wrap-rule prediction, and wrap flag per random center.

    The prediction is q - (P/2pi) * sum_e floor(1/2 + q*phi_e/P), with phi_e
    the signed view angle of edge e from the center, computed here from
    atan2(cross, dot) independently of ``wrap_diff``.
    """
    t = builtin_template(template_name)
    grid = 24
    f0 = OrientationField(nx=grid, ny=grid, h=1.0, mode=mode,
                          angles=np.zeros((grid, grid)))
    pl = center_placement(t, f0)
    path = pl.path()
    verts = np.asarray(path.vertices, dtype=float)
    turns_per_wrap = Fraction(1, 2) if mode is NEM else Fraction(1)
    cx0 = t.centroid[0] + pl.offset[0]
    cy0 = t.centroid[1] + pl.offset[1]
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n_centers):
        cx = cx0 + rng.uniform(-0.5, 0.5)
        cy = cy0 + rng.uniform(-0.5, 0.5)
        f = synth_defect_field(DefectSpec(charge=q, center=(cx, cy)), grid, grid,
                               mode=mode)
        x0, y0 = verts[:, 0] - cx, verts[:, 1] - cy
        x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
        phi = np.arctan2(x0 * y1 - y0 * x1, x0 * x1 + y0 * y1)
        wraps = np.floor(0.5 + float(q) * phi / mode.period).astype(int)
        predicted = q - turns_per_wrap * int(wraps.sum())
        samples.append((estimate_charge(f, path).charge, predicted, bool(wraps.any())))
    return samples


CHARGE_CASES = [(Fraction(n, 2), NEM) for n in (1, -1, 2, -2, 3, -3)] + \
               [(Fraction(n), POL) for n in (1, -1, 2, -2)]


@pytest.mark.parametrize("template", BUILTIN_TEMPLATE_NAMES)
@pytest.mark.parametrize("q,mode", CHARGE_CASES,
                         ids=[f"{m.value}_{q}" for q, m in CHARGE_CASES])
def test_criterion_1_charge_recovery(q, mode, template):
    samples = _recovery_samples(q, mode, template)
    rate = sum(est == q for est, _, _ in samples) / len(samples)
    rule_misses = sum(est != predicted for est, predicted, _ in samples)
    clean_misses = sum(est != q for est, _, wrapped in samples if not wrapped)
    ok = rule_misses == 0 and clean_misses == 0
    mark = "PASS" if ok else "FAIL"
    print(f"[criterion 1] charge recovery {mode.value} q={q} {template}: "
          f"rate={rate:.3f}: {mark}")
    assert clean_misses == 0, \
        f"{template} missed {mode.value} q={q} at {clean_misses} centers where no edge wraps"
    assert rule_misses == 0, \
        f"{template} {mode.value} q={q}: {rule_misses} estimates disagree with the wrap rule"


def _robustness_quantiles(template, q, mode, probs, density=400):
    """Quantiles of robustness under uniform centers in the sampling square.

    Evaluated on a cell-centred density x density grid of the square.
    """
    cx, cy = template.centroid
    offsets = (np.arange(density) + 0.5) / density - 0.5
    gx, gy = np.meshgrid(cx + offsets, cy + offsets)
    r = analytic_path_robustness(template, np.stack([gx, gy], axis=-1), q, mode)
    return np.quantile(r, probs)


@_report(2, "noise-free interval reproduction (Fig. 1b analog)")
def test_criterion_2_interval_reproduction():
    cfg = SweepConfig(templates=BUILTIN_TEMPLATE_NAMES, n_centers=10_000,
                      noise_amplitudes=(0.0,))
    res = run_sweep(cfg)
    checks = []
    for t in cfg.templates:
        blk = res.block(t.name, 0.0)
        iv = res.oracles[t.name]
        q_lo, q_hi = _robustness_quantiles(t, cfg.charge, cfg.mode, (1e-3, 0.999))
        coverage = (blk.robustness.max() - blk.robustness.min()) / (iv.upper - iv.lower)
        print(f"[criterion 2] {t.name}: coverage={coverage:.4f} "
              f"min={blk.robustness.min():.6f} (q1e-3={q_lo:.6f}) "
              f"max={blk.robustness.max():.6f} (q0.999={q_hi:.6f})")
        checks.append((t.name, blk, iv, q_lo, q_hi))
    for name, blk, iv, q_lo, q_hi in checks:
        assert np.all(blk.robustness >= iv.lower - 1e-9), f"{name}: sample below oracle"
        assert np.all(blk.robustness <= iv.upper + 1e-9), f"{name}: sample above oracle"
        assert blk.robustness.min() <= q_lo, f"{name}: sampled min above the 1e-3 quantile"
        assert blk.robustness.max() >= q_hi, f"{name}: sampled max below the 0.999 quantile"


@_report(3, "single-template zero robustness")
def test_criterion_3_single_zero_robustness():
    t = builtin_template("single")
    iv200 = theoretical_interval(t, HALF, oracle_density=200)
    iv1000 = theoretical_interval(t, HALF, oracle_density=1000)
    assert iv200.lower < 0.05
    assert iv1000.lower < 0.01
    assert iv1000.lower <= iv200.lower


@_report(4, "convergence bound for square(n)")
def test_criterion_4_convergence_bound():
    rows = convergence_study(HALF, (1, 2, 3, 4, 8, 16))
    lows = [r.lower for r in rows]
    assert all(a < b for a, b in zip(lows, lows[1:])), "lower bound not strictly increasing"
    for row in rows:
        assert row.lower >= row.analytic_lower_bound - 1e-9, \
            f"n={row.n}: oracle lower {row.lower} below bound {row.analytic_lower_bound}"
        residual = math.pi / 2 - row.lower
        exact = float(HALF) * 2.0 * math.atan2(1.0, 2.0 * row.r_min)
        assert abs(residual - exact) <= 1e-12, \
            f"n={row.n}: residual {residual} is not |q|*2*atan(h/(2*R_min)) = {exact}"
    print(f"[criterion 4] n=16 residual pi/2 - lower = {math.pi / 2 - rows[-1].lower:.4f}")


@_report(5, "noise perturbation bound and underestimation (Fig. 1c regime)")
def test_criterion_5_perturbation_bound():
    t16 = builtin_template("square(16)")
    cfg = SweepConfig(templates=BUILTIN_TEMPLATE_NAMES + (t16,), n_centers=1000,
                      noise_amplitudes=(0.0, 0.2), n_noise_realizations=10,
                      nx=40, ny=40)
    res = run_sweep(cfg)
    for t in cfg.templates:
        clean = np.repeat(res.block(t.name, 0.0).robustness, 10)
        noisy = res.block(t.name, 0.2).robustness
        assert np.max(np.abs(noisy - clean)) <= 0.4 + 1e-12, f"{t.name}: bound violated"
    assert res.block(t16.name, 0.2).robustness.mean() < res.oracles[t16.name].lower, \
        "square(16) noisy mean not below noise-free oracle lower bound"


@_report(6, "stability and sharpness of the robustness measure")
def test_criterion_6_stability_sharpness():
    rng = np.random.default_rng(6)
    square = LatticePath(((2, 2), (3, 2), (4, 2), (4, 3), (4, 4), (3, 4), (2, 4), (2, 3)))
    trials = 0
    while trials < 1000:
        f = OrientationField.from_angles(rng.uniform(0, math.pi, (8, 8)), mode=NEM)
        rep = path_robustness(f, square)
        r = rep.path_robustness
        if r <= 0.05:
            continue
        trials += 1
        base = estimate_charge(f, square).charge

        # bounded perturbation never changes the estimate
        g = f.with_angles(f.angles + rng.uniform(-0.49 * r, 0.49 * r, (8, 8)))
        assert estimate_charge(g, square).charge == base, "charge changed below threshold"

        # constructed crossing on the weakest edge always changes it by 1/2
        (i0, j0), (i1, j1) = rep.min_edge
        d = wrap_diff(f.angle_at(i1, j1) - f.angle_at(i0, j0), NEM)
        bump = math.copysign(r / 2 + 1e-6, d if d != 0 else 1.0)
        angles = np.array(f.angles)
        angles[j1, i1] += bump
        angles[j0, i0] -= bump
        dq = estimate_charge(f.with_angles(angles), square).charge - base
        assert abs(dq) == HALF, f"crossing perturbation changed charge by {dq}"


@_report(7, "additivity of cell charges (discrete Stokes)")
def test_criterion_7_additivity():
    rng = np.random.default_rng(7)
    perimeter = boundary_of_cells({(a, b) for a in range(7) for b in range(7)})
    cells = [boundary_of_cells({(a, b)}) for a in range(7) for b in range(7)]
    for _ in range(1000):
        f = OrientationField.from_angles(rng.uniform(0, math.pi, (8, 8)), mode=NEM)
        total = sum(estimate_charge(f, c).charge for c in cells)
        assert total == estimate_charge(f, perimeter).charge


@_report(8, "template ranking (Fig. 1d): top is never single")
def test_criterion_8_ranking():
    cfg = SweepConfig(templates=BUILTIN_TEMPLATE_NAMES)
    rank = normalize_and_rank(run_sweep(cfg))
    allowed = {"2x2", "cross", "3x3", "3x3ext"}
    for amp in (0.0, 0.2):
        top = rank.top(amp)
        assert top in allowed and top != "single", f"s={amp}: top is {top}"
    # soft, report-only: does the ranking reproduce the published winners?
    print(f"[criterion 8] soft: s=0 winner {rank.top(0.0)} "
          f"(published: 2x2); s=0.2 winner {rank.top(0.2)} (published: cross)")


@_report(9, "sweep determinism and independence of centre chunking")
def test_criterion_9_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"templates": ["single", "2x2", "cross", "3x3", "3x3ext"],'
                   ' "n_centers": 1000, "noise_amplitudes": [0.0, 0.2],'
                   ' "n_noise_realizations": 10, "base_seed": 0}')
    outputs = []
    for run in ("a", "b"):
        rpt = tmp_path / f"report_{run}.csv"
        summ = tmp_path / f"summary_{run}.txt"
        assert main(["sweep", "--config", str(cfg), "--out", str(rpt),
                     "--summary", str(summ)]) == 0
        outputs.append((rpt.read_bytes(), summ.read_bytes()))
    assert outputs[0] == outputs[1], "outputs differ between identical runs"

    # run_sweep evaluates centres in chunks: the first m centres' samples must
    # not depend on how many centres follow them.  n spans 3 of the largest
    # chunks plus a remainder; m crosses a chunk edge of every template.
    sizes = {name: _centers_per_chunk(10 * len(builtin_template(name).boundary.vertices))
             for name in BUILTIN_TEMPLATE_NAMES}
    n = 3 * max(sizes.values()) + max(sizes.values()) // 2 + 1
    m = max(sizes.values()) + 62
    assert all(n % c and m % c and m > c for c in sizes.values())

    def sweep(count):
        return run_sweep(SweepConfig(templates=BUILTIN_TEMPLATE_NAMES, n_centers=count,
                                     noise_amplitudes=(0.0, 0.2)))

    whole, head = sweep(n), sweep(m)
    for key, blk in head.blocks.items():
        for field in ("center_x", "center_y", "charge", "robustness", "normalized"):
            prefix = getattr(whole.blocks[key], field)[:len(blk.robustness)]
            assert np.array_equal(getattr(blk, field), prefix), f"{key} {field} depends on n_centers"
