"""Property-based invariants for wrapping, winding, and robustness."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from defect_robust import (
    LatticePath,
    OrientationField,
    PeriodMode,
    boundary_of_cells,
    builtin_template,
    canonicalize,
    estimate_charge,
    winding,
    wrap_diff,
)

NEM = PeriodMode.NEMATIC
POL = PeriodMode.POLAR

angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
modes = st.sampled_from([NEM, POL])


@given(angles, modes)
@example(-5e-324, NEM)
@example(-122.52211349000194, NEM)
def test_canonicalize_idempotent_and_in_range(x, mode):
    c = canonicalize(x, mode)
    assert 0.0 <= c < mode.period
    assert canonicalize(c, mode) == c


@given(angles, modes)
@example(float(np.nextafter(math.pi / 2, 0)), NEM)
@example(float(np.nextafter(math.pi, 0)), POL)
@example(-122.52211349000194, POL)
def test_wrap_diff_in_range(x, mode):
    w = wrap_diff(x, mode)
    assert -mode.period / 2 <= w < mode.period / 2


@given(angles, st.integers(min_value=-5, max_value=5), modes)
def test_wrap_diff_periodic_congruence(x, k, mode):
    # exact congruence is limited by the rounding of x + k*P itself, so the
    # comparison tolerance scales with the argument magnitude
    shifted = x + k * mode.period
    tol = 16 * np.spacing(max(1.0, abs(shifted)))
    a, b = wrap_diff(x, mode), wrap_diff(shifted, mode)
    # either both agree, or they landed on opposite ends of the half-open interval
    assert min(abs(a - b), abs(abs(a - b) - mode.period)) <= tol


@given(angles, angles, modes)
def test_wrap_diff_is_congruent_to_input(x, y, mode):
    d = x - y
    w = wrap_diff(d, mode)
    k = (d - w) / mode.period
    assert abs(k - round(k)) < 1e-9


def edge_robustness(ti, tj, mode):
    """Robustness of the first edge, ti to tj, of the 2-vertex cycle (ti, tj)."""
    return winding(np.stack([ti, tj]), mode)[3][0]


@given(angles, angles, modes)
def test_edge_robustness_symmetric_bounded(ti, tj, mode):
    r = edge_robustness(ti, tj, mode)
    assert 0.0 <= r <= mode.period / 2
    assert r == pytest.approx(edge_robustness(tj, ti, mode), abs=1e-12)


@given(angles, angles, modes)
def test_edge_robustness_is_distance_to_discontinuity(ti, tj, mode):
    p = mode.period
    brute = min(abs((tj - ti) - p / 2 - k * p) for k in range(-40, 41))
    assert edge_robustness(ti, tj, mode) == pytest.approx(brute, abs=1e-9)


def _random_field(seed, n=8, mode=NEM):
    rng = np.random.default_rng(seed)
    return OrientationField.from_angles(rng.uniform(0, mode.period, (n, n)), mode=mode)


SQUARE = LatticePath(((2, 2), (3, 2), (4, 2), (4, 3), (4, 4), (3, 4), (2, 4), (2, 3)))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), modes)
def test_charge_invariant_under_start_vertex(seed, mode):
    f = _random_field(seed, mode=mode)
    base = estimate_charge(f, SQUARE)
    for k in (1, 3, 5):
        rotated = LatticePath(SQUARE.vertices[k:] + SQUARE.vertices[:k])
        assert estimate_charge(f, rotated).charge == base.charge


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), modes)
def test_reversal_negates_charge_keeps_robustness(seed, mode):
    f = _random_field(seed, mode=mode)
    reversed_square = LatticePath(SQUARE.vertices[::-1])
    fwd = estimate_charge(f, SQUARE)
    rev = estimate_charge(f, reversed_square)
    assert rev.charge == -fwd.charge
    assert rev.path_robustness == fwd.path_robustness


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_winding_additivity_of_adjacent_cells(seed):
    # the shared edge cancels, so charges of the two cells sum to the charge
    # of the surrounding 2x1 loop -- exactly, as Fractions
    f = _random_field(seed)
    left = boundary_of_cells({(2, 2)}).vertices
    right = boundary_of_cells({(3, 2)}).vertices
    union = boundary_of_cells({(2, 2), (3, 2)}).vertices
    q = lambda verts: estimate_charge(f, LatticePath(verts)).charge
    assert q(left) + q(right) == q(union)


BLOCK_CELLS = ((0, 0), (1, 0), (0, 1), (1, 1))
CELL_PATHS = tuple(boundary_of_cells({c}) for c in BLOCK_CELLS)
BLOCK = boundary_of_cells(BLOCK_CELLS)
#: The edges of BLOCK's cells that two cells share, as vertex pairs (i, j).
INTERIOR_EDGES = (((1, 0), (1, 1)), ((0, 1), (1, 1)), ((1, 1), (2, 1)), ((1, 1), (1, 2)))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), modes)
def test_laws_at_ties_and_one_ulp_from_them(seed, mode):
    # Angles k*P/4 put edge differences on the wrap point P/2 or a rounding
    # from it; moving 60% of the vertices by one ulp gives the near-ties.
    p = mode.period
    rng = np.random.default_rng(seed)
    for _ in range(20):
        base = rng.integers(0, 4, (3, 3)) * (p / 4)
        nudged = np.nextafter(base, rng.choice([-np.inf, np.inf], (3, 3)))
        f = OrientationField.from_angles(np.where(rng.random((3, 3)) < 0.6, nudged, base), mode=mode)
        for path in (*CELL_PATHS, BLOCK):
            fwd = estimate_charge(f, path)
            rev = estimate_charge(f, LatticePath(path.vertices[::-1]))
            assert fwd.path_robustness >= 0.0
            if fwd.path_robustness > 0.0:
                assert rev.charge == -fwd.charge
                assert rev.path_robustness == fwd.path_robustness
            else:  # an exact tie reads -P/2 both ways
                assert rev.path_robustness == 0.0
        # a shared edge cancels in the cells' sum unless it is a tie
        if all(wrap_diff(f.angles[j1, i1] - f.angles[j0, i0], mode) != -p / 2
               for (i0, j0), (i1, j1) in INTERIOR_EDGES):
            assert sum(estimate_charge(f, c).charge for c in CELL_PATHS) == estimate_charge(f, BLOCK).charge


#: Paths on a 6x6 field of angles k*P/4, where every edge's robustness is 0,
#: P/4 or P/2, so many edges tie for the weakest.
QUARTER_PATHS = tuple(builtin_template(n).boundary.translated((1, 1)) for n in ("single", "2x2", "cross", "3x3"))
#: None for a uniform random field around SQUARE, else an index into QUARTER_PATHS.
families = st.one_of(st.none(), st.integers(min_value=0, max_value=len(QUARTER_PATHS) - 1))


def _field_and_path(seed, mode, quarter):
    """A field and a path; a quarter field is redrawn (up to 100 times) until its robustness is positive."""
    if quarter is None:
        return _random_field(seed, mode=mode), SQUARE
    rng = np.random.default_rng(seed)
    path = QUARTER_PATHS[quarter]
    for _ in range(100):
        f = OrientationField.from_angles(rng.integers(0, 4, (6, 6)) * (mode.period / 4), mode=mode)
        if estimate_charge(f, path).path_robustness > 0.0:
            break
    return f, path


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=10_000), modes, families)
def test_small_perturbations_cannot_change_charge(seed, pseed, mode, quarter):
    # stability: any per-vertex perturbation strictly below half the
    # robustness leaves the estimate unchanged
    f, path = _field_and_path(seed, mode, quarter)
    rep = estimate_charge(f, path)
    if rep.path_robustness <= 1e-6:
        return
    eps = 0.49 * rep.path_robustness
    rng = np.random.default_rng(pseed)
    g = f.with_angles(f.angles + rng.uniform(-eps, eps, f.angles.shape))
    assert estimate_charge(g, path).charge == estimate_charge(f, path).charge


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), modes, families)
def test_crossing_perturbation_flips_charge(seed, mode, quarter):
    # sharpness: pushing the weakest edge just past its nearest wrap
    # discontinuity changes the estimate by exactly one period P
    f, path = _field_and_path(seed, mode, quarter)
    rep = estimate_charge(f, path)
    if rep.path_robustness <= 1e-6:
        return
    (i0, j0), (i1, j1) = rep.min_edge
    d = wrap_diff(f.angles[j1, i1] - f.angles[j0, i0], mode)
    sign = 1.0 if d >= 0 else -1.0
    bump = sign * (rep.path_robustness + 1e-9)
    angles = np.array(f.angles)
    angles[j1, i1] += bump / 2
    angles[j0, i0] -= bump / 2
    g = f.with_angles(angles)
    dq = estimate_charge(g, path).charge - estimate_charge(f, path).charge
    assert abs(dq) == Fraction(1, mode.periods_per_turn)
