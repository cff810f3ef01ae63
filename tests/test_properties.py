"""Property-based invariants for wrapping, winding, and robustness."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from defect_robust import (
    LatticePath,
    OrientationField,
    PeriodMode,
    boundary_of_cells,
    canonicalize,
    edge_robustness,
    estimate_charge,
    path_robustness,
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


@given(angles, angles, modes)
def test_edge_robustness_symmetric_bounded(ti, tj, mode):
    r = edge_robustness(ti, tj, mode)
    assert 0.0 <= r <= mode.period / 2 + 1e-12
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
    fwd_q = estimate_charge(f, SQUARE)
    rev_q = estimate_charge(f, reversed_square)
    assert rev_q.charge == -fwd_q.charge
    fwd_r = path_robustness(f, SQUARE)
    rev_r = path_robustness(f, reversed_square)
    assert rev_r.path_robustness == pytest.approx(fwd_r.path_robustness, abs=1e-12)


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


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=10_000))
def test_small_perturbations_cannot_change_charge(seed, pseed):
    # stability: any per-vertex perturbation strictly below half the
    # robustness leaves the estimate unchanged
    f = _random_field(seed)
    rep = path_robustness(f, SQUARE)
    if rep.path_robustness <= 1e-6:
        return
    eps = 0.49 * rep.path_robustness
    rng = np.random.default_rng(pseed)
    g = f.with_angles(f.angles + rng.uniform(-eps, eps, f.angles.shape))
    assert estimate_charge(g, SQUARE).charge == estimate_charge(f, SQUARE).charge


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_crossing_perturbation_flips_charge(seed):
    # sharpness: pushing the weakest edge just past its nearest wrap
    # discontinuity changes the estimate by exactly half a turn
    f = _random_field(seed)
    rep = path_robustness(f, SQUARE)
    if rep.path_robustness <= 1e-6:
        return
    (i0, j0), (i1, j1) = rep.min_edge
    d = wrap_diff(f.angles[j1, i1] - f.angles[j0, i0], NEM)
    sign = 1.0 if d >= 0 else -1.0
    bump = sign * (rep.path_robustness + 1e-9)
    angles = np.array(f.angles)
    angles[j1, i1] += bump / 2
    angles[j0, i0] -= bump / 2
    g = f.with_angles(angles)
    dq = estimate_charge(g, SQUARE).charge - estimate_charge(f, SQUARE).charge
    assert abs(dq) == pytest.approx(0.5)
