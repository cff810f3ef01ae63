"""Counter-based RNG, prototype defect fields, uniform angle noise."""
import math
from fractions import Fraction

import numpy as np
import pytest

from defect_robust import (
    DefectSpec,
    DegenerateCenter,
    NoiseSpec,
    PeriodMode,
    add_noise,
    builtin_template,
    center_offset,
    counter_uniform,
    derive_seed,
    estimate_charge,
    synth_defect_field,
)

NEM = PeriodMode.NEMATIC
POL = PeriodMode.POLAR


class TestCounterRng:
    def test_scalar_matches_array(self):
        vals = counter_uniform(123, np.arange(50))
        for c in (0, 7, 49):
            assert counter_uniform(123, c) == vals[c]

    def test_range_and_spread(self):
        u = counter_uniform(2024, np.arange(100_000))
        assert np.all((u >= 0.0) & (u < 1.0))
        assert abs(u.mean() - 0.5) < 0.01
        assert abs(u.var() - 1.0 / 12.0) < 0.01

    def test_seed_sensitivity(self):
        a = counter_uniform(1, np.arange(1000))
        b = counter_uniform(2, np.arange(1000))
        assert not np.any(a == b)

    def test_broadcasting(self):
        seeds = np.array([[1], [2]])
        out = counter_uniform(seeds, np.arange(3)[None, :])
        assert out.shape == (2, 3)
        assert out[1, 2] == counter_uniform(2, 2)

    def test_negative_seed_accepted(self):
        assert 0.0 <= counter_uniform(-5, 0) < 1.0


class TestDeriveSeed:
    def test_deterministic_and_order_sensitive(self):
        assert derive_seed(0, 3, 1, 2) == derive_seed(0, 3, 1, 2)
        assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)
        assert derive_seed(1, 5) != derive_seed(2, 5)

    def test_vectorized_matches_scalar(self):
        grid = derive_seed(9, 3, np.arange(4)[:, None], np.arange(3)[None, :])
        assert grid.shape == (4, 3)
        assert int(grid[2, 1]) == derive_seed(9, 3, 2, 1)


class TestSynthField:
    @pytest.mark.parametrize("q,mode", [
        (Fraction(1, 2), NEM), (Fraction(-1, 2), NEM), (Fraction(3, 2), NEM),
        (Fraction(1), POL), (Fraction(-2), POL),
    ])
    def test_winding_is_exact(self, q, mode):
        f = synth_defect_field(DefectSpec(charge=q, center=(7.3, 7.6), phase=0.4),
                               16, 16, mode=mode)
        t = builtin_template("3x3")
        est = estimate_charge(f, t.boundary.translated(center_offset(t, f.nx, f.ny)))
        assert est.charge == q
        assert abs(est.residual) < 1e-9

    def test_charge_mode_validation(self):
        with pytest.raises(ValueError):
            synth_defect_field(DefectSpec(charge=Fraction(1, 2), center=(3.3, 3.3)), 8, 8,
                               mode=POL)
        with pytest.raises(ValueError):
            synth_defect_field(DefectSpec(charge=Fraction(1, 3), center=(3.3, 3.3)), 8, 8)
        with pytest.raises(ValueError, match="charge of about 1e400 is too large for a float"):
            synth_defect_field(DefectSpec(charge=Fraction("1e400"), center=(3.3, 3.3)), 8, 8)

    def test_center_must_be_inside_and_off_grid(self):
        with pytest.raises(ValueError):
            synth_defect_field(DefectSpec(charge=Fraction(1, 2), center=(20.0, 3.0)), 8, 8)
        with pytest.raises(DegenerateCenter):
            synth_defect_field(DefectSpec(charge=Fraction(1, 2), center=(3.0, 4.0)), 8, 8)

    def test_phase_shifts_angles_not_charge(self):
        base = synth_defect_field(DefectSpec(charge=Fraction(1, 2), center=(7.25, 7.5)), 16, 16)
        shifted = synth_defect_field(DefectSpec(charge=Fraction(1, 2), center=(7.25, 7.5),
                                                phase=1.1), 16, 16)
        p = NEM.period
        d = (shifted.angles - base.angles) % p
        assert np.allclose(np.minimum(d, p - d), min(1.1 % p, p - 1.1 % p), atol=1e-12)

    def test_spacing_scales_geometry(self):
        f1 = synth_defect_field(DefectSpec(charge=Fraction(1, 2), center=(3.3, 3.4)), 8, 8, h=1.0)
        f2 = synth_defect_field(DefectSpec(charge=Fraction(1, 2), center=(6.6, 6.8)), 8, 8, h=2.0)
        assert np.array_equal(f1.angles, f2.angles)


class TestNoise:
    def test_zero_amplitude_is_identity(self):
        f = synth_defect_field(DefectSpec(charge=Fraction(1, 2), center=(7.3, 7.6)), 16, 16)
        g = add_noise(f, NoiseSpec(amplitude=0.0, seed=99))
        assert np.array_equal(f.angles, g.angles)

    def test_amplitude_bound_holds(self):
        f = synth_defect_field(DefectSpec(charge=Fraction(1, 2), center=(7.3, 7.6)), 16, 16)
        s = 0.2
        g = add_noise(f, NoiseSpec(amplitude=s, seed=5))
        p = NEM.period
        d = (g.angles - f.angles) % p
        d = np.minimum(d, p - d)
        assert np.all(d <= s + 1e-15)

    def test_pointwise_matches_full_grid(self):
        # noise is a pure function of (seed, flat index): evaluating a subset
        # of vertices must agree bit for bit with the full-grid draw
        f = synth_defect_field(DefectSpec(charge=Fraction(1, 2), center=(7.3, 7.6)), 16, 16)
        noise = NoiseSpec(amplitude=0.3, seed=21)
        g = add_noise(f, noise)
        idx = np.array([0, 17, 100, 255])
        delta = noise.amplitude * (2.0 * counter_uniform(noise.seed, idx) - 1.0)
        flat_f = f.angles.reshape(-1)
        flat_g = g.angles.reshape(-1)
        from defect_robust import canonicalize
        assert np.array_equal(flat_g[idx], canonicalize(flat_f[idx] + delta, NEM))

    def test_noise_respects_mode_half_period_cap(self):
        f = synth_defect_field(DefectSpec(charge=Fraction(1, 2), center=(7.3, 7.6)), 16, 16)
        with pytest.raises(ValueError):
            add_noise(f, NoiseSpec(amplitude=2.0, seed=0))

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(amplitude=-0.1)
