"""Prototypical defect fields and uniform angle noise.

Each formula is written once here: the defect pattern (``defect_pattern``) and
the noise law's two steps, unit variates 2u - 1 (``unit_noise``) and the noisy
angles theta + a*v (``perturb``).  The fields, the sweep and the oracle call
them.  Noise is counter-based: u at a grid vertex is a pure function of (seed,
flattened vertex index), so any vertex can be evaluated in isolation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import OrientationField, PeriodMode, _check_spacing
from .errors import DegenerateCenter

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = 1.0 / (1 << 53)


def _u64(x):
    arr = np.asarray(x)
    if arr.dtype == np.uint64:
        return arr
    if arr.ndim == 0:
        return np.uint64(int(x) & 0xFFFFFFFFFFFFFFFF)
    return arr.astype(np.int64).view(np.uint64) if arr.dtype.kind == "i" else arr.astype(np.uint64)


def _finalize(z):
    # splitmix64 output function; uint64 wraparound is intended
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def counter_uniform(seed, counter):
    """Deterministic uniform variate in [0, 1) keyed by (seed, counter).

    ``seed`` and ``counter`` may be scalars or broadcastable integer arrays.
    This is the splitmix64 stream evaluated at position ``counter``.
    """
    s = _u64(seed)
    c = _u64(counter)
    with np.errstate(over="ignore"):
        bits = _finalize(s + (c + np.uint64(1)) * _GOLDEN)
    out = (bits >> np.uint64(11)).astype(np.float64) * _INV_2_53
    if np.ndim(seed) == 0 and np.ndim(counter) == 0:
        return float(out)
    return out


def derive_seed(seed, *parts):
    """Fold integer tags into a sub-seed via the splitmix64 mixer.

    Parts may be scalars or broadcastable integer arrays; used to give every
    (stream, sample, realization) combination an independent noise key.
    """
    x = _u64(seed)
    with np.errstate(over="ignore"):
        for p in parts:
            x = _finalize((x ^ _finalize(_u64(p) + _GOLDEN)) + _GOLDEN)
    if x.ndim == 0:
        return int(x)
    return x


@dataclass(frozen=True)
class DefectSpec:
    """Charge (kept as given; ``synth_defect_field`` checks it), center (in field length units), and phase."""

    charge: Fraction
    center: tuple
    phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))


@dataclass(frozen=True)
class NoiseSpec:
    """Uniform angle-noise amplitude (radians) and its 64-bit seed."""

    amplitude: float
    seed: int = 0

    def __post_init__(self):
        if not (self.amplitude >= 0.0):
            raise ValueError("noise amplitude must be >= 0")


def _validate_charge(q, mode: PeriodMode) -> Fraction:
    """The charge ``q`` as a Fraction: a multiple of 1/periods_per_turn whose
    |q|*pi is a finite float, so that ``q * atan2`` is finite everywhere.  Any
    other charge raises ValueError naming it."""
    try:
        q = Fraction(q)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"invalid charge {q!r}: {exc}") from None
    if (q * mode.periods_per_turn).denominator != 1:
        raise ValueError(f"{mode.value} charge must be a multiple of {Fraction(1, mode.periods_per_turn)}, got {q}")
    try:
        value = float(q)
    except OverflowError:
        magnitude = math.log10(abs(q.numerator)) - math.log10(q.denominator)
        raise ValueError(f"charge of about 1e{magnitude:.0f} is too large for a float") from None
    if not math.isfinite(value * math.pi):
        raise ValueError(f"charge {value:g} is too large: |q|*pi is not a finite float")
    return q


def _validate_amplitude(amplitude: float, mode: PeriodMode) -> float:
    """Noise amplitudes lie in [0, P/2); at P/2 a perturbation can wrap an edge difference."""
    if not 0.0 <= amplitude < mode.period / 2.0:
        raise ValueError(f"noise amplitude {amplitude} must be >= 0 and below P/2 = {mode.period / 2}")
    return amplitude


def _on_grid_vertex(cx, cy, h: float):
    """Whether each center (x, y) lies exactly on a lattice vertex, where the winding angle is undefined.
    Every caller's centers lie inside the grid, so that vertex is a grid vertex."""
    return (np.rint(cx / h) * h == cx) & (np.rint(cy / h) * h == cy)


def synth_defect_field(
    spec: DefectSpec,
    nx: int,
    ny: int,
    h: float = 1.0,
    mode: PeriodMode = PeriodMode.NEMATIC,
) -> OrientationField:
    """Pure phase-winding field: ``defect_pattern`` at every grid vertex.

    The winding of the result about the center is exactly the requested
    charge.  The spacing ``h`` must be positive and finite, and the center
    must lie inside the grid extent and off every grid vertex (the angle is
    undefined at the vertex itself).
    """
    _check_spacing(h)
    q = float(_validate_charge(spec.charge, mode))
    cx, cy = spec.center
    if not (0.0 <= cx <= (nx - 1) * h and 0.0 <= cy <= (ny - 1) * h):
        raise ValueError(f"center {spec.center} outside grid extent")
    if _on_grid_vertex(cx, cy, h):
        raise DegenerateCenter(f"center {spec.center} coincides with grid vertex ({round(cx / h)}, {round(cy / h)})")

    angles = defect_pattern(q, np.arange(nx) * h, np.arange(ny)[:, None] * h, cx, cy, spec.phase)
    return OrientationField(h=h, mode=mode, angles=angles)


def defect_pattern(q: float, x, y, cx, cy, phase: float = 0.0):
    """The defect's angle q*atan2(y - cy, x - cx) + phase at positions (x, y)
    about centres (cx, cy), which broadcast; not yet canonical."""
    return q * np.arctan2(y - cy, x - cx) + phase


def unit_noise(u):
    """The noise law's unit variates 2u - 1 in [-1, 1), from ``counter_uniform``'s u, in place."""
    u *= 2.0
    u -= 1.0
    return u


def perturb(theta, amplitude: float, v, out=None):
    """The noisy angles theta + amplitude*v from unit variates ``v``, into ``out``; not yet canonical."""
    out = np.multiply(v, amplitude, out=out)
    out += theta
    return out


def add_noise(field: OrientationField, noise: NoiseSpec) -> OrientationField:
    """Independently perturb every angle by uniform noise in [-s, +s].

    The input field is unchanged; amplitude 0 reproduces it bit-exactly.
    Amplitudes at or above P/2 are rejected as wrap-degenerate.
    """
    _validate_amplitude(noise.amplitude, field.mode)
    v = unit_noise(counter_uniform(noise.seed, np.arange(field.ny * field.nx)))
    return field.with_angles(perturb(field.angles, noise.amplitude, v.reshape(field.ny, field.nx)))
