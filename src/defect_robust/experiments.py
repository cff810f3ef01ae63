"""Theoretical robustness intervals, Monte Carlo sweeps, and template ranking.

The theoretical interval for a template is the [min, max] of the noise-free
path robustness of the pure winding field, evaluated on a dense deterministic
grid of defect centers over the template's central unit sampling square.
Sweeps sample centers uniformly from the same square (counter-based on the
base seed), optionally add uniform angle noise per realization, and record
per-sample charge and robustness.

Sample values are computed from the synthesis formulas evaluated at the path
vertices only; because both the field and the noise are pointwise functions
of (spec, vertex), this matches synthesizing the full grid bit for bit.
Everything is a pure function of the config, so results are independent of
parallelism and scheduling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import OrientationField, PeriodMode, canonicalize, winding
from .core import wrap_diff  # unused here, but bench/tracing.py patches experiments.wrap_diff
from .errors import SweepFailure
from .synthesis import _validate_charge, counter_uniform, derive_seed
from .templates import BUILTIN_TEMPLATE_NAMES, Placement, Template, builtin_template, center_placement

# Stream tags for sub-seed derivation.
_STREAM_CENTER_X = 1
_STREAM_CENTER_Y = 2
_STREAM_NOISE = 3

_VERTEX_EXCLUSION = 1e-9

#: Elements in each (centers, [realizations,] vertices) array of one chunk, in
#: the sweep and the oracle.  At this size each chunk's arrays fit in cache and
#: reuse the memory the previous chunk freed; at 2**18 a sweep page-faulted 3x
#: as often and ran no faster.
_CHUNK_ELEMENTS = 1 << 16


def _centers_per_chunk(elements_per_center: int) -> int:
    return max(1, _CHUNK_ELEMENTS // elements_per_center)


@dataclass(frozen=True)
class IntervalEstimate:
    """[lower, upper] robustness over sampled defect-center positions."""

    lower: float
    upper: float
    n_oracle_samples: int


#: Sweep JSON keys and how each value becomes a ``SweepConfig`` field; the
#: ``grid`` object is parsed with its own keys.
_SWEEP_JSON = {
    "templates": tuple, "n_centers": int, "noise_amplitudes": tuple, "n_noise_realizations": int,
    "base_seed": int, "mode": PeriodMode.from_name, "charge": lambda v: Fraction(str(v)),
    "phase": float, "oracle_density": int, "grid": lambda grid: grid,
}
_SWEEP_JSON_GRID = {"nx": int, "ny": int, "h": float}


def _json_fields(raw, fields: dict, where: str) -> dict:
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a JSON object, not {type(raw).__name__}")
    out = {}
    for key, value in raw.items():
        if key not in fields:
            raise ValueError(f"unknown key {key!r} in {where}; known: {', '.join(fields)}")
        try:
            out[key] = fields[key](value)
        except (TypeError, ValueError, AttributeError) as exc:
            raise ValueError(f"bad value {value!r} for {key!r} in {where}: {exc}") from None
    return out


@dataclass(frozen=True)
class SweepConfig:
    templates: tuple
    n_centers: int = 10_000
    noise_amplitudes: tuple = (0.0, 0.2)
    n_noise_realizations: int = 10
    base_seed: int = 0
    nx: int = 32
    ny: int = 32
    h: float = 1.0
    mode: PeriodMode = PeriodMode.NEMATIC
    charge: Fraction = Fraction(1, 2)
    phase: float = 0.0
    oracle_density: int = 200

    def __post_init__(self):
        resolved = tuple(
            t if isinstance(t, Template) else builtin_template(t) for t in self.templates
        )
        object.__setattr__(self, "templates", resolved)
        object.__setattr__(self, "noise_amplitudes", tuple(float(a) for a in self.noise_amplitudes))
        object.__setattr__(self, "charge", Fraction(self.charge))
        if self.n_centers < 1:
            raise ValueError("n_centers must be >= 1")
        if any(a < 0 for a in self.noise_amplitudes):
            raise ValueError("noise amplitudes must be >= 0")
        if self.n_noise_realizations < 1:
            raise ValueError("n_noise_realizations must be >= 1")
        _validate_charge(self.charge, self.mode)
        for t in self.templates:
            verts = t.boundary.vertices
            span_x = max(v[0] for v in verts) - min(v[0] for v in verts)
            span_y = max(v[1] for v in verts) - min(v[1] for v in verts)
            if self.nx < span_x + 3 or self.ny < span_y + 3:
                raise ValueError(
                    f"grid {self.nx}x{self.ny} cannot hold template {t.name!r} "
                    f"with a 1-cell margin")

    @classmethod
    def from_mapping(cls, raw, base_seed: int = 0) -> "SweepConfig":
        """Config from a parsed sweep JSON object, keyed as the fields with ``nx``,
        ``ny``, ``h`` in a ``grid`` object.  Missing keys take the defaults (all
        builtin templates, ``base_seed``); unknown keys and non-objects raise ValueError.
        """
        values = _json_fields(raw, _SWEEP_JSON, "sweep config")
        grid = _json_fields(values.pop("grid", {}), _SWEEP_JSON_GRID, "sweep config 'grid'")
        return cls(**{"templates": BUILTIN_TEMPLATE_NAMES, "base_seed": base_seed, **values, **grid})


@dataclass
class SampleBlock:
    """All samples for one (template, noise amplitude) pair."""

    template: str
    amplitude: float
    sample_index: np.ndarray
    center_x: np.ndarray
    center_y: np.ndarray
    charge: np.ndarray
    robustness: np.ndarray
    normalized: np.ndarray


@dataclass
class SweepResult:
    config: SweepConfig
    blocks: dict
    oracles: dict
    agreement: dict
    placements: dict

    def block(self, template_name: str, amplitude: float) -> SampleBlock:
        return self.blocks[(template_name, float(amplitude))]

    def iter_blocks(self):
        for key in sorted(self.blocks):
            yield self.blocks[key]


@dataclass(frozen=True)
class RankedEntry:
    template: str
    resolution: float
    n_samples: int
    min_normalized: float
    mean_normalized: float
    min_robustness: float
    mean_robustness: float


@dataclass
class RankReport:
    """Templates per amplitude, ordered by worst-case normalized robustness."""

    per_amplitude: dict

    def ranking(self, amplitude: float):
        return self.per_amplitude[float(amplitude)]

    def top(self, amplitude: float) -> str:
        return self.per_amplitude[float(amplitude)][0].template


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    lower: float
    upper: float
    n_oracle_samples: int
    r_min: float
    analytic_lower_bound: float


def _clean_vertex_angles(verts_xy: np.ndarray, centers_xy: np.ndarray, q: float, phase: float, mode: PeriodMode):
    """Winding-field angles at path vertices for a batch of centers.

    ``verts_xy``: (nv, 2) vertex positions; ``centers_xy``: (..., 2).
    Returns an (..., nv) array, canonicalized.  Identical to sampling
    ``synth_defect_field`` at those vertices.
    """
    dx = verts_xy[:, 0] - centers_xy[..., 0:1]
    dy = verts_xy[:, 1] - centers_xy[..., 1:2]
    return canonicalize(q * np.arctan2(dy, dx) + phase, mode)


def _oracle_axis(center: float, density: int) -> np.ndarray:
    # Odd point count keeps the square boundary and its midpoint (the template
    # centroid) on-grid, where the extreme robustness values sit; grids nest
    # under density doubling.
    d_eff = density if density % 2 == 1 else density + 1
    return np.linspace(center - 0.5, center + 0.5, d_eff)


def analytic_path_robustness(template: Template, centers, q, mode: PeriodMode = PeriodMode.NEMATIC) -> np.ndarray:
    """Noise-free robustness of the pure winding field for the given centers.

    Vectorized over an (..., 2) array of centers in template coordinates.
    """
    verts = np.asarray(template.boundary.vertices, dtype=float)
    centers = np.asarray(centers, dtype=float)
    theta = _clean_vertex_angles(verts, centers, float(Fraction(q)), 0.0, mode)
    return np.min(winding(theta, mode)[3], axis=-1)


def theoretical_interval(
    template: Template,
    q,
    mode: PeriodMode = PeriodMode.NEMATIC,
    oracle_density: int = 200,
) -> IntervalEstimate:
    """Exact-robustness interval over the template's central sampling square.

    Evaluates the analytic noise-free robustness on an inclusive
    density x density grid of defect centers (centers within 1e-9 of a path
    vertex are excluded) and returns the min and max.
    """
    if oracle_density < 2:
        raise ValueError("oracle_density must be >= 2 per axis")
    verts = np.asarray(template.boundary.vertices, dtype=float)
    cx, cy = template.centroid
    xs = _oracle_axis(cx, oracle_density)
    ys = _oracle_axis(cy, oracle_density)
    n_grid = len(xs) * len(ys)
    step = _centers_per_chunk(len(verts))

    lower = math.inf
    upper = -math.inf
    kept = 0
    for start in range(0, n_grid, step):
        idx = np.arange(start, min(start + step, n_grid))
        chunk = np.column_stack([xs[idx % len(xs)], ys[idx // len(xs)]])
        d2 = np.min(
            (chunk[:, 0:1] - verts[:, 0]) ** 2 + (chunk[:, 1:2] - verts[:, 1]) ** 2,
            axis=1,
        )
        chunk = chunk[d2 > _VERTEX_EXCLUSION**2]
        if len(chunk) == 0:
            continue
        r = analytic_path_robustness(template, chunk, q, mode)
        kept += len(chunk)
        lower = min(lower, float(np.min(r)))
        upper = max(upper, float(np.max(r)))
    return IntervalEstimate(lower=lower, upper=upper, n_oracle_samples=kept)


def _draw_centers(config: SweepConfig, placement: Placement):
    """Uniform center offsets in the placed template's central unit square.

    Centers that land exactly on a grid vertex (where the winding field is
    undefined) are redrawn, up to 100 times per sample.
    """
    n = config.n_centers
    pcx, pcy = placement.template.centroid
    pcx += placement.offset[0]
    pcy += placement.offset[1]
    ux = counter_uniform(derive_seed(config.base_seed, _STREAM_CENTER_X, 0), np.arange(n)) - 0.5
    uy = counter_uniform(derive_seed(config.base_seed, _STREAM_CENTER_Y, 0), np.arange(n)) - 0.5
    cx = (pcx + ux) * config.h
    cy = (pcy + uy) * config.h

    def degenerate(cx, cy):
        ci = np.rint(cx / config.h)
        cj = np.rint(cy / config.h)
        return (ci * config.h == cx) & (cj * config.h == cy) & (ci >= 0) & (ci < config.nx) & (cj >= 0) & (cj < config.ny)

    bad = degenerate(cx, cy)
    retry = 0
    while np.any(bad):
        retry += 1
        if retry > 100:
            raise SweepFailure("could not draw a non-degenerate defect center in 100 retries")
        idx = np.nonzero(bad)[0]
        ux = counter_uniform(derive_seed(config.base_seed, _STREAM_CENTER_X, retry), idx) - 0.5
        uy = counter_uniform(derive_seed(config.base_seed, _STREAM_CENTER_Y, retry), idx) - 0.5
        cx[idx] = (pcx + ux) * config.h
        cy[idx] = (pcy + uy) * config.h
        bad[:] = False
        bad[idx] = degenerate(cx[idx], cy[idx])
    return cx, cy


def run_sweep(config: SweepConfig) -> SweepResult:
    """Monte Carlo sweep over defect centers and noise realizations.

    For each template, centers are sampled in its central unit square (the
    same center set is reused across all noise amplitudes, so noisy and clean
    robustness are paired per sample index).  Noise keys derive from
    (base_seed, center index, realization index) and the counter is the
    vertex, so any sample can be recomputed in isolation.  The amplitude is
    not in the key: every amplitude scales one uniform draw per (center,
    realization, vertex).  These common random numbers pair the per-amplitude
    comparisons as the shared centers pair noisy with clean.

    Centers are evaluated in chunks of ``_CHUNK_ELEMENTS`` /
    (n_noise_realizations * n_vertices), so the intermediate arrays stay the
    same size whatever ``n_centers``; only the returned blocks grow with it.
    """
    blocks = {}
    oracles = {}
    agreement = {}
    placements = {}
    q = float(config.charge)
    target_k = int(config.charge * config.mode.periods_per_turn)
    nreal = config.n_noise_realizations
    noisy = any(a != 0.0 for a in config.noise_amplitudes)
    if noisy:
        seeds = derive_seed(config.base_seed, _STREAM_NOISE, np.arange(config.n_centers)[:, None],
                            np.arange(nreal)[None, :])

    for template in config.templates:
        dummy = OrientationField(
            nx=config.nx, ny=config.ny, h=config.h, mode=config.mode,
            angles=np.zeros((config.ny, config.nx)),
        )
        placement = center_placement(template, dummy)
        placement.validate_in(dummy, margin=1)
        placements[template.name] = placement.offset

        verts = np.asarray(placement.path().vertices, dtype=float) * config.h
        vflat = np.array([j * config.nx + i for i, j in placement.path().vertices])
        cx, cy = _draw_centers(config, placement)
        centers = np.column_stack([cx, cy])

        # Per amplitude: k and robustness, shaped (n_centers, realizations).
        out = {a: (np.empty((config.n_centers, 1 if a == 0.0 else nreal), dtype=np.int64),
                   np.empty((config.n_centers, 1 if a == 0.0 else nreal)))
               for a in config.noise_amplitudes}
        step = _centers_per_chunk(nreal * len(vflat))
        for start in range(0, config.n_centers, step):
            rows = slice(start, start + step)
            theta_clean = _clean_vertex_angles(verts, centers[rows], q, config.phase, config.mode)
            if noisy:
                noise = 2.0 * counter_uniform(seeds[rows, :, None], vflat[None, None, :]) - 1.0
            for amplitude, (k_out, r_out) in out.items():
                if amplitude == 0.0:
                    theta = theta_clean[:, None, :]
                else:
                    theta = canonicalize(theta_clean[:, None, :] + amplitude * noise, config.mode)
                _, k, _, per_edge = winding(theta, config.mode)
                k_out[rows] = k
                np.min(per_edge, axis=-1, out=r_out[rows])

        for amplitude, (k, robustness) in out.items():
            reps = k.shape[1]
            k = k.reshape(-1)
            robustness = robustness.reshape(-1)
            block = SampleBlock(
                template=template.name,
                amplitude=float(amplitude),
                sample_index=np.arange(len(k)),
                center_x=np.repeat(cx, reps),
                center_y=np.repeat(cy, reps),
                charge=k / config.mode.periods_per_turn,
                robustness=robustness,
                normalized=robustness / template.resolution,
            )
            blocks[(template.name, float(amplitude))] = block
            agreement[(template.name, float(amplitude))] = float(np.mean(k == target_k))

        oracles[template.name] = theoretical_interval(template, config.charge, config.mode, config.oracle_density)

    return SweepResult(config=config, blocks=blocks, oracles=oracles, agreement=agreement, placements=placements)


def normalize_and_rank(result: SweepResult) -> RankReport:
    """Rank templates by worst-case robustness normalized by resolution.

    The winner per amplitude maximizes the minimum normalized robustness;
    ties break alphabetically for reproducibility.
    """
    resolutions = {t.name: t.resolution for t in result.config.templates}
    per_amplitude = {}
    for amplitude in result.config.noise_amplitudes:
        entries = []
        for template in result.config.templates:
            block = result.block(template.name, amplitude)
            entries.append(RankedEntry(
                template=template.name,
                resolution=resolutions[template.name],
                n_samples=len(block.robustness),
                min_normalized=float(np.min(block.normalized)),
                mean_normalized=float(np.mean(block.normalized)),
                min_robustness=float(np.min(block.robustness)),
                mean_robustness=float(np.mean(block.robustness)),
            ))
        entries.sort(key=lambda e: (-e.min_normalized, e.template))
        per_amplitude[float(amplitude)] = entries
    return RankReport(per_amplitude=per_amplitude)


def convergence_study(
    q,
    sizes,
    mode: PeriodMode = PeriodMode.NEMATIC,
    h: float = 1.0,
    oracle_density: int = 200,
):
    """Oracle intervals for square(n) templates plus the view-angle bound.

    The analytic lower bound is P/2 - |q|*V, clamped at 0, where V bounds the
    angle any boundary edge subtends from a center in the sampling square and
    R_min = (n-1)/2 * h is the smallest center-to-nearest-edge distance there:

    * R_min >= h: V = arcsin(h/R_min), the paper's view-angle bound;
    * R_min < h: V = 2*atan2(h, 2*R_min), the view angle of an edge of length
      h from distance R_min opposite its midpoint.  arcsin(h/R_min) does not
      bound the view angle there; at R_min = 0 a center on an edge sees that
      edge at pi.

    The rows are reported as-is and any assertions are left to callers.
    """
    q = Fraction(q)
    _validate_charge(q, mode)
    p = mode.period
    rows = []
    for n in sizes:
        template = builtin_template(f"square({n})")
        interval = theoretical_interval(template, q, mode, oracle_density)
        r_min = max(0.0, (n - 1) / 2.0 * h)
        if r_min >= h:
            view = math.asin(h / r_min)
        else:
            view = 2.0 * math.atan2(h, 2.0 * r_min)
        bound = max(0.0, p / 2.0 - abs(float(q)) * view)
        rows.append(ConvergenceRow(
            n=int(n),
            lower=interval.lower,
            upper=interval.upper,
            n_oracle_samples=interval.n_oracle_samples,
            r_min=r_min,
            analytic_lower_bound=bound,
        ))
    return rows
