"""Theoretical robustness intervals, Monte Carlo sweeps, and template ranking.

The theoretical interval for a template is the [min, max] of the noise-free
path robustness of the pure winding field over a dense deterministic grid of
defect centers in the template's central unit sampling square.  It is the
full grid's exact min and max, found without evaluating every point: a bound
on how fast each edge's view angle changes proves that most tiles of the grid
hold neither, and those tiles are skipped.
Sweeps sample centers uniformly from the same square (counter-based on the
base seed), optionally add uniform angle noise below P/2 per realization,
and record per-sample winding count and robustness.  Templates whose squares
coincide share one set of centers, and the sweep computes each of their path
vertices' angles and each of their edges' wrapped differences once for all.

Sample values are computed from the synthesis formulas evaluated at the path
vertices only; because both the field and the noise are pointwise functions
of (spec, vertex), this matches synthesizing the full grid bit for bit.
Everything is a pure function of the config, so results are independent of
parallelism and scheduling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .core import PeriodMode, _check_spacing, _edge_robustness, _quantize, canonicalize, winding, wrap_diff
from .errors import DefectRobustError, InvalidPath, SweepFailure
from .synthesis import _on_grid_vertex, _validate_amplitude, _validate_charge, counter_uniform, derive_seed
from .templates import BUILTIN_TEMPLATE_NAMES, Template, builtin_template, center_offset

# Stream tags for sub-seed derivation.
_STREAM_CENTER_X = 1
_STREAM_CENTER_Y = 2
_STREAM_NOISE = 3

#: Oracle grid points per axis unless the caller sets a density.
ORACLE_DENSITY = 200

#: Elements in each (vertices, centers[, realizations]) array of one chunk in
#: the sweep, and in each (vertices, centers) or (vertices, tiles) array of the
#: oracle.  At this size each chunk's arrays fit in cache and reuse the memory
#: the previous chunk freed; at 2**18 a sweep page-faulted 3x as often and ran
#: no faster.
_CHUNK_ELEMENTS = 1 << 16


#: Oracle tile sides in grid points, coarse to fine, each dividing the one
#: before; the last level's tiles are single grid points.
_ORACLE_TILES = (64, 16, 4, 1)

#: Slack on the oracle's tile test, about six orders above the float error of
#: one robustness evaluation.
_PRUNE_MARGIN = 1e-9


def _centers_per_chunk(elements_per_center: int) -> int:
    return max(1, _CHUNK_ELEMENTS // elements_per_center)


@dataclass(frozen=True)
class IntervalEstimate:
    """[lower, upper] robustness over sampled defect-center positions."""

    lower: float
    upper: float
    n_oracle_samples: int


def _check_oracle_density(density: int) -> int:
    if density < 2:
        raise ValueError(f"oracle_density must be >= 2 per axis, got {density}")
    return density


def _typed(value, kinds, what: str, least=None):
    """``value`` if it is one of ``kinds`` and not below ``least``; a bool never passes as an int."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise TypeError(f"expected {what}")
    if least is not None and value < least:
        raise ValueError(f"must be >= {least}")
    return value


def _sequence(value, kinds, what: str) -> tuple:
    return tuple(_typed(v, kinds, what) for v in _typed(value, (list, tuple), f"a list or tuple of {what}"))


def _distinct(values, key=lambda v: v) -> tuple:
    """``values`` as a tuple if it is not empty and no two values have equal keys."""
    values = tuple(values)
    if not values:
        raise ValueError("must not be empty")
    keys = [key(v) for v in values]
    for i, k in enumerate(keys):
        if k in keys[:i]:
            raise ValueError(f"repeats {k!r}")
    return values


@dataclass(frozen=True)
class SweepConfig:
    templates: tuple = BUILTIN_TEMPLATE_NAMES
    n_centers: int = 10_000
    noise_amplitudes: tuple = (0.0, 0.2)
    n_noise_realizations: int = 10
    base_seed: int = 0
    nx: int = 32
    ny: int = 32
    h: float = 1.0
    mode: PeriodMode = PeriodMode.NEMATIC
    charge: Fraction = Fraction(1, 2)
    oracle_density: int = ORACLE_DENSITY

    def __post_init__(self):
        """Checks every field's type and range, however the config is built; a bad
        value raises ValueError naming its field."""
        def check(name, convert):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, convert(value))
            except (TypeError, ValueError, ArithmeticError, DefectRobustError) as exc:
                raise ValueError(f"bad sweep config {name!r} = {value!r}: {exc}") from None

        for name, least in (("n_centers", 1), ("n_noise_realizations", 1), ("base_seed", None), ("nx", 2), ("ny", 2)):
            check(name, lambda v, least=least: _typed(v, int, "an integer", least))
        check("oracle_density", lambda v: _check_oracle_density(_typed(v, int, "an integer")))
        check("h", lambda v: _check_spacing(float(_typed(v, (int, float), "a number"))))
        check("mode", lambda v: v if isinstance(v, PeriodMode) else PeriodMode.from_name(_typed(v, str, "a mode name")))
        check("charge", lambda v: _validate_charge(_typed(v, (int, float, str, Fraction), "a charge"), self.mode))
        # Blocks are keyed by template name and amplitude value, so each must be
        # unique; 0.0 and -0.0 are one amplitude.
        check("noise_amplitudes", lambda v: _distinct(_validate_amplitude(float(a), self.mode)
                                                      for a in _sequence(v, (int, float), "numbers")))
        check("templates", lambda v: _distinct((t if isinstance(t, Template) else builtin_template(t)
                                                for t in _sequence(v, (str, Template), "names or Templates")),
                                               key=lambda t: t.name))
        for t in self.templates:
            try:
                t.boundary.translated(center_offset(t, self.nx, self.ny)).grid_indices(self.nx, self.ny, margin=1)
            except InvalidPath as exc:
                raise ValueError(f"bad sweep config 'templates': centred template {t.name!r}: {exc}") from None

    @classmethod
    def from_mapping(cls, raw, base_seed: int | None = None) -> "SweepConfig":
        """Config from a parsed sweep JSON object, keyed as the fields with ``nx``,
        ``ny``, ``h`` in a ``grid`` object.  Missing keys take the defaults (all builtin
        templates, ``base_seed`` if given); a non-object, an unknown key or a ``base_seed``
        unequal to the object's raises ValueError, and ``__post_init__`` checks the values.
        """
        grid_keys = ("nx", "ny", "h")
        keys = [f.name for f in fields(cls) if f.name not in grid_keys] + ["grid"]
        values = _json_object(raw, keys, "sweep config")
        grid = _json_object(values.pop("grid", {}), grid_keys, "sweep config 'grid'")
        if base_seed is not None and values.setdefault("base_seed", base_seed) != base_seed:
            raise ValueError(f"sweep config 'base_seed' = {values['base_seed']!r} differs from seed {base_seed}")
        return cls(**values, **grid)


def _json_object(raw, keys, where: str) -> dict:
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a JSON object, not {type(raw).__name__}")
    for key in raw:
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {where}; known: {', '.join(keys)}")
    return dict(raw)


@dataclass(eq=False)
class SampleBlock:
    """All samples for one (template, noise amplitude) pair.

    ``winding`` (the integer count k of periods P, in the smallest signed type
    that holds the path's +-nv/2) and ``robustness`` hold one entry per
    (center, realization), center-major; the (n_centers, 2) ``centers`` are
    shared across amplitudes.  ``charge`` is derived, k / ``periods_per_turn``.
    Blocks compare by identity: compare their arrays with ``np.array_equal``.
    """

    template: str
    amplitude: float
    resolution: float
    periods_per_turn: int
    centers: np.ndarray
    winding: np.ndarray
    robustness: np.ndarray

    @property
    def charge(self) -> np.ndarray:
        return self.winding / self.periods_per_turn

    @property
    def sample_index(self) -> np.ndarray:
        return np.arange(len(self.robustness))

    @property
    def center_x(self) -> np.ndarray:
        return np.repeat(self.centers[:, 0], len(self.robustness) // len(self.centers))

    @property
    def center_y(self) -> np.ndarray:
        return np.repeat(self.centers[:, 1], len(self.robustness) // len(self.centers))

    @property
    def normalized(self) -> np.ndarray:
        return self.robustness / self.resolution


@dataclass
class SweepResult:
    config: SweepConfig
    blocks: dict
    oracles: dict

    def block(self, template_name: str, amplitude: float) -> SampleBlock:
        return self.blocks[(template_name, float(amplitude))]

    def agreement(self, template_name: str, amplitude: float) -> float:
        """Fraction of the block's samples whose charge is the configured charge."""
        block = self.block(template_name, amplitude)
        return float(np.mean(block.winding == int(self.config.charge * block.periods_per_turn)))


@dataclass(frozen=True)
class RankedEntry:
    template: str
    min_normalized: float


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
    r_min: float
    analytic_lower_bound: float


def _clean_vertex_angles(verts_xy: np.ndarray, centers_xy: np.ndarray, q: float, mode: PeriodMode):
    """Winding-field angles at path vertices for a batch of centers.

    ``verts_xy``: (nv, 2) vertex positions; ``centers_xy``: (..., 2).
    Returns an (nv, ...) array, canonicalized, vertex-first as ``winding``
    takes it.  Identical to sampling ``synth_defect_field`` at those vertices.
    """
    column = (-1,) + (1,) * (np.ndim(centers_xy) - 1)
    dx = verts_xy[:, 0].reshape(column) - centers_xy[..., 0]
    dy = verts_xy[:, 1].reshape(column) - centers_xy[..., 1]
    return canonicalize(q * np.arctan2(dy, dx), mode)


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
    theta = _clean_vertex_angles(verts, centers, float(_validate_charge(q, mode)), mode)
    return np.min(winding(theta, mode)[3], axis=0)


def _tile_slack(verts: np.ndarray, q: float, x0, x1, y0, y1, xr, yr):
    """How far robustness can move inside each tile [x0, x1] x [y0, y1] from its
    value at (xr, yr), and whether the tile holds a path vertex.

    Modulo P, the unit edge (a, b) adds q times the angle it subtends from the
    center c, whose gradient has length 1 / (|c - a| |c - b|).  The atan2
    branch jump 2*pi*q is a multiple of P and |wrap| is 1-Lipschitz, so over
    the tile robustness is Lipschitz with
    L = |q| * max over edges of 1 / (dist(tile, a) * dist(tile, b)).
    Returns L times the largest distance from (xr, yr) to a tile corner (inf
    for a tile that holds a path vertex; inf or nan where a huge |q| overflows
    it, which bounds nothing), and the tiles that hold a path vertex.
    Arguments after ``q`` are 1-D, one entry per tile.
    """
    vx, vy = verts[:, 0:1], verts[:, 1:2]
    # Distances from each vertex to each tile, in place: the arrays are (vertices, tiles).
    dist = np.maximum(x0 - vx, vx - x1)
    dy = np.maximum(y0 - vy, vy - y1)
    np.hypot(np.maximum(dist, 0.0, out=dist), np.maximum(dy, 0.0, out=dy), out=dist)
    inv = np.divide(1.0, dist, out=np.zeros_like(dist), where=dist > 0)
    inv *= np.roll(inv, -1, axis=0)
    rho = np.hypot(np.maximum(xr - x0, x1 - xr), np.maximum(yr - y0, y1 - yr))
    with np.errstate(over="ignore", invalid="ignore"):
        slack = abs(q) * np.max(inv, axis=0) * rho
    holds_vertex = np.any(dist == 0, axis=0)
    return np.where(holds_vertex, np.inf, slack), holds_vertex


def theoretical_interval(
    template: Template,
    q,
    mode: PeriodMode = PeriodMode.NEMATIC,
    oracle_density: int = ORACLE_DENSITY,
) -> IntervalEstimate:
    """Sampled robustness interval over the template's central sampling square.

    Returns the min and max of the analytic noise-free robustness over an
    inclusive density x density grid of defect centers, less the points on a
    path vertex (where the angle is undefined), bit for bit as if every point
    were evaluated.  It evaluates few of them: the grid is cut into tiles of
    ``_ORACLE_TILES`` points per side, coarse to fine, and a tile is skipped
    once the view-angle bound of ``_tile_slack`` about its middle point proves
    that it holds neither the min nor the max.  A charge that ``mode`` cannot
    have raises ValueError.
    Neither end is certified: robustness between grid points can fall below
    ``lower`` (on ``cross`` at density 200 ``lower`` is 0.78790, while centers
    on the square's boundary reach 0.78540) or rise above ``upper``.
    """
    _check_oracle_density(oracle_density)
    q = float(_validate_charge(q, mode))
    cx, cy = template.centroid
    xs = _oracle_axis(cx, oracle_density)
    ys = _oracle_axis(cy, oracle_density)
    n = len(xs)
    verts = np.asarray(template.boundary.vertices, dtype=float)
    step = _centers_per_chunk(len(verts))

    lower = math.inf
    upper = -math.inf
    tx = ty = np.zeros(1, dtype=np.intp)  # the one tile of side n: the whole grid
    for parent_side, side in zip((n,) + _ORACLE_TILES, _ORACLE_TILES):
        # Each candidate tile (tx, ty) splits into fan x fan tiles of this side, by tile index.
        fan = -(-parent_side // side)
        tiles = []
        for start in range(0, len(tx) * fan * fan, step):
            parent, child = np.divmod(np.arange(start, min(start + step, len(tx) * fan * fan)), fan * fan)
            kx = tx[parent] * fan + child % fan
            ky = ty[parent] * fan + child // fan
            inside = (kx * side < n) & (ky * side < n)
            kx, ky = kx[inside], ky[inside]
            i0, j0 = kx * side, ky * side
            i1, j1 = np.minimum(i0 + side, n) - 1, np.minimum(j0 + side, n) - 1
            im, jm = (i0 + i1) // 2, (j0 + j1) // 2
            slack, holds_vertex = _tile_slack(verts, q, xs[i0], xs[i1], ys[j0], ys[j1], xs[im], ys[jm])
            # every tile without a path vertex is evaluated, whatever its slack
            free = ~holds_vertex
            r = np.full(len(kx), np.nan)
            r[free] = analytic_path_robustness(template, np.column_stack([xs[im[free]], ys[jm[free]]]), q, mode)
            lower = float(np.min(r[free], initial=lower))
            upper = float(np.max(r[free], initial=upper))
            if side > 1:
                tiles.append((kx, ky, r, slack))
        if side == 1:
            break
        kx, ky, r, slack = (np.concatenate(a) for a in zip(*tiles))
        # A skipped tile's points all lie above the final lower and below the final
        # upper.  A tile that holds a path vertex has r = nan, and one whose slack
        # is not finite fails both tests, so neither is ever skipped.
        skip = (r - slack > lower + _PRUNE_MARGIN) & (r + slack < upper - _PRUNE_MARGIN)
        tx, ty = kx[~skip], ky[~skip]
    # compared directly: np.isin sorts, and in numpy 2 its np.unique imports numpy.ma (about 10 ms)
    on_grid = (verts[:, 0:1] == xs).any(axis=1) & (verts[:, 1:2] == ys).any(axis=1)
    n_on_vertex = int(np.count_nonzero(on_grid))
    return IntervalEstimate(lower=lower, upper=upper, n_oracle_samples=n * n - n_on_vertex)


def _draw_centers(config: SweepConfig, centre):
    """Uniform centers, (n_centers, 2), in the unit square around ``centre`` (lattice units).

    Centers that land exactly on a grid vertex (where the winding field is
    undefined) are redrawn, up to 100 times per sample.
    """
    pcx, pcy = centre
    centers = np.empty((config.n_centers, 2))
    idx = np.arange(config.n_centers)
    for retry in range(101):
        ux = counter_uniform(derive_seed(config.base_seed, _STREAM_CENTER_X, retry), idx) - 0.5
        uy = counter_uniform(derive_seed(config.base_seed, _STREAM_CENTER_Y, retry), idx) - 0.5
        centers[idx, 0] = (pcx + ux) * config.h
        centers[idx, 1] = (pcy + uy) * config.h
        idx = idx[_on_grid_vertex(centers[idx, 0], centers[idx, 1], config.h)]
        if len(idx) == 0:
            return centers
    raise SweepFailure("could not draw a non-degenerate defect center in 100 retries")


def _edge_union(paths):
    """The paths' vertices, each once; their distinct directed edges as
    (tail, head) indices into those vertices; and each path's edges as
    indices into the edges, in path order."""
    vertex_index, edge_index, path_edges = {}, {}, []
    for path in paths:
        vs = [vertex_index.setdefault(v, len(vertex_index)) for v in path.vertices]
        path_edges.append([edge_index.setdefault(e, len(edge_index)) for e in zip(vs, vs[1:] + vs[:1])])
    return list(vertex_index), list(edge_index), path_edges


def run_sweep(config: SweepConfig) -> SweepResult:
    """Monte Carlo sweep over defect centers and noise realizations.

    For each template, centers are sampled in its central unit square (the
    same center set is reused across all noise amplitudes, so noisy and clean
    robustness are paired per sample index).  Noise keys derive from
    (base_seed, center index, realization index) and the counter is the
    vertex, so any sample can be recomputed in isolation.  The amplitude is
    not in the key: every amplitude scales one uniform draw per (center,
    realization, vertex).  These common random numbers pair the per-amplitude
    comparisons as the shared centers pair noisy with clean.  Every amplitude
    lies in [0, P/2), the range ``add_noise`` takes, so the samples match
    ``add_noise`` on the synthesized field; ``SweepConfig`` rejects any other.

    Centers are drawn from the central square alone, so templates whose
    central squares coincide (``single``, ``cross``, ``3x3`` and ``3x3ext``)
    share one centers array, and at a vertex they share, one angle and one
    noise draw per (center, realization).  The sweep therefore works per
    central square: for each chunk of its centers it computes the clean
    angles, the noise and each amplitude's noisy angles once over the union
    of the templates' path vertices, and each wrapped difference once per
    distinct directed edge.  Each template then sums its own edges' rows in
    path order, as ``winding`` does, and takes the minimum of their
    robustness, so its samples do not depend on the other templates.

    Centers are evaluated in chunks of ``_CHUNK_ELEMENTS`` /
    (n_noise_realizations * union vertices), so the intermediate arrays stay
    the same size whatever ``n_centers``; only ``winding`` and ``robustness``
    grow per sample.  Each wrapped difference is at most P/2, so |k| <= nv/2,
    and ``winding`` takes the smallest signed type holding that: 1 byte per
    sample for every builtin template.
    Each chunk's angles, noise and per-edge robustness are (vertices or edges,
    centers, realizations), vertex-first, so the sums and the minimum over
    edges run over whole contiguous (centers, realizations) slabs.
    """
    q = float(config.charge)
    nreal = config.n_noise_realizations
    noisy = any(a != 0.0 for a in config.noise_amplitudes)
    if noisy:
        seeds = derive_seed(config.base_seed, _STREAM_NOISE, np.arange(config.n_centers)[:, None],
                            np.arange(nreal)[None, :])

    squares = {}
    for template in config.templates:
        offset = center_offset(template, config.nx, config.ny)
        centre = (template.centroid[0] + offset[0], template.centroid[1] + offset[1])
        squares.setdefault(centre, []).append((template, template.boundary.translated(offset)))

    samples = {}
    for centre, members in squares.items():
        centers = _draw_centers(config, centre)
        centers.flags.writeable = False
        vertices, union_edges, path_edges = _edge_union(path for _, path in members)
        verts = np.asarray(vertices, dtype=float) * config.h
        vflat = np.array([j * config.nx + i for i, j in vertices])

        # Per template and amplitude: k and robustness, shaped (n_centers,
        # realizations).  The count type must hold +nv/2 as well: -(nv // 2)
        # alone gives int8 at nv = 256.
        outs = []
        for (template, _), edges in zip(members, path_edges):
            k_type = np.min_scalar_type(-(len(edges) // 2) - 1)
            out = {a: (np.empty((config.n_centers, 1 if a == 0.0 else nreal), dtype=k_type),
                       np.empty((config.n_centers, 1 if a == 0.0 else nreal)))
                   for a in config.noise_amplitudes}
            samples[template.name] = centers, out
            outs.append((edges, out))
        step = _centers_per_chunk(nreal * len(vflat))
        for start in range(0, config.n_centers, step):
            rows = slice(start, start + step)
            theta_clean = _clean_vertex_angles(verts, centers[rows], q, config.mode)[:, :, None]
            if noisy:
                noise = counter_uniform(seeds[None, rows, :], vflat[:, None, None])
                noise *= 2.0
                noise -= 1.0
                noisy_sum = np.empty_like(noise)
            for amplitude in config.noise_amplitudes:
                if amplitude == 0.0:
                    theta = theta_clean
                else:
                    np.multiply(noise, amplitude, out=noisy_sum)
                    noisy_sum += theta_clean
                    theta = canonicalize(noisy_sum, config.mode)
                # Row by row, here and in the minimum: indexing with an array of
                # rows copies them element by element, 2-3x slower.
                d = np.empty((len(union_edges),) + theta.shape[1:])
                for e, (tail, head) in enumerate(union_edges):
                    np.subtract(theta[head], theta[tail], out=d[e])
                d = wrap_diff(d, config.mode)
                for edges, out in outs:
                    out[amplitude][0][rows] = _quantize([d[e] for e in edges], config.mode)[1]
                r = _edge_robustness(d, config.mode)
                for edges, out in outs:
                    r_out = out[amplitude][1][rows]
                    np.minimum(r[edges[0]], r[edges[1]], out=r_out)
                    for e in edges[2:]:
                        np.minimum(r_out, r[e], out=r_out)

    blocks = {}
    oracles = {}
    for template in config.templates:
        centers, out = samples[template.name]
        for amplitude, (k, robustness) in out.items():
            blocks[(template.name, float(amplitude))] = SampleBlock(
                template=template.name,
                amplitude=float(amplitude),
                resolution=template.resolution,
                periods_per_turn=config.mode.periods_per_turn,
                centers=centers,
                winding=k.reshape(-1),
                robustness=robustness.reshape(-1),
            )
        oracles[template.name] = theoretical_interval(template, config.charge, config.mode, config.oracle_density)

    return SweepResult(config=config, blocks=blocks, oracles=oracles)


def normalize_and_rank(result: SweepResult) -> RankReport:
    """Rank templates by worst-case robustness normalized by resolution.

    The winner per amplitude maximizes the minimum normalized robustness;
    ties break alphabetically for reproducibility.
    """
    per_amplitude = {}
    for amplitude in result.config.noise_amplitudes:
        entries = []
        for template in result.config.templates:
            robustness = result.block(template.name, amplitude).robustness
            # Dividing by a positive constant keeps the order, so this is min(normalized) bit for bit.
            entries.append(RankedEntry(template=template.name,
                                       min_normalized=float(np.min(robustness)) / template.resolution))
        entries.sort(key=lambda e: (-e.min_normalized, e.template))
        per_amplitude[float(amplitude)] = entries
    return RankReport(per_amplitude=per_amplitude)


def convergence_study(
    q,
    sizes,
    mode: PeriodMode = PeriodMode.NEMATIC,
    oracle_density: int = ORACLE_DENSITY,
):
    """Oracle intervals for square(n) templates plus the view-angle bound.

    Lengths are in lattice units; robustness is scale-free, so a grid spacing
    h cancels from every row.  The analytic lower bound is P/2 - |q|*V,
    clamped at 0, where V bounds the angle any boundary edge subtends from a
    center in the sampling square and R_min = (n-1)/2 is the smallest
    center-to-nearest-edge distance there:

    * R_min >= 1: V = arcsin(1/R_min), the paper's view-angle bound;
    * R_min < 1: V = 2*atan2(1, 2*R_min), the view angle of a unit edge from
      distance R_min opposite its midpoint.  arcsin(1/R_min) does not bound
      the view angle there; at R_min = 0 a center on an edge sees that edge
      at pi.

    The rows are reported as-is and any assertions are left to callers.
    """
    q = _validate_charge(q, mode)
    p = mode.period
    rows = []
    for n in sizes:
        template = builtin_template(f"square({n})")
        interval = theoretical_interval(template, q, mode, oracle_density)
        r_min = (n - 1) / 2.0
        if r_min >= 1.0:
            view = math.asin(1.0 / r_min)
        else:
            view = 2.0 * math.atan2(1.0, 2.0 * r_min)
        bound = max(0.0, p / 2.0 - abs(float(q)) * view)
        rows.append(ConvergenceRow(n=int(n), lower=interval.lower, upper=interval.upper, r_min=r_min,
                                   analytic_lower_bound=bound))
    return rows
