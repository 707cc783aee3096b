"""Monte Carlo sweep harness.

A sweep varies one or two axes of the generative model, runs repeated
trials at every grid point with seeds derived deterministically from the
base seed, and aggregates recovery quality against the asymptotic
predictions.  Every trial's seed depends only on its (point, trial)
coordinates, so the trials draw the same inputs at any harness thread
count.  ``run_sweep`` runs OpenBLAS on one thread, so their arithmetic
is fixed by the numpy/OpenBLAS build alone: on one build, results are
identical for every harness thread count and every core count.  An
oracle trial draws its pair from its config with both mask rates at 0,
and so fits the complete views of the draw the other estimators see
masked.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Callable, Mapping, Sequence

import numpy as np

from . import blas
from .estimators import EstimatorKind, estimate, split_half_stability
from .streams import derive_seed
from .synth import MaskedPair, MaskSpec, ModelConfig, generate_pair
from .theory import critical_threshold, predict

AXIS_NAMES = ("theta", "theta_over_crit", "m_x", "m_y", "m_joint", "rho",
              "n_samples")
# axes that reshape the model (and with it the critical point) resolve
# before the spike axes, so that relative spike strengths are measured
# against the point's own threshold
_STRUCTURAL_ORDER = ("m_x", "m_y", "m_joint", "rho", "n_samples")

# empirical_boundary's noise floor for the design-side overlap, as a
# multiple of the 1 / dx no-recovery null scale
NULL_FLOOR_MULTIPLE = 3.0

PairFactory = Callable[[ModelConfig], MaskedPair]


@dataclass(frozen=True)
class Axis:
    """One swept quantity and its grid values."""

    name: str
    values: tuple[float, ...]

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValueError(f"unknown axis {self.name!r}, expected one of {AXIS_NAMES}")
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("axis needs at least one value")
        if not all(np.isfinite(vals)):
            raise ValueError("axis values must be finite")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class SweepSpec:
    base: ModelConfig
    axis: Axis
    axis2: Axis | None = None
    trials: int = 30
    estimator: EstimatorKind = field(default_factory=EstimatorKind)
    split_half: bool = False  # also compute each trial's split-half stability

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        names = [self.axis.name]
        if self.axis2 is not None:
            names.append(self.axis2.name)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis {names[0]!r}")
        if "theta" in names and "theta_over_crit" in names:
            raise ValueError("theta and theta_over_crit axes are mutually exclusive")
        # resolve every grid point once, so that a bad axis value is
        # rejected here rather than when the sweep runs
        for assignment in grid_assignments(self):
            _resolved_config(self.base, assignment, self.base.seed)


@dataclass(frozen=True)
class TrialResult:
    """One trial's fit.  runtime is the wall time from the trial's start to
    its fit, the trial's own draws included."""

    r2_x: float
    r2_y: float
    stability: float
    runtime: float
    seed: int
    iterations: int
    error: str | None = None


@dataclass(frozen=True)
class PointSummary:
    axis1: float
    axis2: float | None
    mean_r2x: float
    std_r2x: float
    mean_r2y: float
    std_r2y: float
    mean_stability: float
    std_stability: float
    theory_r2x: float
    theory_r2y: float
    theta_crit: float
    trials_requested: int
    trials_effective: int
    seeds_digest: str
    valid: bool
    theta: float
    rho: float
    n_samples: int
    dx: int
    dy: int
    mean_runtime: float
    mean_iterations: float
    errors: tuple[str, ...]


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    points: tuple[PointSummary, ...]
    correlation: float
    correlation_supercritical: float
    total_runtime: float
    digest: str
    blas_threads: int | None


def _resolved_config(base: ModelConfig, assignments: Mapping[str, float],
                     seed: int) -> ModelConfig:
    mask_x, mask_y = base.mask_x, base.mask_y
    n, dx, dy = base.n_samples, base.dx, base.dy
    for name in _STRUCTURAL_ORDER:
        if name not in assignments:
            continue
        value = float(assignments[name])
        if name == "m_x":
            mask_x = dataclasses.replace(mask_x, target_rate=value)
        elif name == "m_y":
            mask_y = dataclasses.replace(mask_y, target_rate=value)
        elif name == "m_joint":
            mask_x = dataclasses.replace(mask_x, target_rate=value)
            mask_y = dataclasses.replace(mask_y, target_rate=value)
        elif name == "rho":
            if not 0.0 < value <= 1.0:
                raise ValueError(f"rho axis value must be in (0, 1], got {value}")
            rate = 1.0 - np.sqrt(value)
            mask_x = dataclasses.replace(mask_x, target_rate=rate)
            mask_y = dataclasses.replace(mask_y, target_rate=rate)
        else:  # n_samples, keeping the base aspect ratios
            n = int(round(value))
            dx = max(1, round(n / base.alpha_x))
            dy = max(1, round(n / base.alpha_y))
    config = dataclasses.replace(base, n_samples=n, dx=dx, dy=dy,
                                 mask_x=mask_x, mask_y=mask_y, seed=seed)
    theta = float(assignments.get("theta", base.theta))
    if "theta_over_crit" in assignments:
        crit = critical_threshold(config.alpha_x, config.alpha_y, config.rho)
        theta = float(assignments["theta_over_crit"]) * crit
    return dataclasses.replace(config, theta=theta)


def grid_assignments(spec: SweepSpec) -> list[dict[str, float]]:
    """Row-major grid over the one or two axes."""
    if spec.axis2 is None:
        return [{spec.axis.name: v} for v in spec.axis.values]
    return [{spec.axis.name: v1, spec.axis2.name: v2}
            for v1 in spec.axis.values for v2 in spec.axis2.values]


def run_trial(config: ModelConfig, estimator: EstimatorKind,
              split_half: bool,
              pair_factory: PairFactory | None = None) -> TrialResult:
    """One independent draw and fit of the trial's own config.  Failures
    are tagged, not raised.

    The pair is ``pair_factory(config)``, used as it comes, or
    ``generate_pair(config)`` when none is given; it is made inside the
    trial, so a pair source that fails is tagged on it.  The oracle's
    pair is made from config with both masks replaced by ``MaskSpec()``,
    at the same seed, so it holds the complete views of the trial's draw.
    """
    t0 = time.perf_counter()
    try:
        drawn = config
        if estimator.name == "oracle":
            drawn = dataclasses.replace(config, mask_x=MaskSpec(),
                                        mask_y=MaskSpec())
        pair = (pair_factory or generate_pair)(drawn)
        fit = estimate(pair, estimator)
        if split_half:
            stability = split_half_stability(pair, config.seed)
        else:
            stability = float("nan")
        return TrialResult(r2_x=fit.r2_x, r2_y=fit.r2_y, stability=stability,
                           runtime=time.perf_counter() - t0, seed=config.seed,
                           iterations=fit.iterations)
    except Exception as err:  # noqa: BLE001 - trial isolation is the contract
        return TrialResult(r2_x=float("nan"), r2_y=float("nan"),
                           stability=float("nan"),
                           runtime=time.perf_counter() - t0, seed=config.seed,
                           iterations=0, error=f"{type(err).__name__}: {err}")


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return float("nan"), float("nan")
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std


def _seeds_digest(seeds: Sequence[int]) -> str:
    h = blake2b(digest_size=8)
    for s in seeds:
        h.update(int(s).to_bytes(8, "little"))
    return h.hexdigest()


def _summarize_point(assignment: Mapping[str, float], spec: SweepSpec,
                     config: ModelConfig,
                     trials: Sequence[TrialResult]) -> PointSummary:
    good = [t for t in trials if t.error is None]
    mean_r2x, std_r2x = _mean_std([t.r2_x for t in good])
    mean_r2y, std_r2y = _mean_std([t.r2_y for t in good])
    mean_st, std_st = _mean_std([t.stability for t in good])
    pred = predict(config.alpha_x, config.alpha_y, config.rho, config.theta)
    axis1 = float(assignment[spec.axis.name])
    axis2 = float(assignment[spec.axis2.name]) if spec.axis2 is not None else None
    errors = tuple(sorted({t.error for t in trials if t.error is not None}))
    return PointSummary(
        axis1=axis1, axis2=axis2,
        mean_r2x=mean_r2x, std_r2x=std_r2x,
        mean_r2y=mean_r2y, std_r2y=std_r2y,
        mean_stability=mean_st, std_stability=std_st,
        theory_r2x=pred.r2_x, theory_r2y=pred.r2_y,
        theta_crit=pred.theta_crit,
        trials_requested=len(trials), trials_effective=len(good),
        seeds_digest=_seeds_digest([t.seed for t in trials]),
        valid=2 * len(good) >= len(trials) and len(good) > 0,
        theta=config.theta, rho=config.rho, n_samples=config.n_samples,
        dx=config.dx, dy=config.dy,
        mean_runtime=_mean_std([t.runtime for t in trials])[0],
        mean_iterations=_mean_std([t.iterations for t in good])[0],
        errors=errors)


def correlation_with_theory(points: Sequence[PointSummary]) -> float:
    """Pearson correlation between per-point mean design-view overlap and
    its prediction, across the given points.

    Raises when fewer than three points carry finite values or when
    either series is constant (the correlation is undefined there).
    """
    pairs = [(p.mean_r2x, p.theory_r2x) for p in points
             if p.valid and np.isfinite(p.mean_r2x) and np.isfinite(p.theory_r2x)]
    if len(pairs) < 3:
        raise ValueError(f"need at least 3 finite points, got {len(pairs)}")
    sim, theory = (np.asarray(v) for v in zip(*pairs))
    if sim.std() < 1e-15 or theory.std() < 1e-15:
        raise ValueError("correlation undefined: constant series")
    return float(np.corrcoef(sim, theory)[0, 1])


def _safe_correlation(points: Sequence[PointSummary]) -> float:
    try:
        return correlation_with_theory(points)
    except ValueError:
        return float("nan")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def result_digest(points: Sequence[PointSummary]) -> str:
    """Digest of the scientific content, excluding runtimes."""
    h = blake2b(digest_size=16)
    for p in points:
        line = "|".join(_fmt(v) for v in (
            p.axis1, p.axis2, p.mean_r2x, p.std_r2x, p.mean_r2y, p.std_r2y,
            p.mean_stability, p.std_stability, p.theory_r2x, p.theory_r2y,
            p.theta_crit, p.trials_effective, p.seeds_digest, p.theta,
            p.rho, p.n_samples, p.dx, p.dy))
        h.update(line.encode())
        h.update(b";")
    return h.hexdigest()


def run_sweep(spec: SweepSpec, threads: int | None = None,
              pair_factory: PairFactory | None = None) -> SweepResult:
    """Run every trial of ``spec`` on ``max(threads, 2)`` worker threads
    and aggregate them into points.

    ``threads`` defaults to OpenBLAS's thread count n when the sweep
    starts, or 1 when numpy bundles no OpenBLAS.  Trial t of a point
    runs on the point's config with the seed
    ``derive_seed(point_seed, "trial", t)``, derived once per trial, and
    makes its own draws on its worker.  A one-thread sweep runs two
    workers, as a two-thread sweep does, so one trial draws while
    another fits.

    OpenBLAS runs one thread for the whole sweep, and n is restored when
    the sweep returns or raises.  ``SweepResult.blas_threads`` records
    that 1, None when numpy bundles no OpenBLAS.  The count is
    process-wide, so concurrent ``run_sweep`` calls from several Python
    threads are not supported.
    """
    ambient = blas.num_threads()
    if threads is None:
        threads = ambient or 1
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    t_start = time.perf_counter()
    assignments = grid_assignments(spec)
    configs = [
        _resolved_config(spec.base, a, derive_seed(spec.base.seed, "point", i))
        for i, a in enumerate(assignments)
    ]
    trial_configs = [
        dataclasses.replace(c, seed=derive_seed(c.seed, "trial", t))
        for c in configs for t in range(spec.trials)]

    blas_threads = None if ambient is None else 1

    def trial(config):
        return run_trial(config, spec.estimator, spec.split_half, pair_factory)

    try:
        if blas_threads is not None:
            blas.set_num_threads(blas_threads)
        # map keeps trial order, so each point's trials are one contiguous
        # slice
        with ThreadPoolExecutor(max_workers=max(threads, 2)) as pool:
            trials = list(pool.map(trial, trial_configs))
        points = tuple(
            _summarize_point(assignments[i], spec, configs[i],
                             trials[i * spec.trials:(i + 1) * spec.trials])
            for i in range(len(configs)))
    finally:
        if ambient is not None:
            blas.set_num_threads(ambient)
    supercritical = [p for p in points if p.theta > p.theta_crit]
    return SweepResult(
        spec=spec, points=points,
        correlation=_safe_correlation(points),
        correlation_supercritical=_safe_correlation(supercritical),
        total_runtime=time.perf_counter() - t_start,
        digest=result_digest(points), blas_threads=blas_threads)


def _sorted_theta_points(points: Sequence[PointSummary]) -> list[PointSummary]:
    pts = [p for p in points if p.valid and np.isfinite(p.mean_r2x)]
    pts.sort(key=lambda p: p.theta)
    return pts


def _isotonic_fit(values: Sequence[float]) -> list[float]:
    """Nondecreasing least-squares fit via pool-adjacent-violators.

    The mean overlap is nondecreasing in theta through the transition, so
    crossings are read off this fit instead of the raw means; a single
    noisy point can otherwise fake a crossing far from the true one.
    """
    blocks: list[list[float]] = []  # [mean, count]
    for v in values:
        mean, count = float(v), 1.0
        while blocks and blocks[-1][0] > mean:
            prev_mean, prev_count = blocks.pop()
            total = count + prev_count
            mean = (mean * count + prev_mean * prev_count) / total
            count = total
        blocks.append([mean, count])
    fit: list[float] = []
    for mean, count in blocks:
        fit.extend([mean] * int(round(count)))
    return fit


def _crossing_theta(thetas: Sequence[float], fitted: Sequence[float],
                    level: float, strict: bool) -> float:
    for i, value in enumerate(fitted):
        hit = value > level if strict else value >= level
        if hit:
            if i == 0:
                return thetas[0]
            denom = value - fitted[i - 1]
            if denom <= 0:
                return thetas[i]
            frac = (level - fitted[i - 1]) / denom
            return thetas[i - 1] + frac * (thetas[i] - thetas[i - 1])
    return float("nan")


def empirical_boundary(points: Sequence[PointSummary]) -> float:
    """Smallest spike strength along a theta-ordered sweep whose mean
    design-side overlap rises above the noise floor
    NULL_FLOOR_MULTIPLE / dx.

    The crossing is located on an isotonic fit of the means with linear
    interpolation between grid points, so boundaries finer than the grid
    spacing remain distinguishable.  NaN when the fit never crosses.
    """
    pts = _sorted_theta_points(points)
    if not pts:
        return float("nan")
    fitted = _isotonic_fit([p.mean_r2x for p in pts])
    return _crossing_theta([p.theta for p in pts], fitted,
                           NULL_FLOOR_MULTIPLE / pts[0].dx, strict=True)


def transition_width(points: Sequence[PointSummary]) -> float:
    """Theta distance between the crossings of 25% and 75% of the
    window's peak overlap.

    Crossings are read off an isotonic fit of the means, interpolated
    between grid points.  When the curve enters the window already above
    the lower level the lower crossing clips to the window edge, so the
    result is then a lower bound on the true width.
    """
    pts = _sorted_theta_points(points)
    if len(pts) < 2:
        return float("nan")
    fitted = _isotonic_fit([p.mean_r2x for p in pts])
    peak = fitted[-1]
    if peak <= 0:
        return float("nan")
    thetas = [p.theta for p in pts]
    t_lo = _crossing_theta(thetas, fitted, 0.25 * peak, strict=False)
    t_hi = _crossing_theta(thetas, fitted, 0.75 * peak, strict=False)
    return max(0.0, t_hi - t_lo)
