"""Synthetic two-view data: whitened designs, planted rank-1 cross signal,
noise families, and observation masks (MCAR and data-dependent).

Draw layout: every pair is generated from named substreams of one seed
(design, directions, noise, mask_x, mask_y), so changing any one
ingredient (e.g. mask rates) never perturbs the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import pca_reduce, top_singular_pair, whiten
from .streams import derive_seed, substream

NOISE_KINDS = ("gaussian", "student_t", "laplace", "heteroskedastic")
MASK_MECHANISMS = ("mcar", "signal_dependent", "magnitude_dependent",
                   "thresholded", "correlated")

# fraction of entries above the per-column cutoff in the thresholded
# missingness link (cutoff = 70th percentile)
_THRESHOLD_QUANTILE = 0.7
# intercept solve: Newton takes a handful of steps, and the budget also
# covers the ~60 bisections that reach float64 resolution from the
# bracket.  The step tolerance is not a few ulps because near the root
# the rounding noise of the mean moves the steps by several ulps
_INTERCEPT_MAX_STEPS = 100
_NEWTON_STEP_TOL = 1e-8
# heteroskedastic noise: per-column variances drawn uniformly from this
# range, which averages to 1 (unit variance in expectation)
_HETEROSKEDASTIC_VARIANCES = (0.5, 1.5)


@dataclass(frozen=True)
class NoiseSpec:
    """Response-noise family; every kind has unit variance per entry."""

    kind: str = "gaussian"
    df: float = 5.0          # student_t only; must exceed 2

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}, expected one of {NOISE_KINDS}")
        if self.kind == "student_t" and not self.df > 2:
            raise ValueError(f"student_t needs df > 2 for finite variance, got {self.df}")


@dataclass(frozen=True)
class MaskSpec:
    """Observation-mask mechanism with target missing rate and MAR strength.

    strength is the coupling of the missingness probability to the data
    score; 0 reduces every mechanism to MCAR at target_rate.
    """

    mechanism: str = "mcar"
    target_rate: float = 0.0
    strength: float = 0.0

    def __post_init__(self):
        if self.mechanism not in MASK_MECHANISMS:
            raise ValueError(
                f"unknown mask mechanism {self.mechanism!r}, expected one of {MASK_MECHANISMS}")
        if not 0.0 <= self.target_rate < 1.0:
            raise ValueError(f"target_rate must be in [0, 1), got {self.target_rate}")
        if not 0.0 <= self.strength <= 1.0:
            raise ValueError(f"strength must be in [0, 1], got {self.strength}")


@dataclass(frozen=True)
class ModelConfig:
    """Full description of one synthetic data-generation setting."""

    n_samples: int
    dx: int
    dy: int
    theta: float
    mask_x: MaskSpec = field(default_factory=MaskSpec)
    mask_y: MaskSpec = field(default_factory=MaskSpec)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    seed: int = 0

    def __post_init__(self):
        for name in ("n_samples", "dx", "dy"):
            v = getattr(self, name)
            if not (isinstance(v, (int, np.integer)) and v >= 1):
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.n_samples < self.dx:
            raise ValueError(
                f"whitening needs n_samples >= dx, got {self.n_samples} < {self.dx}")
        if not self.theta >= 0:
            raise ValueError(f"theta must be non-negative, got {self.theta}")
        if not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")

    @property
    def alpha_x(self) -> float:
        return self.n_samples / self.dx

    @property
    def alpha_y(self) -> float:
        return self.n_samples / self.dy

    @property
    def rho(self) -> float:
        return (1.0 - self.mask_x.target_rate) * (1.0 - self.mask_y.target_rate)


@dataclass(frozen=True)
class MaskedPair:
    """One generated two-view dataset.

    x_obs / y_obs are missing-as-zero observed matrices; mask_x / mask_y
    are True where observed.  The latent complete matrices are retained
    so oracle estimators and diagnostics can access them.
    """

    x_obs: np.ndarray
    y_obs: np.ndarray
    mask_x: np.ndarray
    mask_y: np.ndarray
    u0: np.ndarray
    v0: np.ndarray
    rho: float
    x_latent: np.ndarray
    y_latent: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.x_obs.shape[0]


def sample_noise(spec: NoiseSpec, rows: int, cols: int, seed: int) -> np.ndarray:
    """Unit-variance noise matrix of the requested family, deterministic in seed."""
    if rows < 1 or cols < 1:
        raise ValueError(f"noise shape must be positive, got {rows} x {cols}")
    rng = substream(seed, "noise")
    if spec.kind == "gaussian":
        return rng.standard_normal((rows, cols))
    if spec.kind == "student_t":
        scale = np.sqrt(spec.df / (spec.df - 2.0))
        return rng.standard_t(spec.df, size=(rows, cols)) / scale
    if spec.kind == "laplace":
        return rng.laplace(0.0, 1.0 / np.sqrt(2.0), size=(rows, cols))
    # heteroskedastic: one variance per column, Gaussian within column
    variances = rng.uniform(*_HETEROSKEDASTIC_VARIANCES, size=cols)
    return rng.standard_normal((rows, cols)) * np.sqrt(variances)


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None,
             scratch: np.ndarray | None = None) -> np.ndarray:
    """Logistic function of z, written to out (which may be z itself).

    With e = exp(-|z|), which cannot overflow, the result is
    max(e, z >= 0) / (1 + e): since e <= 1 that is 1 / (1 + e) where
    z >= 0 and e / (1 + e) elsewhere, bit for bit, in one division per
    entry.  scratch, if given, is a buffer of z's shape that receives e.
    """
    nonneg = z >= 0  # read before out, which may be z, is written
    e = np.abs(z, out=scratch)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, nonneg, out=out)
    np.add(e, 1.0, out=e)
    return np.divide(out, e, out=out)


def _standardize(scores: np.ndarray) -> np.ndarray:
    """Centre and scale scores to unit variance, in place."""
    mu = scores.mean()
    sd = scores.std()
    if sd < 1e-12:
        # constant score carries no information; degenerate to MCAR
        return np.zeros_like(scores)
    scores -= mu
    scores /= sd
    return scores


def _solve_intercept(scores: np.ndarray, strength: float, target: float) -> float:
    """Solve for the link intercept b at which the mean missing probability
    mean(sigmoid(b + strength * scores)) equals target.

    Safeguarded Newton on the increasing mean-sigmoid f, whose slope is
    f' = mean(p (1 - p)).  It starts from logit(target) and keeps a
    bracket that holds the root; a step that would leave the bracket
    bisects it instead.  Since |f''| <= f', a Newton step s leaves an
    error of about s**2 / 2, so it stops after a step below
    _NEWTON_STEP_TOL (the result is then within float64 rounding of the
    root) or on f == 0.  Every step reuses the same two view-sized
    buffers.
    """
    shift = strength * scores
    span = max(float(shift.max()), -float(shift.min())) if shift.size else 0.0
    lo, hi = -span - 40.0, span + 40.0
    b = float(np.clip(np.log(target / (1.0 - target)), lo, hi))
    p = np.empty_like(shift)
    w = np.empty_like(shift)
    for _ in range(_INTERCEPT_MAX_STEPS):
        np.add(b, shift, out=p)
        _sigmoid(p, out=p, scratch=w)
        f = float(p.mean()) - target
        if f == 0.0:
            return b
        if f < 0.0:
            lo = b
        else:
            hi = b
        np.subtract(1.0, p, out=w)
        np.multiply(p, w, out=w)
        slope = float(w.mean())
        step = -f / slope if slope > 0.0 else np.inf
        if abs(step) <= _NEWTON_STEP_TOL:
            return b + step
        b = b + step if lo < b + step < hi else 0.5 * (lo + hi)
    return b


def _mar_scores(spec: MaskSpec, data_context, rows: int, cols: int) -> np.ndarray:
    """Standardized scores for the data-dependent mechanisms.

    Per entry (rows x cols), or per row as a rows x 1 column that
    broadcasts across the view for the row mechanisms (signal_dependent,
    correlated), so the intercept solve and the link run over rows only.
    """
    if data_context is None:
        raise ValueError(
            f"mask mechanism {spec.mechanism!r} requires a data context")
    ctx = np.asarray(data_context, dtype=np.float64)
    if spec.mechanism == "signal_dependent":
        # context: per-row signal values; higher magnitude => more missing
        if ctx.ndim != 1 or ctx.shape[0] != rows:
            raise ValueError(
                f"signal_dependent context must be a length-{rows} row-score vector")
        return _standardize(np.abs(ctx))[:, None]
    if spec.mechanism == "magnitude_dependent":
        if ctx.shape != (rows, cols):
            raise ValueError(
                f"magnitude_dependent context must match the view shape {(rows, cols)}")
        return _standardize(np.abs(ctx))
    if spec.mechanism == "thresholded":
        if ctx.shape != (rows, cols):
            raise ValueError(
                f"thresholded context must match the view shape {(rows, cols)}")
        cut = np.quantile(ctx, _THRESHOLD_QUANTILE, axis=0)
        # the standardized indicator of ctx > cut takes two values
        p = 1.0 - _THRESHOLD_QUANTILE
        sd = np.sqrt(p * (1.0 - p))
        return np.where(ctx > cut, (1.0 - p) / sd, (0.0 - p) / sd)
    # correlated: row score from the other view's mean entry magnitude
    if ctx.ndim != 2 or ctx.shape[0] != rows:
        raise ValueError(
            f"correlated context must be the other view's matrix with {rows} rows")
    return _standardize(np.abs(ctx).mean(axis=1))[:, None]


def sample_mask(spec: MaskSpec, data_context, rows: int, cols: int,
                seed: int) -> np.ndarray:
    """Boolean observation mask (True = observed).

    MCAR ignores the context.  The data-dependent mechanisms pass a
    standardized score through a logistic link whose intercept is solved
    so the expected missing rate equals target_rate; strength 0 makes
    the probabilities constant, reproducing MCAR draw for draw.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"mask shape must be positive, got {rows} x {cols}")
    if spec.target_rate == 0.0:
        return np.ones((rows, cols), dtype=bool)
    uniforms = substream(seed, "mask").random((rows, cols))
    if spec.mechanism == "mcar" or spec.strength == 0.0:
        if spec.mechanism != "mcar":
            # context is still required so callers cannot silently treat a
            # data-dependent spec as context-free
            _mar_scores(spec, data_context, rows, cols)
        return uniforms >= spec.target_rate
    scores = _mar_scores(spec, data_context, rows, cols)
    intercept = _solve_intercept(scores, spec.strength, spec.target_rate)
    z = spec.strength * scores
    z += intercept
    return uniforms >= _sigmoid(z, out=z)


def _view_context(spec: MaskSpec, own_latent: np.ndarray,
                  other_latent: np.ndarray, signal_scores: np.ndarray | None):
    if spec.mechanism in ("magnitude_dependent", "thresholded"):
        return own_latent
    if spec.mechanism == "correlated":
        return other_latent
    if spec.mechanism == "signal_dependent":
        return signal_scores
    return None


def planted_pair(design, u0, v0, config: ModelConfig) -> MaskedPair:
    """Plant theta * outer(design @ u0, v0) plus noise as the response and
    mask both views.  design is the n_samples x dx whitened design, u0
    and v0 unit directions; everything else, rho included, comes from
    config.  The semi-synthetic protocol reuses one design across trials.
    """
    x_star = np.asarray(design, dtype=np.float64)
    u0 = np.asarray(u0, dtype=np.float64)
    v0 = np.asarray(v0, dtype=np.float64)
    n, dx, dy = config.n_samples, config.dx, config.dy
    if x_star.shape != (n, dx):
        raise ValueError(f"design must have shape {(n, dx)}, got {x_star.shape}")
    if u0.shape != (dx,) or v0.shape != (dy,):
        raise ValueError(
            f"directions must have shapes ({dx},) and ({dy},), "
            f"got {u0.shape} and {v0.shape}")
    for name, vec in (("u0", u0), ("v0", v0)):
        if abs(np.linalg.norm(vec) - 1.0) > 1e-8:
            raise ValueError(f"planted direction {name} must have unit norm")
    signal_scores = x_star @ u0
    y_star = (config.theta * np.outer(signal_scores, v0)
              + sample_noise(config.noise, n, dy, config.seed))

    # Convention: the signal-linked mechanism censors the response view
    # only; a signal_dependent request on the design view falls back to
    # MCAR at its own rate.
    spec_x = config.mask_x
    if spec_x.mechanism == "signal_dependent":
        spec_x = MaskSpec("mcar", spec_x.target_rate, 0.0)
    ctx_x = _view_context(spec_x, x_star, y_star, None)
    ctx_y = _view_context(config.mask_y, y_star, x_star, signal_scores)
    sx = sample_mask(spec_x, ctx_x, n, dx, derive_seed(config.seed, "mask_x"))
    sy = sample_mask(config.mask_y, ctx_y, n, dy, derive_seed(config.seed, "mask_y"))
    return MaskedPair(
        x_obs=np.where(sx, x_star, 0.0),
        y_obs=np.where(sy, y_star, 0.0),
        mask_x=sx,
        mask_y=sy,
        u0=u0,
        v0=v0,
        rho=config.rho,
        x_latent=x_star,
        y_latent=y_star,
    )


def generate_pair(config: ModelConfig) -> MaskedPair:
    """Draw one masked two-view dataset from the generative model.

    An exactly whitened Gaussian design and unit planted directions
    drawn on the sphere, each from its own substream of config.seed,
    handed to planted_pair.
    """
    rng_design = substream(config.seed, "design")
    x_star = whiten(rng_design.standard_normal((config.n_samples, config.dx)))
    rng = substream(config.seed, "directions")
    u0 = rng.standard_normal(config.dx)
    v0 = rng.standard_normal(config.dy)
    return planted_pair(x_star, u0 / np.linalg.norm(u0), v0 / np.linalg.norm(v0),
                        config)


def prepare_semi_synthetic(x_real, y_real, target_dims: int):
    """Reduce paired real matrices and extract empirical signal directions.

    Standardizes columns, projects each view onto its top principal
    directions, whitens the design view exactly, and returns
    (whitened design, u_dir, v_dir) where the directions are the leading
    singular pair of the complete-data cross-covariance.
    """
    x = np.asarray(x_real, dtype=np.float64)
    y = np.asarray(y_real, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError("real views must be 2-D matrices")
    if x.shape[0] != y.shape[0]:
        raise ValueError(
            f"views must share rows, got {x.shape[0]} vs {y.shape[0]}")
    n = x.shape[0]
    if n < target_dims:
        raise ValueError(
            f"need at least target_dims={target_dims} rows, got {n}")

    def _standardize_cols(m):
        mu = m.mean(axis=0)
        sd = m.std(axis=0)
        sd = np.where(sd < 1e-12, 1.0, sd)
        return (m - mu) / sd

    x_red = pca_reduce(_standardize_cols(x), target_dims)
    y_red = pca_reduce(_standardize_cols(y), target_dims)
    x_w = whiten(x_red)
    triple = top_singular_pair(x_w.T @ y_red / n)
    return x_w, triple.left, triple.right
