"""Synthetic two-view data: whitened designs, planted rank-1 cross signal,
noise families, and observation masks (MCAR and data-dependent).

Draw layout: every pair is generated from named substreams of one seed
(design, directions, noise, mask_x, mask_y), so changing any one
ingredient (e.g. mask rates) never perturbs the others, and the order in
which a pair makes its draws does not change their values.
generate_pair whitens its design in place and draws the noise after
it, and every pair writes its observed views over the latent ones, so a
trial holds one copy of each view.  A pair whose two mask rates are 0
is observed in full: its views are the latent ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import pca_reduce, top_singular_pair, whiten
from .streams import SEED_LIMIT, derive_seed, substream

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
# masks are drawn, and the planted signal and the data-dependent link are
# formed, this many entries at a time (in whole rows), so that no
# view-sized scratch array is allocated
_MASK_CHUNK = 1 << 14


@dataclass(frozen=True)
class NoiseSpec:
    """Response-noise family; every kind has unit variance per entry."""

    kind: str = "gaussian"
    df: float = 5.0          # student_t only; must exceed 2

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}, expected one of {NOISE_KINDS}")
        if not np.isfinite(self.df):
            raise ValueError(f"df must be finite, got {self.df}")
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
        if not self.theta < np.inf:
            raise ValueError(f"theta must be finite, got {self.theta}")
        if not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not 0 <= int(self.seed) < SEED_LIMIT:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")

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
    are True where observed.  The complete views are those of the same
    config with both mask rates at 0.
    """

    x_obs: np.ndarray
    y_obs: np.ndarray
    mask_x: np.ndarray
    mask_y: np.ndarray
    u0: np.ndarray
    v0: np.ndarray
    rho: float

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


def _row_blocks(rows: int, cols: int) -> list[slice]:
    """Consecutive row slices of a rows x cols array, each of at most
    _MASK_CHUNK entries and at least one row."""
    step = max(1, _MASK_CHUNK // cols)
    return [slice(r, min(r + step, rows)) for r in range(0, rows, step)]


def _solve_intercept(shift: np.ndarray, target: float) -> float:
    """Solve for the link intercept b at which the mean missing probability
    mean(sigmoid(b + shift)) equals target; shift is strength * scores.

    Safeguarded Newton on the increasing mean-sigmoid f, whose slope is
    f' = mean(p (1 - p)).  It starts from logit(target) and keeps a
    bracket that holds the root; a step that would leave the bracket
    bisects it instead.  Since |f''| <= f', a Newton step s leaves an
    error of about s**2 / 2, so it stops after a step below
    _NEWTON_STEP_TOL (the result is then within float64 rounding of the
    root) or on f == 0.  Every step reuses one buffer of shift's shape,
    which holds p and then p (1 - p), each filled in row blocks beside a
    block-sized scratch; shift is only read.
    """
    span = max(float(shift.max()), -float(shift.min())) if shift.size else 0.0
    lo, hi = -span - 40.0, span + 40.0
    b = float(np.clip(np.log(target / (1.0 - target)), lo, hi))
    p = np.empty(shift.shape)
    blocks = _row_blocks(*shift.shape)
    scratch = np.empty_like(p[blocks[0]])
    for _ in range(_INTERCEPT_MAX_STEPS):
        for block in blocks:
            p_block = p[block]
            np.add(b, shift[block], out=p_block)
            _sigmoid(p_block, out=p_block, scratch=scratch[:len(p_block)])
        f = float(p.mean()) - target
        if f == 0.0:
            return b
        if f < 0.0:
            lo = b
        else:
            hi = b
        for block in blocks:
            p_block = p[block]
            w = np.subtract(1.0, p_block, out=scratch[:len(p_block)])
            np.multiply(p_block, w, out=p_block)
        slope = float(p.mean())
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
    shift = None
    if spec.mechanism != "mcar":
        # a data-dependent spec needs its context even at strength 0, so
        # callers cannot silently treat it as context-free
        scores = _mar_scores(spec, data_context, rows, cols)
        if spec.strength > 0.0:
            shift = np.multiply(scores, spec.strength, out=scores)
            intercept = _solve_intercept(shift, spec.target_rate)
    # rng.random((rows, cols)) >= p, bit for bit, a block of rows at a
    # time, with p the target rate or sigmoid(shift + intercept)
    rng = substream(seed, "mask")
    mask = np.empty((rows, cols), dtype=bool)
    blocks = _row_blocks(rows, cols)
    uniforms = np.empty((blocks[0].stop, cols))
    p = spec.target_rate
    if shift is not None:
        z = np.empty((blocks[0].stop, shift.shape[1]))
    for block in blocks:
        count = block.stop - block.start
        u = rng.random(out=uniforms[:count])
        if shift is not None:
            p = np.add(shift[block], intercept, out=z[:count])
            _sigmoid(p, out=p)
        np.greater_equal(u, p, out=mask[block])
    return mask


def _view_specs(config: ModelConfig) -> tuple[MaskSpec, MaskSpec]:
    """The mask specs the two views are drawn with.

    Convention: the signal-linked mechanism censors the response view
    only; a signal_dependent request on the design view falls back to
    MCAR at its own rate.
    """
    spec_x = config.mask_x
    if spec_x.mechanism == "signal_dependent":
        spec_x = MaskSpec("mcar", spec_x.target_rate, 0.0)
    return spec_x, config.mask_y


def _plant(x_star: np.ndarray, u0: np.ndarray, v0: np.ndarray,
           config: ModelConfig, noise: np.ndarray) -> MaskedPair:
    """Plant the signal in the whitened design x_star, add noise, draw the
    observation masks and mask the views.

    The response is formed in noise's memory, and the observed views are
    written over the latent ones, x_star included, so callers pass x_star
    and noise as their only references.
    """
    n, dx, dy = config.n_samples, config.dx, config.dy
    signal_scores = x_star @ u0
    # theta * np.outer(signal_scores, v0) + noise, bit for bit, a block of
    # rows at a time
    y_star = noise
    blocks = _row_blocks(n, dy)
    scratch = np.empty((blocks[0].stop, dy))
    for block in blocks:
        signal = np.multiply(signal_scores[block, None], v0,
                             out=scratch[:block.stop - block.start])
        signal *= config.theta
        y_star[block] += signal

    # the context each mechanism reads, as (design view's, response view's);
    # _view_specs draws a signal_dependent design view as MCAR
    contexts = {
        "mcar": (None, None),
        "signal_dependent": (None, signal_scores),
        "magnitude_dependent": (x_star, y_star),
        "thresholded": (x_star, y_star),
        "correlated": (y_star, x_star),
    }
    spec_x, spec_y = _view_specs(config)
    sx = sample_mask(spec_x, contexts[spec_x.mechanism][0],
                     n, dx, derive_seed(config.seed, "mask_x"))
    sy = sample_mask(spec_y, contexts[spec_y.mechanism][1],
                     n, dy, derive_seed(config.seed, "mask_y"))
    # np.where(mask, view, 0.0), bit for bit, in the view's own memory
    np.copyto(x_star, 0.0, where=~sx)
    np.copyto(y_star, 0.0, where=~sy)
    return MaskedPair(x_obs=x_star, y_obs=y_star, mask_x=sx, mask_y=sy,
                      u0=u0, v0=v0, rho=config.rho)


def planted_pair(design, u0, v0, config: ModelConfig) -> MaskedPair:
    """Plant theta * outer(design @ u0, v0) plus noise as the response and
    mask both views.  design is the n_samples x dx whitened design, u0
    and v0 unit directions; everything else, rho included, comes from
    config.  The semi-synthetic protocol reuses one design across trials,
    so the pair is planted in a C-ordered copy of it.
    """
    x_star = np.array(design, dtype=np.float64, order="C")
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
    return _plant(x_star, u0, v0, config,
                  sample_noise(config.noise, n, dy, config.seed))


def generate_pair(config: ModelConfig) -> MaskedPair:
    """One masked two-view dataset from the generative model.

    Draws a Gaussian design and whitens it exactly, draws unit planted
    directions on the sphere, plants the signal along them, adds the
    noise and masks both views, each draw from its own substream of
    config.seed.
    """
    n, dx, dy = config.n_samples, config.dx, config.dy

    def design():
        return substream(config.seed, "design").standard_normal((n, dx))

    # the design is this call's own, so whitening may write over it
    x_star = whiten(design(), redraw=design)
    rng = substream(config.seed, "directions")
    u0 = rng.standard_normal(dx)
    v0 = rng.standard_normal(dy)
    # the noise is drawn after whitening, so that it is not held beside
    # the whitening's temporaries, and passed on as its only reference
    return _plant(x_star, u0 / np.linalg.norm(u0), v0 / np.linalg.norm(v0),
                  config, sample_noise(config.noise, n, dy, config.seed))


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
