"""Tests for the synthetic and semi-synthetic data generators."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from maskedpls import synth
from maskedpls.matio import write_matrix
from maskedpls.presets import preset_config
from maskedpls.linalg import whiten
from maskedpls.streams import derive_seed, substream
from maskedpls.synth import (
    MASK_MECHANISMS,
    NOISE_KINDS,
    MaskedPair,
    MaskSpec,
    ModelConfig,
    NoiseSpec,
    generate_pair,
    planted_pair,
    prepare_semi_synthetic,
    sample_mask,
    sample_noise,
)


def _desk_config(**overrides) -> ModelConfig:
    base = dict(n_samples=300, dx=40, dy=25, theta=1.4,
                mask_x=MaskSpec("mcar", 0.3), mask_y=MaskSpec("mcar", 0.4),
                seed=11)
    base.update(overrides)
    return ModelConfig(**base)


def _unmasked(cfg: ModelConfig) -> ModelConfig:
    return dataclasses.replace(cfg, mask_x=MaskSpec(), mask_y=MaskSpec())


def _complete(cfg: ModelConfig) -> MaskedPair:
    """The pair of cfg's draw with both masks off: its observed views are
    the latent ones that cfg's masks hide entries of."""
    return generate_pair(_unmasked(cfg))


# ---------------------------------------------------------------------------
# spec validation


def test_noise_spec_validation():
    with pytest.raises(ValueError, match="unknown noise kind"):
        NoiseSpec("cauchy")
    with pytest.raises(ValueError, match="df > 2"):
        NoiseSpec("student_t", df=2.0)


@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_noise_spec_rejects_non_finite_df_for_every_kind(kind):
    # a sweep document's null df decodes as NaN, which no kind may accept
    for df in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="df must be finite"):
            NoiseSpec(kind, df=df)


def test_mask_spec_validation():
    with pytest.raises(ValueError, match="unknown mask mechanism"):
        MaskSpec("mnar")
    with pytest.raises(ValueError, match="target_rate"):
        MaskSpec("mcar", target_rate=1.0)
    with pytest.raises(ValueError, match="strength"):
        MaskSpec("mcar", target_rate=0.3, strength=1.5)


def test_model_config_validation():
    with pytest.raises(ValueError, match="n_samples >= dx"):
        _desk_config(n_samples=30)
    with pytest.raises(ValueError, match="theta"):
        _desk_config(theta=-0.5)
    with pytest.raises(ValueError, match="theta must be non-negative, got nan"):
        _desk_config(theta=float("nan"))
    with pytest.raises(ValueError, match="theta must be finite, got inf"):
        _desk_config(theta=float("inf"))
    with pytest.raises(ValueError, match="positive integer"):
        ModelConfig(n_samples=0, dx=1, dy=1, theta=1.0)


def test_model_config_derived_ratios():
    cfg = _desk_config()
    assert cfg.alpha_x == pytest.approx(300 / 40)
    assert cfg.alpha_y == pytest.approx(300 / 25)
    assert cfg.rho == pytest.approx(0.7 * 0.6)


# ---------------------------------------------------------------------------
# noise families (moments frozen at the test seed)


def test_gaussian_noise_moments():
    z = sample_noise(NoiseSpec("gaussian"), 1000, 1000, seed=1234)
    assert abs(z.mean()) < 0.01
    assert 0.99 < z.var() < 1.01
    exkurt = np.mean(z**4) / np.mean(z**2) ** 2 - 3.0
    assert abs(exkurt) < 0.1


def test_laplace_noise_moments():
    z = sample_noise(NoiseSpec("laplace"), 1000, 1000, seed=1234)
    assert abs(z.mean()) < 0.01
    assert 0.98 < z.var() < 1.02
    exkurt = np.mean(z**4) / np.mean(z**2) ** 2 - 3.0
    assert 2.5 < exkurt < 3.5


def test_student_t_noise_moments():
    z = sample_noise(NoiseSpec("student_t", df=5.0), 1000, 1000, seed=1234)
    assert abs(z.mean()) < 0.01
    assert 0.98 < z.var() < 1.02
    exkurt = np.mean(z**4) / np.mean(z**2) ** 2 - 3.0
    # heavier than laplace; the kurtosis estimate itself is heavy-tailed
    # for df = 5, so only a generous frozen-seed bracket is sound
    assert 3.5 < exkurt < 8.5


def test_student_t_heavy_tails_ordering():
    # the df = 3 family keeps unit variance by construction but its
    # sample kurtosis blows up; df = 4.5 sits between 5 and 3
    z45 = sample_noise(NoiseSpec("student_t", df=4.5), 1000, 1000, seed=1234)
    z3 = sample_noise(NoiseSpec("student_t", df=3.0), 1000, 1000, seed=1234)
    k45 = np.mean(z45**4) / np.mean(z45**2) ** 2 - 3.0
    k3 = np.mean(z3**4) / np.mean(z3**2) ** 2 - 3.0
    assert k45 > 5.0
    assert k3 > 20.0
    assert 0.98 < z45.var() < 1.02
    assert 0.6 < z3.var() < 2.0


def test_heteroskedastic_noise_column_profile():
    z = sample_noise(NoiseSpec("heteroskedastic"), 4000, 200, seed=1234)
    col_var = z.var(axis=0)
    assert col_var.min() > 0.4
    assert col_var.max() < 1.7
    # column variances are uniform on [0.5, 1.5], so the grand variance
    # concentrates near 1 but carries O(1/sqrt(cols)) spread
    assert 0.9 < z.var() < 1.1


def test_noise_deterministic_and_seed_sensitive():
    spec = NoiseSpec("laplace")
    a = sample_noise(spec, 50, 20, seed=5)
    b = sample_noise(spec, 50, 20, seed=5)
    c = sample_noise(spec, 50, 20, seed=6)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_noise_rejects_degenerate_shape():
    with pytest.raises(ValueError, match="shape"):
        sample_noise(NoiseSpec(), 0, 5, seed=1)


# ---------------------------------------------------------------------------
# masks


def test_mask_zero_rate_is_fully_observed():
    m = sample_mask(MaskSpec("mcar", 0.0), None, 30, 10, seed=2)
    assert m.all()
    assert m.dtype == bool


def test_mcar_rate_calibration():
    m = sample_mask(MaskSpec("mcar", 0.3), None, 1000, 200, seed=7)
    assert abs((1.0 - m.mean()) - 0.3) < 0.01


def test_data_dependent_rate_calibration():
    rng = substream(0, "mar-meas")
    ctx = rng.standard_normal((1000, 200))
    row_scores = rng.standard_normal(1000)
    contexts = {
        "magnitude_dependent": ctx,
        "thresholded": ctx,
        "correlated": ctx,
        "signal_dependent": row_scores,
    }
    for mech, context in contexts.items():
        for strength in (0.25, 0.5, 1.0):
            spec = MaskSpec(mech, 0.3, strength)
            m = sample_mask(spec, context, 1000, 200, seed=7)
            missing = 1.0 - m.mean()
            assert abs(missing - 0.3) < 0.01, (mech, strength, missing)


def test_signal_dependent_censors_strong_rows_more():
    scores = substream(0, "mar-meas").standard_normal(1000)
    m = sample_mask(MaskSpec("signal_dependent", 0.3, 1.0), scores,
                    1000, 200, seed=7)
    missing = 1.0 - m.mean(axis=1)
    order = np.argsort(np.abs(scores))
    quartiles = [q.mean() for q in np.array_split(missing[order], 4)]
    assert all(b > a for a, b in zip(quartiles, quartiles[1:]))
    # strongest quartile is censored far above the nominal rate
    assert quartiles[-1] > 0.45
    assert quartiles[0] < 0.15


def test_zero_strength_reduces_to_mcar_bitwise():
    ctx = np.ones((1000, 200))
    a = sample_mask(MaskSpec("magnitude_dependent", 0.3, 0.0), ctx,
                    1000, 200, seed=3)
    b = sample_mask(MaskSpec("mcar", 0.3, 0.0), None, 1000, 200, seed=3)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("shape", [
    (1, 1),
    (7, 13),                          # below one chunk
    (128, synth._MASK_CHUNK // 128),  # exactly one chunk
    (130, 259),                       # several chunks, the last one partial
    (3, synth._MASK_CHUNK + 5),       # rows wider than a chunk, one per block
])
def test_chunked_mcar_mask_is_the_whole_view_comparison(shape):
    rows, cols = shape
    want = substream(5, "mask").random((rows, cols)) >= 0.35
    got = sample_mask(MaskSpec("mcar", 0.35), None, rows, cols, seed=5)
    assert got.shape == shape and got.dtype == bool
    np.testing.assert_array_equal(got, want)


def test_data_dependent_mask_requires_context():
    with pytest.raises(ValueError, match="context"):
        sample_mask(MaskSpec("magnitude_dependent", 0.3, 1.0), None,
                    10, 5, seed=1)
    with pytest.raises(ValueError, match="context"):
        sample_mask(MaskSpec("magnitude_dependent", 0.3, 0.0), None,
                    10, 5, seed=1)


def test_mask_context_shape_errors():
    with pytest.raises(ValueError, match="shape"):
        sample_mask(MaskSpec("magnitude_dependent", 0.3, 1.0),
                    np.ones((4, 4)), 10, 5, seed=1)
    with pytest.raises(ValueError, match="row-score"):
        sample_mask(MaskSpec("signal_dependent", 0.3, 1.0),
                    np.ones((4, 4)), 10, 5, seed=1)


def test_mask_zero_rate_draws_nothing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("a zero-rate mask must not draw uniforms")

    monkeypatch.setattr(synth, "substream", no_draws)
    for mech in MASK_MECHANISMS:
        m = sample_mask(MaskSpec(mech, 0.0, 1.0), None, 30, 10, seed=2)
        np.testing.assert_array_equal(m, np.ones((30, 10), dtype=bool))


def test_sigmoid_is_bitwise_the_two_branch_form():
    def two_branch(z):
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    # zero, subnormal and tiny inputs, and the edges where exp underflows
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 50.0, -50.0,
                      709.0, -709.0, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf])
    dense = 30.0 * substream(6, "sigmoid").standard_normal((1000, 200))
    for z in (edges, dense):
        want = two_branch(z).tobytes()
        assert synth._sigmoid(z).tobytes() == want
        # a separate out (with scratch) leaves z alone
        before = z.tobytes()
        out = np.empty_like(z)
        got = synth._sigmoid(z, out=out, scratch=np.empty_like(z))
        assert got is out and out.tobytes() == want
        assert z.tobytes() == before
        # out is z: the result overwrites its own input
        inplace = z.copy()
        assert synth._sigmoid(inplace, out=inplace) is inplace
        assert inplace.tobytes() == want
    np.testing.assert_array_equal(synth._sigmoid(edges[-2:]), [1.0, 0.0])
    # a NaN input stays NaN (its sign bit is not specified)
    assert np.isnan(synth._sigmoid(np.array([np.nan, -np.nan]))).all()


def _bisect_intercept(scores, strength, target):
    # reference: 200 bisection steps on the mean missing probability
    shift = strength * scores
    span = float(np.abs(shift).max())
    lo, hi = -span - 40.0, span + 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(synth._sigmoid(mid + shift).mean()) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _mar_contexts(rows, cols):
    rng = substream(3, "intercept-ref")
    ctx = rng.standard_normal((rows, cols))
    return {
        "signal_dependent": rng.standard_normal(rows),
        "magnitude_dependent": ctx,
        "thresholded": ctx,
        "correlated": ctx,
    }


@pytest.mark.parametrize("target", [0.01, 0.3, 0.95])
def test_intercept_matches_bisection_reference(target, monkeypatch):
    rows, cols = 400, 60
    calls = []
    sigmoid = synth._sigmoid

    def counting(*args, **kwargs):
        calls.append(1)
        return sigmoid(*args, **kwargs)

    for mech, ctx in _mar_contexts(rows, cols).items():
        spec = MaskSpec(mech, target, 1.0)
        scores = synth._mar_scores(spec, ctx, rows, cols)
        ref = _bisect_intercept(scores, 1.0, target)
        monkeypatch.setattr(synth, "_sigmoid", counting)
        calls.clear()
        got = synth._solve_intercept(scores, target)
        assert len(calls) <= 20, (mech, len(calls))
        mask = sample_mask(spec, ctx, rows, cols, seed=4)
        monkeypatch.setattr(synth, "_sigmoid", sigmoid)
        assert abs(got - ref) <= 1e-12, (mech, got, ref)
        uniforms = substream(4, "mask").random((rows, cols))
        ref_mask = uniforms >= sigmoid(ref + 1.0 * scores)
        np.testing.assert_array_equal(mask, ref_mask)
        assert abs(mask.mean() - (1.0 - target)) < 0.02


def test_intercept_row_scores_match_full_matrix():
    rows, cols = 500, 40
    col = substream(5, "row-scores").standard_normal((rows, 1))
    for target in (0.01, 0.3, 0.95):
        shift = 0.7 * col
        compact = synth._solve_intercept(shift, target)
        broadcast = synth._solve_intercept(
            np.broadcast_to(shift, (rows, cols)), target)
        full = synth._solve_intercept(np.repeat(shift, cols, axis=1), target)
        assert abs(compact - broadcast) <= 1e-12
        assert abs(compact - full) <= 1e-12


def test_mar_link_reuses_its_buffers():
    # the intercept solve holds one view-sized buffer beside block-sized
    # scratch; the mask adds the scores, which become the shift, and the
    # standardization's temporaries, but no view-sized uniforms
    rows, cols = 1000, 200
    ctx = substream(3, "mar-memory").standard_normal((rows, cols))
    spec = MaskSpec("magnitude_dependent", 0.3, 1.0)
    scores = synth._mar_scores(spec, ctx, rows, cols)
    calls = {
        "solve": (lambda: synth._solve_intercept(scores, 0.3), 1.5),
        "mask": (lambda: sample_mask(spec, ctx, rows, cols, seed=4), 3.0),
    }
    for name, (call, bound) in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * scores.nbytes, (name, peak / scores.nbytes)


def _solve_intercept_by_full_view(scores, strength, target):
    """Reference intercept solve: the same safeguarded Newton steps on
    view-sized shift, probability and slope arrays."""
    shift = strength * scores
    span = max(float(shift.max()), -float(shift.min()))
    lo, hi = -span - 40.0, span + 40.0
    b = float(np.clip(np.log(target / (1.0 - target)), lo, hi))
    for _ in range(synth._INTERCEPT_MAX_STEPS):
        p = synth._sigmoid(b + shift)
        f = float(p.mean()) - target
        if f == 0.0:
            return b
        if f < 0.0:
            lo = b
        else:
            hi = b
        slope = float((p * (1.0 - p)).mean())
        step = -f / slope if slope > 0.0 else np.inf
        if abs(step) <= synth._NEWTON_STEP_TOL:
            return b + step
        b = b + step if lo < b + step < hi else 0.5 * (lo + hi)
    return b


def _mask_by_full_view(spec, ctx, rows, cols, seed):
    """Reference mask: the whole view's uniforms against the whole view's
    probabilities."""
    rng = substream(seed, "mask")
    if spec.mechanism == "mcar" or spec.strength == 0.0:
        return rng.random((rows, cols)) >= spec.target_rate
    scores = synth._mar_scores(spec, ctx, rows, cols)
    intercept = _solve_intercept_by_full_view(scores, spec.strength,
                                              spec.target_rate)
    return rng.random((rows, cols)) >= synth._sigmoid(
        spec.strength * scores + intercept)


@pytest.mark.parametrize("shape", [
    (1000, 60),   # several blocks of rows, the last one partial
    (16500, 3),   # row scores in more than one block, the last one partial
])
@pytest.mark.parametrize("strength", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("mechanism", MASK_MECHANISMS)
def test_blocked_mask_is_the_whole_view_formula(mechanism, strength, shape):
    rows, cols = shape
    assert rows % max(1, synth._MASK_CHUNK // cols) != 0
    rng = substream(8, "blocked-mask", rows)
    contexts = {"signal_dependent": rng.standard_normal(rows),
                "correlated": rng.standard_normal((rows, 7))}
    ctx = contexts.get(mechanism, rng.standard_normal((rows, cols)))
    spec = MaskSpec(mechanism, 0.35, strength)
    want = _mask_by_full_view(spec, ctx, rows, cols, seed=12)
    got = sample_mask(spec, ctx, rows, cols, seed=12)
    assert got.shape == shape and got.dtype == bool
    np.testing.assert_array_equal(got, want)
    if strength > 0.0 and mechanism != "mcar":
        scores = synth._mar_scores(spec, ctx, rows, cols)
        want_b = _solve_intercept_by_full_view(scores, strength, 0.35)
        assert synth._solve_intercept(strength * scores, 0.35) == want_b


def test_mask_deterministic():
    spec = MaskSpec("mcar", 0.4)
    a = sample_mask(spec, None, 40, 8, seed=9)
    b = sample_mask(spec, None, 40, 8, seed=9)
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# full generator


def test_generate_pair_shapes_and_fields():
    pair = generate_pair(_desk_config())
    assert isinstance(pair, MaskedPair)
    assert pair.x_obs.shape == (300, 40)
    assert pair.y_obs.shape == (300, 25)
    assert pair.mask_x.dtype == bool and pair.mask_y.dtype == bool
    assert pair.n_samples == 300
    assert pair.rho == pytest.approx(0.42)
    assert np.linalg.norm(pair.u0) == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.norm(pair.v0) == pytest.approx(1.0, abs=1e-10)


def test_generate_pair_design_exactly_whitened():
    design = _complete(_desk_config()).x_obs
    gram = design.T @ design
    assert np.abs(gram - 300.0 * np.eye(40)).max() < 1e-8


def test_generate_pair_missing_as_zero():
    pair = generate_pair(_desk_config())
    complete = _complete(_desk_config())
    assert complete.mask_x.all() and complete.mask_y.all()
    np.testing.assert_array_equal(
        pair.x_obs, np.where(pair.mask_x, complete.x_obs, 0.0))
    np.testing.assert_array_equal(
        pair.y_obs, np.where(pair.mask_y, complete.y_obs, 0.0))
    assert np.all(pair.y_obs[~pair.mask_y] == 0.0)


def test_generate_pair_signal_plus_noise_decomposition():
    pair = _complete(_desk_config())
    resid = pair.y_obs - 1.4 * np.outer(pair.x_obs @ pair.u0, pair.v0)
    assert abs(resid.mean()) < 0.05
    assert 0.9 < resid.var() < 1.1


def test_generate_pair_deterministic():
    cfg = _desk_config()
    a = generate_pair(cfg)
    b = generate_pair(cfg)
    np.testing.assert_array_equal(a.x_obs, b.x_obs)
    np.testing.assert_array_equal(a.y_obs, b.y_obs)
    np.testing.assert_array_equal(a.mask_y, b.mask_y)
    np.testing.assert_array_equal(a.u0, b.u0)


def test_generate_pair_sign_flip_invariance():
    cfg = _desk_config()
    pair = generate_pair(cfg)
    complete = _complete(cfg)
    flipped = planted_pair(complete.x_obs, -pair.u0, -pair.v0, cfg)
    # the planted rank-1 signal is unchanged under a joint sign flip
    complete_flipped = planted_pair(complete.x_obs, -pair.u0, -pair.v0,
                                    _unmasked(cfg))
    np.testing.assert_array_equal(complete.y_obs, complete_flipped.y_obs)
    np.testing.assert_array_equal(pair.mask_x, flipped.mask_x)
    np.testing.assert_array_equal(pair.mask_y, flipped.mask_y)
    np.testing.assert_array_equal(flipped.u0, -pair.u0)


def test_mask_rate_change_leaves_other_streams_alone():
    a = generate_pair(_desk_config())
    b = generate_pair(_desk_config(mask_x=MaskSpec("mcar", 0.5)))
    # both pairs mask the one complete draw
    complete = _complete(_desk_config())
    for pair in (a, b):
        np.testing.assert_array_equal(
            pair.x_obs, np.where(pair.mask_x, complete.x_obs, 0.0))
        np.testing.assert_array_equal(
            pair.y_obs, np.where(pair.mask_y, complete.y_obs, 0.0))
    np.testing.assert_array_equal(a.mask_y, b.mask_y)
    assert not np.array_equal(a.mask_x, b.mask_x)


def test_generate_pair_is_planted_pair_on_its_own_draws():
    cfg = _desk_config(mask_y=MaskSpec("correlated", 0.3, 1.0))
    pair = generate_pair(cfg)
    complete = _complete(cfg)
    again = planted_pair(complete.x_obs, pair.u0, pair.v0, cfg)
    for name in ("x_obs", "y_obs", "mask_x", "mask_y"):
        np.testing.assert_array_equal(getattr(again, name), getattr(pair, name))
    unmasked = planted_pair(complete.x_obs, pair.u0, pair.v0, _unmasked(cfg))
    np.testing.assert_array_equal(unmasked.y_obs, complete.y_obs)
    assert again.rho == pair.rho == cfg.rho


def test_signal_dependent_on_design_view_falls_back_to_mcar():
    cfg = _desk_config(mask_x=MaskSpec("signal_dependent", 0.3, 1.0),
                       mask_y=MaskSpec("mcar", 0.4))
    pair = generate_pair(cfg)
    assert abs((1.0 - pair.mask_x.mean()) - 0.3) < 0.05
    # the fallback mask is an MCAR one, drawn without a context
    mcar = sample_mask(MaskSpec("mcar", 0.3), None, 300, 40,
                       derive_seed(cfg.seed, "mask_x"))
    np.testing.assert_array_equal(mcar, pair.mask_x)


def _draw_pair(cfg):
    """The draw layout of the module docstring, made ahead of any
    assembly: the raw design, the unit directions, the noise and each
    view's mask that needs no data (None for one that does)."""
    n, dx, dy = cfg.n_samples, cfg.dx, cfg.dy
    rng = substream(cfg.seed, "directions")
    u0, v0 = rng.standard_normal(dx), rng.standard_normal(dy)
    masks = [sample_mask(spec, None, n, d, derive_seed(cfg.seed, key))
             if spec.mechanism == "mcar" else None
             for spec, d, key in zip(synth._view_specs(cfg), (dx, dy),
                                     ("mask_x", "mask_y"))]
    return dict(design=substream(cfg.seed, "design").standard_normal((n, dx)),
                u0=u0 / np.linalg.norm(u0), v0=v0 / np.linalg.norm(v0),
                noise=sample_noise(cfg.noise, n, dy, cfg.seed),
                mask_x=masks[0], mask_y=masks[1])


def _pair_from_draws(cfg, draws):
    """The pair assembled from draws made ahead, every view in a new
    array: whitening on a copy, the masks that need data drawn on the
    latent views x_star and y_star, and the observed views through
    np.where."""
    x_star = whiten(draws["design"].copy())
    scores = x_star @ draws["u0"]
    y_star = cfg.theta * np.outer(scores, draws["v0"]) + draws["noise"]
    spec_x, spec_y = synth._view_specs(cfg)
    contexts = {"magnitude_dependent": (x_star, y_star),
                "thresholded": (x_star, y_star),
                "correlated": (y_star, x_star),
                "signal_dependent": (None, scores)}
    ctx_x = contexts.get(spec_x.mechanism, (None, None))[0]
    ctx_y = contexts.get(spec_y.mechanism, (None, None))[1]
    n, dx, dy = cfg.n_samples, cfg.dx, cfg.dy
    sx = draws["mask_x"]
    if sx is None:
        sx = sample_mask(spec_x, ctx_x, n, dx, derive_seed(cfg.seed, "mask_x"))
    sy = draws["mask_y"]
    if sy is None:
        sy = sample_mask(spec_y, ctx_y, n, dy, derive_seed(cfg.seed, "mask_y"))
    return dict(x_obs=np.where(sx, x_star, 0.0), y_obs=np.where(sy, y_star, 0.0),
                mask_x=sx, mask_y=sy, u0=draws["u0"], v0=draws["v0"],
                x_star=x_star, y_star=y_star)


@pytest.mark.parametrize("mechanism", MASK_MECHANISMS)
def test_draw_pair_holds_exactly_the_data_free_draws(mechanism):
    # a generated pair carries the draws of the layout, whatever its order
    cfg = _desk_config(mask_x=MaskSpec(mechanism, 0.3, 0.8),
                       mask_y=MaskSpec(mechanism, 0.4, 0.8))
    draws = _draw_pair(cfg)
    pair = generate_pair(cfg)
    np.testing.assert_array_equal(pair.u0, draws["u0"])
    np.testing.assert_array_equal(pair.v0, draws["v0"])
    for vec in (pair.u0, pair.v0):
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    complete = _complete(cfg)
    np.testing.assert_array_equal(complete.x_obs, whiten(draws["design"]))
    signal = cfg.theta * np.outer(complete.x_obs @ pair.u0, pair.v0)
    np.testing.assert_array_equal(complete.y_obs, signal + draws["noise"])
    # the design view's signal_dependent request falls back to MCAR
    x_ahead = mechanism in ("mcar", "signal_dependent")
    assert (draws["mask_x"] is not None) == x_ahead
    assert (draws["mask_y"] is not None) == (mechanism == "mcar")
    for name in ("mask_x", "mask_y"):
        if draws[name] is not None:
            np.testing.assert_array_equal(getattr(pair, name), draws[name])


@pytest.mark.parametrize("mechanism", MASK_MECHANISMS)
@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_generate_pair_from_draws_made_ahead_is_bitwise_the_same(mechanism, kind):
    cfg = _desk_config(mask_x=MaskSpec(mechanism, 0.3, 0.8),
                       mask_y=MaskSpec(mechanism, 0.4, 0.8),
                       noise=NoiseSpec(kind))
    want = _pair_from_draws(cfg, _draw_pair(cfg))
    # a pair writes its observed views over the latent ones: the bytes of
    # np.where, with +0.0 at every missing entry
    observed = generate_pair(cfg)
    for name in ("x_obs", "y_obs", "mask_x", "mask_y", "u0", "v0"):
        assert getattr(observed, name).tobytes() == want[name].tobytes(), name
    for view, mask in ((observed.x_obs, observed.mask_x),
                       (observed.y_obs, observed.mask_y)):
        assert not np.signbit(view[~mask]).any()
    # and with both masks off, the observed views are the latent ones
    complete = _complete(cfg)
    assert complete.x_obs.tobytes() == want["x_star"].tobytes()
    assert complete.y_obs.tobytes() == want["y_star"].tobytes()


# ---------------------------------------------------------------------------
# semi-synthetic pipeline


def _fake_real_views(seed: int = 21):
    rng = substream(seed, "semi-test")
    latent = rng.standard_normal((150, 3))
    x = latent @ rng.standard_normal((3, 30)) + 0.5 * rng.standard_normal((150, 30))
    y = latent @ rng.standard_normal((3, 18)) + 0.5 * rng.standard_normal((150, 18))
    return x, y


def test_prepare_semi_synthetic_outputs():
    x, y = _fake_real_views()
    design, u_dir, v_dir = prepare_semi_synthetic(x, y, target_dims=8)
    assert design.shape == (150, 8)
    np.testing.assert_allclose(design.T @ design, 150.0 * np.eye(8), atol=1e-8)
    assert u_dir.shape == (8,)
    assert v_dir.shape == (8,)
    assert np.linalg.norm(u_dir) == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.norm(v_dir) == pytest.approx(1.0, abs=1e-10)


def test_prepare_semi_synthetic_validation():
    x, y = _fake_real_views()
    with pytest.raises(ValueError, match="2-D"):
        prepare_semi_synthetic(x[:, 0], y, 4)
    with pytest.raises(ValueError, match="share rows"):
        prepare_semi_synthetic(x[:100], y, 4)
    with pytest.raises(ValueError, match="rows"):
        prepare_semi_synthetic(x[:5], y[:5], 8)


def test_planted_pair_roundtrip():
    x, y = _fake_real_views()
    design, u_dir, v_dir = prepare_semi_synthetic(x, y, target_dims=8)

    def draw(seed):
        return planted_pair(design, u_dir, v_dir, ModelConfig(
            n_samples=150, dx=8, dy=8, theta=1.2, mask_x=MaskSpec("mcar", 0.2),
            mask_y=MaskSpec("mcar", 0.2), seed=seed))

    design_before = design.copy()
    pair = draw(4)
    # the design is the caller's, so a pair never writes over it
    np.testing.assert_array_equal(design, design_before)
    assert pair.x_obs.shape == (150, 8)
    assert pair.y_obs.shape == (150, 8)
    np.testing.assert_array_equal(pair.y_obs, draw(4).y_obs)
    assert not np.array_equal(pair.y_obs, draw(5).y_obs)


def test_planted_pair_masks_a_c_ordered_copy_of_the_design():
    # a Fortran-ordered design is copied to C order, the layout np.where
    # gives a view masked by a C-ordered mask, and left unwritten
    cfg = _desk_config()
    pair = generate_pair(cfg)
    design = np.asfortranarray(_complete(cfg).x_obs)
    design_before = design.copy(order="F")
    again = planted_pair(design, pair.u0, pair.v0, cfg)
    assert again.x_obs.flags.c_contiguous
    assert (again.x_obs.tobytes()
            == np.where(again.mask_x, design, 0.0).tobytes())
    assert design.flags.f_contiguous
    np.testing.assert_array_equal(design, design_before)


def test_planted_pair_matches_semi_synthetic(tmp_path):
    # the exp5_semi_synthetic preset draws its pairs through the same
    # prepare_semi_synthetic + planted_pair path
    x, y = _fake_real_views()
    write_matrix(tmp_path / "x.mat", x)
    write_matrix(tmp_path / "y.mat", y)
    item = preset_config("exp5_semi_synthetic", "desk", {
        "x_matrix": str(tmp_path / "x.mat"), "y_matrix": str(tmp_path / "y.mat"),
        "target_dims": 8}).items[0]
    via_preset = item.pair_factory(item.spec.base)
    design, u_dir, v_dir = prepare_semi_synthetic(x, y, target_dims=8)
    direct = planted_pair(design, u_dir, v_dir, item.spec.base)
    np.testing.assert_array_equal(direct.y_obs, via_preset.y_obs)
    np.testing.assert_array_equal(direct.mask_x, via_preset.mask_x)


def test_planted_pair_validation():
    design = np.sqrt(10.0) * np.eye(10)
    u = np.zeros(10)
    u[0] = 1.0
    v = np.zeros(6)
    v[0] = 1.0
    config = ModelConfig(n_samples=10, dx=10, dy=6, theta=1.0)
    assert planted_pair(design, u, v, config).y_obs.shape == (10, 6)
    with pytest.raises(ValueError, match="design must have shape"):
        planted_pair(design[0], u, v, config)
    # a design drawn for another geometry than the config's
    with pytest.raises(ValueError, match=r"design must have shape \(12, 10\)"):
        planted_pair(design, u, v, ModelConfig(n_samples=12, dx=10, dy=6, theta=1.0))
    with pytest.raises(ValueError, match="shapes"):
        planted_pair(design, np.ones(4) / 2.0, v, config)
    with pytest.raises(ValueError, match="shapes"):
        planted_pair(design, u, np.ones(4) / 2.0, config)
    with pytest.raises(ValueError, match="unit norm"):
        planted_pair(design, 2.0 * u, v, config)
