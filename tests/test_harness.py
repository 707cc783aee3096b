"""Tests for the sweep harness: axis resolution, aggregation, reproducibility."""

import dataclasses
import functools
import importlib.util
import math
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from maskedpls import blas, cli, estimators, harness, synth
from maskedpls.estimators import EstimatorKind
from maskedpls.harness import (
    Axis,
    PointSummary,
    SweepSpec,
    correlation_with_theory,
    empirical_boundary,
    grid_assignments,
    result_digest,
    run_sweep,
    run_trial,
    transition_width,
)
from maskedpls.presets import ConfigError, preset_config
from maskedpls.streams import derive_seed
from maskedpls.synth import (MASK_MECHANISMS, NOISE_KINDS, MaskSpec, ModelConfig,
                             generate_pair)
from maskedpls.theory import critical_threshold


def _base(**overrides) -> ModelConfig:
    fields = dict(n_samples=240, dx=40, dy=24, theta=1.5,
                  mask_x=MaskSpec("mcar", 0.2), mask_y=MaskSpec("mcar", 0.2),
                  seed=0)
    fields.update(overrides)
    return ModelConfig(**fields)


def _trial(config: ModelConfig, t: int) -> ModelConfig:
    """Trial t's config of the point whose config is ``config``."""
    return dataclasses.replace(config, seed=derive_seed(config.seed, "trial", t))


def _point(**overrides) -> PointSummary:
    fields = dict(axis1=1.0, axis2=None, mean_r2x=0.5, std_r2x=0.05,
                  mean_r2y=0.6, std_r2y=0.05, mean_stability=float("nan"),
                  std_stability=float("nan"), theory_r2x=0.5, theory_r2y=0.6,
                  theta_crit=0.5, trials_requested=10, trials_effective=10,
                  seeds_digest="0" * 16, valid=True, theta=1.0, rho=1.0,
                  n_samples=240, dx=40, dy=24, mean_runtime=0.01, mean_iterations=1.0, errors=())
    fields.update(overrides)
    return PointSummary(**fields)


# ---------------------------------------------------------------------------
# spec and axis validation


def test_axis_validation():
    with pytest.raises(ValueError, match="unknown axis"):
        Axis("gamma", (0.1, 0.2))
    with pytest.raises(ValueError, match="at least one"):
        Axis("theta", ())
    with pytest.raises(ValueError, match="finite"):
        Axis("theta", (1.0, float("inf")))


def test_sweep_spec_rejects_duplicate_axes():
    with pytest.raises(ValueError, match="duplicate"):
        SweepSpec(base=_base(), axis=Axis("theta", (1.0,)),
                  axis2=Axis("theta", (2.0,)))


def test_sweep_spec_rejects_conflicting_theta_axes():
    with pytest.raises(ValueError, match="mutually exclusive"):
        SweepSpec(base=_base(), axis=Axis("theta", (1.0,)),
                  axis2=Axis("theta_over_crit", (1.5,)))


def test_sweep_spec_rejects_nonpositive_trials():
    with pytest.raises(ValueError, match="trials"):
        SweepSpec(base=_base(), axis=Axis("theta", (1.0,)), trials=0)


def test_grid_assignments_row_major():
    spec = SweepSpec(base=_base(), axis=Axis("theta", (1.0, 2.0)),
                     axis2=Axis("m_joint", (0.1, 0.3, 0.5)), trials=1)
    grid = grid_assignments(spec)
    assert grid == [
        {"theta": 1.0, "m_joint": 0.1}, {"theta": 1.0, "m_joint": 0.3},
        {"theta": 1.0, "m_joint": 0.5}, {"theta": 2.0, "m_joint": 0.1},
        {"theta": 2.0, "m_joint": 0.3}, {"theta": 2.0, "m_joint": 0.5},
    ]


# ---------------------------------------------------------------------------
# axis resolution through sweep results


def _single_point_sweep(base, axis_name, value, trials=2):
    spec = SweepSpec(base=base, axis=Axis(axis_name, (value,)), trials=trials)
    return run_sweep(spec).points[0]


def test_theta_axis_sets_spike_strength():
    p = _single_point_sweep(_base(), "theta", 2.25)
    assert p.theta == 2.25


def test_theta_over_crit_resolves_against_point_masks():
    base = _base()
    p = _single_point_sweep(base, "theta_over_crit", 1.5)
    crit = critical_threshold(base.alpha_x, base.alpha_y, base.rho)
    assert p.theta == pytest.approx(1.5 * crit, rel=1e-12)
    assert p.theta_crit == pytest.approx(crit, rel=1e-12)


def test_mask_axes_set_per_view_rates():
    p = _single_point_sweep(_base(), "m_x", 0.45)
    assert p.rho == pytest.approx(0.55 * 0.8)
    p = _single_point_sweep(_base(), "m_joint", 0.45)
    assert p.rho == pytest.approx(0.55 * 0.55)


def test_rho_axis_back_solves_equal_rates():
    p = _single_point_sweep(_base(), "rho", 0.49)
    assert p.rho == pytest.approx(0.49, rel=1e-12)


def test_rho_axis_combined_with_relative_theta():
    # the critical point must be computed from the point's own masks
    base = _base()
    spec = SweepSpec(base=base, axis=Axis("rho", (0.36,)),
                     axis2=Axis("theta_over_crit", (2.0,)), trials=1)
    p = run_sweep(spec).points[0]
    crit = critical_threshold(base.alpha_x, base.alpha_y, 0.36)
    assert p.theta == pytest.approx(2.0 * crit, rel=1e-10)


def test_rho_axis_rejects_out_of_range():
    with pytest.raises(ValueError, match="rho"):
        _single_point_sweep(_base(), "rho", 1.5)


def test_n_samples_axis_scales_dimensions():
    p = _single_point_sweep(_base(), "n_samples", 480)
    assert p.n_samples == 480
    assert p.dx == 80
    assert p.dy == 48


# ---------------------------------------------------------------------------
# trials and aggregation


def test_single_trial_sweep_matches_run_trial():
    base = _base()
    spec = SweepSpec(base=base, axis=Axis("theta", (1.5,)), trials=1)
    result = run_sweep(spec)
    point_seed = derive_seed(base.seed, "point", 0)
    direct = run_trial(_trial(dataclasses.replace(base, seed=point_seed), 0),
                       EstimatorKind(), False)
    p = result.points[0]
    assert p.mean_r2x == direct.r2_x
    assert p.mean_r2y == direct.r2_y
    assert p.std_r2x == 0.0
    assert p.trials_effective == 1


def test_aggregation_matches_reference_loop():
    base = _base()
    spec = SweepSpec(base=base, axis=Axis("theta", (1.2, 1.8)), trials=5)
    result = run_sweep(spec)
    for i, p in enumerate(result.points):
        point_seed = derive_seed(base.seed, "point", i)
        cfg = dataclasses.replace(base, theta=spec.axis.values[i],
                                  seed=point_seed)
        vals = [run_trial(_trial(cfg, t), EstimatorKind(), False).r2_x
                for t in range(5)]
        assert p.mean_r2x == pytest.approx(np.mean(vals), abs=1e-12)
        assert p.std_r2x == pytest.approx(np.std(vals, ddof=1), abs=1e-12)


def test_trial_seeds_unique_across_grid():
    spec = SweepSpec(base=_base(), axis=Axis("theta", (1.0, 1.5, 2.0)),
                     trials=4)
    result = run_sweep(spec)
    digests = {p.seeds_digest for p in result.points}
    assert len(digests) == 3  # each point hashes a distinct seed list


def test_serial_and_threaded_sweeps_agree():
    spec = SweepSpec(base=_base(), axis=Axis("theta", (1.0, 1.6)), trials=4,
                     split_half=True)
    serial = run_sweep(spec, threads=1)
    threaded = run_sweep(spec, threads=4)
    assert serial.digest == threaded.digest
    for a, b in zip(serial.points, threaded.points):
        assert a.mean_r2x == b.mean_r2x
        assert a.mean_stability == b.mean_stability


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_sweep_runs_openblas_on_one_thread(blas_count, threads):
    seen = []

    def recording_factory(config):
        seen.append(blas.num_threads())
        return generate_pair(config)

    spec = SweepSpec(base=_base(), axis=Axis("theta", (1.0, 1.6)), trials=3)
    result = run_sweep(spec, threads=threads, pair_factory=recording_factory)
    assert seen == [1] * 6
    assert result.blas_threads == 1
    assert blas.num_threads() == blas_count


@pytest.mark.parametrize("ambient,threads", [
    (4, 1), (2, 1), (4, 2), (4, 3), (1, 1), (None, 1)])
def test_iterative_svd_fits_both_views_on_its_trial_worker(
        monkeypatch, ambient, threads):
    # a sweep's workers take every BLAS thread, so a fit starts no thread
    # of its own at any OpenBLAS count
    before = blas.num_threads()
    if before is None:
        pytest.skip("numpy bundles no OpenBLAS")
    lock = threading.Lock()
    trial_threads, view_threads = set(), []
    real_trial, real_impute = harness.run_trial, estimators._hard_impute

    def recording_trial(*args, **kwargs):
        with lock:
            trial_threads.add(threading.current_thread())
        return real_trial(*args, **kwargs)

    def recording_impute(*args, **kwargs):
        with lock:
            view_threads.append(threading.current_thread())
        return real_impute(*args, **kwargs)

    monkeypatch.setattr(harness, "run_trial", recording_trial)
    monkeypatch.setattr(estimators, "_hard_impute", recording_impute)
    if ambient is None:
        monkeypatch.setattr(blas, "_library", lambda: None)
    else:
        blas.set_num_threads(ambient)
    spec = SweepSpec(base=_base(), axis=Axis("theta", (1.5,)), trials=2,
                     estimator=EstimatorKind("iterative_svd"))
    try:
        result = run_sweep(spec, threads=threads)
    finally:
        monkeypatch.undo()
        blas.set_num_threads(before)
    assert result.points[0].trials_effective == 2
    assert len(view_threads) == 4  # two views in each of two trials
    assert set(view_threads) <= trial_threads


def test_sweep_restores_blas_threads_when_it_raises(blas_count, monkeypatch):
    def failing_summary(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    # run_trial tags a trial's exception instead of raising it
    monkeypatch.setattr(harness, "_summarize_point", failing_summary)
    spec = SweepSpec(base=_base(), axis=Axis("theta", (1.5,)), trials=2)
    with pytest.raises(RuntimeError, match="synthetic failure"):
        run_sweep(spec, threads=2)
    assert blas.num_threads() == blas_count


def test_sweep_without_openblas_runs_unchanged(monkeypatch):
    spec = SweepSpec(base=_base(), axis=Axis("theta", (1.0, 1.6)), trials=3)
    with_blas = run_sweep(spec, threads=2)
    monkeypatch.setattr(blas, "_library", lambda: None)
    without = run_sweep(spec, threads=2)
    assert without.blas_threads is None
    assert without.digest == with_blas.digest


def test_one_and_two_thread_sweeps_agree_bit_for_bit(blas_count):
    spec = SweepSpec(base=_base(n_samples=600, dx=120, dy=40),
                     axis=Axis("theta", (1.0, 1.6)), trials=2, split_half=True)
    one, two = run_sweep(spec, threads=1), run_sweep(spec, threads=2)
    assert one.blas_threads == two.blas_threads == 1
    assert one.digest == two.digest
    assert blas.num_threads() == blas_count


# ---------------------------------------------------------------------------
# trial workers: a one-thread sweep runs two


def _sweep_on_overlapping_trials(monkeypatch, spec, workers, **kwargs):
    """run_sweep(spec, **kwargs) whose first ``workers`` trials wait for
    each other, so that they must overlap; returns the result and the
    thread each trial ran on."""
    lock = threading.Lock()
    meet = threading.Barrier(workers, timeout=30)
    ran_on = []
    real = harness.run_trial

    def recording_trial(*args, **kw):
        with lock:
            ran_on.append(threading.current_thread())
            first = len(ran_on) <= workers
        if first:
            meet.wait()
        return real(*args, **kw)

    monkeypatch.setattr(harness, "run_trial", recording_trial)
    try:
        return run_sweep(spec, **kwargs), ran_on
    finally:
        monkeypatch.setattr(harness, "run_trial", real)


def test_one_thread_sweep_runs_two_trial_workers_and_leaves_none(monkeypatch):
    spec = SweepSpec(base=_base(), axis=Axis("theta", (1.0, 1.6)), trials=3)
    before = threading.active_count()
    result, ran_on = _sweep_on_overlapping_trials(monkeypatch, spec, 2,
                                                  threads=1)
    assert threading.active_count() == before
    assert len(ran_on) == 6 and len(set(ran_on)) == 2
    assert threading.main_thread() not in ran_on
    assert {run_sweep(spec, threads=t).digest for t in (2, 3)} == {result.digest}


@pytest.mark.parametrize("ambient,workers", [(3, 3), (1, 2), (None, 2)])
def test_default_sweep_runs_a_worker_per_blas_thread(monkeypatch, ambient,
                                                     workers):
    # threads defaults to OpenBLAS's count, or 1 without OpenBLAS, and a
    # sweep runs at least two workers
    before = blas.num_threads()
    if before is None:
        pytest.skip("numpy bundles no OpenBLAS")
    if ambient is None:
        monkeypatch.setattr(blas, "_library", lambda: None)
    else:
        blas.set_num_threads(ambient)
    spec = SweepSpec(base=_base(), axis=Axis("theta", (1.0, 1.6)), trials=3)
    try:
        result, ran_on = _sweep_on_overlapping_trials(monkeypatch, spec, workers)
        assert blas.num_threads() == ambient
    finally:
        monkeypatch.undo()
        blas.set_num_threads(before)
    assert len(ran_on) == 6 and len(set(ran_on)) == workers
    assert result.blas_threads == (None if ambient is None else 1)
    assert result.digest == run_sweep(spec, threads=1).digest


def test_a_failing_draw_is_tagged_on_its_own_trial(monkeypatch):
    spec = SweepSpec(base=_base(), axis=Axis("theta", (1.0, 1.6)), trials=3)
    bad_seed = derive_seed(derive_seed(spec.base.seed, "point", 1), "trial", 1)
    noise = synth.sample_noise
    drawn_on = set()

    def failing_noise(noise_spec, rows, cols, seed):
        drawn_on.add(threading.current_thread())
        if seed == bad_seed:
            raise RuntimeError("noise draw failed")
        return noise(noise_spec, rows, cols, seed)

    monkeypatch.setattr(synth, "sample_noise", failing_noise)
    first, second = run_sweep(spec).points
    assert threading.main_thread() not in drawn_on  # drawn by a worker
    assert first.trials_effective == 3 and first.errors == ()
    assert second.trials_effective == 2
    assert second.errors == ("RuntimeError: noise draw failed",)


def test_draws_run_at_most_one_trial_ahead(monkeypatch):
    # each trial draws on its own worker, and a one-thread sweep's two
    # workers start a trial's draws only once all but one earlier trial
    # has finished
    lock = threading.Lock()
    finished = []
    lead = []  # per draw: its index minus the trials finished when it began
    draw, trial = harness.generate_pair, harness.run_trial

    def recording_draw(config, **kwargs):
        with lock:
            lead.append(len(lead) - len(finished))
        return draw(config, **kwargs)

    def slow_trial(*args, **kwargs):
        result = trial(*args, **kwargs)
        # keeps this trial in flight, its GIL released, so that the other
        # worker draws meanwhile and could run further ahead
        time.sleep(0.01)
        with lock:
            finished.append(result)
        return result

    monkeypatch.setattr(harness, "generate_pair", recording_draw)
    monkeypatch.setattr(harness, "run_trial", slow_trial)
    spec = SweepSpec(base=_base(), axis=Axis("theta", (1.0, 1.6)), trials=4)
    result = run_sweep(spec)
    assert len(lead) == 8 and max(lead) == 1
    assert all(p.trials_effective == 4 for p in result.points)


def test_a_custom_pair_factory_draws_in_its_trial(monkeypatch):
    def no_generated_pair(config, **kwargs):
        raise AssertionError("a custom factory's trials draw for themselves")

    made_on = []

    def factory(config):
        made_on.append(threading.current_thread())
        return generate_pair(config)

    monkeypatch.setattr(harness, "generate_pair", no_generated_pair)
    spec = SweepSpec(base=_base(), axis=Axis("theta", (1.0, 1.6)), trials=2)
    result = run_sweep(spec, pair_factory=factory)
    assert all(p.trials_effective == 2 for p in result.points)
    assert len(made_on) == 4 and threading.main_thread() not in made_on


_PIPELINE_CHILD = """
import sys
from concurrent.futures import ThreadPoolExecutor
from maskedpls import harness
from maskedpls.harness import Axis, SweepSpec, run_sweep
from maskedpls.synth import (MASK_MECHANISMS, NOISE_KINDS, MaskSpec, ModelConfig,
                             NoiseSpec)
if sys.argv[1] == "in-trial":
    # one worker runs the trials one after another
    harness.ThreadPoolExecutor = lambda max_workers: ThreadPoolExecutor(1)
for mechanism in MASK_MECHANISMS:
    for kind in NOISE_KINDS:
        base = ModelConfig(n_samples=240, dx=40, dy=24, theta=1.5,
                           mask_x=MaskSpec(mechanism, 0.2, 0.8),
                           mask_y=MaskSpec(mechanism, 0.3, 0.8),
                           noise=NoiseSpec(kind), seed=0)
        spec = SweepSpec(base=base, axis=Axis("theta", (1.0, 1.6)), trials=2)
        print(mechanism, kind, run_sweep(spec).digest)
"""


def test_pipelined_digests_equal_in_trial_draws():
    # two overlapping trials give what the same trials give in sequence
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    outputs = []
    for mode in ("pipelined", "in-trial"):
        proc = subprocess.run([sys.executable, "-c", _PIPELINE_CHILD, mode],
                              capture_output=True, text=True, timeout=120,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines())
    assert len(outputs[0]) == len(MASK_MECHANISMS) * len(NOISE_KINDS)
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# seed derivation and the traced trial path


@pytest.mark.parametrize("threads", [1, 2])
def test_each_trial_config_is_derived_once(monkeypatch, threads):
    labels = []
    derive = harness.derive_seed

    def recording_derive(seed, *path):
        labels.append(path[0])
        return derive(seed, *path)

    monkeypatch.setattr(harness, "derive_seed", recording_derive)
    spec = SweepSpec(base=_base(), axis=Axis("theta", (1.0, 1.6)), trials=3)
    result = run_sweep(spec, threads=threads)
    assert all(p.trials_effective == 3 for p in result.points)
    assert labels.count("trial") == 6
    assert labels.count("point") == 2


def _perfbench_tracing(monkeypatch):
    """perfbench/tracing.py, imported for the test only."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracing.py")
    module_spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(module_spec)
    # its dataclasses look their module up while they are defined
    monkeypatch.setitem(sys.modules, module_spec.name, module)
    module_spec.loader.exec_module(module)
    return module


def test_traced_one_thread_unit_sees_every_layer_it_calls(tmp_path, monkeypatch):
    # the benchmark's tracer replaces module attributes, so a layer that
    # the trial path binds before the sweep starts would read zero there
    import maskedpls

    tracing = _perfbench_tracing(monkeypatch)
    tracer = tracing.Tracer()
    with tracer.installed(maskedpls):
        resolved = maskedpls.presets.preset_config(
            "exp1_transition", "desk", {"trials": 2, "theta_points": 2})
        for item in resolved.items:
            result = maskedpls.harness.run_sweep(item.spec, threads=1,
                                                 pair_factory=item.pair_factory)
            maskedpls.matio.emit_results(result, str(tmp_path / "out.json"),
                                         fmt="json", metadata={})
    seen = {s.name for s in tracer.spans}
    # exp1 computes no split-half stability
    split_half = {"estimators.split_half_stability"}
    expected = {name for _, _, name in tracing.WRAPPED} - split_half
    assert expected <= seen, sorted(expected - seen)
    assert sum(s.name == "harness.run_trial" for s in tracer.spans) == 4
    pairs = [s for s in tracer.spans if s.name == "synth.generate_pair"]
    assert len(pairs) == 4
    assert all(s.trial is not None for s in pairs)


def test_stability_only_computed_when_requested():
    spec = SweepSpec(base=_base(), axis=Axis("theta", (1.5,)), trials=2)
    p = run_sweep(spec).points[0]
    assert math.isnan(p.mean_stability)
    spec_diag = SweepSpec(base=_base(), axis=Axis("theta", (1.5,)), trials=2,
                          split_half=True)
    p_diag = run_sweep(spec_diag).points[0]
    assert 0.0 <= p_diag.mean_stability <= 1.0


def test_mean_iterations_averages_successful_trials():
    calls = {"n": 0}

    def flaky_factory(config):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("synthetic failure")
        from maskedpls.synth import generate_pair
        return generate_pair(config)

    base = _base()
    kind = EstimatorKind("em_pls")
    spec = SweepSpec(base=base, axis=Axis("theta", (1.5,)), trials=3,
                     estimator=kind)
    p = run_sweep(spec, pair_factory=flaky_factory).points[0]
    cfg = dataclasses.replace(base, seed=derive_seed(base.seed, "point", 0))
    direct = [run_trial(_trial(cfg, t), kind, False).iterations for t in (0, 2)]
    assert min(direct) > 1
    assert p.trials_effective == 2
    assert p.mean_iterations == np.mean(direct)
    # telemetry stays outside the digest
    assert result_digest([p]) == result_digest(
        [dataclasses.replace(p, mean_iterations=0.0)])


def test_failing_trials_are_tagged_not_raised():
    calls = {"n": 0}

    def flaky_factory(config):
        calls["n"] += 1
        if calls["n"] % 2 == 0:
            raise RuntimeError("synthetic failure")
        from maskedpls.synth import generate_pair
        return generate_pair(config)

    spec = SweepSpec(base=_base(), axis=Axis("theta", (1.5,)), trials=4)
    result = run_sweep(spec, pair_factory=flaky_factory)
    p = result.points[0]
    assert p.trials_requested == 4
    assert p.trials_effective == 2
    assert p.valid  # exactly half still succeed
    assert any("synthetic failure" in e for e in p.errors)
    assert np.isfinite(p.mean_r2x)


def test_point_with_mostly_failed_trials_marked_invalid():
    def broken_factory(config):
        raise RuntimeError("always down")

    spec = SweepSpec(base=_base(), axis=Axis("theta", (1.5,)), trials=3)
    result = run_sweep(spec, pair_factory=broken_factory)
    p = result.points[0]
    assert p.trials_effective == 0
    assert not p.valid
    assert math.isnan(p.mean_r2x)
    assert math.isnan(result.correlation)


def test_run_trial_reports_seed_derivation():
    base = _base()
    trial = run_trial(_trial(base, 7), EstimatorKind(), False)
    assert trial.seed == derive_seed(base.seed, "trial", 7)
    assert trial.error is None


@pytest.mark.parametrize("source", ["generate_pair", "planted_pair"])
def test_oracle_trial_is_pls_svd_zero_on_the_unmasked_draw(monkeypatch,
                                                            source):
    # the oracle fits the trial's own draw with both masks off, bit for bit
    # as the primary estimator does on that unmasked config
    config = _trial(_base(), 3)
    unmasked = dataclasses.replace(config, mask_x=MaskSpec(), mask_y=MaskSpec())
    factory = None
    if source == "planted_pair":
        complete = synth.generate_pair(
            dataclasses.replace(unmasked, seed=99))
        factory = functools.partial(synth.planted_pair, complete.x_obs,
                                    complete.u0, complete.v0)
    drawn = []
    real = harness.generate_pair

    def recording_generate_pair(cfg):
        drawn.append(cfg)
        return real(cfg)

    monkeypatch.setattr(harness, "generate_pair", recording_generate_pair)
    oracle = run_trial(config, EstimatorKind("oracle"), True, factory)
    zero = run_trial(unmasked, EstimatorKind("pls_svd_zero"), True, factory)
    assert oracle.error is None and zero.error is None
    assert oracle.seed == zero.seed == config.seed
    for name in ("r2_x", "r2_y", "stability"):
        assert getattr(oracle, name).hex() == getattr(zero, name).hex(), name
    assert oracle.iterations == zero.iterations == 1
    # generate_pair is looked up when the trial runs, and the oracle's
    # config is the trial's with its masks switched off
    assert drawn == ([] if factory else [unmasked, unmasked])


@pytest.mark.parametrize("view", ["x", "y"])
def test_run_trial_tags_a_failed_iterative_svd_view_and_leaves_no_thread(
        monkeypatch, view):
    # either view's failure is the trial's, and no thread outlives it
    real = estimators._hard_impute
    base = _base()
    width = base.dx if view == "x" else base.dy

    def failing_view(obs, mask, max_iter, tol):
        if obs.shape[1] == width:
            raise FloatingPointError(f"{view} view failed")
        return real(obs, mask, max_iter, tol)

    monkeypatch.setattr(estimators, "_hard_impute", failing_view)
    before = threading.active_count()
    trial = run_trial(_trial(base, 0), EstimatorKind("iterative_svd"), False)
    assert trial.error == f"FloatingPointError: {view} view failed"
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# correlation with theory


def test_correlation_exact_match_is_one():
    pts = [_point(axis1=i, mean_r2x=v, theory_r2x=v)
           for i, v in enumerate((0.1, 0.4, 0.7, 0.9))]
    assert correlation_with_theory(pts) == pytest.approx(1.0)


def test_correlation_affine_match_is_one():
    theory = np.array([0.1, 0.4, 0.7, 0.9])
    pts = [_point(axis1=i, mean_r2x=0.8 * v + 0.05, theory_r2x=v)
           for i, v in enumerate(theory)]
    assert correlation_with_theory(pts) == pytest.approx(1.0)


def test_correlation_requires_three_finite_points():
    pts = [_point(mean_r2x=0.2), _point(mean_r2x=float("nan")),
           _point(mean_r2x=0.4, valid=False)]
    with pytest.raises(ValueError, match="3 finite"):
        correlation_with_theory(pts)


def test_correlation_rejects_constant_series():
    pts = [_point(axis1=i, mean_r2x=0.5, theory_r2x=0.0) for i in range(4)]
    with pytest.raises(ValueError, match="constant"):
        correlation_with_theory(pts)


def test_sweep_result_stores_nan_correlation_when_undefined():
    # a single point cannot define a correlation; the result carries NaN
    spec = SweepSpec(base=_base(), axis=Axis("theta", (1.5,)), trials=2)
    result = run_sweep(spec)
    assert math.isnan(result.correlation)


# ---------------------------------------------------------------------------
# digests


def test_result_digest_ignores_runtime():
    pts_fast = [_point(mean_runtime=0.01)]
    pts_slow = [_point(mean_runtime=9.99)]
    assert result_digest(pts_fast) == result_digest(pts_slow)


def test_result_digest_sensitive_to_values():
    assert result_digest([_point(mean_r2x=0.5)]) != result_digest(
        [_point(mean_r2x=0.5000001)])


# ---------------------------------------------------------------------------
# boundary and width extraction


def test_empirical_boundary_interpolates():
    pts = [
        _point(axis1=0.5, theta=0.5, mean_r2x=0.0, dx=30),
        _point(axis1=1.0, theta=1.0, mean_r2x=0.02, dx=30),
        _point(axis1=1.5, theta=1.5, mean_r2x=0.18, dx=30),
    ]
    # the floor 3 / dx = 0.1 sits halfway between the last two grid points
    assert empirical_boundary(pts) == pytest.approx(1.25)


def test_empirical_boundary_default_noise_floor():
    pts = [
        _point(axis1=0.5, theta=0.5, mean_r2x=0.001, dx=100),
        _point(axis1=1.0, theta=1.0, mean_r2x=0.002, dx=100),
        _point(axis1=1.5, theta=1.5, mean_r2x=0.058, dx=100),
    ]
    # default threshold is 3 / dx = 0.03, crossed between theta 1.0 and 1.5
    expected = 1.0 + 0.5 * (0.03 - 0.002) / (0.058 - 0.002)
    assert empirical_boundary(pts) == pytest.approx(expected)


def test_null_scale_prints_the_floor_empirical_boundary_uses(capsys):
    assert cli.main(["null-scale", "--dx", "40"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    floor = float(out.split("boundary_threshold = ")[1])
    assert floor == harness.NULL_FLOOR_MULTIPLE / 40
    # the means sit at half and one and a half times the printed floor, so
    # the crossing is midway between the two points only at that floor
    pts = [_point(axis1=t, theta=t, mean_r2x=m * floor, dx=40)
           for t, m in ((1.0, 0.5), (2.0, 1.5))]
    assert empirical_boundary(pts) == pytest.approx(1.5, abs=1e-12)


def test_empirical_boundary_nan_when_never_crossed():
    pts = [_point(axis1=t, theta=t, mean_r2x=0.001, dx=6) for t in (0.5, 1.0)]
    assert math.isnan(empirical_boundary(pts))


def test_empirical_boundary_skips_invalid_points():
    pts = [
        _point(axis1=0.5, theta=0.5, mean_r2x=0.9, valid=False, dx=15),
        _point(axis1=1.0, theta=1.0, mean_r2x=0.0, dx=15),
        _point(axis1=1.5, theta=1.5, mean_r2x=0.4, dx=15),
    ]
    # floor 3 / dx = 0.2
    assert empirical_boundary(pts) == pytest.approx(1.25)


def test_transition_width_simple_ramp():
    # linear ramp from 0 to 1 over theta in [1, 2]: the 25% and 75%
    # crossings of the peak sit at theta 1.25 and 1.75
    thetas = np.linspace(1.0, 2.0, 11)
    pts = [_point(axis1=t, theta=t, mean_r2x=(t - 1.0)) for t in thetas]
    assert transition_width(pts) == pytest.approx(0.5, abs=1e-12)


def test_transition_width_edge_cases():
    assert math.isnan(transition_width([_point()]))
    flat = [_point(axis1=t, theta=t, mean_r2x=0.0) for t in (1.0, 2.0)]
    assert math.isnan(transition_width(flat))


def test_finite_size_study_validation():
    # the exp3_finite_size preset needs at least three window points to
    # measure a transition width
    with pytest.raises(ConfigError, match="at least 3"):
        preset_config("exp3_finite_size", "desk", {"theta_points": 2})


def test_finite_size_study_small_run():
    resolved = preset_config("exp3_finite_size", "desk",
                             {"trials": 2, "theta_points": 3, "seed": 1})
    assert [item.name for item in resolved.items] == ["n100", "n500", "n2000"]
    for item in resolved.items:
        n = item.spec.base.n_samples
        assert item.spec.base.seed == derive_seed(1, "finite-size", n)
        assert item.spec.trials == 2 and len(item.spec.axis.values) == 3
    # the two smaller sizes keep the run short; N=2000 sweeps the same way
    for item in resolved.items[:2]:
        sweep = run_sweep(item.spec, threads=2)
        assert sweep.digest == run_sweep(item.spec, threads=1).digest
        assert len(sweep.points) == 3
        assert all(p.n_samples == item.spec.base.n_samples for p in sweep.points)
        assert np.isfinite(transition_width(sweep.points))
