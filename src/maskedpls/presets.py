"""Experiment presets and configuration parsing.

Each preset resolves to one or more named sweep variants at either
``paper`` scale (the full published parameter counts) or ``desk`` scale
(shrunk grids and trial counts sized for a laptop, never shrinking the
model dimensions themselves).  Config files are JSON documents in one of
two forms:

* ``{"preset": ..., "scale": ..., "overrides": {...}}``
* ``{"sweep": {"base": {...}, "axis": {...}, ...}}``

A sweep document is decoded by ``matio.decode``, strictly against the
dataclasses it describes: unknown keys are fatal at every level, keys
without a dataclass default are required, each value must have its
field's JSON type (an integer field takes only integral numbers, never
booleans, and a float reads null as NaN), and an absent optional key
takes the dataclass default.  Override values go through the same
decoder, and its errors are reported as ``ConfigError``.  The resolved echo
printed by the CLI is itself a valid config document; feeding it back
reproduces the run bit-for-bit.  Its ``resolved`` section must equal the
one regenerated from the document's own preset, scale and overrides, so
an edit there is rejected rather than silently ignored.

``evaluate_check`` holds the one copy of each preset's expected findings
and their thresholds; ``--check`` mode and the acceptance tests both
read their verdicts from it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .estimators import ESTIMATOR_NAMES, EstimatorKind
from .harness import (Axis, PairFactory, PointSummary, SweepResult, SweepSpec,
                      empirical_boundary, transition_width)
from .matio import _check_keys, decode, ingest_matrix
from .streams import SEED_LIMIT, derive_seed, substream
from .synth import (MASK_MECHANISMS, MaskSpec, ModelConfig, NoiseSpec,
                    planted_pair, prepare_semi_synthetic)
from .theory import critical_threshold

PRESET_NAMES = ("exp1_transition", "exp2_phase_diagram", "exp3_finite_size",
                "exp4_missingness_modes", "exp5_semi_synthetic",
                "exp6_split_half", "b1_noise", "b2_mar", "b3_baselines")
SCALES = ("paper", "desk")


class ConfigError(ValueError):
    """A configuration that cannot be resolved into runnable sweeps."""


@contextlib.contextmanager
def _as_config_error():
    """Report a ValueError raised inside, from the decoder or a dataclass
    check, as a configuration error."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(str(err)) from err


@dataclass(frozen=True)
class RunItem:
    """One named sweep of a resolved configuration."""

    name: str
    spec: SweepSpec
    pair_factory: PairFactory | None = None


@dataclass(frozen=True)
class ResolvedConfig:
    """Runnable sweeps plus the canonical re-feedable echo document."""

    echo: dict
    items: tuple[RunItem, ...]


def _linspace(lo: float, hi: float, count: int) -> tuple[float, ...]:
    # rounded so grid values used as grouping keys (mask levels) and in
    # echoed configs stay free of binary representation dust
    return tuple(round(float(v), 12) for v in np.linspace(lo, hi, count))


def _mcar(rate: float) -> MaskSpec:
    return MaskSpec(target_rate=rate)


class _Overrides:
    """Typed consumption of an override mapping; leftovers are fatal."""

    def __init__(self, mapping: Mapping | None, preset: str):
        self._data = dict(mapping or {})
        self._preset = preset

    def take_int(self, key: str, default: int, minimum: int = 1) -> int:
        value = decode(int, self._data.pop(key, default), f"override {key!r}")
        if value < minimum:
            raise ConfigError(f"override {key!r} must be at least {minimum}, got {value}")
        return value

    def take_str(self, key: str, default: str | None = None) -> str | None:
        return decode(str | None, self._data.pop(key, default), f"override {key!r}")

    def finish(self) -> None:
        if self._data:
            raise ConfigError(
                f"unknown override keys for {self._preset}: {sorted(self._data)}")


def _take_sizes(ov: _Overrides, paper: bool, trials: tuple[int, int],
                points: tuple[int, int], min_points: int = 2) -> tuple[int, int]:
    """The ``trials`` and ``theta_points`` overrides, in that order, each
    defaulting to its (paper, desk) value."""
    return (ov.take_int("trials", trials[0] if paper else trials[1]),
            ov.take_int("theta_points", points[0] if paper else points[1],
                        minimum=min_points))


def _relative_axis(points: int, lo: float = 0.5, hi: float = 2.5) -> Axis:
    """``points`` spike strengths over [lo, hi] times the critical one."""
    return Axis("theta_over_crit", _linspace(lo, hi, points))


def _exp1(paper: bool, seed: int, ov: _Overrides) -> list[RunItem]:
    trials, points = _take_sizes(ov, paper, (100, 30), (25, 15))
    base = ModelConfig(n_samples=1000, dx=200, dy=50, theta=1.0,
                       mask_x=_mcar(0.3), mask_y=_mcar(0.4), seed=seed)
    spec = SweepSpec(base=base, axis=_relative_axis(points), trials=trials)
    return [RunItem("transition", spec)]


def _exp2(paper: bool, seed: int, ov: _Overrides) -> list[RunItem]:
    trials, grid = _take_sizes(ov, paper, (30, 10), (30, 15))
    base = ModelConfig(n_samples=1000, dx=150, dy=120, theta=1.0, seed=seed)
    spec = SweepSpec(base=base,
                     axis=Axis("theta", _linspace(0.5, 2.0, grid)),
                     axis2=Axis("rho", _linspace(0.1, 0.95, grid)),
                     trials=trials)
    return [RunItem("phase_diagram", spec)]


def _exp3(paper: bool, seed: int, ov: _Overrides) -> list[RunItem]:
    trials, points = _take_sizes(ov, paper, (30, 20), (11, 13), min_points=3)
    n_list = (100, 250, 500, 1000, 2000, 5000) if paper else (100, 500, 2000)
    # at N=100 the transition foot extends below 0.85 theta_crit, so the
    # narrow window left-censors its width; the desk window is widened
    # until every desk size starts below its lower quantile crossing
    lo, hi = (0.85, 1.15) if paper else (0.6, 1.4)
    alpha, rate = 2.5, 0.2
    items = []
    for n in n_list:
        d = max(1, round(n / alpha))
        base = ModelConfig(n_samples=n, dx=d, dy=d, theta=1.0,
                           mask_x=_mcar(rate), mask_y=_mcar(rate),
                           seed=derive_seed(seed, "finite-size", n))
        spec = SweepSpec(base=base, axis=_relative_axis(points, lo, hi),
                         trials=trials)
        items.append(RunItem(f"n{n}", spec))
    return items


def _exp4(paper: bool, seed: int, ov: _Overrides) -> list[RunItem]:
    # the boundary extractor reads noisy near-floor means, so the desk
    # scale keeps the full trial count instead of shrinking it
    trials, theta_pts = _take_sizes(ov, paper, (30, 30), (50, 15))
    m_values = _linspace(0.0, 0.9, 50) if paper else _linspace(0.0, 0.8, 9)
    base = ModelConfig(n_samples=800, dx=200, dy=200, theta=1.0, seed=seed)
    theta_axis = Axis("theta", _linspace(0.3, 2.0, theta_pts))
    items = []
    for name, m_axis in (("single_view", "m_x"), ("joint", "m_joint")):
        spec = SweepSpec(base=base, axis=theta_axis,
                         axis2=Axis(m_axis, m_values), trials=trials)
        items.append(RunItem(name, spec))
    return items


def _exp5(paper: bool, seed: int, ov: _Overrides) -> list[RunItem]:
    trials, points = _take_sizes(ov, paper, (500, 20), (20, 10))
    target_dims = ov.take_int("target_dims", 20, minimum=2)
    x_path = ov.take_str("x_matrix")
    y_path = ov.take_str("y_matrix")
    if x_path is None or y_path is None:
        raise ConfigError(
            "exp5_semi_synthetic needs 'x_matrix' and 'y_matrix' override "
            "paths pointing at the two real views")
    x_real = ingest_matrix(x_path)
    y_real = ingest_matrix(y_path)

    def _factory_from(x_mat, y_mat) -> PairFactory:
        return functools.partial(
            planted_pair, *prepare_semi_synthetic(x_mat, y_mat, target_dims))

    n = x_real.shape[0]
    base = ModelConfig(n_samples=n, dx=target_dims, dy=target_dims, theta=1.0,
                       mask_x=_mcar(0.3), mask_y=_mcar(0.3), seed=seed)
    theta_axis = _relative_axis(points)
    real_factory = _factory_from(x_real, y_real)
    # masking sweep holds the signal fixed at 1.5x the threshold of the
    # reference masking level 0.3, so only the mask axis moves
    theta_ref = 1.5 * critical_threshold(base.alpha_x, base.alpha_y, base.rho)
    mask_base = dataclasses.replace(base, theta=theta_ref)
    rng = substream(derive_seed(seed, "exp5-random"), "control")
    x_rand = rng.standard_normal(x_real.shape)
    y_rand = rng.standard_normal(y_real.shape)
    return [
        RunItem("theta_sweep",
                SweepSpec(base=base, axis=theta_axis, trials=trials),
                pair_factory=real_factory),
        RunItem("mask_sweep",
                SweepSpec(base=mask_base,
                          axis=Axis("m_joint", _linspace(0.0, 0.5, 6)),
                          trials=trials),
                pair_factory=real_factory),
        RunItem("random_control",
                SweepSpec(base=base, axis=theta_axis, trials=trials),
                pair_factory=_factory_from(x_rand, y_rand)),
    ]


def _exp6(paper: bool, seed: int, ov: _Overrides) -> list[RunItem]:
    trials, points = _take_sizes(ov, paper, (25, 15), (60, 20))
    base = ModelConfig(n_samples=2000, dx=266, dy=266, theta=1.0,
                       mask_x=_mcar(0.1), mask_y=_mcar(0.1), seed=seed)
    spec = SweepSpec(base=base, axis=_relative_axis(points), trials=trials,
                     split_half=True)
    return [RunItem("split_half", spec)]


_B1_KINDS = (
    ("gaussian", NoiseSpec()),
    ("laplace", NoiseSpec(kind="laplace")),
    ("heteroskedastic", NoiseSpec(kind="heteroskedastic")),
    ("student_t5", NoiseSpec(kind="student_t", df=5.0)),
    ("student_t4_5", NoiseSpec(kind="student_t", df=4.5)),
    ("student_t3", NoiseSpec(kind="student_t", df=3.0)),
)


# the geometry b1-b3 share; each varies its noise, masks or estimator
_B_BASE = ModelConfig(n_samples=1000, dx=200, dy=150, theta=1.0,
                      mask_x=_mcar(0.3), mask_y=_mcar(0.3))


def _b1(paper: bool, seed: int, ov: _Overrides) -> list[RunItem]:
    trials, points = _take_sizes(ov, paper, (100, 50), (20, 12))
    axis = _relative_axis(points)
    items = []
    for name, noise in _B1_KINDS:
        base = dataclasses.replace(_B_BASE, noise=noise, seed=seed)
        items.append(RunItem(name, SweepSpec(base=base, axis=axis, trials=trials)))
    return items


def _b2(paper: bool, seed: int, ov: _Overrides) -> list[RunItem]:
    trials, points = _take_sizes(ov, paper, (100, 20), (20, 10))
    axis = _relative_axis(points)
    strengths = (0.5, 1.0) if paper else (1.0,)
    variants: list[tuple[str, MaskSpec]] = [("mcar", _B_BASE.mask_x)]
    for mechanism in MASK_MECHANISMS:
        if mechanism == "mcar":
            continue
        for s in strengths:
            label = mechanism if len(strengths) == 1 else f"{mechanism}_s{s:g}"
            variants.append((label, dataclasses.replace(
                _B_BASE.mask_x, mechanism=mechanism, strength=s)))
    items = []
    for name, mask in variants:
        base = dataclasses.replace(_B_BASE, mask_x=mask, mask_y=mask, seed=seed)
        items.append(RunItem(name, SweepSpec(base=base, axis=axis, trials=trials)))
    return items


def _b3(paper: bool, seed: int, ov: _Overrides) -> list[RunItem]:
    # 50 trials at both scales: the baseline comparison needs the
    # standard-error resolution regardless of scale
    trials, points = _take_sizes(ov, paper, (50, 50), (16, 4))
    axis = _relative_axis(points, hi=2.0)
    base = dataclasses.replace(_B_BASE, seed=seed)
    items = []
    for name in ESTIMATOR_NAMES:
        spec = SweepSpec(base=base, axis=axis, trials=trials,
                         estimator=EstimatorKind(name=name))
        items.append(RunItem(name, spec))
    return items


# each builder takes whether the scale is paper, the preset seed and the
# remaining overrides
_BUILDERS: dict[str, Callable[[bool, int, _Overrides], list[RunItem]]] = {
    "exp1_transition": _exp1,
    "exp2_phase_diagram": _exp2,
    "exp3_finite_size": _exp3,
    "exp4_missingness_modes": _exp4,
    "exp5_semi_synthetic": _exp5,
    "exp6_split_half": _exp6,
    "b1_noise": _b1,
    "b2_mar": _b2,
    "b3_baselines": _b3,
}


def preset_config(name: str, scale: str = "desk",
                  overrides: Mapping | None = None) -> ResolvedConfig:
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}, expected one of {PRESET_NAMES}")
    if scale not in SCALES:
        raise ConfigError(f"unknown scale {scale!r}, expected one of {SCALES}")
    ov = _Overrides(overrides, name)
    with _as_config_error():
        seed = ov.take_int("seed", 0, minimum=0)
        # exp3 and exp5 derive their seeds before a ModelConfig checks one
        if seed >= SEED_LIMIT:
            raise ConfigError(f"override 'seed' must be below 2**64, got {seed}")
        items = _BUILDERS[name](scale == "paper", seed, ov)
    ov.finish()
    echo = {
        "preset": name,
        "scale": scale,
        "overrides": dict(overrides or {}),
        "resolved": {item.name: dataclasses.asdict(item.spec) for item in items},
    }
    return ResolvedConfig(echo=echo, items=tuple(items))


def _check_resolved(section, echo: dict) -> None:
    """Reject an echo whose "resolved" section is not the one its own
    preset, scale and overrides regenerate: edits there would be ignored."""
    expected = json.loads(json.dumps(echo["resolved"]))
    section = section if isinstance(section, dict) else {}
    differ = sorted(name for name in set(section) | set(expected)
                    if section.get(name) != expected.get(name))
    if differ:
        raise ConfigError(
            f"resolved section differs from what preset {echo['preset']!r} "
            f"regenerates for variants {differ}; change the overrides instead")


def parse_config(text: str, overrides: Mapping | None = None,
                 seed: int | None = None) -> ResolvedConfig:
    """Resolve a JSON config document, optionally merging command-line
    overrides (which win over the document's) and a seed."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    with _as_config_error():
        if "preset" in doc:
            _check_keys(doc, {"preset", "scale", "overrides", "resolved"}, "config")
            name, scale = str(doc["preset"]), str(doc.get("scale", "desk"))
            own = doc.get("overrides", {})
            if not isinstance(own, dict):
                raise ConfigError("overrides must be an object")
            merged = {**own, **dict(overrides or {})}
            if seed is not None:
                merged["seed"] = seed
            if "resolved" in doc:
                checked = preset_config(name, scale, own)
                _check_resolved(doc["resolved"], checked.echo)
                # unchanged overrides run the checked resolution; compared as
                # JSON, since 1 == 1.0 == True but only 1 is the same override
                if json.dumps(merged) == json.dumps(own):
                    return checked
            return preset_config(name, scale, merged)
        if "sweep" in doc:
            _check_keys(doc, {"sweep"}, "config")
            if overrides:
                raise ConfigError("overrides apply to presets, not raw sweeps")
            spec = decode(SweepSpec, doc["sweep"], "sweep")
            if seed is not None:
                spec = dataclasses.replace(
                    spec, base=dataclasses.replace(spec.base, seed=seed))
            echo = {"sweep": dataclasses.asdict(spec)}
            return ResolvedConfig(echo=echo, items=(RunItem("sweep", spec),))
    raise ConfigError("config must contain either 'preset' or 'sweep'")


def _boundary_by_level(points: Sequence[PointSummary]) -> dict[float, float]:
    levels: dict[float, list[PointSummary]] = {}
    for p in points:
        levels.setdefault(p.axis2, []).append(p)
    return {m: empirical_boundary(pts) for m, pts in sorted(levels.items())}


Clause = tuple[str, bool, str]


def _check_exp1(results: Mapping[str, SweepResult]) -> list[Clause]:
    result = results["transition"]
    sup = [p for p in result.points if p.theta > 1.1 * p.theta_crit]
    sub = [p for p in result.points if p.theta < 0.9 * p.theta_crit]
    sup_worst = max((max(abs(p.mean_r2x - p.theory_r2x),
                         abs(p.mean_r2y - p.theory_r2y)) for p in sup),
                    default=float("nan"))
    sub_worst = max((max(p.mean_r2x, p.mean_r2y) for p in sub),
                    default=float("nan"))
    corr = result.correlation
    return [
        ("at least 5 supercritical points, each |mean - theory| < 0.05",
         bool(len(sup) >= 5 and sup_worst < 0.05),
         f"worst deviation {sup_worst:.4f} over {len(sup)} points"),
        ("at least 2 subcritical points, each mean overlap < 0.05",
         bool(len(sub) >= 2 and sub_worst < 0.05),
         f"worst level {sub_worst:.4f} over {len(sub)} points"),
        ("theory correlation > 0.99", bool(corr > 0.99), f"correlation {corr:.4f}"),
    ]


def _check_exp2(results: Mapping[str, SweepResult]) -> list[Clause]:
    corr = results["phase_diagram"].correlation
    return [("design-view theory correlation > 0.97", bool(corr > 0.97),
             f"correlation {corr:.4f}")]


def _check_exp3(results: Mapping[str, SweepResult]) -> list[Clause]:
    widths = {}
    for name, result in results.items():
        if not name.startswith("n"):
            continue
        widths[int(name[1:])] = transition_width(result.points)
    ns = sorted(n for n in widths if 100 <= n <= 2000)
    ok = all(np.isfinite(widths[n]) for n in ns) and all(
        widths[a] > widths[b] for a, b in zip(ns, ns[1:]))
    detail = ", ".join(f"N={n}: {widths[n]:.4f}" for n in ns)
    return [("transition width strictly decreases with N", bool(ok), detail)]


def _check_exp4(results: Mapping[str, SweepResult]) -> list[Clause]:
    single = _boundary_by_level(results["single_view"].points)
    joint = _boundary_by_level(results["joint"].points)
    clauses: list[Clause] = []
    ok = True
    details = []
    for m in sorted(single):
        if not 0.2 - 1e-9 <= m <= 0.7 + 1e-9:
            continue
        s, j = single.get(m, float("nan")), joint.get(m, float("nan"))
        good = np.isfinite(s) and np.isfinite(j) and j > s
        ok = ok and good
        details.append(f"m={m:.2f}: joint {j:.3f} vs single {s:.3f}")
    if not details:
        ok = False
        details.append("no missingness levels sampled in [0.2, 0.7]")
    clauses.append(("joint-masking boundary above single-view for m in [0.2, 0.7]",
                    bool(ok), "; ".join(details)))
    return clauses


def _check_exp6(results: Mapping[str, SweepResult]) -> list[Clause]:
    points = results["split_half"].points
    sqrt2 = float(np.sqrt(2.0))
    below = [p for p in points if p.theta < p.theta_crit]
    ok_a = bool(below) and all(p.mean_stability < 0.3 for p in below)
    worst_a = max((p.mean_stability for p in below), default=float("nan"))
    middle = [p for p in points if p.theta_crit < p.theta < sqrt2 * p.theta_crit]
    ok_b = any(p.mean_r2x > 0.2 and p.mean_stability < 0.6 for p in middle)
    above = [p for p in points if p.theta > 2.0 * p.theta_crit]
    ok_c = bool(above) and all(p.mean_stability > 0.8 for p in above)
    worst_c = min((p.mean_stability for p in above), default=float("nan"))
    return [
        ("stability < 0.3 below the threshold", ok_a, f"worst {worst_a:.3f}"),
        ("some point with overlap > 0.2 but stability < 0.6 in the shifted band",
         ok_b, f"{len(middle)} points in band"),
        ("stability > 0.8 beyond twice the threshold", ok_c, f"worst {worst_c:.3f}"),
    ]


def _check_b1(results: Mapping[str, SweepResult]) -> list[Clause]:
    clauses: list[Clause] = []
    for name in ("gaussian", "laplace", "student_t5"):
        points = [p for p in results[name].points if p.theta > 1.1 * p.theta_crit]
        devs = [abs(p.mean_r2x - p.theory_r2x) for p in points]
        mean_dev = float(np.mean(devs)) if devs else float("nan")
        clauses.append((f"{name}: mean |overlap - theory| < 0.05",
                        bool(mean_dev < 0.05), f"mean deviation {mean_dev:.4f}"))
    return clauses


def _point_near(result: SweepResult, target_ratio: float) -> PointSummary:
    return min(result.points, key=lambda p: abs(p.axis1 - target_ratio))


def _check_b3(results: Mapping[str, SweepResult]) -> list[Clause]:
    stats = {}
    for name in ESTIMATOR_NAMES:
        p = _point_near(results[name], 1.5)
        n_eff = max(p.trials_effective, 1)
        stats[name] = (p.mean_r2x, p.std_r2x / np.sqrt(n_eff))
    ref_mean, ref_se = stats["pls_svd_zero"]
    masked = [n for n in ESTIMATOR_NAMES if n != "oracle"]
    rivals = {n: (stats[n][0] - ref_mean) / np.hypot(stats[n][1], ref_se)
              for n in masked if n != "pls_svd_zero"}
    best = max(rivals, key=rivals.get)
    o_mean, o_se = stats["oracle"]
    margins = [(o_mean - stats[n][0]) / np.hypot(o_se, stats[n][1]) for n in masked]
    return [
        ("no masked estimator beats the rescaled zero-fill by > 2 SE",
         all(m <= 2.0 for m in rivals.values()),
         f"largest margin {rivals[best]:.2f} SEs ({best})"),
        ("oracle beats every masked estimator by > 2 SE",
         all(m > 2.0 for m in margins), f"min margin {min(margins):.2f} SEs"),
    ]


def _check_generic(results: Mapping[str, SweepResult]) -> list[Clause]:
    clauses: list[Clause] = []
    for name, result in results.items():
        ok = all(p.valid for p in result.points)
        bad = sum(1 for p in result.points if not p.valid)
        clauses.append((f"{name}: all points valid", bool(ok),
                        f"{bad} invalid points" if bad else "all valid"))
    return clauses


_CHECKS: dict[str, Callable[[Mapping[str, SweepResult]], list[Clause]]] = {
    "exp1_transition": _check_exp1,
    "exp2_phase_diagram": _check_exp2,
    "exp3_finite_size": _check_exp3,
    "exp4_missingness_modes": _check_exp4,
    "exp6_split_half": _check_exp6,
    "b1_noise": _check_b1,
    "b3_baselines": _check_b3,
}


def evaluate_check(preset_name: str | None,
                   results: Mapping[str, SweepResult]) -> list[Clause]:
    """Threshold clauses for --check mode; generic validity otherwise."""
    check = _CHECKS.get(preset_name or "")
    if check is None:
        return _check_generic(results)
    return check(results)
