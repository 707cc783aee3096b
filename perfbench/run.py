#!/usr/bin/env python3
"""Sweep benchmark for maskedpls: completed trials per second on preset
workloads, set-up time and peak memory, with a traced per-layer mode.

    python3 perfbench/run.py --workload transition_t1 --seed 0 --seconds 20 --trace 0

Run from the repository root or anywhere else; the program is imported
from the ``src`` directory next to this one.  A run repeats one unit of
work until ``--seconds`` have passed (always finishing the unit it is
in): ``presets.preset_config`` for the workload's preset, then
``harness.run_sweep`` and ``matio.emit_results`` (JSON) for each item,
the calls ``maskedpls run --out ... --format json`` makes.  Every unit
uses its own preset seed, so no unit repeats the inputs of another.

Each unit is checked against the point means stored in
``perfbench/reference`` (see ``make_reference.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` trials, and the metrics, end to end with ``--trace 0`` and
per layer with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

from tracing import LAYER_METRICS, Tracer, layer_metrics, write_spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(HERE, "reference")

# set-up is timed in fresh interpreters: one untimed start fills the
# bytecode cache, then SETUP_STARTS timed starts before the units and as
# many after them, so their median spans the machine's drift over the run
SETUP_STARTS = 5

END_TO_END = (
    ("trials_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass(frozen=True)
class Workload:
    """One desk preset at a fixed run length and harness thread count.

    ``reference_seeds`` is how many preset seeds (0, 1, ...) the stored
    reference covers; unit ``u`` of a run with seed ``s`` uses preset seed
    ``(s + u) % reference_seeds``.
    """

    name: str
    preset: str
    overrides: dict = field(hash=False)
    threads: int
    reference_seeds: int


# Two trials per point is the least that gives each point a standard
# error for the reference check.
WORKLOADS = {w.name: w for w in (
    # headline sweep, whitening-bound, plain single-thread baseline
    Workload("transition_t1", "exp1_transition",
             {"trials": 2, "theta_points": 15}, threads=1, reference_seeds=128),
    # harness pool, BLAS oversubscription, larger whitening, split-half
    Workload("split_half_t2", "exp6_split_half",
             {"trials": 2, "theta_points": 10}, threads=2, reference_seeds=64),
    # all five mask mechanisms: intercept bisection dominates
    Workload("mar_masks_t1", "b2_mar",
             {"trials": 2, "theta_points": 2}, threads=1, reference_seeds=24),
    # all five estimators on identical pairs: estimator loops dominate
    Workload("baselines_t1", "b3_baselines",
             {"trials": 2, "theta_points": 2}, threads=1, reference_seeds=32),
)}


def load_program():
    """Import maskedpls from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "maskedpls", "__init__.py")):
        raise SystemExit(f"perfbench: no maskedpls sources under {SRC}")
    sys.path.insert(0, SRC)
    import maskedpls
    return maskedpls


def _openblas(symbol: str, restype):
    """A function of numpy's bundled OpenBLAS, or None when it has none."""
    import ctypes

    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so*"))
    if not libs:
        return None
    fn = getattr(ctypes.CDLL(libs[0]), symbol, None)
    if fn is not None:
        fn.argtypes = []
        fn.restype = restype
    return fn


def numeric_environment(threads: int) -> dict:
    """What a result's digest and speed depend on.  BLAS threads are read,
    never set: the benchmark measures the program's own threading."""
    import ctypes

    import numpy
    blas = getattr(numpy.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    get_threads = _openblas("scipy_openblas_get_num_threads64_", ctypes.c_int)
    get_config = _openblas("scipy_openblas_get_config64_", ctypes.c_char_p)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": get_config().decode() if get_config else None,
        "blas_threads": get_threads() if get_threads else None,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "harness_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
    }


@dataclass
class Unit:
    seed: int
    trials: int
    wall: float
    results: list  # (item name, SweepResult, emitted path)
    traced: bool = False
    failed: int = 0

    @property
    def trials_per_s(self) -> float:
        return self.trials / self.wall


def run_unit(pkg, workload: Workload, seed: int, out_dir: str,
             env: dict) -> Unit:
    """One preset sweep; wall time runs from the first run_sweep call to
    the last emit_results return.  Looks every function up at call time so
    a tracer installed on the modules sees the calls."""
    resolved = pkg.presets.preset_config(workload.preset, "desk",
                                         dict(workload.overrides, seed=seed))
    results = []
    start = time.perf_counter()
    for item in resolved.items:
        result = pkg.harness.run_sweep(item.spec, threads=workload.threads,
                                       pair_factory=item.pair_factory)
        path = os.path.join(out_dir, f"{item.name}.json")
        metadata = {"preset": workload.preset, "scale": "desk",
                    "variant": item.name, "seed": item.spec.base.seed,
                    "version": pkg.__version__, "environment": env}
        pkg.matio.emit_results(result, path, fmt="json", metadata=metadata)
        results.append((item.name, result, path))
    wall = time.perf_counter() - start
    trials = sum(p.trials_requested for _, r, _ in results for p in r.points)
    return Unit(seed=seed, trials=trials, wall=wall, results=results)


def point_reference(point) -> list:
    """[mean, standard error] of r2x, r2y and stability; NaN as None."""
    out = []
    for mean, std in ((point.mean_r2x, point.std_r2x),
                      (point.mean_r2y, point.std_r2y),
                      (point.mean_stability, point.std_stability)):
        se = std / math.sqrt(point.trials_effective) if point.trials_effective else math.nan
        out.append([None if math.isnan(mean) else mean,
                    None if math.isnan(se) else se])
    return out


def point_matches(point, reference: list) -> bool:
    """A mean may move by at most one trial standard error of the reference."""
    for (mean, _), (ref_mean, ref_se) in zip(point_reference(point), reference):
        if mean is None or ref_mean is None:
            if mean is not ref_mean:
                return False
        elif not abs(mean - ref_mean) <= (ref_se or 0.0):
            return False
    return True


def failed_trials(pkg, unit: Unit, expected: dict | None) -> int:
    """Trials with an error tag, or in a point off its reference, or in an
    item whose emitted file does not load back with its digest."""
    failed = 0
    for name, result, path in unit.results:
        refs = (expected or {}).get(name)
        try:
            loaded_ok = pkg.matio.load_results(path)["digest"] == result.digest
        except (OSError, ValueError, KeyError):
            loaded_ok = False
        if refs is None or len(refs) != len(result.points) or not loaded_ok:
            failed += sum(p.trials_requested for p in result.points)
            continue
        for point, ref in zip(result.points, refs):
            if point_matches(point, ref):
                failed += point.trials_requested - point.trials_effective
            else:
                failed += point.trials_requested
    return failed


def load_reference(workload: Workload) -> dict:
    path = os.path.join(REFERENCE_DIR, f"{workload.name}.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if len(doc["points"]) != workload.reference_seeds:
        raise SystemExit(f"perfbench: {path} covers {len(doc['points'])} seeds, "
                         f"expected {workload.reference_seeds}")
    return doc["points"]


_SETUP_CHILD = """
import json
import sys
sys.path.insert(0, sys.argv[1])
import maskedpls
maskedpls.presets.preset_config(sys.argv[2], "desk", dict(json.loads(sys.argv[4]), seed=int(sys.argv[3])))
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


def setup_seconds(workload: Workload, seed: int, starts: int) -> list:
    """Interpreter start to the first trial, ``starts`` times: start,
    import maskedpls and resolve the preset in a fresh process."""
    args = [sys.executable, "-c", _SETUP_CHILD, SRC, workload.preset,
            str(seed), json.dumps(workload.overrides)]
    times = []
    for _ in range(starts):
        start = time.perf_counter()
        with subprocess.Popen(args, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
        if child.returncode != 0 or line != "ready\n":
            raise RuntimeError(f"set-up child exited with {child.returncode}")
        times.append(elapsed)
    return times


def measure(pkg, workload: Workload, seed: int, seconds: float, trace: bool,
            reference: dict, env: dict, out_dir: str):
    """Run units until ``seconds`` have passed; return them and the tracer.

    Traced runs alternate untraced and traced units, at least one of
    each, so tracing overhead is measured in the same run."""
    tracer = Tracer() if trace else None
    units = []
    start = time.perf_counter()
    while not units or (trace and len(units) < 2) or time.perf_counter() - start < seconds:
        preset_seed = (seed + len(units)) % workload.reference_seeds
        if tracer is not None and len(units) % 2:
            with tracer.installed(pkg):
                unit = run_unit(pkg, workload, preset_seed, out_dir, env)
            unit.traced = True
        else:
            unit = run_unit(pkg, workload, preset_seed, out_dir, env)
        unit.failed = failed_trials(pkg, unit, reference.get(str(preset_seed)))
        units.append(unit)
        print(json.dumps({"unit": len(units) - 1, "preset_seed": preset_seed,
                          "traced": unit.traced, "trials": unit.trials,
                          "failed": unit.failed, "wall_s": unit.wall,
                          "digests": {n: r.digest for n, r, _ in unit.results}}),
              flush=True)
    return units, tracer


def report(pkg, workload: Workload, seed: int, seconds: float, trace: bool,
           reference: dict) -> dict:
    """Measure one run and return the result object run.py prints last."""
    env = numeric_environment(workload.threads)
    print(json.dumps({"workload": workload.name, "environment": env}), flush=True)
    preset_seed = seed % workload.reference_seeds
    if not trace:
        setup = setup_seconds(workload, preset_seed, SETUP_STARTS + 1)[1:]
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as out_dir:
        units, tracer = measure(pkg, workload, seed, seconds, trace, reference,
                                env, out_dir)
    if trace:
        overhead = (statistics.median(u.trials_per_s for u in units if not u.traced)
                    / statistics.median(u.trials_per_s for u in units if u.traced) - 1.0)
        values = layer_metrics(tracer.spans, overhead)
        units_of = {name: unit for name, unit, _ in LAYER_METRICS}
        spans_path = os.path.join(ROOT, ".perfbench-spans", f"{workload.name}-seed{seed}.json")
        write_spans(tracer.spans, spans_path)
        print(json.dumps({"spans": spans_path, "count": len(tracer.spans)}), flush=True)
    else:
        setup += setup_seconds(workload, preset_seed, SETUP_STARTS)
        values = {
            "trials_per_s": statistics.median(u.trials_per_s for u in units),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units_of = dict(END_TO_END)
    failed = sum(u.failed for u in units)
    return {"correct": failed == 0, "attempted": sum(u.trials for u in units),
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units_of.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    pkg = load_program()
    result = report(pkg, workload, args.seed, args.seconds, bool(args.trace),
                    load_reference(workload))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
