#!/usr/bin/env python3
"""Store the reference point means that run.py checks every unit against.

    python3 perfbench/make_reference.py [--workload NAME ...]

For each workload (all by default) and each preset seed 0 ..
``reference_seeds - 1``, runs the same unit run.py times and writes, per
item and point, the mean and trial standard error of r2x, r2y and
stability to ``perfbench/reference/<workload>.json`` together with the
numeric environment it ran under.  Regenerate only at a commit whose
outputs are known good: the check accepts later code whose point means
stay within one standard error of these.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from run import REFERENCE_DIR, ROOT, WORKLOADS, load_program, numeric_environment, point_reference, run_unit


def _round(value):
    # nine significant digits keep the files small and sit far below any
    # standard error the check compares against
    return None if value is None else float(f"{value:.9g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    pkg = load_program()
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        env = numeric_environment(workload.threads)
        points = {}
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as out_dir:
            for seed in range(workload.reference_seeds):
                unit = run_unit(pkg, workload, seed, out_dir, env)
                points[str(seed)] = {
                    item: [[[_round(v) for v in pair] for pair in point_reference(p)]
                           for p in result.points]
                    for item, result, _ in unit.results}
                print(f"{name} seed={seed} wall={unit.wall:.2f}s", flush=True)
        doc = {"workload": name, "preset": workload.preset,
               "overrides": workload.overrides, "environment": env,
               "points": points}
        path = os.path.join(REFERENCE_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
