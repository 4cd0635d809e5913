"""Record the reference outputs that run.py checks against.

Usage (from the root of a checkout): python3 perfbench/record_reference.py

Writes perfbench/reference.json: the union bound on the bound-sweep grid,
and the Monte Carlo points of each workload at the pinned seed, keyed by
``RNG_ALGORITHM``. Points recorded under other RNG algorithms are kept.
Run it only when a change is meant to alter these outputs, and say so.
"""

import json
import os
import time

import run
import workloads


def main():
    path = os.path.join(run.HERE, "reference.json")
    try:
        with open(path) as fh:
            ref = json.load(fh)
    except FileNotFoundError:
        ref = {"points": {}}
    deadline = time.monotonic() + 600
    seed = workloads.PINNED_SEED
    for w in workloads.MONTE_CARLO:
        res = run.run_child({"workload": w, "seed": seed}, deadline)
        algo = res["versions"]["rng_algorithm"]
        ref["points"].setdefault(algo, {})[w] = [run._point_key(p) for p in res["points"]]
    res = run.run_child({"workload": "bound-sweep", "seed": seed}, deadline)
    ref["bound_grid"] = {k: v["grid"] for k, v in res["bounds"]["values"].items()}
    ref["pinned_seed"] = seed
    with open(path, "w") as fh:
        json.dump(ref, fh)
        fh.write("\n")


if __name__ == "__main__":
    main()
