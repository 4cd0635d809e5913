"""One fresh-interpreter run of a workload; prints one JSON object.

Usage: python3 perfbench/child.py '<spec json>'

The spec names the workload, the seed, whether to trace, an optional
worker-count override (the traced replay) and whether to stop after
set-up. ``noma_uplink`` is imported from the ``src`` directory of the
checkout that holds this file and nowhere else.
"""

import dataclasses
import json
import os
import random
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _rusage():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime, ru.ru_stime, ru.ru_minflt


def _steal_s():
    """Machine-wide CPU time taken by the hypervisor (Linux /proc/stat), or None."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else None


def _bound_inputs(spec, seed):
    """Fixed grid plus (alpha, Eb/N0) pairs drawn from the seed inside it."""
    rnd = random.Random(seed)
    alphas, grid = spec["alphas"], spec["ebn0_db_grid"]
    pairs = [(rnd.uniform(alphas[0], alphas[-1]), rnd.uniform(grid[0], grid[-1]))
             for _ in range(spec["random_pairs"])]
    return alphas, grid, pairs


def main(spec):
    t_start = time.perf_counter()
    import noma_uplink as nu

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(nu.__file__).startswith(src):
        raise SystemExit(f"noma_uplink imported from {nu.__file__}, not from {src}")

    import workloads

    name = spec["workload"]
    seed = spec["seed"]
    mc = workloads.MONTE_CARLO.get(name)
    kinds = (mc["kind"],) if mc else workloads.BOUND_SWEEP["kinds"]

    # Lazy first-call set-up: the bound event tables, and one one-trial
    # point so Philox, ndtri and the worker pool are initialised.
    first_eval_s = 0.0
    for kind in kinds:
        t0 = time.perf_counter()
        nu.union_bound_value(nu.build_constellation(kind), 0.5, 1.0)
        first_eval_s += time.perf_counter() - t0
    if mc:
        fields = dict(mc, workers=spec.get("workers") or mc["workers"], seed=seed)
        cfg = nu.SimConfig(**fields)
        tiny = dataclasses.replace(cfg, max_codewords=1, min_bit_errors=1)
        nu.run_ber_point(tiny, cfg.alphas[0], cfg.ebn0_db_grid[0])
    setup_s = time.perf_counter() - t_start

    out = {
        "setup_s": setup_s,
        "first_eval_s": first_eval_s,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
            "rng_algorithm": nu.RNG_ALGORITHM,
        },
    }
    if spec.get("setup_only"):
        return out

    tracer = None
    if spec.get("trace"):
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()

    if not mc:
        alphas, grid, pairs = _bound_inputs(workloads.BOUND_SWEEP, seed)
        grid_n0 = [nu.NoiseModel.from_ebn0_db(s).n0 for s in grid]
        pair_n0 = [(a, nu.NoiseModel.from_ebn0_db(s).n0) for a, s in pairs]

    steal0 = _steal_s()
    u0, s0, f0 = _rusage()
    t0 = time.perf_counter()
    if mc:
        curves = nu.sweep(cfg)
    else:
        values = {}
        for kind in kinds:
            c = nu.build_constellation(kind)
            values[kind] = {
                "grid": [[nu.union_bound_value(c, a, n0) for n0 in grid_n0] for a in alphas],
                "pairs": [nu.union_bound_value(c, a, n0) for a, n0 in pair_n0],
            }
    t1 = time.perf_counter()
    u1, s1, f1 = _rusage()
    steal1 = _steal_s()
    if tracer:
        tracer.uninstall()
        out["spans"] = tracer.spans
        out["missing"] = tracer.missing

    out.update(
        run_s=t1 - t0,
        cpu_s=(u1 - u0) + (s1 - s0),
        sys_s=s1 - s0,
        minor_faults=f1 - f0,
        steal_s=None if steal0 is None or steal1 is None else steal1 - steal0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if mc:
        c = nu.build_constellation(cfg.kind)
        out["config"] = {"min_bit_errors": cfg.min_bit_errors,
                         "max_codewords": cfg.max_codewords,
                         "workers": cfg.workers}
        out["points"] = [
            dict(dataclasses.asdict(p),
                 bound=nu.union_bound_value(c, p.alpha, nu.NoiseModel.from_ebn0_db(p.ebn0_db).n0))
            for curve in curves for p in curve.points
        ]
    else:
        out["bounds"] = {"alphas": list(alphas), "ebn0_db_grid": list(grid),
                         "pairs": pairs, "values": values}
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
