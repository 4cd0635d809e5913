"""noma-uplink benchmark: Monte Carlo BER curves and union-bound sweeps.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ber-qpsk-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 20260811 --seconds 30 --trace 1

``--trace 0`` repeats the workload's fixed work, each repetition in a fresh
interpreter, until ``--seconds`` are used, and reports the end-to-end
metrics as medians over the repetitions. ``--trace 1`` runs the work once
untraced, once traced with the workload's worker count and, for Monte Carlo
workloads, once traced with the other worker count (1 or 2); it reports the
per-layer metrics and the tracing overhead. Every run checks the program's outputs; a
violation counts in ``failed``. Human-readable lines come first; the last
line of standard output is one JSON object. A full record (run facts,
sample counts, every metric, spans) is written to ``perfbench/out/``.
"""

import argparse
import bisect
import json
import math
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

# Every run ends within this many seconds, children included.
RUN_BUDGET_S = 170.0
MIN_REPS = 2
SETUP_SAMPLES = 7
BOUND_RTOL = 1e-12

# name -> unit. The first four are gated in BENCHMARK.json; the rest are
# reported and recorded but apply to one kind of workload only, or are 0
# on a correct run, so they cannot carry a relative bound.
END_TO_END = {
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "trials_per_s": "codewords/s",
    "bound_evals_per_s": "evals/s",
    "failed_frac": "ratio",
}
GATED = ("run_s", "cpu_s", "peak_rss_mb", "setup_s")

# name -> (unit, public functions whose spans it needs). rng.* times and
# montecarlo.kernel_* come from the traced workers=1 run; counts, point
# times and rusage deltas from the traced run at the workload's worker count.
PER_LAYER = {
    "rng.draw_s": ("s", ("trial_stream",)),
    "rng.normals_s": ("s", ("normals_from_uniforms",)),
    "rng.stream_s": ("s", ("trial_stream",)),
    "rng.doubles_drawn": ("count", ("trial_stream",)),
    "rng.ms_per_10k_trials": ("ms", ("trial_stream", "normals_from_uniforms")),
    "rng.share": ("ratio", ("trial_stream", "normals_from_uniforms", "run_ber_point")),
    "montecarlo.kernel_s": ("s", ("trial_stream", "normals_from_uniforms", "run_ber_point")),
    "montecarlo.kernel_ms_per_10k_trials": (
        "ms", ("trial_stream", "normals_from_uniforms", "run_ber_point")),
    "montecarlo.kernel_share": ("ratio", ("trial_stream", "normals_from_uniforms", "run_ber_point")),
    "montecarlo.trials_drawn": ("count", ("trial_stream",)),
    "montecarlo.trials_used": ("count", ("run_ber_point",)),
    "montecarlo.useful_ratio": ("ratio", ("trial_stream", "run_ber_point")),
    "montecarlo.worker_speedup": ("ratio", ()),
    "montecarlo.sys_s": ("s", ()),
    "montecarlo.minor_faults": ("count", ()),
    "montecarlo.point_s.p50": ("s", ("run_ber_point",)),
    "montecarlo.point_s.max": ("s", ("run_ber_point",)),
    "montecarlo.points": ("count", ("run_ber_point",)),
    "bounds.eval_s": ("s", ("union_bound_value",)),
    "bounds.evals": ("count", ("union_bound_value",)),
    "bounds.eval_ms.p50": ("ms", ("union_bound_value",)),
    "bounds.eval_ms.p99": ("ms", ("union_bound_value",)),
    "bounds.first_eval_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
}


class BenchError(Exception):
    pass


def run_child(spec, deadline):
    """Run child.py in a fresh interpreter and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {spec} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {spec} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- checks

def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def _point_key(p):
    return [p["alpha"], p["ebn0_db"], p["bit_errors"], p["codewords_used"], p["status"]]


def check_points(res, workload, seed, reference):
    """Violations per Monte Carlo point; returns (attempted, failures)."""
    points, cfg = res["points"], res["config"]
    bad = {}
    if seed == workloads.PINNED_SEED:
        ref = reference["points"].get(res["versions"]["rng_algorithm"], {}).get(workload)
        got = [_point_key(p) for p in points]
        for i in range(len(points)):
            if ref is None:
                bad.setdefault(i, []).append("no reference recorded for this RNG_ALGORITHM")
            elif len(ref) != len(got) or ref[i] != got[i]:
                bad.setdefault(i, []).append("differs from reference")
    for i, p in enumerate(points):
        if p["status"] == "ok" and not (p["bit_errors"] >= cfg["min_bit_errors"]
                                        or p["codewords_used"] >= cfg["max_codewords"]):
            bad.setdefault(i, []).append("stopped early")
        if not p["ber"] <= p["bound"] + 2.0 * p["ci95_halfwidth"]:
            bad.setdefault(i, []).append(f"ber {p['ber']} above bound {p['bound']}")
    return len(points), [f"point {_point_key(points[i])}: {'; '.join(m)}" for i, m in bad.items()]


def check_bounds(res, reference):
    """Violations per union-bound evaluation; returns (attempted, failures)."""
    b = res["bounds"]
    alphas, grid = b["alphas"], b["ebn0_db_grid"]
    attempted, failures = 0, []
    for kind, vals in b["values"].items():
        g, ref = vals["grid"], reference["bound_grid"][kind]
        for i in range(len(alphas)):
            for j in range(len(grid)):
                attempted += 1
                v, msgs = g[i][j], []
                if not abs(v - ref[i][j]) <= BOUND_RTOL * abs(ref[i][j]):
                    msgs.append(f"{v!r} != reference {ref[i][j]!r}")
                if i and v < g[i - 1][j]:
                    msgs.append("decreases in alpha")
                if j and v > g[i][j - 1]:
                    msgs.append("increases in Eb/N0")
                if msgs:
                    failures.append(f"{kind} bound at ({alphas[i]}, {grid[j]}): {'; '.join(msgs)}")
        for (a, s), v in zip(b["pairs"], vals["pairs"]):
            attempted += 1
            i = min(bisect.bisect_right(alphas, a), len(alphas) - 1)
            j = min(bisect.bisect_right(grid, s), len(grid) - 1)
            lo, hi = g[i - 1][j], g[i][j - 1]
            if not lo <= v <= hi:
                failures.append(f"{kind} bound at ({a}, {s}) = {v} outside [{lo}, {hi}]")
    return attempted, failures


def check_outputs(res, workload, seed, reference):
    if "points" in res:
        return check_points(res, workload, seed, reference)
    return check_bounds(res, reference)


def outputs(res):
    return res["points"] if "points" in res else res["bounds"]["values"]


# ---------------------------------------------------------------- metrics

def _work(res):
    """(units of work, metric name) of one repetition."""
    if "points" in res:
        return sum(p["codewords_used"] for p in res["points"]), "trials_per_s"
    n = sum(len(v["pairs"]) + sum(len(r) for r in v["grid"]) for v in res["bounds"]["values"].values())
    return n, "bound_evals_per_s"


def _pct(values, q):
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def _covered(parents, children):
    """Time inside the parent intervals that the child intervals cover."""
    merged = []
    for s, e in sorted(children):
        if merged and s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    total = 0.0
    for ps, pe in parents:
        for s, e in merged:
            total += max(0.0, min(pe, e) - max(ps, s))
    return total


def layer_metrics(untraced, traced, replay):
    """Per-layer metrics; None where a traced public function is missing.

    ``replay`` is the traced Monte Carlo run at the other worker count, or
    None for a workload without Monte Carlo.
    """
    spans = traced["spans"]
    dur = lambda name, sp=spans: [e - s for n, _, s, e, *_ in sp if n == name]
    draws = [sp for sp in spans if sp[0] == "rng.draw"]
    points = [sp for sp in spans if sp[0] == "montecarlo.point"]
    evals_ms = [1e3 * d for d in dur("bounds.eval")]
    drawn = sum(sp[5] for sp in draws)
    used = sum(sp[4] for sp in points)
    m = {
        "rng.doubles_drawn": sum(sp[4] for sp in draws),
        "montecarlo.trials_drawn": drawn,
        "montecarlo.trials_used": used,
        "montecarlo.useful_ratio": used / drawn if drawn else 0.0,
        "montecarlo.point_s.p50": statistics.median(dur("montecarlo.point") or [0.0]),
        "montecarlo.point_s.max": max(dur("montecarlo.point"), default=0.0),
        "montecarlo.points": len(points),
        "bounds.eval_s": sum(evals_ms) / 1e3,
        "bounds.evals": len(evals_ms),
        "bounds.eval_ms.p50": statistics.median(evals_ms or [0.0]),
        "bounds.eval_ms.p99": _pct(evals_ms, 0.99),
        "bounds.first_eval_s": traced["first_eval_s"],
        "trace.overhead_s": traced["run_s"] - untraced["run_s"],
    }
    # The Monte Carlo phase of a workload that has none is reported as 0.
    m.update({k: 0.0 for k in ("rng.draw_s", "rng.normals_s", "rng.stream_s",
                               "rng.ms_per_10k_trials", "rng.share", "montecarlo.kernel_s",
                               "montecarlo.kernel_ms_per_10k_trials", "montecarlo.kernel_share",
                               "montecarlo.worker_speedup", "montecarlo.sys_s",
                               "montecarlo.minor_faults")})
    missing = set(traced["missing"])
    if replay is not None:
        missing |= set(replay["missing"])
        serial, parallel = sorted((traced, replay), key=lambda r: r["config"]["workers"])
        rs = serial["spans"]
        busy_iv = [(s, e) for n, _, s, e, *_ in rs if n == "montecarlo.point"]
        rng_iv = [(s, e) for n, _, s, e, *_ in rs if n.startswith("rng.")]
        busy = sum(e - s for s, e in busy_iv)
        rng_s = _covered(busy_iv, rng_iv)
        kernel_s = busy - rng_s
        per10k = 1e7 / max(1, sum(sp[5] for sp in rs if sp[0] == "rng.draw"))
        m.update({
            "rng.draw_s": sum(dur("rng.draw", rs)),
            "rng.normals_s": sum(dur("rng.normals", rs)),
            "rng.stream_s": sum(dur("rng.stream", rs)),
            "rng.ms_per_10k_trials": rng_s * per10k,
            "rng.share": rng_s / busy if busy else 0.0,
            "montecarlo.kernel_s": kernel_s,
            "montecarlo.kernel_ms_per_10k_trials": kernel_s * per10k,
            "montecarlo.kernel_share": kernel_s / busy if busy else 0.0,
            "montecarlo.worker_speedup": serial["run_s"] / parallel["run_s"],
            "montecarlo.sys_s": traced["sys_s"],
            "montecarlo.minor_faults": traced["minor_faults"],
        })
    for name, (_, needs) in PER_LAYER.items():
        if missing.intersection(needs):
            m[name] = None
    return m, sorted(missing)


# ---------------------------------------------------------------- runs

def measure(workload, seed, seconds, deadline, reference):
    """Untraced repetitions in fresh interpreters; end-to-end metrics."""
    start = time.monotonic()
    reps, attempted, failures = [], 0, []
    while True:
        t0 = time.monotonic()
        rep_seed = seed + len(reps)
        res = run_child({"workload": workload, "seed": rep_seed}, deadline)
        last = time.monotonic() - t0
        n, bad = check_outputs(res, workload, rep_seed, reference)
        attempted += n
        failures += bad
        reps.append(res)
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and (elapsed + last > seconds
                                      or time.monotonic() + 2 * last > deadline):
            break
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child({"workload": workload, "seed": seed, "setup_only": True},
                                deadline)["setup_s"])
    rate_name = _work(reps[0])[1]
    metrics = {
        "run_s": statistics.median(r["run_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "setup_s": statistics.median(setups),
        rate_name: statistics.median(_work(r)[0] / r["run_s"] for r in reps),
        "failed_frac": len(failures) / attempted,
    }
    samples = {k: len(reps) for k in metrics}
    samples["setup_s"] = len(setups)
    # Host contention shows as steal time; it explains outlying runs.
    steal = [r["steal_s"] for r in reps if r["steal_s"] is not None]
    facts = dict(reps[0]["versions"], steal_s_median=statistics.median(steal) if steal else None)
    return metrics, samples, attempted, failures, facts, {"reps": reps}


def trace(workload, seed, deadline, reference):
    """Untraced run, traced run and (Monte Carlo) a traced replay at the other
    worker count, which must return the same points."""
    base = {"workload": workload, "seed": seed}
    untraced = run_child(base, deadline)
    traced = run_child(dict(base, trace=True), deadline)
    replay = None
    mc = workloads.MONTE_CARLO.get(workload)
    if mc:
        replay = run_child(dict(base, trace=True, workers=2 if mc["workers"] == 1 else 1),
                           deadline)
    attempted, failures = check_outputs(untraced, workload, seed, reference)
    replay_label = f"workers={replay['config']['workers']} replay" if replay else ""
    for label, other in (("traced run", traced), (replay_label, replay)):
        if other is None:
            continue
        want, got = outputs(untraced), outputs(other)
        if "points" in untraced:
            attempted += len(want)
            failures += [f"{label} point {i} differs: {g} != {w}"
                         for i, (w, g) in enumerate(zip(want, got)) if w != g]
            if len(want) != len(got):
                failures.append(f"{label} returned {len(got)} points, not {len(want)}")
        else:
            attempted += 1
            if want != got:
                failures.append(f"{label} bound values differ from the untraced run")
    metrics, missing = layer_metrics(untraced, traced, replay)
    spans = {"traced": traced.pop("spans"), "replay": replay.pop("spans") if replay else []}
    counts = {layer: sum(1 for sp in spans["traced"] + spans["replay"] if sp[0].startswith(layer))
              for layer in ("rng.", "montecarlo.", "bounds.")}
    samples = {"montecarlo.point_s": metrics["montecarlo.points"],
               "bounds.eval_ms": metrics["bounds.evals"]}
    extra = {"missing": missing, "span_counts": counts, "spans": spans,
             "untraced_run_s": untraced["run_s"], "traced_run_s": traced["run_s"],
             "replay_run_s": replay["run_s"] if replay else None}
    return metrics, samples, attempted, failures, untraced["versions"], extra


def run_workload(workload, seed, seconds, tracing, deadline, reference):
    if tracing:
        metrics, samples, attempted, failures, facts, extra = trace(
            workload, seed, deadline, reference)
        units = {k: u for k, (u, _) in PER_LAYER.items()}
        gated = list(PER_LAYER)
    else:
        metrics, samples, attempted, failures, facts, extra = measure(
            workload, seed, seconds, deadline, reference)
        units, gated = END_TO_END, GATED
    facts = dict(facts, workload=workload, seed=seed, trace=int(tracing), seconds=seconds,
                 nproc=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)),
                 samples=samples, pinned_seed=workloads.PINNED_SEED)

    print(f"== {workload} seed={seed} trace={int(tracing)}")
    print("facts " + json.dumps({k: v for k, v in facts.items() if k != "samples"}))
    for name in (n for n in units if n in metrics):
        shown = "missing" if metrics[name] is None else f"{metrics[name]:.6g}"
        n = next((v for k, v in samples.items() if name.startswith(k)), None)
        print(f"  {name:<38} {shown:>14} {units[name]:<12}" + (f" n={n}" if n is not None else ""))
    if tracing:
        print(f"  spans recorded: {extra['span_counts']}; missing: {extra['missing'] or 'none'}")
        if workload in workloads.MONTE_CARLO and metrics["rng.share"] is not None:
            print(f"  workers=1 busy split: kernel {metrics['montecarlo.kernel_share']:.1%}, "
                  f"rng {metrics['rng.share']:.1%}")
    print(f"  checks: {len(failures)} failed of {attempted} attempted")
    for msg in failures[:20]:
        print(f"    FAIL {msg}")

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{workload}-trace{int(tracing)}.json"), "w") as fh:
        json.dump({"facts": facts, "metrics": metrics, "units": units,
                   "attempted": attempted, "failures": failures, **extra}, fh)

    result = {name: {"value": metrics[name], "unit": units[name]} for name in gated}
    return result, attempted, len(failures)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + RUN_BUDGET_S
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if len(chosen) > 1:
        deadline += RUN_BUDGET_S * (len(chosen) - 1)
    try:
        reference = load_reference()
        metrics, attempted, failed = {}, 0, 0
        for w in chosen:
            result, n, bad = run_workload(w, args.seed, args.seconds, bool(args.trace),
                                          deadline, reference)
            prefix = f"{w}." if len(chosen) > 1 else ""
            metrics.update({prefix + k: v for k, v in result.items()})
            attempted += n
            failed += bad
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
