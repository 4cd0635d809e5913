"""What the benchmark under ``perfbench/`` uses of the package must exist.

``perfbench/layertrace.py`` finds each boundary function by name and
reports a missing one as null metrics instead of failing, so a rename in
the package would otherwise go unnoticed. ``perfbench/workloads.py`` passes
its Monte Carlo workloads to ``SimConfig`` as keyword fields, so removing or
renaming a field would break the benchmark. ``perfbench/child.py`` calls the
package as ``nu.<name>``, so every such name must stay a package attribute.
``perfbench/run.py`` checks the Monte Carlo points against ``reference.json``
at the pinned seed; the shorter of those points are re-run here. It reads
each point as the ``dataclasses.asdict`` dict that ``child.py`` writes, so
every key it reads must be a ``BerPoint`` field.
The names the scripts under ``demos/`` import from the package are checked
here too, and the package's public names are pinned. Every demo is run
end to end: the two bound-only demos take about half a second each, the two
Monte Carlo demos one to three seconds each.
"""

import ast
import dataclasses
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import noma_uplink
from noma_uplink import SimConfig
from noma_uplink.cli import _BER_COLUMNS

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_DEMOS = Path(__file__).resolve().parents[1] / "demos"
_SRC = Path(__file__).resolve().parents[1] / "src"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _load("workloads")


@pytest.mark.parametrize("home,name",
                         [(home, name) for home, name, _ in _load("layertrace").BOUNDARIES])
def test_traced_boundary_is_public_callable(home, name):
    module = importlib.import_module(f"noma_uplink.{home}")
    assert callable(getattr(module, name, None))


@pytest.mark.parametrize("workload", sorted(_WORKLOADS.MONTE_CARLO))
def test_monte_carlo_workload_is_valid_config(workload):
    fields = _WORKLOADS.MONTE_CARLO[workload]
    cfg = SimConfig(**fields, seed=_WORKLOADS.PINNED_SEED)
    # SimConfig stores its validated floats; the workloads' inputs are unchanged by that
    assert cfg.alphas == fields["alphas"] and cfg.ebn0_db_grid == fields["ebn0_db_grid"]


_REFERENCE = json.loads((_PERFBENCH / "reference.json").read_text())
# Reference points at most this many codewords long are re-simulated here:
# all of them, the 10^6-trial 25-30 dB QPSK points included.
_PINNED_MAX_CODEWORDS = 1_000_000


@pytest.mark.parametrize("workload", sorted(_WORKLOADS.MONTE_CARLO))
def test_pinned_seed_reproduces_reference_points(workload):
    # The benchmark checks its Monte Carlo points against reference.json at
    # PINNED_SEED; this re-runs the shorter ones, so a change to any BerPoint
    # shows in the suite and not only in a benchmark run.
    cfg = SimConfig(**_WORKLOADS.MONTE_CARLO[workload], seed=_WORKLOADS.PINNED_SEED)
    ref = _REFERENCE["points"][noma_uplink.RNG_ALGORITHM][workload]
    pinned = [r for r in ref if r[3] <= _PINNED_MAX_CODEWORDS]
    assert pinned
    got = []
    for alpha, ebn0_db, *_ in pinned:
        p = noma_uplink.run_ber_point(cfg, alpha, ebn0_db)
        got.append([p.alpha, p.ebn0_db, p.bit_errors, p.codewords_used, p.status])
    assert got == pinned


@pytest.mark.parametrize("kind,detector,alpha,ebn0_db,max_codewords,min_bit_errors,expected", [
    # 60 dB: the bracketed check proves all but about 0.4% of the trials
    ("qpsk", "ml", 0.5, 60.0, 100_000, 200, (0, 100_000, "upper-bound-only")),
    # 0 dB: it proves about 2%, and the point stops after one block
    ("qpsk", "ml", 0.5, 0.0, 100_000, 200, (8_819, 10_000, "ok")),
    # caps that end inside a slice, where a short slice and held rows meet
    ("qpsk", "ml", 0.9, 20.0, 23_457, 10**9, (267, 23_457, "ok")),
    ("qam16", "ml", 0.9, 24.0, 12_345, 10**9, (328, 12_345, "ok")),
    ("qpsk", "sic", 0.9, 20.0, 23_457, 10**9, (860, 23_457, "ok")),
])
def test_pinned_seed_edge_points(kind, detector, alpha, ebn0_db, max_codewords, min_bit_errors,
                                 expected):
    # Points outside reference.json, pinned at PINNED_SEED to the values of
    # the harness that decided every trial of every slice.
    cfg = SimConfig(kind=kind, detector=detector, seed=_WORKLOADS.PINNED_SEED,
                    min_bit_errors=min_bit_errors, max_codewords=max_codewords)
    p = noma_uplink.run_ber_point(cfg, alpha, ebn0_db)
    assert (p.bit_errors, p.codewords_used, p.status) == expected


def test_sweep_is_eager():
    # child.py times ``sweep`` and reads the points after its timer stops, so
    # a lazy result would time no simulation at all
    curves = noma_uplink.sweep(SimConfig(alphas=(0.5, 0.9), ebn0_db_grid=(10.0, 20.0),
                                         max_codewords=1))
    assert type(curves) is list and len(curves) == 2
    for curve in curves:
        assert isinstance(curve, noma_uplink.BerCurve)
        assert type(curve.points) is tuple and len(curve.points) == 2
        assert all(isinstance(p, noma_uplink.BerPoint) for p in curve.points)


@pytest.mark.parametrize("workers", [1, 2])
def test_tracer_sees_every_point_and_draw_of_a_sweep(workers):
    # perfbench's point spans, trial counts and kernel split come from the
    # tracer's patch of run_ber_point and trial_stream; a sweep that ran its
    # points around them would set those metrics to zero without an error
    cfg = SimConfig(alphas=(0.5, 0.9), ebn0_db_grid=(0.0, 10.0, 20.0), max_codewords=30_000,
                    workers=workers)
    tracer = _load("layertrace").Tracer()
    tracer.install()
    try:
        points = [p for curve in noma_uplink.sweep(cfg) for p in curve.points]
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    spans = [sp for sp in tracer.spans if sp[0] == "montecarlo.point"]
    assert sorted(sp[4] for sp in spans) == sorted(p.codewords_used for p in points)
    assert len(spans) == len(points) == 6
    drawn = sum(sp[5] for sp in tracer.spans if sp[0] == "rng.draw")
    assert drawn == sum(p.codewords_used for p in points)


def test_child_uses_only_package_attributes():
    used = set(re.findall(r"\bnu\.(\w+)", (_PERFBENCH / "child.py").read_text()))
    used.discard("__file__")
    assert used, "child.py no longer calls the package as nu.<name>"
    assert sorted(n for n in used if not hasattr(noma_uplink, n)) == []


def test_point_record_has_the_keys_its_readers_read():
    # child.py serialises each point with dataclasses.asdict and run.py reads
    # the dict; the ber CSV reads the same fields by name. A derived field
    # turned into a property would drop out of asdict and break run.py only.
    read = set(re.findall(r'p\["(\w+)"\]', (_PERFBENCH / "run.py").read_text()))
    read.discard("bound")  # child.py adds it beside the point's own fields
    assert read, "run.py no longer reads points as p[\"<key>\"]"
    p = noma_uplink.run_ber_point(SimConfig(max_codewords=1), 0.5, 10.0)
    assert sorted(read.union(_BER_COLUMNS).difference(dataclasses.asdict(p))) == []


@pytest.mark.parametrize("demo", sorted(p.name for p in _DEMOS.glob("*.py")))
def test_demo_imports_are_package_attributes(demo):
    tree = ast.parse((_DEMOS / demo).read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "noma_uplink"
             for alias in node.names]
    assert names, f"{demo} no longer imports from noma_uplink"
    assert sorted(n for n in names if not hasattr(noma_uplink, n)) == []


def test_public_names_are_pinned():
    # An export added or removed shows up here as a one-line diff. Callers
    # import everything else from its module (``noma_uplink.montecarlo``...).
    public = sorted(name for name, value in vars(noma_uplink).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert public == [
        "BerCurve", "BerPoint", "Constellation", "NoiseModel", "RNG_ALGORITHM", "SimConfig",
        "TABLE_ALPHAS", "build_constellation", "detect", "error_event_pep_table", "event_norm",
        "optimal_alpha", "pairwise_sum_excess", "pep_bound", "point_stream_key",
        "run_ber_point", "snr_degradation", "sweep", "symmetry_gaps", "synthesize",
        "trial_stream", "union_bound_value", "validate_alpha",
    ]


def _demo_lines(demo, cwd):
    proc = subprocess.run([sys.executable, str(_DEMOS / demo)], capture_output=True, text=True,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": str(_SRC)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("demo,line", [
    ("pep_table.py", "imbalance penalty: 6.9x"),
    ("balance_optimality.py", "raises the bound, at every SNR and for both constellations."),
])
def test_bound_only_demo_runs(tmp_path, demo, line):
    assert line in _demo_lines(demo, tmp_path)


@pytest.mark.parametrize("demo,line", [
    ("ml_vs_sic.py", "   24dB              5.846e-04              6.763e-03   11.6x"),
    ("ber_vs_snr.py",
     "   24dB     7.81e-05   1.35e-04    6.41e-04   9.97e-04    1.94e-03   3.53e-03"),
])
def test_monte_carlo_demo_runs(tmp_path, demo, line):
    # The 24 dB row is the last one printed, after every sweep has finished.
    # The demo runs in tmp_path, where ber_vs_snr.py saves its plot when
    # matplotlib is installed.
    assert line in _demo_lines(demo, tmp_path)
