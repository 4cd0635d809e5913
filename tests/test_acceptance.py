"""Acceptance suite: one criterion per numbered test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines. The Monte Carlo criteria (4 and 5) are the slow part; the
whole module is sized to finish in a few minutes on a small desktop CPU.

All Monte Carlo results here are deterministic: the seed is fixed and the
harness is bit-reproducible by construction, so these are frozen checks,
not flaky statistical ones.
"""

import csv
import itertools
import math

import numpy as np
import pytest

from noma_uplink import (
    NoiseModel,
    SimConfig,
    build_constellation,
    detect,
    event_norm,
    pairwise_sum_excess,
    pep_bound,
    point_stream_key,
    run_ber_point,
    snr_degradation,
    sweep,
    synthesize,
    trial_stream,
    union_bound_value,
)
from noma_uplink.cli import main as cli_main
from noma_uplink.rng import DRAWS_PER_TRIAL, normals_from_uniforms

ACCEPTANCE_SEED = 20260811
WORKERS = 2
# detect takes one alpha per call; the random-instance criteria (6d, 6e)
# split their instances evenly over these.
DETECT_ALPHAS = (0.5, 0.6, 0.75, 0.9, 0.99)
# criterion 6j checks the Monte Carlo BER rise at each consecutive step
RISE_ALPHAS = (0.7, 0.8, 0.9, 0.99)
# criterion 6k runs SIC, the PD-NOMA receiver, at each of these imbalances
SIC_ALPHAS = (0.6, 0.7, 0.8, 0.9, 0.95)

# -- Published reference values ----------------------------------------------
# The 15-row QPSK error-event PEP table at SNR 20 dB (1/N0 = 100), printed
# values for alpha = 0.5 and alpha = 0.9. The three starred alpha=0.9 cells
# (E2/E4/E10) dominate the imbalanced bound.
PRINTED_TABLE = {
    "E1": (3.84e-4, 1.2e-4),
    "E2": (3.84e-4, 8.1e-3),
    "E3": (3.84e-4, 1.2e-4),
    "E4": (3.84e-4, 8.1e-3),
    "E5": (1e-4, 1e-4),
    "E6": (1e-4, 1e-4),
    "E7": (1e-4, 1e-4),
    "E8": (1e-4, 1e-4),
    "E9": (1e-4, 3e-5),
    "E10": (1e-4, 2.3e-3),
    "E11": (4.3e-5, 2.7e-5),
    "E12": (4.3e-5, 8.1e-5),
    "E13": (4.3e-5, 2.7e-5),
    "E14": (4.3e-5, 8.1e-5),
    "E15": (2.5e-5, 2.5e-5),
}

# Reported ABEP union-bound totals at SNR 20 dB (1 significant figure).
REPORTED_BOUND = {0.5: 8e-4, 0.9: 5e-3}

# Reported Monte Carlo BER at Eb/N0 = 20 dB, QPSK, ML detection.
REPORTED_BER_20DB = {0.5: 5e-4, 0.9: 3e-3}

# Reported SNR degradation (dB) vs alpha = 0.5 at BER 1e-3.
DEGRADATION_TARGETS = {
    "qpsk": {0.9: 4.5, 0.95: 7.0, 0.98: 11.5, 0.99: 14.0},
    "qam16": {0.9: 3.0, 0.95: 6.0, 0.98: 9.5, 0.99: 12.5},
}

# Monte Carlo policy for the degradation curves: grid centered on the
# (deterministic, analytic) union-bound crossing of the target BER.
CURVE_POLICY = {
    "qpsk": dict(span_lo=-4.0, step=1.0, n_points=7, min_err=2500,
                 max_cw=20_000_000),
    "qam16": dict(span_lo=-6.0, step=2.0, n_points=5, min_err=1200,
                  max_cw=12_000_000),
}


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def bound_crossing_db(kind, alpha, target=1e-3):
    c = build_constellation(kind)
    lo, hi = 0.0, 60.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if union_bound_value(c, alpha, NoiseModel.from_ebn0_db(mid).n0) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def degradation_curve(kind, alpha):
    pol = CURVE_POLICY[kind]
    base = round(bound_crossing_db(kind, alpha) * 2) / 2
    grid = tuple(base + pol["span_lo"] + i * pol["step"] for i in range(pol["n_points"]))
    cfg = SimConfig(kind=kind, detector="ml", seed=ACCEPTANCE_SEED,
                    min_bit_errors=pol["min_err"], max_codewords=pol["max_cw"],
                    workers=WORKERS, alphas=(alpha,), ebn0_db_grid=grid)
    return sweep(cfg)[0]


@pytest.fixture(scope="module")
def spot_points():
    """Criterion 4 points (>= 2000 bit errors), reused by criterion 6g."""
    cfg = SimConfig(kind="qpsk", detector="ml", seed=ACCEPTANCE_SEED,
                    min_bit_errors=2000, max_codewords=10_000_000, workers=WORKERS)
    return {a: run_ber_point(cfg, a, 20.0) for a in (0.5, 0.9)}


def test_criterion_1_pep_table_cells(tmp_path):
    out = tmp_path / "table1.csv"
    assert cli_main(["table1", "--snr-db", "20", "--out", str(out)]) == 0
    lines = [ln for ln in out.read_text().splitlines()
             if not ln.startswith("#") and ln.strip()]
    rows = {r["event"]: r for r in csv.DictReader(lines)}
    worst = 0.0
    for eid, (printed_lo, printed_hi) in PRINTED_TABLE.items():
        got_lo = float(rows[eid]["pep_alpha_0.5"])
        got_hi = float(rows[eid]["pep_alpha_0.9"])
        worst = max(worst, abs(got_lo - printed_lo) / printed_lo,
                    abs(got_hi - printed_hi) / printed_hi)
    report("1 (PEP table, 30 cells vs printed values)", worst <= 0.05,
           f"max relative deviation {worst:.2%} (tolerance 5%)")


def test_criterion_2_union_bound_totals():
    c = build_constellation("qpsk")
    errs = {}
    for alpha, reported in REPORTED_BOUND.items():
        got = union_bound_value(c, alpha, 0.01)
        errs[alpha] = abs(got - reported) / reported
    ok = all(e <= 0.15 for e in errs.values())
    report("2 (ABEP bound totals at 20 dB)", ok,
           ", ".join(f"alpha={a}: {e:.1%} from {REPORTED_BOUND[a]:g}"
                     for a, e in errs.items()) + " (tolerance 15%)")


def test_criterion_3_bound_optimality_grid():
    grid = [round(0.5 + 0.01 * i, 2) for i in range(50)]
    failures = []
    for kind in ("qpsk", "qam16"):
        c = build_constellation(kind)
        for snr in (10.0, 20.0, 30.0):
            n0 = NoiseModel.from_ebn0_db(snr).n0
            values = [union_bound_value(c, a, n0) for a in grid]
            if values[0] != min(values):
                failures.append(f"{kind}@{snr}dB argmin not 0.5")
            if any(b < a for a, b in zip(values, values[1:])):
                failures.append(f"{kind}@{snr}dB not non-decreasing")
    report("3 (bound minimized at alpha=0.5, non-decreasing on grid)",
           not failures, "; ".join(failures) or
           "both constellations, Eb/N0 in {10, 20, 30} dB, 50-point grid")


def test_criterion_4_monte_carlo_spot_values(spot_points):
    details = []
    ok = True
    for alpha, reported in REPORTED_BER_20DB.items():
        p = spot_points[alpha]
        rel = abs(p.ber - reported) / reported
        ok &= rel <= 0.25 and p.bit_errors >= 2000
        details.append(f"alpha={alpha}: ber={p.ber:.3e} vs {reported:g} "
                       f"({rel:.1%}, {p.bit_errors} errors)")
    report("4 (QPSK ML BER at 20 dB)", ok, "; ".join(details) + " (tolerance 25%)")


def assert_monotone_within_ci(curve):
    # at acceptance sample sizes a curve must be non-increasing in Eb/N0 up
    # to twice the binomial confidence slack
    for a, b in zip(curve.points, curve.points[1:]):
        assert b.ber <= a.ber + 2 * (a.ci95_halfwidth + b.ci95_halfwidth), (
            f"curve alpha={curve.alpha} not monotone at {b.ebn0_db} dB")


@pytest.mark.parametrize("kind", ["qpsk", "qam16"])
def test_criterion_5_snr_degradation(kind):
    ref = degradation_curve(kind, 0.5)
    assert_monotone_within_ci(ref)
    details = []
    ok = True
    for alpha, target in DEGRADATION_TARGETS[kind].items():
        curve = degradation_curve(kind, alpha)
        assert_monotone_within_ci(curve)
        got = snr_degradation(ref, curve, 1e-3)
        err = got - target
        ok &= abs(err) <= 0.75
        details.append(f"alpha={alpha}: {got:.2f} dB vs {target:g} ({err:+.2f})")
    report(f"5 (SNR degradation at BER 1e-3, {kind})", ok,
           "; ".join(details) + " (tolerance +-0.75 dB)")


def test_criterion_6a_pairwise_excess_positivity():
    qpsk = build_constellation("qpsk")
    diffs = sorted({a - b for a in qpsk.points for b in qpsk.points},
                   key=lambda z: (z.real, z.imag))
    checked = 0
    for alpha in (0.6, 0.9, 0.99):
        for n0 in (0.1, 0.01, 0.001):
            for u in diffs:
                for v in diffs:
                    if abs(u) ** 2 != abs(v) ** 2:
                        assert pairwise_sum_excess(u, v, alpha, n0) > 0
                        checked += 1
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    n_random = 0
    while n_random < 10_000:
        u = complex(*rng.uniform(-4, 4, 2))
        v = complex(*rng.uniform(-4, 4, 2))
        if abs(abs(u) ** 2 - abs(v) ** 2) < 1e-6:
            continue
        assert pairwise_sum_excess(u, v, float(rng.uniform(0.51, 0.999)),
                                   float(10.0 ** rng.uniform(-4, 0))) > 0
        n_random += 1
    report("6a (pairwise-sum excess > 0)", True,
           f"{checked} exhaustive QPSK pairs + {n_random} random pairs")


def test_criterion_6b_event_norm_sum_rule():
    rng = np.random.default_rng(ACCEPTANCE_SEED + 1)
    for _ in range(10_000):
        u = complex(*rng.uniform(-4, 4, 2))
        v = complex(*rng.uniform(-4, 4, 2))
        alpha = float(rng.uniform(0.5, 0.999))
        total = event_norm(u, v, alpha) + event_norm(v, u, alpha)
        assert total == pytest.approx(abs(u) ** 2 + abs(v) ** 2, rel=1e-12, abs=1e-12)
    report("6b (event-norm sum rule)", True, "10000 random pairs")


def test_criterion_6c_pep_bound_monotonicity():
    rng = np.random.default_rng(ACCEPTANCE_SEED + 2)
    for _ in range(10_000):
        d2a, d2b = sorted(rng.uniform(0.0, 40.0, 2))
        n0a, n0b = sorted(10.0 ** rng.uniform(-4, 1, 2))
        if d2b - d2a > 1e-9:
            assert pep_bound(d2a, n0a) > pep_bound(d2b, n0a)
        if (n0b - n0a) > 1e-9 * n0b and d2a > 1e-9:
            assert pep_bound(d2a, n0a) < pep_bound(d2a, n0b)
    report("6c (pep_bound monotone in d2 and n0)", True, "10000 random orderings")


def test_criterion_6d_ml_equals_exhaustive_oracle():
    c = build_constellation("qpsk")
    u = trial_stream(ACCEPTANCE_SEED + 3).random((1000, DRAWS_PER_TRIAL))
    n0 = NoiseModel.from_ebn0_db(5.0).n0
    for k, alpha in enumerate(DETECT_ALPHAS):
        _, _, h, r = synthesize(u[k::len(DETECT_ALPHAS)], c, alpha, n0)
        j1, j2 = detect("ml", r, h, alpha, c)
        # independent oracle: sort all (metric, index) pairs of each trial
        H = np.stack(h, axis=-1).reshape(-1, 2, 2)
        pairs = list(itertools.product(range(c.M), repeat=2))
        X = np.array([[math.sqrt(alpha) * c.points[i1] for i1, _ in pairs],
                      [math.sqrt(1.0 - alpha) * c.points[i2] for _, i2 in pairs]])
        metrics = np.sum(np.abs(np.stack(r, axis=-1)[:, :, None] - H @ X) ** 2, axis=1)
        oracle = [sorted(zip(row.tolist(), range(row.size)))[0][1] for row in metrics]
        assert (j1 * 4 + j2).tolist() == oracle
    report("6d (ML argmin equals sorting oracle)", True, "1000 random instances")


def test_criterion_6e_noiseless_detection_exact():
    for kind in ("qpsk", "qam16"):
        c = build_constellation(kind)
        u = trial_stream(ACCEPTANCE_SEED + 4).random((100, DRAWS_PER_TRIAL))
        u[:, 10:14] = 0.5  # exact zero noise
        for k, alpha in enumerate(DETECT_ALPHAS):
            i1, i2, h, r = synthesize(u[k::len(DETECT_ALPHAS)], c, alpha, 1.0)
            j1, j2 = detect("ml", r, h, alpha, c)
            assert np.array_equal(j1, i1) and np.array_equal(j2, i2)
    report("6e (noiseless ML detection exact)", True,
           "100 random channels per constellation")


def test_criterion_6f_determinism_workers_and_chunks():
    def point(workers):
        cfg = SimConfig(kind="qpsk", detector="ml", seed=ACCEPTANCE_SEED,
                        min_bit_errors=200, max_codewords=400_000, workers=workers)
        return run_ber_point(cfg, 0.9, 10.0)

    reference = point(1)
    variants = [point(w) for w in (2, 8)]
    ok = all(v == reference for v in variants)
    report("6f (bit-identical under 1/2/8 workers)", ok,
           f"ber={reference.ber:.4e} across {len(variants)} runs")


def test_criterion_6g_simulation_below_bound(spot_points):
    c = build_constellation("qpsk")
    details = []
    ok = True
    for alpha, p in spot_points.items():
        bound = union_bound_value(c, alpha, 0.01)
        ok &= p.ber <= bound + 2 * p.ci95_halfwidth
        details.append(f"alpha={alpha}: ber={p.ber:.3e} <= bound={bound:.3e}")
    report("6g (simulated BER below union bound)", ok, "; ".join(details))


def test_criterion_6h_ber_ordering_in_alpha():
    cfg = SimConfig(kind="qpsk", detector="ml", seed=ACCEPTANCE_SEED,
                    min_bit_errors=2000, max_codewords=10_000_000, workers=WORKERS)
    pts = [run_ber_point(cfg, a, 20.0) for a in (0.5, 0.9, 0.95, 0.98)]
    ok = all(a.ber + a.ci95_halfwidth < b.ber - b.ci95_halfwidth
             for a, b in zip(pts, pts[1:]))
    report("6h (BER strictly ordered in alpha at 20 dB, disjoint CIs)", ok,
           " < ".join(f"{p.ber:.2e}" for p in pts))


def paired_z(kind, seed, slices, sides, ebn0_db):
    """z of BER(sides[1]) - BER(sides[0]) over ``slices`` 2,500-row slices of one stream.

    Each side is a ``(detector, alpha)``. The same draw rows go through the
    signal model at ``ebn0_db`` and each side's detector, so the
    per-codeword difference d = e(sides[1]) - e(sides[0]) in bit errors has
    a small variance. The sums (N, each side's bit errors, sum d^2) are
    exact integers; z is the mean of d over its standard error. Returns (z,
    (bit errors of each side), N).
    """
    c = build_constellation(kind)
    n0 = NoiseModel(ebn0_db).n0
    stream = trial_stream(seed)
    n = s2 = 0
    errors = [0, 0]
    for _ in range(slices):
        u = stream.random((2_500, DRAWS_PER_TRIAL))
        e = []
        for detector, alpha in sides:
            i1, i2, h, r = synthesize(u, c, alpha, n0)
            j1, j2 = detect(detector, r, h, alpha, c)
            e.append(c.hamming[i1, j1] + c.hamming[i2, j2])
        d = e[1] - e[0]
        n += d.size
        errors = [total + int(side.sum()) for total, side in zip(errors, e)]
        s2 += int((d * d).sum())
    s1 = errors[1] - errors[0]
    # mean / sqrt(var / n), with var the sample variance (n - 1 in the denominator)
    return s1 * math.sqrt(n - 1) / math.sqrt(n * s2 - s1 * s1), tuple(errors), n


def test_criterion_6i_paired_ber_near_balance():
    # The paper's claim near alpha = 1/2, where it is sharpest, over 10^6
    # paired QPSK trials.
    z, (e0, e1), n = paired_z("qpsk", ACCEPTANCE_SEED + 5, 400, (("ml", 0.5), ("ml", 0.7)), 20.0)
    report("6i (paired QPSK ML at 20 dB: BER(0.7) > BER(0.5), z >= 5)", z >= 5.0,
           f"z={z:.2f}, sum d={e1 - e0} over {n} codewords")


def test_criterion_6i_paired_ber_near_balance_qam16():
    # The same claim for 16QAM over 3 * 10^5 paired trials.
    z, (e0, e1), n = paired_z("qam16", ACCEPTANCE_SEED + 6, 120, (("ml", 0.5), ("ml", 0.7)),
                              20.0)
    report("6i (paired 16QAM ML at 20 dB: BER(0.7) > BER(0.5), z >= 5)", z >= 5.0,
           f"z={z:.2f}, sum d={e1 - e0} over {n} codewords")


@pytest.mark.parametrize("kind,seed,slices", [
    ("qpsk", ACCEPTANCE_SEED + 7, 80), ("qam16", ACCEPTANCE_SEED + 8, 40)])
def test_criterion_6j_paired_ber_rises_across_alpha(kind, seed, slices):
    # Criterion 3's non-decreasing grid at the simulator: BER rises at each
    # step of RISE_ALPHAS, every alpha on the same draw rows. The weakest step,
    # 0.7 to 0.8, read z = 7.0-8.0 (QPSK) and 12.9-13.7 (16QAM) over 10^5
    # trials of stream seeds 11-13, which the check does not use.
    steps = list(zip(RISE_ALPHAS, RISE_ALPHAS[1:]))
    zs = [paired_z(kind, seed, slices, (("ml", a), ("ml", b)), 20.0)[0] for a, b in steps]
    report(f"6j (paired {kind} ML at 20 dB: BER rises at each alpha step, z >= 5)",
           min(zs) >= 5.0, ", ".join(f"{a}->{b}: z={z:.2f}" for (a, b), z in zip(steps, zs))
           + f" over {slices * 2_500} codewords")


@pytest.mark.parametrize("kind,seed", [
    ("qpsk", ACCEPTANCE_SEED + 9), ("qam16", ACCEPTANCE_SEED + 10)])
@pytest.mark.parametrize("ebn0_db", [12.0, 20.0])
def test_criterion_6k_balanced_ml_beats_sic(kind, seed, ebn0_db):
    # The paper's conclusion: balanced powers with ML beat PD-NOMA's
    # imbalance with SIC. ML at alpha 0.5 against SIC at each of SIC_ALPHAS,
    # every side on the same 2 * 10^4 draw rows. On stream seeds 101-103,
    # which the check does not use, the weakest z read 18.1-20.2 (QPSK,
    # 20 dB, alpha 0.9) and 57.6-64.8 for 16QAM.
    runs = {a: paired_z(kind, seed, 8, (("ml", 0.5), ("sic", a)), ebn0_db) for a in SIC_ALPHAS}
    zs = {a: z for a, (z, _, _) in runs.items()}
    best = min(SIC_ALPHAS, key=lambda a: runs[a][1][1])
    (ml_errors, sic_errors), n = runs[best][1:]
    bits = n * 2 * build_constellation(kind).bits_per_symbol
    report(f"6k (paired {kind} at {ebn0_db:g} dB: BER of SIC at every alpha > BER of ML at 0.5, "
           "z >= 5)", min(zs.values()) >= 5.0,
           f"ML(0.5) BER {ml_errors / bits:.2e}; SIC's best alpha {best}, BER "
           f"{sic_errors / bits:.2e}; " + ", ".join(f"z({a})={z:.2f}" for a, z in zs.items())
           + f" over {n} codewords")


def test_criterion_7_channel_statistics():
    # 10^6 channel draws via the documented stream layout; thresholds are
    # 3 sigma of each estimator under the nominal CN(0,1) i.i.d. model.
    # synthesize decodes the channel columns u[:, 2:10]; the other columns
    # are 0.5 (zero noise) and do not touch the channel.
    n = 1_000_000
    rng = trial_stream(point_stream_key(ACCEPTANCE_SEED, 0.5, 0.0))
    u = np.full((n, DRAWS_PER_TRIAL), 0.5)
    u[:, 2:10] = rng.random((n, 8))
    entries = np.stack(synthesize(u, build_constellation("qpsk"), 0.5, 1.0)[2], axis=-1)

    rng2 = trial_stream(point_stream_key(ACCEPTANCE_SEED, 0.5, 0.0))
    g = normals_from_uniforms(rng2.random((8, 8))) / math.sqrt(2.0)
    assert np.array_equal(entries[:8], g[:, 0::2] + 1j * g[:, 1::2])

    sigma_mean = math.sqrt(0.5 / n)      # per real component of a mean
    sigma_var = math.sqrt(1.0 / n)       # var(|h|^2) = 1 for CN(0,1)
    sigma_corr = math.sqrt(0.5 / n)      # per component of a cross moment
    worst = 0.0
    ok = True
    for k in range(4):
        col = entries[:, k]
        for part in (col.real.mean(), col.imag.mean()):
            ok &= abs(part) <= 3 * sigma_mean
            worst = max(worst, abs(part) / sigma_mean)
        dev = (np.abs(col) ** 2).mean() - 1.0
        ok &= abs(dev) <= 3 * sigma_var
        worst = max(worst, abs(dev) / sigma_var)
    for a in range(4):
        for b in range(a + 1, 4):
            cross = np.mean(entries[:, a] * np.conj(entries[:, b]))
            for part in (cross.real, cross.imag):
                ok &= abs(part) <= 3 * sigma_corr
                worst = max(worst, abs(part) / sigma_corr)
    report("7 (channel moments at 3-sigma over 1e6 draws)", ok,
           f"worst statistic at {worst:.2f} sigma")
