"""ML and SIC detection: exactness and agreement with independent oracles.

Every case runs through ``detect`` on whole batches: received vectors come
from ``synthesize`` on rows of the per-trial draw layout, or are built
directly as numpy arrays. In a draw row a uniform of 0.5 gives an exact 0.0
normal, so a channel or noise column set to 0.5 is an exact zero. The M^2
search, ``detectors._ml_search``, is the reference that ML must equal
decision for decision. ``detectors.bracket_proven``, which reads draw rows
instead of received vectors, is checked against the same search.
"""

import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from noma_uplink import (
    NoiseModel,
    build_constellation,
    detect,
    synthesize,
)
from noma_uplink import detectors
from noma_uplink.rng import DRAWS_PER_TRIAL, trial_stream

# detect takes one alpha per call; random-instance tests split their
# instances evenly over these.
ALPHAS = (0.5, 0.6, 0.75, 0.9, 0.99)


def metric_table(r, h, alpha, c):
    """||R - H X(w)||^2 for every trial (rows) and codeword w (columns).

    Scored independently of ``detect``: a 2x2 matrix-vector product per trial
    against the scaled codewords, row-major over the index pairs (i1, i2).
    """
    H = np.stack(h, axis=-1).reshape(-1, 2, 2)
    _, _, x1, x2 = scaled_codewords(c, alpha)
    X = np.array([x1, x2])
    d = np.stack(r, axis=-1)[:, :, None] - H @ X
    return np.sum(np.abs(d) ** 2, axis=1)


def metric_oracle(r, h, alpha, c):
    """Independent argmin per trial: sort all (metric, index) pairs, take the first."""
    return np.array([sorted(zip(row.tolist(), range(row.size)))[0][1]
                     for row in metric_table(r, h, alpha, c)])


def sic_oracle(r, h, alpha, c):
    """Independent SIC: scalar Python loops over the 2M slicer metrics, per trial."""
    s1 = math.sqrt(alpha)
    s2 = math.sqrt(1.0 - alpha)

    def slice_(y1, y2, g1, g2):
        i_hat, best = 0, None
        for i, p in enumerate(c.points):
            d1 = y1 - g1 * p
            d2 = y2 - g2 * p
            m = (d1.real * d1.real + d1.imag * d1.imag
                 + d2.real * d2.real + d2.imag * d2.imag)
            if best is None or m < best:
                best, i_hat = m, i
        return i_hat

    j1, j2 = [], []
    for t in range(len(r[0])):
        r1, r2 = (complex(z[t]) for z in r)
        h11, h12, h21, h22 = (complex(z[t]) for z in h)
        i1_hat = slice_(r1, r2, s1 * h11, s1 * h21)
        p1 = c.points[i1_hat]
        y1 = r1 - s1 * h11 * p1
        y2 = r2 - s1 * h21 * p1
        j1.append(i1_hat)
        j2.append(slice_(y1, y2, s2 * h12, s2 * h22))
    return np.array(j1), np.array(j2)


def single_radius2(gab, plan):
    """The radius bound before the case split: ``lmin min(d1^2, d2^2)``, with the same slacks."""
    g, a, b = gab
    gg = g.real**2 + g.imag**2
    ab = a * b
    lmax = (a + b + np.sqrt((a - b)**2 + 4 * gg)) / 2 * (1 + 32 * detectors._U)
    return (ab - gg - 32 * detectors._U * ab) / lmax * min(plan.d1, plan.d2)


def exact_metrics(r, h, plan, row):
    """Exact ``||r - H x(w)||^2`` of trial ``row`` for every codeword (row-major), and ``||r||^2``.

    ``fractions.Fraction`` holds each float input exactly, so nothing rounds.
    """
    def cx(z):
        z = complex(z)
        return Fraction(z.real), Fraction(z.imag)

    def mul(p, q):
        return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]

    r1, r2 = (cx(v[row]) for v in r)
    h11, h12, h21, h22 = (cx(v[row]) for v in h)
    u1 = [(mul(h11, cx(x)), mul(h21, cx(x))) for x in plan.x1]
    u2 = [(mul(h12, cx(x)), mul(h22, cx(x))) for x in plan.x2]
    metrics = [sum((r_[i] - p[i] - q[i])**2 for r_, p, q in ((r1, p1, q1), (r2, p2, q2))
                   for i in (0, 1))
               for (p1, p2), (q1, q2) in itertools.product(u1, u2)]
    return metrics, r1[0]**2 + r1[1]**2 + r2[0]**2 + r2[1]**2


def certificate_ratios(r, h, alpha, c):
    """The table's certificates of the ML docs, checked in exact arithmetic on every trial.

    Returns the worst ratio to each bound: the table's error over ``22 u T^2``
    and ``_score``'s error over ``13 u T^2``, both at most 1 when the bounds
    hold. Asserts that every gap-certified table argmin is the unique minimum
    of the exact metrics and of the float ``_score`` row.
    """
    plan = detectors._ml_plan(c, alpha)
    gab, t = detectors._gram_features(r, h, plan)
    f = detectors._table_features(r, h, gab)
    table = f @ plan.C
    k, certified = detectors._table_argmin(f, detectors._MARGIN * t * t, plan.C)
    score = detectors._score(r, h, np.repeat(plan.x1, c.M), np.tile(plan.x2, c.M))
    u = Fraction(detectors._U)
    worst_table = worst_score = Fraction(0)
    for row in range(len(t)):
        metrics, rr = exact_metrics(r, h, plan, row)
        T2 = Fraction(float(t[row]))**2
        worst_table = max(worst_table, max(abs(Fraction(float(q)) - (m - rr))
                                           for q, m in zip(table[row], metrics)) / (22 * u * T2))
        worst_score = max(worst_score, max(abs(Fraction(float(q)) - m)
                                           for q, m in zip(score[row], metrics)) / (13 * u * T2))
        if certified[row]:
            best = metrics[k[row]]
            assert all(m > best for w, m in enumerate(metrics) if w != k[row])
            assert (np.delete(score[row], k[row]) > score[row, k[row]]).all()
    return float(worst_table), float(worst_score)


def sqrt_above(q):
    """A rational at least ``sqrt(q)`` and within 2**-100 of it, for a Fraction ``q >= 0``."""
    n = -(-q.numerator * 4**100 // q.denominator)  # ceil(q * 4**100)
    return Fraction(math.isqrt(n) + 1, 2**100)


def exact_images(h, plan, row):
    """Exact ``H x(w)`` of trial ``row`` for every codeword (row-major), as four Fractions."""
    def cx(z):
        z = complex(z)
        return Fraction(z.real), Fraction(z.imag)

    def mul(p, q):
        return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]

    h11, h12, h21, h22 = (cx(v[row]) for v in h)
    u1 = [(mul(h11, cx(x)), mul(h21, cx(x))) for x in plan.x1]
    u2 = [(mul(h12, cx(x)), mul(h22, cx(x))) for x in plan.x2]
    return [(p1[0] + q1[0], p1[1] + q1[1], p2[0] + q2[0], p2[1] + q2[1])
            for (p1, p2), (q1, q2) in itertools.product(u1, u2)]


def exact_least_distance2(h, plan, row):
    """Exact least ``||H (x(w) - x(w0))||^2`` of trial ``row`` over all pairs ``w != w0``."""
    return min(sum((a - b)**2 for a, b in zip(p, q))
               for p, q in itertools.combinations(exact_images(h, plan, row), 2))


def bracket_certificate_ratios(u, c, alpha, n0, rows):
    """The bracketed check's bounds, checked in exact arithmetic on draw rows ``rows``.

    Every row must be proven. On the float channel and received vector
    that ``synthesize`` gives, returns the worst ratio of: the exact ``e^2``
    to ``E^2``; ``S^2`` to the exact least ``||H (x(w) - x(w0))||^2``; a
    rational upper bound of ``T`` to ``T_up`` (each at most 1 when the
    bounds hold); and the least exact metric gap to ``0.0571 S^2`` (at
    least 1). Asserts that the sent codeword is the unique minimum of the
    exact metrics, with a gap above ``26 u T^2``, and of the float
    ``_score`` row.
    """
    plan = detectors._ml_plan(c, alpha)
    s, e, t = detectors._bracket_bounds(u[rows], plan, n0)
    assert detectors.bracket_proven(u[rows], c, alpha, n0).all()
    i1, i2, h, r = synthesize(u[rows], c, alpha, n0)
    score = detectors._score(r, h, np.repeat(plan.x1, c.M), np.tile(plan.x2, c.M))
    w0 = i1 * c.M + i2
    p1 = sqrt_above(max(Fraction(z.real)**2 + Fraction(z.imag)**2 for z in plan.x1))
    p2 = sqrt_above(max(Fraction(z.real)**2 + Fraction(z.imag)**2 for z in plan.x2))
    worst = dict(residual=Fraction(0), radius=Fraction(0), scale=Fraction(0), gap=math.inf)
    for k in range(len(rows)):
        images = exact_images(h, plan, k)
        r1, r2 = (complex(v[k]) for v in r)
        got = (Fraction(r1.real), Fraction(r1.imag), Fraction(r2.real), Fraction(r2.imag))
        metrics = [sum((a - b)**2 for a, b in zip(got, im)) for im in images]
        sent = images[w0[k]]
        dist2 = min(sum((a - b)**2 for a, b in zip(im, sent))
                    for w, im in enumerate(images) if w != w0[k])
        mod = [sqrt_above(Fraction(complex(v[k]).real)**2 + Fraction(complex(v[k]).imag)**2)
               for v in (*r, *h)]
        T = mod[0] + mod[1] + (mod[2] + mod[4]) * p1 + (mod[3] + mod[5]) * p2
        S2 = Fraction(float(s[k]))**2
        worst["residual"] = max(worst["residual"], metrics[w0[k]] / Fraction(float(e[k]))**2)
        worst["radius"] = max(worst["radius"], S2 / dist2)
        worst["scale"] = max(worst["scale"], T / Fraction(float(t[k])))
        gap = min(m for w, m in enumerate(metrics) if w != w0[k]) - metrics[w0[k]]
        assert gap > 26 * Fraction(detectors._U) * T * T
        worst["gap"] = min(worst["gap"], gap / (Fraction(0.0571) * S2))
        assert (np.delete(score[k], w0[k]) > score[k, w0[k]]).all()
    return {name: float(v) for name, v in worst.items()}


def channel(n, h11, h12, h21, h22):
    """The same 2x2 channel for ``n`` trials, as ``detect`` takes it."""
    return tuple(np.full(n, v, dtype=complex) for v in (h11, h12, h21, h22))


def scaled_codewords(c, alpha):
    """Indices and scaled symbols (sqrt(alpha) x1, sqrt(1-alpha) x2) of every codeword."""
    i1, i2 = np.array(list(itertools.product(range(c.M), repeat=2))).T
    p = np.array(c.points)
    return i1, i2, math.sqrt(alpha) * p[i1], math.sqrt(1.0 - alpha) * p[i2]


def test_unknown_detector_rejected():
    c = build_constellation("qpsk")
    u = trial_stream(21).random((4, DRAWS_PER_TRIAL))
    _, _, h, r = synthesize(u, c, 0.9, 0.01)
    with pytest.raises(ValueError, match="unknown detector 'mmse'"):
        detect("mmse", r, h, 0.9, c)


def test_ml_zero_noise_recovers_transmitted():
    c = build_constellation("qpsk")
    u = trial_stream(21).random((20, DRAWS_PER_TRIAL))
    u[:, 10:14] = 0.5
    i1, i2, h, r = synthesize(u, c, 0.9, 1.0)
    j1, j2 = detect("ml", r, h, 0.9, c)
    assert np.array_equal(j1, i1) and np.array_equal(j2, i2)


def test_ml_small_perturbation_identity_channel():
    # H = I, alpha = 0.9: the minimum candidate separation is 4(1-alpha) = 0.4,
    # so any perturbation with squared norm < 0.1 cannot flip the decision.
    c = build_constellation("qpsk")
    i1, i2, x1, x2 = scaled_codewords(c, 0.9)
    h = channel(len(i1), 1, 0, 0, 1)
    delta = 0.1 + 0.1j  # ||delta||^2 = 0.02 on antenna 1 only
    r = (x1 + delta, x2)
    j1, j2 = detect("ml", r, h, 0.9, c)
    assert np.array_equal(j1, i1) and np.array_equal(j2, i2)
    # brute-force metric table over the 16 candidates agrees
    assert np.array_equal(metric_oracle(r, h, 0.9, c), j1 * 4 + j2)


def test_ml_output_metric_is_minimal():
    c = build_constellation("qam16")
    u = trial_stream(33).random((10, DRAWS_PER_TRIAL))
    _, _, h, r = synthesize(u, c, 0.7, NoiseModel.from_ebn0_db(8.0).n0)
    j1, j2 = detect("ml", r, h, 0.7, c)
    metrics = metric_table(r, h, 0.7, c)
    m_got = metrics[np.arange(len(j1)), j1 * c.M + j2]
    assert (m_got[:, None] <= metrics + 1e-12).all()


@pytest.mark.parametrize("kind,n_cases", [("qpsk", 700), ("qam16", 300)])
def test_ml_matches_sorting_oracle_random_instances(kind, n_cases):
    # High Eb/N0 with alpha = 0.99 gives a small s2 and widely spread metrics.
    c = build_constellation(kind)
    u = trial_stream(4711).random((n_cases, DRAWS_PER_TRIAL))
    for ebn0_db in (5.0, 20.0, 30.0):
        n0 = NoiseModel.from_ebn0_db(ebn0_db).n0
        for k, alpha in enumerate(ALPHAS):
            _, _, h, r = synthesize(u[k::len(ALPHAS)], c, alpha, n0)
            j1, j2 = detect("ml", r, h, alpha, c)
            assert np.array_equal(j1 * c.M + j2, metric_oracle(r, h, alpha, c))


@pytest.mark.parametrize("kind", ["qpsk", "qam16"])
def test_ml_matches_full_search_over_alphas_and_snrs(kind):
    # 202,500 trials per kind: every alpha at 0 to 40 dB, where alpha 0.99
    # at 40 dB gives the widest spread of metric magnitudes.
    c = build_constellation(kind)
    for key, (alpha, ebn0_db) in enumerate(itertools.product(ALPHAS, range(0, 41, 5))):
        u = trial_stream(900 + key).random((4_500, DRAWS_PER_TRIAL))
        _, _, h, r = synthesize(u, c, alpha, NoiseModel.from_ebn0_db(ebn0_db).n0)
        j1, j2 = detect("ml", r, h, alpha, c)
        x1, x2 = math.sqrt(alpha) * c.points, math.sqrt(1.0 - alpha) * c.points
        for lo in range(0, len(j1), 1_500):
            rows = slice(lo, lo + 1_500)
            k1, k2 = detectors._ml_search(tuple(v[rows] for v in r), tuple(v[rows] for v in h),
                                          x1, x2)
            assert np.array_equal(j1[rows], k1) and np.array_equal(j2[rows], k2)


def test_ml_decisions_do_not_depend_on_row_blocks():
    # A 16QAM table block holds 156 rows, so these splits fall before, on
    # and after block edges; each part must decide as in the whole batch.
    c = build_constellation("qam16")
    assert detectors._BLOCK // c.M**2 == 156
    u = trial_stream(77).random((2_501, DRAWS_PER_TRIAL))
    _, _, h, r = synthesize(u, c, 0.6, NoiseModel.from_ebn0_db(12.0).n0)
    whole = detect("ml", r, h, 0.6, c)
    for n in (1, 155, 156, 157, 2_501):
        for rows in (slice(0, n), slice(n, None)):
            part = detect("ml", tuple(v[rows] for v in r), tuple(v[rows] for v in h), 0.6, c)
            assert np.array_equal(part[0], whole[0][rows])
            assert np.array_equal(part[1], whole[1][rows])


def test_case_split_radius_never_falls_below_the_single_bound():
    # min(a d1^2, b d2^2, lmin (d1^2 + d2^2)) against lmin min(d1^2, d2^2),
    # both as computed, on random channels of both kinds at every alpha.
    for kind, (k, alpha) in itertools.product(("qpsk", "qam16"), enumerate(ALPHAS)):
        c = build_constellation(kind)
        u = trial_stream(700 + k).random((2_000, DRAWS_PER_TRIAL))
        _, _, h, r = synthesize(u, c, alpha, NoiseModel.from_ebn0_db(20.0).n0)
        plan = detectors._ml_plan(c, alpha)
        gab, _ = detectors._gram_features(r, h, plan)
        assert (detectors._radius2(gab, plan) >= single_radius2(gab, plan)).all()


@pytest.mark.parametrize("kind,n_trials", [("qpsk", 20_000), ("qam16", 8_000)])
def test_bracket_check_proves_only_ml_decisions(kind, n_trials):
    # 1,008,000 trials: 720,000 QPSK and 288,000 16QAM, at four alphas and
    # 0 to 40 dB. Every row that the bracketed check proves must be decided
    # as sent: by the M^2 search itself for QPSK, and for 16QAM by detect,
    # which equals that search (see
    # test_ml_matches_full_search_over_alphas_and_snrs) at 1/40 of its cost.
    c = build_constellation(kind)
    points = list(itertools.product((0.5, 0.7, 0.9, 0.99), range(0, 41, 5)))
    proven_share = {}
    for key, (alpha, ebn0_db) in enumerate(points):
        n0 = NoiseModel.from_ebn0_db(ebn0_db).n0
        u = trial_stream(1_000 + key).random((n_trials, DRAWS_PER_TRIAL))
        mask = detectors.bracket_proven(u, c, alpha, n0)
        proven_share[alpha, ebn0_db] = mask.mean()
        i1, i2, h, r = synthesize(u[mask], c, alpha, n0)
        if kind == "qpsk":
            plan = detectors._ml_plan(c, alpha)
            j1, j2 = detectors._ml_search(r, h, plan.x1, plan.x2)
        else:
            j1, j2 = detect("ml", r, h, alpha, c)
        assert np.array_equal(j1, i1) and np.array_equal(j2, i2)
    # the check is not vacuous: it proves most trials at high Eb/N0 and few at 0 dB
    assert min(proven_share[a, 40] for a in (0.5, 0.7, 0.9, 0.99)) > 0.9
    assert max(proven_share[a, 0] for a in (0.5, 0.7, 0.9, 0.99)) < 0.1


@pytest.mark.parametrize("kind,alpha,ebn0_db,floor", [("qpsk", 0.5, 30.0, 0.95),
                                                      ("qam16", 0.5, 24.0, 0.88),
                                                      ("qam16", 0.9, 24.0, 0.8)])
def test_bracket_check_proves_most_sent_codewords(kind, alpha, ebn0_db, floor):
    # On these 20,000 trials the check proves 98.6% (QPSK, 30 dB), 90.5%
    # (16QAM, 24 dB) and, at unequal powers, 84.4%, where the single bound
    # lmin min(d1^2, d2^2) in place of the case split proves 46.5%. That a
    # proven codeword is the ML decision is test_bracket_check_proves_only_ml_decisions.
    c = build_constellation(kind)
    n0 = NoiseModel.from_ebn0_db(ebn0_db).n0
    u = trial_stream(92).random((20_000, DRAWS_PER_TRIAL))
    assert detectors.bracket_proven(u, c, alpha, n0).mean() >= floor


@pytest.mark.parametrize("kind,alpha,ebn0_db", [
    *itertools.product(["qpsk"], [0.5, 0.9, 0.99], [10.0, 20.0, 30.0, 40.0, 300.0]),
    *itertools.product(["qam16"], [0.5, 0.9], [20.0, 30.0, 300.0]),
])
def test_bracket_certificates_hold_in_exact_arithmetic(kind, alpha, ebn0_db):
    # The six proven rows nearest the 4.5 threshold among 5,000 trials, in
    # exact arithmetic on the trials synthesize gives. At 300 dB the noise
    # and its radius fall below the rounding of r, so E relies on its
    # 4 u T_up term.
    c = build_constellation(kind)
    n0 = NoiseModel.from_ebn0_db(ebn0_db).n0
    u = trial_stream(int(ebn0_db) * 10 + int(alpha * 100)).random((5_000, DRAWS_PER_TRIAL))
    s, e, t = detectors._bracket_bounds(u, detectors._ml_plan(c, alpha), n0)
    mask = detectors.bracket_proven(u, c, alpha, n0)
    rows = np.flatnonzero(mask)[np.argsort((s * s / (4.5 * e * e))[mask])[:6]]
    assert len(rows) == 6
    worst = bracket_certificate_ratios(u, c, alpha, n0, rows)
    assert worst["residual"] <= 1 and worst["radius"] <= 1 and worst["scale"] <= 1
    assert worst["gap"] >= 1


@pytest.mark.parametrize("kind,n_cases", [("qpsk", 240), ("qam16", 24)])
def test_ml_certificates_hold_in_exact_arithmetic_random_trials(kind, n_cases):
    # Random trials over every alpha at 0 to 40 dB, each against all M^2
    # codewords.
    c = build_constellation(kind)
    u = trial_stream(4713).random((n_cases, DRAWS_PER_TRIAL))
    points = list(itertools.product(ALPHAS, (0.0, 20.0, 40.0)))
    for k, (alpha, ebn0_db) in enumerate(points):
        _, _, h, r = synthesize(u[k::len(points)], c, alpha, NoiseModel.from_ebn0_db(ebn0_db).n0)
        table, score = certificate_ratios(r, h, alpha, c)
        assert table <= 1 and score <= 1


def test_ml_certificates_hold_in_exact_arithmetic_built_trials():
    # _radius2's s^2 is at most the exact least ||H (x(w) - x(w0))||^2, and
    # the table and score bounds hold, on built channels.
    c = build_constellation("qpsk")
    alpha = 0.9
    plan = detectors._ml_plan(c, alpha)
    _, _, x1, x2 = scaled_codewords(c, alpha)
    n = len(x1)
    # A weak user-1 column and a strong user-2 column: lmin is near a, so
    # at unequal powers a d1^2 = 0.036 is about 9 times lmin min(d1^2, d2^2).
    # Changing user 1's symbol alone is the nearest image, at exactly a d1^2,
    # and the case split's s^2 is within 1e-9 of it.
    h = channel(n, 0.1, 0.2, 0, 1)
    r = (0.1 * x1 + 0.2 * x2 + (0.02 + 0.02j), x2 + (0.03 + 0.02j))
    gab, _ = detectors._gram_features(r, h, plan)
    s2 = detectors._radius2(gab, plan)
    least = exact_least_distance2(h, plan, 0)
    assert Fraction(float(s2[0])) <= least and s2[0] > (1 - 1e-9) * float(least)
    assert (s2 == s2[0]).all() and (single_radius2(gab, plan) < s2 / 8).all()
    table, score = certificate_ratios(r, h, alpha, c)
    assert table <= 1 and score <= 1
    # Near-singular and singular H^H H: user 2's column is (1 + 1j) times
    # user 1's plus 1e-7, or exactly twice it. lmin is below 1e-13 or 0, so
    # s^2 is tiny or not positive, and the table and score bounds still hold.
    h1 = np.array([0.8 + 0.3j, -0.5 + 0.6j])
    for h2 in ((1 + 1j) * h1 + 1e-7, 2 * h1):
        h = channel(n, h1[0], h2[0], h1[1], h2[1])
        r = (h[0] * x1 + h[1] * x2 + 0.01, h[2] * x1 + h[3] * x2 - 0.01j)
        gab, _ = detectors._gram_features(r, h, plan)
        s2 = detectors._radius2(gab, plan)
        assert (s2 == s2[0]).all() and s2[0] < 1e-12
        assert Fraction(float(s2[0])) <= exact_least_distance2(h, plan, 0)
        table, score = certificate_ratios(r, h, alpha, c)
        assert table <= 1 and score <= 1
    # Orthogonal columns with exact Gram entries, one weak: the weak user's
    # symbol alone is the nearest image, at exactly a d1^2 or b d2^2. At some
    # alphas the plan's d^2 lies above the exact one, so each one-user term
    # needs its (1 - 32u).
    for alpha, weak in itertools.product(ALPHAS, ("user 1", "user 2")):
        plan = detectors._ml_plan(c, alpha)
        h = channel(1, *((2**-6, 0, 0, 1) if weak == "user 1" else (1, 0, 0, 0.5)))
        s2 = detectors._radius2(detectors._gram(*h), plan)
        least = exact_least_distance2(h, plan, 0)
        assert Fraction(float(s2[0])) <= least and s2[0] > (1 - 1e-9) * float(least)


def exact_least_sq_distance(x):
    """Exact least ``|x[k] - x[l]|^2`` over ``k != l`` of the floats ``x``, as a Fraction."""
    parts = [(Fraction(z.real), Fraction(z.imag)) for z in x.tolist()]
    return min((a - c)**2 + (b - d)**2 for (a, b), (c, d) in itertools.combinations(parts, 2))


@pytest.mark.parametrize("kind", ["qpsk", "qam16"])
def test_ml_plan_distances_hold_in_exact_arithmetic(kind):
    # The detectors docs' d^2 bullet: d1 and d2 are within 12u of the exact
    # least squared distances of the plan's float x1 and x2, in both
    # directions, and their float sum within 14u of the exact sum. Over 503
    # alphas in [0.5, 1) each read at most 1.89u (QPSK) and 5.54u (16QAM).
    c = build_constellation(kind)
    u = Fraction(detectors._U)
    alphas = [0.5, float(np.nextafter(0.5, 1)), *np.linspace(0.5, 0.99, 50).tolist(),
              float(np.nextafter(1.0, 0))]
    for alpha in alphas:
        plan = detectors._ml_plan(c, alpha)
        exact = [exact_least_sq_distance(x) for x in (plan.x1, plan.x2)]
        for got, want in zip((plan.d1, plan.d2), exact):
            assert abs(Fraction(got) - want) <= 12 * u * want
        assert abs(Fraction(plan.d1 + plan.d2) - sum(exact)) <= 14 * u * sum(exact)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_ml_decides_nan_and_infinite_trials_by_the_full_search():
    # Four trials get a NaN or an infinity in r or h. Their gap is not
    # finite, so detect decides them by the M^2 search (the infinities make
    # NaN metrics, hence the warnings), and the other trials as before.
    c = build_constellation("qpsk")
    u = trial_stream(89).random((50, DRAWS_PER_TRIAL))
    _, _, h, r = synthesize(u, c, 0.5, NoiseModel.from_ebn0_db(30.0).n0)
    before = detect("ml", r, h, 0.5, c)
    bad = [3, 17, 29, 41]
    r[0][bad[0]] = np.nan
    h[1][bad[1]] = complex(np.nan, 0.0)
    r[1][bad[2]] = np.inf
    h[3][bad[3]] = complex(0.0, -np.inf)
    j1, j2 = detect("ml", r, h, 0.5, c)
    plan = detectors._ml_plan(c, 0.5)
    k1, k2 = detectors._ml_search(r, h, plan.x1, plan.x2)
    assert np.array_equal(j1, k1) and np.array_equal(j2, k2)
    good = np.setdiff1d(np.arange(50), bad)
    assert np.array_equal(j1[good], before[0][good]) and np.array_equal(j2[good], before[1][good])


@pytest.mark.parametrize("kind", ["qpsk", "qam16"])
def test_ml_sends_trials_that_may_underflow_to_the_full_search(kind):
    # Scaling r and h by 1e-161 puts T near 1e-161, where _MARGIN T^2
    # underflows to 0 and the table's gap certified wrong argmins; T at or
    # under 1e-150 now goes to the M^2 search. At 1e-149 the table decides.
    c = build_constellation(kind)
    u = trial_stream(5).random((2_000, DRAWS_PER_TRIAL))
    for alpha in (0.5, 0.9):
        plan = detectors._ml_plan(c, alpha)
        _, _, h, r = synthesize(u, c, alpha, NoiseModel.from_ebn0_db(10.0).n0)
        for scale in (1e-149, 1e-161):
            rs, hs = tuple(v * scale for v in r), tuple(v * scale for v in h)
            j1, j2 = detect("ml", rs, hs, alpha, c)
            k1, k2 = detectors._ml_search(rs, hs, plan.x1, plan.x2)
            assert np.array_equal(j1, k1) and np.array_equal(j2, k2)


def test_ml_plan_is_built_once_per_constellation_and_alpha():
    c = build_constellation("qam16")
    plan = detectors._ml_plan(c, 0.9)
    assert detectors._ml_plan(c, 0.9) is plan
    assert np.array_equal(plan.x1, math.sqrt(0.9) * c.points)
    assert np.array_equal(plan.x2, math.sqrt(1.0 - 0.9) * c.points)
    assert plan.C.shape == (8, c.M * c.M)
    for a in (plan.x1, plan.x2, plan.C):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    # d1^2 and d2^2 are the power shares of the least nonzero |p_i - p_k|^2
    m = c.pair_classes["abs2"][c.pair_classes["abs2"] > 0].min()
    assert plan.d1 == 0.9 * m and plan.d2 == (1.0 - 0.9) * m
    # the next float up is its own key, with its own symbols
    nxt = detectors._ml_plan(c, float(np.nextafter(0.9, 1)))
    assert nxt is not plan and not np.array_equal(nxt.x2, plan.x2)
    assert detectors._ml_plan(build_constellation("qpsk"), 0.9) is not plan


def test_ml_decisions_after_another_alpha_match_a_fresh_process(tmp_path):
    # Deciding at alpha 0.6 first must leave no state that changes the
    # decisions at 0.9, which a fresh interpreter makes without it.
    c = build_constellation("qam16")
    u = trial_stream(93).random((3_000, DRAWS_PER_TRIAL))
    n0 = NoiseModel.from_ebn0_db(18.0).n0
    _, _, h, r = synthesize(u, c, 0.6, n0)
    detect("ml", r, h, 0.6, c)
    _, _, h, r = synthesize(u, c, 0.9, n0)
    here = detect("ml", r, h, 0.9, c)
    script = (
        "import sys, numpy as np\n"
        "from noma_uplink import NoiseModel, build_constellation, detect, synthesize\n"
        "from noma_uplink.rng import DRAWS_PER_TRIAL, trial_stream\n"
        "c = build_constellation('qam16')\n"
        "u = trial_stream(93).random((3_000, DRAWS_PER_TRIAL))\n"
        "_, _, h, r = synthesize(u, c, 0.9, NoiseModel.from_ebn0_db(18.0).n0)\n"
        "np.save(sys.argv[1], detect('ml', r, h, 0.9, c))\n"
    )
    out = tmp_path / "fresh.npy"
    src = str(Path(detectors.__file__).parents[1])
    subprocess.run([sys.executable, "-c", script, str(out)], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": src})
    assert np.array_equal(np.load(out), np.array(here))


@pytest.mark.parametrize("kind,n_cases", [("qpsk", 700), ("qam16", 300)])
def test_sic_matches_scalar_oracle_random_instances(kind, n_cases):
    c = build_constellation(kind)
    u = trial_stream(4712).random((n_cases, DRAWS_PER_TRIAL))
    n0 = NoiseModel.from_ebn0_db(5.0).n0
    for k, alpha in enumerate(ALPHAS):
        _, _, h, r = synthesize(u[k::len(ALPHAS)], c, alpha, n0)
        o1, o2 = sic_oracle(r, h, alpha, c)
        j1, j2 = detect("sic", r, h, alpha, c)
        assert np.array_equal(j1, o1) and np.array_equal(j2, o2)


def test_ml_invariant_under_common_phase_rotation():
    c = build_constellation("qpsk")
    rng = trial_stream(55)
    u = rng.random((50, DRAWS_PER_TRIAL))
    _, _, h, r = synthesize(u, c, 0.8, NoiseModel.from_ebn0_db(6.0).n0)
    rot = np.exp(1j * 2 * math.pi * rng.random(50))
    a = detect("ml", r, h, 0.8, c)
    b = detect("ml", tuple(z * rot for z in r), tuple(z * rot for z in h), 0.8, c)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_sic_no_interference_column_detects_user1():
    # Every codeword over a random channel whose user-2 column (h12, h22) is
    # zero, without noise.
    c = build_constellation("qpsk")
    i1, i2 = np.divmod(np.arange(c.M * c.M), c.M)
    u = trial_stream(8).random((c.M * c.M, DRAWS_PER_TRIAL))
    u[:, 0] = (i1 + 0.5) / c.M
    u[:, 1] = (i2 + 0.5) / c.M
    u[:, [4, 5, 8, 9]] = 0.5
    u[:, 10:14] = 0.5
    sent1, _, h, r = synthesize(u, c, 0.9, 1.0)
    assert np.array_equal(sent1, i1)
    assert not h[1].any() and not h[3].any()
    j1, _ = detect("sic", r, h, 0.9, c)
    assert np.array_equal(j1, i1)


@pytest.mark.parametrize("alpha", [0.6, 0.9])
def test_sic_orthogonal_columns_zero_noise_exact(alpha):
    # Orthogonal channel columns: after correct stage-1 cancellation the
    # stage-2 residual is interference-free, so SIC is exact without noise.
    c = build_constellation("qpsk")
    i1, i2, x1, x2 = scaled_codewords(c, alpha)
    h = channel(len(i1), 1, 1, 1, -1)
    j1, j2 = detect("sic", (x1 + x2, x1 - x2), h, alpha, c)
    assert np.array_equal(j1, i1) and np.array_equal(j2, i2)


def test_sic_tie_breaks_to_lowest_index():
    c = build_constellation("qpsk")
    zero = np.zeros(1, dtype=complex)
    j1, j2 = detect("sic", (zero, zero), channel(1, 0, 0, 0, 0), 0.9, c)
    assert (j1[0], j2[0]) == (0, 0)


def test_ml_tie_breaks_to_lowest_index():
    # A zero channel makes all M^2 metrics equal.
    c = build_constellation("qam16")
    zero = np.zeros(1, dtype=complex)
    j1, j2 = detect("ml", (zero, zero), channel(1, 0, 0, 0, 0), 0.7, c)
    assert (j1[0], j2[0]) == (0, 0)


def test_ml_exact_tie_falls_back_to_full_search(monkeypatch):
    # h11 = 0, h12 = 1, h21 = 1, h22 = 0 and r = (1j*s2, s1*x1): for the sent
    # x1 the user-2 symbols +1+1j (index 0) and -1+1j (index 2) give the same
    # metric, and the same table entry, so the gap is 0 and no larger than
    # the tolerance. Every trial goes to the M^2 search, which takes the
    # lower index.
    c = build_constellation("qpsk")
    alpha = 0.7
    i1 = np.arange(c.M)
    r = (np.full(c.M, 1j * math.sqrt(1.0 - alpha)), math.sqrt(alpha) * c.points[i1])
    h = channel(c.M, 0, 1, 1, 0)
    table = metric_table(r, h, alpha, c)
    assert np.array_equal(table[i1, i1 * c.M], table[i1, i1 * c.M + 2])
    search, searched = detectors._ml_search, []

    def spy(r, h, x1, x2):
        searched.append(len(r[0]))
        return search(r, h, x1, x2)

    monkeypatch.setattr(detectors, "_ml_search", spy)
    j1, j2 = detect("ml", r, h, alpha, c)
    assert searched == [c.M]
    assert np.array_equal(j1, i1) and not j2.any()
    assert np.array_equal(metric_oracle(r, h, alpha, c), i1 * c.M)


def test_ml_zero_user2_column_falls_back_to_full_search():
    # A zero (h12, h22) column makes every x2 tie, in the metrics and in the
    # table, so the gap is 0 and the M^2 search keeps index 0.
    c = build_constellation("qam16")
    u = trial_stream(12).random((200, DRAWS_PER_TRIAL))
    u[:, [4, 5, 8, 9]] = 0.5
    n0 = NoiseModel.from_ebn0_db(10.0).n0
    _, i2, h, r = synthesize(u, c, 0.7, n0)
    assert not h[1].any() and not h[3].any()
    j1, j2 = detect("ml", r, h, 0.7, c)
    assert not j2.any()
    assert np.array_equal(j1 * c.M + j2, metric_oracle(r, h, 0.7, c))
    # s = 0, so the bracketed check proves no sent codeword, though most
    # have a user-2 index other than the decided 0
    assert i2.any() and not detectors.bracket_proven(u, c, 0.7, n0).any()


@pytest.mark.parametrize("kind", ["qpsk", "qam16"])
def test_ml_decisions_do_not_depend_on_the_batch(kind):
    # A trial's decision must not depend on the other trials of its batch,
    # although the harness gives detect a different set of unproven trials
    # in each batch: a slice decided whole, then in random row subsets (in
    # random order).
    c = build_constellation(kind)
    rng = np.random.default_rng(2026)
    u = trial_stream(79).random((2_500, DRAWS_PER_TRIAL))
    for alpha, ebn0_db in ((0.5, 10.0), (0.9, 24.0)):
        _, _, h, r = synthesize(u, c, alpha, NoiseModel.from_ebn0_db(ebn0_db).n0)
        whole = detect("ml", r, h, alpha, c)
        for size in (1, 157, 1_000, 2_499):
            rows = rng.choice(len(u), size, replace=False)
            part = detect("ml", tuple(v[rows] for v in r), tuple(v[rows] for v in h), alpha, c)
            assert np.array_equal(part[0], whole[0][rows])
            assert np.array_equal(part[1], whole[1][rows])
