"""ML and SIC detection: exactness and agreement with independent oracles.

Every case runs through ``detect`` on whole batches: received vectors come
from ``synthesize`` on rows of the per-trial draw layout, or are built
directly as numpy arrays. In a draw row a uniform of 0.5 gives an exact 0.0
normal, so a channel or noise column set to 0.5 is an exact zero. The M^2
search, ``detectors._ml_search``, is the reference that ML must equal
decision for decision.
"""

import itertools
import math

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


@pytest.mark.parametrize("kind,n_cases", [("qpsk", 700), ("qam16", 300)])
def test_sic_matches_scalar_oracle_random_instances(kind, n_cases):
    c = build_constellation(kind)
    u = trial_stream(4712).random((n_cases, DRAWS_PER_TRIAL))
    n0 = NoiseModel.from_ebn0_db(5.0).n0
    for k, alpha in enumerate(ALPHAS):
        _, _, h, r = synthesize(u[k::len(ALPHAS)], c, alpha, n0)
        j1, j2 = detect("sic", r, h, alpha, c)
        o1, o2 = sic_oracle(r, h, alpha, c)
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
    _, _, h, r = synthesize(u, c, 0.7, NoiseModel.from_ebn0_db(10.0).n0)
    assert not h[1].any() and not h[3].any()
    j1, j2 = detect("ml", r, h, 0.7, c)
    assert not j2.any()
    assert np.array_equal(j1 * c.M + j2, metric_oracle(r, h, 0.7, c))
