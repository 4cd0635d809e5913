"""ML and SIC detection: exactness and agreement with independent oracles."""

import cmath
import math

import numpy as np
import pytest

from noma_uplink import (
    NoiseModel,
    build_constellation,
    enumerate_codewords,
    make_codeword,
    ml_detect,
    sample_channel,
    sample_noise,
    scale_codeword,
    sic_detect,
    transmit,
)
from noma_uplink.channel import ChannelMatrix, ReceivedVector
from noma_uplink.rng import trial_stream


def metric_oracle(r, h, alpha, c):
    """Independent argmin: sort all (metric, index) pairs, take the first."""
    H = h.as_array()
    scored = []
    for idx, w in enumerate(enumerate_codewords(c)):
        x = np.array(scale_codeword(w, alpha))
        d = np.array([r.r1, r.r2]) - H @ x
        scored.append((float(np.sum(np.abs(d) ** 2)), idx))
    scored.sort()
    return scored[0][1]


def sic_oracle(r, h, alpha, c):
    """Independent SIC: scalar Python loops over the 2M slicer metrics."""
    s1 = math.sqrt(alpha)
    s2 = math.sqrt(1.0 - alpha)

    i1_hat = 0
    best = None
    for i, p in enumerate(c.points):
        d1 = r.r1 - s1 * h.h11 * p
        d2 = r.r2 - s1 * h.h21 * p
        m = (d1.real * d1.real + d1.imag * d1.imag
             + d2.real * d2.real + d2.imag * d2.imag)
        if best is None or m < best:
            best, i1_hat = m, i

    p1 = c.points[i1_hat]
    y1 = r.r1 - s1 * h.h11 * p1
    y2 = r.r2 - s1 * h.h21 * p1

    i2_hat = 0
    best = None
    for i, p in enumerate(c.points):
        d1 = y1 - s2 * h.h12 * p
        d2 = y2 - s2 * h.h22 * p
        m = (d1.real * d1.real + d1.imag * d1.imag
             + d2.real * d2.real + d2.imag * d2.imag)
        if best is None or m < best:
            best, i2_hat = m, i

    return i1_hat, i2_hat


def test_ml_zero_noise_recovers_transmitted():
    c = build_constellation("qpsk")
    rng = trial_stream(21)
    for _ in range(20):
        h = sample_channel(rng)
        w = make_codeword(c, int(rng.random() * 4), int(rng.random() * 4))
        r = transmit(h, w, 0.9, (0j, 0j))
        got = ml_detect(r, h, 0.9, c)
        assert (got.i1, got.i2) == (w.i1, w.i2)


def test_ml_small_perturbation_identity_channel():
    # H = I, alpha = 0.9: the minimum candidate separation is 4(1-alpha) = 0.4,
    # so any perturbation with squared norm < 0.1 cannot flip the decision.
    c = build_constellation("qpsk")
    h = ChannelMatrix(1, 0, 0, 1)
    delta = 0.1 + 0.1j  # ||delta||^2 = 0.02 on antenna 1 only
    for w in enumerate_codewords(c):
        x1, x2 = scale_codeword(w, 0.9)
        r = ReceivedVector(x1 + delta, x2)
        got = ml_detect(r, h, 0.9, c)
        assert (got.i1, got.i2) == (w.i1, w.i2)
        # brute-force metric table over the 16 candidates agrees
        assert metric_oracle(r, h, 0.9, c) == got.i1 * 4 + got.i2


def test_ml_output_metric_is_minimal():
    c = build_constellation("qam16")
    rng = trial_stream(33)
    nm = NoiseModel.from_ebn0_db(8.0)
    for _ in range(10):
        h = sample_channel(rng)
        w = make_codeword(c, int(rng.random() * 16), int(rng.random() * 16))
        r = transmit(h, w, 0.7, sample_noise(rng, nm))
        got = ml_detect(r, h, 0.7, c)
        H = h.as_array()
        m_got = float(np.sum(np.abs(np.array([r.r1, r.r2])
                                    - H @ np.array(scale_codeword(got, 0.7))) ** 2))
        for cand in enumerate_codewords(c):
            m = float(np.sum(np.abs(np.array([r.r1, r.r2])
                                    - H @ np.array(scale_codeword(cand, 0.7))) ** 2))
            assert m_got <= m + 1e-12


@pytest.mark.parametrize("kind,n_cases", [("qpsk", 700), ("qam16", 300)])
def test_ml_matches_sorting_oracle_random_instances(kind, n_cases):
    c = build_constellation(kind)
    rng = trial_stream(4711)
    nm = NoiseModel.from_ebn0_db(5.0)
    for _ in range(n_cases):
        h = sample_channel(rng)
        w = make_codeword(c, int(rng.random() * c.M), int(rng.random() * c.M))
        alpha = 0.5 + 0.49 * rng.random()
        r = transmit(h, w, alpha, sample_noise(rng, nm))
        got = ml_detect(r, h, alpha, c)
        assert got.i1 * c.M + got.i2 == metric_oracle(r, h, alpha, c)


@pytest.mark.parametrize("kind,n_cases", [("qpsk", 700), ("qam16", 300)])
def test_sic_matches_scalar_oracle_random_instances(kind, n_cases):
    c = build_constellation(kind)
    rng = trial_stream(4712)
    nm = NoiseModel.from_ebn0_db(5.0)
    for _ in range(n_cases):
        h = sample_channel(rng)
        w = make_codeword(c, int(rng.random() * c.M), int(rng.random() * c.M))
        alpha = 0.5 + 0.49 * rng.random()
        r = transmit(h, w, alpha, sample_noise(rng, nm))
        got = sic_detect(r, h, alpha, c)
        assert (got.i1, got.i2) == sic_oracle(r, h, alpha, c)


def test_ml_invariant_under_common_phase_rotation():
    c = build_constellation("qpsk")
    rng = trial_stream(55)
    nm = NoiseModel.from_ebn0_db(6.0)
    for _ in range(50):
        h = sample_channel(rng)
        w = make_codeword(c, int(rng.random() * 4), int(rng.random() * 4))
        r = transmit(h, w, 0.8, sample_noise(rng, nm))
        theta = 2 * math.pi * rng.random()
        rot = cmath.exp(1j * theta)
        h_rot = ChannelMatrix(h.h11 * rot, h.h12 * rot, h.h21 * rot, h.h22 * rot)
        r_rot = ReceivedVector(r.r1 * rot, r.r2 * rot)
        a = ml_detect(r, h, 0.8, c)
        b = ml_detect(r_rot, h_rot, 0.8, c)
        assert (a.i1, a.i2) == (b.i1, b.i2)


def test_sic_no_interference_column_detects_user1():
    c = build_constellation("qpsk")
    h = ChannelMatrix(0.8 - 0.3j, 0, 0.1 + 1.2j, 0)  # user 2 column is zero
    for w in enumerate_codewords(c):
        r = transmit(h, w, 0.9, (0j, 0j))
        got = sic_detect(r, h, 0.9, c)
        assert got.i1 == w.i1


@pytest.mark.parametrize("alpha", [0.6, 0.9])
def test_sic_orthogonal_columns_zero_noise_exact(alpha):
    # Orthogonal channel columns: after correct stage-1 cancellation the
    # stage-2 residual is interference-free, so SIC is exact without noise.
    c = build_constellation("qpsk")
    h = ChannelMatrix(1, 1, 1, -1)
    for w in enumerate_codewords(c):
        r = transmit(h, w, alpha, (0j, 0j))
        got = sic_detect(r, h, alpha, c)
        assert (got.i1, got.i2) == (w.i1, w.i2)


def test_sic_tie_breaks_to_lowest_index():
    c = build_constellation("qpsk")
    h = ChannelMatrix(0, 0, 0, 0)
    got = sic_detect(ReceivedVector(0j, 0j), h, 0.9, c)
    assert (got.i1, got.i2) == (0, 0)
