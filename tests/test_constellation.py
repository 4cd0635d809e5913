"""Constellation construction, energy normalization, and bit bookkeeping.

A codeword is a pair of symbol indices; its bit distances are read from the
one Hamming table, ``Constellation.hamming``.
"""

import itertools
import math

import numpy as np
import pytest

from noma_uplink import build_constellation
from test_bounds import enumerate_error_events

# Fixed Gray map for QPSK: label (b0 b1) -> (1-2b0) + j(1-2b1). Written out
# literally so the tests do not depend on the implementation's own tables.
QPSK_EXPECTED = {
    "00": 1 + 1j,
    "01": 1 - 1j,
    "10": -1 + 1j,
    "11": -1 - 1j,
}

# Fixed Gray map for 16QAM: per axis 00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3,
# real axis from (b0 b1), imaginary axis from (b2 b3), every level scaled by
# 1/sqrt(2.5). In index order: label i is i written in binary.
_S16 = 1.0 / math.sqrt(2.5)
QAM16_EXPECTED = [
    ("0000", complex(-3.0 * _S16, -3.0 * _S16)),
    ("0001", complex(-3.0 * _S16, -1.0 * _S16)),
    ("0010", complex(-3.0 * _S16, 3.0 * _S16)),
    ("0011", complex(-3.0 * _S16, 1.0 * _S16)),
    ("0100", complex(-1.0 * _S16, -3.0 * _S16)),
    ("0101", complex(-1.0 * _S16, -1.0 * _S16)),
    ("0110", complex(-1.0 * _S16, 3.0 * _S16)),
    ("0111", complex(-1.0 * _S16, 1.0 * _S16)),
    ("1000", complex(3.0 * _S16, -3.0 * _S16)),
    ("1001", complex(3.0 * _S16, -1.0 * _S16)),
    ("1010", complex(3.0 * _S16, 3.0 * _S16)),
    ("1011", complex(3.0 * _S16, 1.0 * _S16)),
    ("1100", complex(1.0 * _S16, -3.0 * _S16)),
    ("1101", complex(1.0 * _S16, -1.0 * _S16)),
    ("1110", complex(1.0 * _S16, 3.0 * _S16)),
    ("1111", complex(1.0 * _S16, 1.0 * _S16)),
]


@pytest.fixture(scope="module")
def qpsk():
    return build_constellation("qpsk")


@pytest.fixture(scope="module")
def qam16():
    return build_constellation("qam16")


def test_unsupported_kind_rejected():
    # an unhashable kind is a ValueError too, not a TypeError from a dict lookup
    for kind in ("qam64", ["qpsk"]):
        with pytest.raises(ValueError, match="unsupported constellation kind"):
            build_constellation(kind)


@pytest.mark.parametrize("kind", ["qpsk", "qam16"])
def test_one_instance_per_kind(kind):
    # built once at import: every call returns the same object
    c = build_constellation(kind)
    assert build_constellation(kind) is c


@pytest.mark.parametrize("kind", ["qpsk", "qam16"])
def test_points_and_hamming_are_read_only_arrays(kind):
    c = build_constellation(kind)
    assert isinstance(c.points, np.ndarray) and c.points.dtype == np.complex128
    assert c.points.shape == (c.M,)
    assert isinstance(c.hamming, np.ndarray) and c.hamming.dtype == np.int64
    assert c.hamming.shape == (c.M, c.M)
    with pytest.raises(ValueError):
        c.points[0] = 0
    with pytest.raises(ValueError):
        c.hamming[0, 0] = 1
    for a, la in enumerate(c.labels):
        for b, lb in enumerate(c.labels):
            assert c.hamming[a, b] == sum(x != y for x, y in zip(la, lb))


def test_qpsk_points_and_labels(qpsk):
    assert qpsk.M == 4 and qpsk.bits_per_symbol == 2
    assert dict(zip(qpsk.labels, qpsk.points)) == QPSK_EXPECTED
    assert (1 + 1j) in qpsk.points
    assert sorted(qpsk.labels) == ["00", "01", "10", "11"]


@pytest.mark.parametrize("kind,energy", [("qpsk", 2.0), ("qam16", 4.0)])
def test_mean_symbol_energy_equals_bits(kind, energy):
    c = build_constellation(kind)
    mean = sum(abs(p) ** 2 for p in c.points) / c.M
    assert abs(mean - energy) < 1e-12


def test_qam16_labels_distinct_and_complete(qam16):
    assert len(set(qam16.labels)) == 16
    assert set(qam16.labels) == {format(i, "04b") for i in range(16)}


def test_qam16_points_and_labels_exact(qam16):
    assert qam16.M == 16 and qam16.bits_per_symbol == 4
    assert list(zip(qam16.labels, qam16.points)) == QAM16_EXPECTED


@pytest.mark.parametrize("kind", ["qpsk", "qam16"])
def test_gray_property_axis_neighbors(kind):
    # Neighbors along the real or imaginary axis of the grid differ in
    # exactly one label bit.
    c = build_constellation(kind)
    step = 2.0 if kind == "qpsk" else 2.0 / (2.5**0.5)
    pairs = 0
    for a, b in itertools.combinations(range(c.M), 2):
        pa, pb = c.points[a], c.points[b]
        d = pa - pb
        axis_neighbor = (
            (abs(d.imag) < 1e-9 and abs(abs(d.real) - step) < 1e-9)
            or (abs(d.real) < 1e-9 and abs(abs(d.imag) - step) < 1e-9)
        )
        if axis_neighbor:
            pairs += 1
            assert c.hamming[a][b] == 1
    assert pairs == (4 if kind == "qpsk" else 24)


def test_bit_distance_basics(qpsk):
    i = {p: k for k, p in enumerate(qpsk.points)}
    assert qpsk.hamming[2][2] == 0
    assert qpsk.hamming[i[1 + 1j]][i[-1 + 1j]] == 1
    assert qpsk.hamming[i[1 + 1j]][i[-1 - 1j]] == 2


@pytest.mark.parametrize("kind", ["qpsk", "qam16"])
def test_bit_distance_is_a_metric(kind):
    c = build_constellation(kind)
    h = c.hamming
    for a in range(c.M):
        assert h[a][a] == 0
        for b in range(c.M):
            assert h[a][b] == h[b][a]
            assert (h[a][b] == 0) == (a == b)
            for d in range(c.M):
                assert h[a][d] <= h[a][b] + h[b][d]


def test_qpsk_difference_bit_contributions_exhaustive(qpsk):
    # For QPSK, a +-2 or +-2j difference in one coordinate is always one bit,
    # a +-2+-2j difference always two.
    for a in range(4):
        for b in range(4):
            d = qpsk.points[a] - qpsk.points[b]
            expected = {0.0: 0, 4.0: 1, 8.0: 2}[d.real**2 + d.imag**2]
            assert qpsk.hamming[a][b] == expected


def test_codeword_bit_distance_identity(qpsk):
    i1, i2 = 1, 3
    assert qpsk.hamming[i1][i1] + qpsk.hamming[i2][i2] == 0


def test_codeword_bit_distance_known_events(qpsk):
    # Transmitted (1+1j, 1+1j); detected codewords chosen so the differences
    # are (2+2j, 2) -> 3 bits and (2+2j, 2+2j) -> 4 bits under the fixed map.
    i = {p: k for k, p in enumerate(qpsk.points)}
    p, h = qpsk.points, qpsk.hamming
    tx = (i[1 + 1j], i[1 + 1j])
    det_e11 = (i[-1 - 1j], i[-1 + 1j])
    det_e15 = (i[-1 - 1j], i[-1 - 1j])
    assert p[tx[0]] - p[det_e11[0]] == 2 + 2j and p[tx[1]] - p[det_e11[1]] == 2
    assert h[tx[0]][det_e11[0]] + h[tx[1]][det_e11[1]] == 3
    assert h[tx[0]][det_e15[0]] + h[tx[1]][det_e15[1]] == 4


def test_enumerate_codewords_counts_and_order(qpsk, qam16):
    # The error events of a transmitted codeword run row-major over the
    # detected indices (user 2 fastest) and skip the transmitted pair.
    p, h = qpsk.points, qpsk.hamming
    events = enumerate_error_events(qpsk, 1, 2)  # (1-1j, -1+1j)
    detected = [(k1, k2) for k1 in range(4) for k2 in range(4) if (k1, k2) != (1, 2)]
    assert len(events) == len(detected) == 15
    assert len(enumerate_error_events(qam16, 0, 0)) == 255
    assert [(e.u, e.v, e.n_bits) for e in events] == [
        (p[1] - p[k1], p[2] - p[k2], h[1][k1] + h[2][k2]) for k1, k2 in detected]
    # detected (0, 0) and (0, 1) first; (1, 1) and (1, 3) either side of the skip
    assert [(e.u, e.v, e.n_bits) for e in (events[0], events[1], events[5], events[6])] == [
        (-2j, -2, 2), (-2j, -2 + 2j, 3), (0, -2 + 2j, 2), (0, 2j, 1)]
