"""Gray-mapped QPSK and 16QAM constellations with bit-level bookkeeping.

Both are square grids built from one per-axis Gray table, ``_AXES``: per
kind, the level of each axis label, indexed by the label's integer value,
and a scale. A point's label is its real-axis label followed by its
imaginary-axis label; its coordinates are the two levels times the scale:

* QPSK: 0 -> +1, 1 -> -1, scale 1, so label (b0 b1) maps to
  ``(1 - 2*b0) + 1j*(1 - 2*b1)`` (mean energy 2).
* 16QAM: 00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3, scale ``1/sqrt(2.5)``,
  on (b0 b1 | b2 b3) = (real | imag) (mean energy 4).

The mean symbol energy thus equals the number of bits per symbol, i.e. the
energy per bit is 1 for each user. Points are indexed by their label read
as a binary integer, so ``labels[i]`` is ``i`` in binary and
``hamming[a, b]`` is the popcount of ``a ^ b``. Symbol identity is always
by index, never by floating-point comparison of coordinates.

A codeword is a pair of symbol indices ``(i1, i2)``, one per user. An
error event from ``(i1, i2)`` to ``(k1, k2)`` has differences
``points[i1] - points[k1]`` and ``points[i2] - points[k2]`` and costs
``hamming[i1, k1] + hamming[i2, k2]`` bits. The union bound depends on
each user's symbol pair ``(i, k)`` only through ``|p_i - p_k|^2`` and
``hamming[i, k]``, so ``pair_classes`` groups one user's M^2 ordered
symbol pairs on those two values, identity pairs included. Each class is one
entry ``(abs2, bits, count)``: ``abs2`` is ``|p_i - p_k|^2``, computed as
``d.real*d.real + d.imag*d.imag`` from the difference ``d`` of the
unscaled points, ``bits`` is ``hamming[i, k]`` and ``count`` the number of
pairs. Classes are grouped on exact float values and sorted on ``(abs2,
bits)``, so the first is the identity class ``(0.0, 0, M)`` and the second
holds the least nonzero ``|p_i - p_k|^2``; the counts sum to M^2 (3
classes for QPSK, 13 for 16QAM). The union bound (``bounds``) and the ML
plan's least symbol distances (``detectors``) read these classes, and
nothing else computes a per-user symbol distance.

Each kind is built once, at import: ``build_constellation`` returns that
instance, whose ``points`` (``complex128``), ``hamming`` (``int64``, M x
M) and ``pair_classes`` (a structured array of ``float64`` ``abs2`` and
``int64`` ``bits`` and ``count``) are the read-only numpy arrays that
every layer reads as they are.
"""

import math
from dataclasses import dataclass

import numpy as np

# kind -> (level of each axis label, indexed by the label's integer value; scale)
_AXES = {
    "qpsk": ((1.0, -1.0), 1.0),
    "qam16": ((-3.0, -1.0, 3.0, 1.0), 1.0 / math.sqrt(2.5)),
}
KINDS = tuple(_AXES)
_PAIR_CLASS = np.dtype([("abs2", np.float64), ("bits", np.int64), ("count", np.int64)])


# eq=False: one instance per kind, so identity is equality
@dataclass(frozen=True, eq=False)
class Constellation:
    """Finite complex symbol set with index-aligned bit labels."""

    kind: str
    points: np.ndarray
    labels: tuple
    M: int
    bits_per_symbol: int
    hamming: np.ndarray
    pair_classes: np.ndarray


def _frozen(a):
    a.flags.writeable = False
    return a


def _build(kind):
    levels, scale = _AXES[kind]
    n = len(levels)
    bits = 2 * (n.bit_length() - 1)
    axis = np.array(levels) * scale
    points = (axis[:, None] + 1j * axis).flatten()
    hamming = np.array([[(a ^ b).bit_count() for b in range(n * n)] for a in range(n * n)],
                       dtype=np.int64)
    # one user's symbol pairs grouped on (|d|^2, hamming); every |d|^2 is a
    # finite float >= +0.0, for which equal values are equal bits
    d = (points[:, None] - points).ravel()
    pair = np.stack([d.real * d.real + d.imag * d.imag, hamming.ravel()], axis=1)
    classes, count = np.unique(pair, axis=0, return_counts=True)
    pair_classes = np.fromiter(zip(*classes.T, count), dtype=_PAIR_CLASS)
    return Constellation(kind, _frozen(points), tuple(format(k, f"0{bits}b") for k in range(n * n)),
                         n * n, bits, _frozen(hamming), _frozen(pair_classes))


_BUILT = {kind: _build(kind) for kind in KINDS}


def build_constellation(kind):
    """The QPSK or 16QAM constellation described in the module docs."""
    if kind not in KINDS:
        raise ValueError(f"unsupported constellation kind: {kind!r} (expected one of {KINDS})")
    return _BUILT[kind]
