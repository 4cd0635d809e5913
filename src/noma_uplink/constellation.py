"""Gray-mapped QPSK and 16QAM constellations with bit-level bookkeeping.

Both are square grids built from one per-axis Gray table, ``_AXES``: per
kind, a map from axis label to amplitude level, and a scale. A point's
label is its real-axis label followed by its imaginary-axis label; its
coordinates are the two levels times the scale:

* QPSK: 0 -> +1, 1 -> -1, scale 1, so label (b0 b1) maps to
  ``(1 - 2*b0) + 1j*(1 - 2*b1)`` (mean energy 2).
* 16QAM: 00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3, scale ``1/sqrt(2.5)``,
  on (b0 b1 | b2 b3) = (real | imag) (mean energy 4).

The mean symbol energy thus equals the number of bits per symbol, i.e. the
energy per bit is 1 for each user. Points are indexed by their label read
as a binary integer, so ``points[0]`` is the all-zeros label. Symbol
identity is always by index, never by floating-point comparison of
coordinates.

A codeword is a pair of symbol indices ``(i1, i2)``, one per user. The
analytic layer (``bounds``) reads nothing but indices, ``points`` and the
one Hamming table ``hamming``: an error event from ``(i1, i2)`` to
``(k1, k2)`` has differences ``points[i1] - points[k1]`` and
``points[i2] - points[k2]`` and costs ``hamming[i1, k1] + hamming[i2, k2]``
bits.

``points`` (``complex128``) and ``hamming`` (``int64``, M x M) are the
read-only numpy arrays that every layer reads as they are; the ML detector
also reads ``slicer``, the per-axis nearest-level cells it slices user 2 with.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# kind -> (per-axis Gray map: axis label -> amplitude level, scale)
_AXES = {
    "qpsk": ({"0": 1.0, "1": -1.0}, 1.0),
    "qam16": ({"00": -3.0, "01": -1.0, "11": 1.0, "10": 3.0}, 1.0 / math.sqrt(2.5)),
}
KINDS = tuple(_AXES)


# eq=False: a generated __eq__ on array fields is ambiguous, so compare by identity
@dataclass(frozen=True, eq=False)
class Constellation:
    """Finite complex symbol set with index-aligned bit labels."""

    kind: str
    points: np.ndarray
    labels: tuple
    M: int
    bits_per_symbol: int

    @cached_property
    def hamming(self):
        """M x M Hamming distances between bit labels: ``hamming[a, b]``."""
        return _frozen(np.array([[sum(x != y for x, y in zip(la, lb)) for lb in self.labels]
                                 for la in self.labels], dtype=np.int64))

    @cached_property
    def slicer(self):
        """Per-axis nearest-level slicer ``(edges, index)``, derived from ``_AXES``.

        ``edges`` holds -inf, the midpoints between adjacent sorted levels
        (scaled like ``points``) and +inf: a coordinate ``v`` lies in cell
        ``k = searchsorted(edges[1:-1], v)``, between ``edges[k]`` and
        ``edges[k + 1]``. ``index[k]`` is the rank of the k-th lowest level's
        label in label order, so the point nearest ``re + 1j*im`` is
        ``points[index[k_re] * len(index) + index[k_im]]``.
        """
        levels, scale = _AXES[self.kind]
        by_level = sorted(levels, key=levels.get)
        coords = np.array([levels[b] * scale for b in by_level])
        edges = np.concatenate(([-np.inf], (coords[:-1] + coords[1:]) / 2, [np.inf]))
        index = np.array([sorted(levels).index(b) for b in by_level])
        return _frozen(edges), _frozen(index)


def _frozen(a):
    a.flags.writeable = False
    return a


def build_constellation(kind):
    """Build the QPSK or 16QAM constellation described in the module docs."""
    if kind not in KINDS:
        raise ValueError(f"unsupported constellation kind: {kind!r} (expected one of {KINDS})")
    levels, scale = _AXES[kind]
    axis = sorted(levels)
    labels = tuple(re + im for re in axis for im in axis)
    points = _frozen(np.array([complex(levels[re] * scale, levels[im] * scale)
                               for re in axis for im in axis]))
    return Constellation(kind, points, labels, len(points), 2 * len(axis[0]))
