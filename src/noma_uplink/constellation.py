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

A codeword is a pair of symbol indices ``(i1, i2)``, one per user. The
analytic layer (``bounds``) reads nothing but indices, ``points`` and the
one Hamming table ``hamming``: an error event from ``(i1, i2)`` to
``(k1, k2)`` has differences ``points[i1] - points[k1]`` and
``points[i2] - points[k2]`` and costs ``hamming[i1, k1] + hamming[i2, k2]``
bits.

Each kind is built once, at import: ``build_constellation`` returns that
instance, whose ``points`` (``complex128``) and ``hamming`` (``int64``, M x
M) are the read-only numpy arrays that every layer reads as they are.
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


def _frozen(a):
    a.flags.writeable = False
    return a


def _build(kind):
    levels, scale = _AXES[kind]
    n = len(levels)
    bits = 2 * (n.bit_length() - 1)
    axis = np.array(levels) * scale
    hamming = [[(a ^ b).bit_count() for b in range(n * n)] for a in range(n * n)]
    return Constellation(kind, _frozen((axis[:, None] + 1j * axis).flatten()),
                         tuple(format(k, f"0{bits}b") for k in range(n * n)), n * n, bits,
                         _frozen(np.array(hamming, dtype=np.int64)))


_BUILT = {kind: _build(kind) for kind in KINDS}


def build_constellation(kind):
    """The QPSK or 16QAM constellation described in the module docs."""
    if kind not in KINDS:
        raise ValueError(f"unsupported constellation kind: {kind!r} (expected one of {KINDS})")
    return _BUILT[kind]
