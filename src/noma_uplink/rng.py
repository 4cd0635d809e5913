"""Deterministic, splittable random streams for the Monte Carlo harness.

Every simulation point owns one counter-based Philox stream whose 64-bit key
is derived from the master seed and the point's parameter *values* (not grid
positions), so reshaping a sweep grid never silently changes the random data
fed to any (alpha, Eb/N0) point. Equal values share a key, so -0.0 and 0.0
do too.

Stream layout: each trial consumes a fixed budget of 16 double-precision
uniforms (4 Philox counter blocks), so the generator can be positioned at any
absolute trial index in O(1) with ``advance``. Workers and vectorized slices
therefore see bit-identical data regardless of how the trial range is
partitioned.

Normal variates are produced by the inverse-CDF transform of uniforms
(``scipy.special.ndtri``), which consumes exactly one uniform per normal.

``rng`` also owns a table that brackets those normals without computing
them: ``ndtri`` at the ``_CELLS + 1`` grid points ``k / _CELLS``, the
bottom and top points clamped as ``normals_from_uniforms`` clamps a draw
(``2**-54``, and ``1 - 2**-53``, the largest draw). A draw ``v`` in cell
``k = floor(v * _CELLS)``, i.e. in ``[k / _CELLS, (k + 1) / _CELLS)``,
gives a normal in ``[Z_k, Z_{k+1}]`` if ``ndtri`` is nondecreasing. The
float ``ndtri`` is assumed to be within ``2**-34`` relative of a
nondecreasing function, about 8 * 10^4 times the 7.2e-16 peak relative
error reported for the Cephes ``ndtri`` that SciPy's comes from. Then its
value on the cell lies within ``2**-33 (1 + 2**-33)`` times the larger of
``|Z_k|`` and ``|Z_{k+1}|`` of ``[Z_k, Z_{k+1}]``. So each cell is stored
as a midpoint and a radius widened by ``_BRACKET_SLACK = 2**-32`` times
that larger magnitude, which also covers the three roundings of the
midpoint and the radius; every radius is therefore at least
``_BRACKET_SLACK`` times its midpoint's magnitude. ``normal_brackets``
reads the table. It is built on its first call, never at import; the tests
check it at every grid point, a few ulps on either side of each, and on
10^7 draws.
"""

import functools
import numbers
import struct

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

RNG_ALGORITHM = "philox4x64/inverse-cdf/v1"

# Doubles consumed per Monte Carlo trial: 2 symbol picks, 8 channel normals,
# 4 noise normals, 2 pad (keeps trials aligned to Philox counter blocks).
DRAWS_PER_TRIAL = 16

_MASK64 = (1 << 64) - 1

# Cells of the bracket table: a draw v lies in cell floor(v * _CELLS).
_CELLS = 2**12
# Relative widening of each bracket, for the float ndtri (module docs).
_BRACKET_SLACK = 2.0**-32


def _splitmix64(x):
    """One round of the splitmix64 finalizer (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _float_bits(x):
    """IEEE-754 bit pattern of a float as an unsigned 64-bit int, -0.0 read as 0.0."""
    return struct.unpack("<Q", struct.pack("<d", float(x) + 0.0))[0]


def validate_seed(seed):
    """Check a master seed is an integer in [0, 2**64), not a bool; return it as int."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def point_stream_key(master_seed, alpha, ebn0_db):
    """Stream key for one (alpha, Eb/N0) simulation point.

    Keyed on the IEEE bit patterns of the parameter values so the stream is
    a pure function of (seed, alpha, ebn0_db); -0.0 is keyed as 0.0, its
    equal value. The seed must pass ``validate_seed``, so no two seeds share
    a key. Chained splitmix64: k = sm64(seed); k = sm64(k ^ field) for each
    field.
    """
    key = _splitmix64(validate_seed(master_seed))
    for field in (0x4245_5250, _float_bits(alpha), _float_bits(ebn0_db)):
        key = _splitmix64(key ^ field)
    return key


def trial_stream(key, first_trial=0):
    """Generator positioned at the start of ``first_trial`` for this stream.

    Each trial owns DRAWS_PER_TRIAL doubles = DRAWS_PER_TRIAL/4 counter
    blocks, so positioning is an exact counter advance.
    """
    bg = Philox(key=key)
    if first_trial:
        bg.advance((DRAWS_PER_TRIAL // 4) * int(first_trial))
    return Generator(bg)


def normals_from_uniforms(u):
    """Standard-normal variates from uniforms in [0, 1) via the inverse CDF.

    Returns a new array of ``u``'s shape; ``u`` is only read. An exact 0.0
    gives ``ndtri(2**-54)``, a finite normal, in place of -inf.
    """
    # draws are multiples of 2^-53, so this moves only an exact 0.0, where ndtri is -inf
    g = np.maximum(u, 2.0**-54)
    return ndtri(g, out=g)


@functools.cache
def _bracket_table():
    """Read-only midpoints and radii of the ``_CELLS`` cells' normal brackets (module docs)."""
    v = np.arange(_CELLS + 1) / _CELLS
    v[-1] = 1.0 - 2.0**-53  # the largest draw; the bottom point is clamped as a draw is
    z = normals_from_uniforms(v)
    lo, hi = z[:-1], z[1:]
    mid = (lo + hi) / 2
    rad = (hi - lo) / 2 + _BRACKET_SLACK * np.maximum(abs(lo), abs(hi))
    for a in (mid, rad):
        a.flags.writeable = False
    return mid, rad


def normal_brackets(u):
    """Midpoints and radii with ``|normals_from_uniforms(u) - mid| <= rad`` elementwise.

    Returns two new arrays of ``u``'s shape, read from the bracket table of
    the module docs; ``u`` holds draws in [0, 1) and is only read.
    """
    mid, rad = _bracket_table()
    # floor(v * _CELLS) for v >= 0, cast element by element: no float copy of u
    k = np.multiply(u, _CELLS, out=np.empty(u.shape, np.intp), casting="unsafe")
    return mid.take(k), rad.take(k)
