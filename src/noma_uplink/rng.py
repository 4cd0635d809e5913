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
"""

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


def normals_from_uniforms(u, out=None):
    """Standard-normal variates from uniforms in [0, 1) via the inverse CDF.

    With ``out`` (an array of ``u``'s shape) the normals are written there
    and ``out`` is returned, so no array is allocated.
    """
    # draws are multiples of 2^-53, so this moves only an exact 0.0, where ndtri is -inf
    g = np.maximum(u, 2.0**-54, out=out)
    return ndtri(g, out=g)
