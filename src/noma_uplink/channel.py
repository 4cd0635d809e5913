"""Unified 2-user uplink model: power split, Rayleigh fading, AWGN.

Signal model for one channel use (no time index needed; the channel is
redrawn independently for every codeword):

    r_i = sqrt(alpha) * h_i1 * x1 + sqrt(1 - alpha) * h_i2 * x2 + w_i

with ``alpha`` in [1/2, 1) the fraction of the total power given to user 1
(alpha = 1/2 is the power-balanced / MU-MIMO case), ``h_ij`` i.i.d.
zero-mean unit-variance circularly-symmetric complex Gaussian, and ``w_i``
complex AWGN.

SNR calibration: an operating point is stated as Eb/N0 in dB with the
per-user bit energy fixed at 1 by the constellation normalization, and
``n0 = 10**(-ebn0_db/10)``. The analytic bounds (see ``bounds``) use ``n0``
directly as their noise parameter. The *sampled* noise has variance ``n0``
per real component, i.e. ``2*n0`` per complex receive sample; this is the
calibration under which the simulated error rates line up with the analytic
table at the same stated Eb/N0.

All sampling consumes uniforms in a fixed order (one uniform per normal
variate, via the inverse CDF), which is what makes the sliced Monte Carlo
harness reproducible; see ``rng``. ``synthesize`` is the one signal model:
it turns a batch of trials into sent indices, channels and received vectors.
It has one path: it forms a trial's 8 channel and 4 noise normals by
inverse-CDF calls of its own, as two C-order blocks, each scaled in one
pass and read as ``complex128`` values (real part first), and never writes
the rows it is given.

Each input rule is checked in one place, here, and every entry point (the
CLI, ``SimConfig``, ``BerCurve``, ``bounds``, ``synthesize``) calls it:
``validate_alpha`` for one alpha, ``validate_alphas`` for an alpha list (not
a string, not empty, no repeats), ``validate_n0`` for the noise parameter,
``NoiseModel`` for one operating point (an Eb/N0, from which it derives
n0), ``validate_ebn0_grid`` for an Eb/N0 grid (not a string, not empty,
strictly increasing) and ``validate_count`` for a trial, error or worker
count (a positive integer). The master-seed rule, ``validate_seed`` (an
integer in [0, 2**64)), lives in ``rng`` beside the stream key it guards.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .rng import normals_from_uniforms

# Columns of the per-trial draw layout (see ``synthesize``) holding the
# channel's 8 and the noise's 4 normals.
CHANNEL_COLUMNS = slice(2, 10)
NOISE_COLUMNS = slice(10, 14)


def validate_alpha(alpha):
    """Check the power-imbalance factor is in [1/2, 1); return it as float."""
    a = float(alpha)
    if not (0.5 <= a < 1.0):
        raise ValueError(f"power imbalance factor must satisfy 0.5 <= alpha < 1, got {alpha}")
    return a


def _numbers(values, name):
    # a str or bytes is iterable, but its items are characters or byte codes, not numbers
    if isinstance(values, (str, bytes)):
        raise ValueError(f"{name} must be a sequence of numbers, not a string: {values!r}")
    return values


def validate_alphas(values):
    """Check an alpha list: not a string or empty, each valid, none repeated; return the floats."""
    alphas = tuple(validate_alpha(a) for a in _numbers(values, "alphas"))
    if not alphas:
        raise ValueError("alphas must not be empty")
    if len(set(alphas)) != len(alphas):
        raise ValueError("alphas must not repeat")
    return alphas


def validate_count(n):
    """Check a count is a positive integer, not a bool; return it as int."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"count must be a positive integer, got {n!r}")
    return int(n)


def validate_n0(n0):
    """Check the noise parameter satisfies 0 < n0 < inf; return it."""
    if not 0.0 < n0 < math.inf:
        raise ValueError(f"n0 must satisfy 0 < n0 < inf, got {n0}")
    return n0


@dataclass(frozen=True)
class NoiseModel:
    """Operating point: an Eb/N0 in dB and the noise parameter n0 it implies.

    ``ebn0_db`` is the one init field, and ``n0 = 10**(-ebn0_db/10)`` is
    derived from it, so the two cannot disagree. -0.0 dB is stored as the
    operating point 0 dB. An Eb/N0 that is not finite, or whose n0
    overflows to inf or underflows to 0, is rejected; this is the one check
    of an operating point.
    """

    ebn0_db: float
    n0: float = field(init=False)

    def __post_init__(self):
        ebn0_db = float(self.ebn0_db) + 0.0  # -0.0 is the operating point 0 dB
        if not math.isfinite(ebn0_db):
            raise ValueError(f"Eb/N0 must be finite, got {ebn0_db} dB")
        try:
            n0 = 10.0 ** (-ebn0_db / 10.0)
        except OverflowError:
            n0 = math.inf
        object.__setattr__(self, "ebn0_db", ebn0_db)
        object.__setattr__(self, "n0", validate_n0(n0))

    @classmethod
    def from_ebn0_db(cls, ebn0_db):
        return cls(ebn0_db)


def validate_ebn0_grid(values):
    """Check an Eb/N0 grid: not a string or empty, valid, strictly increasing; return floats."""
    grid = tuple(NoiseModel.from_ebn0_db(s).ebn0_db for s in _numbers(values, "ebn0_db_grid"))
    if not grid:
        raise ValueError("ebn0_db_grid must not be empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("ebn0_db_grid must be strictly increasing")
    return grid


def synthesize(u, c, alpha, n0):
    """Sent symbols and received vectors for a batch of trials.

    ``u`` holds one row of uniforms per trial, in the per-trial draw layout:
    2 symbol picks, 8 channel normals (h11, h12, h21, h22; real then
    imaginary), 4 noise normals (w1, w2; real then imaginary), then padding.
    Returns ``(i1, i2, h, r)``: the sent symbol indices, the channel entries
    ``h = (h11, h12, h21, h22)`` and the received ``r = (r1, r2)``, each an
    array with one value per trial. ``u`` is only read, in any memory order.
    """
    alpha = validate_alpha(alpha)
    n0 = validate_n0(n0)
    i1, i2 = (u[:, :2] * c.M).astype(np.int64).T
    # C order, for the complex views
    h = np.ascontiguousarray(normals_from_uniforms(u[:, CHANNEL_COLUMNS]))
    h /= math.sqrt(2.0)
    w = np.ascontiguousarray(normals_from_uniforms(u[:, NOISE_COLUMNS]))
    w *= math.sqrt(n0)
    h11, h12, h21, h22 = h.view(np.complex128).T
    w1, w2 = w.view(np.complex128).T
    x1 = math.sqrt(alpha) * c.points[i1]
    x2 = math.sqrt(1.0 - alpha) * c.points[i2]
    return i1, i2, (h11, h12, h21, h22), (h11 * x1 + h12 * x2 + w1, h21 * x1 + h22 * x2 + w2)
