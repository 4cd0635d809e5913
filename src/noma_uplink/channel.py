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
variate, via the inverse CDF), which is what makes the chunked Monte Carlo
harness reproducible; see ``rng``. ``synthesize`` turns a batch of trials
into sent indices, channels and received vectors; the one-draw helpers
``sample_channel``, ``sample_noise`` and ``transmit`` share its fading, noise
and receive steps.
"""

import math
from dataclasses import dataclass

import numpy as np

from .rng import normals_from_uniforms


def validate_alpha(alpha):
    """Check the power-imbalance factor is in [1/2, 1); return it as float."""
    a = float(alpha)
    if not (0.5 <= a < 1.0):
        raise ValueError(f"power imbalance factor must satisfy 0.5 <= alpha < 1, got {alpha}")
    return a


@dataclass(frozen=True)
class NoiseModel:
    """Operating point: Eb/N0 in dB and the matching noise parameter n0.

    Both must be finite and n0 positive; this is the one check of an
    operating point, shared by ``SimConfig`` and the CLI.
    """

    ebn0_db: float
    n0: float

    def __post_init__(self):
        if not (math.isfinite(self.ebn0_db) and 0.0 < self.n0 < math.inf):
            raise ValueError(f"Eb/N0 must be finite with 0 < n0 < inf,"
                             f" got ebn0_db={self.ebn0_db}, n0={self.n0}")

    @classmethod
    def from_ebn0_db(cls, ebn0_db):
        ebn0_db = float(ebn0_db)
        try:
            return cls(ebn0_db, 10.0 ** (-ebn0_db / 10.0))
        except OverflowError:
            return cls(ebn0_db, math.inf)

    @classmethod
    def from_n0(cls, n0):
        n0 = float(n0)
        return cls(-10.0 * math.log10(n0) if n0 > 0 else math.nan, n0)


@dataclass(frozen=True)
class ChannelMatrix:
    """One realization of the 2x2 uplink channel; h_ij is user j -> antenna i."""

    h11: complex
    h12: complex
    h21: complex
    h22: complex

    def as_array(self):
        return np.array([[self.h11, self.h12], [self.h21, self.h22]])


@dataclass(frozen=True)
class ReceivedVector:
    r1: complex
    r2: complex


def scale_codeword(w, alpha):
    """Transmit vector X = (sqrt(alpha) x1, sqrt(1-alpha) x2)."""
    alpha = validate_alpha(alpha)
    return (math.sqrt(alpha) * w.x1, math.sqrt(1.0 - alpha) * w.x2)


def _pairs(g):
    """Complex values from (real, imag) pairs along the last axis of ``g``."""
    return tuple(g[..., k] + 1j * g[..., k + 1] for k in range(0, g.shape[-1], 2))


def _fading(u):
    """Channel entries (h11, h12, h21, h22), each CN(0, 1), from 8 uniforms."""
    return _pairs(normals_from_uniforms(u) / math.sqrt(2.0))


def _noise(u, n0):
    """AWGN (w1, w2) from 4 uniforms; variance n0 per real component."""
    return _pairs(normals_from_uniforms(u) * math.sqrt(n0))


def _receive(h, x1, x2, w):
    """(r1, r2) = H (x1, x2) + (w1, w2), for scalars and arrays alike."""
    h11, h12, h21, h22 = h
    w1, w2 = w
    return h11 * x1 + h12 * x2 + w1, h21 * x1 + h22 * x2 + w2


def synthesize(u, c, alpha, n0):
    """Sent symbols and received vectors for a batch of trials.

    ``u`` holds one row of uniforms per trial, in the per-trial draw layout:
    2 symbol picks, 8 channel normals (h11, h12, h21, h22; real then
    imaginary), 4 noise normals (w1, w2; real then imaginary), then padding.
    Returns ``(i1, i2, h, r)``: the sent symbol indices, the channel entries
    ``h = (h11, h12, h21, h22)`` and the received ``r = (r1, r2)``, each an
    array with one value per trial.
    """
    alpha = validate_alpha(alpha)
    points = np.array(c.points)
    i1 = (u[:, 0] * c.M).astype(np.int64)
    i2 = (u[:, 1] * c.M).astype(np.int64)
    h = _fading(u[:, 2:10])
    x1 = math.sqrt(alpha) * points[i1]
    x2 = math.sqrt(1.0 - alpha) * points[i2]
    return i1, i2, h, _receive(h, x1, x2, _noise(u[:, 10:14], n0))


def sample_channel(rng):
    """Draw one channel matrix: four i.i.d. CN(0, 1) entries.

    Consumes exactly 8 uniforms, in the order h11, h12, h21, h22
    (real then imaginary part of each).
    """
    return ChannelMatrix(*(complex(z) for z in _fading(rng.random(8))))


def sample_noise(rng, nm):
    """Draw the AWGN pair (w1, w2); variance n0 per real component.

    Consumes exactly 4 uniforms (w1 real, w1 imag, w2 real, w2 imag).
    """
    return tuple(complex(z) for z in _noise(rng.random(4), nm.n0))


def transmit(h, w, alpha, noise):
    """Received vector for codeword ``w`` over channel ``h`` with given noise."""
    x1, x2 = scale_codeword(w, alpha)
    return ReceivedVector(*_receive((h.h11, h.h12, h.h21, h.h22), x1, x2, noise))
