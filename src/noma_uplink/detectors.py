"""Hard-decision detectors: joint ML over all M^2 codewords, and a 2M-metric
successive-interference-cancellation baseline.

``detect`` is the one implementation of both: it decides a whole batch of
received vectors at once, and the Monte Carlo harness calls it on every
slice of trials.

Both detectors assume the channel matrix is known exactly and return hard
decisions (no soft outputs). Ties are broken toward the lowest codeword
enumeration index so results are reproducible; with continuous noise a tie
is a measure-zero event.
"""

import math

import numpy as np

from .channel import validate_alpha

DETECTORS = ("ml", "sic")


def _metric(e1, e2):
    return e1.real**2 + e1.imag**2 + e2.real**2 + e2.imag**2


def detect(detector, r, h, alpha, c):
    """Decided symbol indices ``(j1, j2)`` for a batch of received vectors.

    ``r = (r1, r2)`` and ``h = (h11, h12, h21, h22)`` hold one value per
    trial, as returned by ``channel.synthesize``.

    * ``"ml"``: argmin ||R - H X(w)||^2 over all M^2 codewords, in row-major
      codeword order (user 2 fastest).
    * ``"sic"``: strong user (user 1) first. Stage 1 slices user 1 by pure
      Euclidean distance, treating the user-2 signal as extra noise; stage 2
      subtracts the stage-1 decision and slices user 2. 2M metrics. Meant
      for alpha > 1/2; at alpha = 1/2 the detection order is arbitrary.
    """
    alpha = validate_alpha(alpha)
    s1 = math.sqrt(alpha)
    s2 = math.sqrt(1.0 - alpha)
    points = np.array(c.points)
    r1, r2 = r
    h11, h12, h21, h22 = h
    if detector == "ml":
        cand_i1, cand_i2 = np.divmod(np.arange(c.M * c.M), c.M)
        x1 = s1 * points[cand_i1]
        x2 = s2 * points[cand_i2]
        e1 = r1[:, None] - (h11[:, None] * x1 + h12[:, None] * x2)
        e2 = r2[:, None] - (h21[:, None] * x1 + h22[:, None] * x2)
        return np.divmod(np.argmin(_metric(e1, e2), axis=1), c.M)
    if detector == "sic":
        j1 = np.argmin(_metric(r1[:, None] - s1 * h11[:, None] * points,
                               r2[:, None] - s1 * h21[:, None] * points), axis=1)
        y1 = r1 - s1 * h11 * points[j1]
        y2 = r2 - s1 * h21 * points[j1]
        j2 = np.argmin(_metric(y1[:, None] - s2 * h12[:, None] * points,
                               y2[:, None] - s2 * h22[:, None] * points), axis=1)
        return j1, j2
    raise ValueError(f"unknown detector {detector!r}")
