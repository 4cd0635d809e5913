"""Hard-decision detectors: exact joint ML from a Gram-form table of all M^2
metrics, and a 2M-metric successive-interference-cancellation baseline.

``detect`` is the one implementation of both: it decides a whole batch of
received vectors at once, and the Monte Carlo harness calls it on every
slice of trials.

ML uses the sphere decoder's expansion (Viterbo & Boutros, IEEE Trans. IT
1999). With ``x1 = s1 p[i1]``, ``x2 = s2 p[i2]`` and the user columns
``h1 = (h11, h21)``, ``h2 = (h12, h22)``, the metric of codeword ``w``
minus ``||r||^2`` is ``q(w) = f . C(w)``: eight real features of the trial,
``y1 = h1^H r``, ``y2 = h2^H r`` and ``g = h1^H h2`` (real and imaginary
parts) and ``|h1|^2``, ``|h2|^2``, against the coefficients ``-2 x1``,
``-2 x2``, ``2 conj(x1) x2`` (as ``2 Re``, ``-2 Im``), ``|x1|^2`` and
``|x2|^2``. So a block of trials costs one real (rows x 8) @ (8 x M^2)
product. Rows are taken ``_BLOCK // M^2`` at a time, so each table stays
in cache: on a 2-core x86-64 VM, 16QAM took 4.6-6.4 ms per 10^4 trials in
40,000-entry blocks, 8.3-9.9 in 5,000-entry blocks and 16-30 in one
table per 2,500-trial slice.

The first argmin of a trial's table is its decision when the second
smallest entry exceeds the smallest by more than ``_MARGIN * T^2``. Here
``T = |r1| + |r2| + (|h11| + |h21|) P1 + (|h12| + |h22|) P2``, with ``P1``
and ``P2`` the largest ``|x1|`` and ``|x2|``, bounds the sum of the
absolute values of the eight products, and ``u = 2^-53``:

* Each feature part is a sum of at most four products of inputs, within
  ``gamma_3`` (``|h|^2``: ``gamma_4``) of its exact value relative to their
  absolute sum; each coefficient is exact (``-2 x``) or within
  ``gamma_2``. Any 8-term dot product, in any summation order and with or
  without FMA, adds ``gamma_8`` relative to its absolute sum (Higham,
  *Accuracy and Stability of Numerical Algorithms*, section 3.1). Together
  the table entry is within ``22 u T^2`` of the exact ``q(w)`` on the same
  float inputs, for any BLAS.
* Each ``_score`` metric is within ``13 u T^2`` of its exact value.
* So a gap above ``2 (22 + 13) u T^2 = 70 u T^2`` makes the table's argmin
  the unique float minimum of the M^2 ``_score`` table, which is what
  ``_ml_search`` returns. ``_MARGIN = 1e-12``, about 9000 u, is 128 times
  that, which also covers the rounding of the gap and of ``T``.

The bounds assume that nothing underflows, which can only fail for ``T``
below about 1e-150. A trial whose gap is at or under the margin (an exact tie, as a
zero user-2 column gives) or is not finite (any NaN) is decided by the M^2
search; with continuous noise that is rare. The decisions therefore equal
the M^2 search's, ties included, whatever the BLAS thread count.

Both detectors assume the channel matrix is known exactly and return hard
decisions (no soft outputs). Ties are broken toward the lowest codeword
enumeration index so results are reproducible; with continuous noise a tie
is a measure-zero event.
"""

import math

import numpy as np

from .channel import validate_alpha

DETECTORS = ("ml", "sic")

# Relative metric gap at or under which ML falls back to the M^2 search.
_MARGIN = 1e-12
# Entries of the Gram-form table computed at once.
_BLOCK = 40_000


def _metric(e1, e2):
    return e1.real**2 + e1.imag**2 + e2.real**2 + e2.imag**2


def _score(r, h, x1, x2):
    """Metric of each trial (rows) against codewords ``(x1, x2)`` (columns)."""
    r1, r2 = r
    h11, h12, h21, h22 = h
    e1 = r1[:, None] - (h11[:, None] * x1 + h12[:, None] * x2)
    e2 = r2[:, None] - (h21[:, None] * x1 + h22[:, None] * x2)
    return _metric(e1, e2)


def _ml_search(r, h, x1, x2):
    """First argmin over all M^2 codewords, row-major (user 2 fastest)."""
    M = len(x1)
    return np.divmod(np.argmin(_score(r, h, np.repeat(x1, M), np.tile(x2, M)), axis=1), M)


def _ml_gram(r, h, x1, x2):
    """First argmin of the Gram-form table, with the M^2 search where the gap is unproven."""
    M = len(x1)
    r1, r2 = r
    h11, h12, h21, h22 = h
    a, b = np.repeat(x1, M), np.tile(x2, M)
    ab = a.conj() * b
    C = np.stack([-2 * a.real, -2 * a.imag, -2 * b.real, -2 * b.imag,
                  2 * ab.real, -2 * ab.imag, a.real**2 + a.imag**2, b.real**2 + b.imag**2])
    # f's real view, in C's row order: h1^H r, h2^H r, h1^H h2 (re, im), |h1|^2, |h2|^2
    f = np.empty((len(r1), 4), dtype=complex)
    f[:, 0] = h11.conj() * r1 + h21.conj() * r2
    f[:, 1] = h12.conj() * r1 + h22.conj() * r2
    f[:, 2] = h11.conj() * h12 + h21.conj() * h22
    f = f.view(np.float64)
    f[:, 6] = _metric(h11, h21)
    f[:, 7] = _metric(h12, h22)
    t = (abs(r1) + abs(r2) + (abs(h11) + abs(h21)) * np.abs(x1).max()
         + (abs(h12) + abs(h22)) * np.abs(x2).max())
    tol = _MARGIN * t * t
    j = np.empty(len(r1), dtype=np.intp)
    certified = np.empty(len(r1), dtype=bool)
    rows = _BLOCK // (M * M)
    for lo in range(0, len(r1), rows):
        q = f[lo:lo + rows] @ C
        k = j[lo:lo + rows] = q.argmin(axis=1)
        i = np.arange(len(k))
        best = q[i, k]
        q[i, k] = np.inf
        certified[lo:lo + rows] = q.min(axis=1) - best > tol[lo:lo + rows]
    j1, j2 = np.divmod(j, M)
    if not certified.all():
        sub = np.flatnonzero(~certified)
        j1[sub], j2[sub] = _ml_search((r1[sub], r2[sub]), tuple(v[sub] for v in h), x1, x2)
    return j1, j2


def detect(detector, r, h, alpha, c):
    """Decided symbol indices ``(j1, j2)`` for a batch of received vectors.

    ``r = (r1, r2)`` and ``h = (h11, h12, h21, h22)`` hold one value per
    trial, as returned by ``channel.synthesize``.

    * ``"ml"``: argmin ||R - H X(w)||^2 over all M^2 codewords, with ties
      to the first in row-major codeword order (user 2 fastest). Computed
      from the Gram-form table of all M^2 metrics; a trial whose two
      smallest entries lie within ``_MARGIN * T^2`` of each other is
      re-decided by the M^2 search, so the result equals that search's
      exactly (see the module docs for the bound and why it is enough).
    * ``"sic"``: strong user (user 1) first. Stage 1 slices user 1 by pure
      Euclidean distance, treating the user-2 signal as extra noise; stage 2
      subtracts the stage-1 decision and slices user 2. 2M metrics. Meant
      for alpha > 1/2; at alpha = 1/2 the detection order is arbitrary.
    """
    alpha = validate_alpha(alpha)
    s1 = math.sqrt(alpha)
    s2 = math.sqrt(1.0 - alpha)
    points = c.points
    if detector == "ml":
        return _ml_gram(r, h, s1 * points, s2 * points)
    if detector == "sic":
        r1, r2 = r
        h11, h12, h21, h22 = h
        j1 = np.argmin(_metric(r1[:, None] - s1 * h11[:, None] * points,
                               r2[:, None] - s1 * h21[:, None] * points), axis=1)
        y1 = r1 - s1 * h11 * points[j1]
        y2 = r2 - s1 * h21 * points[j1]
        j2 = np.argmin(_metric(y1[:, None] - s2 * h12[:, None] * points,
                               y2[:, None] - s2 * h22[:, None] * points), axis=1)
        return j1, j2
    raise ValueError(f"unknown detector {detector!r}")
