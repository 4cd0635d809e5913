"""Hard-decision detectors: exact joint ML from M layered metrics, and a
2M-metric successive-interference-cancellation baseline.

``detect`` is the one implementation of both: it decides a whole batch of
received vectors at once, and the Monte Carlo harness calls it on every
slice of trials.

ML is the layered orthogonal lattice detector of Siti & Fitz (ICC 2006).
For each of the M user-1 hypotheses x1, the user-2 metric
``||y - s2 h2 x2||^2`` with ``y = r - s1 h1 x1`` equals a constant plus
``s2^2 |h2|^2 |z - x2|^2``, where ``z = h2^H y / (s2 |h2|^2)``. On a square
grid its minimiser is the per-axis nearest level of ``z``. The M survivors
are re-scored with the same expression, in the same float operations, as
the full M^2 search, and the first minimum over x1 is taken.

The decision equals the M^2 search's, ties included, whenever in every x1
row both coordinates of ``z`` lie more than ``_MARGIN * (1 + rho)^2`` from
every slicer midpoint. Here ``rho = T / (s2 |h2|)``, and
``T = |r1| + |r2| + (|h11| + |h21|) s1 pmax + (|h12| + |h22|) s2 pmax``
bounds every term of the trial's metrics, with ``pmax`` the largest symbol
modulus. The argument, with ``u = 2^-53``:

* Each float metric is within ``13 u T^2`` of its exact value on the same
  float inputs. The exact metrics of a row's survivor and of any other x2
  differ by at least ``2 s2^2 |h2|^2 L delta``, where ``delta`` is the
  distance of ``z`` to the nearest midpoint and ``L >= 1.26`` the level
  spacing. So the survivor is the row's unique float minimum once
  ``delta > 10.3 u rho^2``.
* The computed ``z`` is within ``15 u rho`` of exact, and the midpoints
  within ``4 u`` of the cell edges of the rounded ``s2 * points`` grid.
* ``rho >= 1.4``, so a margin of ``20 u (1 + rho)^2`` covers both, and
  ``_MARGIN = 1e-12``, about 9000 u, is 450 times that.

If every row's survivor is that row's unique float minimum, the first
minimum over the survivors is the first minimum of the whole M^2 table.
The margin is checked on every row, not only the winner's: a mis-sliced
losing row could hide the true minimum. A trial whose margin is at or
under the bound, or is not finite (a zero user-2 column, say), is decided
by the M^2 search instead; with continuous noise that is rare, of order
1e-9 per trial for a typical channel.

Both detectors assume the channel matrix is known exactly and return hard
decisions (no soft outputs). Ties are broken toward the lowest codeword
enumeration index so results are reproducible; with continuous noise a tie
is a measure-zero event.
"""

import math

import numpy as np

from .channel import validate_alpha

DETECTORS = ("ml", "sic")

# Relative slicer margin at or under which ML falls back to the M^2 search.
_MARGIN = 1e-12


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
    cand_i1, cand_i2 = np.divmod(np.arange(M * M), M)
    return np.divmod(np.argmin(_score(r, h, x1[cand_i1], x2[cand_i2]), axis=1), M)


def _cells(v, edges):
    """Slicer cell of each coordinate and its distance to the nearest midpoint."""
    k = np.searchsorted(edges[1:-1], v)
    return k, np.minimum(v - edges[k], edges[k + 1] - v)


def _ml_layered(r, h, x1, x2, s2, c):
    """ML from M survivors per trial, with the M^2 search where unproven."""
    edges, index = c.slicer
    r1, r2 = r
    h11, h12, h21, h22 = h
    g = _metric(h12, h22)
    t = (abs(r1) + abs(r2) + (abs(h11) + abs(h21)) * np.abs(x1).max()
         + (abs(h12) + abs(h22)) * np.abs(x2).max())
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = 1.0 / (s2 * g)
        # z = h2^H (r - h1 x1) / (s2 |h2|^2), as a - b x1 per trial
        a = (h12.conj() * r1 + h22.conj() * r2) * inv
        b = (h12.conj() * h11 + h22.conj() * h21) * inv
        z = a[:, None] - b[:, None] * x1
        k_re, m_re = _cells(z.real, edges)
        k_im, m_im = _cells(z.imag, edges)
        # tol = _MARGIN (1 + rho)^2 with rho = t / (s2 |h2|)
        tol = _MARGIN * (1.0 + t * np.sqrt(inv / s2)) ** 2
        unproven = ~(np.minimum(m_re, m_im).min(axis=1) > tol)
    j2 = index[k_re] * len(index) + index[k_im]
    j1 = np.argmin(_score(r, h, x1, x2[j2]), axis=1)
    j2 = j2[np.arange(len(j1)), j1]
    if unproven.any():
        sub = np.flatnonzero(unproven)
        j1[sub], j2[sub] = _ml_search((r1[sub], r2[sub]), tuple(v[sub] for v in h), x1, x2)
    return j1, j2


def detect(detector, r, h, alpha, c):
    """Decided symbol indices ``(j1, j2)`` for a batch of received vectors.

    ``r = (r1, r2)`` and ``h = (h11, h12, h21, h22)`` hold one value per
    trial, as returned by ``channel.synthesize``.

    * ``"ml"``: argmin ||R - H X(w)||^2 over all M^2 codewords, with ties
      to the first in row-major codeword order (user 2 fastest). Computed
      from M layered metrics per trial; a trial whose user-2 slice lies
      within the rounding bound of a slicer midpoint in any x1 row is
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
        return _ml_layered(r, h, s1 * points, s2 * points, s2, c)
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
