"""Hard-decision detectors: exact joint ML from a Gram-form table of all M^2
metrics, and a 2M-metric successive-interference-cancellation baseline.

``detect`` is the one implementation of both: it decides a whole batch of
received vectors at once, and the Monte Carlo harness calls it on every
slice of trials, with the sent codewords as an optional hint that ML
checks before building any table.

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

A trial may carry a hint, a candidate codeword ``w0``; the Monte Carlo
harness passes the sent one. The hint is the trial's decision, with no
table built, when it is proven the unique float minimum of ``_score``.
This is the sphere decoder's radius argument. In exact arithmetic on the
float inputs, let:

* ``e = ||r - H x(w0)||``;
* ``a = |h1|^2``, ``b = |h2|^2`` and ``g = h1^H h2``, the entries of ``G =
  H^H H``, read from the features the table uses;
* ``lmax = (a + b + sqrt((a - b)^2 + 4 |g|^2)) / 2`` and ``lmin = (a b -
  |g|^2) / lmax``, the eigenvalues of ``G``;
* ``d^2`` the least ``|x[k] - x[l]|^2`` over ``k != l`` of either user's
  symbols (with alpha >= 1/2, user 2's), and ``s^2 = lmin d^2``.

Every other codeword ``w`` has ``|x(w) - x(w0)|^2 >= d^2``, so ``||H (x(w) -
x(w0))|| >= s``, and by the triangle inequality ``||r - H x(w)|| >= s - e``.
When ``s >= e`` that gives ``||r - H x(w)||^2 - e^2 >= s (s - 2e)``.

The check works from computed values, each made a one-sided bound by a
slack derived term by term:

* ``E = e_hat + 16 u t`` bounds ``e`` from above. ``e_hat`` is the float
  norm of the float residual, formed as ``_score`` forms it (``r1 - (h11 x1
  + h12 x2)``), and ``t`` is the computed ``T``. Each real part of the
  residual is an input minus four products, within ``gamma_4`` of exact
  relative to its absolute sum. That sum is at most ``T_i = |r_i| + |h_i1|
  P1 + |h_i2| P2``, so the residual vector is within ``sqrt(2) gamma_4 T <=
  5.7 u T`` of exact. Summing the four squares and taking the root move the
  norm by at most ``3.1 u`` relative, and ``e_hat <= 2 T``, so ``e <= e_hat
  + 12 u T``. ``t`` sums non-negative terms, each within ``9 u`` of exact,
  so ``16 u t >= 15.9 u T``.
* ``a b - |g|^2 - 32 u a b`` bounds ``a b - |g|^2`` from below. ``a`` and
  ``b`` are within ``gamma_4`` of exact, and each part of ``g`` within
  ``gamma_3 sqrt(ab)``. So the computed ``a b - |g|^2`` is within ``(9 +
  8.5 + 2 + 1) u ab < 21 u ab`` of exact: ``gamma_9`` for the product,
  ``2 sqrt(2) gamma_3 ab`` for the change of ``|g|^2``, ``gamma_2`` for
  forming it and ``u`` for the difference. Subtracting the slack rounds by
  at most ``u ab`` more.
* ``lmax (1 + 32 u)`` bounds ``lmax`` from above. By Weyl's inequality the
  rounded ``G`` moves ``lmax`` by at most ``gamma_4 max(a, b) + sqrt(2)
  gamma_3 sqrt(ab) <= 8.3 u lmax``. Evaluating the formula adds at most ``5
  u`` relative, since its terms are non-negative and ``a - b`` is only
  squared.
* ``d^2`` is within ``gamma_4`` of exact. With the quotient, the products
  and the sum ``E``, the remaining roundings come to at most ``10 u``
  relative, which lowers the effective constant 4.5 by less than ``1e-14``.

A hint is proven when ``s_hat^2 > 4.5 E^2`` and ``s_hat^2 > 1e-9
t^2``. Then in exact terms ``s > 2.1213 e`` and ``s^2 > 0.99e-9 T^2``. So
every other codeword's metric exceeds the hint's by at least ``s (s - 2e)
>= (1 - 2 / 2.1213) s^2 >= 0.0571 s^2 >= 5.6e-11 T^2``. Rounding can move
two ``_score`` entries by at most ``2 * 13 u T^2 = 26 u T^2``, about
``2.9e-15 T^2``. So the hint's float ``_score`` is strictly the least of
the M^2, and ``_ml_search`` returns it whatever its tie rule. The check's
own bounds assume no underflow, as the table's do.

A hint that is not the ML decision is never proven, so it only costs
time. A NaN or infinite input makes a comparison false. A zero user-2
column gives ``s = 0``, and an exact tie a zero gap, so ``s <= 2e``. Such
trials take the table path above. The check costs about 0.5 ms per 10^4
trials (QPSK on a 2-core x86-64 VM). At QPSK 10 dB or less it proves under
30% of sent codewords, and is a net loss of about that much, but such
points stop after one 10^4-trial block.

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
# Unit roundoff of float64; the hint check's slacks are multiples of it.
_U = 2.0**-53


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


def _gram_features(r, h, x1, x2):
    """Each trial's 8 real features, in the table's row order, and its scale ``T``."""
    r1, r2 = r
    h11, h12, h21, h22 = h
    # f's real view: h1^H r, h2^H r, h1^H h2 (re, im), |h1|^2, |h2|^2
    f = np.empty((len(r1), 4), dtype=complex)
    f[:, 0] = h11.conj() * r1 + h21.conj() * r2
    f[:, 1] = h12.conj() * r1 + h22.conj() * r2
    f[:, 2] = h11.conj() * h12 + h21.conj() * h22
    f = f.view(np.float64)
    f[:, 6] = _metric(h11, h21)
    f[:, 7] = _metric(h12, h22)
    t = (abs(r1) + abs(r2) + (abs(h11) + abs(h21)) * np.abs(x1).max()
         + (abs(h12) + abs(h22)) * np.abs(x2).max())
    return f, t


def _min_sq_distance(x):
    """Least ``|x[k] - x[l]|^2`` over ``k != l``."""
    d = x[:, None] - x
    d2 = d.real**2 + d.imag**2
    return d2[~np.eye(len(x), dtype=bool)].min()


def _hint_proven(r, h, x1, x2, k1, k2, f, t):
    """Mask of trials whose hint ``(k1, k2)`` is proven the unique float minimum of ``_score``."""
    r1, r2 = r
    h11, h12, h21, h22 = h
    a, b = f[:, 6], f[:, 7]
    gg = f[:, 4]**2 + f[:, 5]**2
    ab = a * b
    lmax = (a + b + np.sqrt((a - b)**2 + 4 * gg)) / 2 * (1 + 32 * _U)
    s2 = (ab - gg - 32 * _U * ab) / lmax * min(_min_sq_distance(x1), _min_sq_distance(x2))
    y1, y2 = x1[k1], x2[k2]
    e = np.sqrt(_metric(r1 - (h11 * y1 + h12 * y2), r2 - (h21 * y1 + h22 * y2))) + 16 * _U * t
    return (s2 > 4.5 * e * e) & (s2 > 1e-9 * t * t)


def _ml_gram(r, h, x1, x2, hint):
    """First argmin of the Gram-form table, with the M^2 search where the gap is unproven.

    A trial whose hint is proven by ``_hint_proven`` takes it and skips the table.
    """
    M = len(x1)
    a, b = np.repeat(x1, M), np.tile(x2, M)
    ab = a.conj() * b
    C = np.stack([-2 * a.real, -2 * a.imag, -2 * b.real, -2 * b.imag,
                  2 * ab.real, -2 * ab.imag, a.real**2 + a.imag**2, b.real**2 + b.imag**2])
    f, t = _gram_features(r, h, x1, x2)
    if hint is None:
        j1, j2 = np.empty(len(t), dtype=np.intp), np.empty(len(t), dtype=np.intp)
        todo = np.arange(len(t))
    else:
        j1, j2 = (k.astype(np.intp) for k in hint)
        todo = np.flatnonzero(~_hint_proven(r, h, x1, x2, *hint, f, t))
        f, t = f[todo], t[todo]
    tol = _MARGIN * t * t
    k = np.empty(len(todo), dtype=np.intp)
    certified = np.empty(len(todo), dtype=bool)
    rows = _BLOCK // (M * M)
    for lo in range(0, len(todo), rows):
        q = f[lo:lo + rows] @ C
        kb = k[lo:lo + rows] = q.argmin(axis=1)
        i = np.arange(len(kb))
        best = q[i, kb]
        q[i, kb] = np.inf
        certified[lo:lo + rows] = q.min(axis=1) - best > tol[lo:lo + rows]
    j1[todo], j2[todo] = np.divmod(k, M)
    sub = todo[~certified]
    if len(sub):
        j1[sub], j2[sub] = _ml_search(tuple(v[sub] for v in r), tuple(v[sub] for v in h), x1, x2)
    return j1, j2


def detect(detector, r, h, alpha, c, hint=None):
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

    ``hint = (k1, k2)``, optional, holds a candidate codeword per trial as
    two integer arrays of symbol indices. It affects speed only, and only
    for ML: a trial whose candidate is proven the unique minimum (module
    docs) is decided without its table, and every other trial as without a
    hint, so the result is the exact ML decision whatever the hint. SIC
    ignores it.
    """
    alpha = validate_alpha(alpha)
    s1 = math.sqrt(alpha)
    s2 = math.sqrt(1.0 - alpha)
    points = c.points
    if detector == "ml":
        if hint is not None:
            hint = tuple(np.asarray(k) for k in hint)
            if len(hint) != 2 or any(k.shape != r[0].shape or k.dtype.kind not in "iu"
                                     or (k.size and (k.min() < 0 or k.max() >= c.M))
                                     for k in hint):
                raise ValueError(f"a hint is two arrays of indices in [0, {c.M}), one per trial")
        return _ml_gram(r, h, s1 * points, s2 * points, hint)
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
