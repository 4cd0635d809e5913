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
product, and only the trials that the hint check below leaves unproven
get ``y1``, ``y2`` and a packed row. Rows are taken ``_BLOCK // M^2`` at
a time, so each table stays in cache: on a 2-core x86-64 VM, 16QAM took
4.6-6.4 ms per 10^4 trials in 40,000-entry blocks, 8.3-9.9 in 5,000-entry
blocks and 16-30 in one table per 2,500-trial slice. What depends only
on the constellation and alpha (the scaled symbols, ``C``, ``P1``, ``P2``,
``d1^2`` and ``d2^2`` below) is built once per (constellation, alpha) by
``_ml_plan``, not per call.

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
* ``d1^2`` and ``d2^2`` the least ``|x[k] - x[l]|^2`` over ``k != l`` of
  user 1's and of user 2's scaled symbols;
* ``s^2 = min(a d1^2, b d2^2, lmin (d1^2 + d2^2))``.

Every other codeword ``w`` differs from ``w0`` by ``(D1, D2) = x(w) -
x(w0)``, and ``H (x(w) - x(w0)) = h1 D1 + h2 D2``. The bound splits three
cases, as the per-layer pruning of sphere decoders does (Agrell, Eriksson,
Vardy & Zeger, IEEE Trans. IT 2002):

* only user 1's symbol differs: ``||h1 D1||^2 = a |D1|^2 >= a d1^2``;
* only user 2's symbol differs: ``||h2 D2||^2 = b |D2|^2 >= b d2^2``;
* both differ: ``||H (D1, D2)||^2 >= lmin (|D1|^2 + |D2|^2) >= lmin (d1^2 +
  d2^2)``.

So ``||H (x(w) - x(w0))|| >= s`` in every case, and by the triangle
inequality ``||r - H x(w)|| >= s - e``. When ``s >= e`` that gives ``||r -
H x(w)||^2 - e^2 >= s (s - 2e)``. The single bound ``lmin min(d1^2,
d2^2)`` never exceeds this ``s^2``, since ``a, b >= lmin``, and falls far
below it when one column is weak and the powers are unequal.

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
* ``a d1^2 (1 - 32 u)`` and ``b d2^2 (1 - 32 u)`` bound ``a d1^2`` and ``b
  d2^2`` from below. ``a`` and ``b`` are within ``gamma_4`` of exact, and
  so is each ``d^2``: the difference, the two squares and their sum round
  once each. Forming ``d^2 (1 - 32 u)`` and its product with ``a`` or
  ``b`` rounds twice more, so the computed term is at most ``(1 + 10.1
  u)(1 - 32 u) < 1`` times its exact value.
* In ``lmin (d1^2 + d2^2)`` the sum of the two ``d^2`` is within
  ``gamma_5`` of exact, and the quotient and the product round once each,
  so the computed term is at most ``1 + 7 u`` times its exact value. With
  the sum ``E`` and the products in ``4.5 E^2``, the roundings that no
  slack covers come to at most ``11 u`` relative, which lowers the
  effective constant 4.5 by less than ``1e-14``.

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
trials take the table path above. The check, with the Gram entries and
``T`` it reads, costs 0.7-0.9 ms per 10^4 trials (2,500-trial slices on a
2-core x86-64 VM). At QPSK 10 dB or less, or at alpha 0.99 and 20 dB or
less, it proves under 45% of sent codewords. Where it proves under 20% it
is a net loss of 0.2-0.7 ms per 10^4 trials, but such points stop after
one 10^4-trial block.

Both detectors assume the channel matrix is known exactly and return hard
decisions (no soft outputs). Ties are broken toward the lowest codeword
enumeration index so results are reproducible; with continuous noise a tie
is a measure-zero event.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from .channel import validate_alpha
from .constellation import _frozen

DETECTORS = ("ml", "sic")

# Relative metric gap at or under which ML falls back to the M^2 search.
_MARGIN = 1e-12
# Entries of the Gram-form table computed at once.
_BLOCK = 40_000
# Unit roundoff of float64; the hint check's slacks are multiples of it.
_U = 2.0**-53


class _MlPlan(NamedTuple):
    """ML's constants for one constellation and alpha; every array is read-only."""

    x1: np.ndarray  # sqrt(alpha) * points
    x2: np.ndarray  # sqrt(1 - alpha) * points
    C: np.ndarray  # 8 x M^2 Gram-form coefficients, row-major codewords
    p1: float  # max |x1|
    p2: float  # max |x2|
    d1: float  # least |x1[k] - x1[l]|^2, k != l
    d2: float  # least |x2[k] - x2[l]|^2, k != l


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


def _min_sq_distance(x):
    """Least ``|x[k] - x[l]|^2`` over ``k != l``."""
    d = x[:, None] - x
    d2 = d.real**2 + d.imag**2
    return d2[~np.eye(len(x), dtype=bool)].min()


@functools.lru_cache
def _ml_plan(c, alpha):
    """The ``_MlPlan`` of constellation ``c`` at the validated float ``alpha``, built once."""
    x1, x2 = math.sqrt(alpha) * c.points, math.sqrt(1.0 - alpha) * c.points
    a, b = np.repeat(x1, c.M), np.tile(x2, c.M)
    ab = a.conj() * b
    C = np.stack([-2 * a.real, -2 * a.imag, -2 * b.real, -2 * b.imag,
                  2 * ab.real, -2 * ab.imag, a.real**2 + a.imag**2, b.real**2 + b.imag**2])
    return _MlPlan(_frozen(x1), _frozen(x2), _frozen(C), float(np.abs(x1).max()),
                   float(np.abs(x2).max()), float(_min_sq_distance(x1)),
                   float(_min_sq_distance(x2)))


def _gram_features(r, h, plan):
    """Each trial's Gram entries ``(g, a, b)`` (module docs) and its scale ``T``."""
    r1, r2 = r
    h11, h12, h21, h22 = h
    gab = (h11.conj() * h12 + h21.conj() * h22, _metric(h11, h21), _metric(h12, h22))
    t = abs(r1) + abs(r2) + (abs(h11) + abs(h21)) * plan.p1 + (abs(h12) + abs(h22)) * plan.p2
    return gab, t


def _table_features(r, h, gab, rows):
    """The 8 real features of trials ``rows``, in the table's row order."""
    r1, r2 = r
    h11, h12, h21, h22 = h
    g, a, b = (v[rows] for v in gab)
    # f's real view: h1^H r, h2^H r, h1^H h2 (re, im), |h1|^2, |h2|^2
    f = np.empty((len(g), 4), dtype=complex)
    f[:, 0] = h11[rows].conj() * r1[rows] + h21[rows].conj() * r2[rows]
    f[:, 1] = h12[rows].conj() * r1[rows] + h22[rows].conj() * r2[rows]
    f[:, 2] = g
    f = f.view(np.float64)
    f[:, 6] = a
    f[:, 7] = b
    return f


def _radius2(gab, plan):
    """Each trial's computed ``s^2``, at most the least ``||H (x(w) - x(w0))||^2`` (module docs)."""
    g, a, b = gab
    gg = g.real**2 + g.imag**2
    ab = a * b
    lmax = (a + b + np.sqrt((a - b)**2 + 4 * gg)) / 2 * (1 + 32 * _U)
    lmin = (ab - gg - 32 * _U * ab) / lmax
    one_user = np.minimum(a * (plan.d1 * (1 - 32 * _U)), b * (plan.d2 * (1 - 32 * _U)))
    return np.minimum(one_user, lmin * (plan.d1 + plan.d2))


def _hint_proven(r, h, plan, k1, k2, gab, t):
    """Mask of trials whose hint ``(k1, k2)`` is proven the unique float minimum of ``_score``."""
    r1, r2 = r
    h11, h12, h21, h22 = h
    s2 = _radius2(gab, plan)
    y1, y2 = plan.x1[k1], plan.x2[k2]
    e = np.sqrt(_metric(r1 - (h11 * y1 + h12 * y2), r2 - (h21 * y1 + h22 * y2))) + 16 * _U * t
    return (s2 > 4.5 * e * e) & (s2 > 1e-9 * t * t)


def _table_argmin(f, tol, C):
    """First argmin of each row's table ``f @ C``, and whether its gap exceeds the row's ``tol``."""
    q = f @ C
    k = q.argmin(axis=1)
    i = np.arange(len(k))
    best = q[i, k]
    q[i, k] = np.inf
    return k, q.min(axis=1) - best > tol


def _ml_gram(r, h, plan, hint):
    """First argmin of the Gram-form table, with the M^2 search where the gap is unproven.

    A trial whose hint is proven by ``_hint_proven`` takes it and skips the table.
    """
    M = len(plan.x1)
    gab, t = _gram_features(r, h, plan)
    if hint is None:
        j1, j2 = np.empty(len(t), dtype=np.intp), np.empty(len(t), dtype=np.intp)
        todo = np.arange(len(t))
        f = _table_features(r, h, gab, slice(None))  # views, not copies, of every row
    else:
        j1, j2 = (k.astype(np.intp) for k in hint)
        todo = np.flatnonzero(~_hint_proven(r, h, plan, *hint, gab, t))
        f, t = _table_features(r, h, gab, todo), t[todo]
    tol = _MARGIN * t * t
    k = np.empty(len(todo), dtype=np.intp)
    certified = np.empty(len(todo), dtype=bool)
    rows = _BLOCK // (M * M)
    for lo in range(0, len(todo), rows):
        block = slice(lo, lo + rows)
        k[block], certified[block] = _table_argmin(f[block], tol[block], plan.C)
    j1[todo], j2[todo] = np.divmod(k, M)
    sub = todo[~certified]
    if len(sub):
        j1[sub], j2[sub] = _ml_search(tuple(v[sub] for v in r), tuple(v[sub] for v in h),
                                      plan.x1, plan.x2)
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
    if detector == "ml":
        if hint is not None:
            hint = tuple(np.asarray(k) for k in hint)
            if len(hint) != 2 or any(k.shape != r[0].shape or k.dtype.kind not in "iu"
                                     or (k.size and (k.min() < 0 or k.max() >= c.M))
                                     for k in hint):
                raise ValueError(f"a hint is two arrays of indices in [0, {c.M}), one per trial")
        return _ml_gram(r, h, _ml_plan(c, alpha), hint)
    if detector == "sic":
        s1 = math.sqrt(alpha)
        s2 = math.sqrt(1.0 - alpha)
        points = c.points
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
