"""Hard-decision detectors: exact joint ML from a Gram-form table of all M^2
metrics, and a 2M-metric successive-interference-cancellation baseline.

``detect`` is the one implementation of both: it decides a whole batch of
received vectors at once. The Monte Carlo harness calls ML on the trials
that ``bracket_proven`` (below) leaves unproven, and SIC on every trial.

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
40,000-entry blocks, 8.3-9.9 in 5,000-entry blocks and 16-30 in one table
per 2,500-trial slice. What depends only
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

The bounds are relative to ``T^2`` and assume that nothing underflows. An
operation that underflows errs by up to ``2**-1075`` in absolute terms,
which no relative bound covers. So a trial whose computed ``T`` is at or
under 1e-150 is decided by the M^2 search: there ``_MARGIN * T^2`` may
itself underflow, and scaling 10 dB trials by 1e-161 made the table's gap
certify a wrong argmin on 3-13% of them. Above the floor the margin
exceeds 1e-312, while the at most a few hundred underflowing operations
behind two table entries and two ``_score`` metrics add under 1e-320. A
trial whose gap is at or under the margin (an exact tie, as a zero user-2
column gives) or is not finite (any NaN) also goes to the search; with
continuous noise each case is rare. The decisions therefore equal the
M^2 search's, ties included, whatever the BLAS thread count.

The Monte Carlo harness proves most sent codewords to be the ML decision
before any normal is computed, with the sphere decoder's radius argument.
For a trial with channel ``H``, received vector ``r`` and sent codeword
``w0``, in exact arithmetic on the float inputs, let:

* ``e = ||r - H x(w0)||``;
* ``a = |h1|^2``, ``b = |h2|^2`` and ``g = h1^H h2``, the entries of ``G =
  H^H H``;
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

If ``s > 2.1213 e`` and ``s^2 > 0.99e-9 T^2``, every other codeword's
metric exceeds the sent one's by at least ``s (s - 2e) >= (1 - 2 / 2.1213)
s^2 >= 0.0571 s^2 >= 5.6e-11 T^2``. Rounding can move two ``_score``
entries by at most ``2 * 13 u T^2 = 26 u T^2``, about ``2.9e-15 T^2``. So
the sent codeword's float ``_score`` is strictly the least of the M^2, and
``_ml_search`` returns it whatever its tie rule, as does ``detect("ml",
...)``.

``_radius2`` computes ``s^2`` from computed Gram entries. Each of its terms
is made a one-sided bound by a slack derived term by term, so the computed
``s^2`` is at most the exact one:

* ``a b - |g|^2 - 32 u a b`` bounds ``a b - |g|^2`` from below. ``a`` and
  ``b`` are within ``gamma_4`` of exact, and each part of ``g`` within
  ``gamma_3 sqrt(ab)``. So the computed ``a b - |g|^2`` is within ``(9 +
  8.5 + 2 + 1) u ab < 21 u ab`` of exact: ``gamma_9`` for the product,
  ``2 sqrt(2) gamma_3 ab`` for the change of ``|g|^2``, ``gamma_2`` for
  forming it and ``u`` for the difference. Subtracting the slack rounds by
  at most ``u ab`` more, so the computed value is at most ``a b - |g|^2 -
  10 u ab``.
* ``lmax (1 + 32 u)`` bounds ``lmax`` from above. By Weyl's inequality the
  rounded ``G`` moves ``lmax`` by at most ``gamma_4 max(a, b) + sqrt(2)
  gamma_3 sqrt(ab) <= 8.3 u lmax``. Evaluating the formula adds at most ``5
  u`` relative, since its terms are non-negative and ``a - b`` is only
  squared. So the computed value is at least ``lmax (1 + 17 u)``.
* ``a d1^2 (1 - 32 u)`` and ``b d2^2 (1 - 32 u)`` bound ``a d1^2`` and ``b
  d2^2`` from below. ``a`` and ``b`` are within ``gamma_4`` of exact, and
  so is each ``d^2``: the difference, the two squares and their sum round
  once each. Forming ``d^2 (1 - 32 u)`` and its product with ``a`` or
  ``b`` rounds twice more, so the computed term is at most ``(1 + 10.1
  u)(1 - 32 u) < 1`` times its exact value.
* The computed ``lmin`` is at most ``(1 - 10 u)(1 + u) / (1 + 17 u) < 1 -
  25 u`` times the exact one, since ``a b >= a b - |g|^2``, or not
  positive. The sum of the two ``d^2`` is within ``gamma_5`` of exact, and
  the product rounds once, so ``lmin (d1^2 + d2^2)`` as computed stays
  below its exact value too.

``bracket_proven`` reads draw rows, not received vectors: for each of a
row's 12 normals, ``rng.normal_brackets`` gives a midpoint ``m`` and a
radius ``q`` with ``|z - m| <= q`` for the float normal ``z`` that
``synthesize`` would compute, and ``q >= 2**-32 |m|`` (see ``rng``).
``synthesize`` forms each channel part as ``fl(z / fl(sqrt(2)))`` and
each noise part as ``fl(z fl(sqrt(n0)))``, and the received vector as
``r = H x(w0) + w + dr``, where ``x(w0)`` is the sent codeword, with the
plan's ``x1`` and ``x2`` (the same float products), and ``dr`` is the
rounding of ``r``. A row is proven when the radius argument holds for
that ``H`` and ``r``, with a lower bound ``S`` on ``s`` and upper bounds
``E`` on ``e`` and ``T_up`` on ``T``, all read from the brackets. In
exact arithmetic on the float brackets, with ``Hm`` the channel whose
parts are the midpoints over ``sqrt(2)`` and ``wm`` the noise midpoints
times ``sqrt(n0)``:

* Each part of ``H - Hm`` is at most ``(q + gamma_2 (|m| + q)) / sqrt(2)
  <= q (1 + 2**-19) / sqrt(2)``, since ``|m| <= 2**32 q``. So ``||H -
  Hm||_F <= rho_H``, with ``rho_H = (1 + 2**-19) ||q_H|| / sqrt(2)`` for
  the norm of the 8 channel radii. Likewise ``||w - wm|| <= rho_w = (1 +
  2**-19) sqrt(n0) ||q_w||``.
* ``s_m = sqrt(s^2 / 2)``, with ``s^2`` from ``_radius2`` on the Gram
  entries of the (unscaled) channel midpoints, bounds from below the
  ``s`` of ``Hm``, whose Gram matrix is half theirs. Then ``S = s_m -
  rho_H sqrt(d1^2 + d2^2)`` bounds every ``||H D||`` from below, case by
  case. If only user 1's symbol differs, ``||h1 D1|| >= (||hm1|| - rho_H)
  |D1|``, which is at least ``(||hm1|| - rho_H) d1 >= S`` when ``||hm1||
  >= rho_H`` (``s_m <= ||hm1|| d1``) and exceeds the negative ``S``
  otherwise; user 2 alone is the same. If both differ, ``||H D|| >= (sigma_min(Hm) -
  rho_H) ||D||`` by Weyl's inequality for singular values, and
  ``sigma_min(Hm) sqrt(d1^2 + d2^2) >= s_m``.
* ``e = ||w + dr|| <= ||wm|| + rho_w + ||dr||``. Each real part of
  ``dr`` is within ``gamma_4`` of the absolute sum of its four products
  and its noise part, which is at most ``B_i = |h_i1| P1 + |h_i2| P2 +
  |w_i|``. So ``||dr|| <= sqrt(2) gamma_4 (B_1 + B_2) <= 2.9 u T_up``
  below.
* ``T <= 2 (B_1 + B_2) (1 + 3 u)``, since ``|r_i| <= B_i (1 + sqrt(2)
  gamma_4)``. With ``|h11| + |h21| <= sqrt(2) ||h1|| <= sqrt(2)
  (||hm1|| + rho_H)``, the same for user 2 and ``|w1| + |w2| <= sqrt(2)
  (||wm|| + rho_w)``, ``T_up = 2 sqrt(2) ((||hm1|| + rho_H) P1 +
  (||hm2|| + rho_H) P2 + ||wm|| + rho_w)`` bounds both ``2 (B_1 + B_2)``
  and ``T`` from above, with ``||hm1|| = sqrt(am / 2)`` for the
  midpoints' ``am = |m11|^2 + |m21|^2`` and ``||hm2||`` the same from
  ``bm``.

The computed check multiplies each of ``rho_H``, ``||wm|| + rho_w`` and
``T_up`` by ``1 + 2**-16``, which exceeds ``(1 + 2**-19)`` times the at
most ``20 u`` relative rounding of each, their factors' roundings
included. It takes ``E = ||wm|| + rho_w + 4 u T_up`` and subtracts ``4 u
T_up`` from ``S``. The latter covers the upward rounding of the square
root and of ``S``'s difference, at most ``2 u s_m``, since ``s_m <=
sqrt(am d1^2 / 2) <= T_up``. The roundings no slack covers, the last
subtraction, the squares and the products with 4.5 and 1e-9, come to at
most ``6 u`` relative. So ``S^2 > 4.5 E^2`` and ``S^2 > 1e-9 T_up^2``, as
computed, give ``s > 2.1213 e`` and ``s^2 > 0.99e-9 T^2`` for the
trial's float ``H`` and ``r``, and by the gap step above the sent
codeword is the unique float minimum of ``_score`` and the decision of
``detect("ml", ...)``. ``S > 0`` is also required, so a negative ``S``
never passes through the squares.

The check needs no floor on ``T``, unlike the table. No midpoint is
smaller than about 3e-4 in magnitude (the cells next to 1/2), and
``sqrt(n0)`` is at least about 2e-162 for any positive float ``n0``, so
none of the check's own operations underflows, and ``T_up`` is at least
about 8e-4. A proven row then has ``S^2 > 1e-9 T_up^2 > 6e-16``, so its
gap ``0.0571 s^2`` is far above the ``2**-1075`` by which a square that
underflows in the trial's float ``_score`` (of a tiny residual part) can
err.

On a 2-core x86-64 VM the check, with its two bracket reads, costs
1.4-1.5 ms per 10^4 trials (2,500-trial QPSK slices), against 2.4-2.5 ms
for ``synthesize`` (1.8-1.9 of it ``ndtri``) and 2.2 ms for ``detect`` on
the whole slice. The harness decides a block's unproven trials in held
batches of at most 1,250 rows, one batch a block at high Eb/N0: at QPSK
alpha 0.5 they took 0.08-0.09 ms of ``detect`` per 10^4 drawn trials at
30 dB and 0.24 at 20 dB. The check proves 98.7% of sent
codewords at QPSK alpha 0.5, 30 dB, 96.7% at 25 dB, 89.2% at alpha 0.99,
30 dB, and 90.7% at 16QAM alpha 0.5, 24 dB. A trial with a channel normal
in the first or last of the 4,096 cells, whose bracket reaches into the
tail, is seldom proven, so even at 60 dB 0.4% are left.

Both detectors assume the channel matrix is known exactly and return hard
decisions (no soft outputs). Ties are broken toward the lowest codeword
enumeration index so results are reproducible; with continuous noise a tie
is a measure-zero event.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from .channel import CHANNEL_COLUMNS, NOISE_COLUMNS, validate_alpha, validate_n0
from .constellation import _frozen
from .rng import normal_brackets

DETECTORS = ("ml", "sic")

# Relative metric gap at or under which ML falls back to the M^2 search.
_MARGIN = 1e-12
# Entries of the Gram-form table computed at once.
_BLOCK = 40_000
# Unit roundoff of float64; the certificates' slacks are multiples of it.
_U = 2.0**-53
# Upward factor of the bracketed check's radii and bounds (module docs).
_WIDEN = 1 + 2.0**-16


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


def _gram(h11, h12, h21, h22):
    """The Gram entries ``(g, a, b)`` of each trial's channel (module docs)."""
    return h11.conj() * h12 + h21.conj() * h22, _metric(h11, h21), _metric(h12, h22)


def _gram_features(r, h, plan):
    """Each trial's Gram entries ``(g, a, b)`` (module docs) and its scale ``T``."""
    r1, r2 = r
    h11, h12, h21, h22 = h
    t = abs(r1) + abs(r2) + (abs(h11) + abs(h21)) * plan.p1 + (abs(h12) + abs(h22)) * plan.p2
    return _gram(*h), t


def _table_features(r, h, gab):
    """The 8 real features of each trial, in the table's row order."""
    r1, r2 = r
    h11, h12, h21, h22 = h
    g, a, b = gab
    # f's real view: h1^H r, h2^H r, h1^H h2 (re, im), |h1|^2, |h2|^2
    f = np.empty((len(g), 4), dtype=complex)
    f[:, 0] = h11.conj() * r1 + h21.conj() * r2
    f[:, 1] = h12.conj() * r1 + h22.conj() * r2
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


def bracket_proven(u, c, alpha, n0):
    """Mask of draw rows ``u`` whose sent codeword is proven ML's decision from brackets.

    A row is proven when its sent codeword is the unique float minimum of
    ``_score`` on the channel and received vector that ``synthesize(u, c,
    alpha, n0)`` would produce, which is then the decision of
    ``detect("ml", ...)``. Only ``rng.normal_brackets`` of the row's 12
    normals is read, never the normals (module docs).
    """
    s, e, t = _bracket_bounds(u, _ml_plan(c, validate_alpha(alpha)), validate_n0(n0))
    return (s > 0) & (s * s > 4.5 * e * e) & (s * s > 1e-9 * t * t)


def _bracket_bounds(u, plan, n0):
    """Each draw row's computed ``S``, ``E`` and ``T_up`` (module docs)."""
    h, qh = _brackets(u[:, CHANNEL_COLUMNS])
    gab = _gram(*h.T)
    del h  # freed before the noise is read, which keeps the slice's heap peak low
    s2 = _radius2(gab, plan)
    qh *= math.sqrt(0.5) * _WIDEN
    w, qw = _brackets(u[:, NOISE_COLUMNS])
    ew = (np.sqrt(_metric(*w.T)) + qw) * (math.sqrt(n0) * _WIDEN)
    _, a, b = gab
    t = ((np.sqrt(a * 0.5) + qh) * plan.p1 + (np.sqrt(b * 0.5) + qh) * plan.p2 + ew) * (
        2 * math.sqrt(2) * _WIDEN)
    s = np.sqrt(np.maximum(s2, 0.0) * 0.5) - qh * math.sqrt(plan.d1 + plan.d2) - 4 * _U * t
    return s, ew + 4 * _U * t, t


def _brackets(v):
    """Bracket midpoints of the normals ``v`` as complex entries, and each row's radius norm."""
    mid, rad = normal_brackets(v)
    return mid.view(np.complex128), np.sqrt(np.einsum("ij,ij->i", rad, rad))


def _table_argmin(f, tol, C):
    """First argmin of each row's table ``f @ C``, and whether its gap exceeds the row's ``tol``."""
    q = f @ C
    k = q.argmin(axis=1)
    i = np.arange(len(k))
    best = q[i, k]
    q[i, k] = np.inf
    return k, q.min(axis=1) - best > tol


def _ml_gram(r, h, plan):
    """First argmin of the Gram-form table, with the M^2 search where the gap is unproven."""
    M = len(plan.x1)
    gab, t = _gram_features(r, h, plan)
    f = _table_features(r, h, gab)
    # at T <= 1e-150 the bounds may underflow, so no gap certifies (module docs)
    tol = np.where(t > 1e-150, _MARGIN * t * t, np.inf)
    k = np.empty(len(t), dtype=np.intp)
    certified = np.empty(len(t), dtype=bool)
    rows = _BLOCK // (M * M)
    for lo in range(0, len(t), rows):
        block = slice(lo, lo + rows)
        k[block], certified[block] = _table_argmin(f[block], tol[block], plan.C)
    j1, j2 = np.divmod(k, M)
    sub = ~certified
    if sub.any():
        j1[sub], j2[sub] = _ml_search(tuple(v[sub] for v in r), tuple(v[sub] for v in h),
                                      plan.x1, plan.x2)
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
    if detector == "ml":
        return _ml_gram(r, h, _ml_plan(c, alpha))
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
