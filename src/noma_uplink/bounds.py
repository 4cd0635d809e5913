"""PEP upper bounds, the union bound on the ABEP, and why alpha = 1/2 minimizes it.

Codewords are pairs of symbol indices; every quantity here is computed
from indices, ``Constellation.points`` and ``Constellation.hamming``. For
the error event from ``(i1, i2)`` to ``(k1, k2)``, with symbol differences
``(u, v) = (points[i1] - points[k1], points[i2] - points[k2])`` and
``n_bits = hamming[i1, k1] + hamming[i2, k2]``, the scaled difference
vector has squared norm

    d2(alpha) = alpha*|u|^2 + (1 - alpha)*|v|^2

and the pairwise error probability over 2x2 uncorrelated Rayleigh fading is
upper bounded by

    pep_bound(d2, n0) = (1 / (1 + d2/(4*n0)))^2

(the exponent 2 is the number of receive antennas). This is not the
Chernoff bound for the sampled noise, whose variance is n0 per real
component (see ``channel``). It is nonetheless a valid upper bound: with
``gamma = d2/(8*n0)`` and ``mu = sqrt(gamma/(1 + gamma))``, the exact
two-branch Rayleigh PEP is ``((1 - mu)/2)**2 * (2 + mu)``, which never
exceeds 3/4 of ``pep_bound`` (the ratio is 1/2 at gamma = 0 and tends to
3/4 from below as gamma grows).

The expression is written once, in ``_pep``, and squares with ``q*q``, an
exactly rounded product on floats and numpy arrays alike. So a Table-1 row,
``pairwise_sum_excess`` and the union bound all score an event with the
same bits.

The bit-weighted union bound averages ``n_bits * pep`` over every ordered
pair of distinct codewords and divides by ``M^2 * 2*log2(M)``.

That average depends on an event only through ``(|u|^2, |v|^2, n_bits)``,
so it is evaluated on the given constellation's distance spectrum, cached
per instance (one per kind): each distinct triple with its multiplicity,
grouped on the exact floating-point values, so every class member has the
same rounded term. An event is a symbol pair of user 1 with one of user 2,
so the spectrum is built from per-user classes: one user's M^2 symbol pairs
grouped on ``(|p_i - p_k|^2, hamming[i, k])`` (3 classes for QPSK, 13 for
16QAM), each event class a user-1 class with a user-2 class, ``n_bits``
the sum of theirs and the multiplicity the product, less the one pair in
which both users keep their symbol. No M^4-row event table is built.

``_bound_plan`` holds what depends only on the constellation and alpha,
built once per (instance, validated float alpha): each spectrum row's
``d2`` and one weight per row, ``n_bits`` times the row's power-of-two
share of its multiplicity. A bound is then the PEPs of those ``d2``, one
product with the weights, and ``math.fsum``, whose cost (with ``tolist``)
is the floor of an exactly rounded sum. Folding the power of two into the
weight rounds the same as scaling the rounded term, down to subnormal
PEPs (``union_bound_value`` gives the argument).

The symmetry argument: swapping the users maps the event ``(i1, i2) ->
(k1, k2)`` to ``(i2, i1) -> (k2, k1)``, which turns ``(u, v)`` into
``(v, u)`` with the same ``n_bits``, so the distance spectrum is its own
user swap. The two norms of a swapped pair, ``event_norm(u, v, alpha)`` and
``event_norm(v, u, alpha)``, always sum to ``|u|^2 + |v|^2``; for alpha >
1/2 they sit ``(alpha - 1/2)(|u|^2 - |v|^2)`` above and below their common
balanced norm (``symmetry_gaps``). The kernel is strictly convex in ``d2``,
so when ``|u| != |v|`` the pair's PEP sum exceeds twice the balanced PEP
(``pairwise_sum_excess > 0``) and grows strictly as the gap widens. Summed
over the pairs, the union bound rises strictly with alpha on [1/2, 1) and
is smallest at alpha = 1/2, the power-balanced case.

Because the summed PEPs span many orders of magnitude, every bound total is
accumulated with ``math.fsum`` (exactly rounded, partition-independent).

Table 1's ABEP footer is ``union_bound_value`` for QPSK at ``TABLE_ALPHAS``.
Every QPSK transmitted codeword has the same 15 event terms, so the bound
equals the ``fsum`` of the table rows' ``n_bits * pep`` divided by 4
exactly: the 16-codeword total is 16 times the row total, and scaling by a
power of two does not round.
"""

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import NamedTuple

import numpy as np

from .channel import validate_alpha, validate_alphas, validate_n0
from .constellation import _frozen, build_constellation


@dataclass(frozen=True)
class PepTableRow:
    """One row of the QPSK error-event table for transmitted (1+1j, 1+1j)."""

    event_id: str
    u: complex
    v: complex
    n_bits: int
    d2_alpha_lo: float
    d2_alpha_hi: float
    pep_alpha_lo: float
    pep_alpha_hi: float


def _pep(d2, n0):
    # The one PEP-bound expression, for a float or an array d2. It squares
    # with q * q: a float ``q ** 2`` calls libm pow, which can differ in the
    # last bit from the exactly rounded product that numpy computes.
    q = 1.0 / (1.0 + d2 / (4.0 * n0))
    return q * q


def pep_bound(d2, n0):
    """Upper bound on the pairwise error probability at squared distance d2."""
    validate_n0(n0)
    if not d2 >= 0:
        raise ValueError(f"squared distance must be nonnegative, got {d2}")
    return _pep(d2, n0)


def _abs2(z):
    # re*re + im*im, not abs()**2: bit-identical between the scalar and
    # numpy evaluation paths, which keeps the table and the full union bound
    # exactly consistent.
    z = complex(z)
    return z.real * z.real + z.imag * z.imag


def event_norm(u, v, alpha):
    """Squared norm of the scaled difference vector: alpha|u|^2 + (1-alpha)|v|^2."""
    alpha = validate_alpha(alpha)
    return alpha * _abs2(u) + (1.0 - alpha) * _abs2(v)


def symmetry_gaps(u, v, alpha):
    """Norm gaps of the symmetric event pair (u,v) and (v,u) vs. the balanced case.

    Requires |u| > |v| and alpha > 1/2; returns the exact pair
    ((alpha - 1/2)(|u|^2 - |v|^2), -(alpha - 1/2)(|u|^2 - |v|^2)), the first
    strictly positive and the second its negative.
    """
    alpha = validate_alpha(alpha)
    if not alpha > 0.5:
        raise ValueError("symmetry gaps are defined for alpha > 1/2")
    if not _abs2(u) > _abs2(v):
        raise ValueError("symmetry gaps require |u| > |v|")
    gap = (alpha - 0.5) * (_abs2(u) - _abs2(v))
    return (gap, -gap)


def pairwise_sum_excess(u, v, alpha, n0):
    """PEP-bound sum of a symmetric event pair minus twice the balanced PEP.

    The balanced-case norm is computed as the average of the two event norms
    (identical by the sum rule), so the excess is exactly 0.0 when |u| = |v|
    and strictly positive otherwise: the bound kernel is strictly convex in
    the squared distance, so the midpoint value is below the average.
    """
    d2_a = event_norm(u, v, alpha)
    d2_b = event_norm(v, u, alpha)
    d2_balanced = 0.5 * (d2_a + d2_b)
    return pep_bound(d2_a, n0) + pep_bound(d2_b, n0) - 2.0 * pep_bound(d2_balanced, n0)


@cache
def _distance_spectrum(c):
    """Union-bound terms ``(|u|^2, |v|^2, n_bits, scale)`` of constellation ``c``, read-only.

    The events are all M^2 (M^2 - 1) ordered pairs of distinct codewords.
    Each class of equal ``(|u|^2, |v|^2, n_bits)`` with multiplicity ``m``
    becomes one row per set bit ``2^k`` of ``m``, with ``scale = 2^k``.
    """
    # One user's symbol pairs i*M + k, grouped on (|points[i] - points[k]|^2,
    # hamming[i, k]) with their counts. Every entry is a finite float >=
    # +0.0, for which equal values are equal bits.
    diff = (c.points[:, None] - c.points[None, :]).ravel()
    pair = np.stack([diff.real * diff.real + diff.imag * diff.imag, c.hamming.ravel()], axis=1)
    classes, m = np.unique(pair, axis=0, return_counts=True)
    abs2, bits = classes.T
    # An event class is a user-1 class with a user-2 class. Distinct labels
    # differ in some bit, so only the pair of identity classes has n_bits = 0.
    n = len(m)
    events = np.stack([np.repeat(abs2, n), np.tile(abs2, n), (bits[:, None] + bits).ravel()], 1)
    keep = events[:, 2] > 0
    # no two class pairs share (|u|^2, |v|^2, n_bits) in Gray QPSK or 16QAM,
    # but pairs that do are merged into one class
    classes, which = np.unique(events[keep], axis=0, return_inverse=True)
    counts = np.zeros(len(classes), dtype=np.int64)
    np.add.at(counts, which.ravel(), np.outer(m, m).ravel()[keep])
    powers = np.arange(int(counts.max()).bit_length())
    row, k = np.nonzero((counts[:, None] >> powers) & 1)
    return tuple(_frozen(np.array(a)) for a in (*classes[row].T, np.ldexp(1.0, k)))


class _BoundPlan(NamedTuple):
    """The union bound's constants for one constellation and alpha; arrays are read-only."""

    d2: np.ndarray  # alpha*|u|^2 + (1 - alpha)*|v|^2, one per spectrum row
    weight: np.ndarray  # n_bits * scale, one per spectrum row
    denominator: int  # M^2 * 2*log2(M)


@lru_cache
def _bound_plan(c, alpha):
    """The ``_BoundPlan`` of constellation ``c`` at the validated float ``alpha``, built once."""
    abs_u2, abs_v2, n_bits, scale = _distance_spectrum(c)
    return _BoundPlan(_frozen(alpha * abs_u2 + (1.0 - alpha) * abs_v2), _frozen(n_bits * scale),
                      c.M**2 * 2 * c.bits_per_symbol)


def union_bound_value(c, alpha, n0):
    """Bit-weighted union bound on the ABEP, from the distance spectrum.

    Bit for bit the ``fsum`` of ``n_bits * pep_bound(d2, n0)`` over every
    ordered pair of distinct codewords, divided by ``M^2 * 2*log2(M)``. A
    class of multiplicity ``m`` stands for ``m`` equal rounded terms
    ``t = fl(n_bits * p)``; it is fed to ``fsum`` as the terms ``2^k * t``
    for the set bits of ``m``, and ``fsum`` sees the same exact total as
    from the ``m`` separate terms and rounds it once, the same way.

    Each such term is computed as one product, ``fl((n_bits * 2^k) * p)``,
    with the weight ``n_bits * 2^k`` (an integer below 2^53) folded in by
    ``_bound_plan``. That equals ``2^k * t`` for every ``p``: where
    ``n_bits * p >= 2^-1022``, scaling by ``2^k`` commutes with rounding and
    cannot overflow, since ``n_bits <= 2*log2(M) <= 8``, ``p <= 1`` and
    ``2^k <= m``; below ``2^-1022``, ``n_bits * p`` is an exact multiple of
    ``2^-1074``, so ``t`` is exact and both sides are the exact product.
    ``tests/test_bounds.py`` checks this against its scalar per-event
    reference, at an Eb/N0 where the terms are subnormal too.
    """
    alpha = validate_alpha(alpha)
    validate_n0(n0)
    plan = _bound_plan(c, alpha)
    return math.fsum((plan.weight * _pep(plan.d2, n0)).tolist()) / plan.denominator


# The 15 QPSK error events for transmitted codeword (0, 0) = (1+1j, 1+1j),
# as detected index pairs (k1, k2) in the conventional presentation order:
# single-axis single-user errors first, then equal-magnitude pairs, then
# diagonal differences.
_QPSK_TABLE_EVENTS = ((2, 0), (0, 2), (1, 0), (0, 1), (2, 2), (2, 1), (1, 2), (1, 1),
                      (3, 0), (0, 3), (3, 2), (2, 3), (3, 1), (1, 3), (3, 3))


# The error-event table's power splits: balanced, and 90% of the power to user 1.
TABLE_ALPHAS = (0.5, 0.9)


def error_event_pep_table(n0):
    """The 15-row QPSK error-event table: norms and noise-``n0`` PEP bounds at ``TABLE_ALPHAS``.

    Rows are labeled E1..E15 in the fixed order above, for the transmitted
    codeword (1+1j, 1+1j); by symmetry the QPSK PEP set is the same for
    every transmitted codeword.
    """
    c = build_constellation("qpsk")
    p, h = c.points, c.hamming
    rows = []
    for idx, (k1, k2) in enumerate(_QPSK_TABLE_EVENTS, start=1):
        du, dv = complex(p[0] - p[k1]), complex(p[0] - p[k2])
        d2_lo, d2_hi = (event_norm(du, dv, a) for a in TABLE_ALPHAS)
        rows.append(PepTableRow(f"E{idx}", du, dv, int(h[0, k1] + h[0, k2]), d2_lo, d2_hi,
                                pep_bound(d2_lo, n0), pep_bound(d2_hi, n0)))
    return rows


def argmin_alpha(pairs):
    """The ``(alpha, value)`` pair of least value; ties go to the smaller alpha."""
    return min(sorted(pairs), key=lambda pair: pair[1])


def optimal_alpha(c, n0, grid):
    """Argmin of the union bound over an alpha list; ties go to the smaller alpha."""
    return argmin_alpha((a, union_bound_value(c, a, n0)) for a in validate_alphas(grid))[0]
