"""PEP bound, error-event enumeration, union bound, and the symmetry analysis.

``enumerate_error_events`` is the scalar, one-event-at-a-time reference for
the distance spectrum that ``union_bound_value`` evaluates; it lives here,
not in the package, because only the tests run it.

Frozen expected values were computed independently: the bound kernel
(1/(1 + d2/(4 n0)))^2 evaluated by hand for the tabulated squared distances
(e.g. d2 = 2, n0 = 0.01 gives 1/51^2 = 3.8447e-4), and the per-event bit
counts enumerated from the fixed Gray map.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noma_uplink import (
    TABLE_ALPHAS,
    NoiseModel,
    build_constellation,
    error_event_pep_table,
    event_norm,
    optimal_alpha,
    pairwise_sum_excess,
    pep_bound,
    symmetry_gaps,
    union_bound_value,
)
from noma_uplink.bounds import _abs2, _bound_plan, _distance_spectrum

QPSK = build_constellation("qpsk")
QAM16 = build_constellation("qam16")


@dataclass(frozen=True)
class ErrorEvent:
    """A nonzero difference pair with its bit count."""

    u: complex
    v: complex
    n_bits: int


def enumerate_error_events(c, i1, i2):
    """All M^2 - 1 error events for the transmitted codeword ``(i1, i2)``.

    Row-major over the detected indices ``(k1, k2)`` (user 2 fastest), with
    the transmitted pair skipped. This is the scalar reference that the
    distance spectrum of ``union_bound_value`` condenses.
    """
    if not (0 <= i1 < c.M and 0 <= i2 < c.M):
        raise IndexError(f"symbol index out of range for M={c.M}: ({i1}, {i2})")
    p, h = c.points, c.hamming
    return [ErrorEvent(p[i1] - p[k1], p[i2] - p[k2], h[i1][k1] + h[i2][k2])
            for k1 in range(c.M) for k2 in range(c.M) if (k1, k2) != (i1, i2)]

# The 15 QPSK error events of the transmitted codeword (1+1j, 1+1j):
# (u, v, bits, d2 at alpha=0.5, d2 at alpha=0.9). Bits counted by hand from
# the Gray map: one-axis difference = 1 bit, diagonal difference = 2 bits.
QPSK_EVENTS = [
    ("E1", 2 + 0j, 0j, 1, 2.0, 3.6),
    ("E2", 0j, 2 + 0j, 1, 2.0, 0.4),
    ("E3", 2j, 0j, 1, 2.0, 3.6),
    ("E4", 0j, 2j, 1, 2.0, 0.4),
    ("E5", 2 + 0j, 2 + 0j, 2, 4.0, 4.0),
    ("E6", 2 + 0j, 2j, 2, 4.0, 4.0),
    ("E7", 2j, 2 + 0j, 2, 4.0, 4.0),
    ("E8", 2j, 2j, 2, 4.0, 4.0),
    ("E9", 2 + 2j, 0j, 2, 4.0, 7.2),
    ("E10", 0j, 2 + 2j, 2, 4.0, 0.8),
    ("E11", 2 + 2j, 2 + 0j, 3, 6.0, 7.6),
    ("E12", 2 + 0j, 2 + 2j, 3, 6.0, 4.4),
    ("E13", 2 + 2j, 2j, 3, 6.0, 7.6),
    ("E14", 2j, 2 + 2j, 3, 6.0, 4.4),
    ("E15", 2 + 2j, 2 + 2j, 4, 8.0, 8.0),
]


class TestPepBound:
    def test_known_values(self):
        assert pep_bound(2.0, 0.01) == pytest.approx(1 / 51**2, rel=1e-14)
        assert pep_bound(2.0, 0.01) == pytest.approx(3.845e-4, rel=1e-3)
        assert pep_bound(7.2, 0.01) == pytest.approx(1 / 181**2, rel=1e-14)
        assert pep_bound(0.4, 0.01) == pytest.approx(1 / 11**2, rel=1e-14)

    def test_zero_distance_gives_one(self):
        assert pep_bound(0.0, 0.37) == 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            pep_bound(1.0, 0.0)
        with pytest.raises(ValueError):
            pep_bound(1.0, -0.1)
        with pytest.raises(ValueError):
            pep_bound(-1.0, 0.1)
        for n0 in (math.nan, math.inf):
            with pytest.raises(ValueError):
                pep_bound(1.0, n0)
        with pytest.raises(ValueError):
            pep_bound(math.nan, 0.1)

    def test_exact_rayleigh_pep_within_three_quarters(self):
        # The sampled noise has variance n0 per real component, so pep_bound
        # is not its Chernoff bound. It bounds the exact two-branch Rayleigh
        # PEP ((1 - mu)/2)^2 (2 + mu), mu = sqrt(gamma/(1 + gamma)),
        # gamma = d2/(8 n0), because that PEP never exceeds 3/4 of it.
        # 1 - mu is written as 1/((1 + gamma)(1 + mu)): the plain difference
        # cancels at large gamma and overshoots 3/4 by about 1.5e-8.
        n0 = 0.01
        gamma = np.logspace(-8, 8, 200_001)
        mu = np.sqrt(gamma / (1.0 + gamma))
        exact = (1.0 / ((1.0 + gamma) * (1.0 + mu)) / 2.0) ** 2 * (2.0 + mu)
        bound = np.array([pep_bound(d2, n0) for d2 in (8.0 * n0 * gamma).tolist()])
        ratio = exact / bound
        assert (exact <= 0.75 * bound).all(), ratio.max()
        assert ratio.max() > 0.7499  # the 3/4 is approached, so it is the tight constant

    @given(
        d2a=st.floats(0.0, 50.0),
        d2b=st.floats(0.0, 50.0),
        n0=st.floats(1e-4, 10.0),
    )
    @settings(max_examples=200)
    def test_monotone_decreasing_in_d2(self, d2a, d2b, n0):
        # Strict ordering is only required when the separation is resolvable
        # in double precision (sub-ulp differences collapse).
        pa, pb = pep_bound(d2a, n0), pep_bound(d2b, n0)
        if d2a < d2b:
            assert pa >= pb
            if d2b - d2a > 1e-6:
                assert pa > pb
        elif d2a == d2b:
            assert pa == pb

    @given(
        d2=st.floats(0.1, 50.0),
        n0a=st.floats(1e-4, 10.0),
        n0b=st.floats(1e-4, 10.0),
    )
    @settings(max_examples=200)
    def test_monotone_increasing_in_n0(self, d2, n0a, n0b):
        if n0a < n0b:
            assert pep_bound(d2, n0a) <= pep_bound(d2, n0b)
            if n0b - n0a > 1e-6 * n0b:
                assert pep_bound(d2, n0a) < pep_bound(d2, n0b)


class TestEventNorm:
    def test_known_values(self):
        assert event_norm(2, 0, 0.9) == pytest.approx(3.6, rel=1e-14)
        assert event_norm(2 + 2j, 0, 0.5) == pytest.approx(4.0, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.5, 0.7, 0.99])
    def test_alpha_independent_when_magnitudes_equal(self, alpha):
        assert event_norm(2, 2j, alpha) == pytest.approx(4.0, rel=1e-14)

    @given(
        ur=st.floats(-4, 4), ui=st.floats(-4, 4),
        vr=st.floats(-4, 4), vi=st.floats(-4, 4),
        alpha=st.floats(0.5, 0.999),
    )
    @settings(max_examples=300)
    def test_sum_rule(self, ur, ui, vr, vi, alpha):
        u, v = complex(ur, ui), complex(vr, vi)
        total = event_norm(u, v, alpha) + event_norm(v, u, alpha)
        assert total == pytest.approx(abs(u) ** 2 + abs(v) ** 2, rel=1e-12, abs=1e-12)


class TestSymmetryGaps:
    def test_known_pair(self):
        g1, g2 = symmetry_gaps(2, 0, 0.9)
        assert g1 == pytest.approx(1.6, rel=1e-12)
        assert g2 == -g1

    def test_gaps_vanish_toward_balance(self):
        for alpha in (0.6, 0.51, 0.5001, 0.5 + 1e-9):
            g1, g2 = symmetry_gaps(2, 0, alpha)
            assert g1 > 0 and g1 + g2 == 0.0
            assert g1 == pytest.approx((alpha - 0.5) * 4.0, rel=1e-9)

    def test_matches_norm_differences(self):
        u, v, alpha = 2 + 2j, 1j, 0.87
        g1, g2 = symmetry_gaps(u, v, alpha)
        assert g1 == pytest.approx(event_norm(u, v, alpha) - event_norm(u, v, 0.5), rel=1e-12)
        assert g2 == pytest.approx(event_norm(v, u, alpha) - event_norm(u, v, 0.5), rel=1e-12)

    def test_rejects_non_dominant_u(self):
        with pytest.raises(ValueError):
            symmetry_gaps(1, 2, 0.9)
        with pytest.raises(ValueError):
            symmetry_gaps(2, 2j, 0.9)  # equal magnitudes

    def test_rejects_balanced_alpha(self):
        with pytest.raises(ValueError, match="alpha > 1/2"):
            symmetry_gaps(2, 0, 0.5)


class TestPairwiseSumExcess:
    def test_table_pair(self):
        # E1/E2 pair at alpha = 0.9: (1.2e-4 + 8.26e-3) - 2 * 3.84e-4 > 0.
        excess = pairwise_sum_excess(2, 0, 0.9, 0.01)
        expected = pep_bound(3.6, 0.01) + pep_bound(0.4, 0.01) - 2 * pep_bound(2.0, 0.01)
        assert excess == pytest.approx(expected, rel=1e-12)
        assert excess > 0

    def test_equal_magnitudes_give_exact_zero(self):
        assert pairwise_sum_excess(2, 2j, 0.9, 0.01) == 0.0
        assert pairwise_sum_excess(1 + 1j, 1 - 1j, 0.77, 0.3) == 0.0

    def test_positive_on_exhaustive_qpsk_pairs(self):
        diffs = sorted({a - b for a in QPSK.points for b in QPSK.points},
                       key=lambda z: (z.real, z.imag))
        for alpha in (0.6, 0.9, 0.99):
            for n0 in (0.1, 0.01, 0.001):
                for u in diffs:
                    for v in diffs:
                        if abs(u) ** 2 == abs(v) ** 2:
                            continue
                        assert pairwise_sum_excess(u, v, alpha, n0) > 0

    def test_positive_on_random_pairs(self):
        rng = np.random.default_rng(20260811)
        count = 0
        while count < 10_000:
            u = complex(*rng.uniform(-4, 4, 2))
            v = complex(*rng.uniform(-4, 4, 2))
            if abs(abs(u) ** 2 - abs(v) ** 2) < 1e-6:
                continue
            alpha = rng.uniform(0.51, 0.999)
            n0 = 10.0 ** rng.uniform(-4, 0)
            assert pairwise_sum_excess(u, v, alpha, n0) > 0
            count += 1


class TestErrorEventEnumeration:
    def test_qpsk_event_multiset_matches_table(self):
        events = enumerate_error_events(QPSK, 0, 0)  # (1+1j, 1+1j)
        assert len(events) == 15
        got = sorted(((e.u, e.v, e.n_bits) for e in events),
                     key=lambda t: (t[0].real, t[0].imag, t[1].real, t[1].imag))
        expected = sorted(((u, v, b) for _, u, v, b, _, _ in QPSK_EVENTS),
                          key=lambda t: (t[0].real, t[0].imag, t[1].real, t[1].imag))
        assert got == expected

    @pytest.mark.parametrize("c,expected", [(QPSK, 15), (QAM16, 255)])
    def test_event_count(self, c, expected):
        assert len(enumerate_error_events(c, 1, 1)) == expected

    def test_events_are_nonzero_and_ordered(self):
        events = enumerate_error_events(QPSK, 2, 3)
        assert all((e.u, e.v) != (0j, 0j) for e in events)
        assert all(e.n_bits >= 1 for e in events)

    @pytest.mark.parametrize("i1,i2", [(4, 0), (0, 4), (-1, 0), (0, -1)])
    def test_rejects_bad_index(self, i1, i2):
        # a negative index would wrap and never match the skipped pair
        with pytest.raises(IndexError):
            enumerate_error_events(QPSK, i1, i2)


class TestPepTable:
    def test_rows_match_hand_computed_values(self):
        rows = error_event_pep_table(n0=0.01)
        assert [r.event_id for r in rows] == [e[0] for e in QPSK_EVENTS]
        for row, (eid, u, v, bits, d2_lo, d2_hi) in zip(rows, QPSK_EVENTS):
            assert (row.u, row.v) == (u, v)
            assert row.n_bits == bits
            assert row.d2_alpha_lo == pytest.approx(d2_lo, rel=1e-14)
            assert row.d2_alpha_hi == pytest.approx(d2_hi, rel=1e-14)
            assert row.pep_alpha_lo == pytest.approx(pep_bound(d2_lo, 0.01), rel=1e-14)
            assert row.pep_alpha_hi == pytest.approx(pep_bound(d2_hi, 0.01), rel=1e-14)

    def test_noise_is_required(self):
        # the table has no default operating point: every caller states its n0
        with pytest.raises(TypeError):
            error_event_pep_table()

    def test_selected_cells(self):
        rows = {r.event_id: r for r in error_event_pep_table(n0=0.01)}
        assert rows["E2"].pep_alpha_hi == pytest.approx(1 / 121, rel=1e-12)
        assert rows["E10"].pep_alpha_hi == pytest.approx(1 / 441, rel=1e-12)
        assert rows["E15"].pep_alpha_lo == pytest.approx(2.5e-5, rel=0.01)
        assert rows["E15"].pep_alpha_hi == pytest.approx(2.5e-5, rel=0.01)


@pytest.fixture(scope="module")
def all_error_events():
    """Every error event of every transmitted codeword, from the scalar path."""
    return {c.kind: [e for i1, i2 in itertools.product(range(c.M), repeat=2)
                     for e in enumerate_error_events(c, i1, i2)]
            for c in (QPSK, QAM16)}


class TestUnionBound:
    def test_qpsk_totals_near_reported_values(self):
        assert union_bound_value(QPSK, 0.5, 0.01) == pytest.approx(8e-4, rel=0.15)
        assert union_bound_value(QPSK, 0.9, 0.01) == pytest.approx(5e-3, rel=0.15)

    def test_full_double_sum_equals_single_codeword_assembly(self):
        # QPSK PEPs do not depend on the transmitted codeword, so the
        # 16-codeword average must equal the one-codeword table sum exactly,
        # on a 0.1-dB grid from -50 to 130 dB.
        alpha_lo, alpha_hi = TABLE_ALPHAS
        for i in range(1801):
            n0 = 10.0 ** (-round(-50.0 + 0.1 * i, 1) / 10.0)
            rows = error_event_pep_table(n0=n0)
            lo = math.fsum(r.n_bits * r.pep_alpha_lo for r in rows) / 4.0
            hi = math.fsum(r.n_bits * r.pep_alpha_hi for r in rows) / 4.0
            assert union_bound_value(QPSK, alpha_lo, n0) == lo, n0
            assert union_bound_value(QPSK, alpha_hi, n0) == hi, n0

    @pytest.mark.parametrize("c", [QPSK, QAM16], ids=["qpsk", "qam16"])
    def test_equals_scalar_per_event_sum(self, c, all_error_events):
        # The distance spectrum must reproduce the plain per-event fsum
        # exactly, not merely within rounding.
        events = all_error_events[c.kind]
        assert len(events) == c.M**2 * (c.M**2 - 1)
        # Events repeat, and events with equal (u, v, n_bits) values have the
        # same term bit for bit, so each distinct term is computed once; fsum
        # still adds every event's term, in event order.
        keys = [(complex(e.u), complex(e.v), int(e.n_bits)) for e in events]
        distinct = dict(zip(keys, events))
        for alpha in (0.5, 0.61, 0.75, 0.9, 0.99, 0.5123):
            for ebn0_db in (-9.8, 0, 8, 16, 20.7, 24, 32, 40, 1550):
                n0 = 10.0 ** (-ebn0_db / 10.0)
                term = {k: e.n_bits * pep_bound(event_norm(e.u, e.v, alpha), n0)
                        for k, e in distinct.items()}
                expected = math.fsum(term[k] for k in keys)
                expected /= c.M**2 * 2 * c.bits_per_symbol
                assert union_bound_value(c, alpha, n0) == expected, (alpha, ebn0_db)

    @pytest.mark.parametrize("c", [QPSK, QAM16], ids=["qpsk", "qam16"])
    def test_distance_spectrum_counts_every_error_event(self, c, all_error_events):
        # The spectrum's scales, summed per (|u|^2, |v|^2, n_bits), are the
        # multiplicities of the M^2 (M^2 - 1) events of the scalar path.
        events = all_error_events[c.kind]
        expected = Counter((_abs2(e.u), _abs2(e.v), int(e.n_bits)) for e in events)
        got = Counter()
        for abs_u2, abs_v2, n_bits, scale in zip(*(a.tolist() for a in _distance_spectrum(c))):
            got[abs_u2, abs_v2, n_bits] += scale
        assert got == expected

    @pytest.mark.parametrize("c", [QPSK, QAM16], ids=["qpsk", "qam16"])
    def test_cached_distance_spectrum_is_read_only(self, c):
        # An in-place write to the cached arrays would change every later bound.
        before = union_bound_value(c, 0.7, 0.01)
        for a in _distance_spectrum(c):
            with pytest.raises(ValueError, match="read-only"):
                a[:] *= 2
        assert union_bound_value(c, 0.7, 0.01) == before

    def test_bound_plan_is_built_once_per_constellation_and_alpha(self):
        _bound_plan.cache_clear()
        n0s = [10.0 ** (-ebn0_db / 10.0) for ebn0_db in range(41)]
        values = [union_bound_value(QAM16, 0.7, n0) for n0 in n0s]
        assert _bound_plan.cache_info()[:2] == (40, 1)  # (hits, misses)
        plan = _bound_plan(QAM16, 0.7)
        # alpha is keyed as the float that validate_alpha returns
        for alpha in (np.float64(0.7), Fraction(7, 10)):
            assert union_bound_value(QAM16, alpha, n0s[20]) == values[20]
        assert _bound_plan.cache_info().misses == 1
        for a in plan[:2]:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        # the next float up is its own key, with its own distances
        nxt = _bound_plan(QAM16, float(np.nextafter(0.7, 1)))
        assert nxt is not plan and not np.array_equal(nxt.d2, plan.d2)
        assert _bound_plan(QPSK, 0.7) is not plan

    @pytest.mark.parametrize("kind", ["qpsk", "qam16"])
    def test_distance_spectrum_is_its_own_user_swap(self, kind):
        # The premise of the symmetry argument: swapping the users maps the
        # spectrum row (|u|^2, |v|^2, n_bits, scale) to (|v|^2, |u|^2, n_bits,
        # scale), and the rows are the same multiset, exactly.
        abs_u2, abs_v2, n_bits, scale = (a.tolist() for a in
                                         _distance_spectrum(build_constellation(kind)))
        rows = sorted(zip(abs_u2, abs_v2, n_bits, scale))
        assert rows == sorted(zip(abs_v2, abs_u2, n_bits, scale))
        assert any(u2 != v2 for u2, v2, _, _ in rows)

    @pytest.mark.parametrize("c", [QPSK, QAM16])
    @pytest.mark.parametrize("n0", [0.1, 0.01, 0.001])
    def test_nondecreasing_in_alpha(self, c, n0):
        # The bound rises strictly with alpha, as the symmetry argument in
        # ``bounds`` says. The cases for 10, 20 and 30 dB each step from
        # their own Eb/N0 in 3-dB strides, so together they cover every
        # integer Eb/N0 from -50 to 130 dB. The alpha step stays at 0.01:
        # near alpha = 1/2 the rise is quadratic, and a much finer step
        # falls below an ulp.
        grid = [0.5 + 0.01 * i for i in range(50)]
        own_db = round(-10.0 * math.log10(n0))
        for ebn0_db in range(-50 + (own_db + 50) % 3, 131, 3):
            values = [union_bound_value(c, a, 10.0 ** (-ebn0_db / 10.0)) for a in grid]
            assert all(b > a for a, b in zip(values, values[1:])), ebn0_db
            assert values[0] == min(values)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            union_bound_value(QPSK, 0.4, 0.01)
        with pytest.raises(ValueError):
            union_bound_value(QPSK, 0.5, 0.0)
        for n0 in (math.nan, math.inf):
            with pytest.raises(ValueError):
                union_bound_value(QPSK, 0.5, n0)


class TestOptimalAlpha:
    def test_grid_argmin_is_balanced(self):
        grid = [0.5 + 0.01 * i for i in range(50)]
        assert optimal_alpha(QPSK, 0.01, grid) == 0.5
        assert optimal_alpha(QAM16, 0.01, grid) == 0.5

    def test_singleton_grid(self):
        assert optimal_alpha(QPSK, 0.01, [0.5]) == 0.5

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            optimal_alpha(QPSK, 0.01, [])

    def test_tie_breaks_toward_smaller_alpha(self):
        # At -300 dB every PEP bound is 1, so every alpha ties at the bound 8;
        # the smallest wins, whatever the grid order.
        n0 = NoiseModel.from_ebn0_db(-300).n0
        assert union_bound_value(QPSK, 0.9, n0) == union_bound_value(QPSK, 0.5, n0) == 8.0
        assert optimal_alpha(QPSK, n0, [0.9, 0.7, 0.5]) == 0.5
        # the grid is an alpha list, so a repeat is rejected as everywhere else
        with pytest.raises(ValueError, match="alphas must not repeat"):
            optimal_alpha(QPSK, 0.01, [0.7, 0.5, 0.5])
