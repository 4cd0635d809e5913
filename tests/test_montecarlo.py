"""Monte Carlo harness: reproducibility, stopping policy, estimates."""

import dataclasses
import math

import pytest

from noma_uplink import (
    NoiseModel,
    SimConfig,
    build_constellation,
    crossing_ebn0_db,
    detect,
    make_codeword,
    ml_detect,
    point_stream_key,
    run_ber_point,
    sample_channel,
    sample_noise,
    sic_detect,
    snr_degradation,
    sweep,
    synthesize,
    transmit,
    trial_stream,
    union_bound_value,
)
from noma_uplink.montecarlo import BerCurve, BerPoint, TRIALS_PER_BLOCK
from noma_uplink.rng import DRAWS_PER_TRIAL


def small_cfg(**kw):
    base = dict(kind="qpsk", detector="ml", seed=314159, min_bit_errors=200,
                max_codewords=400_000)
    base.update(kw)
    return SimConfig(**base)


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            SimConfig(kind="qam64")
        with pytest.raises(ValueError):
            SimConfig(detector="mmse")
        with pytest.raises(ValueError):
            SimConfig(alphas=(0.4,))
        with pytest.raises(ValueError):
            SimConfig(ebn0_db_grid=(10.0, 10.0))
        with pytest.raises(ValueError):
            SimConfig(min_bit_errors=0)
        for field in ("max_codewords", "chunk_size", "workers"):
            with pytest.raises(ValueError):
                SimConfig(**{field: 0})
        with pytest.raises(ValueError):
            SimConfig(ebn0_db_grid=(10.0, float("nan")))


class TestVectorizedMatchesScalarPath:
    @pytest.mark.parametrize("kind", ["qpsk", "qam16"])
    @pytest.mark.parametrize("detector", ["ml", "sic"])
    def test_block_errors_equal_scalar_trials(self, kind, detector):
        # A batch decoded by synthesize and decided by detect must match, trial
        # for trial, the one-draw composition of sample_channel, sample_noise,
        # transmit and the single-vector detector on the same stream.
        alpha, ebn0 = 0.85, 6.0
        seed = 98765
        c = build_constellation(kind)
        nm = NoiseModel.from_ebn0_db(ebn0)
        key = point_stream_key(seed, alpha, ebn0)
        n = 64

        u = trial_stream(key).random((n, DRAWS_PER_TRIAL))
        i1, i2, h, r = synthesize(u, c, alpha, nm.n0)
        j1, j2 = detect(detector, r, h, alpha, c)
        scalar_detect = ml_detect if detector == "ml" else sic_detect

        for t in range(n):
            rng = trial_stream(key, first_trial=t)
            u_sym = rng.random(2)
            w = make_codeword(c, int(u_sym[0] * c.M), int(u_sym[1] * c.M))
            h_t = sample_channel(rng)
            r_t = transmit(h_t, w, alpha, sample_noise(rng, nm))
            assert (i1[t], i2[t]) == (w.i1, w.i2)
            assert tuple(hk[t] for hk in h) == (h_t.h11, h_t.h12, h_t.h21, h_t.h22)
            # numpy and Python round a complex product differently in the last bit
            assert r[0][t] == pytest.approx(r_t.r1, rel=1e-12)
            assert r[1][t] == pytest.approx(r_t.r2, rel=1e-12)
            got = scalar_detect(r_t, h_t, alpha, c)
            assert (j1[t], j2[t]) == (got.i1, got.i2)


class TestDeterminism:
    def test_identical_reruns(self):
        cfg = small_cfg()
        a = run_ber_point(cfg, 0.9, 8.0)
        b = run_ber_point(cfg, 0.9, 8.0)
        assert a == b

    def test_chunk_size_invariance(self):
        p1 = run_ber_point(small_cfg(chunk_size=1_000), 0.9, 8.0)
        p2 = run_ber_point(small_cfg(chunk_size=100_000), 0.9, 8.0)
        p3 = run_ber_point(small_cfg(chunk_size=7_777), 0.9, 8.0)
        assert p1 == p2 == p3

    @pytest.mark.parametrize("workers", [2, 8])
    def test_worker_invariance(self, workers):
        ref = run_ber_point(small_cfg(workers=1), 0.5, 10.0)
        got = run_ber_point(small_cfg(workers=workers), 0.5, 10.0)
        assert ref == got

    def test_point_is_function_of_values_not_grid(self):
        # The same (alpha, ebn0) point gives the same answer whether it is
        # computed alone or as part of a sweep grid.
        cfg_single = small_cfg(alphas=(0.9,), ebn0_db_grid=(8.0,))
        cfg_sweep = small_cfg(alphas=(0.5, 0.9), ebn0_db_grid=(6.0, 8.0))
        single = sweep(cfg_single)[0].points[0]
        swept = sweep(cfg_sweep)[1].points[1]
        assert dataclasses.replace(single, seed=0) == dataclasses.replace(swept, seed=0)
        assert single.seed == swept.seed == 314159

    def test_different_seeds_differ(self):
        a = run_ber_point(small_cfg(), 0.9, 8.0)
        b = run_ber_point(small_cfg(seed=1), 0.9, 8.0)
        assert a.stream_key != b.stream_key
        assert a.bit_errors != b.bit_errors  # overwhelmingly likely


class TestStoppingPolicy:
    def test_stops_at_block_boundary_after_min_errors(self):
        cfg = small_cfg()
        p = run_ber_point(cfg, 0.9, 8.0)
        assert p.bit_errors >= cfg.min_bit_errors
        assert p.codewords_used % TRIALS_PER_BLOCK == 0
        assert p.bits_simulated == p.codewords_used * 4
        assert p.status == "ok"

    def test_zero_error_path_flagged(self):
        # noise is negligible at 60 dB, so 10^5 codewords see no errors
        cfg = small_cfg(max_codewords=100_000)
        p = run_ber_point(cfg, 0.5, 60.0)
        assert p.bit_errors == 0
        assert p.ber == 0.0
        assert p.ci95_halfwidth == 0.0
        assert p.codewords_used == 100_000
        assert p.status == "upper-bound-only"

    def test_max_codewords_cap_with_partial_block(self):
        cfg = small_cfg(max_codewords=25_000, min_bit_errors=10**9)
        p = run_ber_point(cfg, 0.5, 10.0)
        assert p.codewords_used == 25_000

    def test_ber_and_ci_fields_consistent(self):
        p = run_ber_point(small_cfg(), 0.5, 10.0)
        assert p.ber == p.bit_errors / p.bits_simulated
        expected_ci = 1.96 * math.sqrt(p.ber * (1 - p.ber) / p.bits_simulated)
        assert p.ci95_halfwidth == pytest.approx(expected_ci, rel=1e-12)


class TestSweep:
    def test_grid_shape(self):
        cfg = small_cfg(alphas=(0.5, 0.9), ebn0_db_grid=(0.0, 5.0, 10.0),
                        min_bit_errors=50, max_codewords=50_000)
        curves = sweep(cfg)
        assert len(curves) == 2
        assert [c.alpha for c in curves] == [0.5, 0.9]
        for c in curves:
            assert [p.ebn0_db for p in c.points] == [0.0, 5.0, 10.0]

    def test_ber_decreases_with_snr(self):
        cfg = small_cfg(alphas=(0.5,), ebn0_db_grid=(0.0, 6.0, 12.0))
        (curve,) = sweep(cfg)
        bers = [p.ber for p in curve.points]
        assert bers[0] > bers[1] > bers[2]


class TestMlVersusSic:
    def test_sic_never_beats_ml_at_matched_seeds(self):
        # Paired comparison: identical streams, only the detector differs.
        kw = dict(alphas=(0.9,), ebn0_db_grid=(20.0,), min_bit_errors=300,
                  max_codewords=2_000_000)
        (ml_curve,) = sweep(small_cfg(detector="ml", **kw))
        (sic_curve,) = sweep(small_cfg(detector="sic", **kw))
        ml_p, sic_p = ml_curve.points[0], sic_curve.points[0]
        assert ml_p.stream_key == sic_p.stream_key
        assert ml_p.ber < sic_p.ber


class TestBoundConsistency:
    def test_simulated_ber_below_union_bound(self):
        c = build_constellation("qpsk")
        for alpha, ebn0 in ((0.5, 12.0), (0.9, 14.0)):
            p = run_ber_point(small_cfg(max_codewords=2_000_000), alpha, ebn0)
            bound = union_bound_value(c, alpha, NoiseModel.from_ebn0_db(ebn0).n0)
            assert p.ber <= bound + 2 * p.ci95_halfwidth


class TestDegradation:
    def make_curve(self, alpha, pairs):
        cfg = small_cfg()
        pts = tuple(
            BerPoint(alpha=alpha, ebn0_db=s, bit_errors=100, bits_simulated=int(100 / b),
                     ber=b, ci95_halfwidth=0.0, seed=0, stream_key=0,
                     codewords_used=1, status="ok")
            for s, b in pairs
        )
        return BerCurve(config=cfg, alpha=alpha, points=pts)

    def test_crossing_log_linear(self):
        curve = self.make_curve(0.5, [(10.0, 1e-2), (20.0, 1e-4)])
        # log-linear: 1e-3 sits exactly halfway between 1e-2 and 1e-4
        assert crossing_ebn0_db(curve, 1e-3) == pytest.approx(15.0, rel=1e-12)

    def test_self_degradation_is_zero(self):
        curve = self.make_curve(0.5, [(10.0, 1e-2), (20.0, 1e-4)])
        assert snr_degradation(curve, curve, 1e-3) == 0.0

    def test_degradation_of_shifted_curve(self):
        ref = self.make_curve(0.5, [(10.0, 1e-2), (20.0, 1e-4)])
        test = self.make_curve(0.9, [(13.0, 1e-2), (23.0, 1e-4)])
        assert snr_degradation(ref, test, 1e-3) == pytest.approx(3.0, rel=1e-12)

    def test_unbracketed_target_rejected(self):
        curve = self.make_curve(0.5, [(10.0, 1e-2), (20.0, 1e-4)])
        with pytest.raises(ValueError, match="insufficient curve range"):
            crossing_ebn0_db(curve, 1e-6)
        with pytest.raises(ValueError, match="insufficient curve range"):
            crossing_ebn0_db(curve, 0.5)

    def test_zero_ber_points_are_ignored_for_crossing(self):
        curve = self.make_curve(0.5, [(10.0, 1e-2), (20.0, 1e-4)])
        zero_pt = BerPoint(alpha=0.5, ebn0_db=30.0, bit_errors=0, bits_simulated=1000,
                           ber=0.0, ci95_halfwidth=0.0, seed=0, stream_key=0,
                           codewords_used=250, status="upper-bound-only")
        curve2 = BerCurve(config=curve.config, alpha=0.5, points=curve.points + (zero_pt,))
        assert crossing_ebn0_db(curve2, 1e-3) == pytest.approx(15.0, rel=1e-12)
