"""Monte Carlo harness: reproducibility, stopping policy, estimates."""

import dataclasses
import json
import math
import sys
import threading
from concurrent.futures import CancelledError

import numpy as np
import pytest

from noma_uplink import detectors, montecarlo
from noma_uplink import (
    NoiseModel,
    SimConfig,
    build_constellation,
    detect,
    point_stream_key,
    run_ber_point,
    snr_degradation,
    sweep,
    synthesize,
    trial_stream,
    union_bound_value,
)
from noma_uplink.montecarlo import (BerCurve, BerPoint, TRIALS_PER_BLOCK, crossing_from_pairs,
                                    sweep_points)
from noma_uplink.rng import DRAWS_PER_TRIAL, normals_from_uniforms
from test_detectors import metric_oracle, sic_oracle


def small_cfg(**kw):
    base = dict(kind="qpsk", detector="ml", seed=314159, min_bit_errors=200,
                max_codewords=400_000)
    base.update(kw)
    return SimConfig(**base)


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        # the kind rule is build_constellation's, unhashable kinds included
        for kind in ("qam64", ["qpsk"]):
            with pytest.raises(ValueError, match="unsupported constellation kind"):
                SimConfig(kind=kind)
        with pytest.raises(ValueError):
            SimConfig(detector="mmse")
        with pytest.raises(ValueError):
            SimConfig(alphas=(0.4,))
        with pytest.raises(ValueError):
            SimConfig(alphas=(0.5, 0.5))
        with pytest.raises(ValueError):
            SimConfig(ebn0_db_grid=(10.0, 10.0))
        with pytest.raises(ValueError):
            SimConfig(min_bit_errors=0)
        for field in ("max_codewords", "workers"):
            with pytest.raises(ValueError):
                SimConfig(**{field: 0})
        # a count is a positive integer: no float, however whole, and no bool
        for field, value in (("max_codewords", 1e4), ("workers", 1.5), ("workers", True),
                             ("min_bit_errors", 2.5)):
            with pytest.raises(ValueError):
                SimConfig(**{field: value})
        workers = SimConfig(workers=np.int64(2)).workers
        assert workers == 2 and type(workers) is int
        # a seed is an integer in [0, 2**64): no float, bool, string or aliasing value
        for value in (1.5, True, "7", -1, 2**64):
            with pytest.raises(ValueError):
                SimConfig(seed=value)
        seed = SimConfig(seed=np.uint64(2**64 - 1)).seed
        assert seed == 2**64 - 1 and type(seed) is int
        # a sweep needs at least one alpha and one Eb/N0
        for field in ("alphas", "ebn0_db_grid"):
            with pytest.raises(ValueError):
                SimConfig(**{field: ()})
        with pytest.raises(ValueError):
            SimConfig(ebn0_db_grid=(10.0, float("nan")))
        # a string is not a grid of its characters
        with pytest.raises(ValueError, match="not a string"):
            SimConfig(ebn0_db_grid="15")
        # the order and repeat rules apply to the parsed floats, not the raw values
        with pytest.raises(ValueError):
            SimConfig(ebn0_db_grid=("10", "9"))
        with pytest.raises(ValueError):
            SimConfig(alphas=(0.5, "0.5"))
        # a valid config keeps the floats it checked
        cfg = SimConfig(alphas=[0.9, "0.5"], ebn0_db_grid=("9", "10"))
        assert cfg.alphas == (0.9, 0.5) and cfg.ebn0_db_grid == (9.0, 10.0)
        assert all(type(v) is float for v in cfg.alphas + cfg.ebn0_db_grid)


class TestVectorizedMatchesScalarPath:
    @pytest.mark.parametrize("kind", ["qpsk", "qam16"])
    @pytest.mark.parametrize("detector", ["ml", "sic"])
    def test_block_errors_equal_scalar_trials(self, kind, detector):
        # synthesize must decode each row by the documented draw layout:
        # symbol picks u[:, 0:2], channel u[:, 2:10], noise u[:, 10:14], each
        # complex entry a (real, imag) pair of normals. detect must agree,
        # trial for trial, with the independent ML and SIC oracles.
        alpha, ebn0 = 0.85, 6.0
        seed = 98765
        c = build_constellation(kind)
        nm = NoiseModel.from_ebn0_db(ebn0)
        key = point_stream_key(seed, alpha, ebn0)
        n = 64

        u = trial_stream(key).random((n, DRAWS_PER_TRIAL))
        i1, i2, h, r = synthesize(u, c, alpha, nm.n0)
        assert np.array_equal(i1, np.floor(u[:, 0] * c.M))
        assert np.array_equal(i2, np.floor(u[:, 1] * c.M))
        g = normals_from_uniforms(u[:, 2:14])
        h_expected = g[:, 0:8:2] / math.sqrt(2.0) + 1j * (g[:, 1:8:2] / math.sqrt(2.0))
        w = g[:, 8::2] * math.sqrt(nm.n0) + 1j * (g[:, 9::2] * math.sqrt(nm.n0))
        assert np.array_equal(np.stack(h, axis=-1), h_expected)
        points = np.array(c.points)
        x = np.stack([math.sqrt(alpha) * points[i1], math.sqrt(1 - alpha) * points[i2]], axis=-1)
        r_expected = (h_expected.reshape(-1, 2, 2) @ x[:, :, None])[:, :, 0] + w
        # matmul and the elementwise sum round in a different order
        np.testing.assert_allclose(np.stack(r, axis=-1), r_expected, rtol=1e-12)

        j1, j2 = detect(detector, r, h, alpha, c)
        if detector == "ml":
            assert np.array_equal(j1 * c.M + j2, metric_oracle(r, h, alpha, c))
        else:
            o1, o2 = sic_oracle(r, h, alpha, c)
            assert np.array_equal(j1, o1) and np.array_equal(j2, o2)


class TestDeterminism:
    def test_identical_reruns(self):
        cfg = small_cfg()
        a = run_ber_point(cfg, 0.9, 8.0)
        b = run_ber_point(cfg, 0.9, 8.0)
        assert a == b

    @pytest.mark.parametrize("first", [1, 7777, 12345])
    def test_trial_stream_offset_reads_same_rows(self, first):
        # A slice that starts at trial ``first`` sees the rows that a stream
        # started at trial 0 gives those trials.
        key = point_stream_key(314159, 0.9, 8.0)
        n = 300
        whole = trial_stream(key).random((first + n, DRAWS_PER_TRIAL))
        part = trial_stream(key, first).random((n, DRAWS_PER_TRIAL))
        assert np.array_equal(part, whole[first:])

    @pytest.mark.parametrize("seed", [-1, 1.9, True, 2**64])
    def test_stream_key_rejects_seed_outside_rule(self, seed):
        # each of these once aliased a valid seed's key: -1 that of 2**64 - 1,
        # 1.9 and True that of 1
        with pytest.raises(ValueError, match="seed must be an integer"):
            point_stream_key(seed, 0.5, 10.0)
        assert point_stream_key(2**64 - 1, 0.5, 10.0) == 1784803863217284409

    @pytest.mark.parametrize("workers", [2, 8])
    def test_worker_invariance(self, workers):
        ref = run_ber_point(small_cfg(workers=1), 0.5, 10.0)
        got = run_ber_point(small_cfg(workers=workers), 0.5, 10.0)
        assert ref == got

    def test_worker_invariance_with_partial_slice_and_block(self):
        # 12,345 trials: one full block, then one block of a single 2,345-trial slice
        cfg = small_cfg(max_codewords=12_345, min_bit_errors=10**9)
        ref, *got = (run_ber_point(dataclasses.replace(cfg, workers=w), 0.5, 10.0)
                     for w in (1, 2, 3))
        assert ref.codewords_used == 12_345
        assert got == [ref, ref]

    def test_no_state_carries_over_between_points(self):
        # each point opens its own stream and allocates its own draw buffer, so a 16QAM
        # point run first (other values, a full last slice) leaves the next QPSK point as it was
        qpsk = small_cfg(max_codewords=12_345, min_bit_errors=10**9, workers=2)
        alone = run_ber_point(qpsk, 0.5, 10.0)
        run_ber_point(small_cfg(kind="qam16", max_codewords=20_000, workers=2), 0.9, 16.0)
        assert run_ber_point(qpsk, 0.5, 10.0) == alone

    def test_point_is_function_of_values_not_grid(self):
        # The same (alpha, ebn0) point gives the same answer whether it is
        # computed alone or as part of a sweep grid.
        cfg_single = small_cfg(alphas=(0.9,), ebn0_db_grid=(8.0,))
        cfg_sweep = small_cfg(alphas=(0.5, 0.9), ebn0_db_grid=(6.0, 8.0))
        single = sweep(cfg_single)[0].points[0]
        swept = sweep(cfg_sweep)[1].points[1]
        assert dataclasses.replace(single, seed=0) == dataclasses.replace(swept, seed=0)
        assert single.seed == swept.seed == 314159
        # -0.0 and 0.0 are one value, so they key one stream.
        assert point_stream_key(314159, 0.9, -0.0) == point_stream_key(314159, 0.9, 0.0)
        cfg = small_cfg()
        negative_zero = run_ber_point(cfg, 0.9, -0.0)
        assert negative_zero == run_ber_point(cfg, 0.9, 0.0)
        # == cannot tell -0.0 from 0.0; the point reports 0
        assert math.copysign(1.0, negative_zero.ebn0_db) == 1.0

    def test_different_seeds_differ(self):
        a = run_ber_point(small_cfg(), 0.9, 8.0)
        b = run_ber_point(small_cfg(seed=1), 0.9, 8.0)
        assert a.stream_key != b.stream_key
        assert a.bit_errors != b.bit_errors  # overwhelmingly likely


class TestStoppingPolicy:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_trial_drawn_past_stop_index(self, monkeypatch, workers):
        # At 0 dB the first block already holds 200 bit errors, so with one
        # or two workers only that block's 10^4 trials may be drawn.
        drawn = []

        class CountingStream:
            def __init__(self, gen):
                self.gen = gen

            def random(self, *args, **kwargs):
                # rows of what was drawn, given a shape or an ``out`` array
                out = self.gen.random(*args, **kwargs)
                drawn.append(out.shape[0])
                return out

        monkeypatch.setattr(montecarlo, "trial_stream",
                            lambda key, lo=0: CountingStream(trial_stream(key, lo)))
        p = run_ber_point(small_cfg(workers=workers), 0.5, 0.0)
        assert p.codewords_used == TRIALS_PER_BLOCK
        assert sum(drawn) == p.codewords_used

    def test_one_worker_point_opens_one_stream(self, monkeypatch):
        # A 3-block point at one worker draws every slice from the stream
        # its first slice opened; its errors are those of a stream opened at
        # each slice and decided whole, and its BerPoint that of two workers.
        opened = []

        def counting_stream(key, lo=0):
            opened.append(lo)
            return trial_stream(key, lo)

        cfg = small_cfg(max_codewords=3 * TRIALS_PER_BLOCK, min_bit_errors=10**9)
        monkeypatch.setattr(montecarlo, "trial_stream", counting_stream)
        p = run_ber_point(cfg, 0.5, 10.0)
        monkeypatch.undo()
        assert opened == [0] and p.codewords_used == 3 * TRIALS_PER_BLOCK
        c = build_constellation(cfg.kind)
        n0 = NoiseModel.from_ebn0_db(10.0).n0
        errors = 0
        for lo in range(0, p.codewords_used, montecarlo.SLICE):
            u = trial_stream(p.stream_key, lo).random((montecarlo.SLICE, DRAWS_PER_TRIAL))
            i1, i2, h, r = synthesize(u, c, 0.5, n0)
            j1, j2 = detect("ml", r, h, 0.5, c)
            errors += int((c.hamming[i1, j1] + c.hamming[i2, j2]).sum())
        assert p.bit_errors == errors
        assert run_ber_point(dataclasses.replace(cfg, workers=2), 0.5, 10.0) == p

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


def unchecked_point(cfg, alpha, ebn0_db):
    """``(bit_errors, codewords_used)`` of a point whose every slice is decided whole.

    The stopping rule of the module docs, with each slice drawn, synthesized
    and decided by ``detect`` without the bracketed check.
    """
    c = build_constellation(cfg.kind)
    n0 = NoiseModel.from_ebn0_db(ebn0_db).n0
    gen = trial_stream(point_stream_key(cfg.seed, alpha, ebn0_db))
    errors = 0
    for first in range(0, cfg.max_codewords, TRIALS_PER_BLOCK):
        trials = min(first + TRIALS_PER_BLOCK, cfg.max_codewords)
        for lo in range(first, trials, montecarlo.SLICE):
            u = gen.random((min(montecarlo.SLICE, trials - lo), DRAWS_PER_TRIAL))
            i1, i2, h, r = synthesize(u, c, alpha, n0)
            j1, j2 = detect(cfg.detector, r, h, alpha, c)
            errors += int((c.hamming[i1, j1] + c.hamming[i2, j2]).sum())
        if errors >= cfg.min_bit_errors:
            break
    return errors, trials


class TestBracketedCheck:
    @pytest.mark.parametrize("kind,alpha,ebn0_db,detector", [
        # held rows decided in 5-7 batches a block (5 and 11 dB, alpha 0.99 at
        # 20 dB, 16QAM at 16 dB), in 3-4 (15 dB, alpha 0.99 at 25 dB) or in one
        # (30 dB, 16QAM at 24 dB); SIC holds every row, 8 full batches a block
        ("qpsk", 0.5, 5.0, "ml"), ("qpsk", 0.99, 20.0, "ml"), ("qam16", 0.9, 16.0, "ml"),
        ("qpsk", 0.5, 11.0, "ml"), ("qpsk", 0.5, 15.0, "ml"), ("qpsk", 0.99, 25.0, "ml"),
        ("qpsk", 0.5, 30.0, "ml"), ("qam16", 0.5, 24.0, "ml"),
        ("qpsk", 0.5, 5.0, "sic"), ("qam16", 0.9, 16.0, "sic"),
    ])
    def test_point_equals_the_unchecked_slice_loop(self, kind, alpha, ebn0_db, detector):
        # 41,234 trials: four full blocks, then a block of one short slice
        cfg = small_cfg(kind=kind, detector=detector, seed=424242, max_codewords=41_234,
                        min_bit_errors=10**9)
        p = run_ber_point(cfg, alpha, ebn0_db)
        assert (p.bit_errors, p.codewords_used) == unchecked_point(cfg, alpha, ebn0_db)

    def test_stopping_rule_equals_the_unchecked_slice_loop(self):
        cfg = small_cfg(seed=424242, min_bit_errors=150)
        for ebn0_db in (10.0, 16.0, 20.0):
            p = run_ber_point(cfg, 0.9, ebn0_db)
            assert (p.bit_errors, p.codewords_used) == unchecked_point(cfg, 0.9, ebn0_db)

    @pytest.mark.parametrize("ebn0_db", [5.0, 11.0, 15.0, 30.0])
    def test_batches_are_at_most_a_slice_and_hold_only_unproven_rows(self, monkeypatch, ebn0_db):
        # ML decides held unproven rows in batches of at most SLICE / 2, never a
        # slice whole; every row it decides is one the check left unproven.
        batches = []
        batch_errors = montecarlo._batch_errors

        def spy(cfg, c, alpha, n0, u):
            batches.append(u.copy())
            return batch_errors(cfg, c, alpha, n0, u)

        monkeypatch.setattr(montecarlo, "_batch_errors", spy)
        cfg = small_cfg(max_codewords=2 * TRIALS_PER_BLOCK, min_bit_errors=10**9)
        run_ber_point(cfg, 0.5, ebn0_db)
        c, n0 = build_constellation("qpsk"), NoiseModel.from_ebn0_db(ebn0_db).n0
        u = trial_stream(point_stream_key(cfg.seed, 0.5, ebn0_db)).random(
            (cfg.max_codewords, DRAWS_PER_TRIAL))
        unproven = {row.tobytes() for row in u[~detectors.bracket_proven(u, c, 0.5, n0)]}
        for batch in batches:
            assert 0 < len(batch) <= montecarlo.SLICE // 2
            assert {row.tobytes() for row in batch} <= unproven
        decided = {row.tobytes() for batch in batches for row in batch}
        assert unproven <= decided
        if ebn0_db == 30.0:
            assert len(batches) == 2  # one batch per block

    def test_sic_decides_every_slice_without_the_check(self, monkeypatch):
        # SIC holds every row, so a full block is 8 full batches of SLICE / 2
        checked, sizes = [], []
        check, batch_errors = montecarlo.bracket_proven, montecarlo._batch_errors
        monkeypatch.setattr(montecarlo, "bracket_proven",
                            lambda *a: checked.append(len(a[0])) or check(*a))
        monkeypatch.setattr(montecarlo, "_batch_errors",
                            lambda cfg, c, alpha, n0, u: sizes.append(len(u))
                            or batch_errors(cfg, c, alpha, n0, u))
        cfg = small_cfg(detector="sic", max_codewords=12_345, min_bit_errors=10**9)
        p = run_ber_point(cfg, 0.9, 30.0)
        assert checked == [] and sizes == [1_250] * 9 + [1_095]
        assert (p.bit_errors, p.codewords_used) == unchecked_point(cfg, 0.9, 30.0)
        run_ber_point(dataclasses.replace(cfg, detector="ml"), 0.9, 30.0)
        assert checked == [2_500] * 4 + [2_345]


class TestSweep:
    def test_grid_shape(self):
        cfg = small_cfg(alphas=(0.5, 0.9), ebn0_db_grid=(0.0, 5.0, 10.0),
                        min_bit_errors=50, max_codewords=50_000)
        curves = sweep(cfg)
        assert len(curves) == 2
        assert [c.alpha for c in curves] == [0.5, 0.9]
        for c in curves:
            assert [p.ebn0_db for p in c.points] == [0.0, 5.0, 10.0]

    def test_sweep_points_are_the_curves_in_order(self):
        cfg = small_cfg(alphas=(0.9, 0.5), ebn0_db_grid=(4.0, 8.0),
                        min_bit_errors=20, max_codewords=10_000)
        assert list(sweep_points(cfg)) == [p for c in sweep(cfg) for p in c.points]

    def test_sweep_points_equal_at_1_2_and_8_workers(self):
        # the 0 and 10 dB points stop after one block and the 20 dB points run
        # two blocks or to the 4-block cap, so with threads the points finish
        # out of sweep order
        cfg = small_cfg(alphas=(0.5, 0.9), ebn0_db_grid=(0.0, 10.0, 20.0), max_codewords=40_000)
        ref = list(sweep_points(cfg))
        assert [(p.alpha, p.ebn0_db) for p in ref] == [
            (a, s) for a in cfg.alphas for s in cfg.ebn0_db_grid]
        assert [p.codewords_used for p in ref] == [10_000, 10_000, 40_000, 10_000, 10_000, 20_000]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so the decide lock is contended
        try:
            for workers in (2, 8):
                assert list(sweep_points(dataclasses.replace(cfg, workers=workers))) == ref
        finally:
            sys.setswitchinterval(interval)

    def test_closing_a_sweep_stops_its_points(self, monkeypatch):
        # At 20 dB the alpha 0.99 point reaches 2,000 bit errors in one block and
        # the other three need about 80 blocks each. Two workers start 0.99 and
        # 0.5; when 0.99 is read, 0.6 may have started and 0.7 is pending.
        # Closing the sweep cancels 0.7, stops each running point within one
        # more block and joins the pool's threads.
        stops, opened, draws = [], [], []  # draws: (stream key, rows, stop already set)

        class CountingStream:
            def __init__(self, key, gen):
                self.key, self.gen = key, gen
                opened.append(key)

            def random(self, *args, **kwargs):
                stopped = any(stop.is_set() for stop in stops)
                out = self.gen.random(*args, **kwargs)
                draws.append((self.key, out.shape[0], stopped))
                return out

        def recording_point(cfg, alpha, ebn0_db, *, stop=None):
            stops.append(stop)
            return run_ber_point(cfg, alpha, ebn0_db, stop=stop)

        monkeypatch.setattr(montecarlo, "trial_stream",
                            lambda key, lo=0: CountingStream(key, trial_stream(key, lo)))
        monkeypatch.setattr(montecarlo, "run_ber_point", recording_point)
        cfg = small_cfg(alphas=(0.99, 0.5, 0.6, 0.7), ebn0_db_grid=(20.0,),
                        min_bit_errors=2_000, max_codewords=10**7, workers=2)
        threads = threading.active_count()
        points = sweep_points(cfg)
        assert next(points).codewords_used == TRIALS_PER_BLOCK
        points.close()
        assert threading.active_count() == threads
        assert stops and all(stop is stops[0] for stop in stops) and stops[0].is_set()
        key = {a: point_stream_key(cfg.seed, a, 20.0) for a in cfg.alphas}
        assert key[0.5] in opened and key[0.7] not in opened
        for k in set(opened) - {key[0.99]}:
            assert sum(rows for kk, rows, stopped in draws if kk == k and stopped) <= (
                TRIALS_PER_BLOCK)
            assert sum(rows for kk, rows, _ in draws if kk == k) < 20 * TRIALS_PER_BLOCK

    def test_stopped_point_raises_instead_of_returning(self, monkeypatch):
        stop = threading.Event()
        stop.set()
        with pytest.raises(CancelledError):
            run_ber_point(small_cfg(), 0.5, 10.0, stop=stop)
        # set during the first block: that block completes, the second never starts
        stop.clear()
        drawn = []

        class StoppingStream:
            def __init__(self, gen):
                self.gen = gen

            def random(self, *args, **kwargs):
                stop.set()
                out = self.gen.random(*args, **kwargs)
                drawn.append(out.shape[0])
                return out

        monkeypatch.setattr(montecarlo, "trial_stream",
                            lambda key, lo=0: StoppingStream(trial_stream(key, lo)))
        with pytest.raises(CancelledError):
            run_ber_point(small_cfg(min_bit_errors=10**9), 0.5, 10.0, stop=stop)
        assert sum(drawn) == TRIALS_PER_BLOCK

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


def pairs_of(curve):
    """The (ebn0_db, ber) pairs of a curve, as ``snr_degradation`` reads them."""
    return [(p.ebn0_db, p.ber) for p in curve.points]


def counted_point(alpha=0.5, ebn0_db=10.0, bit_errors=100, codewords_used=2_500, kind="qpsk",
                  seed=0):
    """A point built from counts, as ``run_ber_point`` builds one."""
    return BerPoint(alpha=alpha, ebn0_db=ebn0_db, kind=kind, seed=seed, bit_errors=bit_errors,
                    codewords_used=codewords_used)


class TestPointRecord:
    def test_settable_fields_are_the_counts(self):
        # everything else is derived, so a derived field cannot be set apart from its counts
        assert [f.name for f in dataclasses.fields(BerPoint) if f.init] == [
            "alpha", "ebn0_db", "kind", "seed", "bit_errors", "codewords_used"]
        p = counted_point()
        assert (p.bits_simulated, p.ber, p.status) == (10_000, 1e-2, "ok")
        assert p.stream_key == point_stream_key(0, 0.5, 10.0)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(p, ber=0.0)
        assert dataclasses.replace(p, bit_errors=0).status == "upper-bound-only"

    def test_rejects_unknown_kind_and_empty_run(self):
        with pytest.raises(ValueError, match="unsupported constellation kind"):
            counted_point(kind="qam64")
        with pytest.raises(ValueError, match="count must be a positive integer"):
            counted_point(codewords_used=0)

    def test_rejects_bad_alpha_ebn0_and_error_count(self):
        with pytest.raises(ValueError, match="power imbalance factor"):
            counted_point(alpha=2.0)
        with pytest.raises(ValueError, match="Eb/N0 must be finite"):
            counted_point(ebn0_db=float("nan"))
        # QPSK: one codeword carries 4 bits
        for bad in (5, -3, 1.0, True):
            with pytest.raises(ValueError, match="bit_errors"):
                counted_point(bit_errors=bad, codewords_used=1)
        assert counted_point(bit_errors=4, codewords_used=1).ber == 1.0

    def test_stores_the_checked_floats(self):
        p = counted_point(alpha="0.5", ebn0_db=-0.0)
        assert p == counted_point(alpha=0.5, ebn0_db=0.0)
        assert (type(p.alpha), type(p.ebn0_db), math.copysign(1.0, p.ebn0_db)) == (
            float, float, 1.0)

    def test_stores_the_checked_seed_and_counts(self):
        # numpy scalars are stored as the ints they stand for, so a point serialises as JSON
        p = counted_point(seed=np.uint64(3), bit_errors=np.int64(1), codewords_used=np.int64(10))
        assert p == counted_point(seed=3, bit_errors=1, codewords_used=10)
        assert [type(getattr(p, name)) for name in ("seed", "bit_errors", "codewords_used",
                                                    "bits_simulated", "ber")] == [
            int, int, int, int, float]
        assert json.loads(json.dumps(dataclasses.asdict(p)))["seed"] == 3
        with pytest.raises(ValueError, match="seed must be an integer"):
            counted_point(seed=2**64)

    def test_curve_stores_its_points_as_a_tuple(self):
        points = [counted_point(0.9, 10.0), counted_point(0.9, 20.0)]
        for given in (points, (p for p in points)):
            curve = BerCurve(given)
            assert (curve.points, curve.alpha) == (tuple(points), 0.9)
            assert hash(curve) == hash(BerCurve(tuple(points)))

    def test_curve_reads_one_alpha_from_its_points(self):
        assert BerCurve((counted_point(0.9, 10.0), counted_point(0.9, 20.0))).alpha == 0.9
        with pytest.raises(ValueError, match="share one alpha"):
            BerCurve((counted_point(0.5, 10.0), counted_point(0.9, 20.0)))
        with pytest.raises(ValueError, match="strictly increasing"):
            BerCurve((counted_point(0.5, 20.0), counted_point(0.5, 10.0)))


class TestDegradation:
    def make_curve(self, alpha, pairs):
        # QPSK: 100 errors in round(25 / b) codewords of 4 bits give ber == b exactly
        curve = BerCurve(tuple(counted_point(alpha, s, codewords_used=round(25 / b))
                               for s, b in pairs))
        assert pairs_of(curve) == pairs
        return curve

    def test_crossing_log_linear(self):
        curve = self.make_curve(0.5, [(10.0, 1e-2), (20.0, 1e-4)])
        # log-linear: 1e-3 sits exactly halfway between 1e-2 and 1e-4
        assert crossing_from_pairs(pairs_of(curve), 1e-3) == pytest.approx(15.0, rel=1e-12)

    def test_crossing_on_flat_segment_is_its_start(self):
        # a segment that sits at the target brackets it without a slope
        assert crossing_from_pairs([(10.0, 1e-3), (12.0, 1e-3), (20.0, 1e-5)], 1e-3) == 10.0

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
            snr_degradation(curve, curve, 1e-6)
        with pytest.raises(ValueError, match="insufficient curve range"):
            snr_degradation(curve, curve, 0.5)

    def test_zero_ber_points_are_ignored_for_crossing(self):
        curve = self.make_curve(0.5, [(10.0, 1e-2), (20.0, 1e-4)])
        zero_pt = counted_point(0.5, 30.0, bit_errors=0, codewords_used=250)
        assert (zero_pt.ber, zero_pt.status) == (0.0, "upper-bound-only")
        curve2 = BerCurve(curve.points + (zero_pt,))
        assert crossing_from_pairs(pairs_of(curve2), 1e-3) == pytest.approx(15.0, rel=1e-12)
