"""Reproducible Monte Carlo BER estimation over the 2-user uplink.

Reproducibility contract
------------------------
A BER point is a pure function of (seed, alpha, ebn0_db, kind, detector,
min_bit_errors, max_codewords): the worker count never changes the result.

* Every point owns a Philox stream keyed on (seed, alpha, ebn0_db); trial
  ``t`` always reads doubles ``[16*t, 16*t + 16)`` of that stream, so any
  partition of the trial range sees identical data (see ``rng``).
* Each slice of trials is one batch: ``channel.synthesize`` decodes the
  per-trial draw layout into sent symbols and received vectors,
  ``detectors.detect`` decides them, and the errors are read from
  ``Constellation.hamming``. The sent codeword is ``detect``'s hint: ML
  takes it without building a trial's metric table when it is proven the
  unique minimum, so decisions, and every ``BerPoint``, are as without it.
* The stopping rule is evaluated on fixed blocks of 10^4 trials: the point
  stops after the first block at which the cumulative bit-error count
  reaches ``min_bit_errors`` (or when ``max_codewords`` is exhausted).
  Slices of one block run across the pool (or in the calling thread at one
  worker); nothing past the stop index is computed.
* A slice runs in two stages. *Produce* is the draw and the signal model:
  the Philox fill writes into a draw buffer that each thread allocates
  once per point, and ``synthesize`` turns those rows into channels and
  received vectors. The fill and ``synthesize``'s ``ndtri`` are long calls
  that release the GIL, so two workers overlap them. *Decide* is the
  receiver and the count: ``detect`` and the Hamming sum are many short
  numpy calls, run under one lock per point. Two threads running
  ``detect`` together decided only 0.53-0.85x as many trials per second as
  one thread alone, while the draw and ``ndtri`` scaled up to 2x
  (2,500-trial QPSK slices on a 2-vCPU host).
* Each thread keeps its Philox generator beside its draw buffer: a slice
  that starts where the thread's last one ended is drawn from it, any
  other opens ``trial_stream(key, lo)``. Both read the same doubles, and a
  one-worker point opens one stream, not one per slice. A QPSK slice at
  alpha 0.5, 20 dB spends, in ms per 10^4 trials, 1.0-1.2 in the draw,
  2.2-2.7 in ``ndtri``, 0.4-0.5 in the rest of ``synthesize`` and 1.4-1.6
  in ``detect``. The QPSK benchmark sweep takes 1.7-2.8 k minor page
  faults. Where the draws land and which thread decides them cannot
  change any ``BerPoint``.

A ``BerPoint`` holds what the run chose and counted: (alpha, ebn0_db, kind,
seed, bit_errors, codewords_used), each checked as ``SimConfig`` checks it
and stored as a Python float or int, with ``0 <= bit_errors <=
bits_simulated``. Its stream key, bits simulated, BER, 95% CI half-width and
status are derived from those in ``BerPoint`` alone, so a point cannot
contradict itself. If ``max_codewords`` runs out with zero errors the point
has ber = 0 and status ``"upper-bound-only"``: the estimate is only an upper
bound witness, not a rate. A ``BerCurve`` stores its points as a tuple.
"""

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import islice, repeat

from .channel import (NoiseModel, synthesize, validate_alpha, validate_alphas, validate_count,
                      validate_ebn0_grid)
from .constellation import build_constellation
from .detectors import DETECTORS, detect
from .rng import DRAWS_PER_TRIAL, point_stream_key, trial_stream, validate_seed

TRIALS_PER_BLOCK = 10_000
# Trials drawn and detected as one batch; a block is split into such slices.
SLICE = 2_500


@dataclass(frozen=True)
class SimConfig:
    kind: str = "qpsk"
    detector: str = "ml"
    alphas: tuple = (0.5,)
    ebn0_db_grid: tuple = (20.0,)
    seed: int = 0x6E6F6D61  # "noma"
    min_bit_errors: int = 200
    max_codewords: int = 100_000_000
    workers: int = 1

    def __post_init__(self):
        build_constellation(self.kind)  # the one kind rule: raises on an unsupported kind
        if self.detector not in DETECTORS:
            raise ValueError(f"unknown detector {self.detector!r}")
        # store the checked values, so sweeps and manifests read what was validated
        object.__setattr__(self, "alphas", validate_alphas(self.alphas))
        object.__setattr__(self, "ebn0_db_grid", validate_ebn0_grid(self.ebn0_db_grid))
        object.__setattr__(self, "seed", validate_seed(self.seed))
        for name in ("min_bit_errors", "max_codewords", "workers"):
            object.__setattr__(self, name, validate_count(getattr(self, name)))


@dataclass(frozen=True)
class BerPoint:
    alpha: float
    ebn0_db: float
    kind: str
    seed: int
    bit_errors: int
    codewords_used: int
    stream_key: int = field(init=False)
    bits_simulated: int = field(init=False)
    ber: float = field(init=False)
    ci95_halfwidth: float = field(init=False)
    status: str = field(init=False)  # "ok" | "upper-bound-only"

    def __post_init__(self):
        c = build_constellation(self.kind)  # the one kind rule
        # store the checked values, as SimConfig does
        object.__setattr__(self, "alpha", validate_alpha(self.alpha))
        object.__setattr__(self, "ebn0_db", NoiseModel.from_ebn0_db(self.ebn0_db).ebn0_db)
        object.__setattr__(self, "seed", validate_seed(self.seed))
        object.__setattr__(self, "codewords_used", validate_count(self.codewords_used))
        bits = self.codewords_used * 2 * c.bits_per_symbol
        e = self.bit_errors
        if isinstance(e, bool) or not isinstance(e, numbers.Integral) or not 0 <= e <= bits:
            raise ValueError(f"bit_errors must be an integer in [0, {bits}], got {e!r}")
        object.__setattr__(self, "bit_errors", int(e))
        # the one estimator: each field below is a function of the fields above
        ber = self.bit_errors / bits
        key = point_stream_key(self.seed, self.alpha, self.ebn0_db)
        object.__setattr__(self, "stream_key", key)
        object.__setattr__(self, "bits_simulated", bits)
        object.__setattr__(self, "ber", ber)
        object.__setattr__(self, "ci95_halfwidth", 1.96 * math.sqrt(ber * (1.0 - ber) / bits))
        object.__setattr__(self, "status", "ok" if self.bit_errors > 0 else "upper-bound-only")


@dataclass(frozen=True)
class BerCurve:
    alpha: float = field(init=False)
    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))  # any iterable; hashable once stored
        validate_ebn0_grid(p.ebn0_db for p in self.points)
        alphas = {p.alpha for p in self.points}
        if len(alphas) != 1:
            raise ValueError(f"a curve's points must share one alpha, got {sorted(alphas)}")
        object.__setattr__(self, "alpha", alphas.pop())


def run_ber_point(cfg, alpha, ebn0_db):
    """Estimate the BER at one (alpha, Eb/N0) point under ``cfg``'s policy."""
    import threading

    import numpy as np

    alpha = validate_alpha(alpha)
    nm = NoiseModel.from_ebn0_db(ebn0_db)
    c = build_constellation(cfg.kind)
    key = point_stream_key(cfg.seed, alpha, nm.ebn0_db)
    rows = min(SLICE, cfg.max_codewords)
    draws = threading.local()  # this point's draw buffer and stream, one per thread
    decider = threading.Lock()

    def slice_errors(lo, block_stop):
        """Bit errors in trials ``[lo, min(lo + SLICE, block_stop))``."""
        n = min(SLICE, block_stop - lo)
        if not hasattr(draws, "u"):
            draws.u, draws.stop = np.empty((rows, DRAWS_PER_TRIAL)), None
        # the thread's stream already stands at trial ``draws.stop``; elsewhere, position one
        if draws.stop != lo:
            draws.gen = trial_stream(key, lo)
        draws.stop = lo + n
        # produce: the draw and the signal model, whose long calls release the GIL
        u = draws.gen.random(out=draws.u[:n])
        # sampled noise: variance n0 per real component (see channel module docs)
        i1, i2, h, r = synthesize(u, c, alpha, nm.n0)
        # decide: many short numpy calls, one thread at a time
        with decider:
            j1, j2 = detect(cfg.detector, r, h, alpha, c, hint=(i1, i2))
            return int((c.hamming[i1, j1] + c.hamming[i2, j2]).sum())

    errors = 0
    trials = 0
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        # a pool starts its threads on the first submit: one worker runs in this thread
        run_slices = pool.map if cfg.workers > 1 else map
        for first in range(0, cfg.max_codewords, TRIALS_PER_BLOCK):
            trials = min(first + TRIALS_PER_BLOCK, cfg.max_codewords)
            errors += sum(run_slices(slice_errors, range(first, trials, SLICE), repeat(trials)))
            if errors >= cfg.min_bit_errors:
                break
    return BerPoint(alpha=alpha, ebn0_db=nm.ebn0_db, kind=cfg.kind, seed=cfg.seed,
                    bit_errors=errors, codewords_used=trials)


def sweep_points(cfg):
    """Yield each BerPoint of ``cfg``'s sweep as it finishes, alpha-major then Eb/N0."""
    for a in cfg.alphas:
        for s in cfg.ebn0_db_grid:
            yield run_ber_point(cfg, a, s)


def sweep(cfg):
    """One BerCurve per alpha in ``cfg.alphas`` over ``cfg.ebn0_db_grid``."""
    points = sweep_points(cfg)
    n = len(cfg.ebn0_db_grid)
    return [BerCurve(tuple(islice(points, n))) for _ in cfg.alphas]


def crossing_from_pairs(pairs, target_ber):
    """Eb/N0 at which a (ebn0_db, ber) sequence crosses ``target_ber``.

    Linear interpolation in (dB, log10 BER) on the first consecutive pair of
    positive-BER points that brackets the target from above. Returns None
    when the target is not bracketed.
    """
    pts = [(s, b) for s, b in sorted(pairs) if b > 0]
    for (s1, b1), (s2, b2) in zip(pts, pts[1:]):
        if b1 >= target_ber >= b2:
            if b1 == b2:
                return s1
            t = (math.log10(target_ber) - math.log10(b1)) / (math.log10(b2) - math.log10(b1))
            return s1 + t * (s2 - s1)
    return None


def snr_degradation(reference, test, target_ber=1e-3):
    """Extra Eb/N0 (dB) the test curve needs to reach ``target_ber``.

    Each curve's crossing is ``crossing_from_pairs`` on its (ebn0_db, ber)
    points; a target that either curve does not bracket is a ValueError.
    """
    def crossing(curve):
        got = crossing_from_pairs(((p.ebn0_db, p.ber) for p in curve.points), target_ber)
        if got is None:
            raise ValueError(
                f"insufficient curve range: BER {target_ber:g} not bracketed"
                f" for alpha={curve.alpha}"
            )
        return got

    return crossing(test) - crossing(reference)
