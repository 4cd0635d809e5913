"""Reproducible Monte Carlo BER estimation over the 2-user uplink.

Reproducibility contract
------------------------
A BER point is a pure function of (seed, alpha, ebn0_db, kind, detector,
min_bit_errors, max_codewords): the worker count never changes the result.

* Every point owns a Philox stream keyed on (seed, alpha, ebn0_db); trial
  ``t`` always reads doubles ``[16*t, 16*t + 16)`` of that stream, so any
  partition of the trial range sees identical data (see ``rng``).
* Each slice of trials is drawn as one batch. For ML it is first checked:
  ``detectors.bracket_proven`` reads brackets of each trial's 12 normals
  from ``rng``'s table, without computing them, and proves most sent
  codewords to be the ML decision of the trial that ``synthesize`` would
  produce. A proven trial holds no bit error and is never synthesized.
  The unproven trials go through the one decoding path: ``synthesize``
  turns the draw rows into sent symbols and received vectors,
  ``detectors.detect`` decides them, and the errors are read from
  ``Constellation.hamming``. SIC's decisions
  are not ML's, so SIC skips the check and decodes every trial. Either
  way each trial's decision, and every ``BerPoint``, is as if every trial
  were decoded.
* The stopping rule is evaluated on fixed blocks of 10^4 trials: the point
  stops after the first block at which the cumulative bit-error count
  reaches ``min_bit_errors`` (or when ``max_codewords`` is exhausted).
  A point runs its slices in order in the calling thread, from one Philox
  stream opened at trial 0 into one draw buffer; nothing past the stop
  index is drawn.
* A batch is decoded by one call of a per-batch function, so its arrays
  are freed before the next slice is drawn (a slice inlined in the block
  loop kept the last one's arrays alive and read 0.6 MB more peak RSS on
  the 16QAM benchmark). Every slice takes one decoding path: its rows to
  decode (ML's unproven rows, or every SIC row) are copied into one held
  buffer of ``SLICE / 2`` rows, allocated once per point beside the draw
  buffer, and the held buffer is decoded whenever it is full, and at the
  block's end, since the stopping rule reads the block's errors. So a
  proven row is never synthesized, and at high Eb/N0 one batch of a few
  hundred rows is decoded per block. The cap keeps each batch's arrays
  small: a held buffer of ``SLICE`` rows read 0.3-0.5 MB more peak RSS
  and 2-3x the minor faults on the Monte Carlo benchmarks. Deciding a
  mostly unproven slice whole from the draw buffer instead also decodes
  its proven rows: in ms per 10^4 trials (best of 5), a QPSK point at
  alpha 0.5, 10 dB took 7.5-8.5 that way against 5.0-5.1 held, and a
  16QAM point at alpha 0.9, 16 dB 9.6-10.8 against 7.1-7.2, and the
  benchmarks read 0.25-0.33 MB more peak RSS. The check reads the
  channel's brackets, then the noise's, and frees the first before it
  reads the second. With all 12 read at once its arrays peaked at about
  650 kB a slice, and glibc trimmed and re-faulted the heap each slice:
  the QPSK benchmark's child read 200-280 thousand minor faults and
  0.26-0.40 s of system time, against 6-10 thousand and about 0.01 s with
  the peak at 470 kB.
* Decoding *produces*: the Philox fill into the draw buffer and
  ``synthesize``, whose long calls (the fill and ``ndtri``) release the
  GIL. Then it *decides*: ``detect`` and the Hamming sum, many short numpy
  calls, run under one module-level lock, so one thread decides at a
  time; the bracketed check, also many short calls, runs under it too.
  Two threads running ``detect`` together decided only 0.53-0.85x as many
  trials per second as one thread alone (2,500-trial QPSK slices on a
  2-vCPU host). A QPSK slice at alpha 0.5, 30 dB spends, in ms per 10^4
  trials, 0.95 in the draw and 1.4-1.5 in the check, which proves 98.7%
  of its trials. Decoding the whole slice would take 2.4-2.5 in
  ``synthesize`` (1.8-1.9 of it ``ndtri``) and 2.2 in ``detect``; its
  unproven rows take 0.2 and 0.25-0.27 when decoded alone, and 0.06 and
  0.08-0.09 once the block's rows are held into one batch. At 20 dB the
  check proves 91%, and the held rows take 0.25 and 0.24.
* Workers run whole points. ``sweep_points`` submits a sweep's points to
  ``cfg.workers`` threads, highest Eb/N0 first (the long points; ties in
  alpha order), and yields them in sweep order; at one worker it runs them
  in the calling thread. Closing the sweep, or an exception in it, cancels
  the pending points and sets the ``stop`` event it passed to the running
  ones, each of which raises ``CancelledError`` at its next block instead
  of returning a partial ``BerPoint``. Which thread runs a point cannot
  change it.

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
import threading
from concurrent.futures import CancelledError, ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .channel import (NoiseModel, synthesize, validate_alpha, validate_alphas, validate_count,
                      validate_ebn0_grid)
from .constellation import build_constellation
from .detectors import DETECTORS, bracket_proven, detect
from .rng import DRAWS_PER_TRIAL, point_stream_key, trial_stream, validate_seed

TRIALS_PER_BLOCK = 10_000
# Trials drawn and detected as one batch; a block is split into such slices.
SLICE = 2_500
# One decider at a time across the threads of every sweep in the process.
_DECIDER = threading.Lock()


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


def _batch_errors(cfg, c, alpha, n0, u):
    """Bit errors in the trials of draw rows ``u``; the batch's arrays go on return."""
    # produce: the signal model, whose long calls release the GIL
    # sampled noise: variance n0 per real component (see channel module docs)
    i1, i2, h, r = synthesize(u, c, alpha, n0)
    # decide: many short numpy calls, one thread at a time
    with _DECIDER:
        j1, j2 = detect(cfg.detector, r, h, alpha, c)
        return int((c.hamming[i1, j1] + c.hamming[i2, j2]).sum())


def _block_errors(cfg, c, alpha, n0, gen, buf, hold, trials):
    """Bit errors in the next ``trials`` trials of ``gen``, drawn a slice at a time into ``buf``.

    Each slice's rows to decode are copied into ``hold``, which is decoded
    whenever it is full and at the block's end. For ML those are the rows
    whose sent codeword ``bracket_proven`` does not prove (a proven
    codeword is its trial's decision, so it holds no error); for SIC, every
    row.
    """
    errors, rows = 0, 0
    for lo in range(0, trials, SLICE):
        # the buffer's length caps a slice at SLICE rows
        u = gen.random(out=buf[:trials - lo])
        if cfg.detector == "ml":
            with _DECIDER:
                todo = np.flatnonzero(~bracket_proven(u, c, alpha, n0))
        else:
            todo = np.arange(len(u))
        while len(todo):
            n = min(len(todo), len(hold) - rows)
            # the indices are valid, and mode="raise" would buffer the copy
            np.take(u, todo[:n], axis=0, out=hold[rows:rows + n], mode="clip")
            todo, rows = todo[n:], rows + n
            if rows == len(hold):
                errors += _batch_errors(cfg, c, alpha, n0, hold)
                rows = 0
    if rows:
        errors += _batch_errors(cfg, c, alpha, n0, hold[:rows])
    return errors


def run_ber_point(cfg, alpha, ebn0_db, *, stop=None):
    """Estimate the BER at one (alpha, Eb/N0) point under ``cfg``'s policy.

    The slices run in the calling thread. Once ``stop`` (a ``threading.Event``,
    or None) is set, the point raises ``CancelledError`` at its next block.
    """
    alpha = validate_alpha(alpha)
    nm = NoiseModel.from_ebn0_db(ebn0_db)
    c = build_constellation(cfg.kind)
    gen = trial_stream(point_stream_key(cfg.seed, alpha, nm.ebn0_db))
    buf = np.empty((min(SLICE, cfg.max_codewords), DRAWS_PER_TRIAL))
    hold = np.empty((min(SLICE // 2, cfg.max_codewords), DRAWS_PER_TRIAL))
    errors = 0
    for first in range(0, cfg.max_codewords, TRIALS_PER_BLOCK):
        if stop is not None and stop.is_set():
            raise CancelledError(f"point alpha={alpha} Eb/N0={nm.ebn0_db} dB was stopped")
        trials = min(first + TRIALS_PER_BLOCK, cfg.max_codewords)
        errors += _block_errors(cfg, c, alpha, nm.n0, gen, buf, hold, trials - first)
        if errors >= cfg.min_bit_errors:
            break
    return BerPoint(alpha=alpha, ebn0_db=nm.ebn0_db, kind=cfg.kind, seed=cfg.seed,
                    bit_errors=errors, codewords_used=trials)


def sweep_points(cfg):
    """Yield each BerPoint of ``cfg``'s sweep in sweep order, alpha-major then Eb/N0.

    ``cfg.workers`` threads run whole points, highest Eb/N0 first; one worker
    runs them in the calling thread. Closing the generator cancels the
    pending points and stops the running ones at their next block.
    """
    grid = [(a, s) for a in cfg.alphas for s in cfg.ebn0_db_grid]
    if cfg.workers == 1:
        yield from (run_ber_point(cfg, a, s) for a, s in grid)
        return
    stop = threading.Event()
    pool = ThreadPoolExecutor(max_workers=cfg.workers)
    try:
        # the long points first: the grid's Eb/N0 values increase, ties go in alpha order
        futures = {(a, s): pool.submit(run_ber_point, cfg, a, s, stop=stop)
                   for s in reversed(cfg.ebn0_db_grid) for a in cfg.alphas}
        yield from (futures[point].result() for point in grid)
    finally:
        stop.set()
        pool.shutdown(cancel_futures=True)


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
