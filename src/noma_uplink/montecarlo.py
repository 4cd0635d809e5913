"""Reproducible Monte Carlo BER estimation over the 2-user uplink.

Reproducibility contract
------------------------
A BER point is a pure function of (seed, alpha, ebn0_db, kind, detector,
min_bit_errors, max_codewords): chunk size and worker count never change
the result.

* Every point owns a Philox stream keyed on (seed, alpha, ebn0_db); trial
  ``t`` always reads doubles ``[16*t, 16*t + 16)`` of that stream, so any
  partition of the trial range sees identical data (see ``rng``).
* Each slice of trials is one batch: ``channel.synthesize`` decodes the
  per-trial draw layout into sent symbols and received vectors,
  ``detectors.detect`` decides them, and the errors are read from
  ``Constellation.hamming``.
* The stopping rule is evaluated on fixed blocks of 10^4 trials: the point
  stops after the first block at which the cumulative bit-error count
  reaches ``min_bit_errors`` (or when ``max_codewords`` is exhausted).
  Workers may compute blocks speculatively; blocks past the stop index are
  discarded, so the outcome is partition-independent.

``chunk_size`` only bounds how many trials are vectorized at once (memory
knob). If ``max_codewords`` runs out with zero errors the point is returned
with ber = 0 and status ``"upper-bound-only"``: the estimate is only an
upper bound witness, not a rate.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import NoiseModel, synthesize, validate_alpha
from .constellation import build_constellation
from .detectors import detect
from .rng import DRAWS_PER_TRIAL, point_stream_key, trial_stream

TRIALS_PER_BLOCK = 10_000

DETECTORS = ("ml", "sic")
KINDS = ("qpsk", "qam16")

DEFAULT_SEED = 0x6E6F6D61  # "noma"


@dataclass(frozen=True)
class SimConfig:
    kind: str = "qpsk"
    detector: str = "ml"
    alphas: tuple = (0.5,)
    ebn0_db_grid: tuple = (20.0,)
    seed: int = DEFAULT_SEED
    min_bit_errors: int = 200
    max_codewords: int = 100_000_000
    chunk_size: int = 10_000
    workers: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown constellation kind {self.kind!r}")
        if self.detector not in DETECTORS:
            raise ValueError(f"unknown detector {self.detector!r}")
        for a in self.alphas:
            validate_alpha(a)
        grid = tuple(self.ebn0_db_grid)
        for s in grid:
            NoiseModel.from_ebn0_db(s)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("ebn0_db_grid must be strictly increasing")
        if self.min_bit_errors < 1:
            raise ValueError("min_bit_errors must be at least 1")
        if self.max_codewords < 1 or self.chunk_size < 1 or self.workers < 1:
            raise ValueError("max_codewords, chunk_size and workers must be positive")


@dataclass(frozen=True)
class BerPoint:
    alpha: float
    ebn0_db: float
    bit_errors: int
    bits_simulated: int
    ber: float
    ci95_halfwidth: float
    seed: int
    stream_key: int
    codewords_used: int
    status: str  # "ok" | "upper-bound-only"


@dataclass(frozen=True)
class BerCurve:
    config: SimConfig
    alpha: float
    points: tuple

    def __post_init__(self):
        grid = [p.ebn0_db for p in self.points]
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("BerCurve points must be strictly increasing in ebn0_db")


def run_ber_point(cfg, alpha, ebn0_db):
    """Estimate the BER at one (alpha, Eb/N0) point under ``cfg``'s policy."""
    alpha = validate_alpha(alpha)
    nm = NoiseModel.from_ebn0_db(ebn0_db)
    c = build_constellation(cfg.kind)
    hamming = np.array(c.hamming, dtype=np.int64)
    key = point_stream_key(cfg.seed, alpha, ebn0_db)

    sizes = []
    remaining = cfg.max_codewords
    while remaining > 0:
        sizes.append(min(TRIALS_PER_BLOCK, remaining))
        remaining -= sizes[-1]

    def block_job(b):
        """Bit errors in block ``b``, drawn and detected ``chunk_size`` trials at a time."""
        first = b * TRIALS_PER_BLOCK
        stop = first + sizes[b]
        total = 0
        for lo in range(first, stop, cfg.chunk_size):
            u = trial_stream(key, lo).random((min(cfg.chunk_size, stop - lo), DRAWS_PER_TRIAL))
            # sampled noise: variance n0 per real component (see channel module docs)
            i1, i2, h, r = synthesize(u, c, alpha, nm.n0)
            j1, j2 = detect(cfg.detector, r, h, alpha, c)
            total += int((hamming[i1, j1] + hamming[i2, j2]).sum())
        return total

    errors = 0
    trials = 0
    if cfg.workers == 1:
        for b in range(len(sizes)):
            errors += block_job(b)
            trials += sizes[b]
            if errors >= cfg.min_bit_errors:
                break
    else:
        window = cfg.workers * 2
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            futures = {b: pool.submit(block_job, b) for b in range(min(window, len(sizes)))}
            next_submit = len(futures)
            b = 0
            while b < len(sizes):
                got = futures.pop(b).result()
                errors += got
                trials += sizes[b]
                if errors >= cfg.min_bit_errors:
                    break
                if next_submit < len(sizes):
                    futures[next_submit] = pool.submit(block_job, next_submit)
                    next_submit += 1
                b += 1

    bits_per_codeword = 2 * c.bits_per_symbol
    bits = trials * bits_per_codeword
    ber = errors / bits
    ci = 1.96 * math.sqrt(ber * (1.0 - ber) / bits) if bits else 0.0
    return BerPoint(
        alpha=alpha,
        ebn0_db=float(ebn0_db),
        bit_errors=errors,
        bits_simulated=bits,
        ber=ber,
        ci95_halfwidth=ci,
        seed=cfg.seed,
        stream_key=key,
        codewords_used=trials,
        status="ok" if errors > 0 else "upper-bound-only",
    )


def sweep(cfg):
    """One BerCurve per alpha in ``cfg.alphas`` over ``cfg.ebn0_db_grid``."""
    curves = []
    for a in cfg.alphas:
        pts = tuple(run_ber_point(cfg, a, s) for s in cfg.ebn0_db_grid)
        curves.append(BerCurve(config=cfg, alpha=a, points=pts))
    return curves


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


def crossing_ebn0_db(curve, target_ber):
    """Eb/N0 at which the curve crosses ``target_ber`` (see crossing_from_pairs)."""
    got = crossing_from_pairs(((p.ebn0_db, p.ber) for p in curve.points), target_ber)
    if got is None:
        raise ValueError(
            f"insufficient curve range: BER {target_ber:g} not bracketed"
            f" for alpha={curve.alpha}"
        )
    return got


def snr_degradation(reference, test, target_ber=1e-3):
    """Extra Eb/N0 (dB) the test curve needs to reach ``target_ber``."""
    return crossing_ebn0_db(test, target_ber) - crossing_ebn0_db(reference, target_ber)
