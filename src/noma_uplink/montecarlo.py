"""Reproducible Monte Carlo BER estimation over the 2-user uplink.

Reproducibility contract
------------------------
A BER point is a pure function of (seed, alpha, ebn0_db, kind, detector,
min_bit_errors, max_codewords): chunk size and worker count never change
the result.

* Every point owns a Philox stream keyed on (seed, alpha, ebn0_db); trial
  ``t`` always reads doubles ``[16*t, 16*t + 16)`` of that stream, so any
  partition of the trial range sees identical data (see ``rng``).
* Per-trial draw layout (one double per normal, inverse-CDF transform):
  2 symbol picks, 8 channel normals (h11, h12, h21, h22; real then imag),
  4 noise normals (w1 re/im, w2 re/im), 2 padding.
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

from .channel import NoiseModel, sample_channel, sample_noise, transmit, validate_alpha
from .constellation import build_constellation, make_codeword
from .detectors import ml_detect, sic_detect
from .rng import DRAWS_PER_TRIAL, point_stream_key, trial_stream, normals_from_uniforms

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


class _Kernel:
    """Precomputed constants for vectorized detection at one (kind, alpha, n0)."""

    def __init__(self, kind, alpha, n0, detector):
        c = build_constellation(kind)
        self.c = c
        self.M = c.M
        self.alpha = float(alpha)
        self.detector = detector
        self.noise_sigma = math.sqrt(n0)
        self.points = np.array(c.points)
        self.s1 = math.sqrt(self.alpha)
        self.s2 = math.sqrt(1.0 - self.alpha)
        # candidate transmit vectors, row-major codeword order (user 2 fastest)
        k = np.arange(c.M * c.M)
        self.cand_i1 = k // c.M
        self.cand_i2 = k % c.M
        self.cand_x1 = self.s1 * self.points[self.cand_i1]
        self.cand_x2 = self.s2 * self.points[self.cand_i2]
        self.sym_dist = np.array(c.hamming, dtype=np.int64)

    def run_slice(self, u):
        """Bit errors in a slice of trials; ``u`` is (n, DRAWS_PER_TRIAL)."""
        m = self.M
        i1 = (u[:, 0] * m).astype(np.int64)
        i2 = (u[:, 1] * m).astype(np.int64)
        g = normals_from_uniforms(u[:, 2:10]) / math.sqrt(2.0)
        h11 = g[:, 0] + 1j * g[:, 1]
        h12 = g[:, 2] + 1j * g[:, 3]
        h21 = g[:, 4] + 1j * g[:, 5]
        h22 = g[:, 6] + 1j * g[:, 7]
        gn = normals_from_uniforms(u[:, 10:14]) * self.noise_sigma
        x1 = self.s1 * self.points[i1]
        x2 = self.s2 * self.points[i2]
        r1 = h11 * x1 + h12 * x2 + (gn[:, 0] + 1j * gn[:, 1])
        r2 = h21 * x1 + h22 * x2 + (gn[:, 2] + 1j * gn[:, 3])

        if self.detector == "ml":
            e1 = r1[:, None] - (h11[:, None] * self.cand_x1 + h12[:, None] * self.cand_x2)
            e2 = r2[:, None] - (h21[:, None] * self.cand_x1 + h22[:, None] * self.cand_x2)
            metrics = e1.real**2 + e1.imag**2 + e2.real**2 + e2.imag**2
            k_hat = np.argmin(metrics, axis=1)
            j1 = self.cand_i1[k_hat]
            j2 = self.cand_i2[k_hat]
        else:
            e1 = r1[:, None] - self.s1 * h11[:, None] * self.points
            e2 = r2[:, None] - self.s1 * h21[:, None] * self.points
            j1 = np.argmin(e1.real**2 + e1.imag**2 + e2.real**2 + e2.imag**2, axis=1)
            y1 = r1 - self.s1 * h11 * self.points[j1]
            y2 = r2 - self.s1 * h21 * self.points[j1]
            e1 = y1[:, None] - self.s2 * h12[:, None] * self.points
            e2 = y2[:, None] - self.s2 * h22[:, None] * self.points
            j2 = np.argmin(e1.real**2 + e1.imag**2 + e2.real**2 + e2.imag**2, axis=1)

        errs = self.sym_dist[i1, j1] + self.sym_dist[i2, j2]
        return int(errs.sum())


def _block_errors(kernel, key, start, n_trials, chunk_size):
    """Bit errors over trials [start, start + n_trials), sliced by chunk_size."""
    total = 0
    done = 0
    while done < n_trials:
        n = min(chunk_size, n_trials - done)
        gen = trial_stream(key, start + done)
        u = gen.random((n, DRAWS_PER_TRIAL))
        total += kernel.run_slice(u)
        done += n
    return total


def simulate_trial(rng, c, alpha, nm, detector="ml"):
    """Run one trial scalar-path: draw codeword, channel, noise; detect.

    Consumes exactly DRAWS_PER_TRIAL doubles from ``rng`` in the documented
    layout, so a stream positioned at trial ``t`` reproduces the vectorized
    harness trial for trial ``t`` bit-exactly. Returns (sent, detected).
    """
    u_sym = rng.random(2)
    i1 = int(u_sym[0] * c.M)
    i2 = int(u_sym[1] * c.M)
    w = make_codeword(c, i1, i2)
    h = sample_channel(rng)
    noise = sample_noise(rng, nm)
    rng.random(DRAWS_PER_TRIAL - 14)  # discard pad draws
    r = transmit(h, w, alpha, noise)
    detect = ml_detect if detector == "ml" else sic_detect
    return w, detect(r, h, alpha, c)


def run_ber_point(cfg, alpha, ebn0_db):
    """Estimate the BER at one (alpha, Eb/N0) point under ``cfg``'s policy."""
    alpha = validate_alpha(alpha)
    nm = NoiseModel.from_ebn0_db(ebn0_db)
    # sampled noise: variance n0 per real component (see channel module docs)
    kernel = _Kernel(cfg.kind, alpha, nm.n0, cfg.detector)
    key = point_stream_key(cfg.seed, alpha, ebn0_db)

    sizes = []
    remaining = cfg.max_codewords
    while remaining > 0:
        sizes.append(min(TRIALS_PER_BLOCK, remaining))
        remaining -= sizes[-1]

    def block_job(b):
        start = b * TRIALS_PER_BLOCK
        return _block_errors(kernel, key, start, sizes[b], cfg.chunk_size)

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

    bits_per_codeword = 2 * build_constellation(cfg.kind).bits_per_symbol
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
