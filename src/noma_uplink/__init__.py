"""2-user power-domain NOMA / MU-MIMO uplink toolbox.

Library for studying the effect of the user power imbalance on the uplink
of a 2-user, 2-antenna system over uncorrelated Rayleigh fading: Gray-coded
QPSK/16QAM constellations, joint maximum-likelihood and SIC detection,
pairwise-error-probability union bounds on the average bit error
probability, and a reproducible Monte Carlo BER harness.
"""

from .bounds import (
    TABLE_ALPHAS,
    error_event_pep_table,
    event_norm,
    optimal_alpha,
    pairwise_sum_excess,
    pep_bound,
    symmetry_gaps,
    union_bound_value,
)
from .channel import NoiseModel, synthesize, validate_alpha
from .constellation import Constellation, build_constellation
from .detectors import detect
from .montecarlo import (
    BerCurve,
    BerPoint,
    SimConfig,
    run_ber_point,
    snr_degradation,
    sweep,
)
from .rng import RNG_ALGORITHM, point_stream_key, trial_stream

__version__ = "0.1.0"
