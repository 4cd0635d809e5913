"""2-user power-domain NOMA / MU-MIMO uplink toolbox.

Library for studying the effect of the user power imbalance on the uplink
of a 2-user, 2-antenna system over uncorrelated Rayleigh fading: Gray-coded
QPSK/16QAM constellations, joint maximum-likelihood and SIC detection,
pairwise-error-probability union bounds on the average bit error
probability, and a reproducible Monte Carlo BER harness.
"""

from .bounds import (
    ErrorEvent,
    PepTableRow,
    enumerate_error_events,
    error_event_pep_table,
    event_norm,
    optimal_alpha,
    pairwise_sum_excess,
    pep_bound,
    symmetry_gaps,
    table_abep_bounds,
    union_bound_value,
)
from .channel import (
    ChannelMatrix,
    NoiseModel,
    ReceivedVector,
    sample_channel,
    sample_noise,
    scale_codeword,
    synthesize,
    transmit,
    validate_alpha,
)
from .constellation import (
    Codeword,
    Constellation,
    bit_distance,
    build_constellation,
    codeword_bit_distance,
    enumerate_codewords,
    make_codeword,
)
from .detectors import detect, ml_detect, sic_detect
from .montecarlo import (
    BerCurve,
    BerPoint,
    SimConfig,
    crossing_ebn0_db,
    crossing_from_pairs,
    run_ber_point,
    snr_degradation,
    sweep,
)
from .rng import RNG_ALGORITHM, derive_key, point_stream_key, trial_stream

__version__ = "0.1.0"
