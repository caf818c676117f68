"""Recovery-induced erasure attack simulator for active-basis QKD receivers.

A discrete-event Monte Carlo model of a BBM92/BB84 receiver whose
single-photon detectors carry a count-rate-dependent dead time, an
eavesdropper module implementing the pre-pulse erasure strategy, the
closed-form QBER / erasure / mutual-information predictions, and the
inter-arrival-histogram methodology for extracting the dead-time curve
from timestamp streams.
"""

from .adversary import (
    AttackConfig,
    AttackMode,
    DegenerateAttackError,
    branch_click_probabilities,
    effective_r,
)
from .analysis import (
    StealthScanRow,
    binary_entropy,
    e_obs,
    mutual_info_bob_sifted,
    mutual_info_eve_sifted,
    r_bound,
    r_threshold,
    sift_probability,
    stealth_scan,
)
from .detector import (
    AvailabilityModel,
    DeadTimeCurve,
    SaturationError,
    availability,
    busy_fraction,
    default_dead_time_curve,
    observed_rate,
)
from .protocol import (
    BranchStats,
    ProtocolConfig,
    SimulationReport,
    run_simulation,
)
from .quantum import Basis, PolarizationState
from .timetag import (
    EstimationError,
    FixedPointError,
    InsufficientDataError,
    InterArrivalHistogram,
    TimestampStream,
    apply_dead_time,
    estimate_dead_time,
    generate_poisson_stream,
    interarrival_histogram,
    sweep_dead_time,
)

__version__ = "0.1.0"
