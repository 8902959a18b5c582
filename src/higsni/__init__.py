"""Hybrid integrator-gain controllers for negative-imaginary plants.

Simulation, stability conditions and numerical certificates for loops that
close a HIGS element (or a hybrid PII^2 bank of them) around a SISO
negative-imaginary plant in positive feedback.
"""

from .controllers import (
    CascadeAssumptionViolated,
    HigsPii2Params,
    InvalidParameters,
    IrcParams,
    ModeTriple,
    Pii2Params,
    StabilityVerdict,
    UnsolvableLoop,
    check_irc_stability,
    check_pii2_stability,
    gain_sum_admissible,
    higs_pii2_mode_update,
    irc_tf,
    pii2rc_sni_value,
    pii2rc_tf,
    resolve_pii2_error_rate,
    resolve_pii2_error_signal,
)
from .higs import (
    HigsIrcParams,
    HigsMode,
    HigsParams,
    determine_mode_base,
    determine_mode_irc,
    project_to_sector,
    run_element,
    sector_contains,
    storage_V1,
    storage_V2_cascade,
    storage_V_h,
)
from .lti import (
    CertReport,
    DimensionMismatch,
    NICertificate,
    RationalTF,
    SingularA,
    SingularAtFrequency,
    StateSpace,
    assess_ni,
    dc_gain,
    freq_response,
    is_minimal,
    ni_frequency_test,
    search_ni_certificate,
    sni_frequency_test,
    ss_to_tf,
    tf_to_ss,
    verify_ni_certificate,
)
from .sim import (
    CertificateNotPD,
    IllPosedLoop,
    LyapunovIrcCertificate,
    LyapunovPii2Certificate,
    NonFiniteState,
    SimConfig,
    Tolerances,
    Trajectory,
    check_dissipation,
    check_monotone,
    check_sector,
    closed_loop_matrices,
    lyapunov_W_irc,
    lyapunov_W_pii2,
    simulate_higs_irc_loop,
    simulate_higs_pii2_loop,
    simulate_linear_loop,
)

__version__ = "0.1.0"
