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
    Pii2Params,
    UnsolvableLoop,
    irc_tf,
    pii2rc_tf,
)
from .higs import HigsIrcParams, HigsParams
from .lti import (
    RationalTF,
    SingularA,
    SingularAtFrequency,
    StateSpace,
    assess_ni,
    dc_gain,
    ni_frequency_test,
    search_ni_certificate,
    tf_to_ss,
)
from .sim import (
    IllPosedLoop,
    LyapunovCertificate,
    LyapunovIrcCertificate,
    LyapunovPii2Certificate,
    NonFiniteState,
    SimConfig,
    Trajectory,
    check_dissipation,
    check_monotone,
    check_sector,
    simulate_higs_irc_loop,
    simulate_higs_pii2_loop,
    simulate_linear_loop,
)

__version__ = "0.1.0"
