"""Shared fixtures: the undamped mass-spring plant and cached scenario runs.

The three long-horizon scenarios (single-element loop at k_h = 20 and
k_h = 5, and the three-element PII^2 loop) are simulated once per session
with their Lyapunov certificates; most tests only inspect the recorded
trajectories.
"""

import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from higsni import (
    HigsIrcParams,
    HigsParams,
    HigsPii2Params,
    LyapunovIrcCertificate,
    LyapunovPii2Certificate,
    SimConfig,
    StateSpace,
    simulate_higs_irc_loop,
    simulate_higs_pii2_loop,
)

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Reference scenario parameters: unit mass-spring plant, a stiff and a soft
# single-element controller, and a PII^2 bank satisfying the DC condition
# D < -G(0) plus the cascade constraints k_h2 = k_h3, omega_h2 < omega_h3.
HIGS20 = HigsIrcParams(omega_h=0.5, k_h=20.0, D=-1.0)
HIGS5 = HigsIrcParams(omega_h=0.5, k_h=5.0, D=-1.0)
PII2 = HigsPii2Params(
    k_p=0.5,
    D=-1.5,
    h1=HigsParams(omega_h=0.3, k_h=2.0),
    h2=HigsParams(omega_h=0.2, k_h=1.0),
    h3=HigsParams(omega_h=0.4, k_h=1.0),
)


def modal_plant(modes):
    """Collocated modal sum G(s) = sum g^2 / (s^2 + 2 zeta w s + w^2).

    Every such plant is NI: blkdiag(diag(1/w^2, 1)) is a certificate, with
    A Y + Y A^T = 0 in the directions of undamped modes.
    """
    n = 2 * len(modes)
    A = np.zeros((n, n))
    B = np.zeros(n)
    C = np.zeros(n)
    for m, (w, zeta, g) in enumerate(modes):
        i = 2 * m
        A[i, i + 1] = 1.0
        A[i + 1, i] = -w * w
        A[i + 1, i + 1] = -2.0 * zeta * w
        B[i + 1] = g
        C[i] = g
    return A, B, C


# (w, zeta, g) of one mode: undamped or lightly damped.
MODAL_MODE = st.tuples(
    st.floats(0.3, 5.0),
    st.one_of(st.just(0.0), st.floats(0.005, 0.05)),
    st.floats(0.3, 1.5),
)


def oscillator_config(dt: float = 1e-3, t_end: float = 40.0, **kw) -> SimConfig:
    return SimConfig(dt=dt, t_end=t_end, x0=[3.0, 1.0], **kw)


@pytest.fixture(scope="session")
def plant() -> StateSpace:
    # G(s) = 1/(s^2 + 1): poles on the imaginary axis, G(0) = 1, Y = I is
    # an exact NI certificate.
    return StateSpace([[0.0, 1.0], [-1.0, 0.0]], [0.0, 1.0], [1.0, 0.0])


@pytest.fixture(scope="session")
def config_dir() -> pathlib.Path:
    return REPO_ROOT / "configs"


@pytest.fixture(scope="session")
def irc20_traj(plant):
    cert = LyapunovIrcCertificate(np.eye(2), plant.C, HIGS20.kappa_tilde)
    return simulate_higs_irc_loop(plant, HIGS20, oscillator_config(), cert)


@pytest.fixture(scope="session")
def irc5_traj(plant):
    cert = LyapunovIrcCertificate(np.eye(2), plant.C, HIGS5.kappa_tilde)
    return simulate_higs_irc_loop(plant, HIGS5, oscillator_config(), cert)


@pytest.fixture(scope="session")
def pii2_traj(plant):
    cert = LyapunovPii2Certificate(np.eye(2), plant.C, PII2)
    return simulate_higs_pii2_loop(plant, PII2, oscillator_config(), cert)
