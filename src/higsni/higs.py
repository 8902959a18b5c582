"""Hybrid integrator-gain system (HIGS) elements.

A HIGS element maps an input e to an output u = x_h through two modes:

    integrator mode:  dx_h/dt = omega_h * e
    gain mode:        x_h = k_h * e

The state is continuous across switches and is confined to the sector
{(e, u) : e*u >= u^2 / k_h}.  Gain mode is active exactly when the state
sits on the sector boundary u = k_h * e and integrating would leave the
sector, which is the strict inequality omega_h e^2 > k_h e de/dt; ties go
to integrator mode.

The feedthrough-compensated variant used inside the resonant controller
obeys

    integrator mode:  dx_h/dt = omega_h * (D * x_h + e)
    gain mode:        x_h = kappa_tilde * e,   kappa_tilde = k_h / (1 - k_h D)

with D < 0, sector bound kappa_tilde, and the same switching inequality
still written with k_h.  Storage functions for both variants are quadratic
in x_h and certify e * dx_h/dt dissipation along trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Optional, Union

import numpy as np

MODE_BOUNDARY_RTOL = 1e-9   # scaled by max(1, |x_h|) in boundary detection


class HigsMode(IntEnum):
    INTEGRATOR = 0
    GAIN = 1


@dataclass(frozen=True)
class HigsParams:
    """Base element: integrator rate omega_h >= 0, sector gain k_h > 0."""

    omega_h: float
    k_h: float

    def __post_init__(self):
        object.__setattr__(self, "omega_h", float(self.omega_h))
        object.__setattr__(self, "k_h", float(self.k_h))
        if not (self.omega_h >= 0.0 and np.isfinite(self.omega_h)):
            raise ValueError(f"omega_h must be finite and >= 0, got {self.omega_h}")
        if not (self.k_h > 0.0 and np.isfinite(self.k_h)):
            raise ValueError(f"k_h must be finite and > 0, got {self.k_h}")


@dataclass(frozen=True)
class HigsIrcParams:
    """Feedthrough-compensated element with D < 0.

    kappa_tilde = k_h / (1 - k_h * D) is derived exactly from (k_h, D); it
    satisfies 0 < kappa_tilde < k_h and 1/kappa_tilde = 1/k_h - D.
    """

    omega_h: float
    k_h: float
    D: float
    kappa_tilde: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "omega_h", float(self.omega_h))
        object.__setattr__(self, "k_h", float(self.k_h))
        object.__setattr__(self, "D", float(self.D))
        if not (self.omega_h >= 0.0 and np.isfinite(self.omega_h)):
            raise ValueError(f"omega_h must be finite and >= 0, got {self.omega_h}")
        if not (self.k_h > 0.0 and np.isfinite(self.k_h)):
            raise ValueError(f"k_h must be finite and > 0, got {self.k_h}")
        if not (self.D < 0.0 and np.isfinite(self.D)):
            raise ValueError(f"D must be finite and < 0, got {self.D}")
        object.__setattr__(self, "kappa_tilde", self.k_h / (1.0 - self.k_h * self.D))


def sector_contains(e: float, u: float, k: float, tol: float = 0.0) -> bool:
    """e*u >= u^2/k - tol, the sector of admissible (input, output) pairs."""
    return e * u >= u * u / k - tol


def project_to_sector(e: float, x_h: float, k_bound: float, tol: float = 0.0) -> float:
    """Clamp x_h into the sector for input e.

    Inside the sector the value is returned unchanged; outside, the nearest
    boundary point is returned (the sector at fixed e is the interval
    between 0 and k_bound*e).  The result always satisfies sector_contains.
    """
    if sector_contains(e, x_h, k_bound, tol):
        return x_h
    edge = k_bound * e
    lo, hi = (0.0, edge) if edge >= 0.0 else (edge, 0.0)
    return min(max(x_h, lo), hi)


def determine_mode_base(
    e: float,
    e_dot: float,
    x_h: float,
    p: HigsParams,
    tol: float = MODE_BOUNDARY_RTOL,
) -> HigsMode:
    """Gain mode iff x_h sits on u = k_h e and omega_h e^2 > k_h e e_dot.

    The boundary test is relative: |x_h - k_h e| <= tol * max(1, |x_h|).
    Exact equality in the switching inequality resolves to integrator mode.
    """
    if abs(x_h - p.k_h * e) <= tol * max(1.0, abs(x_h)):
        if p.omega_h * e * e > p.k_h * e * e_dot:
            return HigsMode.GAIN
    return HigsMode.INTEGRATOR


def determine_mode_irc(
    e_tilde: float,
    e_tilde_dot: float,
    x_h: float,
    p: HigsIrcParams,
    tol: float = MODE_BOUNDARY_RTOL,
) -> HigsMode:
    """Mode for the compensated element.

    The boundary is x_h = kappa_tilde * e_tilde, while the switching
    inequality keeps the raw gain: omega_h e^2 > k_h e de/dt.
    """
    if abs(x_h - p.kappa_tilde * e_tilde) <= tol * max(1.0, abs(x_h)):
        if p.omega_h * e_tilde * e_tilde > p.k_h * e_tilde * e_tilde_dot:
            return HigsMode.GAIN
    return HigsMode.INTEGRATOR


def storage_V_h(x_h: float, p: HigsIrcParams) -> float:
    """x_h^2 / (2 kappa_tilde); decays no faster than the supplied power e*dx_h."""
    return x_h * x_h / (2.0 * p.kappa_tilde)


def storage_V1(x_h1: float, p: HigsParams) -> float:
    """x_h1^2 / (2 k_h) for a base element."""
    return x_h1 * x_h1 / (2.0 * p.k_h)


def storage_V2_cascade(x_h2: float, x_h3: float) -> float:
    """Joint storage x_h2^2 / 2 for the series pair of base elements.

    Only positive semidefinite (x_h3 does not enter); valid under the
    cascade assumptions k_h2 = k_h3 and omega_h2 < omega_h3, which are
    enforced where the cascade parameters are constructed.
    """
    return 0.5 * x_h2 * x_h2


ElementParams = Union[HigsParams, HigsIrcParams]


@dataclass
class ElementTrace:
    times: np.ndarray
    x_h: np.ndarray
    modes: np.ndarray


def run_element(
    p: ElementParams,
    e_fn: Callable[[float], float],
    e_dot_fn: Optional[Callable[[float], float]] = None,
    *,
    dt: float,
    t_end: float,
    x_h0: float = 0.0,
    mode_tol: float = MODE_BOUNDARY_RTOL,
) -> ElementTrace:
    """Drive a single element open loop with input e(t).

    Fixed-step RK4 in integrator mode with the mode frozen per step, exact
    algebraic output in gain mode, sector projection after every step.  If
    e_dot_fn is omitted the rate is approximated by central differences
    with step 1e-6, which is adequate for smooth inputs only.
    """
    if dt <= 0.0 or t_end < dt:
        raise ValueError("need dt > 0 and t_end >= dt")
    if e_dot_fn is None:
        h = 1e-6
        e_dot_fn = lambda t: (e_fn(t + h) - e_fn(t - h)) / (2.0 * h)

    irc = isinstance(p, HigsIrcParams)
    k_bound = p.kappa_tilde if irc else p.k_h

    def deriv(x: float, t: float) -> float:
        e = e_fn(t)
        return p.omega_h * (p.D * x + e) if irc else p.omega_h * e

    def gain_value(e: float) -> float:
        return k_bound * e

    def mode_of(e: float, edot: float, x: float) -> HigsMode:
        if irc:
            return determine_mode_irc(e, edot, x, p, mode_tol)
        return determine_mode_base(e, edot, x, p, mode_tol)

    n_steps = int(round(t_end / dt))
    times = np.empty(n_steps + 1)
    xs = np.empty(n_steps + 1)
    modes = np.empty(n_steps + 1, dtype=np.int64)

    t = 0.0
    x = project_to_sector(e_fn(0.0), float(x_h0), k_bound)
    mode = mode_of(e_fn(0.0), e_dot_fn(0.0), x)
    if mode == HigsMode.GAIN:
        x = gain_value(e_fn(0.0))
    times[0], xs[0], modes[0] = t, x, int(mode)

    for k in range(1, n_steps + 1):
        t_next = k * dt
        if mode == HigsMode.INTEGRATOR:
            k1 = deriv(x, t)
            k2 = deriv(x + 0.5 * dt * k1, t + 0.5 * dt)
            k3 = deriv(x + 0.5 * dt * k2, t + 0.5 * dt)
            k4 = deriv(x + dt * k3, t + dt)
            x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            x = gain_value(e_fn(t_next))
        e = e_fn(t_next)
        x = project_to_sector(e, x, k_bound)
        new_mode = mode_of(e, e_dot_fn(t_next), x)
        if new_mode == HigsMode.GAIN:
            x = gain_value(e)
        mode = new_mode
        t = t_next
        times[k], xs[k], modes[k] = t, x, int(mode)

    return ElementTrace(times=times, x_h=xs, modes=modes)
