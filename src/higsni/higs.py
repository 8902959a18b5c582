"""Hybrid integrator-gain system (HIGS) elements.

A HIGS element maps an input e to an output u = x_h through two modes:

    integrator mode:  dx_h/dt = omega_h * e
    gain mode:        x_h = k_h * e

The state is continuous across switches and is confined to the sector
{(e, u) : e*u >= u^2 / k_h}.  Gain mode is active exactly when the state
sits on the sector boundary u = k_h * e and integrating would leave the
sector, which is the strict inequality omega_h e^2 > k_h e de/dt; ties go
to integrator mode.  A mode is its gain flag: False integrates, True is
gain mode, recorded as 0 and 1.

The feedthrough-compensated variant used inside the resonant controller
obeys

    integrator mode:  dx_h/dt = omega_h * (D * x_h + e)
    gain mode:        x_h = kappa_tilde * e,   kappa_tilde = k_h / (1 - k_h D)

with D < 0, sector bound kappa_tilde, and the same switching inequality
still written with k_h.  Storage functions for both variants are quadratic
in x_h and certify e * dx_h/dt dissipation along trajectories.

RANGES is the admissible range of every controller parameter, and
require_ranges enforces it on each parameter class, these and those of
controllers.

A loop's elements form one chain of Element: the single compensated
element alone, or the PII^2 bank's H1, H2 and H3, with H3 fed by H2.
element_law walks that chain once for the gain flags, the event that ends
a step, the sector clamp and the new element states.  It, project_to_sector
and gain_mode are written once for floats and arrays alike: on arrays they
act elementwise, and every element equals the float result bit for bit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Optional

import numpy as np

# Slack of the sector clamp: x_h is projected into the sector only when
# e*x_h < x_h^2/k - SECTOR_CLAMP_TOL, so rounding dust on the edge stays.
SECTOR_CLAMP_TOL = 1e-12

# Event localization inside one step: boundary eligibility and the
# sector-exit threshold during bisection.  Much tighter than the
# recording-level tolerances so that switching a mode moves the state (and
# the Lyapunov value) by a negligible amount.  Both tests measure distance
# in state units scaled by max(1, |x_h|); the exit threshold sits strictly
# inside the eligibility band so that wherever a sector exit is detected,
# the mode update is allowed to act on it.
_EVENT_RTOL = 1e-12
_EVENT_GAP = 1e-13

# The admissible range of each controller parameter, by field name: finite
# and on the given side of 0.
RANGES = {"omega_h": ">= 0", "k_h": "> 0", "Gamma": "> 0", "k_p": "> 0",
          "k1": "> 0", "k2": "> 0", "D": "< 0"}
_COMPARE = {">= 0": operator.ge, "> 0": operator.gt, "< 0": operator.lt}


class InvalidParameters(ValueError):
    """Parameter combination outside the admissible set."""


def require_ranges(params) -> None:
    """Make each init field of the frozen dataclass params that RANGES names
    a float, in field order, and raise InvalidParameters at the first that
    is not finite and in its range."""
    for f in fields(params):
        if f.init and f.name in RANGES:
            v = float(getattr(params, f.name))
            object.__setattr__(params, f.name, v)
            if not (math.isfinite(v) and _COMPARE[RANGES[f.name]](v, 0.0)):
                raise InvalidParameters(f"{f.name} must be finite and {RANGES[f.name]}, got {v}")


@dataclass(frozen=True)
class HigsParams:
    """Base element: integrator rate omega_h >= 0, sector gain k_h > 0."""

    omega_h: float
    k_h: float

    def __post_init__(self):
        require_ranges(self)


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
        require_ranges(self)
        object.__setattr__(self, "kappa_tilde", self.k_h / (1.0 - self.k_h * self.D))


def _where(cond, a, b):
    """np.where(cond, a, b) when cond is an array, the plain conditional on a
    scalar, where np.where would cost several times the arithmetic it picks
    from."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def project_to_sector(e, x_h, k_bound: float, tol: float):
    """Clamp x_h into the sector e*x_h >= x_h^2/k_bound - tol for input e.

    Inside the sector x_h is returned unchanged; outside, the nearest
    boundary point (the sector at fixed e is the interval between 0 and
    k_bound*e).  The clamp picks with comparisons, not np.maximum/np.minimum,
    so arrays and floats give the same bits, NaN and signed zeros included.
    """
    edge = k_bound * e
    up = edge >= 0.0
    lo = _where(up, 0.0, edge)
    hi = _where(up, edge, 0.0)
    v = _where(lo > x_h, lo, x_h)
    v = _where(hi < v, hi, v)
    return _where(e * x_h >= x_h * x_h / k_bound - tol, x_h, v)


def gain_mode(e, e_dot, x_h, k_bound: float, p, tol: float):
    """True where the element is in gain mode: x_h sits on u = k_bound e and
    omega_h e^2 > k_h e e_dot.

    k_bound is p.k_h for a base element and p.kappa_tilde for a compensated
    one, whose switching inequality still uses the raw gain k_h.  The
    boundary test is relative, |x_h - k_bound e| <= tol * max(1, |x_h|);
    equality in the switching inequality resolves to integrator mode.
    """
    a = abs(x_h)
    on_edge = abs(x_h - k_bound * e) <= tol * _where(a > 1.0, a, 1.0)
    return on_edge & (p.omega_h * e * e > p.k_h * e * e_dot)


class Element(NamedTuple):
    """One HIGS element of a loop's chain.

    bound is its sector bound (k_h, or kappa_tilde for a compensated
    element) and law carries its switching law (omega_h, k_h).  source
    names its input: None for the loop error e, else the index of an
    earlier base element whose output it takes.
    """

    bound: float
    law: object
    source: Optional[int] = None


class ElementLaw(NamedTuple):
    """element_law's result: the gain flags the update rule picks; the event
    flag (a mode changes, or an integrating state lies outside its sector by
    more than _EVENT_GAP over max(1, |x_h|)); the clamp flag (the
    SECTOR_CLAMP_TOL clamp moved a state); and the new states, gain slots
    refreshed to their outputs and integrator slots clamped."""

    gains: tuple
    event: object
    clamp: object
    states: list


def element_law(e, e_dot, states, modes, chain) -> ElementLaw:
    """The chain's element law at the loop error e, its rate e_dot and the
    element states, read at the frozen modes: one pass over the chain, on
    the floats of one state or elementwise on a block's arrays, bit for bit
    alike.

    An element's frozen-mode input is e, or its source's frozen-mode output
    for a chained element; its output is bound times that input in gain
    mode, else its state.  Its gain flag is decided at that output.  A
    chained element's input and rate there follow its source's new flag,
    decided earlier in the pass: bound times the source's input and rate in
    gain mode, else the source's output and omega_h times the source's input
    (the source is a base element)."""
    gains, new = [], []
    seen = []    # per element: input and rate under its new flag, frozen-mode output
    event = clamp = False
    for el, x, gain in zip(chain, states, modes):
        if el.source is None:
            a = a_new = e
            a_dot = e_dot
        else:
            src, g_s = chain[el.source], gains[el.source]
            a_s, rate_s, a = seen[el.source]
            a_new = _where(g_s, src.bound * a_s, a)
            a_dot = _where(g_s, src.bound * rate_s, src.law.omega_h * a_s)
        out = el.bound * a if gain else x
        g = gain_mode(a_new, a_dot, out, el.bound, el.law, _EVENT_RTOL)
        gains.append(g)
        seen.append((a_new, a_dot, out))
        event = event | (g != gain)
        if gain:
            new.append(out)
            continue
        scale = abs(x)
        exit_ = abs(project_to_sector(a, x, el.bound, 0.0) - x) / _where(scale > 1.0, scale, 1.0)
        event = event | (exit_ > _EVENT_GAP)
        xc = project_to_sector(a, x, el.bound, SECTOR_CLAMP_TOL)
        clamp = clamp | (xc != x)
        new.append(xc)
    return ElementLaw(tuple(gains), event, clamp, new)


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
