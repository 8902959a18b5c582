"""Controller constructions on top of negative-imaginary plants.

Covers the linear integral resonant controller Gamma/(s - Gamma D), its
PII^2 generalization (k_p + k1/s + k2/s^2 closed around feedthrough D),
and their hybrid variants, whose integrators are HIGS elements: one
compensated element, or three elements H1, H2, H3 with H2->H3 in series,
all sharing the loop error e except H3, whose input is H2's output.

Both linear controllers arise from C(s)/(1 - C(s) D); their DC gain is
-1/D.  sni_verdict decides that they are strictly negative imaginary from
their closed forms, exactly for every admissible parameter set.  Stability
of the positive-feedback interconnection with an NI plant comes down to
DC conditions: kappa_tilde * G(0) < 1 for the single-element loop and
D < -G(0) for the PII^2 family.

With its element modes frozen every loop is linear, dz/dt = J z, so the
loops are piecewise linear.  ModeSystem is that one description, built by
irc_mode_system and pii2_mode_system for the hybrid loops and by
sim.closed_loop_matrices for the linear loop.  A hybrid loop's elements
form one chain of Element (sector bound, switching law, input): the single
element alone, or H1, H2 and H3 fed by H2.  sim._element_law walks that
chain for the outputs, gain flags and sector clamps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .higs import HigsIrcParams, HigsMode, HigsParams
from .lti import RationalTF, StateSpace, dc_gain

# |1/(G(0) + D) - gain sum| must exceed this times max(1, |1/(G(0) + D)|);
# |G(0) + D| at or below it leaves no finite exclusion.
GAIN_SUM_TOL = 1e-9
# Smallest |denominator| of an algebraic feedthrough loop that is still solved.
ALGEBRAIC_LOOP_TOL = 1e-12


class CascadeAssumptionViolated(ValueError):
    """The series pair needs k_h2 = k_h3 and omega_h2 < omega_h3."""


class UnsolvableLoop(RuntimeError):
    """The algebraic error equation degenerated (should not happen for D < 0)."""


class InvalidParameters(ValueError):
    """Parameter combination outside the admissible set."""


@dataclass(frozen=True)
class IrcParams:
    """Integral resonant controller Gamma/s closed around feedthrough D."""

    Gamma: float
    D: float

    def __post_init__(self):
        object.__setattr__(self, "Gamma", float(self.Gamma))
        object.__setattr__(self, "D", float(self.D))
        if not (self.Gamma > 0.0 and np.isfinite(self.Gamma)):
            raise InvalidParameters(f"Gamma must be finite and > 0, got {self.Gamma}")
        if not (self.D < 0.0 and np.isfinite(self.D)):
            raise InvalidParameters(f"D must be finite and < 0, got {self.D}")


@dataclass(frozen=True)
class Pii2Params:
    """PII^2 gains k_p, k1, k2 > 0 and feedthrough D < 0."""

    k_p: float
    k1: float
    k2: float
    D: float

    def __post_init__(self):
        for name in ("k_p", "k1", "k2", "D"):
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("k_p", "k1", "k2"):
            v = getattr(self, name)
            if not (v > 0.0 and np.isfinite(v)):
                raise InvalidParameters(f"{name} must be finite and > 0, got {v}")
        if not (self.D < 0.0 and np.isfinite(self.D)):
            raise InvalidParameters(f"D must be finite and < 0, got {self.D}")


@dataclass(frozen=True)
class HigsPii2Params:
    """Hybrid PII^2: proportional gain k_p, feedthrough D, elements h1..h3.

    gamma = 1/(1 - D k_p) > 0 is derived.  The series pair must satisfy
    k_h2 = k_h3 and omega_h2 < omega_h3 or the joint storage argument for
    H2->H3 breaks down.
    """

    k_p: float
    D: float
    h1: HigsParams
    h2: HigsParams
    h3: HigsParams
    gamma: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "k_p", float(self.k_p))
        object.__setattr__(self, "D", float(self.D))
        if not (self.k_p > 0.0 and np.isfinite(self.k_p)):
            raise InvalidParameters(f"k_p must be finite and > 0, got {self.k_p}")
        if not (self.D < 0.0 and np.isfinite(self.D)):
            raise InvalidParameters(f"D must be finite and < 0, got {self.D}")
        for name in ("h1", "h2", "h3"):
            if not isinstance(getattr(self, name), HigsParams):
                raise InvalidParameters(f"{name} must be a HigsParams instance")
        if self.h2.k_h != self.h3.k_h:
            raise CascadeAssumptionViolated(
                f"k_h2 = {self.h2.k_h} must equal k_h3 = {self.h3.k_h}"
            )
        if not (self.h2.omega_h < self.h3.omega_h):
            raise CascadeAssumptionViolated(
                f"omega_h2 = {self.h2.omega_h} must be < omega_h3 = {self.h3.omega_h}"
            )
        object.__setattr__(self, "gamma", 1.0 / (1.0 - self.D * self.k_p))

    def gain_sum(self) -> float:
        return self.h1.k_h + self.h2.k_h ** 2 + self.k_p


def irc_tf(p: IrcParams) -> RationalTF:
    """K(s) = Gamma / (s - Gamma D)."""
    return RationalTF((p.Gamma,), (1.0, -p.Gamma * p.D))


def pii2rc_tf(p: Pii2Params) -> RationalTF:
    """K(s) = (k_p s^2 + k1 s + k2) / ((1 - k_p D) s^2 - k1 D s - k2 D)."""
    return RationalTF((p.k_p, p.k1, p.k2), (1.0 - p.k_p * p.D, -p.k1 * p.D, -p.k2 * p.D))


def pii2rc_sni_value(omega: float, p: Pii2Params) -> float:
    """Closed form of j*(K(jw) - conj K(jw)) for the PII^2 controller.

    Equals 2 k1 w^3 / (((1 - k_p D) w^2 + k2 D)^2 + (k1 D w)^2), strictly
    positive for all w > 0, which is the strict-NI frequency condition.
    Evaluated in exact rational arithmetic with one final rounding: the
    two terms of the first square cancel near the denominator resonance,
    where plain double evaluation loses seven digits.
    """
    # Only tests call this, as a reference: the CLI does not pay the import
    # of fractions and decimal.
    from fractions import Fraction

    w = Fraction(float(omega))
    k_p, k1, k2, D = (Fraction(v) for v in (p.k_p, p.k1, p.k2, p.D))
    a = (1 - k_p * D) * w * w + k2 * D
    b = k1 * D * w
    return float(2 * k1 * w ** 3 / (a * a + b * b))


class SniVerdict(NamedTuple):
    """Strict NI of a linear controller K, decided from its closed form."""

    passed: bool
    m: str                  # closed form of m(w) = j(K(jw) - conj K(jw))
    den: tuple              # K's denominator, descending powers of s
    max_pole_real: float    # for display: the verdict does not read it


def sni_verdict(p) -> SniVerdict:
    """Strict NI of irc_tf(p) or pii2rc_tf(p) from two exact sign facts.

    m(w) is the numerator gain (Gamma or k1) times a form positive for every
    w > 0, so m > 0 there when that gain is positive.  K's denominator has
    degree <= 2, so its poles are strictly stable exactly when every
    coefficient is positive.  No frequency is sampled and no threshold is
    applied; a coefficient that underflows to 0 leaves a pole at 0 in the K
    that is simulated, and fails.
    """
    if isinstance(p, IrcParams):
        K, gain, m = irc_tf(p), p.Gamma, "2 Gamma w / (w^2 + (Gamma D)^2)"
    else:
        K, gain = pii2rc_tf(p), p.k1
        m = "2 k1 w^3 / (((1 - k_p D) w^2 + k2 D)^2 + (k1 D w)^2)"
    passed = gain > 0.0 and all(c > 0.0 for c in K.den)
    return SniVerdict(passed, m, K.den, float(np.max(K.poles().real)))


@dataclass(frozen=True)
class StabilityVerdict:
    """DC-gain stability condition outcome; margin > 0 means strictly met."""

    passed: bool
    margin: float
    condition: str
    plant_dc: float


def check_irc_stability(plant: StateSpace, kappa_tilde: float) -> StabilityVerdict:
    """Strict condition kappa_tilde * G(0) < 1 for the single-element loop."""
    g0 = dc_gain(plant)
    margin = 1.0 - float(kappa_tilde) * g0
    return StabilityVerdict(
        passed=margin > 0.0,
        margin=margin,
        condition="kappa_tilde * G(0) < 1",
        plant_dc=g0,
    )


def check_pii2_stability(plant: StateSpace, D: float) -> StabilityVerdict:
    """Strict condition D < -G(0) shared by the PII^2 family."""
    g0 = dc_gain(plant)
    margin = -g0 - float(D)
    return StabilityVerdict(
        passed=margin > 0.0,
        margin=margin,
        condition="D < -G(0)",
        plant_dc=g0,
    )


def gain_sum_admissible(p: HigsPii2Params, plant_dc: float) -> bool:
    """k_h1 + k_h2^2 + k_p must avoid 1/(G(0) + D) (no finite exclusion if
    G(0) + D = 0)."""
    denom = plant_dc + p.D
    if abs(denom) <= GAIN_SUM_TOL:
        return True
    target = 1.0 / denom
    return abs(p.gain_sum() - target) > GAIN_SUM_TOL * max(1.0, abs(target))


class ModeSystem(NamedTuple):
    """A loop with its element modes frozen, on the joint state z = [x; x_c].

    dz/dt = J z, and the loop signals are rows of z: the error e = w_e . z,
    the plant input u = w_u . z and the error rate de/dt = w_de . z.  A
    gain-mode slot is algebraic: it has a zero row and column in J and is
    refreshed to its gain-mode output after each step, so the rows hold on
    states that carry that output.
    """

    J: np.ndarray
    w_e: np.ndarray
    w_u: np.ndarray
    w_de: np.ndarray


def irc_mode_system(plant: StateSpace, p: HigsIrcParams, modes) -> ModeSystem:
    """The single-element loop with its mode frozen, on z = [x; x_h].

    e = C x and u = x_h.  Integrating, dx_h/dt = omega_h (D x_h + e);
    in gain mode x_h = kappa_tilde e is substituted into the plant.  In both
    modes de/dt = C dx/dt.  In gain mode the x_h slot has a zero row and
    column in J and zero weight in e and de/dt, so those hold before the
    slot is refreshed; only u reads it.
    """
    A, B, C, n = plant.A, plant.B, plant.C, plant.n
    J = np.zeros((n + 1, n + 1))
    if modes[0] == HigsMode.GAIN:
        J[:n, :n] = A + p.kappa_tilde * np.outer(B, C)
    else:
        J[:n, :n] = A
        J[:n, n] = B
        J[n, :n] = p.omega_h * C
        J[n, n] = p.omega_h * p.D
    return ModeSystem(J, np.append(C, 0.0), np.eye(n + 1)[n], C @ J[:n])


def pii2_mode_system(plant: StateSpace, p: HigsPii2Params, modes) -> ModeSystem:
    """The PII^2 loop with its modes frozen, on z = [x; x_h1; x_h2; x_h3].

    Solves the algebraic loop e = gamma y + gamma D (x_h1 + x_h3).
    Gain-mode outputs are substituted (x_h1 -> k_h1 e, x_h2 -> k_h2 e,
    x_h3 -> k_h3 * input of H3), so their slots get zero weights in every
    row.  That leaves an equation linear in e with the denominator
    1 - gamma D (k_h1 [H1 gain] + k_h3 k_h2 [H2, H3 gain]), at least 1 for
    D < 0.  Then u = x_h1 + x_h3 + k_p e on the substituted outputs, and
    de/dt = w_e . dz/dt.
    """
    A, B, C = plant.A, plant.B, plant.C
    n = plant.n
    k1, k2, k3 = p.h1.k_h, p.h2.k_h, p.h3.k_h
    g1, g2, g3 = (m == HigsMode.GAIN for m in modes)
    gD = p.gamma * p.D
    den = 1.0 - gD * ((k1 if g1 else 0.0) + (k3 * k2 if g3 and g2 else 0.0))
    if abs(den) <= ALGEBRAIC_LOOP_TOL:
        raise UnsolvableLoop(f"degenerate error equation, denominator {den}")
    w_e = np.zeros(n + 3)
    w_e[:n] = (p.gamma / den) * C
    if not g1:
        w_e[n] = gD / den
    if g3 and not g2:
        w_e[n + 1] = gD * k3 / den
    if not g3:
        w_e[n + 2] = gD / den
    w_u = p.k_p * w_e
    if g1:
        w_u += k1 * w_e
    else:
        w_u[n] += 1.0
    if g3:
        if g2:
            w_u += k3 * k2 * w_e
        else:
            w_u[n + 1] += k3
    else:
        w_u[n + 2] += 1.0
    J = np.zeros((n + 3, n + 3))
    J[:n, :n] = A
    J[:n, :] += np.outer(B, w_u)
    if not g1:
        J[n, :] = p.h1.omega_h * w_e
    if not g2:
        J[n + 1, :] = p.h2.omega_h * w_e
    if not g3:
        if g2:
            J[n + 2, :] = p.h3.omega_h * k2 * w_e
        else:
            J[n + 2, n + 1] = p.h3.omega_h
    return ModeSystem(J, w_e, w_u, w_e @ J)


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


def pii2_chain(p: HigsPii2Params) -> tuple:
    """H1 and H2 on the loop error, H3 on H2's output."""
    return (Element(p.h1.k_h, p.h1), Element(p.h2.k_h, p.h2), Element(p.h3.k_h, p.h3, 1))
