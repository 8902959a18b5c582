"""Linear time-invariant core.

State-space and rational transfer-function models for SISO plants, plus the
numerical checks this package leans on everywhere else: frequency response,
DC gain, minimality, and negative-imaginary (NI) certificates of the form

    Y = Y^T > 0,   A Y + Y A^T <= 0,   B + A Y C^T = 0.

A system that passes the certificate check (together with det A != 0 and
minimality, which are reported alongside) is NI with DC gain C Y C^T.
Certificates are searched by a numpy-only log-barrier Newton method over
the affine solution set of B + A Y C^T = 0; a search that ends without one
is inconclusive, not a proof that the system is not NI.
The frequency-domain test evaluates m(w) = j*(G(jw) - conj(G(jw))), which
is real for SISO systems; NI requires m >= 0 for w > 0 and no poles in the
open right half plane.  A plant has no closed form, so the test samples m on
a grid.  Strict NI is decided only for the linear controllers, from their
closed forms (controllers.sni_verdict).

Every check of the package, here and in controllers and sim, returns one
Verdict: holds, fails or inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

RANK_RTOL = 1e-8          # relative singular-value cutoff for rank decisions
POLE_EXCLUSION = 1e-6     # |jw - pole| below this counts as "on a pole"
NI_TOL = 1e-8             # certificate LMI slack; NI test: m(w) >= -NI_TOL, Re(poles) <= NI_TOL
CERT_MARGIN = 1e-6        # positivity margin of Y in the certificate search
CERT_MAX_DIM = 10         # largest plant order the certificate search accepts
# Frequencies (rad/s) of the sampled NI test: 121 points, 20 per decade,
# from 1e-3 to 1e3.
FREQ_GRID = np.logspace(np.log10(1e-3), np.log10(1e3), 121)
FREQ_GRID.flags.writeable = False


STATUSES = ("holds", "fails", "inconclusive")


@dataclass(frozen=True)
class Verdict:
    """Outcome of one check; every check of the package returns one.

    status is "holds", "fails" or "inconclusive", and passed is True only
    for "holds".  margin is the worst value the check measured and bound
    the limit it was compared with, both None when nothing was measured;
    the README's checks table gives each check's comparison.  reason is
    empty for a measured verdict and otherwise says why nothing was
    measured.  evidence holds the check's other numbers, among them any
    condition besides the margin that can fail a measured verdict.
    """

    status: str
    condition: str
    margin: Optional[float] = None
    bound: Optional[float] = None
    reason: str = ""
    evidence: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"status must be one of {STATUSES}, got {self.status!r}")

    @property
    def passed(self) -> bool:
        return self.status == "holds"

    @classmethod
    def measured(cls, holds: bool, condition: str, margin: float, bound: float,
                 **evidence) -> "Verdict":
        """A verdict that compared margin with bound: holds or fails."""
        return cls("holds" if holds else "fails", condition, float(margin), float(bound),
                   evidence=evidence)


class SingularA(ValueError):
    """A is singular (beyond tolerance) where an inverse is required."""


class SingularAtFrequency(ValueError):
    """Requested frequency coincides with a system pole."""


class DimensionMismatch(ValueError):
    """Operands have incompatible dimensions."""


def _as_state_vector(v, n: int, what: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.shape != (n,):
        raise DimensionMismatch(f"{what} must have {n} entries, got shape {np.shape(v)}")
    return arr


@dataclass(frozen=True)
class StateSpace:
    """SISO realization  dx/dt = A x + B u,  y = C x + D_ff u.

    B and C are accepted as flat vectors or as n x 1 / 1 x n arrays and are
    stored flat.  Arrays are copied and frozen, so instances are safe to
    share across threads and worker processes.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D_ff: float = 0.0

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
            raise DimensionMismatch(f"A must be square with n >= 1, got shape {A.shape}")
        n = A.shape[0]
        B = _as_state_vector(self.B, n, "B")
        C = _as_state_vector(self.C, n, "C")
        for arr in (A, B, C):
            arr.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D_ff", float(self.D_ff))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def poles(self) -> np.ndarray:
        return np.linalg.eigvals(self.A)


@dataclass(frozen=True)
class RationalTF:
    """Rational transfer function; coefficients in descending powers of s.

    Must be proper (deg num <= deg den) with a nonzero leading denominator
    coefficient.  Leading zeros of the numerator are stripped.
    """

    num: tuple
    den: tuple

    def __post_init__(self):
        num = [float(c) for c in self.num]
        den = [float(c) for c in self.den]
        if not den:
            raise ValueError("denominator must be nonempty")
        if den[0] == 0.0:
            raise ValueError("leading denominator coefficient must be nonzero")
        while len(num) > 1 and num[0] == 0.0:
            num.pop(0)
        if not num:
            num = [0.0]
        if len(num) > len(den):
            raise ValueError("transfer function must be proper (deg num <= deg den)")
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", tuple(den))

    @property
    def order(self) -> int:
        return len(self.den) - 1

    def poles(self) -> np.ndarray:
        if self.order == 0:
            return np.array([], dtype=complex)
        return np.roots(self.den)

    def __call__(self, s: complex) -> complex:
        return complex(np.polyval(self.num, s) / np.polyval(self.den, s))


LinearSystem = Union[StateSpace, RationalTF]


def freq_response(sys: LinearSystem, omega: float) -> complex:
    """Evaluate the transfer function at s = j*omega.

    Raises SingularAtFrequency when j*omega lies within POLE_EXCLUSION of a
    pole; evaluating there would return garbage dominated by rounding.
    """
    s = 1j * float(omega)
    poles = sys.poles()
    if poles.size and np.min(np.abs(s - poles)) <= POLE_EXCLUSION:
        raise SingularAtFrequency(f"omega={omega} is within {POLE_EXCLUSION} of a pole")
    if isinstance(sys, RationalTF):
        return sys(s)
    rhs = np.linalg.solve(s * np.eye(sys.n) - sys.A, sys.B.astype(complex))
    return complex(sys.C @ rhs + sys.D_ff)


def dc_gain(sys: StateSpace) -> float:
    """G(0) = D_ff - C A^{-1} B.  Raises SingularA when A is not invertible."""
    if _rank(sys.A) < sys.n:
        raise SingularA("A is singular; DC gain undefined")
    return float(sys.D_ff - sys.C @ np.linalg.solve(sys.A, sys.B))


def _rank(M: np.ndarray) -> int:
    """The singular values of M above RANK_RTOL times the largest: a square
    M is invertible exactly when this is its order."""
    if M.size == 0:
        return 0
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_RTOL * sv[0]))


def is_minimal(sys: StateSpace) -> bool:
    """Controllability and observability via staircase-free rank tests."""
    n = sys.n
    ctrb = np.empty((n, n))
    obsv = np.empty((n, n))
    v = sys.B.copy()
    w = sys.C.copy()
    for k in range(n):
        ctrb[:, k] = v
        obsv[k, :] = w
        v = sys.A @ v
        w = w @ sys.A
    return _rank(ctrb) == n and _rank(obsv) == n


@dataclass(frozen=True)
class NICertificate:
    """Symmetric candidate Y for the NI conditions of a given realization."""

    Y: np.ndarray

    def __post_init__(self):
        Y = np.array(self.Y, dtype=float)
        if Y.ndim != 2 or Y.shape[0] != Y.shape[1]:
            raise DimensionMismatch(f"Y must be square, got shape {Y.shape}")
        if not np.allclose(Y, Y.T, rtol=0.0, atol=1e-9 * max(1.0, float(np.abs(Y).max()))):
            raise ValueError("Y must be symmetric")
        Y = 0.5 * (Y + Y.T)
        Y.flags.writeable = False
        object.__setattr__(self, "Y", Y)


NI_CERT_CONDITION = "exists Y > 0 with A Y + Y A^T <= 0 and B + A Y C^T = 0"
NO_CERT_REASON = "no NI certificate found for the plant"


def verify_ni_certificate(sys: StateSpace, cert: NICertificate) -> Verdict:
    """Check Y > 0, A Y + Y A^T <= NI_TOL and ||B + A Y C^T|| <= NI_TOL.

    margin is the larger of lambda_max(A Y + Y A^T) and the residual norm,
    bound NI_TOL; the verdict holds when margin <= bound and Y > 0.
    Minimality and det A != 0 are evidence only; with a verdict that holds
    they make the NI conclusion rigorous.
    """
    Y = cert.Y
    if Y.shape != (sys.n, sys.n):
        raise DimensionMismatch(f"Y has shape {Y.shape}, expected {(sys.n, sys.n)}")
    y_min = float(np.linalg.eigvalsh(Y)[0])
    S = sys.A @ Y + Y @ sys.A.T
    lyap_max = float(np.linalg.eigvalsh(S)[-1])
    residual = float(np.linalg.norm(sys.B + sys.A @ (Y @ sys.C)))
    return Verdict.measured(
        y_min > 0.0 and lyap_max <= NI_TOL and residual <= NI_TOL, NI_CERT_CONDITION,
        max(lyap_max, residual), NI_TOL,
        Y=Y, y_min_eig=y_min, lyap_max_eig=lyap_max, residual_norm=residual,
        minimal=is_minimal(sys), det_a_nonzero=_rank(sys.A) == sys.n)


def _sym_basis(n: int) -> np.ndarray:
    """Basis of symmetric n x n matrices (unit entries), shape (m, n, n)."""
    basis = []
    for i in range(n):
        for j in range(i, n):
            E = np.zeros((n, n))
            E[i, j] = 1.0
            E[j, i] = 1.0
            basis.append(E)
    return np.array(basis)


def _barrier_factor(F: np.ndarray, dF: np.ndarray):
    """Gradient of -log det F along the directions dF, and a Hessian factor.

    F is affine in the variables with partial derivatives dF[j].  With
    F = R R^T and S_j = R^-1 dF[j] R^-T, the gradient is -tr S_j and the
    Hessian is <S_j, S_k>, i.e. K K^T for the returned K (row j = S_j
    flattened).  Returns None when F is not positive definite.
    """
    try:
        R = np.linalg.cholesky(F)
    except np.linalg.LinAlgError:
        return None
    Rinv = np.linalg.inv(R)
    K = (Rinv @ dF @ Rinv.T).reshape(len(dF), -1)
    return -K[:, :: F.shape[0] + 1].sum(axis=1), K


def search_ni_certificate(sys: StateSpace) -> Optional[NICertificate]:
    """Look for a certificate Y on the affine set solving B + A Y C^T = 0.

    The equality constraint is linear in the entries of symmetric Y, so the
    search parameterizes its solution set as Y(xi) = Y0 + sum_i xi_i N_i
    (particular solution plus null space) and minimizes, over (xi, t),

        t   subject to   t I - (A Y + Y A^T) > 0,   Y - (CERT_MARGIN - t) I > 0,

    the epigraph of max(lambda_max(A Y + Y A^T), CERT_MARGIN - lambda_min(Y)),
    with tr Y < 1e6 max(1, tr Y0) added so that the barrier problem stays
    bounded when Y can grow without changing t (damped or repeated modes).
    A primal log-barrier method solves it: start strictly feasible at
    xi = 0 with t above that maximum, center by damped Newton steps, then
    raise the barrier weight tenfold.  In lossless directions the optimum
    sits at t = 0 on the boundary, which the central path approaches from
    inside, so a set with no interior is still reached to within NI_TOL.

    Returns the first iterate that passes verify_ni_certificate, or None
    once the gap bound (2n + 1) / weight falls below 1e-13 or the
    Newton-step budget is spent.  None is inconclusive: it does not prove
    the system is not NI.
    """
    n = sys.n
    if _rank(sys.A) < n:
        raise SingularA("A is singular; NI conditions require det A != 0")
    if n > CERT_MAX_DIM:
        raise ValueError(f"certificate search supports n <= {CERT_MAX_DIM}, got n = {n}")

    A = sys.A
    basis = _sym_basis(n)
    # Row i of (A Y C^T + B) = 0 gives a linear system M theta = -B.
    M = (basis @ sys.C @ A.T).T
    theta0 = np.linalg.lstsq(M, -sys.B, rcond=None)[0]
    if np.linalg.norm(M @ theta0 + sys.B) > 1e-9 * max(1.0, float(np.linalg.norm(sys.B))):
        return None  # constraint infeasible: no Y satisfies B + A Y C^T = 0

    _, s_full, Vt = np.linalg.svd(M)
    cutoff = RANK_RTOL * (s_full[0] if s_full.size else 1.0)
    null = Vt[np.sum(s_full > cutoff):]  # q x m
    Y0 = np.tensordot(theta0, basis, axes=1)
    N = np.tensordot(null, basis, axes=1)  # q x n x n
    q = len(N)

    def lyap(Y):
        AY = A @ Y
        return AY + np.swapaxes(AY, -1, -2)

    def Y_at(z):
        return Y0 + np.tensordot(z[:q], N, axes=1)

    # Variables z = (xi, t).  The three barrier arguments are affine in z
    # with these partial derivatives.  They are formed from Y itself, not
    # as F(0) + sum z_j dF_j: that sum cancels large terms, and its rounding
    # would keep t from reaching NI_TOL on ill-scaled realizations.
    eye = np.eye(n)
    dF_lyap = np.concatenate([-lyap(N), eye[None]])
    dF_pos = np.concatenate([N, eye[None]])
    dF_trace = np.append(-np.trace(N, axis1=1, axis2=2), 0.0)[:, None, None]
    trace_bound = 1e6 * max(1.0, float(np.trace(Y0)))

    def newton_step(z, weight):
        """Newton step and squared decrement of weight * t + barrier at z,
        or None outside the domain."""
        Y = Y_at(z)
        t = z[-1]
        grad = np.zeros(q + 1)
        grad[-1] = weight
        factors = []
        for F, dF in ((t * eye - lyap(Y), dF_lyap),
                      (Y + (t - CERT_MARGIN) * eye, dF_pos),
                      (np.array([[trace_bound - np.trace(Y)]]), dF_trace)):
            part = _barrier_factor(F, dF)
            if part is None:
                return None
            grad += part[0]
            factors.append(part[1])
        # The Hessian K K^T reaches condition numbers near 1/eps as t -> 0;
        # solving through the triangular factor of K^T keeps the step usable
        # where a Cholesky or LU solve of K K^T itself breaks down.
        R = np.linalg.qr(np.concatenate(factors, axis=1).T, mode="r")
        v = np.linalg.solve(R.T, -grad)
        return np.linalg.solve(R, v), float(v @ v)

    def certificate(z):
        # F_lyap, F_pos > 0 give lambda_max(A Y + Y A^T) < t and
        # lambda_min(Y) > CERT_MARGIN - t, so the full check is only worth
        # running once t is small.
        if z[-1] > min(NI_TOL, CERT_MARGIN):
            return None
        cert = NICertificate(Y_at(z))
        return cert if verify_ni_certificate(sys, cert).passed else None

    t0 = max(float(np.linalg.eigvalsh(lyap(Y0))[-1]),
             CERT_MARGIN - float(np.linalg.eigvalsh(Y0)[0]))
    z = np.zeros(q + 1)
    z[-1] = t0 + max(1.0, abs(t0))
    weight = 10.0 / max(1.0, abs(t0))
    newton_steps = 0
    while (2 * n + 1) / weight >= 1e-13 and newton_steps < 400:
        state = newton_step(z, weight)
        for _ in range(50):
            dz, decrement = state
            newton_steps += 1
            if decrement <= 1e-8:
                break
            # Damped step 1 / (1 + decrement^1/2): inside the Dikin ellipsoid,
            # so it stays feasible and decreases the self-concordant barrier
            # without comparing values that rounding blurs at large weights.
            # Halving only guards against rounding at the domain's edge.
            step = 1.0 / (1.0 + np.sqrt(decrement))
            trial = newton_step(z + step * dz, weight)
            while trial is None and step > 1e-12:
                step *= 0.5
                trial = newton_step(z + step * dz, weight)
            if trial is None:
                break
            z = z + step * dz
            state = trial
            cert = certificate(z)
            if cert is not None:
                return cert
        weight *= 10.0
    return None


def certify_ni(sys: StateSpace) -> Verdict:
    """search_ni_certificate, then verify_ni_certificate on the Y it finds.

    Inconclusive when the search finds no Y or refuses a plant of more than
    CERT_MAX_DIM states: neither proves that the plant is not NI.  A
    singular A raises SingularA, as in the search.
    """
    try:
        cert = search_ni_certificate(sys)
    except SingularA:
        raise
    except ValueError as exc:  # more than CERT_MAX_DIM states
        return Verdict("inconclusive", NI_CERT_CONDITION, reason=f"{NO_CERT_REASON}: {exc}")
    if cert is None:
        return Verdict("inconclusive", NI_CERT_CONDITION, reason=NO_CERT_REASON)
    return verify_ni_certificate(sys, cert)


def ni_frequency_test(sys: LinearSystem) -> Verdict:
    """Sampled NI test: no open-RHP poles and m(w) >= -NI_TOL on FREQ_GRID.

    margin is the smallest m on the grid, bound -NI_TOL; an open-RHP pole
    (max_pole_real > NI_TOL in the evidence) fails the verdict whatever the
    margin.  Grid points within POLE_EXCLUSION of a pole are left out of
    the minimum and listed in flagged_omegas: imaginary-axis poles do not
    defeat the NI property, but m is not evaluable there.
    """
    poles = sys.poles()
    max_re = float(np.max(poles.real)) if poles.size else -np.inf
    has_rhp = bool(max_re > NI_TOL)
    flagged = []
    min_m = np.inf
    worst = float("nan")
    for w in FREQ_GRID:
        try:
            G = freq_response(sys, w)
        except SingularAtFrequency:
            flagged.append(float(w))
            continue
        m = float((1j * (G - G.conjugate())).real)
        if m < min_m:
            min_m = m
            worst = float(w)
    passed = (not has_rhp) and (min_m >= -NI_TOL or not np.isfinite(min_m))
    return Verdict.measured(
        passed, "j(G(jw) - conj G(jw)) >= 0 for w > 0 and no open right-half-plane poles",
        min_m, -NI_TOL, worst_omega=worst, flagged_omegas=tuple(flagged),
        max_pole_real=max_re, has_unstable_pole=has_rhp)


def tf_to_ss(tf: RationalTF) -> StateSpace:
    """Controllable canonical realization of a proper SISO transfer function.

    Requires order >= 1; a static gain has no state and is handled where it
    occurs (closed-loop assembly) rather than here.
    """
    n = tf.order
    if n < 1:
        raise ValueError("static transfer function has no state-space realization here")
    den = np.asarray(tf.den, dtype=float)
    num = np.zeros(n + 1)
    num[n + 1 - len(tf.num):] = tf.num
    a = den[1:] / den[0]
    b = num / den[0]
    A = np.zeros((n, n))
    A[0, :] = -a
    if n > 1:
        A[1:, :-1] = np.eye(n - 1)
    B = np.zeros(n)
    B[0] = 1.0
    C = b[1:] - b[0] * a
    return StateSpace(A, B, C, float(b[0]))


def ss_to_tf(sys: StateSpace) -> RationalTF:
    """Transfer function via det(sI - A + B C) = det(sI - A) (1 + C (sI-A)^{-1} B)."""
    den = np.poly(sys.A)
    num_sp = np.poly(sys.A - np.outer(sys.B, sys.C)) - den
    num = num_sp + sys.D_ff * den
    scale = max(1.0, float(np.abs(num).max()))
    lead = 0
    while lead < len(num) - 1 and abs(num[lead]) <= 1e-12 * scale:
        lead += 1
    return RationalTF(tuple(num[lead:]), tuple(den))


@dataclass(frozen=True)
class NiAssessment:
    """NI verification of a plant by two routes: the certificate Verdict of
    certify_ni (None when A is singular) and the sampled frequency test."""

    cert_report: Optional[Verdict]
    freq_report: Verdict

    @property
    def method(self) -> Optional[str]:
        """The route that verified the plant, the certificate first: "certificate",
        "frequency", or None when neither did."""
        if self.cert_report is not None and self.cert_report.passed:
            return "certificate"
        return "frequency" if self.freq_report.passed else None

    @property
    def verified(self) -> bool:
        return self.method is not None


def assess_ni(sys: LinearSystem) -> NiAssessment:
    """Try the Lyapunov certificate route and the frequency test.

    Either route passing counts as NI verified; method records which one
    did, so that downstream consumers can cite it.
    """
    ss = sys if isinstance(sys, StateSpace) else tf_to_ss(sys)
    try:
        cert_report = certify_ni(ss)
    except SingularA:
        cert_report = None
    return NiAssessment(cert_report, ni_frequency_test(sys))
