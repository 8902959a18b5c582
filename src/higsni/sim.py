"""Closed-loop simulation and Lyapunov bookkeeping.

All loops use positive feedback (e = r + y) against a SISO plant given as a
StateSpace, and all are piecewise affine: with the element modes frozen, one
grid step is z+ = R z + d on the joint state z = [x; controller states].
Each simulator builds one (R, d) per frozen mode (RK4 maps for the hybrid
loops, the matrix exponential for the linear loop) and hands it, with its
per-step logic written for a block of rows, to a shared core, _march.  The
core owns the time grid and steps in blocks: it propagates up to
_BLOCK_ROWS rows one step at a time (z = R z + d, as a lone step would),
runs the loop's logic (mode decision, sector clamp) and the divergence
guard on the whole block, keeps the rows up to the first one where
something fired and resumes there.  Every kept row is the one a step at a
time would give, bit for bit: a gain-mode slot has a zero row and column in
the dynamics, so it never feeds the other states and is refreshed
afterwards, and an integrator slot changes only where a clamp fires, which
ends the block.  Signals, storage and the Lyapunov value are derived from
the recorded rows afterwards.

Mode switches are handled where the loop algebra demands it: the
single-element loop switches on the grid (its sector boundary does not
depend on the element state), so its block logic settles a switching row
itself, while the three-element loop localizes sector exits by bisection
inside the step and switches on the boundary itself; its block ends before
such a row, which is then taken by the bisecting step.  Recorded samples
satisfy the sector inequalities by construction up to rounding.

Lyapunov certificates pair a plant NI certificate Y with controller storage
into one quadratic form; their positive definiteness reduces to scalar DC
conditions via Schur complements, and the failing stage is reported when
they are rejected.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .controllers import (
    HigsPii2Params,
    InvalidParameters,
    ModeTriple,
    UnsolvableLoop,
    gain_sum_admissible,
    higs_pii2_mode_update,
    pii2_effective_states,
    resolve_pii2_error_rate,
    resolve_pii2_error_signal,
)
from .higs import (
    HigsIrcParams,
    HigsMode,
    MODE_BOUNDARY_RTOL,
    project_to_sector,
    storage_V1,
    storage_V2_cascade,
    storage_V_h,
)
from .lti import RationalTF, SingularA, StateSpace, _smallest_sv_ok, tf_to_ss


# Rows per block of Trajectory._write_csv.  Blocks of 64 to 1024 rows write
# equally fast; larger ones only hold more Python floats at once.
_CSV_BLOCK_ROWS = 128

# Steps per block of _march.  Propagation stays one row at a time; the mode
# logic, sector clamp and divergence guard run once per block on all rows.
_BLOCK_ROWS = 256


class NonFiniteState(RuntimeError):
    """State left the admissible region (non-finite or beyond the guard)."""


class IllPosedLoop(ValueError):
    """Algebraic feedthrough loop has no solution (1 - Dk * Dp = 0)."""


class CertificateNotPD(ValueError):
    """Lyapunov certificate is not positive definite."""

    def __init__(self, stage: str, margin: float):
        super().__init__(f"certificate not positive definite, failing stage: {stage} (margin {margin})")
        self.stage = stage
        self.margin = margin


@dataclass(frozen=True)
class Tolerances:
    """Numeric guards shared by the simulators."""

    mode_boundary: float = MODE_BOUNDARY_RTOL
    sector: float = 1e-12
    divergence: float = 1e9


@dataclass
class SimConfig:
    dt: float
    t_end: float
    x0: np.ndarray
    controller_x0: object = 0.0
    r: float = 0.0
    record_every: int = 1
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        self.dt = float(self.dt)
        self.t_end = float(self.t_end)
        self.x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        self.r = float(self.r)
        self.record_every = int(self.record_every)
        if self.dt <= 0.0 or not np.isfinite(self.dt):
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if self.t_end < self.dt:
            raise ValueError("t_end must be at least one step")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass
class Trajectory:
    """Sampled closed-loop run.  All present arrays share the same length.

    modes holds integer mode codes (0 integrator, 1 gain) per element; V is
    controller storage, W the Lyapunov function when a certificate was
    supplied; aux carries named extra series (e.g. storage components).
    """

    times: np.ndarray
    plant_states: np.ndarray
    controller_states: np.ndarray
    e: np.ndarray
    u: np.ndarray
    y: np.ndarray
    modes: Optional[np.ndarray] = None
    V: Optional[np.ndarray] = None
    W: Optional[np.ndarray] = None
    aux: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        N = len(self.times)
        series = [self.plant_states, self.controller_states, self.e, self.u, self.y]
        series += [s for s in (self.modes, self.V, self.W) if s is not None]
        series += list(self.aux.values())
        if any(len(s) != N for s in series):
            raise ValueError("all recorded series must have equal length")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    def column_names(self) -> list:
        n = self.plant_states.shape[1]
        names = ["t"] + [f"x{i+1}" for i in range(n)]
        names += list(self.meta.get("controller_state_names",
                                    [f"xc{i+1}" for i in range(self.controller_states.shape[1])]))
        if self.modes is not None:
            q = self.modes.shape[1]
            names += ["mode"] if q == 1 else [f"mode{i+1}" for i in range(q)]
        names += ["e", "u", "y"]
        if self.V is not None:
            names.append("V")
        names += sorted(self.aux.keys())
        if self.W is not None:
            names.append("W")
        return names

    def to_csv_text(self) -> str:
        out = io.StringIO()
        self._write_csv(out)
        return out.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            self._write_csv(fh)

    def _write_csv(self, fh) -> None:
        """Header, then _CSV_BLOCK_ROWS rows at a time: floats as repr, modes as int.

        Each block is written as soon as it is formatted, so the text of the
        whole file is never held at once."""
        fh.write(",".join(self.column_names()) + "\n")
        lead = (self.times, self.plant_states, self.controller_states)
        aux = [self.aux[k] for k in sorted(self.aux.keys())]
        tail = [s for s in (self.e, self.u, self.y, self.V, *aux, self.W) if s is not None]
        modes = np.empty((len(self), 0)) if self.modes is None else self.modes
        for a in range(0, len(self), _CSV_BLOCK_ROWS):
            blk = slice(a, a + _CSV_BLOCK_ROWS)
            rows = zip(np.column_stack([s[blk] for s in lead]).astype(float).tolist(),
                       modes[blk].astype(np.int64).tolist(),
                       np.column_stack([s[blk] for s in tail]).astype(float).tolist())
            fh.write("".join([",".join([*map(repr, x), *map(str, m), *map(repr, w)]) + "\n"
                              for x, m, w in rows]))


# ---------------------------------------------------------------------------
# Lyapunov certificates


@dataclass(frozen=True)
class LyapunovIrcCertificate:
    """W(x, x_h) = 1/2 [x; x_h]^T [[Y^-1, -C^T], [-C, 1/kt]] [x; x_h].

    Positive definite (given Y > 0) iff kappa_tilde * C Y C^T < 1, the same
    DC condition that certifies closed-loop stability.
    """

    Y: np.ndarray
    C: np.ndarray
    kappa_tilde: float
    P: np.ndarray = field(init=False)
    y_min_eig: float = field(init=False)
    schur_margin: float = field(init=False)
    positive_definite: bool = field(init=False)
    failed_stage: Optional[str] = field(init=False)

    def __post_init__(self):
        Y = np.array(self.Y, dtype=float)
        C = np.asarray(self.C, dtype=float).reshape(-1)
        n = C.shape[0]
        if Y.shape != (n, n):
            raise ValueError(f"Y must be {n} x {n}, got {Y.shape}")
        kt = float(self.kappa_tilde)
        if kt <= 0.0:
            raise ValueError("kappa_tilde must be > 0")
        Yinv = np.linalg.inv(Y)
        P = np.empty((n + 1, n + 1))
        P[:n, :n] = 0.5 * (Yinv + Yinv.T)
        P[:n, n] = -C
        P[n, :n] = -C
        P[n, n] = 1.0 / kt
        y_min = float(np.linalg.eigvalsh(0.5 * (Y + Y.T))[0])
        schur = 1.0 / kt - float(C @ Y @ C)
        if y_min <= 0.0:
            failed = "Y > 0"
        elif schur <= 0.0:
            failed = "1/kappa_tilde - C Y C^T > 0"
        else:
            failed = None
        for arr in (Y, C, P):
            arr.flags.writeable = False
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "kappa_tilde", kt)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "y_min_eig", y_min)
        object.__setattr__(self, "schur_margin", schur)
        object.__setattr__(self, "positive_definite", failed is None)
        object.__setattr__(self, "failed_stage", failed)


def lyapunov_W_irc(x, x_h: float, cert: LyapunovIrcCertificate) -> float:
    if not cert.positive_definite:
        margin = cert.y_min_eig if cert.failed_stage == "Y > 0" else cert.schur_margin
        raise CertificateNotPD(cert.failed_stage, margin)
    z = np.append(np.asarray(x, dtype=float).reshape(-1), float(x_h))
    return float(0.5 * z @ cert.P @ z)


@dataclass(frozen=True)
class LyapunovPii2Certificate:
    """Joint quadratic form for the hybrid PII^2 loop.

    M couples the plant energy 1/2 x^T Y^-1 x with the three element
    storages; a Schur-complement chain reduces M > 0 to -D - C Y C^T > 0,
    i.e. the DC condition D < -G(0).  Stages are evaluated in order and the
    first failure is recorded.
    """

    Y: np.ndarray
    C: np.ndarray
    params: HigsPii2Params
    M: np.ndarray = field(init=False)
    stages: tuple = field(init=False)
    positive_definite: bool = field(init=False)
    failed_stage: Optional[str] = field(init=False)
    failed_margin: float = field(init=False)

    def __post_init__(self):
        Y = np.array(self.Y, dtype=float)
        C = np.asarray(self.C, dtype=float).reshape(-1)
        n = C.shape[0]
        if Y.shape != (n, n):
            raise ValueError(f"Y must be {n} x {n}, got {Y.shape}")
        p = self.params
        g = p.gamma
        D = p.D
        Yinv = np.linalg.inv(Y)
        M = np.zeros((n + 3, n + 3))
        M[:n, :n] = 0.5 * (Yinv + Yinv.T) - p.k_p * g * np.outer(C, C)
        M[:n, n] = -g * C
        M[n, :n] = -g * C
        M[:n, n + 2] = -g * C
        M[n + 2, :n] = -g * C
        M[n, n] = 1.0 / p.h1.k_h - D * g
        M[n, n + 2] = -D * g
        M[n + 2, n] = -D * g
        M[n + 1, n + 1] = 1.0
        M[n + 2, n + 2] = -D * g
        y_min = float(np.linalg.eigvalsh(0.5 * (Y + Y.T))[0])
        cyc = float(C @ Y @ C)
        stages = (
            ("Y > 0", y_min),
            ("-D > 0", -D),
            ("-D - C Y C^T > 0", -D - cyc),
            ("M > 0", float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])),
        )
        failed = None
        failed_margin = np.inf
        for name, margin in stages:
            if margin <= 0.0:
                failed = name
                failed_margin = margin
                break
        for arr in (Y, C, M):
            arr.flags.writeable = False
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "positive_definite", failed is None)
        object.__setattr__(self, "failed_stage", failed)
        object.__setattr__(self, "failed_margin", float(failed_margin))


def lyapunov_W_pii2(
    x, x_h1: float, x_h2: float, x_h3: float, cert: LyapunovPii2Certificate
) -> float:
    if not cert.positive_definite:
        raise CertificateNotPD(cert.failed_stage, cert.failed_margin)
    z = np.concatenate([np.asarray(x, dtype=float).reshape(-1),
                        [float(x_h1), float(x_h2), float(x_h3)]])
    return float(0.5 * z @ cert.M @ z)


# ---------------------------------------------------------------------------
# Integration helpers


def _rk4_affine_map(J: np.ndarray, c: np.ndarray, h: float) -> Tuple[np.ndarray, np.ndarray]:
    """Exact RK4 update z+ = R z + d for the affine system dz/dt = J z + c."""
    n = J.shape[0]
    I = np.eye(n)
    hJ = h * J
    hJ2 = hJ @ hJ
    hJ3 = hJ2 @ hJ
    hJ4 = hJ3 @ hJ
    R = I + hJ + hJ2 / 2.0 + hJ3 / 6.0 + hJ4 / 24.0
    Q = h * (I + hJ / 2.0 + hJ2 / 6.0 + hJ3 / 24.0)
    return R, Q @ c


def _controller_x0(cfg: SimConfig, m: int) -> np.ndarray:
    """cfg.controller_x0 as m entries; a scalar or a single entry is broadcast."""
    x0 = np.asarray(cfg.controller_x0, dtype=float).reshape(-1)
    if x0.shape == (1,):
        return np.full(m, x0[0])
    if x0.shape != (m,):
        raise ValueError(f"controller_x0 must be a scalar or {m} entries")
    return x0


def _record_count(n_steps: int, every: int) -> int:
    count = n_steps // every + 1
    if n_steps % every:
        count += 1
    return count


def _march(cfg: SimConfig, z: np.ndarray, modes: tuple, maps, scan=None,
           step=None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance a joint state over the grid in blocks and sample it.

    maps(modes) -> (R, d) is the frozen-mode map of one step.  A block
    propagates up to _BLOCK_ROWS rows one step at a time, z = R z + d; then
    scan(rows, modes) -> (q, modes) applies the loop's per-step logic to
    every row in place and keeps the first q rows: the rows before the first
    one where the logic fired, plus that row when the scan settled it (it
    then carries the returned modes).  The next block starts from the last
    kept row.  When step is given, the row after a block cut short is taken
    by step(k, z, modes) -> (z, modes), the step from t = (k-1) dt to k dt;
    such a loop's scan stops before any row it cannot settle.  Without a
    scan the loop has no events.  The
    divergence guard (which also catches NaN) runs on every kept row;
    samples are taken at t = 0, every record_every steps and at the final
    step.  Returns the sample times, the joint states (one row per sample)
    and the integer mode codes.
    """
    n_steps, every, dt = cfg.n_steps, cfg.record_every, cfg.dt
    limit = cfg.tolerances.divergence
    N = _record_count(n_steps, every)
    # Multiples of every are exact in floating point, so T[i] = (i every) dt
    # as a step counter gives it.
    T = np.arange(0.0, N * every, every) * dt
    T[-1] = n_steps * dt
    Z = np.empty((N, z.shape[0]))
    M = np.empty((N, len(modes)), dtype=np.int64)
    Z[0], M[0] = z, modes
    buf = np.empty((_BLOCK_ROWS, z.shape[0]))
    rows = list(buf)
    k, bisect = 0, False
    # Rows past a guard trip or an event may overflow; they are never kept.
    with np.errstate(all="ignore"):
        while k < n_steps:
            if bisect:
                z, after = step(k + 1, z, modes)
                blk = buf[:1]
                blk[0] = z
                q = 1
                bisect = False
            else:
                R, d = maps(modes)
                blk = buf[:min(_BLOCK_ROWS, n_steps - k)]
                prev = z
                # The gemv and add of R @ z + d, written into the buffer.
                for row in rows[:len(blk)]:
                    np.dot(R, prev, out=row)
                    np.add(row, d, out=row)
                    prev = row
                q, after = (len(blk), modes) if scan is None else scan(blk, modes)
                bisect = step is not None and q < len(blk)
            ok = np.abs(blk[:q]).max(axis=1) <= limit
            if not ok.all():
                t = (k + 1 + int(np.argmin(ok))) * dt
                raise NonFiniteState(f"state escaped at t = {t:.6g} (|state| > {limit:g} or non-finite)")
            a = -(k + 1) % every    # first row of the block on the sample grid
            i = (k + 1 + a) // every
            kept = blk[a:q:every]
            Z[i:i + len(kept)], M[i:i + len(kept)] = kept, modes
            k += q
            modes = after
            if q:
                z = blk[q - 1].copy()
                if k % every == 0:
                    M[k // every] = modes
    Z[-1], M[-1] = z, modes
    return T, Z, M


def _row_dots(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w . x for every row x of X.  vecdot takes one dot per row, as w @ x
    does; a matrix-vector product X @ w may sum in another order and change
    the last bit."""
    return np.vecdot(X, w)


def _quadratic_rows(Z: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """1/2 z^T Q z for every row z of Z, bit for bit as (0.5 * z) @ Q @ z per
    row; the matrix product (0.5 * Z) @ Q would not be."""
    return np.vecdot(np.vecmat(0.5 * Z, Q), Z)


# Elementwise forms of the scalar mode logic, for the block scans of _march.
# Each applies the scalar function's operations in the same order, so every
# element equals the scalar result bit for bit (NaN and signed zeros too);
# np.where, not np.maximum/np.minimum, reproduces Python's max and min.


def _sector_clamp_rows(e: np.ndarray, x_h: np.ndarray, k_bound: float, tol: float) -> np.ndarray:
    """project_to_sector(e, x_h, k_bound, tol) elementwise."""
    edge = k_bound * e
    up = edge >= 0.0
    lo = np.where(up, 0.0, edge)
    hi = np.where(up, edge, 0.0)
    v = np.where(lo > x_h, lo, x_h)
    v = np.where(hi < v, hi, v)
    return np.where(e * x_h >= x_h * x_h / k_bound - tol, x_h, v)


def _gain_mode_rows(e, e_dot, x_h, k_bound: float, p, tol: float) -> np.ndarray:
    """Gain-mode mask of determine_mode_base (k_bound = p.k_h) or
    determine_mode_irc (k_bound = p.kappa_tilde), elementwise."""
    # max(1, |x_h|) is NaN at NaN x_h where Python's max gives 1.0; the
    # comparison is False either way.
    on_edge = np.abs(x_h - k_bound * e) <= tol * np.maximum(np.abs(x_h), 1.0)
    return on_edge & (p.omega_h * e * e > p.k_h * e * e_dot)


def _pii2_gain_rows(e, e_dot, states, p: HigsPii2Params, tol: float):
    """Gain-mode masks of higs_pii2_mode_update elementwise, H3 driven by
    H2's output (k_h2 e in gain mode, x_h2 integrating)."""
    x1, x2, x3 = states
    g1 = _gain_mode_rows(e, e_dot, x1, p.h1.k_h, p.h1, tol)
    g2 = _gain_mode_rows(e, e_dot, x2, p.h2.k_h, p.h2, tol)
    e3 = np.where(g2, p.h2.k_h * e, x2)
    e3_dot = np.where(g2, p.h2.k_h * e_dot, p.h2.omega_h * e)
    return g1, g2, _gain_mode_rows(e3, e3_dot, x3, p.h3.k_h, p.h3, tol)


# ---------------------------------------------------------------------------
# HIGS-IRC loop


def simulate_higs_irc_loop(
    plant: StateSpace,
    p: HigsIrcParams,
    cfg: SimConfig,
    cert: Optional[LyapunovIrcCertificate] = None,
) -> Trajectory:
    """Positive-feedback loop of an NI plant with one compensated element.

    Error signal e = r + C x; the element output u = x_h drives the plant.
    Per-mode dynamics are affine, so each RK4 step is a precomputed linear
    map.  When a certificate is supplied, W is traced alongside the element
    storage V.
    """
    if not _smallest_sv_ok(plant.A):
        raise SingularA("plant A must be invertible")
    if cert is not None and not cert.positive_definite:
        raise CertificateNotPD(cert.failed_stage,
                               cert.y_min_eig if cert.failed_stage == "Y > 0" else cert.schur_margin)
    n = plant.n
    if cfg.x0.shape != (n,):
        raise ValueError(f"x0 must have {n} entries")
    A, B, C = plant.A, plant.B, plant.C
    kt = p.kappa_tilde
    r = cfg.r
    tols = cfg.tolerances
    dt = cfg.dt

    CA = C @ A
    CB = float(C @ B)

    J_int = np.zeros((n + 1, n + 1))
    J_int[:n, :n] = A
    J_int[:n, n] = B
    J_int[n, :n] = p.omega_h * C
    J_int[n, n] = p.omega_h * p.D
    c_int = np.zeros(n + 1)
    c_int[n] = p.omega_h * r
    # Gain mode: x_h is an algebraic slot (zero row), refreshed after each step.
    J_gain = np.zeros((n + 1, n + 1))
    J_gain[:n, :n] = A + kt * np.outer(B, C)
    c_gain = np.zeros(n + 1)
    c_gain[:n] = kt * r * B
    maps = {
        (HigsMode.INTEGRATOR,): _rk4_affine_map(J_int, c_int, dt),
        (HigsMode.GAIN,): _rk4_affine_map(J_gain, c_gain, dt),
    }

    def irc_rows(Zb, modes):
        """One step's logic on rows stepped in `modes`: refresh x_h in gain
        mode, clamp it into the sector, pick the mode and pin x_h in gain
        mode.  Keeps the rows up to the first whose mode or clamp fired."""
        gain = modes[0] == HigsMode.GAIN
        X = Zb[:, :n]
        e = r + np.vecdot(X, C)
        if gain:
            Zb[:, n] = kt * e
        xh = Zb[:, n].copy()
        e_dot = np.vecdot(X, CA) + CB * xh
        xc = _sector_clamp_rows(e, xh, kt, tols.sector)
        to_gain = _gain_mode_rows(e, e_dot, xc, kt, p, tols.mode_boundary)
        Zb[:, n] = np.where(to_gain, kt * e, xc)
        fired = np.flatnonzero((to_gain != gain) | (xc != xh))
        q = int(fired[0]) + 1 if len(fired) else len(Zb)
        return q, (HigsMode.GAIN if to_gain[q - 1] else HigsMode.INTEGRATOR,)

    z = np.concatenate([cfg.x0, _controller_x0(cfg, 1)])
    with np.errstate(all="ignore"):
        _, modes = irc_rows(z[None], (HigsMode.INTEGRATOR,))
    T, Z, M = _march(cfg, z, modes, maps.__getitem__, irc_rows)
    X, xh = Z[:, :n], Z[:, n]
    y = _row_dots(X, C)

    return Trajectory(
        times=T,
        plant_states=X,
        controller_states=Z[:, n:],
        e=r + y,
        u=xh,
        y=y,
        modes=M,
        V=storage_V_h(xh, p),
        W=None if cert is None else _quadratic_rows(Z, cert.P),
        meta={
            "controller": "higs_irc",
            "controller_state_names": ["xh"],
            "kappa_tilde": kt,
            "dt": dt,
            "record_every": cfg.record_every,
        },
    )


# ---------------------------------------------------------------------------
# Linear loop


class _Rows(NamedTuple):
    """Output rows of the joint linear loop; see closed_loop_matrices."""

    u_x: np.ndarray
    u_k: np.ndarray
    u_r: float
    y_x: np.ndarray
    y_k: np.ndarray
    y_r: float
    n: int
    nk: int


def closed_loop_matrices(plant: StateSpace, ctrl: RationalTF, tol: float = 1e-12):
    """Joint (A_cl, B_cl) for the positive-feedback loop plus output rows.

    Returns (A_cl, B_cl, rows) where rows maps the joint state and the
    reference to (u, y): u = rows.u_x @ x + rows.u_k @ xk + rows.u_r * r and
    likewise for y.  Static controllers (order 0) contribute feedthrough
    only.  Raises IllPosedLoop when 1 - Dk * Dp vanishes.
    """
    if ctrl.order >= 1:
        k = tf_to_ss(ctrl)
        Ak, Bk, Ck, Dk = k.A, k.B, k.C, k.D_ff
    else:
        Ak = np.zeros((0, 0))
        Bk = np.zeros(0)
        Ck = np.zeros(0)
        Dk = ctrl.num[0] / ctrl.den[0]
    A, B, C, Dp = plant.A, plant.B, plant.C, plant.D_ff
    n, nk = plant.n, Ak.shape[0]
    delta = 1.0 - Dk * Dp
    if abs(delta) <= tol:
        raise IllPosedLoop(f"feedthrough product gives 1 - Dk*Dp = {delta}")
    u_x = (Dk / delta) * C
    u_k = Ck / delta
    u_r = Dk / delta
    y_x = C + Dp * u_x
    y_k = Dp * u_k
    y_r = Dp * u_r
    Acl = np.zeros((n + nk, n + nk))
    Acl[:n, :n] = A + np.outer(B, u_x)
    Acl[:n, n:] = np.outer(B, u_k)
    Acl[n:, :n] = np.outer(Bk, y_x)
    Acl[n:, n:] = Ak + np.outer(Bk, y_k)
    Bcl = np.concatenate([B * u_r, Bk * (1.0 + y_r)])
    return Acl, Bcl, _Rows(u_x, u_k, float(u_r), y_x, y_k, float(y_r), n, nk)


def simulate_linear_loop(plant: StateSpace, ctrl: RationalTF, cfg: SimConfig) -> Trajectory:
    """Exact discretization (matrix exponential per step) of the LTI loop."""
    # Imported here, its only use, so that importing the package (and the
    # CLI) does not load scipy.
    from scipy.linalg import expm

    n = plant.n
    if cfg.x0.shape != (n,):
        raise ValueError(f"x0 must have {n} entries")
    Acl, Bcl, rows = closed_loop_matrices(plant, ctrl)
    nk = rows.nk
    xk0 = _controller_x0(cfg, nk)
    nz = n + nk
    aug = np.zeros((nz + 1, nz + 1))
    aug[:nz, :nz] = Acl * cfg.dt
    aug[:nz, nz] = Bcl * cfg.dt
    Phi = expm(aug)
    E, F = Phi[:nz, :nz], Phi[:nz, nz]
    r = cfg.r
    d = F * r

    T, Z, _ = _march(cfg, np.concatenate([cfg.x0, xk0]), (), lambda modes: (E, d))
    X, XK = Z[:, :n], Z[:, n:]
    y = _row_dots(X, rows.y_x) + _row_dots(XK, rows.y_k) + rows.y_r * r

    return Trajectory(
        times=T,
        plant_states=X,
        controller_states=XK,
        e=r + y,
        u=_row_dots(X, rows.u_x) + _row_dots(XK, rows.u_k) + rows.u_r * r,
        y=y,
        meta={
            "controller": "linear",
            "controller_state_names": [f"xc{i+1}" for i in range(nk)],
            "dt": cfg.dt,
            "record_every": cfg.record_every,
        },
    )


# ---------------------------------------------------------------------------
# HIGS-PII^2 loop

# Event localization inside one step: boundary eligibility and the sector-exit
# threshold during bisection, plus the smallest chunk worth resolving.  Much
# tighter than the recording-level tolerances so that switching a mode moves
# the state (and the Lyapunov value) by a negligible amount.  Both tests
# measure distance in state units scaled by max(1, |x_h|); the exit threshold
# sits strictly inside the eligibility band so that wherever a sector exit is
# detected, the mode update is allowed to act on it.
_EVENT_RTOL = 1e-12
_EVENT_GAP = 1e-13
_EVENT_MIN_FRAC = 1e-12


def simulate_higs_pii2_loop(
    plant: StateSpace,
    p: HigsPii2Params,
    cfg: SimConfig,
    cert: Optional[LyapunovPii2Certificate] = None,
) -> Trajectory:
    """Hybrid PII^2 loop: H1 and the H2->H3 chain in parallel with k_p.

    The loop error solves a per-sample algebraic equation (gain-mode
    elements feed through), so with the three modes frozen the joint
    dynamics are affine and every chunk advances by a precomputed RK4 map.
    Sector exits and mode switches are localized inside the step by
    bisection before the modes change: switching happens on the boundary
    itself, so element states stay continuous and the Lyapunov trace is
    free of projection jumps.  The error couples back through the element
    states (e = gamma*(r + y) + gamma*D*(x_h1 + x_h3)), which is why a
    plain project-after-step scheme would chatter against the boundary
    instead of entering gain mode.
    """
    if not _smallest_sv_ok(plant.A):
        raise SingularA("plant A must be invertible")
    from .lti import dc_gain  # local import to keep module load light

    if not gain_sum_admissible(p, dc_gain(plant)):
        raise InvalidParameters(
            "k_h1 + k_h2^2 + k_p coincides with 1/(G(0) + D); perturb the gains"
        )
    if cert is not None and not cert.positive_definite:
        raise CertificateNotPD(cert.failed_stage, cert.failed_margin)
    n = plant.n
    if cfg.x0.shape != (n,):
        raise ValueError(f"x0 must have {n} entries")
    A, B, C = plant.A, plant.B, plant.C
    CA = C @ A
    CB = float(C @ B)
    r = cfg.r
    dt = cfg.dt
    tols = cfg.tolerances
    ks = (p.h1.k_h, p.h2.k_h, p.h3.k_h)
    gam = p.gamma
    D = p.D
    nz = n + 3

    xh0 = _controller_x0(cfg, 3)

    def mode_matrices(modes: ModeTriple):
        """Affine dz/dt = J z + c for one frozen mode combination.

        Gain-mode element states are carried as frozen slots (zero rows)
        and substituted algebraically wherever their outputs appear."""
        g1 = modes.h1 == HigsMode.GAIN
        g2 = modes.h2 == HigsMode.GAIN
        g3 = modes.h3 == HigsMode.GAIN
        a = (ks[0] if g1 else 0.0) + (ks[2] * ks[1] if (g3 and g2) else 0.0)
        den = 1.0 - gam * D * a
        if abs(den) <= 1e-12:
            raise UnsolvableLoop(f"degenerate error equation, denominator {den}")
        w_e = np.zeros(nz)
        w_e[:n] = (gam / den) * C
        if not g1:
            w_e[n] = gam * D / den
        if g3 and not g2:
            w_e[n + 1] = gam * D * ks[2] / den
        if not g3:
            w_e[n + 2] = gam * D / den
        c_e = gam * r / den
        w_u = p.k_p * w_e
        c_u = p.k_p * c_e
        if g1:
            w_u += ks[0] * w_e
            c_u += ks[0] * c_e
        else:
            w_u[n] += 1.0
        if g3:
            if g2:
                w_u += ks[2] * ks[1] * w_e
                c_u += ks[2] * ks[1] * c_e
            else:
                w_u[n + 1] += ks[2]
        else:
            w_u[n + 2] += 1.0
        J = np.zeros((nz, nz))
        c = np.zeros(nz)
        J[:n, :n] = A
        J[:n, :] += np.outer(B, w_u)
        c[:n] = B * c_u
        if not g1:
            J[n, :] = p.h1.omega_h * w_e
            c[n] = p.h1.omega_h * c_e
        if not g2:
            J[n + 1, :] = p.h2.omega_h * w_e
            c[n + 1] = p.h2.omega_h * c_e
        if not g3:
            if g2:
                J[n + 2, :] = p.h3.omega_h * ks[1] * w_e
                c[n + 2] = p.h3.omega_h * ks[1] * c_e
            else:
                J[n + 2, n + 1] = p.h3.omega_h
        return J, c

    map_cache: dict = {}

    def step_maps(modes: ModeTriple):
        got = map_cache.get(modes)
        if got is None:
            J, c = mode_matrices(modes)
            R, d = _rk4_affine_map(J, c, dt)
            got = (J, c, R, d)
            map_cache[modes] = got
        return got

    def advance(z, modes, h):
        J, c, R, d = step_maps(modes)
        if h != dt:
            R, d = _rk4_affine_map(J, c, h)
        return R @ z + d

    def resolve_z(z, modes):
        return resolve_pii2_error_signal(r + float(C @ z[:n]), z[n], z[n + 1], z[n + 2], modes, p)

    def mode_update(z, modes):
        """Modes the update rule picks at a state, with the error and H3's input."""
        e, u = resolve_z(z, modes)
        slots = (z[n], z[n + 1], z[n + 2])
        x1e, x2e, x3e = pii2_effective_states(e, slots, modes, p)
        y_dot = float(CA @ z[:n]) + CB * u
        e_dot = resolve_pii2_error_rate(y_dot, e, slots, modes, p)
        return higs_pii2_mode_update(e, e_dot, (x1e, x2e, x3e), p, _EVENT_RTOL), e, x2e

    def probe(z, modes):
        """Settled-once modes and worst scaled sector exit at a state.

        The exit is measured as the projection distance in state units over
        max(1, |x_h|), the same scaling the boundary-eligibility test uses."""
        new, e, x2e = mode_update(z, modes)
        viol = 0.0
        pairs = []
        if modes.h1 == HigsMode.INTEGRATOR:
            pairs.append((e, z[n], ks[0]))
        if modes.h2 == HigsMode.INTEGRATOR:
            pairs.append((e, z[n + 1], ks[1]))
        if modes.h3 == HigsMode.INTEGRATOR:
            pairs.append((x2e, z[n + 2], ks[2]))
        for ei, xi, ki in pairs:
            gap = abs(project_to_sector(ei, xi, ki) - xi) / max(1.0, abs(xi))
            if gap > viol:
                viol = gap
        return new, viol

    def finalize(z, modes):
        """Refresh gain slots and clamp rounding dust off the sectors."""
        e, _ = resolve_z(z, modes)
        x1e, x2e, x3e = pii2_effective_states(e, (z[n], z[n + 1], z[n + 2]), modes, p)
        if modes.h1 == HigsMode.GAIN:
            z[n] = x1e
        else:
            z[n] = project_to_sector(e, z[n], ks[0], tols.sector)
        if modes.h2 == HigsMode.GAIN:
            z[n + 1] = x2e
        else:
            z[n + 1] = project_to_sector(e, z[n + 1], ks[1], tols.sector)
        if modes.h3 == HigsMode.GAIN:
            z[n + 2] = x3e
        else:
            z[n + 2] = project_to_sector(x2e, z[n + 2], ks[2], tols.sector)

    def settle(z, modes):
        """Fixed point of (resolve error, update modes, refresh gain states)."""
        for _ in range(8):
            new = mode_update(z, modes)[0]
            if new == modes:
                return modes
            modes = new
            finalize(z, modes)
        return modes

    # Sanitize the initial state: clamp into the sectors against the resolved
    # error (a couple of passes, since clamping moves the error), then settle
    # the starting modes.
    z = np.concatenate([cfg.x0, xh0])
    modes = ModeTriple(HigsMode.INTEGRATOR, HigsMode.INTEGRATOR, HigsMode.INTEGRATOR)
    for _ in range(3):
        finalize(z, modes)
    modes = settle(z, modes)
    finalize(z, modes)

    h_min = _EVENT_MIN_FRAC * dt

    def step(k, z, modes):
        remaining = dt
        events = 0
        while remaining > h_min:
            zc = advance(z, modes, remaining)
            new, viol = probe(zc, modes)
            if new == modes and viol <= _EVENT_GAP:
                z = zc
                finalize(z, modes)
                break
            # Earliest event in (0, remaining]: bisect on (mode change or
            # sector exit), land just past it, switch exactly there.
            lo, hi, ze = 0.0, remaining, zc
            while hi - lo > h_min:
                mid = 0.5 * (lo + hi)
                zm = advance(z, modes, mid)
                mnew, mviol = probe(zm, modes)
                if mnew != modes or mviol > _EVENT_GAP:
                    hi, ze = mid, zm
                else:
                    lo = mid
            z = ze
            finalize(z, modes)
            new_modes = settle(z, modes)
            stalled = new_modes == modes
            modes = new_modes
            remaining -= hi
            events += 1
            if stalled and hi <= 2.0 * h_min:
                # Grazing touch without a switch right at the chunk start:
                # take a small plain chunk so the loop cannot spin in place.
                nudge = min(remaining, 1e-6 * dt)
                z = advance(z, modes, nudge)
                finalize(z, modes)
                remaining -= nudge
            if events > 64:
                raise UnsolvableLoop(
                    f"mode switching failed to settle within the step ending at t = {k * dt:.6g}"
                )
        return z, modes

    def pii2_rows(Zb, modes):
        """probe and finalize of one step on rows stepped in `modes`.  Keeps
        the rows before the first mode change or sector exit (the bisecting
        step takes that row) and up to the first row the clamp moved."""
        X = Zb[:, :n]
        slots = tuple(Zb[:, n:].T.copy())
        e, u = resolve_pii2_error_signal(r + np.vecdot(X, C), *slots, modes, p)
        eff = pii2_effective_states(e, slots, modes, p)
        e_dot = resolve_pii2_error_rate(np.vecdot(X, CA) + CB * u, e, slots, modes, p)
        gains = _pii2_gain_rows(e, e_dot, eff, p, _EVENT_RTOL)
        event = np.zeros(len(Zb), dtype=bool)
        moved = np.zeros(len(Zb), dtype=bool)
        for i, (mode, g, x, ei, ki) in enumerate(zip(modes, gains, slots, (e, e, eff[1]), ks)):
            if mode == HigsMode.GAIN:
                event |= ~g
                Zb[:, n + i] = eff[i]
            else:
                event |= g
                event |= np.abs(_sector_clamp_rows(ei, x, ki, 0.0) - x) / np.maximum(np.abs(x), 1.0) > _EVENT_GAP
                xc = _sector_clamp_rows(ei, x, ki, tols.sector)
                moved |= xc != x
                Zb[:, n + i] = xc
        fired = np.flatnonzero(event | moved)
        if not len(fired):
            return len(Zb), modes
        s = int(fired[0])
        return (s if event[s] else s + 1), modes

    T, Z, M = _march(cfg, z, modes, lambda modes: step_maps(modes)[2:], pii2_rows, step)
    X, XH = Z[:, :n], Z[:, n:]
    y = _row_dots(X, C)
    e, u = np.empty(len(Z)), np.empty(len(Z))
    # The error equation is elementwise once the modes are fixed: one
    # resolve per recorded mode triple.
    codes = M @ (4, 2, 1)
    for c in np.unique(codes):
        rows = codes == c
        triple = ModeTriple(*(HigsMode(int(c) >> b & 1) for b in (2, 1, 0)))
        e[rows], u[rows] = resolve_pii2_error_signal(
            r + y[rows], XH[rows, 0], XH[rows, 1], XH[rows, 2], triple, p)
    V1 = storage_V1(XH[:, 0], p.h1)
    V2 = storage_V2_cascade(XH[:, 1], XH[:, 2])

    return Trajectory(
        times=T,
        plant_states=X,
        controller_states=XH,
        e=e,
        u=u,
        y=y,
        modes=M,
        V=V1 + V2,
        W=None if cert is None else _quadratic_rows(Z, cert.M),
        aux={"V1": V1, "V2": V2},
        meta={
            "controller": "higs_pii2",
            "controller_state_names": ["xh1", "xh2", "xh3"],
            "sector_gains": [ks[0], ks[1], ks[2]],
            "dt": dt,
            "record_every": cfg.record_every,
        },
    )


# ---------------------------------------------------------------------------
# Trajectory checks


@dataclass(frozen=True)
class MonotoneReport:
    passed: bool
    worst_increase: float
    worst_time: float
    budget: float


def check_monotone(traj: Trajectory, budget: float = 1e-6) -> MonotoneReport:
    """W(t_{k+1}) <= W(t_k) + budget * (t_{k+1} - t_k) at every sample pair."""
    if traj.W is None:
        raise ValueError("trajectory has no Lyapunov series; supply a certificate when simulating")
    dW = np.diff(traj.W)
    allow = budget * np.diff(traj.times)
    excess = dW - allow
    worst = int(np.argmax(excess)) if len(excess) else 0
    passed = bool(len(excess) == 0 or excess[worst] <= 0.0)
    worst_increase = float(dW[worst]) if len(excess) else 0.0
    return MonotoneReport(
        passed=passed,
        worst_increase=worst_increase,
        worst_time=float(traj.times[worst + 1]) if len(excess) else float(traj.times[0]),
        budget=float(budget),
    )


@dataclass(frozen=True)
class SectorReport:
    passed: bool
    worst_margin: float     # min over samples of (e*u - u^2/k) / scale
    worst_time: float
    worst_element: int
    rtol: float


def _sector_pairs(traj: Trajectory):
    kind = traj.meta.get("controller")
    if kind == "higs_irc":
        kt = traj.meta["kappa_tilde"]
        return [(traj.e, traj.controller_states[:, 0], kt)]
    if kind == "higs_pii2":
        ks = traj.meta.get("sector_gains")
        if ks is None:
            raise ValueError("trajectory metadata lacks sector_gains")
        return [
            (traj.e, traj.controller_states[:, 0], ks[0]),
            (traj.e, traj.controller_states[:, 1], ks[1]),
            (traj.controller_states[:, 1], traj.controller_states[:, 2], ks[2]),
        ]
    raise ValueError(f"no sector constraint for controller kind {kind!r}")


def check_sector(traj: Trajectory, rtol: float = 1e-9) -> SectorReport:
    """Relative sector test e*u >= u^2/k at every recorded sample."""
    worst = np.inf
    worst_t = float(traj.times[0])
    worst_el = 0
    for idx, (e, u, k) in enumerate(_sector_pairs(traj)):
        lhs = e * u
        rhs = u * u / k
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), rhs))
        margin = (lhs - rhs) / scale
        i = int(np.argmin(margin))
        if margin[i] < worst:
            worst = float(margin[i])
            worst_t = float(traj.times[i])
            worst_el = idx
    return SectorReport(
        passed=bool(worst >= -rtol),
        worst_margin=worst,
        worst_time=worst_t,
        worst_element=worst_el,
        rtol=float(rtol),
    )


@dataclass(frozen=True)
class DissipationReport:
    passed: bool
    worst_excess: float
    worst_time: float
    budget_coeff: float


def check_dissipation(traj: Trajectory, budget_coeff: float = 100.0) -> DissipationReport:
    """Trapezoid storage inequality dV <= mean(e) * dx_h + coeff * dt^2.

    Applies to the single-element loop (V against the supply e * dx_h/dt).
    The budget absorbs integration error; it shrinks quadratically with the
    recording step, so refining dt tightens the test.
    """
    if traj.meta.get("controller") != "higs_irc" or traj.V is None:
        raise ValueError("dissipation check needs a higs_irc trajectory with V recorded")
    e = traj.e
    xh = traj.controller_states[:, 0]
    dV = np.diff(traj.V)
    supply = 0.5 * (e[1:] + e[:-1]) * np.diff(xh)
    dts = np.diff(traj.times)
    excess = dV - supply - budget_coeff * dts * dts
    i = int(np.argmax(excess))
    return DissipationReport(
        passed=bool(excess[i] <= 0.0),
        worst_excess=float((dV - supply)[i]),
        worst_time=float(traj.times[i + 1]),
        budget_coeff=float(budget_coeff),
    )
