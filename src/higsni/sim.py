"""Closed-loop simulation and Lyapunov bookkeeping.

All loops use positive feedback against a SISO plant given as a StateSpace,
and all are piecewise linear: with the element modes frozen, a loop is a
controllers.ModeSystem, dz/dt = J z on the joint state z = [x; controller
states] with e, u and de/dt as rows of z.  A simulator supplies
system(modes) -> ModeSystem; the rest is shared.  _loop_start validates the
plant, certificate and initial state, _mode_maps caches the RK4 map
z+ = R z of one grid step per mode, _march owns the time grid and
_mode_signals reads the recorded e and u off the rows of each sample's mode.

_march steps in blocks: it propagates up to _BLOCK_ROWS rows one step at a
time (z = R z, as a lone step would), runs the loop's scan (mode
decision, sector exits) and the divergence guard on the whole block, keeps
the rows before the first event and resumes there.  Every kept row is the
one a step at a time would give, bit for bit: a gain-mode slot has a zero
row and column in J and zero weight in e and de/dt, so it never feeds the
other states and is refreshed afterwards, and an integrator slot changes
only at a sector exit, which is an event.

Both hybrid loops run one event mechanism, _hybrid_loop, over a chain of
HIGS elements (higs.Element): the single-element loop is the one-element
chain, the PII^2 loop the chain H1, H2, H3.  Its scan ends a block before a
row where a mode changes or a sector is left, and its step locates that
event inside the step, by regula falsi on the element law's event margin
with a midpoint fallback, and switches on the boundary itself.
Both read the chain's higs.element_law: the scan on a block of rows, the
step on the floats of one state, once per probed state, whose new states a
chunk then keeps.  Recorded samples satisfy the sector inequalities by
construction up to rounding.  The hybrid loops need a strictly proper plant
(D_ff = 0).

Lyapunov certificates pair a plant NI certificate Y with controller storage
into one quadratic form; their positive definiteness reduces to scalar DC
conditions via Schur complements, and the failing stage is reported when
they are rejected.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .controllers import (
    ALGEBRAIC_LOOP_TOL,
    HigsPii2Params,
    InvalidParameters,
    ModeSystem,
    UnsolvableLoop,
    gain_sum_admissible,
    irc_mode_system,
    pii2_chain,
    pii2_mode_system,
)
from .higs import (
    Element,
    HigsIrcParams,
    element_law,
    storage_V1,
    storage_V2_cascade,
    storage_V_h,
)
from .lti import (
    RationalTF,
    SingularA,
    StateSpace,
    Verdict,
    _rank,
    dc_gain,
    tf_to_ss,
)


# Rows per block of Trajectory._write_csv.  A block's strings are held at
# once, so larger blocks raise the peak memory of a run: about 0.2 MB at 128
# rows on the 16-column PII^2 loop, 1.7 MB at 1024.
_CSV_BLOCK_ROWS = 128

# Steps per block of _march.  Propagation stays one row at a time; the mode
# logic, sector-exit test and divergence guard run once per block on all rows.
_BLOCK_ROWS = 256

# The divergence guard: a kept row with |state| above this (or NaN) ends the
# run with NonFiniteState.
DIVERGENCE_LIMIT = 1e9


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


# n_steps * dt may miss t_end by this relative margin: t_end must be a whole
# number of steps, so that the last sample is taken at t_end.
WHOLE_STEPS_RTOL = 1e-9


@dataclass(kw_only=True)
class SimConfig:
    """One run: its step dt, end time t_end, initial plant state x0 and
    controller state (a single value is broadcast), and every how many steps
    a sample is recorded.  A scenario's sim section takes these keys."""

    dt: float = 1e-3
    t_end: float
    x0: np.ndarray
    controller_x0: np.ndarray = 0.0
    record_every: int = 1

    def __post_init__(self):
        self.dt = float(self.dt)
        self.t_end = float(self.t_end)
        self.x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        self.controller_x0 = np.asarray(self.controller_x0, dtype=float)
        self.record_every = int(self.record_every)
        if self.dt <= 0.0 or not np.isfinite(self.dt):
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if self.t_end < self.dt:
            raise ValueError("t_end must be at least one step")
        if not np.isfinite(self.t_end / self.dt):
            raise ValueError(f"t_end / dt must be finite, got {self.t_end / self.dt}")
        n = self.n_steps
        if abs(n * self.dt - self.t_end) > WHOLE_STEPS_RTOL * self.t_end:
            raise ValueError(f"t_end {self.t_end} is not a whole number of steps of dt {self.dt}: "
                             f"the nearest, {n} steps, ends at {n * self.dt}")
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

    def final_norm(self) -> float:
        """|z| at the last sample, z = [plant state; controller state]."""
        return float(np.linalg.norm(np.concatenate([self.plant_states[-1],
                                                    self.controller_states[-1]])))

    def _columns(self) -> list:
        """(name, values) per CSV column, in the one order of the header and
        the rows: t, plant states, controller states, modes, e, u, y, V, the
        aux series by name, W.  Mode codes are int64, the rest float."""
        XC = self.controller_states
        xc_names = self.meta.get("controller_state_names", [f"xc{i+1}" for i in range(XC.shape[1])])
        modes = () if self.modes is None else self.modes.T.astype(np.int64, copy=False)
        mode_names = ["mode"] if len(modes) == 1 else [f"mode{i+1}" for i in range(len(modes))]
        floats = [("t", self.times), *((f"x{i+1}", x) for i, x in enumerate(self.plant_states.T)),
                  *zip(xc_names, XC.T)]
        tail = [("e", self.e), ("u", self.u), ("y", self.y), ("V", self.V),
                *sorted(self.aux.items()), ("W", self.W)]
        return ([(name, s.astype(float, copy=False)) for name, s in floats]
                + list(zip(mode_names, modes))
                + [(name, s.astype(float, copy=False)) for name, s in tail if s is not None])

    def column_names(self) -> list:
        return [name for name, _ in self._columns()]

    def write_csv(self, path) -> None:
        """Write the CSV text of _write_csv to path."""
        with open(path, "w", newline="") as fh:
            self._write_csv(fh)

    def _write_csv(self, fh) -> None:
        """The header, then the rows _CSV_BLOCK_ROWS at a time: floats as
        repr, modes as int.

        Each column of a block is formatted by one orjson.dumps call, whose
        shortest round-trip text is repr's wherever repr writes positional
        text; the other cells take repr.  A column whose bits equal an
        earlier column's of the same dtype reuses that column's strings: on
        the mass-spring IRC loop, e and y are x1 and u is xh.  Each block is written as soon as it is
        formatted, so the text of the whole file is never held at once."""
        # Imported here, not with the module: it also loads uuid and
        # zoneinfo, about 5 ms that no run without a CSV should pay.
        import orjson

        names, cols = zip(*self._columns())
        fh.write(",".join(names) + "\n")
        # Bits, not values: 0.0 and -0.0 are equal but print differently.
        same = []
        for i, col in enumerate(cols):
            bits = col.view(np.int64)
            same.append(next((j for j in range(i) if cols[j].dtype == col.dtype
                              and np.array_equal(cols[j].view(np.int64), bits)), None))
        # repr writes x positionally exactly when the decimal exponent of its
        # shortest round-trip digits d(x) is -4 to 15, i.e. 1e-4 <= |d(x)| <
        # 1e16.  Shortest digits are monotone in x, and d(1e-4) = 1e-4 and
        # d(1e16) = 1e16, so on the doubles that is fl(1e-4) <= |x| < 1e16:
        # nextafter(1e-4, 0) and 1e16 fall outside, 1e-4 and nextafter(1e16, 0)
        # inside.  There orjson writes the same shortest digits positionally,
        # with the same ".0" on whole values, and so it does for 0.0 and -0.0.
        # Every other cell (exponent form, nan and +-inf, which orjson writes
        # as null) takes repr.  Per column: block index -> offsets of those.
        spills = []
        for col in cols:
            spill = {}
            if col.dtype.kind == "f":
                mag = np.abs(col)
                positional = (mag >= 1e-4) & (mag < 1e16) | (col == 0.0)
                for r in np.flatnonzero(~positional).tolist():
                    spill.setdefault(r // _CSV_BLOCK_ROWS, []).append(r % _CSV_BLOCK_ROWS)
            spills.append(spill)
        for k, a in enumerate(range(0, len(self), _CSV_BLOCK_ROWS)):
            cells = []
            for col, j, spill in zip(cols, same, spills):
                if j is not None:
                    cells.append(cells[j])
                    continue
                values = col[a:a + _CSV_BLOCK_ROWS].tolist()
                text = orjson.dumps(values).decode()[1:-1].split(",")
                for r in spill.get(k, ()):
                    text[r] = repr(values[r])
                cells.append(text)
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


# ---------------------------------------------------------------------------
# Lyapunov certificates


@dataclass(frozen=True)
class LyapunovCertificate:
    """Joint quadratic form W(z) = 1/2 z^T P z on the loop state z = [x; x_h...].

    stages holds (name, margin) pairs in evaluation order: a Schur-complement
    chain from the plant certificate Y > 0 down to the loop's DC condition,
    whose margins are all positive iff P > 0.  The first non-positive margin
    names the failing stage.
    """

    P: np.ndarray
    stages: tuple

    def __post_init__(self):
        self.P.flags.writeable = False

    @property
    def failed_stage(self) -> Optional[str]:
        return next((name for name, margin in self.stages if margin <= 0.0), None)

    @property
    def failed_margin(self) -> float:
        return float(next((margin for _, margin in self.stages if margin <= 0.0), np.inf))

    @property
    def positive_definite(self) -> bool:
        return self.failed_stage is None

    def require_positive_definite(self) -> None:
        if not self.positive_definite:
            raise CertificateNotPD(self.failed_stage, self.failed_margin)

    def W(self, z) -> float:
        self.require_positive_definite()
        z = np.asarray(z, dtype=float).reshape(-1)
        return float(0.5 * z @ self.P @ z)


def _plant_block(Y, C):
    """C as a vector, C Y C^T, the plant block 1/2 (Y^-1 + Y^-T) of P and the
    stage Y > 0, shared by both loop certificates."""
    Y = np.array(Y, dtype=float)
    C = np.asarray(C, dtype=float).reshape(-1)
    n = C.shape[0]
    if Y.shape != (n, n):
        raise ValueError(f"Y must be {n} x {n}, got {Y.shape}")
    Yinv = np.linalg.inv(Y)
    y_min = float(np.linalg.eigvalsh(0.5 * (Y + Y.T))[0])
    return C, float(C @ Y @ C), 0.5 * (Yinv + Yinv.T), ("Y > 0", y_min)


def LyapunovIrcCertificate(Y, C, kappa_tilde: float) -> LyapunovCertificate:
    """W(x, x_h) = 1/2 [x; x_h]^T [[Y^-1, -C^T], [-C, 1/kt]] [x; x_h].

    Positive definite (given Y > 0) iff kappa_tilde * C Y C^T < 1, the same
    DC condition that certifies closed-loop stability.
    """
    kt = float(kappa_tilde)
    if kt <= 0.0:
        raise ValueError("kappa_tilde must be > 0")
    C, cyc, plant, y_stage = _plant_block(Y, C)
    n = C.shape[0]
    P = np.empty((n + 1, n + 1))
    P[:n, :n] = plant
    P[:n, n] = -C
    P[n, :n] = -C
    P[n, n] = 1.0 / kt
    return LyapunovCertificate(P, (y_stage, ("1/kappa_tilde - C Y C^T > 0", 1.0 / kt - cyc)))


def LyapunovPii2Certificate(Y, C, params: HigsPii2Params) -> LyapunovCertificate:
    """Joint quadratic form for the hybrid PII^2 loop.

    P couples the plant energy 1/2 x^T Y^-1 x with the three element
    storages; a Schur-complement chain reduces P > 0 to -D - C Y C^T > 0,
    i.e. the DC condition D < -G(0).  The last stage, "M > 0", tests P itself.
    """
    C, cyc, plant, y_stage = _plant_block(Y, C)
    n = C.shape[0]
    p = params
    g = p.gamma
    D = p.D
    P = np.zeros((n + 3, n + 3))
    P[:n, :n] = plant - p.k_p * g * np.outer(C, C)
    P[:n, n] = -g * C
    P[n, :n] = -g * C
    P[:n, n + 2] = -g * C
    P[n + 2, :n] = -g * C
    P[n, n] = 1.0 / p.h1.k_h - D * g
    P[n, n + 2] = -D * g
    P[n + 2, n] = -D * g
    P[n + 1, n + 1] = 1.0
    P[n + 2, n + 2] = -D * g
    return LyapunovCertificate(P, (
        y_stage,
        ("-D > 0", -D),
        ("-D - C Y C^T > 0", -D - cyc),
        ("M > 0", float(np.linalg.eigvalsh(0.5 * (P + P.T))[0])),
    ))


# ---------------------------------------------------------------------------
# Integration helpers


def _rk4_affine_map(J: np.ndarray, h: float) -> np.ndarray:
    """RK4 map z+ = R z of one step h of the linear system dz/dt = J z.

    A step with ||hJ||_1 > 1 is taken as 2^s RK4 substeps of h / 2^s, each
    with ||.||_1 < 1 and so inside RK4's stability region, combined by
    squaring: stiff modes then decay as they do in the exact flow.  With
    s = 0 this is one plain RK4 step.  The map is linear; the name still
    says affine because the benchmark counts map builds by it, and a
    rename waits for the next change to the benchmark (ROADMAP item 1).
    """
    n = J.shape[0]
    I = np.eye(n)
    hJ = h * J
    norm = float(np.abs(hJ).sum(axis=0).max())
    s = math.frexp(norm)[1] if norm > 1.0 else 0
    if s:
        hJ = hJ / 2**s
    hJ2 = hJ @ hJ
    hJ3 = hJ2 @ hJ
    hJ4 = hJ3 @ hJ
    R = I + hJ + hJ2 / 2.0 + hJ3 / 6.0 + hJ4 / 24.0
    for _ in range(s):
        R = R @ R
    return R


def require_strictly_proper(plant: StateSpace) -> None:
    """The hybrid loops' mode systems and certificates use A, B and C only,
    so they need D_ff = 0; simulate, check stability and design all ask
    here."""
    if plant.D_ff != 0.0:
        raise ValueError(f"hybrid loops need a strictly proper plant, got D_ff = {plant.D_ff}")


def _loop_start(plant: StateSpace, cfg: SimConfig, m: int, hybrid: bool,
                cert: Optional[LyapunovCertificate] = None) -> np.ndarray:
    """[x0; controller_x0] for m controller states, a single controller_x0
    broadcast.  A hybrid loop also needs a strictly proper plant, an
    invertible A and, when given, a positive-definite certificate."""
    if hybrid:
        require_strictly_proper(plant)
        if _rank(plant.A) < plant.n:
            raise SingularA("plant A must be invertible")
        if cert is not None:
            cert.require_positive_definite()
    if cfg.x0.shape != (plant.n,):
        raise ValueError(f"x0 must have {plant.n} entries")
    xc0 = cfg.controller_x0.reshape(-1)
    if xc0.shape == (1,):
        xc0 = np.full(m, xc0[0])
    elif xc0.shape != (m,):
        raise ValueError(f"controller_x0 must be a scalar or {m} entries")
    return np.concatenate([cfg.x0, xc0])


def _mode_maps(system: Callable[[tuple], ModeSystem], dt: float):
    """system cached per mode, and the cached RK4 map R of one full step dt
    per mode, built on its first use."""
    system = functools.cache(system)

    @functools.cache
    def maps(modes):
        return _rk4_affine_map(system(modes).J, dt)

    return system, maps


def _march(cfg: SimConfig, z: np.ndarray, modes: tuple, maps, scan=None,
           step=None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance a joint state over the grid in blocks and sample it.

    maps(modes) -> R is the frozen-mode map of one step.  A block
    propagates up to _BLOCK_ROWS rows one step at a time, z = R z; then
    scan(rows, modes) -> q applies the loop's per-step logic to every row in
    place and keeps the first q rows, those before the loop's first event:
    on them the logic only refreshes gain-mode slots.  The next block starts
    from the last kept row; after a block cut short, step(k, z, modes) ->
    (z, modes), the step from t = (k-1) dt to k dt, takes the next row.
    Without a scan the loop has no events.  The divergence guard
    (|z| <= DIVERGENCE_LIMIT, which also catches NaN) runs on every kept
    row; samples are taken at t = 0, every record_every steps and at the
    final step.  Returns the sample times, the joint states (one row per
    sample) and the integer mode codes.  Raises ValueError naming the sample count when the sample
    arrays cannot be allocated.
    """
    n_steps, dt = cfg.n_steps, cfg.dt
    every = min(cfg.record_every, n_steps)    # from n_steps on: samples at 0 and the end
    N = -(-n_steps // every) + 1    # samples at 0, every `every` steps and at the end
    try:
        # Multiples of every are exact in floating point, so T[i] = (i every) dt
        # as a step counter gives it.
        T = np.arange(0.0, N * every, every) * dt
        Z = np.empty((N, z.shape[0]))
        M = np.empty((N, len(modes)), dtype=np.int64)
    except (MemoryError, ValueError) as exc:
        raise ValueError(f"cannot record the {N:.6g} samples of the run: {exc}") from exc
    T[-1] = n_steps * dt
    Z[0], M[0] = z, modes
    buf = np.empty((_BLOCK_ROWS, z.shape[0]))
    rows = list(buf)
    k, locate = 0, False
    # Rows past a guard trip or an event may overflow; they are never kept.
    with np.errstate(all="ignore"):
        while k < n_steps:
            if locate:
                z, modes = step(k + 1, z, modes)
                blk, q, locate = z[None], 1, False
            else:
                R = maps(modes)
                blk = buf[:min(_BLOCK_ROWS, n_steps - k)]
                prev = z
                # The gemv of R @ z, written into the buffer.
                for row in rows[:len(blk)]:
                    np.dot(R, prev, out=row)
                    prev = row
                q = len(blk) if scan is None else scan(blk, modes)
                locate = q < len(blk)
            ok = np.abs(blk[:q]).max(axis=1) <= DIVERGENCE_LIMIT
            if not ok.all():
                t = (k + 1 + int(np.argmin(ok))) * dt
                raise NonFiniteState(f"state escaped at t = {t:.6g} (|state| > {DIVERGENCE_LIMIT:g} or non-finite)")
            a = -(k + 1) % every    # first row of the block on the sample grid
            i = (k + 1 + a) // every
            kept = blk[a:q:every]
            Z[i:i + len(kept)], M[i:i + len(kept)] = kept, modes
            k += q
            if q:
                z = blk[q - 1].copy()
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


def _mode_signals(Z: np.ndarray, M: np.ndarray, system) -> Tuple[np.ndarray, np.ndarray]:
    """The recorded e and u: each sample read off the rows of its mode, one
    pair of row dots per mode code (the modes as the bits of an integer).
    The codes present come from bincount: np.unique would import numpy.ma,
    about 25 ms of a fresh process."""
    q = M.shape[1]
    codes = M @ (1 << np.arange(q - 1, -1, -1))
    e, u = np.empty(len(Z)), np.empty(len(Z))
    for code in np.flatnonzero(np.bincount(codes)):
        rows = codes == code
        s = system(tuple(bool(int(code) >> b & 1) for b in range(q - 1, -1, -1)))
        e[rows] = _row_dots(Z[rows], s.w_e)
        u[rows] = _row_dots(Z[rows], s.w_u)
    return e, u


# ---------------------------------------------------------------------------
# Linear loop


def closed_loop_matrices(plant: StateSpace, ctrl: RationalTF) -> ModeSystem:
    """The positive-feedback loop with a linear controller as a one-mode
    ModeSystem on the joint state z = [x; x_k].

    e = y, with the plant output y = C x + D_ff u, and u is the
    controller output; both rows solve the feedthrough loop.  Static
    controllers (order 0) contribute feedthrough only.  Raises IllPosedLoop
    when |1 - Dk * Dp| <= ALGEBRAIC_LOOP_TOL.
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
    if abs(delta) <= ALGEBRAIC_LOOP_TOL:
        raise IllPosedLoop(f"feedthrough product gives 1 - Dk*Dp = {delta}")
    # u = w_u . z and y = w_y . z
    w_u = np.concatenate([(Dk / delta) * C, Ck / delta])
    w_y = Dp * w_u
    w_y[:n] += C
    J = np.zeros((n + nk, n + nk))
    J[:n] = np.outer(B, w_u)
    J[:n, :n] += A
    J[n:] = np.outer(Bk, w_y)
    J[n:, n:] += Ak
    return ModeSystem(J, w_y, w_u, w_y @ J)


def simulate_linear_loop(plant: StateSpace, ctrl: RationalTF, cfg: SimConfig) -> Trajectory:
    """The LTI loop on the hybrid loops' RK4 step map (substepped where the
    loop is stiff): it is their all-integrator limit."""
    s = closed_loop_matrices(plant, ctrl)
    nk = s.J.shape[0] - plant.n
    z = _loop_start(plant, cfg, nk, hybrid=False)
    system, maps = _mode_maps(lambda modes: s, cfg.dt)
    T, Z, M = _march(cfg, z, (), maps)
    e, u = _mode_signals(Z, M, system)

    return Trajectory(
        times=T,
        plant_states=Z[:, :plant.n],
        controller_states=Z[:, plant.n:],
        e=e,
        u=u,
        y=e,
        meta={"controller": "linear", "controller_state_names": [f"xc{i+1}" for i in range(nk)]},
    )


# ---------------------------------------------------------------------------
# Hybrid loops

# The width to which the event search closes its bracket, as a fraction of
# dt: the step lands at most this far past an event.
_EVENT_MIN_FRAC = 1e-12

# Probes after which an event bracket that has not halved takes a midpoint.
_EVENT_STALL_PROBES = 4


def _locate_event(at, f_lo: float, hi: float, z_hi, law_hi, h_min: float):
    """Close the bracket (0, hi] of a chunk's earliest event to a width of
    at most h_min.

    0 lies before the event, with margin f_lo, and hi on it, with state
    z_hi and element law law_hi; at(h) -> (z, law) probes the state h into
    the chunk.  Each probe's event flag decides which end it replaces.  The
    next probe is the Illinois step of regula falsi on the law's margin
    (Dowell & Jarratt, BIT 1971), kept h_min / 2 inside the bracket so that
    an event next to an end closes it: a margin of 0 puts the event at
    that end.  The midpoint is taken instead while the end margins do not
    bracket 0, or once _EVENT_STALL_PROBES probes have not halved the
    bracket.  Returns hi, z_hi and law_hi of the last probe on the event
    side.
    """
    lo, f_hi = 0.0, law_hi.margin
    side = stalled = 0
    width = hi
    while hi - lo > h_min:
        h = 0.5 * (lo + hi)
        if stalled < _EVENT_STALL_PROBES and f_lo <= 0.0 <= f_hi < math.inf and f_lo < f_hi:
            h = hi - (hi - lo) * (f_hi / (f_hi - f_lo))
            h = min(max(h, lo + 0.5 * h_min), hi - 0.5 * h_min)
        z, law = at(h)
        # Illinois: an end kept twice in a row has its margin halved.
        if law.event:
            hi, z_hi, law_hi, f_hi = h, z, law, law.margin
            if side > 0:
                f_lo *= 0.5
            side = 1
        else:
            lo, f_lo = h, law.margin
            if side < 0:
                f_hi *= 0.5
            side = -1
        if hi - lo <= 0.5 * width:
            width, stalled = hi - lo, 0
        else:
            stalled += 1
    return hi, z_hi, law_hi


def _hybrid_loop(plant: StateSpace, cfg: SimConfig, z: np.ndarray,
                 cert: Optional[LyapunovCertificate], chain: tuple,
                 system: Callable[[tuple], ModeSystem]) -> dict:
    """Run a loop from z, whose last len(chain) states are the chain's
    elements.

    With the modes frozen every chunk advances by an RK4 map of
    system(modes).  Sector exits and mode switches are located inside the
    step by _locate_event before the modes change: switching happens on the
    boundary itself, so element states stay continuous and the Lyapunov
    trace is free of projection jumps.  Where the error couples back
    through the element states, a project-after-step scheme would chatter
    against the boundary instead of entering gain mode.  Returns the
    Trajectory fields both hybrid loops share.
    """
    n = plant.n
    dt = cfg.dt
    system, maps = _mode_maps(system, dt)

    def advance(z, modes, h):
        R = maps(modes) if h == dt else _rk4_affine_map(system(modes).J, h)
        return R @ z

    def probe(z, modes):
        """element_law at one state, read off with float dots and tolist():
        a probe stays off numpy's elementwise calls."""
        s = system(modes)
        return element_law(float(s.w_e @ z), float(s.w_de @ z), z[n:].tolist(), modes, chain)

    def probed(z, modes, h):
        """The state h into a chunk from z, and its probe."""
        zh = advance(z, modes, h)
        return zh, probe(zh, modes)

    def settle(z, modes):
        """Fixed point of (resolve error, update modes, refresh gain states)."""
        for _ in range(8):
            new = probe(z, modes).gains
            if new == modes:
                return modes
            modes = new
            z[n:] = probe(z, modes).states
        return modes

    # Sanitize the initial state: clamp into the sectors against the resolved
    # error (a couple of passes, since clamping moves the error), then settle
    # the starting modes.
    modes = (False,) * len(chain)
    for _ in range(3):
        z[n:] = probe(z, modes).states
    modes = settle(z, modes)
    z[n:] = probe(z, modes).states

    h_min = _EVENT_MIN_FRAC * dt

    def step(k, z, modes):
        """The step from (k-1) dt to k dt.  A chunk keeps the new states of
        the probe that decided it: the one that found no event, or the last
        one on the event side of _locate_event."""
        remaining = dt
        events = 0
        while remaining > h_min:
            zc, law = probed(z, modes, remaining)
            if not law.event:
                z = zc
                z[n:] = law.states
                break
            # Earliest event in (0, remaining]: locate the first state with a
            # mode change or a sector exit, land just past it, switch exactly
            # there.
            hi, z, law = _locate_event(functools.partial(probed, z, modes), probe(z, modes).margin,
                                       remaining, zc, law, h_min)
            z[n:] = law.states
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
                z[n:] = probe(z, modes).states
                remaining -= nudge
            if events > 64:
                raise UnsolvableLoop(
                    f"mode switching failed to settle within the step ending at t = {k * dt:.6g}"
                )
        return z, modes

    def scan(Zb, modes):
        """element_law on rows stepped in `modes`, which take its new
        states.  Keeps the rows before the first event; the event-locating
        step takes that row."""
        s = system(modes)
        _, event, new, _ = element_law(np.vecdot(Zb, s.w_e), np.vecdot(Zb, s.w_de),
                                       tuple(Zb[:, n:].T.copy()), modes, chain,
                                       with_margin=False)
        Zb[:, n:] = np.column_stack(new)
        fired = np.flatnonzero(event)
        return int(fired[0]) if len(fired) else len(Zb)

    T, Z, M = _march(cfg, z, modes, maps, scan, step)
    e, u = _mode_signals(Z, M, system)
    return dict(times=T, plant_states=Z[:, :n], controller_states=Z[:, n:], e=e, u=u,
                y=_row_dots(Z[:, :n], plant.C), modes=M,
                W=None if cert is None else _quadratic_rows(Z, cert.P))


def simulate_higs_irc_loop(
    plant: StateSpace,
    p: HigsIrcParams,
    cfg: SimConfig,
    cert: Optional[LyapunovCertificate] = None,
) -> Trajectory:
    """Positive-feedback loop of an NI plant with one compensated element.

    Error signal e = C x; the element output u = x_h drives the plant.
    The loop is the one-element chain (sector bound kappa_tilde) of
    _hybrid_loop on controllers.irc_mode_system.  When a certificate is
    supplied, W is traced alongside the element storage V.
    """
    z = _loop_start(plant, cfg, 1, hybrid=True, cert=cert)
    chain = (Element(p.kappa_tilde, p),)
    run = _hybrid_loop(plant, cfg, z, cert, chain, lambda modes: irc_mode_system(plant, p, modes))
    return Trajectory(**run, V=storage_V_h(run["controller_states"][:, 0], p),
                      meta={"controller": "higs_irc", "controller_state_names": ["xh"], "chain": chain})


def simulate_higs_pii2_loop(
    plant: StateSpace,
    p: HigsPii2Params,
    cfg: SimConfig,
    cert: Optional[LyapunovCertificate] = None,
) -> Trajectory:
    """Hybrid PII^2 loop: H1 and the H2->H3 chain in parallel with k_p.

    The loop error solves a per-sample algebraic equation (gain-mode
    elements feed through, e = gamma*y + gamma*D*(x_h1 + x_h3)), so with
    the three modes frozen the joint dynamics are linear, dz/dt = J z
    (controllers.pii2_mode_system), and the loop is piecewise linear;
    _hybrid_loop runs the three-element chain on them.
    """
    z = _loop_start(plant, cfg, 3, hybrid=True, cert=cert)
    if not gain_sum_admissible(p, dc_gain(plant)):
        raise InvalidParameters(
            "k_h1 + k_h2^2 + k_p coincides with 1/(G(0) + D); perturb the gains"
        )
    chain = pii2_chain(p)
    run = _hybrid_loop(plant, cfg, z, cert, chain, lambda modes: pii2_mode_system(plant, p, modes))
    XH = run["controller_states"]
    V1 = storage_V1(XH[:, 0], p.h1)
    V2 = storage_V2_cascade(XH[:, 1], XH[:, 2])
    return Trajectory(**run, V=V1 + V2, aux={"V1": V1, "V2": V2},
                      meta={"controller": "higs_pii2", "controller_state_names": ["xh1", "xh2", "xh3"],
                            "chain": chain})


# ---------------------------------------------------------------------------
# Trajectory checks

# Each check compares its margin with a bound built from one of these.
# check_sector: a sample may miss the sector by this relative margin.
SECTOR_CHECK_RTOL = 1e-9
# check_monotone: W may rise by this times the time between two samples.
MONOTONE_BUDGET = 1e-6
# check_dissipation: storage may exceed the supplied energy by this times dt^2.
DISSIPATION_BUDGET_COEFF = 100.0

MONOTONE_CONDITION = "W(t_k+1) - W(t_k) <= MONOTONE_BUDGET (t_k+1 - t_k) at every sample pair"


def check_monotone(traj: Trajectory) -> Verdict:
    """W(t_{k+1}) <= W(t_k) + MONOTONE_BUDGET * (t_{k+1} - t_k) at every sample pair.

    margin is the rise of W over the pair that exceeds its allowance most,
    bound that pair's allowance; the verdict holds when margin <= bound.
    """
    if traj.W is None:
        raise ValueError("trajectory has no Lyapunov series; supply a certificate when simulating")
    if len(traj) == 1:
        return Verdict.measured(True, MONOTONE_CONDITION, 0.0, 0.0, worst_time=float(traj.times[0]))
    dW = np.diff(traj.W)
    allow = MONOTONE_BUDGET * np.diff(traj.times)
    excess = dW - allow
    i = int(np.argmax(excess))
    return Verdict.measured(excess[i] <= 0.0, MONOTONE_CONDITION, dW[i], allow[i],
                            worst_time=float(traj.times[i + 1]))


def _sector_pairs(traj: Trajectory):
    """(input, output, bound) per element of the trajectory's chain."""
    chain = traj.meta.get("chain")
    if chain is None:
        raise ValueError(f"no sector constraint for controller kind {traj.meta.get('controller')!r}")
    X = traj.controller_states
    return [(traj.e if el.source is None else X[:, el.source], X[:, i], el.bound)
            for i, el in enumerate(chain)]


def check_sector(traj: Trajectory) -> Verdict:
    """Relative sector test e*u >= u^2/k at every recorded sample.

    margin is the smallest (e u - u^2/k) / max(1, |e u|, u^2/k) over the
    samples and elements, bound -SECTOR_CHECK_RTOL; the verdict holds when
    margin >= bound.
    """
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
    return Verdict.measured(worst >= -SECTOR_CHECK_RTOL,
                            "e u >= u^2 / k at every sample, within a relative SECTOR_CHECK_RTOL",
                            worst, -SECTOR_CHECK_RTOL, worst_time=worst_t, worst_element=worst_el)


def check_dissipation(traj: Trajectory) -> Verdict:
    """Trapezoid storage inequality dV <= mean(e) * dx_h + DISSIPATION_BUDGET_COEFF * dt^2.

    Applies to the single-element loop (V against the supply e * dx_h/dt).
    The budget absorbs integration error; it shrinks quadratically with the
    recording step, so refining dt tightens the test.  margin is dV minus
    the supply over the pair that exceeds its budget most, bound that
    pair's budget; the verdict holds when margin <= bound.
    """
    if traj.meta.get("controller") != "higs_irc" or traj.V is None:
        raise ValueError("dissipation check needs a higs_irc trajectory with V recorded")
    e = traj.e
    xh = traj.controller_states[:, 0]
    dV = np.diff(traj.V)
    supply = 0.5 * (e[1:] + e[:-1]) * np.diff(xh)
    dts = np.diff(traj.times)
    excess = dV - supply - DISSIPATION_BUDGET_COEFF * dts * dts
    i = int(np.argmax(excess))
    return Verdict.measured(
        excess[i] <= 0.0, "dV <= mean(e) dx_h + DISSIPATION_BUDGET_COEFF dt^2 at every sample pair",
        dV[i] - supply[i], DISSIPATION_BUDGET_COEFF * dts[i] * dts[i],
        worst_time=float(traj.times[i + 1]))


def check_convergence(traj: Trajectory, threshold: float = 0.2) -> Verdict:
    """margin, the norm |z| at the last sample, is at most the bound threshold."""
    norm = traj.final_norm()
    return Verdict.measured(norm <= threshold, "|z(t_end)| <= threshold", norm, threshold)
