"""Seeded workload generator for the higsni benchmark.

Each workload is a pool of ops built from the seed, run in whole passes so
that every run holds the same mix of ops.  An op is one ``higsni`` CLI
invocation.  Every op carries its expected outcome, fixed here from
the paper's conditions (kappa_tilde * G(0) < 1 for one element, D < -G(0)
for the PII^2 family and the linear controllers), never from a run of the
program.

The pools have the same shape for every seed (step counts, controller mix
and the fixed plants of multimode_verify); the seed moves initial states
and controller gains.  Op cost therefore barely depends on the seed, which
keeps the run-to-run spread down to host noise.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("hybrid_single", "hybrid_bank", "linear_sweep", "multimode_verify")

DT = 1e-3
HYBRID_T_END = 10.0        # 10 000 steps per hybrid op
SWEEP_T_END = 10.0
SWEEP_RECORD_EVERY = 20
SWEEP_RUNS = 6
SWEEP_JOBS = 2
SWEEP_OUT = "sweep_out"        # relative to the op's working directory
MULTIMODE_T_END = 10.0
# Collocated two-mode plants, (w, zeta, g) per mode.  They are fixed rather
# than drawn from the seed because the certificate search's cost varies by
# about 20 % from plant to plant, which would become run-to-run spread; the
# seed moves k_h and x0.  These three cost the search about the same number
# of objective evaluations (13 298 to 13 442), so all six simulates of a pass
# form one cost cluster and the median op is not tied to one plant.
MULTIMODE_PLANTS = (
    ((0.8, 0.01, 0.7), (2.3, 0.03, 1.2)),
    ((2.1, 0.025, 1.05), (1.31, 0.012, 0.71)),
    ((2.69, 0.023, 1.2), (3.97, 0.033, 0.96)),
)
X0_NORM = math.sqrt(10.0)  # norm of the shipped x0 = [3, 1]

MASS_SPRING = {"A": [[0.0, 1.0], [-1.0, 0.0]], "B": [0.0, 1.0], "C": [1.0, 0.0]}
MASS_SPRING_G0 = 1.0
SHIPPED_PII2 = {
    "type": "higs_pii2", "k_p": 0.5, "D": -1.5,
    "h1": {"omega_h": 0.3, "k_h": 2.0},
    "h2": {"omega_h": 0.2, "k_h": 1.0},
    "h3": {"omega_h": 0.4, "k_h": 1.0},
}

NO_CERT_REASON = "no NI certificate found"


@dataclass
class Op:
    """One CLI invocation and what the theory says it must produce."""

    key: str                  # identifies the input; repeats must hash alike
    argv: list                # arguments after ``higsni``
    kind: str                 # simulate | design | sweep
    steps: int                # simulated steps
    scenarios: int            # scenario runs completed
    paths: list = field(default_factory=list)    # scenarios the traced replay runs
    expect: dict = field(default_factory=dict)


def _rows(n_steps: int, every: int) -> int:
    return n_steps // every + 1 + (1 if n_steps % every else 0)


def _x0(rng: random.Random, n: int = 2) -> list:
    """Point at the shipped norm, direction drawn from the seed."""
    if n == 2:
        a = rng.uniform(0.0, 2.0 * math.pi)
        return [X0_NORM * math.cos(a), X0_NORM * math.sin(a)]
    v = [rng.gauss(0.0, 1.0) for _ in range(n)]
    s = math.sqrt(sum(c * c for c in v))
    return [X0_NORM * c / s for c in v]


def _write(path: str, obj: dict) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
    return path


def _scenario(name, plant, controller, t_end, x0, checks, every=1):
    return {
        "name": name,
        "plant": plant,
        "controller": controller,
        "sim": {"dt": DT, "t_end": t_end, "x0": x0, "controller_x0": 0.0,
                "record_every": every},
        "checks": checks,
        "output": {"csv": f"{name}.csv", "report": f"{name}.report.json"},
    }


def _simulate_op(workdir, sc, expect_checks):
    path = _write(os.path.join(workdir, sc["name"] + ".json"), sc)
    n_steps = int(round(sc["sim"]["t_end"] / DT))
    rows = _rows(n_steps, sc["sim"]["record_every"])
    return Op(
        key=sc["name"],
        argv=["simulate", path],
        kind="simulate",
        steps=n_steps,
        scenarios=1,
        expect={"checks": expect_checks, "rows": rows,
                "csv": sc["output"]["csv"], "report": sc["output"]["report"]},
        paths=[path],
    )


def kappa_tilde(k_h: float, D: float) -> float:
    return k_h / (1.0 - k_h * D)


def _hybrid_single(rng, workdir):
    ops = []
    for k_h in (5.0, 20.0):
        D = -1.0
        assert kappa_tilde(k_h, D) * MASS_SPRING_G0 < 1.0  # DC condition
        sc = _scenario(f"single_k{int(k_h)}", MASS_SPRING,
                       {"type": "higs_irc", "omega_h": 0.5, "k_h": k_h, "D": D},
                       HYBRID_T_END, _x0(rng),
                       ["sector", "lyapunov_monotone", "dissipation"])
        ops.append(_simulate_op(workdir, sc, {"sector": True, "lyapunov_monotone": True,
                                              "dissipation": True}))
    return ops


def _hybrid_bank(rng, workdir):
    assert SHIPPED_PII2["D"] < -MASS_SPRING_G0  # DC condition
    ops = []
    for i in range(2):
        sc = _scenario(f"bank_{i}", MASS_SPRING, SHIPPED_PII2, HYBRID_T_END,
                       _x0(rng), ["sector", "lyapunov_monotone"])
        ops.append(_simulate_op(workdir, sc, {"sector": True, "lyapunov_monotone": True}))
    return ops


def _linear_controller(rng, i):
    D = -(MASS_SPRING_G0 + rng.uniform(0.25, 1.0))
    assert D < -MASS_SPRING_G0  # DC condition for both linear controllers
    if i % 2 == 0:
        return {"type": "irc", "Gamma": rng.uniform(0.5, 2.0), "D": D}
    return {"type": "pii2rc", "k_p": rng.uniform(0.5, 1.5), "k1": rng.uniform(0.5, 1.5),
            "k2": rng.uniform(0.5, 1.5), "D": D}


def _linear_sweep(rng, workdir):
    base = {"plant": MASS_SPRING,
            "sim": {"dt": DT, "t_end": SWEEP_T_END, "x0": [3.0, 1.0],
                    "controller_x0": 0.0, "record_every": SWEEP_RECORD_EVERY},
            "checks": []}
    runs, run_paths, expect_runs = [], [], {}
    n_steps = int(round(SWEEP_T_END / DT))
    for i in range(SWEEP_RUNS):
        name = f"lin_{i}"
        over = {"controller": _linear_controller(rng, i), "sim": {"x0": _x0(rng)}}
        runs.append({"name": name, "overrides": over})
        # The merged scenario the sweep builds for this run, for the traced
        # pipeline to replay in-process.
        sc = _scenario(name, MASS_SPRING, over["controller"], SWEEP_T_END,
                       over["sim"]["x0"], [], SWEEP_RECORD_EVERY)
        run_paths.append(_write(os.path.join(workdir, name + ".json"), sc))
        expect_runs[name] = {"rows": _rows(n_steps, SWEEP_RECORD_EVERY),
                             "csv": f"{name}.csv", "report": f"{name}.report.json"}
    path = _write(os.path.join(workdir, "sweep.json"),
                  {"base": base, "runs": runs, "output_dir": SWEEP_OUT})
    op = Op(key="sweep", argv=["sweep", path, "--jobs", str(SWEEP_JOBS)], kind="sweep",
            steps=SWEEP_RUNS * n_steps, scenarios=SWEEP_RUNS,
            expect={"runs": expect_runs},
            paths=run_paths)
    return [op]


def modal_plant(modes):
    """Collocated modal sum G(s) = sum g^2 / (s^2 + 2 zeta w s + w^2): NI.

    For each mode (w, zeta, g) the block diag(1/w^2, 1) of Y is an NI
    certificate, so one exists for every plant built here."""
    n = 2 * len(modes)
    A = [[0.0] * n for _ in range(n)]
    B = [0.0] * n
    C = [0.0] * n
    g0 = 0.0
    for m, (w, zeta, g) in enumerate(modes):
        i = 2 * m
        A[i][i + 1] = 1.0
        A[i + 1][i] = -w * w
        A[i + 1][i + 1] = -2.0 * zeta * w
        B[i + 1] = g
        C[i] = g
        g0 += g * g / (w * w)
    return {"A": A, "B": B, "C": C}, g0


def _multimode_verify(rng, workdir):
    # Two simulates per design keep the op-time median inside the simulate
    # cluster; with one each, it would sit in the gap between the two kinds.
    ops = []
    for i, modes in enumerate(MULTIMODE_PLANTS):
        plant, g0 = modal_plant(modes)
        D = -(g0 + 1.0)
        sims = []
        for j in range(2):
            k_h = rng.uniform(2.0, 20.0)
            assert kappa_tilde(k_h, D) * g0 < 1.0  # DC condition
            sc = _scenario(f"modal_{i}_{j}", plant,
                           {"type": "higs_irc", "omega_h": 0.5, "k_h": k_h, "D": D},
                           MULTIMODE_T_END, _x0(rng, len(plant["B"])),
                           ["sector", "lyapunov_monotone", "dissipation"])
            sims.append(_simulate_op(workdir, sc, {"sector": True, "lyapunov_monotone": True,
                                                   "dissipation": True}))
        path = sims[0].paths[0]
        design = Op(key=f"design_{i}", argv=["design", path, "higs_irc"],
                    kind="design", steps=0, scenarios=0,
                    paths=[path], expect={"dc_gain": g0})
        ops += [design] + sims
    return ops


def generate(workload: str, seed: int, workdir: str) -> list:
    """Write the inputs of one workload under workdir; return its pool of ops."""
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    build = {
        "hybrid_single": _hybrid_single,
        "hybrid_bank": _hybrid_bank,
        "linear_sweep": _linear_sweep,
        "multimode_verify": _multimode_verify,
    }[workload]
    return build(rng, workdir)
