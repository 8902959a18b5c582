"""End-to-end acceptance gate.

Each test exercises one headline guarantee of the package, prints a single
pass/fail line with the measured numbers, and then asserts.  Run with -s to
see all nine lines.
"""

import time

import mpmath as mp
import numpy as np
import pytest

from higsni import (
    HigsIrcParams,
    IrcParams,
    LyapunovPii2Certificate,
    Pii2Params,
    Trajectory,
    check_monotone,
    check_sector,
    irc_tf,
    pii2rc_tf,
    search_ni_certificate,
    simulate_higs_irc_loop,
)
from higsni.cli import ConfigError, _plant_ss, _simulate, cmd_simulate, load_scenario
from higsni.controllers import pii2rc_sni_value, stability_verdict
from higsni.lti import NICertificate, verify_ni_certificate
from higsni.sim import closed_loop_matrices

from conftest import HIGS20, PII2, oscillator_config


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, detail


def test_criterion_1_mass_spring_convergence(plant, irc5_traj):
    t0 = time.perf_counter()
    traj = simulate_higs_irc_loop(plant, HIGS20, oscillator_config())
    wall = time.perf_counter() - t0
    final = float(np.linalg.norm(np.concatenate(
        [traj.plant_states[-1], traj.controller_states[-1]])))
    norms = np.sqrt(np.sum(traj.plant_states ** 2, axis=1)
                    + np.sum(traj.controller_states ** 2, axis=1))
    env = [float(norms[(traj.times >= lo) & (traj.times < lo + 10.0)].max())
           for lo in (0.0, 10.0, 20.0, 30.0)]
    final5 = float(np.linalg.norm(np.concatenate(
        [irc5_traj.plant_states[-1], irc5_traj.controller_states[-1]])))
    ok = (final <= 0.2 and all(a > b for a, b in zip(env, env[1:]))
          and wall < 5.0 and final5 <= 0.2)
    _verdict(1, ok,
             f"k_h=20 final norm {final:.4f} <= 0.2, window peaks "
             f"{[round(v, 3) for v in env]} strictly decreasing, "
             f"wall {wall:.2f}s < 5s; k_h=5 final norm {final5:.4f} <= 0.2")


def test_criterion_2_effective_gain_and_dc_condition(plant):
    p20 = HigsIrcParams(0.5, 20.0, -1.0)
    p5 = HigsIrcParams(0.5, 5.0, -1.0)
    exact = p20.kappa_tilde == 20.0 / 21.0 and p5.kappa_tilde == 5.0 / 6.0
    v20 = stability_verdict(plant, p20)
    v5 = stability_verdict(plant, p5)
    ok = exact and v20.passed and v5.passed
    _verdict(2, ok,
             f"kappa_tilde(20,-1) == 20/21 and kappa_tilde(5,-1) == 5/6 "
             f"exactly: {exact}; DC margins 1 - kt*G(0) = "
             f"{v20.margin:.6f}, {v5.margin:.6f} both > 0")


def test_criterion_3_certificate_residual_and_search(plant):
    rep = verify_ni_certificate(plant, NICertificate(np.eye(2)))
    t0 = time.perf_counter()
    found = search_ni_certificate(plant)
    wall = time.perf_counter() - t0
    found_ok = found is not None and verify_ni_certificate(plant, found).passed
    residual, lyap = rep.evidence["residual_norm"], rep.evidence["lyap_max_eig"]
    ok = (rep.passed and residual <= 1e-12
          and lyap <= 1e-12 and wall < 1.0 and found_ok)
    _verdict(3, ok,
             f"Y = I verifies (residual {residual:.2e} <= 1e-12, "
             f"lyapunov max eig {lyap:.2e}); search found a "
             f"verifying Y in {wall:.3f}s < 1s")


def test_criterion_4_sni_closed_form_matches_direct():
    # arbitrary-precision oracle: the float closed form must match direct
    # complex evaluation of j(K(jw) - conj K(jw)), which cancels
    # catastrophically in double precision at small w
    mp.mp.dps = 50
    rng = np.random.default_rng(20260825)
    omegas = np.logspace(-3.0, 3.0, 50)
    worst = 0.0
    for _ in range(100):
        k_p, k1, k2 = (10.0 ** rng.uniform(-2.0, 2.0, size=3)).tolist()
        D = -(10.0 ** rng.uniform(-2.0, 2.0))
        p = Pii2Params(k_p, k1, k2, D)
        mp_kp, mp_k1, mp_k2, mp_D = (mp.mpf(v) for v in (k_p, k1, k2, D))
        for w in omegas:
            s = mp.mpc(0, w)
            C = mp_kp + mp_k1 / s + mp_k2 / (s * s)
            K = C / (1 - C * mp_D)
            direct = float(-2 * mp.im(K))
            rel = abs(pii2rc_sni_value(w, p) - direct) / abs(direct)
            worst = max(worst, rel)
    ok = worst <= 1e-9
    _verdict(4, ok,
             "closed-form spectral density vs 50-digit direct evaluation: "
             f"max relative error {worst:.2e} <= 1e-9 over 100 parameter "
             "sets x 50 frequencies")


def test_criterion_5_lyapunov_monotone(irc20_traj, pii2_traj):
    rep_irc = check_monotone(irc20_traj)
    rep_pii2 = check_monotone(pii2_traj)
    reversed_traj = Trajectory(
        times=pii2_traj.times,
        plant_states=pii2_traj.plant_states,
        controller_states=pii2_traj.controller_states,
        e=pii2_traj.e, u=pii2_traj.u, y=pii2_traj.y,
        W=pii2_traj.W[::-1].copy(),
    )
    rep_rev = check_monotone(reversed_traj)
    ok = rep_irc.passed and rep_pii2.passed and not rep_rev.passed
    _verdict(5, ok,
             f"W nonincreasing within budget (worst increases "
             f"{rep_irc.margin:.2e}, {rep_pii2.margin:.2e}); "
             f"time-reversed W rejected: {not rep_rev.passed}")


def test_criterion_6_sector_all_scenarios(config_dir):
    scenarios = []
    for path in sorted(config_dir.glob("*.json")):
        try:
            cfg = load_scenario(str(path))
        except ConfigError:
            continue  # the sweep file is not a scenario
        if any(name == "sector" for name, _ in cfg.checks):
            scenarios.append(cfg)
    results = {}
    for cfg in scenarios:
        traj = _simulate(cfg, _plant_ss(cfg.plant), None)
        results[cfg.name] = check_sector(traj)
    ok = len(results) == 3 and all(rep.passed for rep in results.values())
    margins = {name: f"{rep.margin:.1e}" for name, rep in results.items()}
    _verdict(6, ok,
             f"sector inequality within 1e-9 relative on all {len(results)} "
             f"shipped sector scenarios (worst margins {margins})")


def test_criterion_7_linear_stability_and_failure_stage(plant):
    A_irc = closed_loop_matrices(plant, irc_tf(IrcParams(1.0, -1.5))).J
    A_pii2 = closed_loop_matrices(plant, pii2rc_tf(Pii2Params(1.0, 1.0, 1.0, -2.0))).J
    re_irc = float(np.linalg.eigvals(A_irc).real.max())
    re_pii2 = float(np.linalg.eigvals(A_pii2).real.max())
    weak = PII2.__class__(k_p=PII2.k_p, D=-0.5, h1=PII2.h1, h2=PII2.h2, h3=PII2.h3)
    cert = LyapunovPii2Certificate(np.eye(2), plant.C, weak)
    stage_ok = (not cert.positive_definite
                and cert.failed_stage == "-D - C Y C^T > 0")
    ok = re_irc < 0.0 and re_pii2 < 0.0 and stage_ok
    _verdict(7, ok,
             f"closed-loop max Re(eig) = {re_irc:.4f} (irc), {re_pii2:.4f} "
             f"(pii2rc), both < 0; D = -0.5 certificate fails at stage "
             f"{cert.failed_stage!r}")


def test_criterion_8_step_refinement(plant, irc20_traj):
    fine = simulate_higs_irc_loop(plant, HIGS20,
                                  oscillator_config(dt=5e-4, record_every=2))
    sup = max(np.abs(irc20_traj.plant_states - fine.plant_states).max(),
              np.abs(irc20_traj.controller_states - fine.controller_states).max())
    ok = sup <= 1e-3
    _verdict(8, ok,
             f"dt = 1e-3 vs 5e-4 on the 40s scenario: sup deviation "
             f"{sup:.2e} <= 1e-3")


@pytest.mark.parametrize("name", ["mass_spring_irc_k20", "mass_spring_pii2",
                                  "mass_spring_pii2_linear"])
def test_criterion_9_deterministic_outputs(config_dir, tmp_path, name):
    cfg = str(config_dir / f"{name}.json")
    codes = [cmd_simulate(cfg, str(tmp_path / sub)) for sub in ("a", "b")]
    csv_a = (tmp_path / "a" / f"{name}.csv").read_bytes()
    csv_b = (tmp_path / "b" / f"{name}.csv").read_bytes()
    rep_a = (tmp_path / "a" / f"{name}.report.json").read_bytes()
    rep_b = (tmp_path / "b" / f"{name}.report.json").read_bytes()
    ok = codes == [0, 0] and csv_a == csv_b and rep_a == rep_b
    _verdict(9, ok,
             f"two runs of {name} exited {codes} and produced "
             f"byte-identical CSV ({len(csv_a)} bytes) and report "
             f"({len(rep_a)} bytes)")
