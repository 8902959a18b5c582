"""Command-line front end.

Subcommands: simulate (run a scenario file, write CSV and a JSON report),
check (ni / sni / certificate / stability against a scenario), design
(admissible parameter regions for a verified NI plant) and sweep (fan a
base scenario out over parameter overrides on a process pool).

Scenario files are JSON; see the README for the schema.  Exit codes:
0 success, 1 configuration or usage errors, 2 runtime or numerical
failures, 3 failed checks.  Set HIGSNI_LOG=debug|info|warning to control
log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .controllers import (
    CascadeAssumptionViolated,
    HigsPii2Params,
    InvalidParameters,
    IrcParams,
    Pii2Params,
    StabilityVerdict,
    UnsolvableLoop,
    check_irc_stability,
    check_pii2_stability,
    gain_sum_admissible,
    irc_tf,
    pii2rc_tf,
)
from .higs import HigsIrcParams, HigsParams
from .lti import (
    NICertificate,
    RationalTF,
    SingularA,
    SingularAtFrequency,
    StateSpace,
    assess_ni,
    dc_gain,
    ni_frequency_test,
    search_ni_certificate,
    sni_frequency_test,
    tf_to_ss,
    verify_ni_certificate,
)
from .sim import (
    IllPosedLoop,
    LyapunovIrcCertificate,
    LyapunovPii2Certificate,
    NonFiniteState,
    SimConfig,
    check_dissipation,
    check_monotone,
    check_sector,
    simulate_higs_irc_loop,
    simulate_higs_pii2_loop,
    simulate_linear_loop,
)

log = logging.getLogger("higsni")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_CHECK = 3


class _Controller(NamedTuple):
    """What the CLI needs to know about one controller type."""

    params: type
    keys: tuple                   # constructor order; _ELEMENT_KEYS build HigsParams
    checks: set
    simulate: Callable            # (plant, params, SimConfig, cert) -> Trajectory
    certificate: Optional[Callable] = None   # (Y, C, params) -> Lyapunov form; hybrid types
    tf: Optional[Callable] = None            # params -> RationalTF; linear types


_ELEMENT_KEYS = ("h1", "h2", "h3")


def _linear_loop(tf: Callable) -> Callable:
    return lambda plant, c, sim, cert: simulate_linear_loop(plant, tf(c), sim)


CONTROLLERS = {
    "irc": _Controller(IrcParams, ("Gamma", "D"), {"convergence"},
                       _linear_loop(irc_tf), tf=irc_tf),
    "pii2rc": _Controller(Pii2Params, ("k_p", "k1", "k2", "D"), {"convergence"},
                          _linear_loop(pii2rc_tf), tf=pii2rc_tf),
    "higs_irc": _Controller(
        HigsIrcParams, ("omega_h", "k_h", "D"),
        {"sector", "lyapunov_monotone", "dissipation", "convergence"},
        simulate_higs_irc_loop,
        certificate=lambda Y, C, c: LyapunovIrcCertificate(Y, C, c.kappa_tilde)),
    "higs_pii2": _Controller(
        HigsPii2Params, ("k_p", "D") + _ELEMENT_KEYS,
        {"sector", "lyapunov_monotone", "convergence"},
        simulate_higs_pii2_loop, certificate=LyapunovPii2Certificate),
}


class ConfigError(ValueError):
    """Scenario file is missing, malformed, or inconsistent."""


class NotNI(RuntimeError):
    """Plant failed NI verification; design conditions do not apply."""


@dataclass
class CheckReport:
    """One named check with its verdict and numeric evidence."""

    name: str
    passed: bool
    condition: str
    evidence: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "condition": self.condition,
            "evidence": self.evidence,
        }


@dataclass
class ScenarioConfig:
    name: str
    plant: object                 # StateSpace | RationalTF
    controller_type: str
    controller: object
    sim: SimConfig
    checks: list                  # list of (name, opts) pairs
    csv_path: Optional[str]
    report_path: Optional[str]
    raw: dict


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"missing key {key!r} in {where}")
    return d[key]


def _build_plant(d: dict):
    if not isinstance(d, dict):
        raise ConfigError("plant must be an object")
    try:
        if "A" in d:
            return StateSpace(d["A"], _require(d, "B", "plant"), _require(d, "C", "plant"),
                              float(d.get("D_ff", 0.0)))
        if "num" in d:
            return RationalTF(tuple(d["num"]), tuple(_require(d, "den", "plant")))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid plant: {exc}") from exc
    raise ConfigError("plant must provide either A/B/C (state space) or num/den")


def _build_controller(d: dict):
    if not isinstance(d, dict) or "type" not in d:
        raise ConfigError("controller must be an object with a 'type' field")
    ctype = d["type"]
    row = CONTROLLERS.get(ctype) if isinstance(ctype, str) else None
    if row is None:
        raise ConfigError(f"unknown controller type {ctype!r}")
    try:
        args = []
        for key in row.keys:
            value = _require(d, key, "controller")
            if key in _ELEMENT_KEYS:
                value = HigsParams(_require(value, "omega_h", key), _require(value, "k_h", key))
            args.append(value)
        return ctype, row.params(*args)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid controller parameters: {exc}") from exc


def _build_sim(d: dict) -> SimConfig:
    if not isinstance(d, dict):
        raise ConfigError("sim must be an object")
    try:
        return SimConfig(
            dt=float(d.get("dt", 1e-3)),
            t_end=float(_require(d, "t_end", "sim")),
            x0=_require(d, "x0", "sim"),
            controller_x0=d.get("controller_x0", 0.0),
            r=float(d.get("r", 0.0)),
            record_every=int(d.get("record_every", 1)),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid sim section: {exc}") from exc


def _normalize_checks(raw, ctype: str) -> list:
    checks = []
    allowed = CONTROLLERS[ctype].checks
    for entry in raw or []:
        if isinstance(entry, str):
            name, opts = entry, {}
        elif isinstance(entry, dict) and "name" in entry:
            name = entry["name"]
            opts = {k: v for k, v in entry.items() if k != "name"}
        else:
            raise ConfigError(f"check entries must be names or objects with 'name', got {entry!r}")
        if name not in allowed:
            raise ConfigError(
                f"check {name!r} not available for controller type {ctype!r} "
                f"(available: {sorted(allowed)})")
        checks.append((name, opts))
    return checks


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


def load_scenario(path: str) -> ScenarioConfig:
    return _scenario_from_dict(_read_json(path, "scenario file"),
                               os.path.splitext(os.path.basename(path))[0])


def _scenario_from_dict(raw, default_name: str) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError("scenario file must contain a JSON object")
    plant = _build_plant(_require(raw, "plant", "scenario"))
    ctype, controller = _build_controller(_require(raw, "controller", "scenario"))
    sim = _build_sim(_require(raw, "sim", "scenario"))
    checks = _normalize_checks(raw.get("checks"), ctype)
    output = raw.get("output", {}) or {}
    if not isinstance(output, dict):
        raise ConfigError("output must be an object")
    return ScenarioConfig(
        name=str(raw.get("name", default_name)),
        plant=plant,
        controller_type=ctype,
        controller=controller,
        sim=sim,
        checks=checks,
        csv_path=output.get("csv"),
        report_path=output.get("report"),
        raw=raw,
    )


def _plant_ss(plant) -> StateSpace:
    return plant if isinstance(plant, StateSpace) else tf_to_ss(plant)


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _json_ready(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _dump_json(obj) -> str:
    return json.dumps(_json_ready(obj), sort_keys=True, indent=2) + "\n"


def _build_certificate(cfg: ScenarioConfig, plant: StateSpace):
    """Search an NI certificate and assemble the loop Lyapunov form.

    Returns (cert_or_none, info_dict).  The certificate is only returned
    when it is positive definite; otherwise the info explains the failure
    and the simulation proceeds without W.
    """
    info = {"searched": True, "found": False, "positive_definite": False}
    Y = search_ni_certificate(plant)
    if Y is None:
        info["reason"] = "no NI certificate found for the plant"
        return None, info
    info["found"] = True
    info["Y"] = Y.Y.tolist()
    cert = CONTROLLERS[cfg.controller_type].certificate(Y.Y, plant.C, cfg.controller)
    info["positive_definite"] = cert.positive_definite
    if not cert.positive_definite:
        info["reason"] = f"certificate not positive definite at stage: {cert.failed_stage}"
        return None, info
    return cert, info


def _simulate(cfg: ScenarioConfig, plant: StateSpace, cert):
    return CONTROLLERS[cfg.controller_type].simulate(plant, cfg.controller, cfg.sim, cert)


def _run_checks(cfg: ScenarioConfig, traj, cert_info) -> dict:
    reports = {}
    for name, opts in cfg.checks:
        if name == "sector":
            rep = check_sector(traj, rtol=float(opts.get("rtol", 1e-9)))
            reports[name] = {
                "passed": rep.passed,
                "worst_margin": rep.worst_margin,
                "worst_time": rep.worst_time,
                "worst_element": rep.worst_element,
                "rtol": rep.rtol,
            }
        elif name == "lyapunov_monotone":
            if traj.W is None:
                reports[name] = {
                    "passed": False,
                    "reason": (cert_info or {}).get("reason", "no Lyapunov certificate available"),
                }
            else:
                rep = check_monotone(traj, budget=float(opts.get("budget", 1e-6)))
                reports[name] = {
                    "passed": rep.passed,
                    "worst_increase": rep.worst_increase,
                    "worst_time": rep.worst_time,
                    "budget": rep.budget,
                }
        elif name == "dissipation":
            rep = check_dissipation(traj, budget_coeff=float(opts.get("budget_coeff", 100.0)))
            reports[name] = {
                "passed": rep.passed,
                "worst_excess": rep.worst_excess,
                "worst_time": rep.worst_time,
                "budget_coeff": rep.budget_coeff,
            }
        elif name == "convergence":
            threshold = float(opts.get("threshold", 0.2))
            final = np.concatenate([traj.plant_states[-1], traj.controller_states[-1]])
            final_norm = float(np.linalg.norm(final))
            reports[name] = {
                "passed": final_norm <= threshold,
                "final_norm": final_norm,
                "threshold": threshold,
            }
    return reports


def _resolve_out(path: Optional[str], out_dir: Optional[str]) -> Optional[str]:
    if path is None:
        return None
    if out_dir is not None:
        return os.path.join(out_dir, os.path.basename(path))
    return path


def cmd_simulate(config_path: str, out_dir: Optional[str] = None) -> int:
    return _simulate_scenario(load_scenario(config_path), out_dir)


def _simulate_scenario(cfg: ScenarioConfig, out_dir: Optional[str]) -> int:
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    plant = _plant_ss(cfg.plant)
    cert = None
    cert_info = None
    wants_lyapunov = any(name == "lyapunov_monotone" for name, _ in cfg.checks)
    if wants_lyapunov:
        cert, cert_info = _build_certificate(cfg, plant)
    traj = _simulate(cfg, plant, cert)
    checks = _run_checks(cfg, traj, cert_info)
    all_passed = all(rep["passed"] for rep in checks.values())

    csv_path = _resolve_out(cfg.csv_path, out_dir)
    report_path = _resolve_out(cfg.report_path, out_dir)
    if csv_path:
        traj.write_csv(csv_path)
        log.info("wrote trajectory to %s", csv_path)
    report = {
        "scenario": cfg.name,
        "config": cfg.raw,
        "controller": {"type": cfg.controller_type, **asdict(cfg.controller)},
        "certificate": cert_info,
        "checks": checks,
        "result": {
            "n_samples": len(traj),
            "final_time": float(traj.times[-1]),
            "final_plant_state": traj.plant_states[-1].tolist(),
            "final_controller_state": traj.controller_states[-1].tolist(),
            "final_norm": float(np.linalg.norm(
                np.concatenate([traj.plant_states[-1], traj.controller_states[-1]]))),
        },
        "passed": all_passed,
    }
    text = _dump_json(report)
    if report_path:
        with open(report_path, "w", newline="") as fh:
            fh.write(text)
        log.info("wrote report to %s", report_path)
    else:
        sys.stdout.write(text)
    for name in checks:
        log.info("check %-18s %s", name, "pass" if checks[name]["passed"] else "FAIL")
    return EXIT_OK if all_passed else EXIT_CHECK


def _stability_report(cfg: ScenarioConfig, plant: StateSpace) -> CheckReport:
    if cfg.controller_type == "higs_irc":
        v: StabilityVerdict = check_irc_stability(plant, cfg.controller.kappa_tilde)
        evidence = {
            "kappa_tilde": cfg.controller.kappa_tilde,
            "plant_dc": v.plant_dc,
            "margin_1_minus_kt_G0": v.margin,
        }
        return CheckReport("stability", v.passed, v.condition, evidence)
    D = cfg.controller.D
    v = check_pii2_stability(plant, D)
    evidence = {"D": D, "plant_dc": v.plant_dc, "margin_minus_G0_minus_D": v.margin}
    if cfg.controller_type == "higs_pii2":
        ok = gain_sum_admissible(cfg.controller, v.plant_dc)
        evidence["gain_sum"] = cfg.controller.gain_sum()
        evidence["gain_sum_admissible"] = ok
        return CheckReport("stability", v.passed and ok, v.condition + " and gain-sum exclusion", evidence)
    return CheckReport("stability", v.passed, v.condition, evidence)


def cmd_check(config_path: str, which: str) -> int:
    cfg = load_scenario(config_path)
    plant = _plant_ss(cfg.plant)
    if which == "ni":
        rep = ni_frequency_test(cfg.plant)
        report = CheckReport(
            "ni",
            rep.passed,
            "j(G(jw) - conj G(jw)) >= 0 for w > 0 and no open right-half-plane poles",
            {
                "min_value": rep.min_value,
                "worst_omega": rep.worst_omega,
                "flagged_omegas": list(rep.flagged_omegas),
                "max_pole_real": rep.max_pole_real,
            },
        )
    elif which == "sni":
        tf = CONTROLLERS[cfg.controller_type].tf
        if tf is None:
            raise ConfigError("sni check applies to the linear controllers (irc, pii2rc)")
        rep = sni_frequency_test(tf(cfg.controller))
        report = CheckReport(
            "sni",
            rep.passed,
            "strictly stable poles and j(K(jw) - conj K(jw)) > 0 on the grid",
            {
                "min_value": rep.min_value,
                "worst_omega": rep.worst_omega,
                "max_pole_real": rep.max_pole_real,
            },
        )
    elif which == "certificate":
        Y = search_ni_certificate(plant)
        if Y is None:
            report = CheckReport(
                "certificate", False,
                "exists Y > 0 with A Y + Y A^T <= 0 and B + A Y C^T = 0",
                {"found": False, "note": "search budget exhausted; inconclusive"},
            )
        else:
            cr = verify_ni_certificate(plant, Y)
            report = CheckReport(
                "certificate", cr.passed,
                "exists Y > 0 with A Y + Y A^T <= 0 and B + A Y C^T = 0",
                {
                    "found": True,
                    "Y": Y.Y.tolist(),
                    "y_min_eig": cr.y_min_eig,
                    "lyap_max_eig": cr.lyap_max_eig,
                    "residual_norm": cr.residual_norm,
                    "minimal": cr.minimal,
                    "det_a_nonzero": cr.det_a_nonzero,
                },
            )
    elif which == "stability":
        report = _stability_report(cfg, plant)
    else:
        raise ConfigError(f"unknown check {which!r}")
    sys.stdout.write(_dump_json(report.to_dict()))
    return EXIT_OK if report.passed else EXIT_CHECK


def cmd_design(config_path: str, controller_type: str) -> int:
    if controller_type not in CONTROLLERS:
        raise ConfigError(f"unknown controller type {controller_type!r}")
    raw = _read_json(config_path, "plant config")
    plant = _build_plant(_require(raw, "plant", "design config"))
    ss = _plant_ss(plant)
    assessment = assess_ni(plant)
    if not assessment.verified:
        raise NotNI(
            "plant failed NI verification (certificate search and frequency test); "
            f"frequency-test minimum {assessment.freq_report.min_value:.3e}, "
            f"max pole real part {assessment.freq_report.max_pole_real:.3e}"
        )
    g0 = dc_gain(ss)
    report = {
        "plant": {
            "dc_gain": g0,
            "ni_verified": True,
            "ni_method": assessment.method,
        },
        "controller_type": controller_type,
    }
    d_grid = [-0.5, -1.0, -2.0]
    scale = max(1.0, abs(g0))
    if controller_type == "higs_irc":
        samples = []
        for D in [d * scale for d in d_grid]:
            for k_h in (1.0, 5.0, 20.0):
                kt = k_h / (1.0 - k_h * D)
                samples.append({
                    "k_h": k_h, "D": D, "kappa_tilde": kt,
                    "feasible": kt * g0 < 1.0,
                })
        report["region"] = "kappa_tilde * G(0) < 1, i.e. k_h * (G(0) + D) < 1 with k_h > 0, D < 0"
        report["samples"] = samples
        report["defaults"] = {
            "omega_h": 0.5,
            "note": "omega_h does not affect the DC condition; reduce it if "
                    "trajectories linger in gain mode",
        }
    else:
        samples = []
        for D in [d * scale for d in d_grid] + [-(abs(g0) + 1.0)]:
            samples.append({"D": D, "feasible": D < -g0})
        report["region"] = "D < -G(0)"
        report["samples"] = samples
        if controller_type == "higs_pii2":
            report["constraints"] = [
                "k_h2 must equal k_h3 and omega_h2 < omega_h3 (series pair)",
                "k_h1 + k_h2^2 + k_p must avoid 1/(G(0) + D)",
            ]
            report["defaults"] = {"k_p": 0.5, "omega_h_hint": "omega_h2 < omega_h3, e.g. 0.2 and 0.4"}
        elif controller_type == "pii2rc":
            report["defaults"] = {"k_p": 1.0, "k1": 1.0, "k2": 1.0}
        else:
            report["defaults"] = {"Gamma": 1.0}
    sys.stdout.write(_dump_json(report))
    return EXIT_OK


def _deep_merge(base: dict, overrides: dict) -> dict:
    out = dict(base)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def _sweep_worker(args) -> tuple:
    name, config_dict, out_dir = args
    return name, _guarded(lambda: _simulate_scenario(_scenario_from_dict(config_dict, name), out_dir))


def cmd_sweep(config_path: str, jobs: Optional[int] = None) -> int:
    raw = _read_json(config_path, "sweep config")
    base = _require(raw, "base", "sweep config")
    if isinstance(base, str):
        base_path = os.path.join(os.path.dirname(config_path), base)
        base = _read_json(base_path, f"base scenario {base_path!r}")
    runs = _require(raw, "runs", "sweep config")
    if not isinstance(runs, list) or not runs:
        raise ConfigError("sweep config needs a nonempty 'runs' list")
    out_dir = raw.get("output_dir", "sweep_out")
    os.makedirs(out_dir, exist_ok=True)
    jobs = jobs or raw.get("jobs") or min(len(runs), os.cpu_count() or 1)

    tasks = []
    for run in runs:
        name = _require(run, "name", "sweep run")
        merged = _deep_merge(base, run.get("overrides", {}))
        merged["name"] = name
        # copy before mutating: non-overridden sections are shared with base
        merged["output"] = dict(merged.get("output") or {})
        merged["output"]["csv"] = f"{name}.csv"
        merged["output"]["report"] = f"{name}.report.json"
        # fail fast on malformed overrides before spawning workers
        _build_controller(_require(merged, "controller", "sweep run"))
        tasks.append((name, merged, out_dir))

    results = []
    with ProcessPoolExecutor(max_workers=int(jobs)) as pool:
        for name, code in pool.map(_sweep_worker, tasks):
            results.append((name, code))
            log.info("sweep run %-20s exit %d", name, code)
    summary = {
        "runs": {name: code for name, code in results},
        "output_dir": out_dir,
        "passed": all(code == EXIT_OK for _, code in results),
    }
    sys.stdout.write(_dump_json(summary))
    return EXIT_OK if summary["passed"] else max(code for _, code in results)


def _guarded(fn, *args, **kwargs) -> int:
    try:
        return fn(*args, **kwargs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonFiniteState, UnsolvableLoop) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except NotNI as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except (InvalidParameters, CascadeAssumptionViolated, IllPosedLoop, SingularA,
            SingularAtFrequency, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main(argv=None) -> int:
    level = os.environ.get("HIGSNI_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = argparse.ArgumentParser(
        prog="higsni",
        description="Simulate and verify hybrid integrator-gain loops on NI plants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario and its checks")
    p_sim.add_argument("config")
    p_sim.add_argument("--out-dir", default=None, help="redirect output files into this directory")

    p_check = sub.add_parser("check", help="run a single verification against a scenario")
    p_check.add_argument("config")
    p_check.add_argument("which", choices=["ni", "sni", "certificate", "stability"])

    p_design = sub.add_parser("design", help="admissible parameter regions for an NI plant")
    p_design.add_argument("config")
    p_design.add_argument("controller_type", choices=sorted(CONTROLLERS))

    p_sweep = sub.add_parser("sweep", help="fan a base scenario out over overrides")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--jobs", type=int, default=None)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold that into the config code
        return 0 if exc.code in (0, None) else EXIT_CONFIG
    if args.command == "simulate":
        return _guarded(cmd_simulate, args.config, args.out_dir)
    if args.command == "check":
        return _guarded(cmd_check, args.config, args.which)
    if args.command == "design":
        return _guarded(cmd_design, args.config, args.controller_type)
    if args.command == "sweep":
        return _guarded(cmd_sweep, args.config, args.jobs)
    parser.error(f"unknown command {args.command!r}")
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
