"""Command-line front end.

Subcommands: simulate (run a scenario file, write CSV and a JSON report),
check (ni / sni / certificate / stability against a scenario), design
(admissible parameter regions for a verified NI plant) and sweep (fan a
base scenario out over parameter overrides in forked worker processes).

Scenario files are JSON; see the README for the schema.  Exit codes:
0 success, 1 configuration or usage errors, 2 runtime or numerical
failures, 3 failed checks.  Set HIGSNI_LOG=debug|info|warning to control
log verbosity.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import math
import os
import sys
import traceback
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .controllers import (
    HigsPii2Params,
    IrcParams,
    Pii2Params,
    StabilityVerdict,
    UnsolvableLoop,
    check_irc_stability,
    check_pii2_stability,
    gain_sum_admissible,
    irc_tf,
    pii2rc_tf,
    sni_verdict,
)
from .higs import HigsIrcParams, HigsParams
from .lti import (
    NICertificate,
    RationalTF,
    StateSpace,
    assess_ni,
    dc_gain,
    ni_frequency_test,
    search_ni_certificate,
    tf_to_ss,
    verify_ni_certificate,
)
from .sim import (
    LyapunovIrcCertificate,
    LyapunovPii2Certificate,
    NonFiniteState,
    SimConfig,
    check_dissipation,
    check_monotone,
    check_sector,
    require_strictly_proper,
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

# The numeric options a trajectory check takes from a scenario, with their
# defaults; the other checks' tolerances are constants of sim.
_CHECK_OPTIONS = {"convergence": {"threshold": 0.2}}


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


class WorkerLost(RuntimeError):
    """A sweep worker exited before reporting every run it was given."""


@dataclass
class CheckReport:
    """One named check with its verdict and numeric evidence."""

    name: str
    passed: bool
    condition: str
    evidence: dict = field(default_factory=dict)


@dataclass
class ScenarioConfig:
    name: str
    plant: object                 # StateSpace | RationalTF
    controller_type: str
    controller: object
    sim: SimConfig
    checks: list                  # (name, {option: float}) pairs
    csv_path: Optional[str]
    report_path: Optional[str]
    raw: dict


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"missing key {key!r} in {where}")
    return d[key]


def _reject_unknown_keys(d: dict, known: tuple, where: str) -> None:
    # A misspelled key would otherwise fall back to its default without a word.
    for key in d:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in {where} (known: {', '.join(known)})")


def _json_numbers(value, where: str, lists: bool = False) -> None:
    """Raise ConfigError unless value is a JSON number that converts to a
    finite float or, with lists, such a number or a (nested) list of them:
    float() and numpy would also take "3" and true, and json takes NaN,
    Infinity, 1e999 (inf) and integers beyond the float range."""
    if lists and isinstance(value, list):
        for v in value:
            _json_numbers(v, where, lists)
    elif type(value) not in (int, float):
        kind = "a number or a list of numbers" if lists else "a number"
        raise ConfigError(f"{where} must be {kind}, got {value!r}")
    else:
        try:
            x = float(value)
        except OverflowError:    # an integer beyond the float range
            x = math.inf if value > 0 else -math.inf
        if not math.isfinite(x):
            raise ConfigError(f"{where} must be finite, got {x!r}")


def _build_plant(d: dict):
    if not isinstance(d, dict):
        raise ConfigError("plant must be an object")
    if "A" in d:
        _reject_unknown_keys(d, ("A", "B", "C", "D_ff"), "plant")
    elif "num" in d:
        _reject_unknown_keys(d, ("num", "den"), "plant")
    for key in ("A", "B", "C", "num", "den"):
        if key in d:
            _json_numbers(d[key], f"plant {key}", lists=True)
    if "D_ff" in d:
        _json_numbers(d["D_ff"], "plant D_ff")
    try:
        if "A" in d:
            return StateSpace(d["A"], _require(d, "B", "plant"), _require(d, "C", "plant"),
                              d.get("D_ff", 0.0))
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
    _reject_unknown_keys(d, ("type",) + row.keys, "controller")
    try:
        args = []
        for key in row.keys:
            value = _require(d, key, "controller")
            if key in _ELEMENT_KEYS:
                if not isinstance(value, dict):
                    raise ConfigError(f"{key} must be an object")
                element = {k: _require(value, k, key) for k in ("omega_h", "k_h")}
                for k, v in element.items():
                    _json_numbers(v, f"{key} {k}")
                args.append(HigsParams(**element))
                _reject_unknown_keys(value, ("omega_h", "k_h"), key)
            else:
                _json_numbers(value, f"controller {key}")
                args.append(value)
        return ctype, row.params(*args)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid controller parameters: {exc}") from exc


def _build_sim(d: dict) -> SimConfig:
    if not isinstance(d, dict):
        raise ConfigError("sim must be an object")
    _reject_unknown_keys(d, ("dt", "t_end", "x0", "controller_x0", "record_every"), "sim")
    for key in ("dt", "t_end"):
        if key in d:
            _json_numbers(d[key], f"sim {key}")
    for key in ("x0", "controller_x0"):
        if key in d:
            _json_numbers(d[key], f"sim {key}", lists=True)
    if type(d.get("record_every", 1)) is not int:
        raise ConfigError(f"sim record_every must be an integer, got {d['record_every']!r}")
    try:
        return SimConfig(
            dt=d.get("dt", 1e-3),
            t_end=_require(d, "t_end", "sim"),
            x0=_require(d, "x0", "sim"),
            controller_x0=d.get("controller_x0", 0.0),
            record_every=d.get("record_every", 1),
        )
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"invalid sim section: {exc}") from exc


def _normalize_checks(raw, ctype: str) -> list:
    if not isinstance(raw, list):
        raise ConfigError(f"checks must be a list, got {raw!r}")
    checks = []
    allowed = CONTROLLERS[ctype].checks
    for entry in raw:
        if isinstance(entry, str):
            name, given = entry, {}
        elif isinstance(entry, dict) and "name" in entry:
            name, given = entry["name"], entry
        else:
            raise ConfigError(f"check entries must be names or objects with 'name', got {entry!r}")
        if not isinstance(name, str):
            raise ConfigError(f"check name must be a string, got {name!r}")
        if name not in allowed:
            raise ConfigError(
                f"check {name!r} not available for controller type {ctype!r} "
                f"(available: {sorted(allowed)})")
        defaults = _CHECK_OPTIONS.get(name, {})
        _reject_unknown_keys(given, ("name", *defaults), f"check {name!r}")
        options = {}
        for key, default in defaults.items():
            value = given.get(key, default)
            _json_numbers(value, f"check {name!r}: {key}")
            options[key] = float(value)
        checks.append((name, options))
    return checks


def _read_json(path: str, what: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must contain a JSON object")
    return raw


def load_scenario(path: str) -> ScenarioConfig:
    return _scenario_from_dict(_read_json(path, "scenario file"),
                               os.path.splitext(os.path.basename(path))[0])


def _scenario_from_dict(raw: dict, default_name: str) -> ScenarioConfig:
    _reject_unknown_keys(raw, ("name", "plant", "controller", "sim", "checks", "output"), "scenario")
    plant = _build_plant(_require(raw, "plant", "scenario"))
    ctype, controller = _build_controller(_require(raw, "controller", "scenario"))
    sim = _build_sim(_require(raw, "sim", "scenario"))
    checks = _normalize_checks(raw.get("checks", []), ctype)
    output = raw.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("output must be an object")
    _reject_unknown_keys(output, ("csv", "report"), "output")
    # open() would take a number as a file descriptor and a bool as 0 or 1
    for key in ("csv", "report"):
        if key in output and not (isinstance(output[key], str) and output[key]):
            raise ConfigError(f"output {key} must be a nonempty string, got {output[key]!r}")
    name = raw.get("name", default_name)
    if not isinstance(name, str):
        raise ConfigError(f"scenario name must be a string, got {name!r}")
    return ScenarioConfig(
        name=name,
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


def _admit_plant(controller_type: str, plant: StateSpace) -> None:
    """A hybrid type needs the strictly proper plant its simulator needs:
    check stability and design refuse any other as simulate does."""
    if CONTROLLERS[controller_type].certificate is not None:
        require_strictly_proper(plant)


def _dump_json(obj) -> str:
    # numpy arrays and the numpy scalars json cannot take become lists and numbers
    return json.dumps(obj, default=lambda o: o.tolist(), sort_keys=True, indent=2) + "\n"


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
            reports[name] = asdict(check_sector(traj))
        elif name == "lyapunov_monotone":
            if traj.W is None:
                reports[name] = {
                    "passed": False,
                    "reason": (cert_info or {}).get("reason", "no Lyapunov certificate available"),
                }
            else:
                reports[name] = asdict(check_monotone(traj))
        elif name == "dissipation":
            reports[name] = asdict(check_dissipation(traj))
        elif name == "convergence":
            threshold = opts["threshold"]
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


def _make_out_dir(out_dir: str) -> None:
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir!r}: {exc}") from exc


def _output_paths(cfg: ScenarioConfig, out_dir: Optional[str]) -> tuple:
    """The run's CSV and report paths, each None or in a directory that
    exists: checked before the simulation, so that a path that cannot be
    written does not cost a whole run."""
    if out_dir is not None:
        _make_out_dir(out_dir)
    paths = (_resolve_out(cfg.csv_path, out_dir), _resolve_out(cfg.report_path, out_dir))
    for path in filter(None, paths):
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise ConfigError(f"cannot write {path!r}: {folder!r} is not a directory")
    # the report would silently replace the CSV
    if all(paths) and os.path.realpath(paths[0]) == os.path.realpath(paths[1]):
        raise ConfigError(f"csv {paths[0]!r} and report {paths[1]!r} are the same file")
    return paths


def cmd_simulate(config_path: str, out_dir: Optional[str] = None) -> int:
    return _simulate_scenario(load_scenario(config_path), out_dir)


def _simulate_scenario(cfg: ScenarioConfig, out_dir: Optional[str]) -> int:
    csv_path, report_path = _output_paths(cfg, out_dir)
    plant = _plant_ss(cfg.plant)
    cert = None
    cert_info = None
    wants_lyapunov = any(name == "lyapunov_monotone" for name, _ in cfg.checks)
    if wants_lyapunov:
        cert, cert_info = _build_certificate(cfg, plant)
    traj = _simulate(cfg, plant, cert)
    checks = _run_checks(cfg, traj, cert_info)
    all_passed = all(rep["passed"] for rep in checks.values())

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
    try:
        if csv_path:
            traj.write_csv(csv_path)
            log.info("wrote trajectory to %s", csv_path)
        if report_path:
            with open(report_path, "w", newline="") as fh:
                fh.write(text)
            log.info("wrote report to %s", report_path)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc
    if not report_path:
        sys.stdout.write(text)
    for name in checks:
        log.info("check %-18s %s", name, "pass" if checks[name]["passed"] else "FAIL")
    return EXIT_OK if all_passed else EXIT_CHECK


def _stability_report(cfg: ScenarioConfig, plant: StateSpace) -> CheckReport:
    _admit_plant(cfg.controller_type, plant)
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
        if CONTROLLERS[cfg.controller_type].tf is None:
            raise ConfigError("sni check applies to the linear controllers (irc, pii2rc)")
        v = sni_verdict(cfg.controller)
        report = CheckReport(
            "sni",
            v.passed,
            "strictly stable poles and j(K(jw) - conj K(jw)) > 0 for all w > 0",
            {"m": v.m, "den": list(v.den), "max_pole_real": v.max_pole_real},
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
    sys.stdout.write(_dump_json(asdict(report)))
    return EXIT_OK if report.passed else EXIT_CHECK


def cmd_design(config_path: str, controller_type: str) -> int:
    if controller_type not in CONTROLLERS:
        raise ConfigError(f"unknown controller type {controller_type!r}")
    raw = _read_json(config_path, "plant config")
    plant = _build_plant(_require(raw, "plant", "design config"))
    ss = _plant_ss(plant)
    _admit_plant(controller_type, ss)
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


def _check_jobs(jobs) -> None:
    if jobs is not None and (type(jobs) is not int or jobs < 1):
        raise ConfigError(f"sweep jobs must be a positive integer, got {jobs!r}")


def _sweep_worker(task: tuple) -> int:
    name, config_dict, out_dir = task
    return _guarded(lambda: _simulate_scenario(_scenario_from_dict(config_dict, name), out_dir))


def _sweep_child(tasks: list, first: int, step: int, cpu: Optional[int], write_fd: int):
    """Body of one forked sweep worker; never returns.

    Runs tasks first, first + step, ... and writes "<task index> <exit code>"
    per run to write_fd.  An exception prints its traceback and ends the
    worker with exit status 1, leaving its remaining runs unreported.
    """
    status = 1
    try:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        for k in range(first, len(tasks), step):
            os.write(write_fd, f"{k} {_sweep_worker(tasks[k])}\n".encode())
        status = 0
    except BaseException:
        traceback.print_exc()
    finally:
        # Never return into the caller: the rest of its stack, its atexit
        # handlers and its buffers belong to the parent.
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(status)


def _fan_out(tasks: list, jobs: Optional[int]) -> list:
    """Run every task in forked workers; return their exit codes in task order.

    Worker i runs tasks i, i + n, ... of the n = min(jobs, len(tasks))
    workers, pinned to the (i mod m)-th of the m CPUs this process may use.
    jobs defaults to m.  Two unpinned workers often share one CPU for much
    of a run, and a fork copies the loaded modules instead of importing
    them again.  Raises WorkerLost naming the first run no worker
    reported, once every worker has been reaped.
    """
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
    else:  # no CPU affinity (macOS): the workers run unpinned
        cpus = [None] * (os.cpu_count() or 1)
    n = min(jobs or len(cpus), len(tasks))
    # the children inherit unwritten buffers and would write them again
    sys.stdout.flush()
    sys.stderr.flush()
    # One pipe for all workers: a report line is shorter than PIPE_BUF, so
    # each os.write lands whole, and reading it never leaves a worker
    # waiting on a full pipe that is not being read.
    read_fd, write_fd = os.pipe()
    pids = []
    try:
        for i in range(n):
            pid = os.fork()
            if pid == 0:
                _sweep_child(tasks, i, n, cpus[i % len(cpus)], write_fd)
            pids.append(pid)
    finally:
        # the workers now hold the only write ends: EOF once all have exited
        os.close(write_fd)
        with open(read_fd, "rb") as reports:
            received = reports.read()
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    codes = dict(map(int, line.split()) for line in received.splitlines())
    for k, (name, _, _) in enumerate(tasks):
        if k not in codes:
            raise WorkerLost(f"sweep run {name!r} did not finish: its worker "
                             f"exited with status {statuses[k % n]}")
    return [codes[k] for k in range(len(tasks))]


def cmd_sweep(config_path: str, jobs: Optional[int] = None) -> int:
    _check_jobs(jobs)
    raw = _read_json(config_path, "sweep config")
    _reject_unknown_keys(raw, ("base", "runs", "output_dir"), "sweep config")
    base = _require(raw, "base", "sweep config")
    if isinstance(base, str):
        base_path = os.path.join(os.path.dirname(config_path), base)
        base = _read_json(base_path, f"base scenario {base_path!r}")
    if not isinstance(base, dict):
        raise ConfigError(f"sweep base must be a scenario object or file name, got {base!r}")
    runs = _require(raw, "runs", "sweep config")
    if not isinstance(runs, list) or not runs:
        raise ConfigError("sweep config needs a nonempty 'runs' list")
    out_dir = raw.get("output_dir", "sweep_out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"sweep output_dir must be a nonempty string, got {out_dir!r}")
    _make_out_dir(out_dir)

    tasks = []
    writers = {}
    for run in runs:
        if not isinstance(run, dict):
            raise ConfigError(f"sweep runs must be objects, got {run!r}")
        name = _require(run, "name", "sweep run")
        if not isinstance(name, str):
            raise ConfigError(f"sweep run name must be a string, got {name!r}")
        _reject_unknown_keys(run, ("name", "overrides"), f"sweep run {name!r}")
        overrides = run.get("overrides", {})
        if not isinstance(overrides, dict):
            raise ConfigError(f"overrides of sweep run {name!r} must be an object, got {overrides!r}")
        merged = _deep_merge(base, overrides)
        merged["name"] = name
        # fail fast on a malformed scenario before forking workers
        _scenario_from_dict(merged, name)
        # copy before mutating: non-overridden sections are shared with base
        merged["output"] = dict(merged.get("output") or {})
        merged["output"]["csv"] = f"{name}.csv"
        merged["output"]["report"] = f"{name}.report.json"
        # Two runs writing one file would race for it, and the summary would
        # list one of them.  The report path differs from the CSV's only by
        # its suffix, so the CSV decides.
        csv_path = _resolve_out(merged["output"]["csv"], out_dir)
        if csv_path in writers:
            raise ConfigError(f"sweep runs {writers[csv_path]!r} and {name!r} "
                              f"both write {csv_path!r}")
        writers[csv_path] = name
        tasks.append((name, merged, out_dir))

    codes = _fan_out(tasks, jobs)
    for (name, _, _), code in zip(tasks, codes):
        log.info("sweep run %-20s exit %d", name, code)
    summary = {
        "runs": {name: code for (name, _, _), code in zip(tasks, codes)},
        "output_dir": out_dir,
        "passed": all(code == EXIT_OK for code in codes),
    }
    sys.stdout.write(_dump_json(summary))
    return EXIT_OK if summary["passed"] else max(codes)


def _guarded(fn, *args, **kwargs) -> int:
    try:
        return fn(*args, **kwargs)
    except (NonFiniteState, UnsolvableLoop, WorkerLost) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except NotNI as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except ValueError as exc:
        # ConfigError and the core's parameter, loop and matrix errors
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main(argv=None) -> int:
    # Frozen, the imported heap is skipped by every later collection: this
    # process's last ones at exit, about 30 ms, and a forked sweep worker's,
    # which would otherwise copy its pages.  Its cycles are never collected
    # after this: one command is all a CLI process runs.
    gc.freeze()
    # an int only for a level name; any other setting leaves WARNING
    level = logging.getLevelName(os.environ.get("HIGSNI_LOG", "warning").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING,
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
