"""Command-line front end.

Subcommands: simulate (run a scenario file, write CSV and a JSON report),
check (ni / sni / certificate / stability against a scenario), design
(admissible parameter regions for a verified NI plant) and sweep (fan a
base scenario out over parameter overrides in forked worker processes).

Every check gives an lti.Verdict whose status is holds, fails or
inconclusive; simulate reports each under its name in the same JSON shape,
check prints its one.  Scenario files are JSON; see the README for the
schema.  A controller type's keys, checks, loop and certificate are its
row of the one table sim.CONTROLLERS.  Exit codes: 0 success (every
verdict holds), 1 configuration or usage errors, 2 runtime or numerical
failures, 3 a verdict that fails or is inconclusive (its status says
which).  Set HIGSNI_LOG=debug|info|warning to control log verbosity.
"""

from __future__ import annotations

import argparse
import functools
import gc
import inspect
import json
import logging
import math
import os
import sys
import traceback
from dataclasses import asdict, dataclass
from typing import Optional

from .controllers import UnsolvableLoop, sni_verdict, stability_verdict
from .higs import HigsIrcParams, HigsParams
from .lti import (
    RationalTF,
    StateSpace,
    Verdict,
    assess_ni,
    certify_ni,
    dc_gain,
    ni_frequency_test,
    tf_to_ss,
)
from .sim import (
    CONTROLLERS,
    MONOTONE_CONDITION,
    NonFiniteState,
    SimConfig,
    check_convergence,
    check_dissipation,
    check_monotone,
    check_sector,
    require_strictly_proper,
    simulate,
)

log = logging.getLogger("higsni")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_CHECK = 3


# The trajectory checks a scenario may list, each (Trajectory, **options)
# -> Verdict: its keyword parameters are the options a scenario may set.
_TRAJECTORY_CHECKS = {"sector": check_sector, "lyapunov_monotone": check_monotone,
                      "dissipation": check_dissipation, "convergence": check_convergence}


class ConfigError(ValueError):
    """Scenario file is missing, malformed, or inconsistent."""


class NotNI(RuntimeError):
    """Plant failed NI verification; design conditions do not apply."""


class WorkerLost(RuntimeError):
    """A sweep worker exited before reporting every run it was given."""


@dataclass
class ScenarioConfig:
    name: str
    plant: StateSpace
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


def _json_value(value, hint, where: str):
    """value checked against the annotation hint, a number as a float:
    an int needs an integer, a float a JSON number that converts to a finite
    float, and any other hint (np.ndarray, tuple) such a number or a (nested)
    list of them.  float() and numpy would also take "3" and true, and json
    takes NaN, Infinity, 1e999 (inf) and integers beyond the float range."""
    if hint is int:
        if type(value) is not int:
            raise ConfigError(f"{where} must be an integer, got {value!r}")
        return value
    if hint is not float and isinstance(value, list):
        for v in value:
            _json_value(v, hint, where)
        return value
    if type(value) not in (int, float):
        kind = "a number" if hint is float else "a number or a list of numbers"
        raise ConfigError(f"{where} must be {kind}, got {value!r}")
    try:
        x = float(value)
    except OverflowError:    # an integer beyond the float range
        x = math.inf if value > 0 else -math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{where} must be finite, got {x!r}")
    return x


@functools.cache
def _parameters(target) -> tuple:
    """target's parameters with their annotations evaluated: a class's init
    fields, a check's trajectory and then its options."""
    return tuple(inspect.signature(target, eval_str=True).parameters.values())


def _read_keys(params, d, where: str, extra: tuple = (), invalid: str = "", sep: str = " ") -> dict:
    """The keyword arguments named by params (inspect.Parameter) from the
    config object d, whose keys are their names (and extra); a parameter
    with a default may be left out and takes it.  Each value must suit its
    annotation (_json_value), and a HigsParams one is an object of its own,
    built as _build_params builds a section."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    _reject_unknown_keys(d, (*extra, *(p.name for p in params)), where)
    kwargs = {}
    for p in params:
        if p.name not in d:
            if p.default is p.empty:
                raise ConfigError(f"missing key {p.name!r} in {where}")
            kwargs[p.name] = p.default
        elif p.annotation is HigsParams:
            kwargs[p.name] = _build_params(HigsParams, d[p.name], p.name, invalid)
        else:
            kwargs[p.name] = _json_value(d[p.name], p.annotation, f"{where}{sep}{p.name}")
    return kwargs


def _build_params(cls, d, where: str, invalid: str, extra: tuple = ()):
    """cls from the config section d, whose keys are cls's init fields (and
    extra).  What cls itself rejects is a ConfigError that starts with
    invalid."""
    kwargs = _read_keys(_parameters(cls), d, where, extra, invalid)
    try:
        return cls(**kwargs)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"{invalid}: {exc}") from exc


def _build_plant(d) -> StateSpace:
    """The plant section's StateSpace: A/B/C as given, or num/den realized
    once, in controllable canonical form, so that every command checks the
    same realization."""
    if not isinstance(d, dict):
        raise ConfigError("plant must be an object")
    if "A" in d:
        return _build_params(StateSpace, d, "plant", "invalid plant")
    if "num" not in d:
        raise ConfigError("plant must provide either A/B/C (state space) or num/den")
    tf = _build_params(RationalTF, d, "plant", "invalid plant")
    try:
        return tf_to_ss(tf)
    except ValueError as exc:    # a static gain
        raise ConfigError(str(exc)) from exc


def _build_controller(d):
    if not isinstance(d, dict) or "type" not in d:
        raise ConfigError("controller must be an object with a 'type' field")
    ctype = d["type"]
    row = CONTROLLERS.get(ctype) if isinstance(ctype, str) else None
    if row is None:
        raise ConfigError(f"unknown controller type {ctype!r}")
    return ctype, _build_params(row.params, d, "controller", "invalid controller parameters",
                                ("type",))


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
        # each check's verdict is reported under its name
        if any(name == listed for listed, _ in checks):
            raise ConfigError(f"check {name!r} listed twice")
        options = _parameters(_TRAJECTORY_CHECKS[name])[1:]
        checks.append((name, _read_keys(options, given, f"check {name!r}", ("name",), sep=": ")))
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
    sim = _build_params(SimConfig, _require(raw, "sim", "scenario"), "sim",
                        "invalid sim section")
    # the simulators' own tests, made before any command acts on the scenario
    if sim.x0.shape != (plant.n,):
        raise ConfigError(f"x0 must have {plant.n} entries")
    m = len(CONTROLLERS[ctype].state_names(controller))
    if sim.controller_x0.size not in (1, m):
        raise ConfigError(f"controller_x0 must be a scalar or {m} entries")
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


def _admit_plant(controller_type: str, plant: StateSpace) -> None:
    """A hybrid type needs the strictly proper plant its simulator needs:
    check stability and design refuse any other as simulate does."""
    if CONTROLLERS[controller_type].hybrid:
        require_strictly_proper(plant)


def _dump_json(obj) -> str:
    # numpy arrays and the numpy scalars json cannot take become lists and numbers
    return json.dumps(obj, default=lambda o: o.tolist(), sort_keys=True, indent=2) + "\n"


def _verdict_json(v: Verdict) -> dict:
    """The one JSON shape of a verdict, in a report and on check's stdout."""
    return {**asdict(v), "passed": v.passed}


def _exit_code(verdicts) -> int:
    """EXIT_OK when every verdict holds, EXIT_CHECK when any fails or is
    inconclusive: the verdicts' status fields tell those two apart."""
    return EXIT_OK if all(v.passed for v in verdicts) else EXIT_CHECK


def _build_certificate(cfg: ScenarioConfig):
    """Search an NI certificate and assemble the loop Lyapunov form.

    Returns (cert, info, missing).  The certificate is returned only when
    it is positive definite, and missing is then None.  Otherwise info
    explains why, the simulation proceeds without W, and missing is the
    lyapunov_monotone verdict: inconclusive when no NI certificate was
    found, failed when the loop form is not positive definite.
    """
    info = {"searched": True, "found": False, "positive_definite": False}
    found = certify_ni(cfg.plant)
    if not found.passed:
        info["reason"] = found.reason
        return None, info, Verdict("inconclusive", MONOTONE_CONDITION, reason=found.reason)
    Y = found.evidence["Y"]
    info["found"] = True
    info["Y"] = Y.tolist()
    cert = CONTROLLERS[cfg.controller_type].certificate(Y, cfg.plant.C, cfg.controller)
    info["positive_definite"] = cert.positive_definite
    if not cert.positive_definite:
        info["reason"] = f"certificate not positive definite at stage: {cert.failed_stage}"
        return None, info, Verdict("fails", MONOTONE_CONDITION, reason=info["reason"])
    return cert, info, None


def _simulate(cfg: ScenarioConfig, cert):
    return simulate(cfg.plant, cfg.controller, cfg.sim, cert)


def _run_checks(cfg: ScenarioConfig, traj, missing: Optional[Verdict]) -> dict:
    """Each listed check's Verdict by name; lyapunov_monotone on a run
    without W is missing, the verdict of _build_certificate."""
    return {name: missing if name == "lyapunov_monotone" and traj.W is None
            else _TRAJECTORY_CHECKS[name](traj, **opts) for name, opts in cfg.checks}


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
    """The run's CSV and report paths, each None or a path that is not a
    directory, in a directory that exists: checked before the simulation,
    so that a path that cannot be written does not cost a whole run."""
    if out_dir is not None:
        _make_out_dir(out_dir)
    paths = (_resolve_out(cfg.csv_path, out_dir), _resolve_out(cfg.report_path, out_dir))
    for path in filter(None, paths):
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise ConfigError(f"cannot write {path!r}: {folder!r} is not a directory")
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path!r}: it is a directory")
    # the report would silently replace the CSV
    if all(paths) and os.path.realpath(paths[0]) == os.path.realpath(paths[1]):
        raise ConfigError(f"csv {paths[0]!r} and report {paths[1]!r} are the same file")
    return paths


def cmd_simulate(config_path: str, out_dir: Optional[str] = None) -> int:
    return _simulate_scenario(load_scenario(config_path), out_dir)


def _simulate_scenario(cfg: ScenarioConfig, out_dir: Optional[str]) -> int:
    csv_path, report_path = _output_paths(cfg, out_dir)
    cert, cert_info, missing = None, None, None
    if any(name == "lyapunov_monotone" for name, _ in cfg.checks):
        cert, cert_info, missing = _build_certificate(cfg)
    traj = _simulate(cfg, cert)
    verdicts = _run_checks(cfg, traj, missing)
    code = _exit_code(verdicts.values())

    report = {
        "scenario": cfg.name,
        "config": cfg.raw,
        "controller": {"type": cfg.controller_type, **asdict(cfg.controller)},
        "certificate": cert_info,
        "checks": {name: _verdict_json(v) for name, v in verdicts.items()},
        "result": {
            "n_samples": len(traj),
            "final_time": float(traj.times[-1]),
            "final_plant_state": traj.plant_states[-1].tolist(),
            "final_controller_state": traj.controller_states[-1].tolist(),
            "final_norm": traj.final_norm(),
        },
        "passed": code == EXIT_OK,
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
    for name, v in verdicts.items():
        log.info("check %-18s %s", name, v.status)
    return code


def _check_sni(cfg: ScenarioConfig) -> Verdict:
    if CONTROLLERS[cfg.controller_type].hybrid:
        linear = ", ".join(name for name, row in CONTROLLERS.items() if not row.hybrid)
        raise ConfigError(f"sni check applies to the linear controllers ({linear})")
    return sni_verdict(cfg.controller)


def _check_stability(cfg: ScenarioConfig) -> Verdict:
    _admit_plant(cfg.controller_type, cfg.plant)
    return stability_verdict(cfg.plant, cfg.controller)


# The verifications of `higsni check`, each ScenarioConfig -> Verdict, in the
# order its --help lists them.
_CHECKS = {
    "ni": lambda cfg: ni_frequency_test(cfg.plant),
    "sni": _check_sni,
    "certificate": lambda cfg: certify_ni(cfg.plant),
    "stability": _check_stability,
}


def cmd_check(config_path: str, which: str) -> int:
    v = _CHECKS[which](load_scenario(config_path))
    sys.stdout.write(_dump_json({"name": which, **_verdict_json(v)}))
    return _exit_code([v])


def cmd_design(config_path: str, controller_type: str) -> int:
    if controller_type not in CONTROLLERS:
        raise ConfigError(f"unknown controller type {controller_type!r}")
    raw = _read_json(config_path, "plant config")
    plant = _build_plant(_require(raw, "plant", "design config"))
    _admit_plant(controller_type, plant)
    assessment = assess_ni(plant)
    if not assessment.verified:
        raise NotNI(
            "plant failed NI verification (certificate search and frequency test); "
            f"frequency-test minimum {assessment.freq_report.margin:.3e}, "
            f"max pole real part {assessment.freq_report.evidence['max_pole_real']:.3e}"
        )
    g0 = dc_gain(plant)
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
                kt = HigsIrcParams(0.5, k_h, D).kappa_tilde
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
    p_check.add_argument("which", choices=list(_CHECKS))

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
