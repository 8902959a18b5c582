"""higsni benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every op is one ``higsni`` CLI invocation in a fresh process (through
launch.py, which is what the ``higsni`` console script runs), started one
after another by this one benchmark process: a closed loop with one client.
Ops run in whole passes over the pool for about S seconds.  Outputs are
checked against the expectations the generator derived from the paper's
conditions.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same inputs
again, each op once through the CLI and once through traced.py (the same
pipeline called through higsni's public functions, with spans), adds one
cProfile pass and one ``-X importtime`` pass, and prints the per-layer
metrics.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(HERE, "_run")
OP_TIMEOUT_S = 90.0
TAIL_BEYOND = 10

END_TO_END = {
    "op_s.p50": "s", "op_s.tail": "s", "setup_s": "s", "steps_per_s": "1/s",
    "scenarios_per_s": "1/s", "peak_rss_mb": "MB", "ok_ratio": "1",
}
PER_LAYER = {
    "import.s": "s", "import.scipy_s": "s",
    "cli.load_s": "s", "cli.sweep_wall_s": "s", "cli.sweep_efficiency": "1",
    "lti.cert_search_s": "s", "lti.cert_search_calls": "count",
    "lti.cert_found_ratio": "1", "lti.assess_ni_s": "s", "lti.freq_test_s": "s",
    "sim.simulate_s": "s", "sim.steps": "count", "sim.us_per_step": "us",
    "sim.switches": "count", "sim.checks_s": "s", "sim.csv_s": "s",
    "sim.csv_rows": "count", "sim.csv_bytes": "B", "sim.csv_us_per_row": "us",
    "sim.loop.guard_calls": "count", "sim.loop.guard_s": "s",
    "sim.loop.record_calls": "count", "sim.loop.record_s": "s",
    "sim.loop.map_builds": "count", "sim.loop.events": "count",
    "sim.loop.event_probes": "count",
    "higs.mode_calls": "count", "higs.projection_calls": "count",
    "controllers.mode_update_calls": "count", "controllers.resolve_calls": "count",
    "host.calib_s": "s", "trace.overhead_ratio": "1", "trace.profile_ratio": "1",
}


# ---------------------------------------------------------------------------
# Processes


def child_env(tmp: str) -> dict:
    """Children see src/ first, one BLAS/OpenMP thread and a private TMPDIR.

    They may write bytecode caches (under src/), as an installed package has
    them, so no op pays for compiling higsni whatever the caller's setting."""
    env = dict(os.environ)
    for name in ("HIGSNI_LOG", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    env.update(PYTHONPATH=SRC, TMPDIR=tmp, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1", VECLIB_MAXIMUM_THREADS="1")
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(cmd: list, cwd: str, env: dict) -> dict:
    """Run cmd to completion; wall time from spawn to reap, exit code, max RSS.

    The child leads its own process group, so a timeout or an interrupt of
    the benchmark also kills the sweep's workers."""
    with open(os.path.join(cwd, "stdout"), "wb") as out, \
            open(os.path.join(cwd, "stderr"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err,
                                start_new_session=True)
        watchdog = threading.Timer(OP_TIMEOUT_S, _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss covers the process and every descendant it reaped (sweep workers).
    return {"t0": t0, "wall": t1 - t0, "code": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024.0}


def calibrate() -> float:
    """Fixed numpy and pure-Python work; only tells host slowdowns apart."""
    t0 = time.perf_counter()
    a = np.arange(160 * 160, dtype=float).reshape(160, 160) / 1e4
    for _ in range(20):
        a = np.tanh(a @ a.T / 160.0)
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Output checks


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _csv_rows(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def _check_run(report_path: str, csv_path: str, expect: dict, problems: list) -> dict:
    """Check one scenario run's report and CSV; return its digest and verdicts."""
    with open(report_path) as fh:
        report = json.load(fh)
    checks = report["checks"]
    want = expect.get("checks", {})
    if set(checks) != set(want):
        problems.append(f"checks {sorted(checks)} != {sorted(want)}")
    cert = report.get("certificate") or {}
    found = bool(cert.get("found") and cert.get("positive_definite"))
    inconclusive = False
    for name, wanted in want.items():
        got = checks.get(name, {})
        if name == "lyapunov_monotone" and not found:
            # The NI lemma guarantees a certificate for every generated plant;
            # a search that misses it is inconclusive, never a pass.
            if got.get("passed") or workloads.NO_CERT_REASON not in got.get("reason", ""):
                problems.append(f"lyapunov_monotone without certificate: {got}")
            inconclusive = True
        elif got.get("passed") is not wanted:
            problems.append(f"{name}: passed={got.get('passed')}, expected {wanted}")
    if report["passed"] is not (not inconclusive and all(want.values())):
        problems.append(f"report passed={report['passed']}")
    result = report["result"]
    if result["n_samples"] != expect["rows"] or _csv_rows(csv_path) != expect["rows"]:
        problems.append(f"rows {result['n_samples']} != {expect['rows']}")
    if not math.isfinite(result["final_norm"]):
        problems.append("final_norm not finite")
    return {
        "inconclusive": inconclusive,
        "cert_found": found,
        "verdicts": {name: rep["passed"] for name, rep in checks.items()},
        "csv_sha256": _sha256(csv_path),
        "report_sha256": _sha256(report_path),
    }


def check_op(op, code: int, op_dir: str) -> dict:
    """Compare an op's exit code and outputs with the generator's expectation."""
    problems, runs, design = [], {}, None
    try:
        if op.kind == "simulate":
            e = op.expect
            runs[op.key] = _check_run(os.path.join(op_dir, e["report"]),
                                      os.path.join(op_dir, e["csv"]), e, problems)
            want_code = 3 if runs[op.key]["inconclusive"] else 0
        elif op.kind == "sweep":
            with open(os.path.join(op_dir, "stdout")) as fh:
                summary = json.load(fh)
            if set(summary["runs"]) != set(op.expect["runs"]) or any(summary["runs"].values()):
                problems.append(f"sweep run codes {summary['runs']}")
            out = os.path.join(op_dir, workloads.SWEEP_OUT)
            for name, e in op.expect["runs"].items():
                runs[name] = _check_run(os.path.join(out, e["report"]),
                                        os.path.join(out, e["csv"]), e, problems)
            want_code = 0
        else:
            with open(os.path.join(op_dir, "stdout")) as fh:
                report = json.load(fh)
            g0 = op.expect["dc_gain"]
            if not report["plant"]["ni_verified"]:
                problems.append("plant not NI-verified")
            if abs(report["plant"]["dc_gain"] - g0) > 1e-9 * max(1.0, abs(g0)):
                problems.append(f"dc_gain {report['plant']['dc_gain']} != {g0}")
            for s in report["samples"]:
                kt = workloads.kappa_tilde(s["k_h"], s["D"])
                if abs(kt * g0 - 1.0) > 1e-9 and s["feasible"] is not (kt * g0 < 1.0):
                    problems.append(f"feasibility of k_h={s['k_h']}, D={s['D']}")
            design = {"ni_method": report["plant"]["ni_method"],
                      "dc_gain": report["plant"]["dc_gain"],
                      "report_sha256": _sha256(os.path.join(op_dir, "stdout"))}
            want_code = 0
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
        want_code = 0
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    digest = hashlib.sha256(json.dumps(
        [design, sorted((k, r["csv_sha256"], r["report_sha256"]) for k, r in runs.items())]
    ).encode()).hexdigest()
    return {"problems": problems, "runs": runs, "design": design, "digest": digest}


# ---------------------------------------------------------------------------
# Running ops


class Runner:
    """Runs ops in fresh directories under one run directory."""

    def __init__(self, run_dir: str):
        self.run_dir = run_dir
        tmp = os.path.join(run_dir, "tmp")
        os.makedirs(tmp)
        self.env = child_env(tmp)
        self.count = 0
        self.digests = {}

    def fresh_dir(self) -> str:
        self.count += 1
        path = os.path.join(self.run_dir, f"op{self.count}")
        os.makedirs(path)
        return path

    def cli_op(self, op) -> dict:
        op_dir = self.fresh_dir()
        mark = os.path.join(op_dir, "import_mark")
        r = spawn([sys.executable, os.path.join(HERE, "launch.py"), mark] + op.argv,
                  op_dir, self.env)
        try:
            with open(mark) as fh:
                r["setup"] = float(fh.read()) - r["t0"]
        except (OSError, ValueError):
            r["setup"] = None
        r.update(check_op(op, r["code"], op_dir))
        if r["setup"] is None:
            r["problems"].append("import never returned")
        seen = self.digests.setdefault(op.key, r["digest"])
        if seen != r["digest"]:
            r["problems"].append("outputs differ from an earlier run of the same input")
        shutil.rmtree(op_dir)
        return r

    def traced_op(self, op, profile: bool = False) -> dict:
        op_dir = self.fresh_dir()
        spec = {"kind": op.kind, "runs": op.paths, "op": f"op{self.count}"}
        spec_path = os.path.join(op_dir, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        result_path = os.path.join(op_dir, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "traced.py"), spec_path, result_path]
        r = spawn(cmd + (["--profile"] if profile else []), op_dir, self.env)
        try:
            with open(result_path) as fh:
                r.update(json.load(fh))
        except (OSError, ValueError):
            r["spans"], r["runs"], r["design"] = [], [], None
        shutil.rmtree(op_dir)
        return r

    def import_time(self) -> dict:
        """Cumulative import times from ``python -X importtime``."""
        op_dir = self.fresh_dir()
        spawn([sys.executable, "-X", "importtime", "-c", "import higsni.cli"],
              op_dir, self.env)
        with open(os.path.join(op_dir, "stderr")) as fh:
            lines = [ln for ln in fh if ln.startswith("import time:") and "|" in ln]
        shutil.rmtree(op_dir)
        return parse_importtime(lines)


def parse_importtime(lines: list) -> dict:
    """Total and scipy-attributed cumulative seconds from -X importtime lines.

    Lines come in post-order (children first) with two spaces of indent per
    level; walking them backwards visits each parent before its children,
    so a scipy module not nested in another scipy module is a scipy root.
    """
    scipy_us, total_us = 0, 0
    stack = []  # (depth, inside scipy)
    for line in reversed(lines):
        _, cum, name = line.split("|")
        if not cum.strip().isdigit():
            continue  # the header line
        stripped = name.lstrip(" ")
        depth = (len(name) - len(stripped)) // 2
        mod = stripped.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = mod == "scipy" or mod.startswith("scipy.")
        if is_scipy and not inside:
            scipy_us += int(cum)
        if not stack:
            total_us += int(cum)
        stack.append((depth, inside or is_scipy))
    return {"scipy_s": scipy_us / 1e6, "total_s": total_us / 1e6}


def run_passes(pool: list, seconds: float, step) -> None:
    """Closed loop: whole passes over the pool while they fit in `seconds`.

    Whole passes keep the mix of ops the same in every run.  The first pass
    always runs, so counts taken from it cover the same inputs each run; a
    further pass starts only if one more pass of the mean length so far
    would end within `seconds`."""
    start = time.perf_counter()
    passes = 0
    while True:
        for op in pool:
            step(op)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            return


# ---------------------------------------------------------------------------
# Metrics


def tail(values: list) -> tuple:
    """Highest order statistic with at least TAIL_BEYOND samples beyond it.

    Returns (value, rank, n), rank counted from 1 in ascending order.  With
    n <= 2 * TAIL_BEYOND that statistic lies at or below the median, which is
    no tail, so the (lower) median is used instead; the printed line says
    how many samples lie beyond."""
    xs = sorted(values)
    k = max(len(xs) - TAIL_BEYOND, (len(xs) + 1) // 2)
    return xs[k - 1], k, len(xs)


def end_to_end(results: list, ops: list) -> tuple:
    walls = [r["wall"] for r in results]
    total = sum(walls)
    t, k, n = tail(walls)
    setups = [r["setup"] for r in results if r["setup"] is not None]
    failed = sum(1 for r in results if r["problems"])
    metrics = {
        "op_s.p50": statistics.median(walls),
        "op_s.tail": t,
        # An op whose import never returned is already a failure; its wall
        # time bounds its set-up time.
        "setup_s": statistics.median(setups or walls),
        "steps_per_s": sum(op.steps for op in ops) / total,
        "scenarios_per_s": sum(op.scenarios for op in ops) / total,
        "peak_rss_mb": max(r["rss_mb"] for r in results),
        "ok_ratio": (len(results) - failed) / len(results),
    }
    notes = [f"op_s.tail is op {k} of {n} by wall time (p{100.0 * k / n:.0f}, "
             f"{n - k} beyond it)"]
    return metrics, failed, notes


def span_totals(spans: list) -> dict:
    out = {}
    for name, start, end, _, _ in spans:
        out[name] = out.get(name, 0.0) + (end - start)
    return out


def per_layer(pairs: list, n_first: int, prof: dict, imports: dict, calib: list) -> dict:
    """Layer metrics from (op, cli result, traced result) pairs.

    Times are means per traced op over all pairs; counts come from the first
    n_first pairs (one pass over the pool) or from the profiled op `prof`."""
    totals = {}
    for _, _, tr in pairs:
        for name, secs in span_totals(tr["spans"]).items():
            totals[name] = totals.get(name, 0.0) + secs

    def mean(name):
        return totals.get(name, 0.0) / len(pairs)

    def per_unit(name, unit):
        count = sum(run[unit] for _, _, tr in pairs for run in tr["runs"])
        return 1e6 * totals.get(name, 0.0) / count if count else 0.0

    runs = [run for _, _, tr in pairs[:n_first] for run in tr["runs"]]
    searched = sum(run["cert_searched"] for run in runs)
    found = sum(run["cert_found"] for run in runs)
    sweeps = [(cli, tr) for op, cli, tr in pairs if op.kind == "sweep"]
    efficiency = [span_totals(tr["spans"])["sweep.run"] / (workloads.SWEEP_JOBS * cli["wall"])
                  for cli, tr in sweeps]
    counts = prof.get("profile", {})

    def calls(key):
        return counts.get(key, {}).get("calls", 0)

    bank_runs = [run for run in prof["runs"] if run["controller"] == "higs_pii2"]
    return {
        "import.s": mean("import"),
        "import.scipy_s": imports["scipy_s"],
        "cli.load_s": mean("cli.load"),
        "cli.sweep_wall_s": statistics.median(c["wall"] for c, _ in sweeps) if sweeps else 0.0,
        "cli.sweep_efficiency": statistics.median(efficiency) if sweeps else 0.0,
        "lti.cert_search_s": mean("lti.cert_search"),
        "lti.cert_search_calls": searched,
        "lti.cert_found_ratio": found / searched if searched else 0.0,
        "lti.assess_ni_s": mean("lti.assess_ni"),
        "lti.freq_test_s": mean("lti.freq_test"),
        "sim.simulate_s": mean("sim.simulate"),
        "sim.steps": sum(run["steps"] for run in runs),
        "sim.us_per_step": per_unit("sim.simulate", "steps"),
        "sim.switches": sum(run["switches"] for run in runs),
        "sim.checks_s": mean("sim.checks"),
        "sim.csv_s": mean("sim.csv"),
        "sim.csv_rows": sum(run["rows"] for run in runs),
        "sim.csv_bytes": sum(run["csv_bytes"] for run in runs),
        "sim.csv_us_per_row": per_unit("sim.csv", "rows"),
        "sim.loop.guard_calls": calls("guard"),
        "sim.loop.guard_s": counts.get("guard", {}).get("self_s", 0.0),
        "sim.loop.record_calls": calls("record"),
        "sim.loop.record_s": counts.get("record", {}).get("cum_s", 0.0),
        "sim.loop.map_builds": calls("rk4_map") + calls("expm"),
        # settle runs once at the start of each PII^2 run and once per event;
        # probe runs once per step plus once per bisection probe.
        "sim.loop.events": max(0, calls("settle") - len(bank_runs)),
        "sim.loop.event_probes": max(0, calls("probe") - sum(r["steps"] for r in bank_runs)),
        "higs.mode_calls": calls("mode_irc") + calls("mode_base"),
        "higs.projection_calls": calls("project"),
        "controllers.mode_update_calls": calls("mode_update"),
        "controllers.resolve_calls": calls("resolve_signal") + calls("resolve_rate"),
        "host.calib_s": statistics.mean(calib),
        "trace.overhead_ratio": (sum(tr["wall"] for _, _, tr in pairs)
                                 / sum(cli["wall"] for _, cli, _ in pairs)),
    }


def parity_problems(cli: dict, tr: dict) -> list:
    """The traced pipeline must produce the CLI's CSV bytes and verdicts."""
    problems = []
    if tr["code"] != 0:
        problems.append(f"traced op exit code {tr['code']}")
    if cli["design"] is not None:
        d = tr.get("design") or {}
        if (d.get("ni_method"), d.get("dc_gain")) != (cli["design"]["ni_method"],
                                                      cli["design"]["dc_gain"]):
            problems.append(f"traced design {d} != CLI {cli['design']}")
        return problems
    traced = {run["name"]: run for run in tr["runs"]}
    if set(traced) != set(cli["runs"]):
        return problems + [f"traced runs {sorted(traced)} != CLI {sorted(cli['runs'])}"]
    for name, run in cli["runs"].items():
        if traced[name]["csv_sha256"] != run["csv_sha256"]:
            problems.append(f"{name}: traced CSV differs from the CLI's")
        if traced[name]["verdicts"] != run["verdicts"]:
            problems.append(f"{name}: traced verdicts {traced[name]['verdicts']} "
                            f"!= CLI {run['verdicts']}")
    return problems


# ---------------------------------------------------------------------------
# Entry point


def measure(workload: str, seed: int, seconds: float, trace: bool, pool=None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK_ROOT)
    try:
        if pool is None:
            pool = workloads.generate(workload, seed, os.path.join(run_dir, "inputs"))
        runner = Runner(run_dir)
        calib = [calibrate()]
        # Untimed warm-up: byte-compiles src/ on a fresh checkout and fills the
        # page cache, neither of which a user pays on every call.
        spawn([sys.executable, "-c", "import higsni.cli"], runner.fresh_dir(), runner.env)
        if not trace:
            results, ops = [], []

            def step(op):
                results.append(runner.cli_op(op))
                ops.append(op)

            run_passes(pool, seconds, step)
            calib.append(calibrate())
            metrics, failed, notes = end_to_end(results, ops)
            attempted = len(results)
            problems = [p for r in results for p in r["problems"]]
            units = END_TO_END
        else:
            imports = runner.import_time()
            pairs = []

            def step(op):
                cli = runner.cli_op(op)
                tr = runner.traced_op(op)
                cli["problems"] += parity_problems(cli, tr)
                pairs.append((op, cli, tr))

            run_passes(pool, seconds, step)
            prof_op, prof_cli, _ = next(p for p in pairs if p[0].steps)
            prof = runner.traced_op(prof_op, profile=True)
            calib.append(calibrate())
            metrics = per_layer(pairs, len(pool), prof, imports, calib)
            metrics["trace.profile_ratio"] = prof["wall"] / prof_cli["wall"]
            attempted = len(pairs)
            problems = [p for _, cli, _ in pairs for p in cli["problems"]]
            failed = sum(1 for _, cli, _ in pairs if cli["problems"])
            notes = [f"import total {imports['total_s']:.3f} s (-X importtime)"]
            units = PER_LAYER
        lines = notes + [f"host.calib_s start {calib[0]:.4f} end {calib[-1]:.4f}"]
        lines += [f"problem: {p}" for p in problems[:20]]
        return {
            "lines": lines,
            "result": {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": unit}
                            for name, unit in units.items()},
            },
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit so the op in flight is killed and the run
    # directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "higsni", "cli.py")):
        print(f"higsni sources not found under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in out["lines"]:
        print(line)
    for name, m in out["result"]["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
