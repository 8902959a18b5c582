"""Traced replay of one benchmark op through higsni's public functions.

Usage: python3 traced.py SPEC_JSON RESULT_JSON [--profile]

SPEC_JSON names the op kind (simulate, design or sweep) and its scenario
files.  The pipeline mirrors ``higsni simulate`` / ``higsni design``:
load_scenario -> search_ni_certificate -> Lyapunov*Certificate ->
simulate_* -> check_* -> Trajectory.write_csv, and assess_ni plus
ni_frequency_test for design.  Outputs go to the working directory, with
the same file names the CLI uses, so their bytes can be compared.

Spans (name, start, end, parent index, op id) are kept in memory and
written once, with per-run counters and verdicts, to RESULT_JSON.  With
--profile the pipeline runs under cProfile and the call counts of the step
loop's functions are added; their self times are inflated by the profiler.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, op: str):
        self.op = op
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self._open.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = perf_counter()
            self._open.pop()


def run_simulate(hs, tr: Tracer, path: str) -> dict:
    with tr.span("cli.load"):
        cfg = hs.cli.load_scenario(path)
    plant = cfg.plant if isinstance(cfg.plant, hs.StateSpace) else hs.tf_to_ss(cfg.plant)
    names = [name for name, _ in cfg.checks]
    ctype = cfg.controller_type
    out = {"name": cfg.name, "controller": ctype, "cert_searched": False, "cert_found": False}
    cert = None
    if "lyapunov_monotone" in names:
        with tr.span("lti.cert_search"):
            Y = hs.search_ni_certificate(plant)
        out["cert_searched"] = True
        out["cert_found"] = Y is not None
        if Y is not None:
            with tr.span("sim.certificate"):
                if ctype == "higs_irc":
                    cert = hs.LyapunovIrcCertificate(Y.Y, plant.C, cfg.controller.kappa_tilde)
                else:
                    cert = hs.LyapunovPii2Certificate(Y.Y, plant.C, cfg.controller)
            if not cert.positive_definite:
                cert = None
    with tr.span("sim.simulate"):
        if ctype == "higs_irc":
            traj = hs.simulate_higs_irc_loop(plant, cfg.controller, cfg.sim, cert)
        elif ctype == "higs_pii2":
            traj = hs.simulate_higs_pii2_loop(plant, cfg.controller, cfg.sim, cert)
        else:
            tf = hs.irc_tf(cfg.controller) if ctype == "irc" else hs.pii2rc_tf(cfg.controller)
            traj = hs.simulate_linear_loop(plant, tf, cfg.sim)
    verdicts = {}
    with tr.span("sim.checks"):
        if "sector" in names:
            verdicts["sector"] = bool(hs.check_sector(traj).passed)
        if "lyapunov_monotone" in names:
            verdicts["lyapunov_monotone"] = (traj.W is not None
                                             and bool(hs.check_monotone(traj).passed))
        if "dissipation" in names:
            verdicts["dissipation"] = bool(hs.check_dissipation(traj).passed)
    csv_path = os.path.basename(cfg.csv_path)
    with tr.span("sim.csv"):
        traj.write_csv(csv_path)
    with open(csv_path, "rb") as fh:
        csv_sha256 = hashlib.sha256(fh.read()).hexdigest()
    modes = traj.modes
    switches = 0 if modes is None else int((modes[1:] != modes[:-1]).sum())
    out.update(
        verdicts=verdicts,
        steps=cfg.sim.n_steps,
        switches=switches,
        rows=len(traj),
        csv_bytes=os.path.getsize(csv_path),
        csv_sha256=csv_sha256,
    )
    return out


def run_design(hs, tr: Tracer, path: str) -> dict:
    with tr.span("cli.load"):
        plant = hs.cli.load_scenario(path).plant
    with tr.span("lti.assess_ni"):
        assessment = hs.assess_ni(plant)
    with tr.span("lti.freq_test"):
        freq = hs.ni_frequency_test(plant)
    ss = plant if isinstance(plant, hs.StateSpace) else hs.tf_to_ss(plant)
    return {"ni_verified": bool(assessment.verified), "ni_method": assessment.method,
            "freq_passed": bool(freq.passed), "dc_gain": float(hs.dc_gain(ss))}


# Step-loop functions counted from cProfile, by (module file, function name).
PROFILED = {
    "guard": ("sim.py", "_guard_finite"),
    "record": ("sim.py", "record"),
    "rk4_map": ("sim.py", "_rk4_affine_map"),
    "settle": ("sim.py", "settle"),
    "probe": ("sim.py", "probe"),
    "mode_irc": ("higs.py", "determine_mode_irc"),
    "mode_base": ("higs.py", "determine_mode_base"),
    "project": ("higs.py", "project_to_sector"),
    "mode_update": ("controllers.py", "higs_pii2_mode_update"),
    "resolve_signal": ("controllers.py", "resolve_pii2_error_signal"),
    "resolve_rate": ("controllers.py", "resolve_pii2_error_rate"),
}


def profile_counts(stats: dict) -> dict:
    """Sum calls, self and cumulative time per PROFILED entry, plus scipy's expm."""
    out = {key: {"calls": 0, "self_s": 0.0, "cum_s": 0.0} for key in PROFILED}
    out["expm"] = {"calls": 0, "self_s": 0.0, "cum_s": 0.0}
    for (filename, _, func), (_, ncalls, tottime, cumtime, _) in stats.items():
        base = os.path.basename(filename)
        hits = [key for key, (mod, name) in PROFILED.items()
                if name == func and base == mod and "higsni" in filename]
        if func == "expm" and "scipy" in filename:
            hits.append("expm")
        for key in hits:
            out[key]["calls"] += ncalls
            out[key]["self_s"] += tottime
            out[key]["cum_s"] += cumtime
    return out


def main(argv) -> int:
    spec_path, result_path = argv[0], argv[1]
    profile = "--profile" in argv[2:]
    with open(spec_path) as fh:
        spec = json.load(fh)
    tr = Tracer(spec["op"])
    with tr.span("op"):
        with tr.span("import"):
            import higsni as hs
            import higsni.cli  # what every higsni call pays
        profiler = None
        if profile:
            import cProfile
            profiler = cProfile.Profile()
            profiler.enable()
        runs, design = [], None
        if spec["kind"] == "design":
            design = run_design(hs, tr, spec["runs"][0])
        else:
            for path in spec["runs"]:
                with tr.span("sweep.run" if spec["kind"] == "sweep" else "run"):
                    runs.append(run_simulate(hs, tr, path))
        if profiler is not None:
            profiler.disable()
    result = {"spans": tr.spans, "runs": runs, "design": design}
    if profiler is not None:
        import pstats
        result["profile"] = profile_counts(pstats.Stats(profiler).stats)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
