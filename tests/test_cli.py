"""Command-line interface: exit codes, config validation, and outputs.

Commands run in-process through cli.main so the suite stays fast; one
subprocess test covers the module entry point.
"""

import json
import subprocess
import sys

import pytest

from higsni import cli

from conftest import REPO_ROOT


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def _quick_scenario(**overrides):
    cfg = {
        "plant": {"A": [[0.0, 1.0], [-1.0, 0.0]], "B": [0.0, 1.0], "C": [1.0, 0.0]},
        "controller": {"type": "higs_irc", "omega_h": 0.5, "k_h": 20.0, "D": -1.0},
        "sim": {"dt": 1e-3, "t_end": 2.0, "x0": [3.0, 1.0]},
        "checks": ["sector"],
        "output": {"csv": "run.csv", "report": "run.report.json"},
    }
    cfg.update(overrides)
    return cfg


def test_exit_code_values():
    assert (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_RUNTIME, cli.EXIT_CHECK) == (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# argument handling


def test_help_exits_zero():
    assert cli.main(["--help"]) == 0


def test_missing_subcommand_is_usage_error():
    assert cli.main([]) == cli.EXIT_CONFIG


def test_unknown_check_name_is_usage_error(config_dir):
    cfg = str(config_dir / "mass_spring_irc_k20.json")
    assert cli.main(["check", cfg, "bogus"]) == cli.EXIT_CONFIG


def test_unknown_design_type_is_usage_error(config_dir):
    cfg = str(config_dir / "mass_spring_irc_k20.json")
    assert cli.main(["design", cfg, "bogus"]) == cli.EXIT_CONFIG


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_outputs(tmp_path):
    cfg = _write(tmp_path, "quick.json", _quick_scenario())
    out = tmp_path / "fresh_dir"
    assert cli.main(["simulate", cfg, "--out-dir", str(out)]) == 0
    report = json.loads((out / "run.report.json").read_text())
    assert report["passed"] is True
    assert report["checks"]["sector"]["passed"] is True
    # no lyapunov check requested, so no certificate and no W column
    header = (out / "run.csv").read_text().splitlines()[0]
    assert header == "t,x1,x2,xh,mode,e,u,y,V"


def test_simulate_report_to_stdout_without_output_section(tmp_path, capsys):
    cfg = _write(tmp_path, "quick.json", _quick_scenario(output={}))
    assert cli.main(["simulate", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["final_time"] == pytest.approx(2.0)


def test_simulate_missing_file_exit_config(tmp_path):
    assert cli.main(["simulate", str(tmp_path / "absent.json")]) == cli.EXIT_CONFIG


def test_simulate_invalid_json_exit_config(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["simulate", str(path)]) == cli.EXIT_CONFIG


def test_simulate_unknown_check_exit_config(tmp_path):
    cfg = _write(tmp_path, "quick.json", _quick_scenario(checks=["bogus"]))
    assert cli.main(["simulate", cfg]) == cli.EXIT_CONFIG


def test_simulate_check_requires_matching_controller(tmp_path):
    scenario = _quick_scenario(checks=["dissipation"])
    scenario["controller"] = {
        "type": "higs_pii2", "k_p": 0.5, "D": -1.5,
        "h1": {"omega_h": 0.3, "k_h": 2.0},
        "h2": {"omega_h": 0.2, "k_h": 1.0},
        "h3": {"omega_h": 0.4, "k_h": 1.0},
    }
    cfg = _write(tmp_path, "quick.json", scenario)
    assert cli.main(["simulate", cfg]) == cli.EXIT_CONFIG


_PII2_CONTROLLER = {
    "type": "higs_pii2", "k_p": 0.5, "D": -1.5,
    "h1": {"omega_h": 0.3, "k_h": 2.0},
    "h2": {"omega_h": 0.2, "k_h": 1.0},
    "h3": {"omega_h": 0.4, "k_h": 1.0},
}


@pytest.mark.parametrize("controller, message", [
    ({"type": "pid", "k": 1.0}, "unknown controller type 'pid'"),
    ({"type": ["irc"]}, "unknown controller type ['irc']"),
    ({"type": "irc", "D": -1.0}, "missing key 'Gamma' in controller"),
    ({k: v for k, v in _PII2_CONTROLLER.items() if k != "h2"}, "missing key 'h2' in controller"),
    (dict(_PII2_CONTROLLER, h3={"k_h": 1.0}), "missing key 'omega_h' in h3"),
    (dict(_PII2_CONTROLLER, h1=3.0),
     "invalid controller parameters: argument of type 'float' is not iterable"),
], ids=["unknown_type", "unhashable_type", "missing_Gamma", "missing_h2", "missing_h3_omega_h", "h1_not_object"])
def test_simulate_malformed_controller_exit_config(tmp_path, capsys, controller, message):
    cfg = _write(tmp_path, "bad.json", _quick_scenario(controller=controller))
    assert cli.main(["simulate", cfg]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("controller_x0", [[], [0.1, 0.2]], ids=["empty", "two_entries"])
def test_simulate_malformed_controller_x0_exit_config(tmp_path, capsys, controller_x0):
    scenario = _quick_scenario()
    scenario["sim"]["controller_x0"] = controller_x0
    cfg = _write(tmp_path, "bad.json", scenario)
    assert cli.main(["simulate", cfg]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "config error: controller_x0 must be a scalar or 1 entries\n"


@pytest.mark.parametrize("controller, summary", [
    ({"type": "irc", "Gamma": 1.0, "D": -1.5}, {"Gamma": 1.0, "D": -1.5}),
    ({"type": "pii2rc", "k_p": 1.0, "k1": 2.0, "k2": 3.0, "D": -2.0},
     {"k_p": 1.0, "k1": 2.0, "k2": 3.0, "D": -2.0}),
    ({"type": "higs_irc", "omega_h": 0.5, "k_h": 20.0, "D": -1.0},
     {"omega_h": 0.5, "k_h": 20.0, "D": -1.0, "kappa_tilde": 20.0 / 21.0}),
    (_PII2_CONTROLLER,
     {"k_p": 0.5, "D": -1.5, "gamma": 1.0 / 1.75,
      "h1": {"omega_h": 0.3, "k_h": 2.0},
      "h2": {"omega_h": 0.2, "k_h": 1.0},
      "h3": {"omega_h": 0.4, "k_h": 1.0}}),
], ids=["irc", "pii2rc", "higs_irc", "higs_pii2"])
def test_report_controller_block(tmp_path, capsys, controller, summary):
    scenario = _quick_scenario(controller=controller, checks=[], output={})
    scenario["sim"]["t_end"] = 0.01
    cfg = _write(tmp_path, "quick.json", scenario)
    assert cli.main(["simulate", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["controller"] == {"type": controller["type"], **summary}


def test_simulate_divergent_scenario_exit_runtime(config_dir, tmp_path):
    cfg = str(config_dir / "mass_spring_irc_unstable.json")
    assert cli.main(["simulate", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_RUNTIME


def test_simulate_failed_check_exit_check(tmp_path, capsys):
    scenario = _quick_scenario(checks=[{"name": "convergence", "threshold": 1e-9}],
                               output={})
    cfg = _write(tmp_path, "quick.json", scenario)
    assert cli.main(["simulate", cfg]) == cli.EXIT_CHECK
    report = json.loads(capsys.readouterr().out)
    assert report["checks"]["convergence"]["passed"] is False


def test_two_mode_plant_simulates_and_designs_with_certificate(config_dir, tmp_path, capsys):
    # D < -G(0) on a lightly damped two-mode plant: W is only checkable once
    # the plant's NI certificate is found, and design must cite it.
    cfg = str(config_dir / "two_mode_collocated.json")
    assert cli.main(["simulate", cfg, "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "two_mode_collocated.report.json").read_text())
    assert report["certificate"]["found"] is True
    assert report["checks"]["lyapunov_monotone"]["passed"] is True
    capsys.readouterr()
    assert cli.main(["design", cfg, "higs_irc"]) == 0
    assert json.loads(capsys.readouterr().out)["plant"]["ni_method"] == "certificate"


# ---------------------------------------------------------------------------
# check


def test_check_ni_passes(config_dir, capsys):
    cfg = str(config_dir / "mass_spring_irc_k20.json")
    assert cli.main(["check", cfg, "ni"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True
    assert out["evidence"]["max_pole_real"] == pytest.approx(0.0, abs=1e-9)


def test_check_certificate_passes(config_dir, capsys):
    cfg = str(config_dir / "mass_spring_irc_k20.json")
    assert cli.main(["check", cfg, "certificate"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["evidence"]["found"] is True
    assert out["evidence"]["residual_norm"] <= 1e-9


def test_check_stability_passes(config_dir, capsys):
    cfg = str(config_dir / "mass_spring_irc_k20.json")
    assert cli.main(["check", cfg, "stability"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["evidence"]["kappa_tilde"] == pytest.approx(20.0 / 21.0)
    assert out["evidence"]["margin_1_minus_kt_G0"] == pytest.approx(1.0 / 21.0)


def test_check_stability_rejects_unstable_gain(config_dir):
    cfg = str(config_dir / "mass_spring_irc_unstable.json")
    assert cli.main(["check", cfg, "stability"]) == cli.EXIT_CHECK


def test_check_sni_on_linear_controller(config_dir, capsys):
    cfg = str(config_dir / "mass_spring_irc_linear.json")
    assert cli.main(["check", cfg, "sni"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True and out["evidence"]["min_value"] > 0.0


def test_check_sni_is_linear_only(config_dir):
    cfg = str(config_dir / "mass_spring_irc_k20.json")
    assert cli.main(["check", cfg, "sni"]) == cli.EXIT_CONFIG


def test_check_stability_gain_sum_guard(tmp_path, capsys):
    scenario = _quick_scenario()
    # k_h1 + k_h2^2 + k_p = 2 = 1/(G(0) + D) trips the exclusion
    scenario["controller"] = {
        "type": "higs_pii2", "k_p": 0.5, "D": -0.5,
        "h1": {"omega_h": 0.3, "k_h": 0.5},
        "h2": {"omega_h": 0.2, "k_h": 1.0},
        "h3": {"omega_h": 0.4, "k_h": 1.0},
    }
    cfg = _write(tmp_path, "collide.json", scenario)
    assert cli.main(["check", cfg, "stability"]) == cli.EXIT_CHECK
    out = json.loads(capsys.readouterr().out)
    assert out["evidence"]["gain_sum_admissible"] is False


# ---------------------------------------------------------------------------
# design


def test_design_single_element_region(config_dir, capsys):
    cfg = str(config_dir / "mass_spring_irc_k20.json")
    assert cli.main(["design", cfg, "higs_irc"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["plant"]["dc_gain"] == pytest.approx(1.0)
    assert "kappa_tilde * G(0) < 1" in out["region"]
    match = [s for s in out["samples"] if s["k_h"] == 20.0 and s["D"] == -1.0]
    assert match and match[0]["feasible"] is True
    assert match[0]["kappa_tilde"] == pytest.approx(20.0 / 21.0)


def test_design_three_element_region(config_dir, capsys):
    cfg = str(config_dir / "mass_spring_pii2.json")
    assert cli.main(["design", cfg, "higs_pii2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["region"] == "D < -G(0)"
    assert any(s["feasible"] for s in out["samples"])
    assert len(out["constraints"]) == 2


def test_design_rejects_non_ni_plant(tmp_path):
    cfg = _write(tmp_path, "unstable_plant.json",
                 {"plant": {"A": [[1.0]], "B": [1.0], "C": [1.0]}})
    assert cli.main(["design", cfg, "higs_irc"]) == cli.EXIT_CHECK


# ---------------------------------------------------------------------------
# sweep


def test_sweep_runs_and_summarizes(config_dir, tmp_path, capsys):
    sweep = {
        "base": str(config_dir / "mass_spring_irc_k20.json"),
        "output_dir": str(tmp_path / "out"),
        "runs": [
            {"name": "k20", "overrides": {"sim": {"t_end": 2.0},
                                          "checks": ["sector"]}},
            {"name": "k5", "overrides": {"controller": {"k_h": 5.0},
                                         "sim": {"t_end": 2.0},
                                         "checks": ["sector"]}},
        ],
    }
    cfg = _write(tmp_path, "sweep.json", sweep)
    assert cli.main(["sweep", cfg, "--jobs", "2"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["passed"] is True
    assert summary["runs"] == {"k20": 0, "k5": 0}
    for name in ("k20", "k5"):
        assert (tmp_path / "out" / f"{name}.csv").exists()
        report = json.loads((tmp_path / "out" / f"{name}.report.json").read_text())
        assert report["scenario"] == name
        assert report["passed"] is True


def test_sweep_distinguishes_runs(config_dir, tmp_path):
    # overridden gain must not leak between merged run configs
    sweep = {
        "base": str(config_dir / "mass_spring_irc_k20.json"),
        "output_dir": str(tmp_path / "out"),
        "runs": [
            {"name": "a", "overrides": {"sim": {"t_end": 2.0},
                                        "checks": ["sector"]}},
            {"name": "b", "overrides": {"controller": {"k_h": 5.0},
                                        "sim": {"t_end": 2.0},
                                        "checks": ["sector"]}},
        ],
    }
    cfg = _write(tmp_path, "sweep.json", sweep)
    assert cli.main(["sweep", cfg, "--jobs", "1"]) == 0
    rep_a = json.loads((tmp_path / "out" / "a.report.json").read_text())
    rep_b = json.loads((tmp_path / "out" / "b.report.json").read_text())
    assert rep_a["controller"]["k_h"] == 20.0
    assert rep_b["controller"]["k_h"] == 5.0


def test_sweep_missing_base_exit_config(tmp_path):
    cfg = _write(tmp_path, "sweep.json",
                 {"base": "absent.json", "runs": [{"name": "x"}]})
    assert cli.main(["sweep", cfg]) == cli.EXIT_CONFIG


# ---------------------------------------------------------------------------
# module entry point


def test_module_entry_point(config_dir):
    cfg = str(config_dir / "mass_spring_irc_k20.json")
    proc = subprocess.run(
        [sys.executable, "-m", "higsni", "check", cfg, "ni"],
        capture_output=True, text=True, cwd=str(REPO_ROOT),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


def test_cli_import_leaves_scipy_unloaded():
    # Every CLI invocation pays the import; scipy is loaded only by the
    # linear-loop simulator that needs it.
    code = ("import sys, higsni.cli; "
            "print([m for m in ('scipy.optimize', 'scipy.linalg') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, cwd=str(REPO_ROOT))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
