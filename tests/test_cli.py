"""Command-line interface: exit codes, config validation, and outputs.

Commands run in-process through cli.main so the suite stays fast; one
subprocess test covers the module entry point.
"""

import dataclasses
import errno
import json
import logging
import os
import signal
import subprocess
import sys

import pytest

import numpy as np

from higsni import (
    HigsIrcParams,
    HigsParams,
    HigsPii2Params,
    IrcParams,
    Pii2Params,
    RationalTF,
    SimConfig,
    StateSpace,
    check_convergence,
    check_dissipation,
    check_monotone,
    check_sector,
    cli,
    higs,
    lti,
    ni_frequency_test,
    sim,
)
from higsni.controllers import sni_verdict, stability_verdict

from conftest import REPO_ROOT, modal_plant


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
    (dict(_PII2_CONTROLLER, h1=3.0), "h1 must be an object"),
], ids=["unknown_type", "unhashable_type", "missing_Gamma", "missing_h2", "missing_h3_omega_h", "h1_not_object"])
def test_simulate_malformed_controller_exit_config(tmp_path, capsys, controller, message):
    cfg = _write(tmp_path, "bad.json", _quick_scenario(controller=controller))
    assert cli.main(["simulate", cfg]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


def _with_keys(section, **extra):
    return {section: {**_quick_scenario()[section], **extra}}


@pytest.mark.parametrize("overrides, message", [
    ({"check": ["sector"]},
     "unknown key 'check' in scenario (known: name, plant, controller, sim, checks, output)"),
    (_with_keys("plant", D=0.0), "unknown key 'D' in plant (known: A, B, C, D_ff)"),
    ({"plant": {"num": [1.0], "den": [1.0, 0.0, 1.0], "D_ff": 0.0}},
     "unknown key 'D_ff' in plant (known: num, den)"),
    (_with_keys("controller", kh=3.0),
     "unknown key 'kh' in controller (known: type, omega_h, k_h, D)"),
    ({"controller": dict(_PII2_CONTROLLER, h2={"omega_h": 0.2, "k_h": 1.0, "k": 1.0}),
      "checks": []}, "unknown key 'k' in h2 (known: omega_h, k_h)"),
    (_with_keys("sim", Dt=0.5),
     "unknown key 'Dt' in sim (known: dt, t_end, x0, controller_x0, record_every)"),
    (_with_keys("output", CSV="x.csv"), "unknown key 'CSV' in output (known: csv, report)"),
    (_with_keys("sim", record_every=2.5), "sim record_every must be an integer, got 2.5"),
    (_with_keys("sim", record_every=True), "sim record_every must be an integer, got True"),
    (_with_keys("sim", record_every="3"), "sim record_every must be an integer, got '3'"),
    (_with_keys("sim", dt="0.001"), "sim dt must be a number, got '0.001'"),
    (_with_keys("sim", t_end=True), "sim t_end must be a number, got True"),
    (_with_keys("sim", r=0.0),
     "unknown key 'r' in sim (known: dt, t_end, x0, controller_x0, record_every)"),
    (_with_keys("plant", A=[[0.0, "1"], [-1.0, 0.0]]),
     "plant A must be a number or a list of numbers, got '1'"),
    (_with_keys("plant", B=[0.0, True]), "plant B must be a number or a list of numbers, got True"),
    (_with_keys("plant", C=[[1.0], [None]]),
     "plant C must be a number or a list of numbers, got None"),
    (_with_keys("plant", D_ff="0"), "plant D_ff must be a number, got '0'"),
    ({"plant": {"num": ["1"], "den": [1.0, 0.0, 1.0]}},
     "plant num must be a number or a list of numbers, got '1'"),
    ({"plant": {"num": [1.0], "den": [1.0, False, 1.0]}},
     "plant den must be a number or a list of numbers, got False"),
    (_with_keys("controller", k_h=True), "controller k_h must be a number, got True"),
    (_with_keys("controller", D="-1"), "controller D must be a number, got '-1'"),
    ({"controller": dict(_PII2_CONTROLLER, h1={"omega_h": 0.3, "k_h": "2"}), "checks": []},
     "h1 k_h must be a number, got '2'"),
    ({"controller": dict(_PII2_CONTROLLER, h3={"omega_h": [0.4], "k_h": 1.0}), "checks": []},
     "h3 omega_h must be a number, got [0.4]"),
    (_with_keys("sim", x0=["3", "1"]), "sim x0 must be a number or a list of numbers, got '3'"),
    (_with_keys("sim", controller_x0="0.5"),
     "sim controller_x0 must be a number or a list of numbers, got '0.5'"),
    (_with_keys("sim", controller_x0=[False]),
     "sim controller_x0 must be a number or a list of numbers, got False"),
    ({"output": False}, "output must be an object"),
    ({"output": []}, "output must be an object"),
    ({"output": {"csv": True}}, "output csv must be a nonempty string, got True"),
    ({"output": {"csv": 3}}, "output csv must be a nonempty string, got 3"),
    ({"output": {"csv": ""}}, "output csv must be a nonempty string, got ''"),
    ({"output": {"csv": "run.csv", "report": 1}}, "output report must be a nonempty string, got 1"),
    ({"output": {"csv": "run.csv", "report": None}},
     "output report must be a nonempty string, got None"),
    ({"name": ["a"]}, "scenario name must be a string, got ['a']"),
    ({"checks": "sector"}, "checks must be a list, got 'sector'"),
    ({"checks": {"sector": {}}}, "checks must be a list, got {'sector': {}}"),
    ({"checks": [{"name": "convergence", "threshold": float("nan")}]},
     "check 'convergence': threshold must be finite, got nan"),
    (_with_keys("sim", x0=[float("nan"), 1.0]), "sim x0 must be finite, got nan"),
    (_with_keys("sim", x0=["1e999", 1.0]), "sim x0 must be finite, got inf"),
    (_with_keys("sim", t_end=float("nan")), "sim t_end must be finite, got nan"),
    (_with_keys("plant", A=[[0.0, 10**400], [-1.0, 0.0]]), "plant A must be finite, got inf"),
], ids=["scenario", "state_space_plant", "tf_plant", "controller", "element", "sim", "output",
        "sim_record_every_float", "sim_record_every_bool", "sim_record_every_text",
        "sim_dt_text", "sim_t_end_bool", "sim_r_unknown", "plant_A_text", "plant_B_bool",
        "plant_C_null", "plant_D_ff_text", "plant_num_text", "plant_den_bool",
        "controller_k_h_bool", "controller_D_text", "element_k_h_text", "element_omega_h_list",
        "sim_x0_text", "sim_controller_x0_text", "sim_controller_x0_bool",
        "output_false", "output_list", "output_csv_bool", "output_csv_int", "output_csv_empty", "output_report_int",
        "output_report_null", "name_list", "checks_text", "checks_object",
        "check_threshold_nan", "sim_x0_nan", "sim_x0_1e999", "sim_t_end_nan",
        "plant_A_huge_int"])
def test_simulate_unknown_key_exit_config_before_running(tmp_path, monkeypatch, capsys,
                                                         overrides, message):
    # A misspelled key would otherwise run on the default it was meant to
    # change, and a mistyped value on what int() or float() makes of it;
    # open() would take an output path of 1 or true as a file descriptor.
    # json also reads NaN, Infinity, 1e999 and 10**400, none of them finite
    # floats.
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, "bad.json", _quick_scenario(**overrides))
    # json.dumps spells inf "Infinity"; the string "1e999" stands for that literal.
    bad = tmp_path / "bad.json"
    bad.write_text(bad.read_text().replace('"1e999"', "1e999"))
    for out_dir in ([], ["--out-dir", "out"]):
        assert cli.main(["simulate", cfg, *out_dir]) == cli.EXIT_CONFIG
        assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert sorted(os.listdir(tmp_path)) == ["bad.json"]
    # design reads only the plant section of a scenario file
    assert cli.main(["design", cfg, "higs_irc"]) == (cli.EXIT_CONFIG if "plant" in overrides
                                                     else cli.EXIT_OK)


@pytest.mark.parametrize("controller_x0, message", [
    ([], "controller_x0 must be a scalar or 1 entries"),
    ([0.1, 0.2], "controller_x0 must be a scalar or 1 entries"),
    ({}, "sim controller_x0 must be a number or a list of numbers, got {}"),
], ids=["empty", "two_entries", "object"])
def test_simulate_malformed_controller_x0_exit_config(tmp_path, capsys, controller_x0, message):
    scenario = _quick_scenario()
    scenario["sim"]["controller_x0"] = controller_x0
    cfg = _write(tmp_path, "bad.json", scenario)
    assert cli.main(["simulate", cfg]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


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


@pytest.mark.parametrize("controller, command", [
    pytest.param(c, command, id=c["type"] + suffix)
    for command, suffix in (("simulate", ""), ("check", "-check_stability"), ("design", "-design"))
    for c in (_quick_scenario()["controller"], _PII2_CONTROLLER)])
@pytest.mark.parametrize("plant, d_ff", [
    ({"A": [[-1.0]], "B": [1.0], "C": [1.0], "D_ff": 0.5}, 0.5),
    ({"num": [1.0, 2.0], "den": [1.0, 1.0]}, 1.0),     # (s + 2)/(s + 1) = 1 + 1/(s + 1)
], ids=["state_space", "biproper_tf"])
def test_simulate_hybrid_loop_rejects_plant_feedthrough(tmp_path, monkeypatch, capsys,
                                                        controller, command, plant, d_ff):
    # check stability and design refuse the plant a hybrid loop cannot run
    # on, with simulate's message and exit code.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sim, "_march", lambda *args: pytest.fail("the loop took a step"))
    scenario = _quick_scenario(plant=plant, controller=controller)
    scenario["sim"]["x0"] = [1.0]
    cfg = _write(tmp_path, "bad.json", scenario)
    argv = {"simulate": [cfg], "check": [cfg, "stability"], "design": [cfg, controller["type"]]}
    assert cli.main([command, *argv[command]]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == (
        "", f"config error: hybrid loops need a strictly proper plant, got D_ff = {d_ff}\n")
    assert not (tmp_path / "run.csv").exists()


def test_simulate_divergent_scenario_exit_runtime(config_dir, tmp_path):
    cfg = str(config_dir / "mass_spring_irc_unstable.json")
    assert cli.main(["simulate", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_RUNTIME


def _no_run(*args):
    raise AssertionError("the simulation ran")


@pytest.mark.parametrize("output, out_dir, message", [
    ({"csv": "missing/run.csv"}, None,
     "cannot write 'missing/run.csv': 'missing' is not a directory"),
    ({"csv": "run.csv", "report": "a_file/run.report.json"}, None,
     "cannot write 'a_file/run.report.json': 'a_file' is not a directory"),
    ({"csv": "run.csv"}, "a_file", "cannot create output directory 'a_file': "),
], ids=["csv_dir_missing", "report_dir_is_a_file", "out_dir_is_a_file"])
def test_simulate_unwritable_output_exit_config_before_running(tmp_path, monkeypatch, capsys,
                                                               output, out_dir, message):
    # A whole run would otherwise end in a traceback from the first write.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_simulate", _no_run)
    (tmp_path / "a_file").write_text("")
    cfg = _write(tmp_path, "quick.json", _quick_scenario(output=output))
    argv = ["simulate", cfg] + ([] if out_dir is None else ["--out-dir", out_dir])
    assert cli.main(argv) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["a_file", "quick.json"]
    assert (tmp_path / "a_file").read_text() == ""


@pytest.mark.parametrize("output, out_dir, message", [
    ({"csv": "same.out", "report": "same.out"}, None,
     "csv 'same.out' and report 'same.out' are the same file"),
    ({"csv": "a/../same.out", "report": "same.out"}, None,
     "csv 'a/../same.out' and report 'same.out' are the same file"),
    ({"csv": "a/same.out", "report": "same.out"}, "out",
     "csv 'out/same.out' and report 'out/same.out' are the same file"),
], ids=["plain", "dot_dot", "out_dir"])
def test_simulate_csv_and_report_one_file_exit_config_before_running(tmp_path, monkeypatch, capsys,
                                                                     output, out_dir, message):
    # The report would replace the CSV, and the run would exit as if both
    # were written.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_simulate", _no_run)
    (tmp_path / "a").mkdir()
    cfg = _write(tmp_path, "quick.json", _quick_scenario(output=output))
    argv = ["simulate", cfg] + ([] if out_dir is None else ["--out-dir", out_dir])
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: {message}\n")
    made = ["a"] + ([out_dir] if out_dir else [])
    assert sorted(os.listdir(tmp_path)) == sorted(made + ["quick.json"])
    assert all(os.listdir(tmp_path / folder) == [] for folder in made)


@pytest.mark.parametrize("output, out_dir, path", [
    ({"csv": "run.csv"}, None, "run.csv"),
    ({"csv": "x.csv", "report": "run.csv"}, None, "run.csv"),
    ({"csv": "run.csv"}, "out", "out/run.csv"),
], ids=["csv", "report", "out_dir"])
def test_simulate_output_that_is_a_directory_exit_config_before_running(
        tmp_path, monkeypatch, capsys, output, out_dir, path):
    # Opening it would fail only after the whole run.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_simulate", _no_run)
    os.makedirs(path)
    cfg = _write(tmp_path, "quick.json", _quick_scenario(output=output))
    argv = ["simulate", cfg] + ([] if out_dir is None else ["--out-dir", out_dir])
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: cannot write {path!r}: it is a directory\n")
    assert os.listdir(path) == []


def test_simulate_output_that_cannot_be_opened_exit_config(tmp_path, monkeypatch, capsys):
    # The CSV path is a link into a missing directory: only opening it finds
    # that out.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.csv").symlink_to(tmp_path / "missing" / "run.csv")
    cfg = _write(tmp_path, "quick.json", _quick_scenario())
    assert cli.main(["simulate", cfg]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: cannot write output: ") and "'run.csv'" in err
    assert sorted(os.listdir(tmp_path)) == ["quick.json", "run.csv"]


def test_simulate_csv_writer_failure_exit_config(tmp_path, monkeypatch, capfd):
    # The disk fills up after the header and the first block.
    write = sim.Trajectory._write_csv

    class FullDisk:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, text):
            self.writes += 1
            if self.writes > 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return self.fh.write(text)

    monkeypatch.setattr(sim.Trajectory, "_write_csv", lambda self, fh: write(self, FullDisk(fh)))
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, "quick.json", _quick_scenario())
    assert cli.main(["simulate", cfg]) == cli.EXIT_CONFIG
    out, err = capfd.readouterr()
    assert out == ""
    assert err.endswith("config error: cannot write output: "
                        "[Errno 28] No space left on device\n")
    assert (tmp_path / "run.csv").read_text().count("\n") == 1 + sim._CSV_BLOCK_ROWS
    assert not (tmp_path / "run.report.json").exists()


@pytest.mark.parametrize("check, message", [
    # sector, lyapunov_monotone and dissipation take no option: their
    # tolerances are constants of sim
    ({"name": "sector", "rtol": None}, "unknown key 'rtol' in check 'sector' (known: name)"),
    ({"name": "convergence", "threshold": [1]},
     "check 'convergence': threshold must be a number, got [1]"),
    ({"name": "dissipation", "budget_coeff": "x"},
     "unknown key 'budget_coeff' in check 'dissipation' (known: name)"),
    ({"name": "convergence", "treshold": 1e-9},
     "unknown key 'treshold' in check 'convergence' (known: name, threshold)"),
    ({"name": "sector", "threshold": 0.2},
     "unknown key 'threshold' in check 'sector' (known: name)"),
    ({"name": ["sector"]}, "check name must be a string, got ['sector']"),
    ({"name": "convergence", "threshold": True},
     "check 'convergence': threshold must be a number, got True"),
], ids=["sector_rtol_null", "convergence_threshold_list", "dissipation_coeff_text",
        "convergence_misspelled_option", "sector_other_checks_option", "name_not_string",
        "convergence_threshold_bool"])
def test_simulate_bad_check_option_exit_config_before_running(tmp_path, monkeypatch, capsys,
                                                             check, message):
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, "bad.json", _quick_scenario(checks=[check]))
    assert cli.main(["simulate", cfg]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "run.csv").exists()


def test_scenario_check_options_are_numbers_with_defaults(tmp_path):
    checks = ["sector", {"name": "convergence", "threshold": 1}, {"name": "dissipation"}]
    cfg = cli.load_scenario(_write(tmp_path, "quick.json", _quick_scenario(checks=checks)))
    assert cfg.checks == [("sector", {}), ("convergence", {"threshold": 1.0}),
                          ("dissipation", {})]
    assert type(cfg.checks[1][1]["threshold"]) is float
    cfg = cli.load_scenario(_write(tmp_path, "default.json", _quick_scenario(checks=["convergence"])))
    assert cfg.checks == [("convergence", {"threshold": 0.2})]


def test_repeated_check_name_exit_config_before_running(config_dir, tmp_path, monkeypatch,
                                                        capsys):
    # Verdicts are reported by name: the second entry would replace the
    # first, whatever either found.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_simulate", _no_run)
    monkeypatch.setattr(cli, "_fan_out", _no_run)
    base = str(config_dir / "mass_spring_irc_linear.json")
    checks = [{"name": "convergence", "threshold": 1e-9}, "convergence"]
    scenario = _write(tmp_path, "twice.json", dict(json.loads(open(base).read()), checks=checks))
    sweep = _write(tmp_path, "sweep.json", {"base": base, "output_dir": "out",
                                            "runs": [{"name": "a", "overrides": {"checks": checks}}]})
    for argv in (["simulate", scenario], ["sweep", sweep]):
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr() == ("", "config error: check 'convergence' listed twice\n")


@pytest.mark.parametrize("sim_keys, message", [
    ({"t_end": 1e12}, "cannot record the 1e+15 samples of the run: "),
    ({"dt": 1e-300}, "cannot record the 2e+300 samples of the run: "),
    ({"t_end": 1e12, "dt": 1e-300}, "invalid sim section: t_end / dt must be finite, got inf"),
], ids=["t_end", "dt", "steps_overflow"])
def test_run_too_long_to_record_exit_config(tmp_path, monkeypatch, capsys, sim_keys, message):
    # Petabytes or more: the sample arrays cannot be allocated, and the
    # allocation fails without touching memory.
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, "long.json", _quick_scenario(**_with_keys("sim", **sim_keys)))
    assert cli.main(["simulate", cfg]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["long.json"]


@pytest.mark.parametrize("controller, known", [
    ({"type": "irc", "Gamma": 1.0, "D": -1.0}, "type, Gamma, D"),
    ({"type": "pii2rc", "k_p": 1.0, "k1": 1.0, "k2": 1.0, "D": -2.0}, "type, k_p, k1, k2, D"),
    (_quick_scenario()["controller"], "type, omega_h, k_h, D"),
    (_PII2_CONTROLLER, "type, k_p, D, h1, h2, h3"),
], ids=["irc", "pii2rc", "higs_irc", "higs_pii2"])
def test_unknown_controller_key_lists_the_constructor_fields(tmp_path, capsys, controller, known):
    cfg = _write(tmp_path, "bad.json",
                 _quick_scenario(controller=dict(controller, bogus=1.0), checks=[]))
    assert cli.main(["simulate", cfg]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == (
        "", f"config error: unknown key 'bogus' in controller (known: {known})\n")
    params = cli.CONTROLLERS[controller["type"]].params
    assert known.split(", ")[1:] == [f.name for f in dataclasses.fields(params) if f.init]


_TF_PLANT = {"num": [1.0], "den": [1.0, 0.0, 1.0]}


# (class, where its unknown key is reported, the section holding that key)
_SECTIONS = [
    (StateSpace, "plant", dict(_quick_scenario()["plant"], bogus=1.0)),
    (RationalTF, "plant", dict(_TF_PLANT, bogus=1.0)),
    (SimConfig, "sim", dict(_quick_scenario()["sim"], bogus=1.0)),
    (IrcParams, "controller", {"type": "irc", "Gamma": 1.0, "D": -1.0, "bogus": 1.0}),
    (Pii2Params, "controller",
     {"type": "pii2rc", "k_p": 1.0, "k1": 1.0, "k2": 1.0, "D": -2.0, "bogus": 1.0}),
    (HigsIrcParams, "controller", dict(_quick_scenario()["controller"], bogus=1.0)),
    (HigsPii2Params, "controller", dict(_PII2_CONTROLLER, bogus=1.0)),
    (HigsParams, "h2", dict(_PII2_CONTROLLER, h2={"omega_h": 0.2, "k_h": 1.0, "bogus": 1.0})),
]


@pytest.mark.parametrize("cls, where, section", _SECTIONS, ids=[c[0].__name__ for c in _SECTIONS])
def test_unknown_key_lists_the_init_fields_of_its_section(cls, where, section):
    # A section's keys are the init fields of the class it builds; a
    # controller section also takes its type.
    name = "controller" if where == "h2" else where
    known = ", ".join(f.name for f in dataclasses.fields(cls) if f.init)
    if where == "controller":
        known = "type, " + known
    with pytest.raises(cli.ConfigError) as exc:
        cli._scenario_from_dict(_quick_scenario(**{name: section}, checks=[]), "bad")
    assert str(exc.value) == f"unknown key 'bogus' in {where} (known: {known})"


def test_scenario_without_dt_runs_at_the_default_dt(tmp_path):
    # dt's default is SimConfig's; only the echoed config tells the runs apart
    outputs = []
    for name, sim_section in (("default", {"t_end": 0.05, "x0": [3.0, 1.0]}),
                              ("explicit", {"dt": 1e-3, "t_end": 0.05, "x0": [3.0, 1.0]})):
        cfg = _write(tmp_path, f"{name}.json", _quick_scenario(
            name="run", plant=_TF_PLANT, sim=sim_section, checks=["sector", "convergence"],
            output={"csv": f"{name}.csv", "report": f"{name}.report.json"}))
        assert cli.main(["simulate", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_CHECK
        report = json.loads((tmp_path / f"{name}.report.json").read_text())
        assert report.pop("config")["sim"] == sim_section
        outputs.append(((tmp_path / f"{name}.csv").read_bytes(), report))
    assert outputs[0] == outputs[1]
    assert cli.load_scenario(cfg).sim.dt == SimConfig(t_end=0.05, x0=[3.0, 1.0]).dt == 1e-3


# A damped NI plant whose numerator has a slope, and its controllable
# canonical realization, which every command checks for it.
_DAMPED_TF = {"num": [0.1, 1.0], "den": [1.0, 0.5, 2.0]}
_DAMPED_SS = {"A": [[-0.5, -2.0], [1.0, 0.0]], "B": [1.0, 0.0], "C": [0.1, 1.0]}


def test_load_scenario_realizes_a_tf_plant(tmp_path):
    plant = cli.load_scenario(_write(tmp_path, "tf.json", _quick_scenario(plant=_DAMPED_TF))).plant
    assert isinstance(plant, StateSpace)
    want = lti.tf_to_ss(RationalTF(tuple(_DAMPED_TF["num"]), tuple(_DAMPED_TF["den"])))
    for key in ("A", "B", "C"):
        assert np.array_equal(getattr(plant, key), getattr(want, key))
        assert np.array_equal(getattr(plant, key), _DAMPED_SS[key])
    assert plant.D_ff == want.D_ff == 0.0


@pytest.mark.parametrize("command", [
    ["check", "ni"], ["check", "certificate"], ["check", "stability"],
    ["design", "higs_irc"], ["simulate"]], ids=lambda c: "_".join(c))
def test_tf_plant_gives_the_outputs_of_its_realization(tmp_path, capsys, command):
    outputs = []
    for name, plant in (("tf", _DAMPED_TF), ("ss", _DAMPED_SS)):
        out = tmp_path / name
        cfg = _write(tmp_path, f"{name}.json", _quick_scenario(
            name="run", plant=plant, sim={"t_end": 0.5, "x0": [0.3, -0.2]},
            checks=["sector", "lyapunov_monotone", "dissipation"]))
        verb, *rest = command
        args = [cfg, *rest] if verb != "simulate" else [cfg, "--out-dir", str(out)]
        code = cli.main([verb, *args])
        files = None
        if verb == "simulate":
            report = json.loads((out / "run.report.json").read_text())
            assert report.pop("config")["plant"] == plant
            files = ((out / "run.csv").read_bytes(), report)
        outputs.append((code, capsys.readouterr(), files))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == cli.EXIT_OK


def test_static_tf_plant_is_a_config_error_when_read(config_dir, tmp_path, monkeypatch, capsys):
    message = "static transfer function has no state-space realization here"
    scenario = _quick_scenario(plant={"num": [2.0], "den": [1.0]}, sim={"t_end": 0.5, "x0": [1.0]})
    with pytest.raises(cli.ConfigError) as exc:
        cli.load_scenario(_write(tmp_path, "static.json", scenario))
    assert str(exc.value) == message
    # a sweep over it stops before it forks a worker
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("the sweep forked"))
    cfg = _write(tmp_path, "sweep.json", {"base": scenario, "output_dir": str(tmp_path / "out"),
                                          "runs": [{"name": "a"}]})
    assert cli.main(["sweep", cfg]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: {message}\n")


def test_wrong_length_x0_is_a_config_error_when_read(tmp_path, monkeypatch, capsys):
    # simulate --out-dir creates no directory and searches no certificate,
    # and a sweep over such a run stops before it forks a worker
    message = "x0 must have 2 entries"
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "certify_ni", _no_run)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("the sweep forked"))
    scenario = _quick_scenario(checks=["sector", "lyapunov_monotone"])
    scenario["sim"]["x0"] = [3.0, 1.0, 0.0]
    cfg = _write(tmp_path, "long_x0.json", scenario)
    sweep = _write(tmp_path, "sweep.json", {"base": scenario, "output_dir": "swept",
                                            "runs": [{"name": "a"}]})
    for argv in (["simulate", cfg, "--out-dir", "new"], ["sweep", sweep]):
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert not (tmp_path / "new").exists()


def test_unsettled_step_exit_runtime(config_dir, tmp_path, monkeypatch, capsys):
    # A negative exit threshold makes every probed integrating state a sector
    # exit: the event cap ends the first step, one runtime failure line.
    monkeypatch.setattr(higs, "_EVENT_GAP", -1.0)
    cfg = str(config_dir / "mass_spring_irc_k20.json")
    assert cli.main(["simulate", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_RUNTIME
    assert capsys.readouterr() == ("", "runtime failure: mode switching failed to settle "
                                       "within the step ending at t = 0.001\n")


def test_record_every_beyond_the_run_records_its_ends(tmp_path):
    # 10 steps: any record_every from 10 on keeps the samples at 0 and t_end
    outputs = []
    for name, every in (("ten", 10), ("huge", 10**400)):
        cfg = _write(tmp_path, f"{name}.json", _quick_scenario(
            name="run", sim={"t_end": 0.01, "x0": [3.0, 1.0], "record_every": every},
            output={"csv": f"{name}.csv", "report": f"{name}.report.json"}))
        assert cli.main(["simulate", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        report = json.loads((tmp_path / f"{name}.report.json").read_text())
        assert report.pop("config")["sim"]["record_every"] == every
        outputs.append(((tmp_path / f"{name}.csv").read_bytes(), report))
    assert outputs[0] == outputs[1]
    assert outputs[0][1]["result"]["n_samples"] == 2


def test_convergence_without_threshold_reports_the_default_bound(tmp_path, capsys):
    cfg = _write(tmp_path, "quick.json", _quick_scenario(checks=["convergence"], output={}))
    cli.main(["simulate", cfg])
    assert json.loads(capsys.readouterr().out)["checks"]["convergence"]["bound"] == 0.2


@pytest.mark.parametrize("t_end, n_steps", [(0.0025, 2), (0.0035, 4)], ids=["2.5", "3.5"])
def test_t_end_between_steps_exit_config(tmp_path, capsys, t_end, n_steps):
    # round() would take the even neighbour, and the run would end early or late
    cfg = _write(tmp_path, "bad.json", _quick_scenario(**_with_keys("sim", t_end=t_end)))
    assert cli.main(["simulate", cfg]) == cli.EXIT_CONFIG
    assert capsys.readouterr() == ("", (
        f"config error: invalid sim section: t_end {t_end} is not a whole number of steps "
        f"of dt 0.001: the nearest, {n_steps} steps, ends at {n_steps * 1e-3}\n"))


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
    assert out["status"] == "holds" and out["evidence"]["Y"]
    assert out["evidence"]["residual_norm"] <= 1e-9


def test_check_stability_passes(config_dir, capsys):
    cfg = str(config_dir / "mass_spring_irc_k20.json")
    assert cli.main(["check", cfg, "stability"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["evidence"]["kappa_tilde"] == pytest.approx(20.0 / 21.0)
    assert out["margin"] == pytest.approx(1.0 / 21.0)


def test_check_stability_rejects_unstable_gain(config_dir):
    cfg = str(config_dir / "mass_spring_irc_unstable.json")
    assert cli.main(["check", cfg, "stability"]) == cli.EXIT_CHECK


def test_check_sni_on_linear_controller(config_dir, capsys):
    cfg = str(config_dir / "mass_spring_irc_linear.json")
    assert cli.main(["check", cfg, "sni"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True
    assert all(c > 0.0 for c in out["evidence"]["den"])
    assert out["evidence"]["max_pole_real"] < 0.0


@pytest.mark.parametrize("k1", [1e-3, 1e-6])
def test_check_sni_small_integral_gain(config_dir, tmp_path, capsys, k1):
    # m(w) = 2 k1 w^3 / ... is below 1e-12 at w = 1e-3 here: SNI all the same.
    scenario = json.loads((config_dir / "mass_spring_pii2_linear.json").read_text())
    scenario["controller"]["k1"] = k1
    cfg = _write(tmp_path, "small_k1.json", scenario)
    assert cli.main(["check", cfg, "sni"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True
    assert out["evidence"]["den"] == [3.0, 2.0 * k1, 2.0]


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


def _twelve_state_scenario(**overrides):
    """Six collocated modes (12 states): NI, but above the certificate
    search's CERT_MAX_DIM."""
    A, B, C = modal_plant([(1.0 + 0.3 * i, 0.05, 0.3) for i in range(6)])
    plant = {"A": A.tolist(), "B": B.tolist(), "C": C.tolist()}
    return _quick_scenario(
        plant=plant, controller={"type": "higs_irc", "omega_h": 0.5, "k_h": 5.0, "D": -20.0},
        sim={"dt": 1e-3, "t_end": 0.5, "x0": [0.1] * 12},
        checks=["sector", "lyapunov_monotone"], **overrides)


def test_simulate_above_the_certificate_size_cap_is_inconclusive(tmp_path):
    cfg = _write(tmp_path, "twelve.json", _twelve_state_scenario())
    assert cli.main(["simulate", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_CHECK
    assert (tmp_path / "run.csv").exists()
    report = json.loads((tmp_path / "run.report.json").read_text())
    monotone = report["checks"]["lyapunov_monotone"]
    assert monotone["status"] == "inconclusive" and monotone["passed"] is False
    assert "n <= 10, got n = 12" in monotone["reason"]
    assert report["checks"]["sector"]["status"] == "holds"
    assert report["passed"] is False


def test_check_certificate_above_the_size_cap_is_inconclusive(tmp_path, capsys):
    cfg = _write(tmp_path, "twelve.json", _twelve_state_scenario())
    assert cli.main(["check", cfg, "certificate"]) == cli.EXIT_CHECK
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "inconclusive" and out["passed"] is False
    assert out["reason"].startswith("no NI certificate found for the plant: ")
    assert "n <= 10, got n = 12" in out["reason"]


@pytest.mark.parametrize("n", [2, 12])
def test_singular_plant_a_stays_a_config_error(tmp_path, capsys, n):
    # the first row of A vanishes; det A != 0 comes before the size cap
    scenario = _twelve_state_scenario() if n == 12 else _quick_scenario(checks=["lyapunov_monotone"])
    scenario["plant"]["A"][0] = [0.0] * n
    cfg = _write(tmp_path, "singular.json", scenario)
    assert cli.main(["check", cfg, "certificate"]) == cli.EXIT_CONFIG
    assert cli.main(["simulate", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "singular" in capsys.readouterr().err
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("config, which, code, status", [
    ("mass_spring_irc_k20.json", "stability", cli.EXIT_OK, "holds"),
    ("mass_spring_irc_unstable.json", "stability", cli.EXIT_CHECK, "fails"),
    (None, "certificate", cli.EXIT_CHECK, "inconclusive"),
])
def test_check_exit_code_follows_status(config_dir, tmp_path, capsys, config, which, code, status):
    cfg = (str(config_dir / config) if config
           else _write(tmp_path, "twelve.json", _twelve_state_scenario()))
    assert cli.main(["check", cfg, which]) == code
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == status and out["passed"] is (status == "holds")


def test_missing_certificate_makes_lyapunov_monotone_inconclusive(config_dir, tmp_path,
                                                                  monkeypatch):
    # The benchmark reads this shape: a search that finds nothing is never a pass.
    monkeypatch.setattr(lti, "search_ni_certificate", lambda plant: None)
    cfg = str(config_dir / "mass_spring_irc_k20.json")
    assert cli.main(["simulate", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_CHECK
    report = json.loads((tmp_path / "mass_spring_irc_k20.report.json").read_text())
    monotone = report["checks"]["lyapunov_monotone"]
    assert monotone["status"] == "inconclusive" and monotone["passed"] is False
    assert "no NI certificate found" in monotone["reason"]
    assert report["certificate"]["found"] is False
    assert report["passed"] is False
    assert all(report["checks"][name]["passed"] is True
               for name in ("sector", "dissipation", "convergence"))


def test_check_certificate_without_a_found_y_is_inconclusive(config_dir, monkeypatch, capsys):
    monkeypatch.setattr(lti, "search_ni_certificate", lambda plant: None)
    cfg = str(config_dir / "mass_spring_irc_k20.json")
    assert cli.main(["check", cfg, "certificate"]) == cli.EXIT_CHECK
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "inconclusive" and out["passed"] is False
    assert out["reason"] == "no NI certificate found for the plant"
    assert out["margin"] is None and out["evidence"] == {}


def test_unpositive_loop_certificate_fails_lyapunov_monotone(tmp_path):
    # kappa_tilde = 20 / 1.2 > 1 / G(0): the plant's Y = I is found, but the
    # loop form is not positive definite, as the DC condition fails.
    scenario = _quick_scenario(checks=["lyapunov_monotone"], sim={"t_end": 0.5, "x0": [3.0, 1.0]})
    scenario["controller"]["D"] = -0.01
    cfg = _write(tmp_path, "quick.json", scenario)
    assert cli.main(["simulate", cfg, "--out-dir", str(tmp_path)]) == cli.EXIT_CHECK
    monotone = json.loads((tmp_path / "run.report.json").read_text())["checks"]["lyapunov_monotone"]
    assert monotone["status"] == "fails"
    assert monotone["reason"] == "certificate not positive definite at stage: 1/kappa_tilde - C Y C^T > 0"


def _producers(irc20_traj, plant):
    return {
        "sector": lambda: check_sector(irc20_traj),
        "monotone": lambda: check_monotone(irc20_traj),
        "dissipation": lambda: check_dissipation(irc20_traj),
        "convergence": lambda: check_convergence(irc20_traj, 1e-9),
        "ni": lambda: ni_frequency_test(RationalTF((1.0,), (1.0, -1.0))),
        "sni": lambda: sni_verdict(IrcParams(1.0, -1.5)),
        "certificate": lambda: lti.certify_ni(plant),
        "certificate_inconclusive": lambda: lti.certify_ni(
            lti.StateSpace(*modal_plant([(1.0 + i, 0.05, 0.3) for i in range(6)]))),
        "stability": lambda: stability_verdict(plant, HigsIrcParams(0.5, 20.0, -1.0)),
    }


@pytest.mark.parametrize("name", list(_producers(None, None)))
def test_every_check_serializes_to_one_shape(irc20_traj, plant, name):
    v = _producers(irc20_traj, plant)[name]()
    assert isinstance(v, lti.Verdict)
    out = json.loads(cli._dump_json(cli._verdict_json(v)))
    assert set(out) == {"status", "passed", "condition", "margin", "bound", "reason", "evidence"}
    assert out["status"] in ("holds", "fails", "inconclusive")
    assert out["passed"] is (out["status"] == "holds") is v.passed
    # a measured verdict has no reason and a margin; an unmeasured one the reverse
    assert (out["margin"] is None) is (out["status"] == "inconclusive") is bool(out["reason"])


def test_verdict_rejects_an_unknown_status():
    with pytest.raises(ValueError):
        lti.Verdict("passed", "x")


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


@pytest.mark.parametrize("payload", [3, "x", [1], None], ids=["number", "text", "list", "null"])
@pytest.mark.parametrize("command", [["design", "{}", "higs_irc"], ["check", "{}", "stability"],
                                     ["simulate", "{}"], ["sweep", "{}"]],
                         ids=["design", "check", "simulate", "sweep"])
def test_top_level_not_object_exit_config(tmp_path, capsys, payload, command):
    cfg = _write(tmp_path, "bad.json", payload)
    assert cli.main([arg.format(cfg) for arg in command]) == cli.EXIT_CONFIG
    what = {"design": "plant config", "sweep": "sweep config"}.get(command[0], "scenario file")
    assert capsys.readouterr() == ("", f"config error: {what} must contain a JSON object\n")


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


@pytest.mark.parametrize("names, written", [
    (["k20", "k20"], "k20.csv"),
    (["a/k", "b/k"], "k.csv"),
], ids=["same_name", "same_file_name"])
def test_sweep_rejects_runs_writing_one_file(config_dir, tmp_path, capsys, names, written):
    # Each run writes <output_dir>/<basename of its name>.csv: two runs that
    # share it would race for the file and the summary would list one run.
    out = tmp_path / "out"
    sweep = {
        "base": str(config_dir / "mass_spring_irc_k20.json"),
        "output_dir": str(out),
        "runs": [{"name": n, "overrides": {"sim": {"t_end": 0.5}, "checks": ["sector"]}}
                 for n in names],
    }
    cfg = _write(tmp_path, "sweep.json", sweep)
    assert cli.main(["sweep", cfg, "--jobs", "2"]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: sweep runs {names[0]!r} and {names[1]!r} "
                            f"both write {str(out / written)!r}\n")
    assert list(out.iterdir()) == []


_SWEEP_RUN = {"name": "a", "overrides": {"sim": {"t_end": 0.5}, "checks": ["sector"]}}


@pytest.mark.parametrize("fields, message", [
    ({"output_dir": None}, "sweep output_dir must be a nonempty string, got None"),
    ({"output_dir": ""}, "sweep output_dir must be a nonempty string, got ''"),
    ({"jobs": 2}, "unknown key 'jobs' in sweep config (known: base, runs, output_dir)"),
    ({"base": [1]}, "sweep base must be a scenario object or file name, got [1]"),
    ({"runs": [1]}, "sweep runs must be objects, got 1"),
    ({"runs": [{"name": ["a"]}]}, "sweep run name must be a string, got ['a']"),
    ({"runs": [{"name": "a", "overrides": [1]}]},
     "overrides of sweep run 'a' must be an object, got [1]"),
    ({"runs": [_SWEEP_RUN, {"name": "b", "overrides": {"checks": [{"name": "convergence",
                                                                     "threshold": None}]}}]},
     "check 'convergence': threshold must be a number, got None"),
    ({"job": 1}, "unknown key 'job' in sweep config (known: base, runs, output_dir)"),
    ({"runs": [{"name": "a", "overides": {"sim": {"t_end": 0.2}}}]},
     "unknown key 'overides' in sweep run 'a' (known: name, overrides)"),
    ({"runs": [_SWEEP_RUN, {"name": "b", "overrides": {"checks": [{"name": "sector", "rtl": 1}]}}]},
     "unknown key 'rtl' in check 'sector' (known: name)"),
    ({"runs": [_SWEEP_RUN, {"name": "b", "overrides": {"sim": {"record_every": 2.5}}}]},
     "sim record_every must be an integer, got 2.5"),
    ({"runs": [_SWEEP_RUN, {"name": "b", "overrides": {"sim": {"r": 0.5}}}]},
     "unknown key 'r' in sim (known: dt, t_end, x0, controller_x0, record_every)"),
], ids=["output_dir_null", "output_dir_empty", "jobs_unknown", "base_list",
        "run_not_object", "name_not_string", "overrides_list", "run_check_option",
        "unknown_sweep_key", "unknown_run_key", "unknown_run_check_key", "run_sim_record_every",
        "run_sim_r"])
def test_sweep_rejects_malformed_config_before_running(config_dir, tmp_path, monkeypatch, capsys,
                                                      fields, message):
    monkeypatch.chdir(tmp_path)
    sweep = {"base": str(config_dir / "mass_spring_irc_k20.json"), "output_dir": "out",
             "runs": [_SWEEP_RUN]}
    sweep.update(fields)
    cfg = _write(tmp_path, "sweep.json", sweep)
    assert cli.main(["sweep", cfg]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"config error: {message}\n")
    # no run wrote anything
    assert not list(tmp_path.glob("**/*.csv"))


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sweep_rejects_jobs_flag_before_running(config_dir, tmp_path, monkeypatch, capsys, jobs):
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, "sweep.json", {"base": str(config_dir / "mass_spring_irc_k20.json"),
                                          "output_dir": "out", "runs": [_SWEEP_RUN]})
    assert cli.main(["sweep", cfg, "--jobs", jobs]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"config error: sweep jobs must be a positive integer, got {jobs}\n")
    assert not (tmp_path / "out").exists()


def test_sweep_output_dir_that_is_a_file_exit_config(config_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_fan_out", _no_run)
    blocker = tmp_path / "out"
    blocker.write_text("")
    cfg = _write(tmp_path, "sweep.json", {"base": str(config_dir / "mass_spring_irc_k20.json"),
                                          "output_dir": str(blocker), "runs": [_SWEEP_RUN]})
    assert cli.main(["sweep", cfg]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: cannot create output directory {str(blocker)!r}: ")
    assert blocker.read_text() == ""


def test_sweep_outputs_do_not_depend_on_jobs(config_dir, tmp_path, capsys, caplog):
    caplog.set_level(logging.INFO, logger="higsni")
    # Names out of sorted order, so that config order shows in the log.
    gains = {"e": 20.0, "d": 5.0, "c": 1.0, "b": 10.0, "a": 2.0}
    runs = [{"name": name, "overrides": {"controller": {"k_h": k_h}, "sim": {"t_end": 0.5},
                                         "checks": ["sector", "lyapunov_monotone"]}}
            for name, k_h in gains.items()]
    outputs = {}
    for jobs in ("1", "2", "3"):
        out = tmp_path / f"out{jobs}"
        cfg = _write(tmp_path, f"sweep{jobs}.json", {
            "base": str(config_dir / "mass_spring_irc_k20.json"), "output_dir": str(out),
            "runs": runs})
        caplog.clear()
        assert cli.main(["sweep", cfg, "--jobs", jobs]) == 0
        stdout = capsys.readouterr().out
        logged = [r.getMessage().split()[2] for r in caplog.records
                  if r.getMessage().startswith("sweep run")]
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        outputs[jobs] = (stdout.replace(str(out), "OUT"), logged, files)
    assert outputs["1"][1] == ["e", "d", "c", "b", "a"]
    assert len(outputs["1"][2]) == 10
    assert outputs["2"] == outputs["1"]
    assert outputs["3"] == outputs["1"]


def test_sweep_keeps_a_diverging_runs_exit_code(config_dir, tmp_path, capsys):
    unstable = json.loads((config_dir / "mass_spring_irc_unstable.json").read_text())
    sweep = {"base": str(config_dir / "mass_spring_irc_k20.json"),
             "output_dir": str(tmp_path / "out"),
             "runs": [{"name": "stable", "overrides": {"sim": {"t_end": 0.5}, "checks": ["sector"]}},
                      {"name": "diverges", "overrides": {"controller": unstable["controller"],
                                                         "checks": []}}]}
    cfg = _write(tmp_path, "sweep.json", sweep)
    assert cli.main(["sweep", cfg, "--jobs", "2"]) == cli.EXIT_RUNTIME
    summary = json.loads(capsys.readouterr().out)
    assert summary["runs"] == {"stable": 0, "diverges": cli.EXIT_RUNTIME}
    assert summary["passed"] is False


def test_sweep_names_a_run_whose_worker_died(config_dir, tmp_path, monkeypatch, capfd):
    # Worker 0 of two runs a then c; c raises an error no exit code maps.
    simulate = cli._simulate_scenario

    def fail_on_c(cfg, out_dir):
        if cfg.name == "c":
            raise TypeError("injected")
        return simulate(cfg, out_dir)

    monkeypatch.setattr(cli, "_simulate_scenario", fail_on_c)
    out = tmp_path / "out"
    sweep = {"base": str(config_dir / "mass_spring_irc_k20.json"), "output_dir": str(out),
             "runs": [{"name": n, "overrides": {"sim": {"t_end": 0.2}, "checks": ["sector"]}}
                      for n in "abc"]}
    cfg = _write(tmp_path, "sweep.json", sweep)
    assert cli.main(["sweep", cfg, "--jobs", "2"]) == cli.EXIT_RUNTIME
    assert sorted(p.name for p in out.iterdir()) == [
        "a.csv", "a.report.json", "b.csv", "b.report.json"]
    err = capfd.readouterr().err
    assert "TypeError: injected" in err
    assert err.endswith("runtime failure: sweep run 'c' did not finish: its worker "
                        "exited with status 1\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_killed_worker_exit_runtime(config_dir, tmp_path, monkeypatch, capsys):
    worker = cli._sweep_worker

    def killed_on_k5(task):
        if task[0] == "k5":
            os.kill(os.getpid(), signal.SIGKILL)
        return worker(task)

    monkeypatch.setattr(cli, "_sweep_worker", killed_on_k5)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["sweep", str(config_dir / "sweep_gain.json"), "--jobs", "2"]) == cli.EXIT_RUNTIME
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("runtime failure: sweep run 'k5' did not finish: its worker "
                   "exited with status -9\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("jobs, pinned", [(1, True), (3, True), (1, False), (3, False), (None, False)],
                         ids=["1", "3", "unpinned-1", "unpinned-3", "unpinned-None"])
def test_fan_out_returns_every_code_in_task_order(monkeypatch, jobs, pinned):
    # 20 000 report lines fill the workers' pipe several times over.
    monkeypatch.setattr(cli, "_sweep_worker", lambda task: int(task[0]) % 4)
    if not pinned:    # a platform without CPU affinity (macOS)
        monkeypatch.delattr(os, "sched_setaffinity")
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)    # jobs None: two workers
    tasks = [(str(k), None, None) for k in range(20_000)]
    assert cli._fan_out(tasks, jobs) == [k % 4 for k in range(20_000)]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def test_log_setting_that_names_no_level_falls_back_to_warning(config_dir, monkeypatch):
    # In process, pytest's handlers on the root logger make basicConfig a no-op.
    monkeypatch.setenv("HIGSNI_LOG", "basic_format")
    cfg = str(config_dir / "mass_spring_irc_k20.json")
    proc = subprocess.run([sys.executable, "-m", "higsni", "check", cfg, "stability"],
                          capture_output=True, text=True, cwd=str(REPO_ROOT))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


@pytest.mark.parametrize("snippet", [
    "pass",
    "assert higsni.cli.main(['simulate', 'configs/mass_spring_irc_linear.json', '--out-dir', OUT]) == 0",
], ids=["import", "linear_simulate"])
def test_cli_import_leaves_scipy_unloaded(tmp_path, snippet):
    # Every CLI invocation pays the import, and every linear simulate and
    # sweep worker runs the linear loop: neither may load scipy, nor
    # fractions and decimal, which only a test-side closed form uses.  The
    # CSV writer's orjson, with the uuid and zoneinfo it loads, stays off the
    # import itself.
    code = (f"import sys, higsni.cli; OUT = {str(tmp_path)!r}; {snippet}; "
            "print([m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'fractions', 'decimal')]); "
            "print([m for m in sys.modules "
            "if m.split('.')[0] in ('orjson', 'uuid', 'zoneinfo')])")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, cwd=str(REPO_ROOT))
    assert proc.returncode == 0, proc.stderr
    scipy_etc, orjson_etc = proc.stdout.splitlines()
    assert scipy_etc == "[]"
    if snippet == "pass":
        assert orjson_etc == "[]"


def test_cli_main_freezes_the_imported_heap(tmp_path):
    # Frozen objects are skipped by every collection, the final ones at exit too.
    cfg = _write(tmp_path, "quick.json", _quick_scenario(checks=[]))
    code = ("import gc, higsni.cli; assert gc.get_freeze_count() == 0; "
            f"assert higsni.cli.main(['simulate', {cfg!r}, '--out-dir', {str(tmp_path)!r}]) == 0; "
            "print(gc.get_freeze_count())")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, cwd=str(REPO_ROOT))
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0


def test_cli_import_leaves_process_pool_unloaded(config_dir, tmp_path):
    # Sweep forks its workers itself: no command pays the import of
    # concurrent.futures.process and multiprocessing, not even sweep.
    cfg = _write(tmp_path, "sweep.json", {
        "base": str(config_dir / "mass_spring_irc_k20.json"), "output_dir": str(tmp_path / "out"),
        "runs": [{"name": n, "overrides": {"sim": {"t_end": 0.2}, "checks": []}} for n in "ab"]})
    pool = ("[m for m in sys.modules "
            "if m.split('.')[0] == 'multiprocessing' or m == 'concurrent.futures.process']")
    code = (f"import sys, higsni.cli; print({pool}, file=sys.stderr); "
            f"assert higsni.cli.main(['sweep', {cfg!r}, '--jobs', '2']) == 0; "
            f"print({pool}, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, cwd=str(REPO_ROOT))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == ["[]", "[]"]
    assert json.loads(proc.stdout)["runs"] == {"a": 0, "b": 0}


@pytest.mark.parametrize("name", sorted(p.name for p in (REPO_ROOT / "configs").glob("*.json")))
def test_shipped_configs_load(config_dir, tmp_path, monkeypatch, capsys, name):
    # Unknown keys are config errors; no shipped config may carry one.
    path = str(config_dir / name)
    if "base" not in json.loads((config_dir / name).read_text()):
        cli.load_scenario(path)
        return
    monkeypatch.chdir(tmp_path)
    loaded = []

    def fan_out(tasks, jobs):
        loaded.extend(tasks)
        return [0] * len(tasks)

    monkeypatch.setattr(cli, "_fan_out", fan_out)
    assert cli.cmd_sweep(path) == 0
    assert [task[0] for task in loaded] == ["k20", "k5"]
