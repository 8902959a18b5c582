"""Tests of the benchmark itself.  Run: python3 -m pytest perfbench/tests -q

They run real ops, so they take about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402

# Counts that depend only on the generated inputs, never on timing.
EXACT = [
    "sim.steps", "sim.switches", "sim.csv_rows", "sim.csv_bytes",
    "sim.loop.guard_calls", "sim.loop.record_calls", "sim.loop.map_builds",
    "sim.loop.events", "sim.loop.event_probes", "higs.mode_calls",
    "higs.projection_calls", "controllers.mode_update_calls",
    "controllers.resolve_calls", "lti.cert_search_calls", "lti.cert_found_ratio",
]


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_metric_tables_match_benchmark_json():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(EXACT) <= set(run.PER_LAYER)


def test_printed_end_to_end_names_match_benchmark_json():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hybrid_single", "--seed", "5",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    res = _last_json(out.stdout)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == 2
    assert list(res["metrics"]) == [m["name"] for m in _spec()["end_to_end"]]
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_counts_repeat_exactly_and_appear_on_a_second_seed():
    first = run.measure("hybrid_bank", 3, 0, trace=True)["result"]
    again = run.measure("hybrid_bank", 3, 0, trace=True)["result"]
    other = run.measure("hybrid_bank", 4, 0, trace=True)["result"]
    for res in (first, again, other):
        assert res["correct"], res
        assert list(res["metrics"]) == [m["name"] for m in _spec()["per_layer"]]
    for name in EXACT:
        assert first["metrics"][name] == again["metrics"][name], name
    for name in ("sim.steps", "sim.switches", "sim.loop.events", "sim.loop.event_probes",
                 "controllers.resolve_calls"):
        assert other["metrics"][name]["value"] > 0, name


def test_wrong_expectation_counts_as_failure(tmp_path):
    pool = workloads.generate("hybrid_single", 7, str(tmp_path))
    pool[0].expect["checks"]["sector"] = False   # the theory says True
    res = run.measure("hybrid_single", 7, 0, trace=False, pool=pool)["result"]
    assert res["attempted"] == 2 and res["failed"] == 1 and not res["correct"]
    assert res["metrics"]["ok_ratio"]["value"] == 0.5


def test_generator_is_deterministic(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.generate(name, 11, str(tmp_path / "a" / name))
        b = workloads.generate(name, 11, str(tmp_path / "b" / name))
        assert [op.expect for op in a] == [op.expect for op in b]
        for fa, fb in zip(sorted(os.listdir(tmp_path / "a" / name)),
                          sorted(os.listdir(tmp_path / "b" / name))):
            assert (tmp_path / "a" / name / fa).read_bytes() == (tmp_path / "b" / name / fb).read_bytes()


def test_tail_keeps_ten_samples_beyond_or_falls_back_to_the_median():
    assert run.tail(list(range(30, 0, -1))) == (20, 20, 30)
    assert run.tail(list(range(20, 0, -1))) == (10, 10, 20)
    assert run.tail([3.0, 1.0, 2.0, 4.0]) == (2.0, 2, 4)


def test_parse_importtime_attributes_nested_scipy_once():
    lines = [
        "import time: self [us] | cumulative | imported package\n",
        "import time:        10 |         10 |       scipy._lib\n",
        "import time:         5 |         15 |     scipy\n",
        "import time:        20 |         20 |       numpy.linalg\n",
        "import time:       100 |        120 |     scipy.optimize\n",
        "import time:         7 |        150 |   higsni.lti\n",
        "import time:         3 |        153 | higsni\n",
    ]
    assert run.parse_importtime(lines) == {"scipy_s": 135e-6, "total_s": 153e-6}


@pytest.mark.parametrize("trace", ["0", "1"])
def test_fails_without_the_program(tmp_path, trace):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_run", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hybrid_single", "--seed", "1",
         "--seconds", "1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
