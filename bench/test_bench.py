"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
The smoke runs use ``--tiny`` resolutions and take a few seconds each.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
from multibump import pipeline  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    *table, last = done.stdout.splitlines()
    result = json.loads(last)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.split()[0] == metric["name"] for line in table[1:])
    assert any(line.split()[0] == "failed_ratio" for line in table[1:])


def _measure_tiny(tmp_path, name, use_reference=False):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(WORKLOADS[name].config(0, tiny=True)))
    return worker.measure(WORKLOADS[name], config, tmp_path, seconds=0.0,
                          trace=False, use_reference=use_reference)


def test_corrupted_solution_file_fails_the_operation(tmp_path, monkeypatch):
    write = pipeline.write_solution_csv

    def write_corrupted(path, values, grid):
        write(path, values, grid)
        rows = Path(path).read_text().splitlines()
        middle = len(rows) // 2
        rows[middle] = rows[middle].rsplit(",", 1)[0] + ",2.0"  # u above s* = 1
        Path(path).write_text("\n".join(rows) + "\n")

    monkeypatch.setattr(pipeline, "write_solution_csv", write_corrupted)
    samples = _measure_tiny(tmp_path, "square-descent")
    assert samples["attempted"] == 2
    assert samples["failed"] == 2
    assert samples["samples"] == []


def test_gate_compares_with_the_references(tmp_path):
    # The references hold at the stored resolution only, so a tiny run
    # that is checked against them must fail.
    assert _measure_tiny(tmp_path, "shell3d")["failed"] == 0
    assert _measure_tiny(tmp_path, "shell3d", use_reference=True)["failed"] == 2
