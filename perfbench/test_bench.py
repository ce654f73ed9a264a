"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cells
import run

HERE = Path(__file__).resolve().parent

TINY = {
    "ior-closed": {"clients": (4, 8), "requests_per_process": 2, "request_size": 512 * cells.KiB},
    "btio-collective": {"processes": (4, 16), "grid": 16, "timesteps": 10, "write_interval": 5},
    "replay-open": {
        "ranks": 4,
        "requests": 2048,
        "request_size": 64 * cells.KiB,
        "parity_requests": 128,
    },
}


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    monkeypatch.setattr(cells, "SIZES", TINY)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def _run(capsys, *args: str) -> tuple[dict, list[str]]:
    assert run.main(["--seconds", "0", *args]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(capsys, trace, kind):
    result, _ = _run(capsys, "--workload", "all", "--trace", trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = run.declared_metrics()[kind]
    expected = {f"{w}.{m}": unit for w in cells.WORKLOADS for m, unit in declared.items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_same_seed_gives_identical_simulated_outputs(capsys):
    first, first_lines = _run(capsys, "--seed", "3", "--trace", "0")
    second, second_lines = _run(capsys, "--seed", "3", "--trace", "0")
    cells_first = [line for line in first_lines if line.startswith('{"cell"')]
    assert cells_first
    assert cells_first == [line for line in second_lines if line.startswith('{"cell"')]
    for name in cells.WORKLOADS:
        for metric in ("harl_gain_min", "harl_gain_geomean"):
            key = f"{name}.{metric}"
            assert first["metrics"][key] == second["metrics"][key]

    units = run.declared_metrics()["per_layer"]
    simulated = [m for m, unit in units.items() if unit != "s" and m != "trace.phase_coverage"]
    first, _ = _run(capsys, "--seed", "3", "--trace", "1")
    second, _ = _run(capsys, "--seed", "3", "--trace", "1")
    for name in cells.WORKLOADS:
        for metric in simulated:
            key = f"{name}.{metric}"
            assert first["metrics"][key] == second["metrics"][key], key


def test_traced_phases_account_for_the_traced_wall_time(capsys):
    result, _ = _run(capsys, "--workload", "btio-collective", "--trace", "1")
    assert result["metrics"]["trace.phase_coverage"]["value"] > 0.95
    assert result["metrics"]["collective.calls"]["value"] > 0


def test_program_switches_are_cleared(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_BATCH_FAST", "0")
    result, _ = _run(capsys, "--workload", "replay-open", "--trace", "1")
    assert "REPRO_BATCH_FAST" not in os.environ
    assert result["metrics"]["batch_exec.batches_general"]["value"] == 0


def test_readme_covers_every_workload_and_metric():
    text = (HERE / "README.md").read_text()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert [n for n in names if f"`{n}`" not in text] == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ior-closed", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
