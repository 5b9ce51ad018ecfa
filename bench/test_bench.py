"""Smoke tests of the benchmark itself: ``python -m pytest bench``.

They run every workload at tiny sizes through the launcher, and check the
failure accounting in-process with the program's functions replaced.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import workloads
from acbound.bound_engine import LossSetExhaustedError
from acbound.entropy_model import ComponentKind

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def launch(*args, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def smoke_args(workload: str) -> list[str]:
    return ["--workload", workload, "--seed", "3", "--seconds", "0", "--smoke"]


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()
    }
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(workloads.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    done = launch(*smoke_args(workload), "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in named
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_failed_check_lowers_pass_ratio(monkeypatch):
    # paper cells go through upper_limit, random vectors through solve_limit
    monkeypatch.setattr(workloads, "upper_limit", lambda *args: SimpleNamespace(limit=0))
    result = workloads.run(workloads.parse_args(smoke_args("limits_cold")))
    cell_limits = 3 * len(workloads.SMOKE.cells)
    assert result["attempted"] == cell_limits + 3 and result["failed"] == cell_limits
    assert "limit 0, expected" in result["failures"][0]
    assert run.end_to_end(result, [1.0])["pass_ratio"] == 3 / (cell_limits + 3)


def test_raising_call_counts_as_failed_and_run_goes_on(monkeypatch):
    calls = []

    def exhausted(ref, level):
        calls.append(level)
        raise LossSetExhaustedError("needed 48 loss copies, have 47")

    monkeypatch.setattr(workloads, "solve_limit", exhausted)
    result = workloads.run(workloads.parse_args(smoke_args("limits_cold")))
    assert len(calls) == 3  # every level of the random vector was still tried
    cell_limits = 3 * len(workloads.SMOKE.cells)
    assert result["attempted"] == cell_limits + 3 and result["failed"] == 3
    assert "LossSetExhaustedError" in result["failures"][0]
    assert run.end_to_end(result, [1.0])["pass_ratio"] == cell_limits / (cell_limits + 3)


def test_pinned_limits_are_the_acceptance_suite_values():
    spec = importlib.util.spec_from_file_location(
        "acceptance", ROOT / "tests" / "test_acceptance.py")
    acceptance = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(acceptance)
    for component in ComponentKind:
        for sf in acceptance.SF_SET:
            pinned = {
                level: workloads.pinned_limit(component, sf, level)
                for level in workloads.Refinement
            }
            cell = acceptance.DISCREPANT_CELLS.get((component, sf))
            if cell is not None:
                assert pinned == cell["engine"]
            else:
                reference = acceptance.REFERENCE_LIMITS[component][sf]
                assert set(pinned.values()) == {reference}


def test_refuses_to_run_without_the_program():
    isolated = BENCH / "out" / "isolated"
    shutil.rmtree(isolated, ignore_errors=True)
    shutil.copytree(BENCH, isolated / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", isolated)
    try:
        done = launch(*smoke_args("limits_cold"), "--trace", "0", root=isolated)
    finally:
        shutil.rmtree(isolated)
    assert done.returncode != 0
    assert done.stdout == ""
