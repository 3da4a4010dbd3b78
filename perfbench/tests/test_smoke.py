"""Smoke tests of the benchmark at its tiny input size.

    python3 -m pytest perfbench/tests -q

Each workload runs once untraced and once traced; the printed metric
names and units must be exactly the ones BENCHMARK.json declares.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SPEC = json.loads((BENCH_DIR / "spec.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def units_of(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_spec_agrees_with_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOADS
    assert [w["why"] for w in SPEC["workloads"]] == [w["why"] for w in BENCHMARK["workloads"]]
    for section, keys in (("end_to_end", ("name", "unit", "better", "bound")),
                          ("per_layer", ("name", "unit", "better"))):
        assert [{k: m[k] for k in keys} for m in SPEC[section]] == BENCHMARK[section]
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_declared_metrics(workload, trace, section):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = units_of(section)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    report = "\n".join(lines[:-1])
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in report.splitlines()), name
    if trace:
        if workload != "experiment":
            # baseline+all artifacts tokenize each document twice
            assert result["metrics"]["text_analysis.passes_per_doc"]["value"] == 2.0
    else:
        assert "error_rate" in report


def test_fails_without_library_sources():
    with tempfile.TemporaryDirectory(prefix=".perfbench-test-", dir=ROOT) as name:
        bare = Path(name)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        proc = run_bench(bare, "classify-short", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
