"""agelex benchmark: one workload run, printed as a report and a JSON line.

    python3 perfbench/run.py --workload classify-short --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from its
src/ directory, nothing needs installing.  Each run:

1. writes the workload's seeded inputs (and, for classify-short and
   score-long, trains the artifacts) in a child process;
2. with --trace 0, times set-up in 11 fresh processes, then runs the
   workload in a fresh process and reports every end-to-end metric;
3. with --trace 1, runs the workload untraced for half of --seconds, then
   again with layer spans over the same inputs, and reports every
   per-layer metric.

Every time is scaled to a reference machine by calibrate.py, which takes
out the speed drift of a shared host.

Everything written goes to a temporary directory inside the checkout,
removed at exit.  The last line of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}; the lines before it are
the human-readable report.  Metric definitions are in spec.json.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
from inputs import SIZES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
SETUP_PROBES = 11
RUN_BUDGET_S = 170.0


class RunError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(SPEC["environment"]["blas_threads"])
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = threads
    env["PYTHONHASHSEED"] = str(SPEC["environment"]["hash_seed"])
    return env


class Children:
    """Runs the benchmark's child processes one at a time, each waited
    for, under one deadline for the whole run."""

    def __init__(self, budget_s: float):
        self.deadline = time.monotonic() + budget_s
        self.env = child_env()

    def run(self, script: str, *args) -> None:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunError("time budget exhausted")
        cmd = [sys.executable, str(HERE / script), *map(str, args)]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, timeout=remaining,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            raise RunError(f"{script} did not finish within the run's time budget")
        if proc.returncode != 0:
            raise RunError(f"{script} exited with {proc.returncode}:\n{proc.stderr.strip()}")

    def worker(self, tmp: Path, name: str, args, *extra, seconds: float | None = None) -> dict:
        out = tmp / f"{name}.json"
        self.run("worker.py", "--workload", args.workload, "--inputs", tmp / "inputs",
                 "--seed", args.seed, "--size", args.size,
                 "--seconds", args.seconds if seconds is None else seconds,
                 "--out", out, *extra)
        return json.loads(out.read_text(encoding="utf-8"))


def scale(result: dict) -> float:
    """Mean factor from the process's wall-clock times to reference-machine
    times: per operation in a timed phase, from one probe after set-up."""
    if "raw_timed_s" in result:
        return result["timed_s"] / result["raw_timed_s"] if result["raw_timed_s"] > 0 else 1.0
    return calibrate.REFERENCE_MS / result["calibration_ms"]


def end_to_end(setups: list[dict], result: dict) -> dict:
    latency = result["latency"] or {"p50_ms": 0.0, "p90_ms": 0.0}
    timed_s = result["timed_s"]
    return {
        "setup_s": statistics.median(probe["setup_s"] * scale(probe) for probe in setups),
        "latency_p50_ms": latency["p50_ms"],
        "latency_p90_ms": latency["p90_ms"],
        "throughput_docs_per_s": result["docs"] / timed_s if timed_s > 0 else 0.0,
        "accuracy": result["accuracy"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    spans, setup = traced["spans"], traced["setup_spans"]
    units = max(1, traced["units"])
    counts = spans["counts"]
    k = scale(traced)
    values = {}
    for metric in SPEC["per_layer"]:
        kind = metric["kind"]
        if kind == "setup":
            value = setup["total_ns"].get(metric["span"], 0) / 1e6 * k
        elif kind in ("self", "total"):
            value = spans[f"{kind}_ns"].get(metric["span"], 0) / 1e6 / units * k
        elif kind == "count":
            value = counts.get(metric["count"], 0) / units
        elif kind == "mean_count":
            value = counts.get(metric["count"], 0) / max(1, counts.get(metric["per"], 0))
        elif kind == "passes":
            value = counts.get("passes", 0) / max(1, traced["docs"])
        else:
            continue
        values[metric["name"]] = value
    op_ms = traced["timed_s"] * 1000.0 / units
    untraced_op_ms = untraced["timed_s"] * 1000.0 / max(1, untraced["units"])
    values["trace.op_ms"] = op_ms
    values["trace.untraced_op_ms"] = untraced_op_ms
    values["trace.overhead_ms"] = op_ms - untraced_op_ms
    values["trace.overhead_pct"] = 100.0 * (op_ms - untraced_op_ms) / untraced_op_ms
    values["trace.coverage_pct"] = (100.0 * sum(spans["self_ns"].values()) / 1e9
                                    / traced["raw_timed_s"])
    return values


def print_report(args, results: list[dict], metrics: dict, units: dict) -> None:
    first = results[0]
    print(f"# agelex benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} size={args.size}")
    print(f"# environment: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={first['numpy']} blas_threads={SPEC['environment']['blas_threads']}")
    print(f"# operation: {first['op']}; {first['ops']} run, {first['units']} layer units")
    print(f"# inputs: {json.dumps(first['inputs'])}")
    passes = ("untraced", "traced") if args.trace else ("run",)
    for label, result in zip(passes, results):
        raw = result["raw_latency"] or {"p50_ms": 0.0, "p90_ms": 0.0}
        print(f"# calibration [{label}]: block {result['calibration_ms']:.4f} ms "
              f"(median of {result['calibration_ticks']} ticks), mean scale {scale(result):.4f} "
              f"to the {calibrate.REFERENCE_MS} ms reference; raw wall clock p50 "
              f"{raw['p50_ms']:.4f} ms, p90 {raw['p90_ms']:.4f} ms, "
              f"timed {result['raw_timed_s']:.3f} s")
        for name, (ok, detail) in result["checks"].items():
            print(f"# check [{label}] {name}: {'ok' if ok else 'FAILED'} ({detail})")
        for error in result["errors"]:
            print(f"# error: {error}")
    for name, value in metrics.items():
        print(f"{name:36s} {value:14.6f} {units[name]}")
    if args.trace:
        spans = results[-1]["spans"]
        wall_ns = results[-1]["raw_timed_s"] * 1e9
        k = scale(results[-1])
        print("# layer spans (traced pass): name, calls, self ms per unit (reference "
              "machine), share of traced time")
        for span, self_ns in sorted(spans["self_ns"].items(), key=lambda kv: -kv[1]):
            print(f"#   {span:32s} {spans['calls'][span]:9d} "
                  f"{self_ns / 1e6 / max(1, results[-1]['units']) * k:12.4f} "
                  f"{100.0 * self_ns / wall_ns:6.1f}%")
        return
    result = results[0]
    latency = result["latency"]
    if latency:
        print(f"# latency samples: {latency['samples']} operations, "
              f"{latency['beyond_p90']} beyond p90")
    for kind, summary in result.get("by_model", {}).items():
        print(f"# {kind}: p50 {summary['p50_ms']:.4f} ms, p90 {summary['p90_ms']:.4f} ms "
              f"over {summary['samples']} requests")
    if args.workload == "experiment" and latency:
        print(f"{'experiment_s':36s} {latency['p50_ms'] / 1000.0:14.6f} s")
        print(f"{'grid_f1_mean':36s} {result['grid_f1_mean']:14.6f} ratio")
    rate = result["failed"] / max(1, result["attempted"])
    print(f"{'error_rate':36s} {rate:14.6f} ratio "
          f"({result['failed']} of {result['attempted']} attempted)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one agelex benchmark workload")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=tuple(SIZES),
                        help="input size; tiny is for the benchmark's own smoke tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "agelex" / "__init__.py").is_file():
        print(f"error: no agelex sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    children = Children(RUN_BUDGET_S)
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as name:
            tmp = Path(name)
            children.run("inputs.py", "--workload", args.workload, "--seed", args.seed,
                         "--size", args.size, "--out", tmp / "inputs")
            if args.trace:
                # the two passes share the run's time
                untraced = children.worker(tmp, "untraced", args, seconds=args.seconds / 2)
                traced = children.worker(tmp, "traced", args, "--trace",
                                         "--ops", untraced["ops"])
                results = [untraced, traced]
                metrics = per_layer(untraced, traced)
                units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
            else:
                setups = [children.worker(tmp, f"setup{i}", args, "--setup-only")
                          for i in range(SETUP_PROBES)]
                results = [children.worker(tmp, "run", args)]
                metrics = end_to_end(setups, results[0])
                units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print_report(args, results, metrics, units)
    print(json.dumps({
        "correct": all(ok for r in results for ok, _ in r["checks"].values()),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
