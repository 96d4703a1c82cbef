#!/usr/bin/env python3
"""End-to-end benchmark of the dynriver analysis host: build, run, check.

Usage (from the root of a checkout):

    python3 e2ebench/run.py --workload live_tcp --seed 1 --seconds 10 --trace 0

Builds the benchmark and the dynriver libraries from source into
.bench_build/e2ebench (first run only; later runs rebuild what changed),
runs one workload in its own process, and forwards its report. The last line
of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; it is checked against
BENCHMARK.json (every end-to-end metric untraced, every per-layer metric
traced, with the declared units) before it is printed.

Exit codes: 0 correct, 1 an output differed from the reference, 2 the build
or the run failed (no result line is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
RUN_TIMEOUT_S = 170


def fail(msg: str) -> int:
    print(f"e2ebench/run.py: {msg}", file=sys.stderr)
    return 2


def build() -> Path | None:
    """Configure once, then build the driver; all tool output to stderr."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if _have("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "e2ebench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return BUILD / "e2ebench"


def _have(tool: str) -> bool:
    return any((Path(d) / tool).exists()
               for d in os.environ.get("PATH", "").split(os.pathsep) if d)


def git_stamp() -> str:
    """Commit and dirty flag of the checkout; "none" outside a git tree."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "describe", "--always",
                              "--dirty"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def check_result(line: str, trace: bool) -> str | None:
    """Why `line` breaks the result contract of BENCHMARK.json, or None."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        result = json.loads(line)
    except (OSError, json.JSONDecodeError) as err:
        return f"unreadable result or BENCHMARK.json: {err}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if not isinstance(result["correct"], bool):
        return "correct is not a bool"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            return f"{key} is not a whole number"
    if result["attempted"] < 1:
        return "nothing attempted"
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
    for name, metric in metrics.items():
        if set(metric) != {"value", "unit"} or metric["unit"] != declared[name]:
            return f"metric {name}: {metric}"
        if not isinstance(metric["value"], (int, float)):
            return f"metric {name} is not a number"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return fail("build failed")

    out_dir = BUILD / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(out_dir / f"work-{tag}"),
           "--report", str(out_dir / f"{tag}.report.json"),
           "--spans", str(out_dir / f"{tag}.spans.jsonl"),
           "--git", git_stamp()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stdout)
        return fail(f"run failed with exit code {proc.returncode}")
    problem = check_result(lines[-1], bool(args.trace))
    if problem is not None:
        sys.stderr.write(proc.stdout)
        return fail(problem)
    print("\n".join(lines))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
