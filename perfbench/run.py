#!/usr/bin/env python3
"""Benchmark of the Crescent reproduction: one workload per run.

    python3 perfbench/run.py --workload hwsim|train|serve|drift|all \\
        --seed N --seconds S --trace 0|1

Each workload runs in fresh interpreters with one BLAS thread.  With
``--trace 0`` the workload is set up five times, in five processes, and
``setup_s`` is their median; the last process then times ops for
``--seconds`` of op wall time (and at least the workload's ``min_ops``)
and reports the end-to-end metrics.  Times are the process's CPU time,
which leaves out the time a shared virtual machine's hypervisor gives to
other guests; the op wall time is printed beside it.  With
``--trace 1`` one process runs with the layer wrappers of
``perfbench/tracing.py`` installed and reports the per-layer metrics.
Every metric is printed by name and unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs the four workloads one after the
other.  Run from anywhere; the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("hwsim", "train", "serve", "drift")
SETUPS = 5  # set-ups per untraced run; setup_s is their median
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    )
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int, setup_only: bool) -> dict:
    cmd = [
        sys.executable, "-m", "perfbench.child", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    timeout = SETUP_TIMEOUT_S if setup_only else RUN_TIMEOUT_S
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: child process exceeded {timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: child process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    """One run of one workload: the result object for the last line."""
    if trace:
        result = run_child(workload, seed, seconds, 1, setup_only=False)
        metrics = result["layers"]
        names = [m["name"] for m in spec["per_layer"]]
        missing = sorted(set(result["missing"]) | (set(names) - set(metrics)))
        print(f"{workload}: per-layer metrics missing: {', '.join(missing) or 'none'}")
        metrics = {name: metrics[name] for name in names if name in metrics}
    else:
        setups = [
            run_child(workload, seed, seconds, 0, setup_only=True)["setup_s"]
            for _ in range(SETUPS - 1)
        ]
        result = run_child(workload, seed, seconds, 0, setup_only=False)
        setups.append(result["setup_s"])
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": result["ops_per_s"],
            "p50_ms": result["p50_ms"],
            "tail_ms": result["tail_ms"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]
        }
        print(f"{workload}: tail_ms is p{result['tail_pct']}; set-up times {[round(s, 4) for s in setups]}")
        print(f"{workload}: op CPU time {result['busy_s']:.2f} s in {result['wall_busy_s']:.2f} s "
              f"of wall time; speed factor {result['speed']:.4f} from {result['calibrations']} "
              f"calibrations; unscaled p50 {result['cpu_p50_ms']:.4g} ms CPU, "
              f"{result['wall_p50_ms']:.4g} ms wall")
    print(f"{workload}: seed {seed}, environment {json.dumps(result['env'], sort_keys=True)}")
    if result.get("notes"):
        print(f"{workload}: notes {json.dumps(result['notes'], sort_keys=True)}")
    print(f"{workload}: ops_attempted = {result['ops']}")
    print(f"{workload}: ops_failed = {result['failed']}")
    if result["failed_probes"]:
        print(f"{workload}: {result['failed_probes']} of the failed ops are probes of a known "
              "fault (perfbench/README.md); they are not timed")
    for name, m in metrics.items():
        print(f"{workload}: {name} = {m['value']:.6g} {m['unit']}")
    return {
        # Only a failed op that is not a probe makes the outputs wrong.
        "correct": result["failed"] == result["failed_probes"],
        "attempted": result["ops"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="op time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    try:
        if args.workload != "all":
            print(json.dumps(measure(args.workload, args.seed, seconds, args.trace, spec)))
            return 0
        results = {w: measure(w, args.seed, seconds, args.trace, spec) for w in WORKLOADS}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
