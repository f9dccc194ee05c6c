#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and report the spread.

    python3 perfbench/steady.py [--workloads hwsim train serve drift]
        [--runs 10] [--seed0 100] [--seconds S] [--out set.json] [--compare earlier.json]

Each run is ``perfbench/run.py --workload W --seed N --trace 0`` with its
own seed.  For every end-to-end metric this prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` against the metric's bound in ``BENCHMARK.json``:
``steady`` below a third of the bound, ``within`` below the bound, ``WIDE``
above it.  ``--out`` saves the raw values; ``--compare`` flags each median
worse than an earlier set's by more than its bound (``WORSE``) and each
share of failed ops that differs from the earlier set's.  The last line
gives the worst verdict of all.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERDICTS = ("steady", "within", "WIDE", "WORSE")  # from best to worst


def run_once(workload: str, seed: int, seconds) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--compare", type=Path, default=None)
    args = parser.parse_args()
    earlier = json.loads(args.compare.read_text()) if args.compare else {}

    raw = {}
    verdicts = ["steady"]
    for workload in args.workloads:
        runs, walls = [], []
        for k in range(args.runs):
            t0 = time.perf_counter()
            runs.append(run_once(workload, args.seed0 + k, args.seconds))
            walls.append(time.perf_counter() - t0)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        raw.setdefault("failed_shares", {})[workload] = shares
        attempted = [r["attempted"] for r in runs]
        print(f"{workload}: {args.runs} runs, ops attempted {min(attempted)}-{max(attempted)}, "
              f"failed shares {shares}, wall per run {min(walls):.1f}-{max(walls):.1f} s")
        if workload in earlier.get("failed_shares", {}) and earlier["failed_shares"][workload] != shares:
            print(f"  failed shares differ from earlier {earlier['failed_shares'][workload]} WORSE")
            verdicts.append("WORSE")
        raw[workload] = {}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            raw[workload][name] = values
            median, q1, q3, s = spread(values)
            verdict = "steady" if s < bound / 3 else "within" if s <= bound else "WIDE"
            verdicts.append(verdict)
            line = (f"  {name:12s} median {median:10.4f} {m['unit']:4s} q1 {q1:10.4f} q3 {q3:10.4f} "
                    f"spread {s:6.3f} bound {bound:.2f} {verdict}")
            if workload in earlier and name in earlier[workload]:
                before = statistics.median(earlier[workload][name])
                change = (median - before) / before * (1 if m["better"] == "lower" else -1)
                line += f"  vs earlier {change:+.3f}"
                if change > bound:
                    line += " WORSE"
                    verdicts.append("WORSE")
            print(line, flush=True)
    if args.out:
        args.out.write_text(json.dumps(raw, indent=1) + "\n")
    print(f"overall: {max(verdicts, key=VERDICTS.index)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
