"""Run one workload in this interpreter; print its figures as one JSON line.

    python3 -m perfbench.child --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

``perfbench/run.py`` starts it from the repository root with ``src`` and
the root on ``PYTHONPATH``.  Set-up time is this process's CPU time up to
the first timed op, so it includes the interpreter's start and the
imports of numpy and ``repro``.
"""

import argparse
import json


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from perfbench.workloads import run_workload

    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), setup_only=args.setup_only,
    )
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
