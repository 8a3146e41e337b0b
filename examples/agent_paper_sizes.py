#!/usr/bin/env python
"""Time the LLM agent at the paper's sizes, this checkout against another.

The tracked ``agent_react`` benchmark queues 150 jobs at t = 0; the
paper runs 10-100 jobs with scenario arrivals, where queues are a
handful deep and fixed per-decision costs matter most. This script
times the seven paper scenarios x both simulated profiles at n = 10,
20 and 60 in alternating subprocesses — one on this checkout's
``src/``, one on ``--parent``'s — and prints host seconds per size
(each cell's best of ``--repeats``, summed over the 14 cells; median
over ``--pairs``). Without ``--parent`` it times this checkout only.
``--schedulers`` / ``--sizes`` time other policies the same way (the
heuristics' short-queue kernels, say). A side measurement, not a
tracked metric.

Run:  python examples/agent_paper_sizes.py [--parent /path/to/other/checkout]
      python examples/agent_paper_sizes.py --schedulers sjf largest_first \
          --sizes 10 20 60 100 --parent /path/to/other/checkout
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIZES = (10, 20, 60)
MODELS = ("claude-3.7-sim", "o4-mini-sim")


def time_sizes(args: argparse.Namespace) -> dict[str, float]:
    """Host seconds per size on whatever ``repro`` is importable."""
    from repro import create_scheduler, generate_workload, simulate
    from repro.workloads.scenarios import PAPER_SCENARIOS

    seconds = {}
    for n in args.sizes:
        total = 0.0
        for scenario in PAPER_SCENARIOS:
            jobs = generate_workload(scenario, n, seed=0)
            for model in args.schedulers:
                best = float("inf")
                for _ in range(args.repeats):
                    scheduler = create_scheduler(model, seed=0)
                    start = time.perf_counter()
                    simulate(jobs, scheduler)
                    best = min(best, time.perf_counter() - start)
                total += best
        seconds[str(n)] = total
    return seconds


def time_checkout(
    checkout: Path, args: argparse.Namespace
) -> dict[str, float]:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    out = subprocess.run(
        [
            sys.executable, __file__, "--child",
            "--repeats", str(args.repeats),
            "--schedulers", *args.schedulers,
            "--sizes", *map(str, args.sizes),
        ],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout to compare with")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--schedulers", nargs="+", default=list(MODELS))
    parser.add_argument("--sizes", nargs="+", type=int, default=list(SIZES))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    # Unknown flags are ignored: tests/test_examples.py runs every
    # example in-process, under pytest's own argv.
    args, _ = parser.parse_known_args()

    if args.child:
        json.dump(time_sizes(args), sys.stdout)
        return
    if args.parent is None:
        print(f"{'n':>4} {'seconds':>10}")
        for n, seconds in time_sizes(args).items():
            print(f"{n:>4} {seconds:>10.4f}")
        return

    here = Path(__file__).resolve().parent.parent
    runs = {"parent": [], "change": []}
    for _ in range(args.pairs):
        runs["parent"].append(time_checkout(args.parent, args))
        runs["change"].append(time_checkout(here, args))

    print(f"{'n':>4} {'parent_s':>10} {'change_s':>10} {'change':>8}")
    for n in map(str, args.sizes):
        parent, change = (
            statistics.median(run[n] for run in runs[side])
            for side in ("parent", "change")
        )
        print(f"{n:>4} {parent:>10.4f} {change:>10.4f} "
              f"{100 * (change / parent - 1):>+7.1f}%")


if __name__ == "__main__":
    main()
