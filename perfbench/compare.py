"""Compare two perfbench result files under the bounds of BENCHMARK.json.

    python3 perfbench/compare.py A.json B.json

A is the parent (or the first of two sets of runs of one commit), B the
change (or the second set). Both come from ``perfbench/run.py --out``.
One row is printed per (workload, end-to-end metric), built from the
untraced runs of that workload over all seeds in the file:

* ``worse``       B's median is worse than A's by more than the bound;
* ``unresolved``  the run-to-run spread (distance between the quartiles
                  as a share of the median, the larger of A's and B's) is
                  wider than the bound, so the medians settle nothing —
                  unless every run of B reads better than every run of A;
* ``better``      every run of B reads better than every run of A, or B's
                  median is better by more than that spread;
* ``no-worse``    anything else.

Rows whose runs were marked ``noisy`` (calibration drifted by more than
10 % during the run) say so. Simulated statistics and digests of equal
(workload, seed) must be bit-equal. The exit code is non-zero on any
``worse`` row, on a higher failed ratio, and on any simulated difference.
Comparing two sets of runs of one commit is the A/A check: every row
should read ``no-worse`` with both spreads inside the bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path) -> list[dict]:
    return json.loads(Path(path).read_text(encoding="utf-8"))["runs"]


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    p25, p50, p75 = statistics.quantiles(values, n=4)
    return (p75 - p25) / p50 if p50 else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / med_a if med_a else 0.0
    if better == "lower":
        all_better = max(b) < min(a)
    else:
        all_better = min(b) > max(a)
    width = max(spread(a), spread(b))
    if all_better:
        return "better"
    if width > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > width and -worse_by > 0:
        return "better"
    return "no-worse"


def failed_ratio(runs: list[dict]) -> float:
    return (sum(r["summary"]["failed"] for r in runs)
            / sum(r["summary"]["attempted"] for r in runs))


def compare(runs_a: list[dict], runs_b: list[dict], spec: dict) -> tuple[list, bool]:
    """Rows for printing and whether the comparison passes."""
    def untraced(runs, workload):
        return [r for r in runs if r["workload"] == workload and not r["trace"]]

    rows, passed = [], True
    for workload in [w["name"] for w in spec["workloads"]]:
        a, b = untraced(runs_a, workload), untraced(runs_b, workload)
        if not a or not b:
            continue
        noisy = any(r["noisy"] for r in a + b)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = [r["summary"]["metrics"][name]["value"] for r in a]
            vb = [r["summary"]["metrics"][name]["value"] for r in b]
            label = verdict(va, vb, metric["better"], metric["bound"])
            passed &= label != "worse"
            rows.append((
                workload, name, metric["unit"], statistics.median(va),
                statistics.median(vb), spread(va), spread(vb),
                metric["bound"], label + (" noisy" if noisy else ""),
            ))

        fa, fb = failed_ratio(a), failed_ratio(b)
        passed &= fb <= fa
        rows.append((workload, "failed_ratio", "ratio", fa, fb, 0.0, 0.0, 0.0,
                     "worse" if fb > fa else "no-worse"))

        by_seed = {r["seed"]: r for r in a}
        same = all(
            r["digests"] == by_seed[r["seed"]]["digests"]
            and r["sim"] == by_seed[r["seed"]]["sim"]
            for r in b if r["seed"] in by_seed
        )
        passed &= same
        rows.append((workload, "simulated+digests", "exact", 0.0, 0.0, 0.0,
                     0.0, 0.0, "equal" if same else "DIFFERS"))
    return rows, passed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows, passed = compare(load_runs(argv[0]), load_runs(argv[1]), spec)
    print(f"{'workload':14s} {'metric':18s} {'unit':6s} {'A median':>12s} "
          f"{'B median':>12s} {'B/A-1':>8s} {'spreadA':>8s} {'spreadB':>8s} "
          f"{'bound':>6s}  verdict")
    for w, name, unit, ma, mb, sa, sb, bound, label in rows:
        change = (mb - ma) / ma if ma else 0.0
        print(f"{w:14s} {name:18s} {unit:6s} {ma:12.6g} {mb:12.6g} "
              f"{change:+8.3f} {sa:8.3f} {sb:8.3f} {bound:6.2f}  {label}")
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
