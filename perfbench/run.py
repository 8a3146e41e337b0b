"""perfbench: eight user-path workloads, measured end to end and by layer.

The driver's form runs one workload in this process and prints the result
object as the last line of standard output::

    python3 perfbench/run.py --workload backlog --seed 3 --seconds 9 --trace 0

``--trace 0`` is the untraced pass (every end-to-end metric), ``--trace 1``
the traced pass (every per-layer metric; also writes
``perfbench/out/trace-<workload>.jsonl``).

Any other form is the suite: each (workload, seed, pass) runs in a fresh
child process of the form above, so nothing leaks between workloads, and
the collected runs go to ``perfbench/out/results.json`` (``--out``) for
``perfbench/compare.py``::

    python3 perfbench/run.py                      # all workloads, both passes
    python3 perfbench/run.py --workload served --seed 0 --seed 1 --trace 0
    python3 perfbench/run.py --smoke              # tiny sizes, one repetition
    python3 perfbench/run.py --update-goldens     # rewrite goldens.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = HERE / "goldens.json"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", default=None,
                   help="workload name (repeatable; default: all)")
    p.add_argument("--seed", action="append", type=int, default=None,
                   help="input seed (repeatable; default: 0)")
    p.add_argument("--seconds", type=float, default=None,
                   help="seconds one run measures (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="0 untraced pass, 1 traced pass (default: both)")
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, one set-up, one repetition per pass")
    p.add_argument("--update-goldens", action="store_true",
                   help="run seed 0 untraced and rewrite goldens.json")
    p.add_argument("--out", default=None,
                   help="suite result file (default perfbench/out/results.json)")
    p.add_argument("--detail", default=None,
                   help="single run: also write everything measured here")
    return p.parse_args(argv)


def workload_classes() -> dict:
    from perfbench import wl_matrix, wl_served, wl_sim, wl_store

    classes = (
        wl_sim.TraceReplay, wl_sim.Backlog, wl_sim.DeepDecide,
        wl_sim.Disrupted, wl_sim.AgentReact, wl_matrix.PaperMatrix,
        wl_store.StoreArchive, wl_served.Served,
    )
    return {cls.name: cls for cls in classes}


def run_single(args: argparse.Namespace) -> int:
    """One workload, one seed, one pass, in this process."""
    t0 = perf_counter()
    import repro.experiments.cli  # noqa: F401  what `repro-sched` imports
    import_s = perf_counter() - t0

    from perfbench.harness import Spec, run_workload

    spec = Spec()
    name = args.workload[0]
    classes = workload_classes()
    if name not in classes or name not in spec.workloads:
        print(f"unknown workload {name!r}; have {spec.workloads}",
              file=sys.stderr)
        return 2
    goldens = {}
    if GOLDENS.exists() and not args.update_goldens:
        goldens = json.loads(GOLDENS.read_text(encoding="utf-8")).get(name, {})
    result = run_workload(
        classes[name],
        spec=spec,
        seed=args.seed[0],
        seconds=args.seconds or spec.raw["run_seconds"],
        traced=bool(args.trace),
        smoke=args.smoke,
        import_s=import_s,
        goldens=goldens,
    )
    if args.detail:
        Path(args.detail).write_text(
            json.dumps(result.detail, indent=1), encoding="utf-8"
        )
    print(json.dumps(result.summary))
    return 0


def run_suite(args: argparse.Namespace) -> int:
    """Every (workload, seed, pass) in its own child process."""
    from perfbench.harness import Spec

    names = args.workload or Spec().workloads
    seeds = args.seed or [0]
    passes = [args.trace] if args.trace is not None else [0, 1]
    if args.update_goldens:
        seeds, passes = [0], [0]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    runs = []
    for name in names:
        for seed in seeds:
            for trace in passes:
                detail = out_dir / f"detail-{name}-{seed}-{trace}.json"
                cmd = [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", name, "--seed", str(seed),
                    "--trace", str(trace), "--detail", str(detail),
                ]
                if args.seconds is not None:
                    cmd += ["--seconds", str(args.seconds)]
                if args.smoke:
                    cmd.append("--smoke")
                if args.update_goldens:
                    cmd.append("--update-goldens")
                proc = subprocess.run(cmd, cwd=ROOT)
                if proc.returncode != 0 or not detail.exists():
                    print(f"{name}: run failed (exit {proc.returncode})",
                          file=sys.stderr)
                    return 1
                runs.append(json.loads(detail.read_text(encoding="utf-8")))
                detail.unlink()
    if args.update_goldens:
        goldens = {
            run["workload"]: {"digests": run["digests"], "sim": run["sim"]}
            for run in runs
        }
        GOLDENS.write_text(
            json.dumps(goldens, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {GOLDENS}")
    out = Path(args.out) if args.out else out_dir / "results.json"
    out.write_text(json.dumps({"runs": runs}, indent=1), encoding="utf-8")
    failed = sum(run["summary"]["failed"] for run in runs)
    noisy = sum(1 for run in runs if run["noisy"])
    print(f"wrote {out}: {len(runs)} runs, {failed} failed operations, "
          f"{noisy} noisy runs")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench needs the repository's src/repro next to it",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)  # relative socket and store paths stay short
    src = str(ROOT / "src")
    sys.path[:0] = [str(ROOT), src]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    single = (
        args.workload is not None and len(args.workload) == 1
        and args.seed is not None and len(args.seed) == 1
        and args.trace is not None
    )
    return run_single(args) if single else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
