"""Command-line interface: ``repro-sched``.

Subcommands regenerate each paper figure's data as an ASCII table, run
ad-hoc single simulations, and list registered scenarios/schedulers::

    repro-sched fig3                 # six-scenario comparison
    repro-sched fig4 --sizes 10 40 100
    repro-sched fig5 | fig6 | fig7 | fig8
    repro-sched fig2                 # reasoning traces
    repro-sched run --scenario long_job_dominant --scheduler claude-3.7-sim -n 60
    repro-sched matrix --scenarios adversarial resource_sparse --sizes 20 40 \
        --workers 4 --out runs.jsonl --resume
    repro-sched report --store runs.jsonl
    repro-sched store doctor runs.jsonl
    repro-sched list
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments import figures, report
from repro.experiments.parallel import expand_cells, run_matrix_parallel
from repro.experiments.runner import DEFAULT_SCHEDULERS, run_single
from repro.experiments.store import FailedCell
from repro.experiments.storage import open_store
from repro.metrics.normalize import normalize_to_baseline
from repro.schedulers.registry import available_schedulers
from repro.sim.disruptions import (
    DISRUPTION_PRESETS,
    RESTART_POLICIES,
    DisruptionSpec,
    get_disruption_preset,
)
from repro.sim.topology import ClusterTopology
from repro.workloads.scenarios import CLUSTER_NODES, SCENARIOS


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="workload seed")
    p.add_argument(
        "--scheduler-seed", type=int, default=0, help="scheduler RNG seed"
    )


def _add_disruption_args(p: argparse.ArgumentParser) -> None:
    """Disruption/recovery flags shared by ``run`` and ``matrix``."""
    g = p.add_argument_group("disruptions")
    g.add_argument(
        "--disruptions",
        metavar="PRESET",
        default=None,
        choices=sorted(DISRUPTION_PRESETS),
        help=(
            "named disruption regime "
            f"({', '.join(sorted(DISRUPTION_PRESETS))}); individual "
            "--mtbf/--drain-* flags override preset fields"
        ),
    )
    g.add_argument(
        "--mtbf", type=float, default=None,
        help="per-node mean time between failures (seconds)",
    )
    g.add_argument(
        "--mttr", type=float, default=None,
        help="mean time to repair a failed node (seconds; default 900)",
    )
    g.add_argument(
        "--failure-model", choices=["exponential", "weibull"], default=None,
        help="node up-time distribution (default exponential)",
    )
    g.add_argument(
        "--drain-every", type=float, default=None,
        help="period between maintenance drains (seconds)",
    )
    g.add_argument(
        "--drain-nodes", type=int, default=None,
        help="nodes taken per drain window",
    )
    g.add_argument(
        "--drain-duration", type=float, default=None,
        help="drain window length (seconds; default 3600)",
    )
    g.add_argument(
        "--drain-lead", type=float, default=None,
        help="announcement lead before each drain (seconds; default 1800)",
    )
    g.add_argument(
        "--drain-first", type=float, default=None,
        help=(
            "offset of the first drain window (seconds; default 7200 — "
            "lower it for short workloads or no window will fit the "
            "horizon)"
        ),
    )
    g.add_argument(
        "--rack-mtbf", type=float, default=None,
        help=(
            "mean time between correlated shocks per failure domain "
            "(seconds); enables whole-block rack/switch failures"
        ),
    )
    g.add_argument(
        "--correlation", type=float, default=None,
        help=(
            "fraction of the struck domain each shock kills, in (0, 1] "
            "(default 1.0: the whole rack/switch group)"
        ),
    )
    g.add_argument(
        "--correlation-level", choices=["rack", "switch"], default=None,
        help="hierarchy level the shock process runs at (default rack)",
    )
    g.add_argument(
        "--disruption-seed", type=int, default=None,
        help="seed for the failure RNG streams (default 0)",
    )
    t = p.add_argument_group("topology")
    t.add_argument(
        "--rack-size", type=int, default=None,
        help=(
            f"nodes per rack over the {CLUSTER_NODES}-node partition "
            "(default: flat — no failure domains)"
        ),
    )
    t.add_argument(
        "--racks-per-switch", type=int, default=None,
        help="racks per switch group (default 1; requires --rack-size)",
    )
    g.add_argument(
        "--restart-policy",
        choices=[p.replace("_", "-") for p in RESTART_POLICIES],
        default="resubmit",
        help="what killed jobs keep (default resubmit: nothing)",
    )
    g.add_argument(
        "--checkpoint-interval", type=float, default=None,
        help=(
            "seconds between periodic checkpoints (required for "
            "--restart-policy checkpoint)"
        ),
    )


def _add_anneal_window(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--anneal-window",
        type=int,
        default=None,
        metavar="W",
        help=(
            "windowed replanning for the annealing optimizer: search "
            "only the first W positions of the priority order and "
            "freeze the tail, bounding per-move packing work at large "
            "queues (min 2; applies to window-aware schedulers only "
            "and suffixes their recorded name with @wW)"
        ),
    )


class DisruptionArgsError(ValueError):
    """Invalid disruption flag combination (reported as a friendly
    CLI error, not a traceback)."""


def _check_anneal_window(args) -> None:
    """Friendly validation for ``--anneal-window`` (the config would
    reject it anyway, but deep inside a worker process)."""
    if args.anneal_window is not None and args.anneal_window < 2:
        raise DisruptionArgsError("--anneal-window must be at least 2")


def _check_fault_args(args) -> None:
    """Friendly validation for the fault-tolerance flags."""
    if args.cell_timeout is not None and args.cell_timeout <= 0:
        raise DisruptionArgsError("--cell-timeout must be positive")
    if args.max_retries < 0:
        raise DisruptionArgsError("--max-retries must be >= 0")
    if args.retry_backoff is not None and args.retry_backoff < 0:
        raise DisruptionArgsError("--retry-backoff must be >= 0")
    if args.cell_timeout is not None and args.workers == 1:
        raise DisruptionArgsError(
            "--cell-timeout needs --workers >= 2: an inline sweep "
            "cannot preempt its own process"
        )


def _build_disruption_spec(args) -> Optional[DisruptionSpec]:
    """Combine a preset with flag overrides; None when undisrupted.

    Raises :class:`DisruptionArgsError` on invalid combinations
    (e.g. ``--drain-every`` without ``--drain-nodes``, or
    ``--restart-policy checkpoint`` without ``--checkpoint-interval``).
    """
    if (
        args.restart_policy.replace("-", "_") == "checkpoint"
        and args.checkpoint_interval is None
    ):
        raise DisruptionArgsError(
            "--restart-policy checkpoint requires --checkpoint-interval"
        )
    if args.checkpoint_interval is not None and args.checkpoint_interval <= 0:
        raise DisruptionArgsError("--checkpoint-interval must be positive")
    base = (
        get_disruption_preset(args.disruptions)
        if args.disruptions
        else DisruptionSpec()
    )
    overrides = {}
    if args.mtbf is not None:
        overrides["mtbf"] = args.mtbf
    if args.mttr is not None:
        overrides["mttr"] = args.mttr
    if args.failure_model is not None:
        overrides["failure_model"] = args.failure_model
    if args.drain_every is not None:
        overrides["drain_every"] = args.drain_every
    if args.drain_nodes is not None:
        overrides["drain_nodes"] = args.drain_nodes
    if args.drain_duration is not None:
        overrides["drain_duration"] = args.drain_duration
    if args.drain_lead is not None:
        overrides["drain_lead"] = args.drain_lead
    if args.drain_first is not None:
        overrides["drain_first"] = args.drain_first
    if args.rack_mtbf is not None:
        overrides["rack_mtbf"] = args.rack_mtbf
    if args.correlation is not None:
        overrides["correlation"] = args.correlation
    if args.correlation_level is not None:
        overrides["correlation_level"] = args.correlation_level
    if args.disruption_seed is not None:
        overrides["seed"] = args.disruption_seed
    if overrides:
        import dataclasses

        try:
            base = dataclasses.replace(base, **overrides)
        except ValueError as exc:
            raise DisruptionArgsError(str(exc)) from exc
    if (
        (args.correlation is not None or args.correlation_level is not None)
        and base.rack_mtbf is None
    ):
        raise DisruptionArgsError(
            "--correlation/--correlation-level need --rack-mtbf (or a "
            "correlated preset) to have any effect"
        )
    return base if base else None


def _build_topology(args) -> Optional[ClusterTopology]:
    """Topology flags → :class:`ClusterTopology` over the paper's
    partition; ``None`` (flat) when no flag was given."""
    if args.rack_size is None:
        if args.racks_per_switch is not None:
            raise DisruptionArgsError(
                "--racks-per-switch requires --rack-size"
            )
        return None
    try:
        return ClusterTopology(
            n_nodes=CLUSTER_NODES,
            rack_size=args.rack_size,
            racks_per_switch=(
                1
                if args.racks_per_switch is None
                else args.racks_per_switch
            ),
        )
    except ValueError as exc:
        raise DisruptionArgsError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sched",
        description=(
            "Reproduction harness for 'Evaluating the Efficacy of "
            "LLM-Based Reasoning for Multiobjective HPC Job Scheduling'"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p2 = sub.add_parser("fig2", help="representative reasoning traces")
    p2.add_argument("--model", default="claude-3.7-sim")
    p2.add_argument("--n-jobs", type=int, default=20)
    _add_common(p2)

    p3 = sub.add_parser("fig3", help="six scenarios × 60 jobs")
    p3.add_argument("--n-jobs", type=int, default=60)
    _add_common(p3)

    p4 = sub.add_parser("fig4", help="scalability on heterogeneous mix")
    p4.add_argument(
        "--sizes", type=int, nargs="+", default=[10, 20, 40, 60, 80, 100]
    )
    _add_common(p4)

    p5 = sub.add_parser("fig5", help="overhead per scenario (60 jobs)")
    p5.add_argument("--n-jobs", type=int, default=60)
    _add_common(p5)

    p6 = sub.add_parser("fig6", help="overhead scaling with queue size")
    p6.add_argument(
        "--sizes", type=int, nargs="+", default=[10, 20, 40, 60, 80, 100]
    )
    _add_common(p6)

    p7 = sub.add_parser("fig7", help="robustness over repetitions")
    p7.add_argument("--n-jobs", type=int, default=100)
    p7.add_argument("--repeats", type=int, default=5)
    _add_common(p7)

    p8 = sub.add_parser("fig8", help="Polaris trace evaluation")
    p8.add_argument("--n-jobs", type=int, default=100)
    p8.add_argument("--trace-seed", type=int, default=2024)
    _add_common(p8)

    pr = sub.add_parser("run", help="one scenario × scheduler simulation")
    pr.add_argument("--scenario", required=True, choices=sorted(SCENARIOS))
    pr.add_argument("--scheduler", required=True)
    pr.add_argument("-n", "--n-jobs", type=int, default=60)
    pr.add_argument(
        "--arrival-mode", choices=["scenario", "zero"], default="scenario"
    )
    pr.add_argument(
        "--enforce-walltime",
        action="store_true",
        help="kill jobs at their requested walltime (trace realism)",
    )
    pr.add_argument(
        "--max-decisions",
        type=int,
        default=None,
        help="hard cap on scheduler queries (default: 200·n_jobs + 1000)",
    )
    _add_anneal_window(pr)
    _add_common(pr)
    _add_disruption_args(pr)

    pm = sub.add_parser(
        "matrix",
        help="parallel scenarios × sizes × schedulers × seeds sweep",
    )
    pm.add_argument(
        "--scenarios",
        nargs="+",
        choices=sorted(SCENARIOS),
        help="scenario names to sweep (required unless --retry-failed)",
    )
    pm.add_argument(
        "--sizes", type=int, nargs="+",
        help="queue sizes to sweep (required unless --retry-failed)",
    )
    pm.add_argument(
        "--retry-failed",
        metavar="STORE",
        default=None,
        help=(
            "instead of expanding a matrix, re-run exactly the "
            "quarantined cells recorded in STORE.failures (written by "
            "--on-cell-failure quarantine); cells that now succeed "
            "stream into STORE and are pruned from the sidecar"
        ),
    )
    pm.add_argument(
        "--schedulers",
        nargs="+",
        default=list(DEFAULT_SCHEDULERS),
        help="scheduler names (default: the paper's comparison set)",
    )
    pm.add_argument(
        "--seeds", type=int, nargs="+", default=[0], help="workload seeds"
    )
    pm.add_argument(
        "--scheduler-seeds",
        type=int,
        nargs="+",
        default=[0],
        help="scheduler RNG seeds (repetition sweeps)",
    )
    pm.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process pool size (default: all cores; 1 = inline)",
    )
    pm.add_argument(
        "--out",
        default=None,
        help=(
            "artifact store path (JSONL file or sharded directory); "
            "each run streams in on completion"
        ),
    )
    pm.add_argument(
        "--store-format",
        choices=["jsonl", "sharded"],
        default=None,
        help=(
            "layout for a store created at --out: one JSONL file "
            "(default) or a cell-key-hash sharded directory — pooled "
            "workers then write their own shards concurrently and "
            "keyed report queries parse one shard, not the archive. "
            "An existing store's on-disk layout always wins."
        ),
    )
    pm.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help=(
            "shard count when creating a sharded store (default 16; "
            "fixed at creation — needs --store-format sharded)"
        ),
    )
    pm.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already persisted in --out",
    )
    pm.add_argument(
        "--arrival-mode", choices=["scenario", "zero"], default="scenario"
    )
    f = pm.add_argument_group("fault tolerance")
    f.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-cell wall-clock budget: a cell still running after "
            "this long has its (hung) worker killed and is retried "
            "against a rebuilt pool (default: no timeout; needs "
            "--workers >= 2 — an inline sweep cannot preempt itself)"
        ),
    )
    f.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help=(
            "retries per cell beyond its first attempt before the "
            "--on-cell-failure policy applies; crashes, timeouts and "
            "dead workers all count (default 2). Distinct from the "
            "simulator's in-run scheduler-rejection retries."
        ),
    )
    f.add_argument(
        "--retry-backoff",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "base of the deterministic exponential backoff between "
            "retries of one cell (default 0.1)"
        ),
    )
    f.add_argument(
        "--on-cell-failure",
        choices=["abort", "quarantine"],
        default="abort",
        help=(
            "what to do with a cell that exhausts its retries: abort "
            "the sweep (default, exit 1) or quarantine it as a "
            "structured record in <out>.failures, finish every other "
            "cell, and exit 3 with a failure summary"
        ),
    )
    _add_anneal_window(pm)
    _add_disruption_args(pm)

    ps = sub.add_parser(
        "report", help="render normalized metrics from an artifact store"
    )
    ps.add_argument(
        "--store", required=True,
        help="path written by matrix --out (JSONL file or sharded dir)",
    )
    ps.add_argument(
        "--where",
        action="append",
        default=None,
        metavar="FIELD=VALUE",
        help=(
            "identity filter, repeatable (e.g. --where "
            "scenario=adversarial --where n_jobs=60); pushed down to "
            "the store backend — a fully-pinned key is answered from "
            "one shard on a sharded store, never a full scan"
        ),
    )

    pst = sub.add_parser(
        "store",
        help=(
            "artifact-store maintenance (doctor: salvage; migrate: "
            "convert layouts; digest: content identity)"
        ),
    )
    store_sub = pst.add_subparsers(dest="store_command", required=True)
    pdoc = store_sub.add_parser(
        "doctor",
        help="salvage every parseable line from a corrupted store",
        description=(
            "Repair an artifact store in place: every parseable "
            "line is kept byte-for-byte, every unparseable line moves "
            "to <store>.quarantine prefixed with its original line "
            "number, and the report says which cells were lost (they "
            "simply re-run under matrix --resume). On a sharded store "
            "the same treatment runs per shard, plus a missing or "
            "unreadable MANIFEST.json is rebuilt from the shard files. "
            "Rewrites are atomic; a healthy store is left untouched."
        ),
    )
    pdoc.add_argument(
        "path", help="store written by matrix --out (file or sharded dir)"
    )
    pdoc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be quarantined without writing anything",
    )
    pdoc.add_argument(
        "--dedupe",
        action="store_true",
        help=(
            "also compact superseded duplicate-key lines: each cell "
            "keeps only its winning (last-written) line, byte-for-byte, "
            "at its first-appearance position — what load() resolves "
            "is unchanged, the file just stops carrying dead data"
        ),
    )
    pmig = store_sub.add_parser(
        "migrate",
        help="convert a store between JSONL and sharded layouts",
        description=(
            "Loss-free layout conversion: a JSONL file splits into a "
            "fresh sharded directory (lines verbatim, routed by cell-"
            "key hash, original order recorded in a sidecar); a "
            "sharded store merges back into one JSONL file — byte-"
            "identical to the original when the order sidecar still "
            "matches, load()-identical otherwise. v1-v3 lines cross "
            "untouched. The direction is inferred from the source "
            "layout; the destination must not already exist."
        ),
    )
    pmig.add_argument("src", help="existing store (file or sharded dir)")
    pmig.add_argument("dest", help="fresh path for the converted store")
    pmig.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="shard count when splitting to sharded (default 16)",
    )
    pdig = store_sub.add_parser(
        "digest",
        help="print the store's layout-independent content digest",
        description=(
            "SHA-256 over the canonically-ordered run set — equal for "
            "two stores exactly when load() resolves the same runs, "
            "regardless of layout, line order, or superseded "
            "duplicates. The CI storage gate compares this across "
            "serial-JSONL and parallel-sharded sweeps."
        ),
    )
    pdig.add_argument("path", help="store (file or sharded dir)")

    pv = sub.add_parser(
        "serve",
        help="run the scheduling daemon (JSON-lines over a socket)",
        description=(
            "Start the long-lived scheduling service: clients open "
            "isolated sessions, stream job arrivals in, and pull "
            "schedules/metrics back over a JSON-lines protocol; sweep "
            "cells (run_cell) are answered from a CellKey result cache "
            "backed by --store, simulating only on a genuine miss. "
            "Served schedules are byte-identical to batch simulate() "
            "for the same inputs. Stop with SIGINT/SIGTERM or a "
            "client 'shutdown' request; in-flight requests drain "
            "first."
        ),
    )
    bind = pv.add_mutually_exclusive_group(required=True)
    bind.add_argument(
        "--socket",
        metavar="PATH",
        default=None,
        help="bind a unix domain socket at PATH",
    )
    bind.add_argument(
        "--host",
        default=None,
        help="bind TCP on this interface (with --port)",
    )
    pv.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0: ephemeral, printed at startup)",
    )
    pv.add_argument(
        "--store",
        default=None,
        help=(
            "artifact store backing the cell result cache (JSONL file "
            "or sharded dir); cells already persisted are served "
            "without simulating, new cells are appended (shareable "
            "with matrix --out)"
        ),
    )
    pv.add_argument(
        "--store-format",
        choices=["jsonl", "sharded"],
        default=None,
        help=(
            "layout for a store created at --store (an existing "
            "store's on-disk layout always wins)"
        ),
    )
    pv.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size for run_cell (default: all cores)",
    )
    pv.add_argument(
        "--cache-size",
        type=int,
        default=None,
        help="in-memory LRU capacity, in cells (default 4096)",
    )

    pc = sub.add_parser(
        "compare",
        help="paired cross-seed comparison of two schedulers (Wilcoxon)",
    )
    pc.add_argument("--scenario", required=True, choices=sorted(SCENARIOS))
    pc.add_argument("--a", required=True, help="first scheduler")
    pc.add_argument("--b", required=True, help="second scheduler")
    pc.add_argument("-n", "--n-jobs", type=int, default=40)
    pc.add_argument("--seeds", type=int, default=8)

    sub.add_parser("list", help="list scenarios and schedulers")
    return parser


def _matrix_retry_failed(args) -> int:
    """``matrix --retry-failed STORE``: re-run the quarantined cells.

    The cell list comes from ``STORE.failures`` (the sidecar written
    by ``--on-cell-failure quarantine``), rebuilt exactly from each
    record's stored config — same seeds, same disruptions, same
    topology, so a recovered cell's line is byte-identical to what the
    original sweep would have written. Cells that now succeed stream
    into STORE and are pruned from the sidecar; cells that fail again
    stay quarantined (their sidecar record refreshed) and the exit
    status is 3, mirroring the quarantine sweep itself.
    """
    from repro.experiments.parallel import (
        DEFAULT_RETRY_BACKOFF_S,
        MatrixCell,
        run_cells,
    )
    from repro.experiments.store import FailureSidecar

    store = open_store(args.retry_failed)
    sidecar = FailureSidecar.for_store(store)
    if not sidecar.path.exists():
        print(f"nothing to retry: no failure sidecar at {sidecar.path}")
        return 0
    try:
        records = sidecar.load()
    except ValueError as exc:
        print(f"error: unreadable sidecar {sidecar.path}: {exc}",
              file=sys.stderr)
        return 2
    if not records:
        print(f"nothing to retry: {sidecar.path} is empty")
        return 0
    unretriable = [r for r in records if r.config is None]
    if unretriable:
        print(
            f"error: {len(unretriable)} record(s) in {sidecar.path} "
            "predate the config-carrying sidecar format (schema v1) "
            "and cannot be rebuilt; re-run the original matrix "
            "command with --resume instead",
            file=sys.stderr,
        )
        return 2
    cells: list[MatrixCell] = []
    seen = set()
    for rec in records:
        try:
            cell = MatrixCell.from_config(rec.config)
        except ValueError as exc:
            print(
                f"error: bad config in {sidecar.path} for "
                f"{rec.label}: {exc}",
                file=sys.stderr,
            )
            return 2
        if cell.key not in seen:
            seen.add(cell.key)
            cells.append(cell)
    print(f"retrying {len(cells)} quarantined cell(s) from {sidecar.path}")

    def progress(cell, completed, total):
        print(
            f"[{completed}/{total}] {cell.scenario} n={cell.n_jobs} "
            f"{cell.scheduler} wseed={cell.workload_seed} "
            f"sseed={cell.scheduler_seed}",
            flush=True,
        )

    failures: list[FailedCell] = []
    try:
        run_cells(
            cells,
            workers=args.workers,
            store=store,
            resume=True,
            progress=progress,
            cell_timeout=args.cell_timeout,
            max_retries=args.max_retries,
            retry_backoff_s=(
                DEFAULT_RETRY_BACKOFF_S
                if args.retry_backoff is None
                else args.retry_backoff
            ),
            on_cell_failure="quarantine",
            failures=failures,
        )
    except KeyboardInterrupt:
        print(
            f"\ninterrupted — completed retries are persisted in "
            f"{store.path}; run --retry-failed again to finish",
            file=sys.stderr,
        )
        return 130
    # Prune recovered cells; compact duplicate records (the re-failed
    # cells just appended a refreshed line each) down to last-wins.
    done = store.completed_keys()
    recovered_keys = {c.key for c in cells if c.key in done}
    sidecar.prune(recovered_keys)
    remaining = sidecar.load() if sidecar.path.exists() else []
    last = {r.key: r for r in remaining}
    if len(last) != len(remaining):
        import os as _os

        tmp = sidecar.path.with_name(sidecar.path.name + ".compact.tmp")
        tmp.write_text(
            "".join(r.to_json() + "\n" for r in last.values()),
            encoding="utf-8",
        )
        _os.replace(tmp, sidecar.path)
    print(
        f"recovered {len(recovered_keys)}/{len(cells)} cell(s) into "
        f"{store.path}"
    )
    if failures:
        print(
            f"{len(failures)} cell(s) still failing (sidecar kept):",
            file=sys.stderr,
        )
        for fc in failures:
            print(
                f"  {fc.label}: {fc.kind} x{fc.attempts} — "
                f"{fc.error_type}: {fc.message}",
                file=sys.stderr,
            )
        return 3
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list":
        print("Scenarios:")
        for name, spec in SCENARIOS.items():
            print(f"  {name:20s} {spec.description}")
        print("Schedulers:")
        for name in available_schedulers():
            print(f"  {name}")
        print("Disruption presets:")
        for name, dspec in DISRUPTION_PRESETS.items():
            print(f"  {name:20s} {dspec.signature()}")
        return 0

    if args.command == "fig2":
        samples = figures.figure2(
            model=args.model, n_jobs=args.n_jobs, seed=args.seed
        )
        for sample in samples:
            print(sample.render())
            print()
        return 0

    if args.command == "fig3":
        data = figures.figure3(
            n_jobs=args.n_jobs,
            workload_seed=args.seed,
            scheduler_seed=args.scheduler_seed,
        )
        print(report.render_figure3(data))
        return 0

    if args.command == "fig4":
        data = figures.figure4(
            sizes=args.sizes,
            workload_seed=args.seed,
            scheduler_seed=args.scheduler_seed,
        )
        print(report.render_figure4(data))
        return 0

    if args.command == "fig5":
        data = figures.figure5(
            n_jobs=args.n_jobs,
            workload_seed=args.seed,
            scheduler_seed=args.scheduler_seed,
        )
        print(
            report.render_overhead_table(
                data,
                key_label="scenario",
                title="Figure 5 — overhead per scenario (60 jobs)",
            )
        )
        return 0

    if args.command == "fig6":
        data = figures.figure6(
            sizes=args.sizes,
            workload_seed=args.seed,
            scheduler_seed=args.scheduler_seed,
        )
        print(
            report.render_overhead_table(
                data,
                key_label="n_jobs",
                title="Figure 6 — overhead scaling (heterogeneous mix)",
            )
        )
        return 0

    if args.command == "fig7":
        data = figures.figure7(
            n_jobs=args.n_jobs,
            n_repeats=args.repeats,
            workload_seed=args.seed,
        )
        print(report.render_figure7(data))
        return 0

    if args.command == "fig8":
        data = figures.figure8(
            n_jobs=args.n_jobs,
            trace_seed=args.trace_seed,
            scheduler_seed=args.scheduler_seed,
        )
        print(report.render_figure8(data))
        return 0

    if args.command == "matrix":
        from repro.experiments.parallel import (
            DEFAULT_RETRY_BACKOFF_S,
            CellFailedError,
        )

        if args.retry_failed is not None:
            if args.scenarios or args.sizes or args.resume or args.out:
                print(
                    "error: --retry-failed takes the cell list from the "
                    "failure sidecar; it cannot be combined with "
                    "--scenarios/--sizes/--out/--resume",
                    file=sys.stderr,
                )
                return 2
            try:
                _check_fault_args(args)
            except DisruptionArgsError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            return _matrix_retry_failed(args)
        if not args.scenarios or not args.sizes:
            print(
                "error: --scenarios and --sizes are required "
                "(or use --retry-failed STORE)",
                file=sys.stderr,
            )
            return 2
        if args.resume and not args.out:
            print("error: --resume requires --out", file=sys.stderr)
            return 2
        if args.shards is not None and args.store_format != "sharded":
            print(
                "error: --shards needs --store-format sharded",
                file=sys.stderr,
            )
            return 2
        store = None
        if args.out:
            try:
                store = open_store(
                    args.out,
                    format=args.store_format,
                    n_shards=args.shards,
                )
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        try:
            disruption_spec = _build_disruption_spec(args)
            topology = _build_topology(args)
            _check_anneal_window(args)
            _check_fault_args(args)
        except DisruptionArgsError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        restart_policy = args.restart_policy.replace("-", "_")

        def progress(cell, completed, total):
            print(
                f"[{completed}/{total}] {cell.scenario} n={cell.n_jobs} "
                f"{cell.scheduler} wseed={cell.workload_seed} "
                f"sseed={cell.scheduler_seed}",
                flush=True,
            )

        failures: list[FailedCell] = []
        try:
            runs = run_matrix_parallel(
                args.scenarios,
                args.sizes,
                args.schedulers,
                workload_seeds=args.seeds,
                scheduler_seeds=args.scheduler_seeds,
                arrival_mode=args.arrival_mode,
                disruptions=disruption_spec,
                restart_policy=restart_policy,
                checkpoint_interval=args.checkpoint_interval,
                topology=topology,
                anneal_window=args.anneal_window,
                workers=args.workers,
                store=store,
                resume=args.resume,
                progress=progress,
                cell_timeout=args.cell_timeout,
                max_retries=args.max_retries,
                retry_backoff_s=(
                    DEFAULT_RETRY_BACKOFF_S
                    if args.retry_backoff is None
                    else args.retry_backoff
                ),
                on_cell_failure=args.on_cell_failure,
                failures=failures,
            )
        except KeyboardInterrupt as exc:
            detail = f" ({exc})" if str(exc) else ""
            if store is not None:
                print(
                    f"\ninterrupted{detail} — "
                    f"{len(store.completed_keys())} cells persisted in "
                    f"{args.out}; re-run with --resume to finish the "
                    "rest",
                    file=sys.stderr,
                )
            else:
                print(
                    f"\ninterrupted{detail} (no --out store; nothing "
                    "persisted)",
                    file=sys.stderr,
                )
            return 130
        except CellFailedError as exc:
            print(f"\nerror: sweep aborted — {exc}", file=sys.stderr)
            if store is not None:
                print(
                    f"{len(store.completed_keys())} cells persisted in "
                    f"{args.out}; fix the failure and re-run with "
                    "--resume (or use --on-cell-failure quarantine to "
                    "finish around it)",
                    file=sys.stderr,
                )
            return 1
        cells = expand_cells(
            args.scenarios,
            args.sizes,
            args.schedulers,
            workload_seeds=args.seeds,
            scheduler_seeds=args.scheduler_seeds,
            arrival_mode=args.arrival_mode,
            disruptions=disruption_spec,
            restart_policy=restart_policy,
            checkpoint_interval=args.checkpoint_interval,
            topology=topology,
            anneal_window=args.anneal_window,
        )
        if args.resume:
            print(f"resumed: {len(cells) - len(runs)} cells already in "
                  f"{args.out}, {len(runs)} executed")
        # Report this invocation's matrix: fresh results win, persisted
        # runs fill in resumed cells, and unrelated sweeps sharing the
        # store file stay out of the output. Tolerate corrupt lines
        # here — the sweep itself succeeded; damage on disk is surfaced
        # loudly by --resume and repaired by `store doctor`.
        source = list(runs)
        if store is not None:
            fresh = {r.key for r in runs}
            wanted = {c.key for c in cells}
            # Keyed backend query: only the wanted cells come back (on
            # a sharded store, only their shards are even parsed).
            source += list(
                store.iter_runs(
                    keys=wanted - fresh, on_corrupt="quarantine"
                )
            )
        if source:
            print(report.render_matrix_blocks(figures.matrix_blocks(source)))
        if failures:
            print(
                f"\n{len(failures)} cell(s) quarantined after exhausting "
                "retries (every other cell completed):",
                file=sys.stderr,
            )
            for fc in failures:
                print(
                    f"  {fc.label}: {fc.kind} x{fc.attempts} — "
                    f"{fc.error_type}: {fc.message}",
                    file=sys.stderr,
                )
            if store is not None:
                print(
                    f"details in {store.sidecar_path}; the quarantined "
                    "cells are not persisted and will re-run under "
                    "--resume",
                    file=sys.stderr,
                )
            return 3
        return 0

    if args.command == "store":
        from repro.experiments.storage import (
            DEFAULT_SHARDS,
            detect_format,
            migrate_to_jsonl,
            migrate_to_sharded,
            store_digest,
        )

        if args.store_command == "doctor":
            if not Path(args.path).exists():
                print(f"error: no store at {args.path}", file=sys.stderr)
                return 2
            store = open_store(args.path)
            doc = store.doctor(dry_run=args.dry_run, dedupe=args.dedupe)
            print(doc.summary())
            return 0 if doc.clean else 1

        if args.store_command == "migrate":
            try:
                src_format = detect_format(args.src)
                if src_format == "sharded":
                    if args.shards is not None:
                        print(
                            "error: --shards applies when splitting "
                            "jsonl -> sharded, not merging back",
                            file=sys.stderr,
                        )
                        return 2
                    rep = migrate_to_jsonl(args.src, args.dest)
                else:
                    rep = migrate_to_sharded(
                        args.src,
                        args.dest,
                        n_shards=(
                            args.shards
                            if args.shards is not None
                            else DEFAULT_SHARDS
                        ),
                    )
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            print(rep.summary())
            return 0

        assert args.store_command == "digest"
        if not Path(args.path).exists():
            print(f"error: no store at {args.path}", file=sys.stderr)
            return 2
        try:
            print(store_digest(open_store(args.path)))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    if args.command == "report":
        where = None
        if args.where:
            where = {}
            for item in args.where:
                field, sep, value = item.partition("=")
                if not sep or not field:
                    print(
                        f"error: bad --where {item!r} (expected "
                        "FIELD=VALUE)",
                        file=sys.stderr,
                    )
                    return 2
                where[field] = value
        try:
            blocks = figures.store_blocks(
                open_store(args.store), where=where
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not blocks:
            print(f"no runs in {args.store}", file=sys.stderr)
            return 1
        if where:
            print(f"== {report.describe_where(where)}\n")
        print(report.render_matrix_blocks(blocks))
        return 0

    if args.command == "run":
        try:
            disruption_spec = _build_disruption_spec(args)
            topology = _build_topology(args)
            _check_anneal_window(args)
        except DisruptionArgsError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        restart_policy = args.restart_policy.replace("-", "_")
        run = run_single(
            args.scenario,
            args.n_jobs,
            args.scheduler,
            workload_seed=args.seed,
            scheduler_seed=args.scheduler_seed,
            arrival_mode=args.arrival_mode,
            enforce_walltime=args.enforce_walltime,
            max_decisions=args.max_decisions,
            topology=topology,
            disruptions=disruption_spec,
            restart_policy=restart_policy,
            checkpoint_interval=args.checkpoint_interval,
            anneal_window=args.anneal_window,
        )
        base = run_single(
            args.scenario,
            args.n_jobs,
            "fcfs",
            workload_seed=args.seed,
            arrival_mode=args.arrival_mode,
            enforce_walltime=args.enforce_walltime,
            topology=topology,
            disruptions=disruption_spec,
            restart_policy=restart_policy,
            checkpoint_interval=args.checkpoint_interval,
        )
        block = {
            "fcfs": normalize_to_baseline(base.values, base.values),
            run.scheduler: normalize_to_baseline(run.values, base.values),
        }
        print(
            report.render_normalized_block(
                block,
                f"{args.scenario}, {args.n_jobs} jobs, {run.scheduler}",
            )
        )
        if run.disruption_sig != "none":
            kills = run.result.extras.get("disruption_kills", {})
            print(
                f"\ndisruptions [{run.disruption_sig}]: "
                f"{len(run.result.preemptions)} preemptions "
                f"(failures={kills.get('failure', 0)}, "
                f"drains={kills.get('drain', 0)}, "
                f"voluntary={kills.get('preempt', 0)})"
            )
            domain_kills = run.result.extras.get("domain_kills")
            if domain_kills:
                per_domain = ", ".join(
                    f"{dom}={n}" for dom, n in domain_kills.items()
                )
                print(
                    f"blast radius [{run.topology_sig}]: kills by "
                    f"domain: {per_domain}"
                )
        if run.overhead is not None:
            print(f"\nLLM overhead: {run.overhead.latency}")
            print(f"total elapsed (accepted placements): "
                  f"{run.overhead.elapsed_s:.1f}s over "
                  f"{run.overhead.n_calls} calls")
        return 0

    if args.command == "serve":
        import asyncio

        from repro.service.server import run_server

        if args.host is None and args.port:
            print(
                "error: --port needs --host (or use --socket PATH)",
                file=sys.stderr,
            )
            return 2

        def ready(server) -> None:
            print(
                f"repro-sched daemon listening on {server.address}",
                flush=True,
            )

        try:
            asyncio.run(
                run_server(
                    socket_path=args.socket,
                    host=args.host,
                    port=args.port,
                    store_path=args.store,
                    store_format=args.store_format,
                    workers=args.workers,
                    cache_size=args.cache_size,
                    ready=ready,
                )
            )
        except KeyboardInterrupt:  # pragma: no cover - signal race
            pass
        print("daemon stopped", flush=True)
        return 0

    if args.command == "compare":
        from repro.analysis.significance import (
            compare_schedulers,
            render_comparison,
        )

        comps = compare_schedulers(
            args.scenario,
            args.n_jobs,
            args.a,
            args.b,
            n_seeds=args.seeds,
        )
        print(
            f"== {args.scenario}, {args.n_jobs} jobs, "
            f"{args.seeds} workload seeds (paired)"
        )
        print(render_comparison(comps, args.a, args.b))
        return 0

    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
