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
import contextlib
import sys
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments import figures, report
from repro.experiments.parallel import expand_cells, run_matrix_parallel
from repro.experiments.runner import DEFAULT_SCHEDULERS, run_single
from repro.experiments.store import FailedCell
from repro.experiments.storage import (
    ShardedStore,
    is_sharded_store,
    open_store,
)
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


#: The disruption and topology flag groups, one row per field of
#: ``DisruptionSpec`` / ``ClusterTopology`` that has a flag: field name →
#: (type, or the list of choices, and the help string). The flag is the
#: field name with dashes, except for the rows in :data:`_FLAG_RENAMES`;
#: every flag defaults to ``None`` ("not given"), which is how
#: :func:`_build_disruption_spec` tells an override from a preset value.
#: ``tests/test_cli_surface.py`` checks each row names a real field and
#: makes a field without a row an explicit decision.
_DISRUPTION_FLAGS = {
    "mtbf": (float, "per-node mean time between failures (seconds)"),
    "mttr": (float, "mean time to repair a failed node (seconds; default 900)"),
    "failure_model": (
        ["exponential", "weibull"],
        "node up-time distribution (default exponential)",
    ),
    "drain_every": (float, "period between maintenance drains (seconds)"),
    "drain_nodes": (int, "nodes taken per drain window"),
    "drain_duration": (float, "drain window length (seconds; default 3600)"),
    "drain_lead": (
        float, "announcement lead before each drain (seconds; default 1800)"
    ),
    "drain_first": (
        float,
        "offset of the first drain window (seconds; default 7200 — "
        "lower it for short workloads or no window will fit the "
        "horizon)",
    ),
    "rack_mtbf": (
        float,
        "mean time between correlated shocks per failure domain "
        "(seconds); enables whole-block rack/switch failures",
    ),
    "correlation": (
        float,
        "fraction of the struck domain each shock kills, in (0, 1] "
        "(default 1.0: the whole rack/switch group)",
    ),
    "correlation_level": (
        ["rack", "switch"],
        "hierarchy level the shock process runs at (default rack)",
    ),
    "seed": (int, "seed for the failure RNG streams (default 0)"),
}
_TOPOLOGY_FLAGS = {
    "rack_size": (
        int,
        f"nodes per rack over the {CLUSTER_NODES}-node partition "
        "(default: flat — no failure domains)",
    ),
    "racks_per_switch": (
        int, "racks per switch group (default 1; requires --rack-size)"
    ),
}
#: Field name → ``args`` attribute where the two differ.
_FLAG_RENAMES = {"seed": "disruption_seed"}


def _add_field_flags(group, table) -> None:
    for field, (kind, help_text) in table.items():
        flag = "--" + _FLAG_RENAMES.get(field, field).replace("_", "-")
        spec = {"type": kind} if isinstance(kind, type) else {"choices": kind}
        group.add_argument(flag, default=None, help=help_text, **spec)


def _given_fields(args, table) -> dict:
    """``{field: value}`` for the rows of *table* whose flag was given."""
    given = {}
    for field in table:
        value = getattr(args, _FLAG_RENAMES.get(field, field))
        if value is not None:
            given[field] = value
    return given


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
    _add_field_flags(g, _DISRUPTION_FLAGS)
    _add_field_flags(p.add_argument_group("topology"), _TOPOLOGY_FLAGS)
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


class UsageError(ValueError):
    """A flag combination or an argument the command cannot act on.
    Handlers raise it; :func:`main` reports it as ``error: <msg>`` and
    exits 2 — the one place a usage error is printed."""


#: The name this class had while only the disruption flags raised it.
DisruptionArgsError = UsageError


@contextlib.contextmanager
def _usage_errors(prefix: str = ""):
    """Report a ``ValueError`` from the wrapped call (a store that
    cannot be opened, a spec that rejects its values) as a usage error
    instead of a traceback."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(f"{prefix}{exc}") from exc


def _check_fault_args(args) -> None:
    """Friendly validation for the fault-tolerance flags."""
    if args.cell_timeout is not None and args.cell_timeout <= 0:
        raise UsageError("--cell-timeout must be positive")
    if args.max_retries < 0:
        raise UsageError("--max-retries must be >= 0")
    if args.retry_backoff is not None and args.retry_backoff < 0:
        raise UsageError("--retry-backoff must be >= 0")


def _build_disruption_spec(args) -> Optional[DisruptionSpec]:
    """Combine a preset with flag overrides; None when undisrupted.

    Raises :class:`UsageError` on invalid combinations
    (e.g. ``--drain-every`` without ``--drain-nodes``, or
    ``--restart-policy checkpoint`` without ``--checkpoint-interval``).
    """
    if (
        args.restart_policy.replace("-", "_") == "checkpoint"
        and args.checkpoint_interval is None
    ):
        raise UsageError(
            "--restart-policy checkpoint requires --checkpoint-interval"
        )
    if args.checkpoint_interval is not None and args.checkpoint_interval <= 0:
        raise UsageError("--checkpoint-interval must be positive")
    base = (
        get_disruption_preset(args.disruptions)
        if args.disruptions
        else DisruptionSpec()
    )
    overrides = _given_fields(args, _DISRUPTION_FLAGS)
    if overrides:
        import dataclasses

        with _usage_errors():
            base = dataclasses.replace(base, **overrides)
    if (
        (args.correlation is not None or args.correlation_level is not None)
        and base.rack_mtbf is None
    ):
        raise UsageError(
            "--correlation/--correlation-level need --rack-mtbf (or a "
            "correlated preset) to have any effect"
        )
    return base if base else None


def _build_topology(args) -> Optional[ClusterTopology]:
    """Topology flags → :class:`ClusterTopology` over the paper's
    partition; ``None`` (flat) when no flag was given."""
    given = _given_fields(args, _TOPOLOGY_FLAGS)
    if "rack_size" not in given:
        if given:
            raise UsageError("--racks-per-switch requires --rack-size")
        return None
    with _usage_errors():
        return ClusterTopology(n_nodes=CLUSTER_NODES, **given)


def _experiment_kwargs(args) -> dict:
    """The disruption regime, restart policy and topology of a ``run``
    or ``matrix`` — validated once (``--anneal-window`` with them: the
    config would reject it anyway, but deep inside a worker process),
    passed to every call that takes them."""
    kwargs = {
        "disruptions": _build_disruption_spec(args),
        "topology": _build_topology(args),
        "restart_policy": args.restart_policy.replace("-", "_"),
        "checkpoint_interval": args.checkpoint_interval,
    }
    if args.anneal_window is not None and args.anneal_window < 2:
        raise UsageError("--anneal-window must be at least 2")
    return kwargs


def _command(sub, name: str, handler, **kwargs) -> argparse.ArgumentParser:
    """One subcommand: its parser, with the ``_cmd_*`` function that
    :func:`main` calls for it."""
    p = sub.add_parser(name, **kwargs)
    p.set_defaults(handler=handler)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sched",
        description=(
            "Reproduction harness for 'Evaluating the Efficacy of "
            "LLM-Based Reasoning for Multiobjective HPC Job Scheduling'"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p2 = _command(sub, "fig2", _cmd_fig2, help="representative reasoning traces")
    p2.add_argument("--model", default="claude-3.7-sim")
    p2.add_argument("--n-jobs", type=int, default=20)
    _add_common(p2)

    p3 = _command(sub, "fig3", _cmd_figure, help="six scenarios × 60 jobs")
    p3.add_argument("--n-jobs", type=int, default=60)
    _add_common(p3)

    p4 = _command(sub, "fig4", _cmd_figure, help="scalability on heterogeneous mix")
    p4.add_argument(
        "--sizes", type=int, nargs="+", default=[10, 20, 40, 60, 80, 100]
    )
    _add_common(p4)

    p5 = _command(sub, "fig5", _cmd_figure, help="overhead per scenario (60 jobs)")
    p5.add_argument("--n-jobs", type=int, default=60)
    _add_common(p5)

    p6 = _command(sub, "fig6", _cmd_figure, help="overhead scaling with queue size")
    p6.add_argument(
        "--sizes", type=int, nargs="+", default=[10, 20, 40, 60, 80, 100]
    )
    _add_common(p6)

    p7 = _command(sub, "fig7", _cmd_figure, help="robustness over repetitions")
    p7.add_argument("--n-jobs", type=int, default=100)
    p7.add_argument("--repeats", type=int, default=5)
    _add_common(p7)

    p8 = _command(sub, "fig8", _cmd_figure, help="Polaris trace evaluation")
    p8.add_argument("--n-jobs", type=int, default=100)
    p8.add_argument("--trace-seed", type=int, default=2024)
    _add_common(p8)

    pr = _command(
        sub, "run", _cmd_run, help="one scenario × scheduler simulation"
    )
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

    pm = _command(
        sub, "matrix", _cmd_matrix,
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
            "this long has its (hung) worker killed and replaced, and "
            "is retried (default: no timeout; with one, cells run in "
            "worker processes even at --workers 1)"
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

    ps = _command(
        sub, "report", _cmd_report,
        help="render normalized metrics from an artifact store",
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
    pdoc = _command(
        store_sub, "doctor", _cmd_store_doctor,
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
    pmig = _command(
        store_sub, "migrate", _cmd_store_migrate,
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
    pdig = _command(
        store_sub, "digest", _cmd_store_digest,
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

    pv = _command(
        sub, "serve", _cmd_serve,
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

    pc = _command(
        sub, "compare", _cmd_compare,
        help="paired cross-seed comparison of two schedulers (Wilcoxon)",
    )
    pc.add_argument("--scenario", required=True, choices=sorted(SCENARIOS))
    pc.add_argument("--a", required=True, help="first scheduler")
    pc.add_argument("--b", required=True, help="second scheduler")
    pc.add_argument("-n", "--n-jobs", type=int, default=40)
    pc.add_argument("--seeds", type=int, default=8)

    _command(sub, "list", _cmd_list, help="list scenarios and schedulers")
    return parser


def _cmd_list(args) -> int:
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


def _cmd_fig2(args) -> int:
    for sample in figures.figure2(
        model=args.model, n_jobs=args.n_jobs, seed=args.seed
    ):
        print(sample.render())
        print()
    return 0


#: fig3–fig8: the ``figures`` function and the keywords it takes from
#: ``args``, the ``report`` renderer and its keywords. Both functions are
#: looked up when the command runs.
_FIGURES = {
    "fig3": (
        "figure3", ("n_jobs", "workload_seed", "scheduler_seed"),
        "render_figure3", {},
    ),
    "fig4": (
        "figure4", ("sizes", "workload_seed", "scheduler_seed"),
        "render_figure4", {},
    ),
    "fig5": (
        "figure5", ("n_jobs", "workload_seed", "scheduler_seed"),
        "render_overhead_table",
        {
            "key_label": "scenario",
            "title": "Figure 5 — overhead per scenario (60 jobs)",
        },
    ),
    "fig6": (
        "figure6", ("sizes", "workload_seed", "scheduler_seed"),
        "render_overhead_table",
        {
            "key_label": "n_jobs",
            "title": "Figure 6 — overhead scaling (heterogeneous mix)",
        },
    ),
    "fig7": (
        "figure7", ("n_jobs", "n_repeats", "workload_seed"),
        "render_figure7", {},
    ),
    "fig8": (
        "figure8", ("n_jobs", "trace_seed", "scheduler_seed"),
        "render_figure8", {},
    ),
}
#: Figure keyword → ``args`` attribute where the two differ.
_FIGURE_ARGS = {"workload_seed": "seed", "n_repeats": "repeats"}


def _cmd_figure(args) -> int:
    fig_name, keywords, render_name, render_kwargs = _FIGURES[args.command]
    data = getattr(figures, fig_name)(
        **{kw: getattr(args, _FIGURE_ARGS.get(kw, kw)) for kw in keywords}
    )
    print(getattr(report, render_name)(data, **render_kwargs))
    return 0


def _cmd_run(args) -> int:
    shared = {
        "workload_seed": args.seed,
        "arrival_mode": args.arrival_mode,
        "enforce_walltime": args.enforce_walltime,
        **_experiment_kwargs(args),
    }
    run = run_single(
        args.scenario,
        args.n_jobs,
        args.scheduler,
        scheduler_seed=args.scheduler_seed,
        max_decisions=args.max_decisions,
        anneal_window=args.anneal_window,
        **shared,
    )
    base = run_single(args.scenario, args.n_jobs, "fcfs", **shared)
    block = {
        "fcfs": normalize_to_baseline(base.values, base.values),
        run.scheduler: normalize_to_baseline(run.values, base.values),
    }
    title = f"{args.scenario}, {args.n_jobs} jobs, {run.scheduler}"
    print(report.render_normalized_block(block, title))
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
            per_domain = ", ".join(f"{d}={n}" for d, n in domain_kills.items())
            print(
                f"blast radius [{run.topology_sig}]: kills by "
                f"domain: {per_domain}"
            )
    if run.overhead is not None:
        print(f"\nLLM overhead: {run.overhead.latency}")
        print(
            "total elapsed (accepted placements): "
            f"{run.overhead.elapsed_s:.1f}s over {run.overhead.n_calls} calls"
        )
    return 0


def _open_archive(
    path: str, *, must_exist: bool = False, repair: bool = False
):
    """``open_store`` for the commands that read or repair an archive.
    A directory that is not a sharded store is not an archive at all
    (``open_store`` takes any directory as the place to lay a fresh
    one out), and ``doctor``/``digest`` refuse a missing path too.
    Only ``doctor`` opens for *repair*: a garbled manifest, which is
    an error to every other command, is its to rebuild."""
    p = Path(path)
    if (p.is_dir() and not is_sharded_store(p)) or (
        must_exist and not p.exists()
    ):
        raise UsageError(f"no store at {path}")
    with _usage_errors():
        if repair and p.is_dir():
            return ShardedStore.for_repair(p)
        return open_store(path)


def _drive_sweep(
    args, launch, store, *, on_cell_failure: str, interrupted, finish,
    failed_head: str, failed_foot: Optional[str] = None,
) -> int:
    """The sweep behind ``matrix`` and ``matrix --retry-failed``.

    *launch* is ``run_matrix_parallel`` / ``run_cells`` with its cells
    bound, called here with the progress printer and the pool and
    fault-tolerance keywords. Ctrl-C prints ``interrupted(exc)`` and
    exits 130; a cell out of retries under the abort policy exits 1;
    otherwise ``finish(runs)`` reports the sweep, and quarantined cells
    are listed under *failed_head* / *failed_foot* with exit 3.
    """
    from repro.experiments.parallel import (
        DEFAULT_RETRY_BACKOFF_S,
        CellFailedError,
    )

    def progress(cell, completed, total):
        print(
            f"[{completed}/{total}] {cell.scenario} n={cell.n_jobs} "
            f"{cell.scheduler} wseed={cell.workload_seed} "
            f"sseed={cell.scheduler_seed}",
            flush=True,
        )

    failures: list[FailedCell] = []
    try:
        runs = launch(
            workers=args.workers,
            store=store,
            progress=progress,
            cell_timeout=args.cell_timeout,
            max_retries=args.max_retries,
            retry_backoff_s=(
                DEFAULT_RETRY_BACKOFF_S
                if args.retry_backoff is None
                else args.retry_backoff
            ),
            on_cell_failure=on_cell_failure,
            failures=failures,
        )
    except KeyboardInterrupt as exc:
        print(f"\n{interrupted(exc)}", file=sys.stderr)
        return 130
    except CellFailedError as exc:
        print(f"\nerror: sweep aborted — {exc}", file=sys.stderr)
        if store is not None:
            print(
                f"{len(store.completed_keys())} cells persisted in {args.out}; "
                "fix the failure and re-run with --resume (or use "
                "--on-cell-failure quarantine to finish around it)",
                file=sys.stderr,
            )
        return 1
    finish(runs)
    if not failures:
        return 0
    print(failed_head.format(n=len(failures)), file=sys.stderr)
    for fc in failures:
        print(
            f"  {fc.label}: {fc.kind} x{fc.attempts} — "
            f"{fc.error_type}: {fc.message}",
            file=sys.stderr,
        )
    if failed_foot:
        print(failed_foot, file=sys.stderr)
    return 3


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
    from repro.experiments.parallel import MatrixCell, run_cells
    from repro.experiments.store import FailureSidecar

    if args.scenarios or args.sizes or args.resume or args.out:
        raise UsageError(
            "--retry-failed takes the cell list from the failure sidecar; "
            "it cannot be combined with --scenarios/--sizes/--out/--resume"
        )
    _check_fault_args(args)
    store = _open_archive(args.retry_failed)
    sidecar = FailureSidecar.for_store(store)
    if not sidecar.path.exists():
        print(f"nothing to retry: no failure sidecar at {sidecar.path}")
        return 0
    with _usage_errors(f"unreadable sidecar {sidecar.path}: "):
        records = sidecar.load()
    if not records:
        print(f"nothing to retry: {sidecar.path} is empty")
        return 0
    unretriable = [r for r in records if r.config is None]
    if unretriable:
        raise UsageError(
            f"{len(unretriable)} record(s) in {sidecar.path} predate the "
            "config-carrying sidecar format (schema v1) and cannot be rebuilt; "
            "re-run the original matrix command with --resume instead"
        )
    cells: dict = {}
    for rec in records:
        with _usage_errors(f"bad config in {sidecar.path} for {rec.label}: "):
            cell = MatrixCell.from_config(rec.config)
        cells.setdefault(cell.key, cell)
    print(f"retrying {len(cells)} quarantined cell(s) from {sidecar.path}")

    def finish(runs) -> None:
        # Recovered cells leave the sidecar; the cells that failed
        # again each appended a refreshed record, which prune compacts.
        recovered = cells.keys() & store.completed_keys()
        sidecar.prune(recovered)
        print(
            f"recovered {len(recovered)}/{len(cells)} cell(s) into {store.path}"
        )

    return _drive_sweep(
        args,
        partial(run_cells, list(cells.values()), resume=True),
        store,
        on_cell_failure="quarantine",
        interrupted=lambda exc: (
            "interrupted — completed retries are persisted in "
            f"{store.path}; run --retry-failed again to finish"
        ),
        finish=finish,
        failed_head="{n} cell(s) still failing (sidecar kept):",
    )


def _print_matrix_report(runs, wanted: set, store) -> None:
    """Report this invocation's matrix: fresh results win, persisted
    runs fill in resumed cells, and unrelated sweeps sharing the store
    file stay out of the output. Tolerate corrupt lines here — the
    sweep itself succeeded; damage on disk is surfaced loudly by
    --resume and repaired by `store doctor`."""
    source = list(runs)
    if store is not None:
        # Keyed backend query: only the wanted cells come back (on a
        # sharded store, only their shards are even parsed).
        source += store.iter_runs(
            keys=wanted - {r.key for r in runs}, on_corrupt="quarantine"
        )
    if source:
        print(report.render_matrix_blocks(figures.matrix_blocks(source)))


def _cmd_matrix(args) -> int:
    if args.retry_failed is not None:
        return _matrix_retry_failed(args)
    if not args.scenarios or not args.sizes:
        raise UsageError(
            "--scenarios and --sizes are required (or use --retry-failed STORE)"
        )
    if args.resume and not args.out:
        raise UsageError("--resume requires --out")
    if args.shards is not None and args.store_format != "sharded":
        raise UsageError("--shards needs --store-format sharded")
    store = None
    if args.out:
        with _usage_errors():
            store = open_store(
                args.out, format=args.store_format, n_shards=args.shards
            )
    # What identifies this sweep's cells, built once for the pool and
    # for the report's own expansion of the same matrix.
    matrix = (args.scenarios, args.sizes, args.schedulers)
    identity = {
        "workload_seeds": args.seeds,
        "scheduler_seeds": args.scheduler_seeds,
        "arrival_mode": args.arrival_mode,
        "anneal_window": args.anneal_window,
        **_experiment_kwargs(args),
    }
    _check_fault_args(args)

    def interrupted(exc) -> str:
        detail = f" ({exc})" if str(exc) else ""
        if store is None:
            return f"interrupted{detail} (no --out store; nothing persisted)"
        return (
            f"interrupted{detail} — {len(store.completed_keys())} cells persisted "
            f"in {args.out}; re-run with --resume to finish the rest"
        )

    def finish(runs) -> None:
        cells = expand_cells(*matrix, **identity)
        if args.resume:
            print(f"resumed: {len(cells) - len(runs)} cells already in "
                  f"{args.out}, {len(runs)} executed")
        _print_matrix_report(runs, {c.key for c in cells}, store)

    return _drive_sweep(
        args,
        partial(run_matrix_parallel, *matrix, **identity, resume=args.resume),
        store,
        on_cell_failure=args.on_cell_failure,
        interrupted=interrupted,
        finish=finish,
        failed_head=(
            "\n{n} cell(s) quarantined after exhausting retries "
            "(every other cell completed):"
        ),
        failed_foot=None if store is None else (
            f"details in {store.sidecar_path}; the quarantined cells are "
            "not persisted and will re-run under --resume"
        ),
    )


def _cmd_store_doctor(args) -> int:
    store = _open_archive(args.path, must_exist=True, repair=True)
    doc = store.doctor(dry_run=args.dry_run, dedupe=args.dedupe)
    print(doc.summary())
    return 0 if doc.clean else 1


def _cmd_store_migrate(args) -> int:
    from repro.experiments import storage

    merging = storage.detect_format(args.src) == "sharded"
    if merging and args.shards is not None:
        raise UsageError(
            "--shards applies when splitting jsonl -> sharded, not merging back"
        )
    with _usage_errors():
        if merging:
            rep = storage.migrate_to_jsonl(args.src, args.dest)
        else:
            n_shards = (
                storage.DEFAULT_SHARDS if args.shards is None else args.shards
            )
            rep = storage.migrate_to_sharded(
                args.src, args.dest, n_shards=n_shards
            )
    print(rep.summary())
    return 0


def _cmd_store_digest(args) -> int:
    from repro.experiments.storage import store_digest

    store = _open_archive(args.path, must_exist=True)
    with _usage_errors():
        print(store_digest(store))
    return 0


def _cmd_report(args) -> int:
    where = {}
    for item in args.where or ():
        field, sep, value = item.partition("=")
        if not sep or not field:
            raise UsageError(f"bad --where {item!r} (expected FIELD=VALUE)")
        where[field] = value
    store = _open_archive(args.store)
    with _usage_errors():
        blocks = figures.store_blocks(store, where=where)
    if not blocks:
        print(f"no runs in {args.store}", file=sys.stderr)
        return 1
    if where:
        print(f"== {report.describe_where(where)}\n")
    print(report.render_matrix_blocks(blocks))
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service.server import run_server

    if args.host is None and args.port:
        raise UsageError("--port needs --host (or use --socket PATH)")

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
                ready=lambda server: print(
                    f"repro-sched daemon listening on {server.address}",
                    flush=True,
                ),
            )
        )
    except KeyboardInterrupt:  # pragma: no cover - signal race
        pass
    print("daemon stopped", flush=True)
    return 0


def _cmd_compare(args) -> int:
    from repro.analysis.significance import (
        compare_schedulers,
        render_comparison,
    )

    comps = compare_schedulers(
        args.scenario, args.n_jobs, args.a, args.b, n_seeds=args.seeds
    )
    print(
        f"== {args.scenario}, {args.n_jobs} jobs, "
        f"{args.seeds} workload seeds (paired)"
    )
    print(render_comparison(comps, args.a, args.b))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
