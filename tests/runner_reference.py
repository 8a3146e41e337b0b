"""The serial sweep, kept as the reference the parallel sweep is
checked against (not in the package).

:func:`run_matrix` runs the cross product scenario → size → scheduler
in one process, generating each (scenario, size) workload once so every
scheduler sees the identical instance — the comparison the paper
makes. ``tests/test_experiments_parallel.py`` asserts that
:func:`~repro.experiments.parallel.run_matrix_parallel` returns the
same metrics in the same order for any worker count.

A sweep answers with measurements only, so :func:`forked_run_digests`
is where the determinism tests still compare whole schedules across a
forked process: :func:`cell_run` (``run_single`` for one cell) in a
fork-started child against the same call in the test's process.
"""

from __future__ import annotations

import multiprocessing
from typing import Optional, Sequence

from repro.experiments.parallel import MatrixCell
from repro.experiments.runner import (
    DEFAULT_SCHEDULERS,
    ExperimentRun,
    run_single,
)
from repro.sim.disruptions import DisruptionSpec
from repro.sim.topology import ClusterTopology
from repro.workloads.generator import ArrivalMode, generate_workload

from tests.conftest import run_digest


def run_matrix(
    scenarios: Sequence[str],
    sizes: Sequence[int],
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    *,
    workload_seed: int = 0,
    scheduler_seed: int = 0,
    arrival_mode: ArrivalMode = "scenario",
    disruptions: Optional[DisruptionSpec] = None,
    restart_policy: str = "resubmit",
    checkpoint_interval: Optional[float] = None,
    topology: Optional[ClusterTopology] = None,
) -> list[ExperimentRun]:
    """Cross product of scenarios × sizes × schedulers.

    Workloads are generated once per (scenario, size) so every
    scheduler sees the identical instance — the comparison the paper
    makes. A disruption spec or topology, when given, applies to every
    cell (each cell materializes its own deterministic trace).
    """
    runs: list[ExperimentRun] = []
    for scenario in scenarios:
        for n_jobs in sizes:
            jobs = generate_workload(
                scenario, n_jobs, seed=workload_seed, arrival_mode=arrival_mode
            )
            for scheduler in schedulers:
                runs.append(
                    run_single(
                        scenario,
                        n_jobs,
                        scheduler,
                        workload_seed=workload_seed,
                        scheduler_seed=scheduler_seed,
                        arrival_mode=arrival_mode,
                        jobs=jobs,
                        topology=topology,
                        disruptions=disruptions,
                        restart_policy=restart_policy,
                        checkpoint_interval=checkpoint_interval,
                    )
                )
    return runs


def cell_run(cell: MatrixCell) -> ExperimentRun:
    """``run_single`` for *cell*: the full run whose
    ``StoredRun.from_run`` a sweep answers with."""
    return run_single(
        cell.scenario,
        cell.n_jobs,
        cell.scheduler,
        workload_seed=cell.workload_seed,
        scheduler_seed=cell.scheduler_seed,
        arrival_mode=cell.arrival_mode,
        disruptions=cell.disruptions,
        restart_policy=cell.restart_policy,
        checkpoint_interval=cell.checkpoint_interval,
        topology=cell.topology,
    )


def run_digests(cells: Sequence[MatrixCell]) -> list[str]:
    """``run_digest`` of each cell's full schedule, in this process."""
    return [run_digest(cell_run(cell)) for cell in cells]


def forked_run_digests(cells: Sequence[MatrixCell]) -> list[str]:
    """:func:`run_digests` computed in one fork-started child process
    (a sweep worker's start method)."""
    with multiprocessing.get_context("fork").Pool(1) as pool:
        return pool.apply(run_digests, (list(cells),))
