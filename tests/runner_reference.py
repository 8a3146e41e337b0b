"""The serial sweep, kept as the reference the parallel sweep is
checked against (not in the package).

:func:`run_matrix` runs the cross product scenario → size → scheduler
in one process, generating each (scenario, size) workload once so every
scheduler sees the identical instance — the comparison the paper
makes. ``tests/test_experiments_parallel.py`` asserts that
:func:`~repro.experiments.parallel.run_matrix_parallel` returns the
same metrics in the same order for any worker count.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.runner import (
    DEFAULT_SCHEDULERS,
    ExperimentRun,
    run_single,
)
from repro.sim.disruptions import DisruptionSpec
from repro.sim.topology import ClusterTopology
from repro.workloads.generator import ArrivalMode, generate_workload


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
