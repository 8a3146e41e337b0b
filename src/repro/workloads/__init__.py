"""Scenario-driven HPC workload generation.

Implements the paper's §3.1 instance generator: seven benchmark
scenarios with scenario-specific runtime/resource distributions and
Poisson (or bursty, or all-at-zero) arrival processes, plus the
Polaris-trace substitute used by §5.

Public surface
--------------
:func:`~repro.workloads.generator.generate_workload`
    ``generate_workload("heterogeneous_mix", n_jobs=60, seed=0)`` →
    ``list[Job]``.
:data:`~repro.workloads.scenarios.SCENARIOS`
    Registry of the seven named scenarios.
:func:`~repro.workloads.polaris.synthesize_polaris_trace` /
:func:`~repro.workloads.polaris.preprocess_trace`
    Polaris-like raw trace synthesis and the paper's preprocessing
    pipeline (filter failed jobs, normalize timestamps, factorize
    users, derive memory from node count).
"""

from repro.workloads.arrivals import (
    AllAtZero,
    ArrivalProcess,
    BurstyArrivals,
    PoissonArrivals,
)
from repro.workloads.dags import critical_path_length, layered_dag_workload
from repro.workloads.generator import generate_workload
from repro.workloads.swf import jobs_from_swf, jobs_to_swf
from repro.workloads.transforms import with_scaled_arrivals
from repro.workloads.polaris import (
    POLARIS_MEMORY_PER_NODE_GB,
    POLARIS_NODES,
    RawTraceRecord,
    preprocess_trace,
    synthesize_polaris_trace,
)
from repro.workloads.scenarios import SCENARIO_NAMES, SCENARIOS, Scenario

__all__ = [
    "AllAtZero",
    "ArrivalProcess",
    "BurstyArrivals",
    "PoissonArrivals",
    "critical_path_length",
    "jobs_from_swf",
    "jobs_to_swf",
    "layered_dag_workload",
    "with_scaled_arrivals",
    "POLARIS_MEMORY_PER_NODE_GB",
    "POLARIS_NODES",
    "RawTraceRecord",
    "SCENARIOS",
    "SCENARIO_NAMES",
    "Scenario",
    "generate_workload",
    "preprocess_trace",
    "synthesize_polaris_trace",
]
