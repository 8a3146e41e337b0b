#!/usr/bin/env python
"""Replay a (synthetic) Polaris trace through every scheduler (paper §5).

Pipeline, exactly as the paper describes:

1. take a raw job-history segment (here: the statistical Polaris
   substitute — 560 nodes × 512 GB, PBS-shaped records with failures);
2. preprocess it — drop EXIT_STATUS = -1 jobs, sort by submission,
   normalize timestamps, factorize users/groups, derive memory as
   512 GB × nodes;
3. save/reload the cleaned trace in the Standard Workload Format
   (SWF, the format published HPC traces use — the artifact you would
   publish for reproducibility; SWF keeps times to two decimals and
   numeric user/group ids);
4. evaluate FCFS, SJF, the optimizer and both LLM agents on the
   assumed-idle partition and print normalized metrics.

Run:  python examples/polaris_replay.py
"""

import tempfile
from pathlib import Path

from repro import compute_metrics, create_scheduler, normalize_to_baseline
from repro.experiments.report import render_normalized_block
from repro.sim.cluster import ResourcePool
from repro.sim.simulator import HPCSimulator
from repro.workloads.polaris import (
    POLARIS_MEMORY_PER_NODE_GB,
    POLARIS_NODES,
    preprocess_trace,
    synthesize_polaris_trace,
)
from repro.workloads.swf import jobs_from_swf, jobs_to_swf

N_JOBS = 100
TRACE_SEED = 2024


def main() -> None:
    raw = synthesize_polaris_trace(n_jobs=130, seed=TRACE_SEED)
    failed = sum(1 for r in raw if r.exit_status == -1)
    print(f"Raw trace: {len(raw)} records, {failed} failed (filtered)")

    jobs = preprocess_trace(raw, n_jobs=N_JOBS)
    users = {j.user for j in jobs}
    print(
        f"Preprocessed: {len(jobs)} jobs, {len(users)} anonymized users, "
        f"node range {min(j.nodes for j in jobs)}-"
        f"{max(j.nodes for j in jobs)}, memory = 512 GB x nodes"
    )

    # Publishable artifact: save and reload the cleaned trace.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "polaris_100.swf"
        jobs_to_swf(jobs, path)
        jobs = jobs_from_swf(path)
        print(f"Trace round-tripped through {path.name} "
              f"({path.stat().st_size} bytes)\n")

    results = {}
    for name in ("fcfs", "sjf", "ortools_like", "claude-3.7-sim", "o4-mini-sim"):
        sim = HPCSimulator(
            jobs=jobs,
            scheduler=create_scheduler(name, seed=0),
            cluster=ResourcePool(
                total_nodes=POLARIS_NODES,
                total_memory_gb=POLARIS_NODES * POLARIS_MEMORY_PER_NODE_GB,
            ),
        )
        result = sim.run()
        result.verify_capacity()
        results[name] = compute_metrics(result).values

    block = {
        name: normalize_to_baseline(values, results["fcfs"])
        for name, values in results.items()
    }
    print(
        render_normalized_block(
            block,
            f"Polaris trace, {N_JOBS} jobs, {POLARIS_NODES} nodes x "
            f"{POLARIS_MEMORY_PER_NODE_GB:g} GB, assumed idle at t=0",
        )
    )
    print(
        "\nNote: as in the paper, the idle-start assumption makes this a "
        "generalization check, not a comparison against the real Polaris "
        "scheduler."
    )


if __name__ == "__main__":
    main()
