"""Pinning tests for the structure-of-arrays simulator core (PR 6).

1. **Engine byte-identity**: the SoA core must replay the object-graph
   oracle (``run_object`` in ``tests/object_reference.py``, substituted for
   ``HPCSimulator.run`` by the ``object_engine`` fixture) bit for bit —
   records, decisions, preemptions, extras, and metric floats — across
   the scheduler comparison set and every disruption regime (node
   failures, correlated rack shocks, drains, checkpoint/migrate restart
   policies, walltime enforcement).
2. **Pinned digests**: a seeded cell matrix — including every identity
   cell above — hashes to digests generated by the object oracle, so
   SoA drift is caught by a constant and not only by agreement with a
   twin.
3. **Parallel identity**: a serial sweep and a 2-worker sweep of the
   same cells digest identically (the satellite CI smoke runs the same
   check via the CLI).
"""

import pytest

from repro.experiments.parallel import expand_cells, run_cells
from repro.experiments.runner import run_single
from repro.schedulers.registry import create_scheduler
from repro.sim.disruptions import DisruptionSpec
from repro.sim.cluster import ResourcePool
from repro.sim.engine import EngineState
from repro.sim.simulator import HPCSimulator, SimulationError
from repro.sim.topology import ClusterTopology
from repro.workloads.generator import generate_workload

from tests.conftest import make_job, run_digest
from tests.runner_reference import forked_run_digests, run_digests

SPEC = DisruptionSpec(
    mtbf=40_000.0,
    mttr=4_000.0,
    seed=7,
    drain_every=120_000.0,
    drain_nodes=24,
    drain_duration=10_000.0,
    drain_lead=5_000.0,
)
CORRELATED = DisruptionSpec(
    mtbf=60_000.0, mttr=3_000.0, rack_mtbf=200_000.0, seed=11
)
TOPOLOGY = ClusterTopology(n_nodes=256, rack_size=16, racks_per_switch=4)

#: Seeds every identity cell runs with.
IDENTITY_SEEDS = {"workload_seed": 3, "scheduler_seed": 5}

#: (scenario, n_jobs, scheduler, extra run_single kwargs) — one cell
#: per behavioural regime the engines must agree on.
IDENTITY_CELLS = [
    pytest.param("heterogeneous_mix", 120, "fcfs", {}, id="fcfs"),
    pytest.param("heterogeneous_mix", 120, "sjf", {}, id="sjf"),
    pytest.param(
        "heterogeneous_mix", 100, "ortools_like", {}, id="optimizer"
    ),
    pytest.param(
        "heterogeneous_mix", 100, "claude-3.7-sim", {}, id="llm-claude"
    ),
    pytest.param(
        "heterogeneous_mix", 100, "o4-mini-sim", {}, id="llm-o4"
    ),
    pytest.param(
        "adversarial",
        120,
        "claude-3.7-sim",
        {"enforce_walltime": True},
        id="walltime-kills",
    ),
    pytest.param(
        "checkpoint_stress",
        120,
        "fcfs",
        {
            "disruptions": SPEC,
            "restart_policy": "checkpoint",
            "checkpoint_interval": 900.0,
        },
        id="disrupted-checkpoint",
    ),
    pytest.param(
        "rack_storm",
        120,
        "sjf",
        {
            "disruptions": CORRELATED,
            "topology": TOPOLOGY,
            "restart_policy": "preempt_migrate",
            "checkpoint_interval": 1200.0,
        },
        id="correlated-migrate",
    ),
    pytest.param(
        "drain_window",
        100,
        "ortools_like",
        {"disruptions": SPEC, "enforce_walltime": True},
        id="drained-walltime",
    ),
]


class TestEngineByteIdentity:
    def test_fixture_substitutes_the_oracle(self, object_engine):
        """The comparisons below are only as good as the seam: inside
        the block the oracle must really be what runs, and the SoA core
        must be back afterwards."""
        from tests.object_reference import run_object

        product_run = HPCSimulator.run
        with object_engine():
            assert HPCSimulator.run is run_object
        assert HPCSimulator.run is product_run

    @pytest.mark.parametrize("scenario,n,scheduler,kw", IDENTITY_CELLS)
    def test_engines_identical(
        self, scenario, n, scheduler, kw, object_engine
    ):
        soa = run_single(scenario, n, scheduler, **IDENTITY_SEEDS, **kw)
        with object_engine():
            obj = run_single(scenario, n, scheduler, **IDENTITY_SEEDS, **kw)
        a, b = obj.result, soa.result
        assert a.records == b.records
        assert a.decisions == b.decisions
        assert a.preemptions == b.preemptions
        assert a.extras == b.extras
        assert run_digest(obj) == run_digest(soa)

    def test_decision_budget_identical(self, object_engine):
        """Both engines enforce ``max_decisions`` at the same count."""
        jobs = generate_workload("homogeneous_short", 8, seed=0)

        def exhaust():
            sim = HPCSimulator(
                jobs=list(jobs),
                scheduler=create_scheduler("fcfs"),
                max_decisions=3,
            )
            with pytest.raises(SimulationError, match="budget exhausted \\(3\\)"):
                sim.run()

        exhaust()
        with object_engine():
            exhaust()


#: SHA-256 digests of the identity cells above (at
#: :data:`IDENTITY_SEEDS`), generated by the *object* oracle at the
#: last commit where it was a product option (``engine="object"``,
#: f8eab45) and equal to the SoA digests there.
IDENTITY_DIGESTS = {
    "fcfs":
        "82f21c9999cda061b98036664b8248b0720df5da51738962869d9757ed6a768a",
    "sjf":
        "328e83e79a4672dd86b65a0e839f3c56521f8ede86558b1fe4fe7f8e12ade0d1",
    "optimizer":
        "72902ed4f049ba68f15d30880cadc59447bf4aaf1eb5b259e8433292bddcbe44",
    "llm-claude":
        "24f49b690d0825e665edc57435b9cdd1207868be494233525d8b08eabcc2e2ef",
    "llm-o4":
        "52dc6e35f326a0827c2f981f7de4a99537cf02c8ee55dd533eb48b1b42043dab",
    "walltime-kills":
        "8d11b11220ea41b788292168d832c6dc2e8b24564cbd71b88ab44492b61b1737",
    "disrupted-checkpoint":
        "1974f37222a9c334395cca7cbb40fd9f2d89dffcfd08339f4264530700068e54",
    "correlated-migrate":
        "f7dbfa1242e69c224640d996034397b6c858557b0de586630cfbbcd8bfde7da9",
    "drained-walltime":
        "3fd0b1d1e20bfdfad57790980dfadc325896391c261809014420e4391e6d0a6d",
}

#: SHA-256 digests generated by the *object* engine — the first six at
#: the commit that introduced the SoA core, the identity cells per
#: :data:`IDENTITY_DIGESTS`; ``run_single(scenario, n, scheduler,
#: workload_seed=ws, scheduler_seed=ss, **kw)`` must keep reproducing
#: them byte for byte.
PINNED_CELLS = [
    pytest.param(
        "heterogeneous_mix", 60, "fcfs", 0, 0, {},
        "71af564cdf0415f5399d3ab87e34a55bed38b36bd15d017530cf30208d37646d",
        id="fcfs",
    ),
    pytest.param(
        "heterogeneous_mix", 60, "sjf", 1, 0, {},
        "d0439bb4de84d38535f2759ab92939a76a77f7076020a847a3461b7efb4439ff",
        id="sjf",
    ),
    pytest.param(
        "bursty_idle", 50, "ortools_like", 0, 2, {},
        "a6b69ec95af0b74869e7a48bfedd4b825fbae1367e22d0ef6ed7326194414648",
        id="optimizer",
    ),
    pytest.param(
        "adversarial", 50, "claude-3.7-sim", 3, 0,
        {"enforce_walltime": True},
        "9218b4604e54df45bfddf9d33ff845ae53cc3e27de15e776ac6f4129620942c4",
        id="llm-walltime",
    ),
    pytest.param(
        "checkpoint_stress", 80, "fcfs", 0, 0,
        {
            "disruptions": SPEC,
            "restart_policy": "checkpoint",
            "checkpoint_interval": 900.0,
        },
        "0850137d018b910d6c402b5ab0bcc0e592323821687cd78c6ba520898d50aa1a",
        id="disrupted",
    ),
    pytest.param(
        "rack_storm", 80, "sjf", 2, 0,
        {
            "disruptions": CORRELATED,
            "topology": TOPOLOGY,
            "restart_policy": "preempt_migrate",
            "checkpoint_interval": 1200.0,
        },
        "e35d3d707fa9dc5e6c20db72977ed8e33bba312b1b43e5db1ad4e4d8ca77d406",
        id="correlated",
    ),
] + [
    pytest.param(
        *cell.values[:3],
        IDENTITY_SEEDS["workload_seed"],
        IDENTITY_SEEDS["scheduler_seed"],
        cell.values[3],
        IDENTITY_DIGESTS[cell.id],
        id=f"identity-{cell.id}",
    )
    for cell in IDENTITY_CELLS
]


class TestPinnedDigests:
    @pytest.mark.parametrize(
        "scenario,n,scheduler,ws,ss,kw,expected", PINNED_CELLS
    )
    def test_digest_pinned(self, scenario, n, scheduler, ws, ss, kw, expected):
        run = run_single(
            scenario, n, scheduler, workload_seed=ws, scheduler_seed=ss, **kw
        )
        assert run_digest(run) == expected


class TestRunningIndexOrder:
    def test_tied_keys_keep_key_seq_order(self, rng):
        """Jobs start, complete and are killed in an order unlike the
        order of their keys, and most keys tie: after every step each
        running-set index equals ``sorted()`` of the running set's
        ``(key, seq)`` rows, so ties keep placement order."""
        jobs = [
            make_job(
                job_id,
                submit=float(rng.choice([0.0, 5.0, 20.0])),
                duration=float(rng.choice([10.0, 50.0])),
                walltime=float(rng.choice([50.0, 100.0])),
                nodes=int(rng.integers(1, 3)),
            )
            for job_id in range(1, 81)
        ]
        state = EngineState(
            HPCSimulator(
                jobs=sorted(jobs, key=lambda job: (job.submit_time, job.job_id)),
                scheduler=create_scheduler("first_fit"),
                cluster=ResourcePool(total_nodes=16, total_memory_gb=1024.0),
            )
        )
        ties = kills = 0
        while state.step():
            if state.running and rng.random() < 0.3:
                state.kill(int(rng.choice(list(state.running))), state.now, "failure")
                kills += 1
            info = state.run_info
            wt_rows = sorted(
                (key, seq, job_id) for job_id, (seq, key, _) in info.items()
            )
            end_rows = sorted(
                (end, seq, job_id) for job_id, (seq, _, end) in info.items()
            )
            assert [
                (key, seq, run.job.job_id) for key, seq, run in state.wt_index
            ] == wt_rows
            assert state.end_index == end_rows
            ties += len(wt_rows) - len({key for key, _, _ in wt_rows})
        assert ties > 50 and kills > 5
        assert len(state.result().records) == len(jobs)


class TestParallelIdentity:
    def test_serial_vs_two_workers(self):
        cells = expand_cells(
            ["heterogeneous_mix"],
            [40],
            ["fcfs", "sjf", "ortools_like"],
            workload_seeds=(0, 1),
        )
        # The sweep answers with measurements; the whole schedules are
        # compared across a forked process by digest.
        serial = run_cells(cells, workers=1)
        parallel = run_cells(cells, workers=2)
        assert serial == parallel
        assert forked_run_digests(cells) == run_digests(cells)
