"""Tests for workload characterization."""

import pytest

from repro.analysis.workload_stats import characterize
from repro.workloads.generator import generate_workload

from tests.conftest import make_job


class TestCharacterize:
    def test_empty(self):
        stats = characterize([])
        assert stats.n_jobs == 0
        assert stats.offered_load == 0.0

    def test_hand_computed(self):
        jobs = [
            make_job(1, submit=0.0, duration=100.0, nodes=4, user="a"),
            make_job(2, submit=100.0, duration=100.0, nodes=4, user="b"),
        ]
        stats = characterize(jobs, total_nodes=8)
        assert stats.n_jobs == 2
        assert stats.n_users == 2
        assert stats.duration_mean_s == 100.0
        assert stats.duration_cv == 0.0
        assert stats.nodes_mean == 4.0
        assert stats.total_node_seconds == 800.0
        assert stats.arrival_span_s == 100.0
        # 800 node-s over 8 nodes × 100 s window = 1.0
        assert stats.offered_load == pytest.approx(1.0)
        assert stats.large_job_fraction == 0.0

    def test_all_at_zero_uses_minimal_window(self):
        jobs = [make_job(i, duration=100.0, nodes=8) for i in range(1, 4)]
        stats = characterize(jobs, total_nodes=8)
        # 2400 node-s; min-makespan window = 2400/8 = 300 s → load 1.0.
        assert stats.offered_load == pytest.approx(1.0)

    def test_large_job_fraction(self):
        jobs = [
            make_job(1, nodes=200),
            make_job(2, nodes=10),
        ]
        stats = characterize(jobs, total_nodes=256)
        assert stats.large_job_fraction == pytest.approx(0.5)

    def test_scenarios_have_expected_pressure(self):
        sparse = characterize(generate_workload("resource_sparse", 60, seed=0))
        het = characterize(generate_workload("heterogeneous_mix", 60, seed=0))
        # The paper's flat scenario really is uncontended; the mix is not.
        assert sparse.offered_load < 0.2
        assert het.offered_load > 0.8
        assert het.heterogeneity > sparse.heterogeneity
