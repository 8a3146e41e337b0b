"""Unit tests for the reliability objectives."""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.metrics import disruption
from repro.metrics.disruption import (
    BLAST_METRIC_NAMES,
    CORE_DISRUPTION_METRIC_NAMES,
    DISRUPTION_METRIC_NAMES,
    blast_radius_metrics,
    disruption_metrics,
    domain_kill_counts,
    goodput_fraction,
    goodput_node_hours,
    largest_event_loss_node_hours,
    mean_requeue_latency,
    wasted_node_hours,
    work_lost_per_kill,
)
from repro.sim.disruptions import PreemptionRecord
from repro.sim.job import Job
from repro.sim.schedule import JobRecord, ScheduleResult

from tests.conftest import left_fold, neumaier_sum


def make_result(records=(), preemptions=(), disrupted=True):
    return ScheduleResult(
        records=list(records),
        decisions=[],
        total_nodes=16,
        total_memory_gb=128.0,
        preemptions=list(preemptions),
        disrupted=disrupted,
    )


def job(job_id=1, nodes=4, duration=3600.0):
    return Job(
        job_id=job_id, submit_time=0.0, duration=duration,
        nodes=nodes, memory_gb=8.0,
    )


def preemption(job_id=1, nodes=4, start=0.0, time=1800.0, reason="failure",
               saved=0.0, restart=None, domain=None):
    lost = (time - start) - saved
    return PreemptionRecord(
        job_id=job_id, nodes=nodes, start_time=start, time=time,
        reason=reason, work_saved=saved, work_lost=lost,
        restart_time=restart, domain=domain,
    )


class TestGoodputAndWaste:
    def test_clean_run_is_all_goodput(self):
        j = job(duration=3600.0, nodes=4)
        result = make_result(records=[JobRecord(j, 0.0, 3600.0)])
        assert goodput_node_hours(result) == pytest.approx(4.0)
        assert wasted_node_hours(result) == pytest.approx(0.0)
        assert goodput_fraction(result) == pytest.approx(1.0)

    def test_resubmit_kill_wastes_elapsed_work(self):
        j = job(duration=3600.0, nodes=4)
        # Killed at 1800s with nothing saved, reran fully 1800→5400.
        result = make_result(
            records=[JobRecord(j, 1800.0, 5400.0)],
            preemptions=[preemption(saved=0.0, restart=1800.0)],
        )
        # Useful: 4 nodes × 3600 s = 4 nh. Wasted: 4 × 1800 s = 2 nh.
        assert goodput_node_hours(result) == pytest.approx(4.0)
        assert wasted_node_hours(result) == pytest.approx(2.0)
        assert goodput_fraction(result) == pytest.approx(4.0 / 6.0)

    def test_checkpoint_kill_wastes_only_tail(self):
        j = job(duration=3600.0, nodes=4)
        # Killed at 1800s, checkpoint saved 1500s; final attempt runs
        # the remaining 2100 s.
        result = make_result(
            records=[JobRecord(j, 1800.0, 1800.0 + 2100.0)],
            preemptions=[preemption(saved=1500.0, restart=1800.0)],
        )
        # Useful = 4 × (2100 + 1500) = 4 nh; wasted = 4 × 300 s.
        assert goodput_node_hours(result) == pytest.approx(4.0)
        assert wasted_node_hours(result) == pytest.approx(4 * 300 / 3600)

    def test_empty_result_fraction_is_one(self):
        assert goodput_fraction(make_result()) == 1.0


class TestKillAccounting:
    def test_no_kills_zero(self):
        assert work_lost_per_kill(make_result()) == 0.0
        assert disruption_metrics(make_result())["n_kills"] == 0.0

    def test_failure_and_drain_kills_both_count(self):
        result = make_result(
            preemptions=[
                preemption(job_id=1, reason="failure", saved=0.0),
                preemption(job_id=2, nodes=2, time=1000.0, reason="drain",
                           saved=400.0),
            ]
        )
        assert disruption_metrics(result)["n_kills"] == 2.0
        # Failure loses 4 × 1800 s, drain 2 × 600 s.
        assert work_lost_per_kill(result) == pytest.approx(
            (4 * 1800.0 + 2 * 600.0) / 2
        )


class TestRequeueLatency:
    def test_mean_over_restarted_victims(self):
        result = make_result(
            preemptions=[
                preemption(time=1000.0, start=0.0, restart=1200.0),
                preemption(time=2000.0, start=1500.0, restart=2600.0),
            ]
        )
        assert mean_requeue_latency(result) == pytest.approx(
            (200.0 + 600.0) / 2
        )

    def test_unrestarted_victims_skipped(self):
        result = make_result(
            preemptions=[preemption(restart=None)]
        )
        assert mean_requeue_latency(result) == 0.0

    def test_drain_victims_count(self):
        result = make_result(
            preemptions=[
                preemption(time=1000.0, start=0.0, restart=1500.0,
                           reason="failure"),
                preemption(time=1000.0, start=0.0, restart=1100.0,
                           reason="drain", saved=1000.0),
            ]
        )
        assert mean_requeue_latency(result) == pytest.approx(
            (500.0 + 100.0) / 2
        )


class TestBlastRadius:
    def test_one_event_groups_same_instant_same_domain_kills(self):
        # Two jobs killed by one rack shock = one event; a later
        # independent node failure is a separate, smaller event.
        result = make_result(
            preemptions=[
                preemption(job_id=1, time=1800.0, domain="rack2"),
                preemption(job_id=2, time=1800.0, domain="rack2"),
                preemption(job_id=3, time=5000.0, start=4600.0),
            ]
        )
        # Shock event loses 2 × 4 nodes × 1800 s; the node failure
        # loses 4 × 400 s.
        assert largest_event_loss_node_hours(result) == pytest.approx(
            2 * 4 * 1800.0 / 3600.0
        )

    def test_same_instant_different_domains_are_separate_events(self):
        result = make_result(
            preemptions=[
                preemption(job_id=1, time=1800.0, domain="rack0"),
                preemption(job_id=2, time=1800.0, domain="rack1"),
            ]
        )
        assert largest_event_loss_node_hours(result) == pytest.approx(
            4 * 1800.0 / 3600.0
        )

    def test_domain_kill_counts_sorted_by_label(self):
        result = make_result(
            preemptions=[
                preemption(job_id=1, domain="rack3"),
                preemption(job_id=2, domain="rack1"),
                preemption(job_id=3, domain="rack3"),
                preemption(job_id=4),  # independent node failure
            ]
        )
        counts = domain_kill_counts(result)
        assert counts == {"rack1": 1, "rack3": 2}
        assert list(counts) == ["rack1", "rack3"]
        metrics = blast_radius_metrics(result)
        assert metrics["n_domain_kills"] == 3.0
        assert metrics["domains_hit"] == 2.0


class TestIntegrationWithComputeMetrics:
    def test_disrupted_run_reports_reliability_columns(self):
        from repro.metrics.objectives import compute_metrics

        j = job()
        result = make_result(
            records=[JobRecord(j, 0.0, 3600.0)], disrupted=True
        )
        values = compute_metrics(result).as_dict()
        for name in CORE_DISRUPTION_METRIC_NAMES:
            assert name in values
        # Blast-radius columns only appear for domain-event traces.
        for name in BLAST_METRIC_NAMES:
            assert name not in values

    def test_domain_event_run_reports_blast_columns(self):
        from repro.metrics.objectives import compute_metrics

        j = job()
        result = make_result(
            records=[JobRecord(j, 0.0, 3600.0)], disrupted=True
        )
        result.extras["domain_events"] = 2
        values = compute_metrics(result).as_dict()
        for name in DISRUPTION_METRIC_NAMES:
            assert name in values

    def test_names_match_module_functions(self):
        result = make_result()
        assert set(disruption_metrics(result)) == set(
            CORE_DISRUPTION_METRIC_NAMES
        )
        result.extras["domain_events"] = 1
        assert set(disruption_metrics(result)) == set(
            DISRUPTION_METRIC_NAMES
        )
        assert set(DISRUPTION_METRIC_NAMES) == (
            set(CORE_DISRUPTION_METRIC_NAMES) | set(BLAST_METRIC_NAMES)
        )


class TestStatedSumOrder:
    """The metrics twin of the planner's stated sum order: every float
    total on the metrics digest is a left fold on every interpreter,
    because a compensated ``sum()`` (Python 3.12+) moves it by the last
    bits and with it every disrupted digest."""

    def results(self, n=40):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            preemptions = []
            for i in range(n):
                start = float(rng.uniform(0.0, 1e5))
                time = start + float(rng.uniform(1.0, 5e4))
                saved = float(rng.uniform(0.0, time - start))
                preemptions.append(
                    preemption(
                        job_id=i + 1,
                        nodes=int(rng.integers(1, 65)),
                        start=start,
                        time=time,
                        reason=("failure", "drain")[i % 2],
                        saved=saved,
                        restart=time + float(rng.uniform(0.0, 3e4)),
                    )
                )
            records = [
                JobRecord(
                    job(job_id=i + 1, nodes=int(rng.integers(1, 65))),
                    p.restart_time,
                    p.restart_time + float(rng.uniform(1.0, 5e4)),
                )
                for i, p in enumerate(preemptions)
            ]
            yield make_result(records=records, preemptions=preemptions)

    @staticmethod
    def terms(result):
        """Each metric's summands, in the order the metric folds them."""
        return {
            "goodput_records": [
                r.job.nodes * (r.end_time - r.start_time)
                for r in result.records
            ],
            "goodput_saved": [
                p.nodes * p.work_saved for p in result.preemptions
            ],
            "wasted": [p.lost_node_seconds for p in result.preemptions],
            "lost_per_kill": [
                p.lost_node_seconds for p in result.preemptions
            ],
            "requeue": [p.requeue_latency for p in result.preemptions],
        }

    def test_float_metrics_are_the_left_fold(self):
        differing = dict.fromkeys(self.terms(make_result()), 0)
        for result in self.results():
            t = self.terms(result)
            for name, terms in t.items():
                differing[name] += neumaier_sum(terms) != left_fold(terms)
            assert goodput_node_hours(result) == (
                left_fold(t["goodput_records"]) + left_fold(t["goodput_saved"])
            ) / 3600.0
            assert wasted_node_hours(result) == left_fold(t["wasted"]) / 3600.0
            assert work_lost_per_kill(result) == (
                left_fold(t["lost_per_kill"]) / len(t["lost_per_kill"])
            )
            assert mean_requeue_latency(result) == (
                left_fold(t["requeue"]) / len(t["requeue"])
            )
        # The hazard is not hypothetical for any of the summations.
        assert min(differing.values()) >= 10


#: Builtin ``sum()`` calls allowed in ``metrics/disruption.py``: the
#: integer counters, named by the metric key they fill. (``n_kills``
#: is a ``len()``, not a sum.)
INTEGER_COUNTERS = frozenset({"n_domain_kills"})


def test_no_builtin_float_sum_in_disruption_metrics():
    tree = ast.parse(Path(disruption.__file__).read_text(encoding="utf-8"))

    def is_sum(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sum"
        )

    allowed = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and key.value in INTEGER_COUNTERS:
                    allowed.update(
                        (id(call), key.value)
                        for call in ast.walk(value) if is_sum(call)
                    )
    assert [
        node.lineno for node in ast.walk(tree)
        if is_sum(node) and id(node) not in allowed
    ] == []
    # Every allow-listed counter still exists: the list cannot rot.
    assert set(allowed.values()) == INTEGER_COUNTERS
