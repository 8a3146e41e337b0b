"""Unit tests for structured constraint validation."""

import pytest

from repro.sim.actions import BackfillJob, Delay, StartJob, Stop
from repro.sim.cluster import ResourcePool
from repro.sim.constraints import ConstraintChecker, ViolationKind

from tests.conftest import make_job


@pytest.fixture
def checker():
    return ConstraintChecker()


@pytest.fixture
def pool():
    return ResourcePool(total_nodes=8, total_memory_gb=64.0)


def validate(checker, action, *, queued=None, pool=None, all_scheduled=False):
    return checker.validate(
        action,
        queued=queued or {},
        cluster=pool or ResourcePool(total_nodes=8, total_memory_gb=64.0),
        all_scheduled=all_scheduled,
    )


class TestDelayAndStop:
    def test_delay_always_valid(self, checker):
        assert validate(checker, Delay) == ()

    def test_stop_valid_when_all_scheduled(self, checker):
        assert validate(checker, Stop, all_scheduled=True) == ()

    def test_premature_stop_rejected(self, checker):
        violations = validate(checker, Stop, all_scheduled=False)
        assert violations
        assert violations[0].kind is ViolationKind.PREMATURE_STOP


class TestStartValidation:
    def test_feasible_start_ok(self, checker, pool):
        job = make_job(1, nodes=4, memory=16.0)
        assert validate(checker, StartJob(1), queued={1: job}, pool=pool) == ()

    def test_unknown_job_rejected(self, checker, pool):
        violations = validate(checker, StartJob(42), queued={}, pool=pool)
        assert violations
        assert violations[0].kind is ViolationKind.NOT_QUEUED
        assert violations[0].job_id == 42

    def test_insufficient_nodes(self, checker, pool):
        pool.allocate(make_job(9, nodes=6, memory=1.0))
        job = make_job(1, nodes=4, memory=1.0)
        violations = validate(checker, StartJob(1), queued={1: job}, pool=pool)
        kinds = {v.kind for v in violations}
        assert kinds == {ViolationKind.INSUFFICIENT_NODES}

    def test_insufficient_memory(self, checker, pool):
        pool.allocate(make_job(9, nodes=1, memory=60.0))
        job = make_job(1, nodes=1, memory=16.0)
        violations = validate(checker, StartJob(1), queued={1: job}, pool=pool)
        kinds = {v.kind for v in violations}
        assert kinds == {ViolationKind.INSUFFICIENT_MEMORY}

    def test_both_resources_insufficient(self, checker, pool):
        pool.allocate(make_job(9, nodes=6, memory=60.0))
        job = make_job(1, nodes=4, memory=16.0)
        violations = validate(checker, StartJob(1), queued={1: job}, pool=pool)
        kinds = {v.kind for v in violations}
        assert kinds == {
            ViolationKind.INSUFFICIENT_NODES,
            ViolationKind.INSUFFICIENT_MEMORY,
        }

    def test_exceeds_total_capacity(self, checker, pool):
        job = make_job(1, nodes=100, memory=1.0)
        violations = validate(checker, StartJob(1), queued={1: job}, pool=pool)
        assert violations[0].kind is ViolationKind.EXCEEDS_CAPACITY

    def test_backfill_validated_like_start(self, checker, pool):
        job = make_job(1, nodes=4, memory=16.0)
        assert validate(checker, BackfillJob(1), queued={1: job}, pool=pool) == ()

    def test_violation_detail_mentions_numbers(self, checker, pool):
        pool.allocate(make_job(9, nodes=6, memory=1.0))
        job = make_job(1, nodes=4, memory=1.0)
        violations = validate(checker, StartJob(1), queued={1: job}, pool=pool)
        assert "requires 4 nodes" in violations[0].detail
        assert "available: 2" in violations[0].detail


class TestViolationStr:
    def test_str_includes_kind_and_job(self):
        from repro.sim.constraints import Violation

        v = Violation(ViolationKind.NOT_QUEUED, job_id=3, detail="gone")
        assert "not_queued" in str(v)
        assert "job 3" in str(v)
