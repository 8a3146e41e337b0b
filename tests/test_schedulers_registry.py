"""Unit tests for the scheduler registry."""

import pytest

import repro  # noqa: F401 - triggers LLM scheduler registration
from repro.schedulers.registry import (
    available_schedulers,
    create_scheduler,
    register_scheduler,
)


class TestRegistry:
    @pytest.mark.parametrize(
        "name",
        [
            "fcfs",
            "fcfs_backfill",
            "sjf",
            "sjf_firstfit",
            "ortools_like",
            "first_fit",
            "largest_first",
            "random",
            "claude-3.7-sim",
            "o4-mini-sim",
            "onprem-fast-sim",
        ],
    )
    def test_create_each(self, name):
        sched = create_scheduler(name, seed=0)
        assert sched.name == name

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown scheduler"):
            create_scheduler("quantum_annealer")

    def test_retired_genetic_name_is_unknown(self):
        # Deleted outright: no alias, no stub, the ordinary error.
        assert "genetic" not in available_schedulers()
        with pytest.raises(KeyError, match="unknown scheduler 'genetic'"):
            create_scheduler("genetic")

    def test_available_sorted(self):
        names = available_schedulers()
        assert names == sorted(names)
        assert "fcfs" in names
        assert "claude-3.7-sim" in names

    def test_register_custom(self):
        from repro.schedulers.fcfs import FCFSScheduler

        class Custom(FCFSScheduler):
            name = "custom_test"

        register_scheduler("custom_test", lambda seed=0, **kw: Custom())
        try:
            assert create_scheduler("custom_test").name == "custom_test"
        finally:
            from repro.schedulers.registry import SCHEDULER_FACTORIES

            SCHEDULER_FACTORIES.pop("custom_test")

    def test_llm_kwargs_forwarded(self):
        agent = create_scheduler(
            "claude-3.7-sim", seed=1, hallucination_rate=0.0
        )
        assert agent.backend.profile.hallucination_rate == 0.0


class TestAnnealerFactory:
    def test_config_is_forwarded(self):
        from repro.schedulers.optimizer import AnnealingConfig

        config = AnnealingConfig(max_iterations=100)
        sched = create_scheduler("ortools_like", seed=0, config=config)
        assert sched.config is config

    def test_takes_no_window(self):
        with pytest.raises(TypeError, match="anneal_window"):
            create_scheduler("ortools_like", anneal_window=8)
