"""Tests for the per-figure drivers (scaled-down instances)."""

import math
from dataclasses import asdict

import pytest

from repro.analysis.stats import BoxStats, box_stats
from repro.experiments import figures
from repro.metrics.normalize import normalize_to_baseline
from repro.metrics.objectives import METRIC_NAMES

from tests.runner_reference import run_matrix

SMALL_SCHEDULERS = ("fcfs", "sjf", "claude-3.7-sim")


class TestFigure2:
    def test_trace_kinds_collected(self):
        samples = figures.figure2(n_jobs=12, seed=0)
        kinds = {s.action.split("(")[0] for s in samples}
        assert "StartJob" in kinds or "BackfillJob" in kinds
        assert any("Stop" == s.action for s in samples)

    def test_rejected_trace_has_feedback(self):
        samples = figures.figure2(
            n_jobs=15, seed=1, hallucination_rate=0.6,
            scenario="high_parallelism",
        )
        rejected = [s for s in samples if not s.accepted]
        if rejected:  # hallucination must have found an infeasible target
            assert rejected[0].feedback

    def test_render(self):
        samples = figures.figure2(n_jobs=8, seed=0)
        text = samples[0].render()
        assert "# Thought" in text
        assert "# Action" in text


class TestFigure3:
    def test_structure_and_baseline(self):
        data = figures.figure3(
            n_jobs=12,
            schedulers=SMALL_SCHEDULERS,
            scenarios=("resource_sparse", "adversarial"),
        )
        assert set(data) == {"resource_sparse", "adversarial"}
        for block in data.values():
            assert set(block) == set(SMALL_SCHEDULERS)
            for value in block["fcfs"].values():
                assert value == pytest.approx(1.0) or math.isnan(value)
            for metrics in block.values():
                assert set(metrics) == set(METRIC_NAMES)


class TestMatrixBlocks:
    def test_blocks_from_stored_runs(self):
        from repro.experiments.parallel import run_matrix_parallel

        stored = run_matrix_parallel(
            ("resource_sparse",), (8,), SMALL_SCHEDULERS, workers=1
        )
        blocks = figures.matrix_blocks(stored)
        assert set(blocks) == {
            ("resource_sparse", 8, 0, "scenario", "none", "flat")
        }
        block = blocks[
            ("resource_sparse", 8, 0, "scenario", "none", "flat")
        ]
        assert list(block)[0] == "fcfs"  # baseline renders first
        assert set(block) == set(SMALL_SCHEDULERS)
        for value in block["fcfs"].values():
            assert value == pytest.approx(1.0) or math.isnan(value)

    def test_averages_over_scheduler_seeds(self):
        from repro.experiments.store import StoredRun

        def stored(seed, makespan):
            return StoredRun(
                scenario="s", n_jobs=4, scheduler="x",
                workload_seed=0, scheduler_seed=seed,
                metrics={"makespan": makespan},
            )

        blocks = figures.matrix_blocks([stored(0, 100.0), stored(1, 200.0)])
        # No fcfs baseline in the group: raw (averaged) values.
        key = ("s", 4, 0, "scenario", "none", "flat")
        assert blocks[key]["x"]["makespan"] == pytest.approx(150.0)

    def test_arrival_modes_are_separate_instances(self):
        from repro.experiments.store import StoredRun

        def stored(mode, makespan):
            return StoredRun(
                scenario="s", n_jobs=4, scheduler="x",
                workload_seed=0, scheduler_seed=0,
                metrics={"makespan": makespan}, arrival_mode=mode,
            )

        blocks = figures.matrix_blocks(
            [stored("scenario", 100.0), stored("zero", 300.0)]
        )
        # Different arrival processes are different experiments: no
        # cross-mode averaging.
        assert blocks[
            ("s", 4, 0, "scenario", "none", "flat")
        ]["x"]["makespan"] == 100.0
        assert blocks[
            ("s", 4, 0, "zero", "none", "flat")
        ]["x"]["makespan"] == 300.0


class TestFigure4:
    def test_sizes_covered(self):
        data = figures.figure4(sizes=[5, 10], schedulers=SMALL_SCHEDULERS)
        assert set(data) == {5, 10}
        assert set(data[5]) == set(SMALL_SCHEDULERS)


class TestFigure5:
    def test_overhead_per_scenario(self):
        data = figures.figure5(
            n_jobs=8,
            models=("claude-3.7-sim",),
            scenarios=("resource_sparse",),
        )
        ov = data["resource_sparse"]["claude-3.7-sim"]
        assert ov["n_accepted_placements"] == 8
        assert ov["elapsed_s"] > 0


class TestFigure6:
    def test_call_counts_scale_with_jobs(self):
        data = figures.figure6(sizes=[5, 15], models=("claude-3.7-sim",))
        small = data[5]["claude-3.7-sim"]
        large = data[15]["claude-3.7-sim"]
        assert large["n_accepted_placements"] == 15
        assert large["n_calls"] > small["n_calls"]
        assert large["elapsed_s"] > small["elapsed_s"]


class TestFigure7:
    def test_deterministic_methods_are_flat(self):
        data = figures.figure7(
            n_jobs=15, n_repeats=3, schedulers=("fcfs", "sjf"),
        )
        for metric, bs in data["fcfs"].items():
            assert bs.iqr == pytest.approx(0.0)
            assert bs.n == 3

    def test_structure(self):
        data = figures.figure7(
            n_jobs=10, n_repeats=2, schedulers=("fcfs", "claude-3.7-sim"),
        )
        assert set(data) == {"fcfs", "claude-3.7-sim"}
        assert set(data["fcfs"]) == set(METRIC_NAMES)


class TestFigure8:
    def test_polaris_block(self):
        data = figures.figure8(n_jobs=20, schedulers=SMALL_SCHEDULERS)
        assert set(data) == set(SMALL_SCHEDULERS)
        for value in data["fcfs"].values():
            assert value == pytest.approx(1.0) or math.isnan(value)


def bits(value):
    """*value* with every float as ``float.hex`` and every mapping as
    its item list, so ``==`` is bit-exact, NaN-safe and order-aware."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(key, bits(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [bits(item) for item in value]
    if isinstance(value, BoxStats):
        return [bits(getattr(value, name)) for name in BoxStats.__slots__]
    return value


def normalized(runs):
    """One workload instance's serial runs as ``{scheduler: {metric:
    value / FCFS}}``, in run order."""
    base = next(run for run in runs if run.scheduler == "fcfs").values
    return {run.scheduler: normalize_to_baseline(run.values, base)
            for run in runs}


def overhead_record(run):
    ov = run.overhead
    return {
        "model": ov.model,
        "elapsed_s": ov.elapsed_s,
        "n_calls": ov.n_calls,
        "n_accepted_placements": ov.n_accepted_placements,
        "n_rejected": ov.n_rejected,
        "latency": asdict(ov.latency),
    }


class TestFiguresAreSweeps:
    """Figs. 3–7 equal what the serial reference sweep
    (``tests/runner_reference.run_matrix``, one workload per instance
    shared by its schedulers) computes, bit for bit and keyed in the
    order of the figure's arguments — which is not the order
    ``matrix_blocks`` sorts into."""

    SCENARIOS = ("resource_sparse", "adversarial")
    SIZES = (12, 6)
    SCHEDULERS = ("sjf", "claude-3.7-sim", "fcfs")
    MODELS = ("o4-mini-sim", "claude-3.7-sim")

    def test_figure3(self):
        data = figures.figure3(
            n_jobs=8, schedulers=self.SCHEDULERS, scenarios=self.SCENARIOS,
            workload_seed=1, scheduler_seed=2,
        )
        expected = {
            scenario: normalized(run_matrix(
                [scenario], [8], self.SCHEDULERS,
                workload_seed=1, scheduler_seed=2,
            ))
            for scenario in self.SCENARIOS
        }
        assert bits(data) == bits(expected)

    def test_figure4(self):
        data = figures.figure4(
            sizes=self.SIZES, schedulers=self.SCHEDULERS, workload_seed=3,
        )
        expected = {
            n: normalized(run_matrix(
                ["heterogeneous_mix"], [n], self.SCHEDULERS, workload_seed=3,
            ))
            for n in self.SIZES
        }
        assert bits(data) == bits(expected)

    def test_figure5(self):
        data = figures.figure5(
            n_jobs=8, models=self.MODELS, scenarios=self.SCENARIOS,
            scheduler_seed=1,
        )
        expected = {
            scenario: {
                run.scheduler: overhead_record(run)
                for run in run_matrix(
                    [scenario], [8], self.MODELS, scheduler_seed=1
                )
            }
            for scenario in self.SCENARIOS
        }
        assert bits(data) == bits(expected)

    def test_figure6(self):
        data = figures.figure6(sizes=self.SIZES, models=self.MODELS)
        expected = {
            n: {
                run.scheduler: overhead_record(run)
                for run in run_matrix(["heterogeneous_mix"], [n], self.MODELS)
            }
            for n in self.SIZES
        }
        assert bits(data) == bits(expected)

    @pytest.mark.parametrize("schedulers", [
        ("sjf", "fcfs", "claude-3.7-sim"),
        ("claude-3.7-sim", "sjf"),  # no fcfs: swept, not returned
    ])
    def test_figure7(self, schedulers):
        data = figures.figure7(
            n_jobs=10, n_repeats=3, schedulers=schedulers,
            scenario="adversarial", workload_seed=2,
        )
        (base,) = run_matrix(["adversarial"], [10], ["fcfs"], workload_seed=2)
        samples = {name: {m: [] for m in METRIC_NAMES} for name in schedulers}
        for rep in range(3):
            for run in run_matrix(
                ["adversarial"], [10], schedulers,
                workload_seed=2, scheduler_seed=rep,
            ):
                norm = normalize_to_baseline(run.values, base.values)
                for metric, value in norm.items():
                    samples[run.scheduler][metric].append(value)
        expected = {
            name: {m: box_stats(v) for m, v in per_metric.items()}
            for name, per_metric in samples.items()
        }
        assert list(data) == list(schedulers)
        assert bits(data) == bits(expected)
