"""Consistency checks on the public API surface."""

import importlib

import pytest

import repro
from repro.experiments.report import METRIC_LABELS
from repro.metrics.objectives import METRIC_NAMES


class TestExports:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro",
            "repro.sim",
            "repro.workloads",
            "repro.schedulers",
            "repro.core",
            "repro.metrics",
            "repro.experiments",
            "repro.experiments.storage",
            "repro.analysis",
        ],
    )
    def test_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name} missing"

    def test_version(self):
        assert repro.__version__


class TestMetricLabelCoverage:
    def test_every_metric_has_a_label(self):
        assert set(METRIC_LABELS) == set(METRIC_NAMES)


class TestRegistryProfileConsistency:
    def test_every_profile_has_a_registered_scheduler(self):
        from repro.core.profiles import MODEL_PROFILES
        from repro.schedulers.registry import available_schedulers

        for name in MODEL_PROFILES:
            assert name in available_schedulers()

    def test_registered_llm_names_round_trip(self):
        from repro.core.profiles import MODEL_PROFILES
        from repro.schedulers.registry import create_scheduler

        for name in MODEL_PROFILES:
            agent = create_scheduler(name, seed=0)
            assert agent.name == name
            assert agent.backend.profile.name == name
