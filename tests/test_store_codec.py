"""The run archive's line codec, pinned in absolute terms.

Every other digest check compares two stores with each other, so a
codec change that moved the bytes on both sides would pass them all.
Here the bytes are checked against fixed references instead:

* ``dataclasses.asdict`` as the oracle of ``to_json``, on one cell per
  registered scheduler plus the disrupted columns;
* ``tests/data/store_codec.jsonl``, written at commit c13c03e (before
  the codec dropped ``asdict``): schema v1, v2 and v3 lines built from
  ``run_single`` cells, a superseded duplicate of
  ``adversarial/10/largest_first``, two LLM ``overhead`` columns, a
  checkpoint-restart disrupted line and a ``rack_storm`` line with
  ``domain_kills``. Its ``store_digest`` was recorded at the same commit
  and is pinned below and in CI's storage gate.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.experiments.parallel import expand_cells
from repro.experiments.runner import run_single
from repro.experiments.storage import open_store, store_digest
from repro.experiments.store import FailedCell, StoredRun
from repro.schedulers.registry import available_schedulers
from repro.sim.disruptions import DisruptionSpec, get_disruption_preset
from repro.sim.topology import ClusterTopology

FIXTURE = Path(__file__).parent / "data" / "store_codec.jsonl"
FIXTURE_DIGEST = (
    "bf0697aa0881e5ae593ab9ce5447dac95729042f85458ab7968b21c4325e6e38"
)

TOPO = ClusterTopology(256, 32)
CHECKPOINT = DisruptionSpec(
    mtbf=60_000.0, mttr=800.0, drain_every=6_000.0, drain_duration=1_000.0,
    drain_nodes=48, drain_lead=1_500.0, drain_first=2_000.0, seed=5,
)


def _records():
    runs = {
        name: StoredRun.from_run(run_single("resource_sparse", 5, name))
        for name in available_schedulers()
    }
    runs["checkpoint"] = StoredRun.from_run(run_single(
        "drain_window", 10, "fcfs", workload_seed=2, disruptions=CHECKPOINT,
        restart_policy="checkpoint", checkpoint_interval=400.0,
    ))
    runs["rack_storm"] = StoredRun.from_run(run_single(
        "rack_storm", 12, "fcfs", topology=TOPO,
        disruptions=get_disruption_preset("rack_storm"),
        restart_policy="checkpoint", checkpoint_interval=400.0,
    ))
    return runs


@pytest.fixture(scope="module")
def records():
    return _records()


def test_records_cover_every_column(records):
    assert records["claude-3.7-sim"].overhead is not None
    assert records["checkpoint"].disruption is not None
    assert "domain_kills" in records["rack_storm"].disruption


class TestStoredRunCodec:
    def test_to_json_is_asdict_bytes(self, records):
        for run in records.values():
            assert run.to_json() == json.dumps(
                dataclasses.asdict(run), sort_keys=True
            )

    def test_as_dict_is_asdict_in_field_order(self, records):
        for run in records.values():
            assert json.dumps(run.as_dict()) == json.dumps(
                dataclasses.asdict(run)
            )

    def test_round_trip_builds_the_dataclass(self, records):
        names = {f.name for f in dataclasses.fields(StoredRun)}
        for run in records.values():
            again = StoredRun.from_json(run.to_json())
            assert again == run
            assert type(again) is StoredRun
            assert set(vars(again)) == names


def test_failed_cell_to_json_is_asdict_bytes():
    (cell,) = expand_cells(
        ("rack_storm",), (12,), ("fcfs",), disruptions=CHECKPOINT,
        restart_policy="checkpoint", checkpoint_interval=400.0,
        topology=TOPO,
    )
    failed = FailedCell(
        key=cell.key, kind="timeout", error_type="TimeoutError",
        message="cell exceeded --cell-timeout",
        traceback_tail="TimeoutError: ...", attempts=3,
        config=cell.to_config(),
    )
    oracle = dataclasses.asdict(failed)
    oracle["key"] = list(failed.key)
    assert failed.to_json() == json.dumps(oracle, sort_keys=True)
    again = FailedCell.from_json(failed.to_json())
    assert again == failed
    assert type(again) is FailedCell


def _line(**changes):
    payload = json.loads(FIXTURE.read_text().splitlines()[-1])
    for name, value in changes.items():
        if value is None:
            del payload[name]
        else:
            payload[name] = value
    return json.dumps(payload)


#: (line, message prefix) — the prefixes each case raised at c13c03e.
MALFORMED = {
    "not_json": ("{not json", "malformed store line: "),
    "not_object": ("[1, 2]", "store line is not a JSON object"),
    "version_0": (
        _line(schema_version=0), "missing/invalid schema_version: 0"
    ),
    "version_4": (
        _line(schema_version=4),
        "store line has schema_version 4, newer than supported 3",
    ),
    "version_str": (
        _line(schema_version="3"), "missing/invalid schema_version: '3'"
    ),
    "no_scenario": (
        _line(scenario=None), "store line missing field: 'scenario'"
    ),
    "metrics_list": (
        _line(metrics=[1.0]),
        "store line missing field: 'list' object has no attribute 'items'",
    ),
    "n_jobs_abc": (
        _line(n_jobs="abc"), "invalid literal for int() with base 10: 'abc'"
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_line_message(case):
    line, prefix = MALFORMED[case]
    with pytest.raises(ValueError) as info:
        StoredRun.from_json(line)
    assert str(info.value).startswith(prefix)


class TestPinnedFixture:
    def test_digest(self):
        assert store_digest(open_store(FIXTURE)) == FIXTURE_DIGEST

    def test_fixture_shape(self):
        lines = FIXTURE.read_text().splitlines()
        runs = [StoredRun.from_json(line) for line in lines]
        assert {run.schema_version for run in runs} == {1, 2, 3}
        assert len({run.key for run in runs}) == len(runs) - 1
        assert any(run.overhead for run in runs)
        assert any(
            "domain_kills" in (run.disruption or {}) for run in runs
        )

    def test_v3_lines_reencode_verbatim(self):
        lines = FIXTURE.read_text().splitlines()
        v3 = [s for s in lines if json.loads(s)["schema_version"] == 3]
        assert len(v3) >= 6
        for line in v3:
            assert StoredRun.from_json(line).to_json() == line
