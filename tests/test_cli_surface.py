"""The ``repro-sched`` parser surface, pinned structurally.

``tests/data/cli_surface.json`` was generated from ``build_parser()``
at the commit *before* the dispatch chain became a command table
(``python tests/test_cli_surface.py > tests/data/cli_surface.json``
regenerates it — only do that in a PR that means to change a flag).
The comparison is on argparse's own action objects, not on rendered
``--help`` text, which varies with the Python version and ``COLUMNS``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from pathlib import Path

import pytest

from repro.experiments import cli
from repro.experiments.cli import build_parser
from repro.sim.disruptions import DisruptionSpec
from repro.sim.topology import ClusterTopology

SURFACE = Path(__file__).parent / "data" / "cli_surface.json"


def _subparsers(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action
    return None


def _action(action) -> dict:
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "action": type(action).__name__,
        "type": getattr(action.type, "__name__", None),
        "default": action.default,
        "choices": None if action.choices is None else list(action.choices),
        "nargs": action.nargs,
        "required": action.required,
        "metavar": action.metavar,
        "help": action.help,
    }


def _parser(parser) -> dict:
    sub = _subparsers(parser)
    out = {
        "description": parser.description,
        # Group membership and order within each group …
        "groups": [
            {
                "title": group.title,
                "actions": [
                    _action(a) for a in group._group_actions if a is not sub
                ],
            }
            for group in parser._action_groups
        ],
        # … and the parser-wide order the usage line is built from.
        "order": [a.dest for a in parser._actions],
        "mutually_exclusive": [
            {
                "required": group.required,
                "dests": [a.dest for a in group._group_actions],
            }
            for group in parser._mutually_exclusive_groups
        ],
    }
    if sub is not None:
        out["subcommands_dest"] = sub.dest
        out["subcommands_required"] = sub.required
        helps = {a.dest: a.help for a in sub._choices_actions}
        out["subcommands"] = {
            name: {"help": helps.get(name), **_parser(child)}
            for name, child in sub.choices.items()
        }
    return out


def surface() -> dict:
    return _parser(build_parser())


def test_parser_surface_is_unchanged():
    expected = json.loads(SURFACE.read_text("utf-8"))
    # Round-trip through JSON so tuples/lists compare alike.
    actual = json.loads(json.dumps(surface()))
    assert list(actual["subcommands"]) == list(expected["subcommands"])
    for name, sub in expected["subcommands"].items():
        assert actual["subcommands"][name] == sub, name
    assert actual == expected


# -- the flag tables and the dataclasses they fill ---------------------------

TABLES = [
    # (table, dataclass, fields that deliberately have no flag)
    (cli._DISRUPTION_FLAGS, DisruptionSpec, {"weibull_shape"}),
    # n_nodes is the paper's partition (CLUSTER_NODES), not an option.
    (cli._TOPOLOGY_FLAGS, ClusterTopology, {"n_nodes"}),
]


@pytest.mark.parametrize("table, dataclass, no_flag", TABLES)
def test_every_field_is_a_row_or_a_decision(table, dataclass, no_flag):
    """A renamed or added field fails here instead of silently losing
    (or never getting) its flag."""
    fields = {f.name for f in dataclasses.fields(dataclass)}
    assert set(table) <= fields
    assert no_flag <= fields
    assert set(table) | no_flag == fields
    assert not set(table) & no_flag
    assert set(cli._FLAG_RENAMES) <= set(cli._DISRUPTION_FLAGS)


#: Flags that make every other flag admissible (drains configured, a
#: correlated shock process for --correlation*, racks for
#: --racks-per-switch), each at a value :func:`_other_value` moves.
BASELINE = {
    "mtbf": 5000.0,
    "drain_every": 4000.0,
    "drain_nodes": 2,
    "rack_mtbf": 9000.0,
    "rack_size": 8,
}


def _other_value(kind, current):
    if isinstance(kind, list):
        return next(choice for choice in kind if choice != current)
    # Halving keeps a float positive and a correlation inside (0, 1].
    return current / 2 if kind is float else current + 1


def _build(given: dict):
    argv = ["matrix", "--scenarios", "adversarial", "--sizes", "10"]
    for field, value in given.items():
        flag = cli._FLAG_RENAMES.get(field, field).replace("_", "-")
        argv += [f"--{flag}", str(value)]
    args = build_parser().parse_args(argv)
    return cli._build_disruption_spec(args), cli._build_topology(args)


@pytest.mark.parametrize(
    "field", [*cli._DISRUPTION_FLAGS, *cli._TOPOLOGY_FLAGS]
)
def test_each_flag_changes_exactly_its_field(field):
    table, which = (
        (cli._DISRUPTION_FLAGS, 0)
        if field in cli._DISRUPTION_FLAGS
        else (cli._TOPOLOGY_FLAGS, 1)
    )
    before = _build(BASELINE)
    current = getattr(before[which], field)
    after = _build({**BASELINE, field: _other_value(table[field][0], current)})
    changed = {
        (i, f.name)
        for i in (0, 1)
        for f in dataclasses.fields(before[i])
        if getattr(before[i], f.name) != getattr(after[i], f.name)
    }
    assert changed == {(which, field)}


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print(json.dumps(surface(), indent=1))
