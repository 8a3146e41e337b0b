"""The textual ReAct grammar.

The paper's prompt (§3.4) instructs the model to answer in the format::

    Thought: <your reasoning>
    Action: <your action>

with the action being one of ``StartJob(job_id=X)``,
``BackfillJob(job_id=Y)``, ``Delay`` or ``Stop``. An ``Action:`` body
may also list a plan of several actions separated by ``;`` (for
example ``StartJob(job_id=3); StartJob(job_id=5); Delay``), which the
agent executes one decision point at a time (the §3.7.3 batch
operation). LLM output is text, so parsing must be tolerant of the
variation real models produce (case, whitespace, ``job_id`` vs bare
integers, trailing prose) while rejecting genuinely malformed replies
so the feedback loop can correct them.
"""

from __future__ import annotations

import re

from repro.sim.actions import Action, ActionKind, BackfillJob, Delay, StartJob, Stop


class ActionParseError(ValueError):
    """A reply's Action line could not be understood."""


class ParsedReply:
    """A parsed ReAct reply: free-form thought + structured action.

    ``rest`` holds the actions a plan lists after ``action``; it is
    empty for a one-action reply.
    """

    __slots__ = ("thought", "action", "rest")

    def __init__(
        self, thought: str, action: Action, rest: tuple[Action, ...] = ()
    ) -> None:
        self.thought = thought
        self.action = action
        self.rest = rest


_ACTION_LINE = re.compile(r"^\s*action\s*:\s*(?P<body>.+?)\s*$", re.IGNORECASE)
_THOUGHT_LINE = re.compile(r"^\s*thought\s*:\s*(?P<body>.*)$", re.IGNORECASE)

_START = re.compile(
    r"^startjob\s*\(\s*(?:job_?id\s*=\s*)?(?P<id>\d+)\s*\)\s*$", re.IGNORECASE
)
_BACKFILL = re.compile(
    r"^backfilljob\s*\(\s*(?:job_?id\s*=\s*)?(?P<id>\d+)\s*\)\s*$",
    re.IGNORECASE,
)
_DELAY = re.compile(r"^delay\s*(\(\s*\))?\s*\.?$", re.IGNORECASE)
_STOP = re.compile(r"^stop\s*(\(\s*\))?\s*\.?$", re.IGNORECASE)


def parse_action(text: str) -> Action:
    """Parse one action expression (the body of an ``Action:`` line)."""
    body = text.strip()
    if match := _START.match(body):
        return StartJob(int(match.group("id")))
    if match := _BACKFILL.match(body):
        return BackfillJob(int(match.group("id")))
    if _DELAY.match(body):
        return Delay
    if _STOP.match(body):
        return Stop
    raise ActionParseError(
        f"unrecognized action {body!r}; expected StartJob(job_id=X), "
        "BackfillJob(job_id=Y), Delay, or Stop"
    )


def parse_reply(text: str) -> ParsedReply:
    """Parse a full ReAct reply into (thought, action, rest of plan).

    The *last* ``Action:`` line wins (reasoning models sometimes discuss
    candidate actions inside the thought); everything between the first
    ``Thought:`` marker and the chosen action line is the thought. A
    reply with no ``Action:`` line, or whose plan has any element that
    does not parse, raises :class:`ActionParseError`.
    """
    lines = text.splitlines()
    action_idx = None
    for i, line in enumerate(lines):
        if _ACTION_LINE.match(line):
            action_idx = i
    if action_idx is None:
        raise ActionParseError("reply contains no 'Action:' line")
    body = _ACTION_LINE.match(lines[action_idx]).group("body")  # type: ignore[union-attr]
    action, *rest = map(parse_action, body.split(";"))

    thought_lines: list[str] = []
    in_thought = False
    for i, line in enumerate(lines[:action_idx]):
        if match := _THOUGHT_LINE.match(line):
            in_thought = True
            first = match.group("body")
            if first:
                thought_lines.append(first)
            continue
        if in_thought:
            thought_lines.append(line)
    if not in_thought:
        # Tolerate replies that skip the Thought: marker entirely.
        thought_lines = [ln for ln in lines[:action_idx]]
    thought = "\n".join(thought_lines).strip()
    return ParsedReply(thought=thought, action=action, rest=tuple(rest))


def render_reply(thought: str, action: Action, *rest: Action) -> str:
    """Render a thought and its action (or plan) in the canonical ReAct
    format."""
    plan = "; ".join(map(Action.render, (action, *rest)))
    return f"Thought: {thought}\nAction: {plan}"


def action_tag(action: Action) -> str:
    """Snake-case tag for overhead bookkeeping (paper §3.7.1 restricts
    to ``start_job`` and ``backfill_job`` calls)."""
    return {
        ActionKind.START: "start_job",
        ActionKind.BACKFILL: "backfill_job",
        ActionKind.DELAY: "delay",
        ActionKind.STOP: "stop",
    }[action.kind]
