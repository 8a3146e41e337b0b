"""Scratchpad memory (paper §2.2).

The scratchpad is the agent's persistent context: a running log of
every (Thought, Action, Feedback) triple across timesteps, appended to
each prompt so the model can refer to its own history without
retraining. Because prompts have finite context windows, rendering
supports a last-*k* window while the full history is retained for
analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional


@dataclass(frozen=True)
class ScratchpadEntry:
    """One scratchpad line: a decision or an environment feedback."""

    time: float
    thought: str
    action_text: str
    feedback: str = ""

    def render(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        # An entry is frozen, so it is rendered once however many
        # prompts its window puts it in.
        parts = [f"[t={self.time:g}] Action: {self.action_text}"]
        if self.thought:
            # Keep the scratchpad compact: first line of the thought only.
            first_line = self.thought.strip().splitlines()[0]
            parts.insert(0, f"[t={self.time:g}] Thought: {first_line}")
        if self.feedback:
            parts.append(f"Feedback: {self.feedback}")
        return "\n".join(parts)


@dataclass
class Scratchpad:
    """Append-only decision history with windowed rendering.

    Parameters
    ----------
    window:
        How many most-recent entries to include when rendering into a
        prompt (``None`` renders everything). The full history is kept
        regardless — Fig. 2's analysis reads it back out.
    """

    window: Optional[int] = 12
    entries: list[ScratchpadEntry] = field(default_factory=list)

    def append(
        self,
        time: float,
        thought: str,
        action_text: str,
        feedback: str = "",
    ) -> ScratchpadEntry:
        """Record one (thought, action, feedback) triple.

        Entries are kept in clock order — :meth:`recent_feedback` reads
        the history from its tail — so a *time* earlier than the last
        entry's is refused.
        """
        if self.entries and time < self.entries[-1].time:
            raise ValueError(
                f"scratchpad entries are appended in clock order: "
                f"t={time:g} is before the last entry's "
                f"t={self.entries[-1].time:g}"
            )
        entry = ScratchpadEntry(time, thought, action_text, feedback)
        self.entries.append(entry)
        return entry

    def attach_feedback(self, feedback: str) -> None:
        """Attach environment feedback to the most recent entry (the
        constraint module reacts *after* the decision is logged)."""
        if not self.entries:
            raise RuntimeError("no entry to attach feedback to")
        last = self.entries[-1]
        self.entries[-1] = ScratchpadEntry(
            last.time, last.thought, last.action_text, feedback
        )

    def render(self) -> str:
        """Render the prompt section (windowed)."""
        if not self.entries:
            return "(nothing yet)"
        view = (
            self.entries
            if self.window is None
            else self.entries[-self.window :]
        )
        omitted = len(self.entries) - len(view)
        lines: list[str] = []
        if omitted:
            lines.append(f"({omitted} earlier entries omitted)")
        lines.extend(entry.render() for entry in view)
        return "\n".join(lines)

    def recent_feedback(self, since_time: float) -> list[ScratchpadEntry]:
        """Entries carrying feedback at or after *since_time* — the
        reasoning policy uses these to avoid re-proposing jobs the
        environment just rejected. Read from the tail of the history up
        to the first older entry, so the cost follows the entries since
        *since_time*, not the length of the run."""
        recent: list[ScratchpadEntry] = []
        for entry in reversed(self.entries):
            if entry.time < since_time:
                break
            if entry.feedback:
                recent.append(entry)
        recent.reverse()
        return recent

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[ScratchpadEntry]:
        return iter(self.entries)
