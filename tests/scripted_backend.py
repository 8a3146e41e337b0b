"""A backend that replays canned reply texts, so the agent can be
driven with arbitrary (including malformed) model output."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.backends import LLMReply
from repro.core.prompt import PromptContext, estimate_tokens


@dataclass
class ScriptedBackend:
    """Replays a fixed sequence of reply texts (testing utility).

    After the script is exhausted it keeps returning the final reply
    (or raises if ``strict``).
    """

    replies: Sequence[str]
    latency_s: float = 1.0
    name: str = "scripted"
    strict: bool = False
    _cursor: int = field(default=0, init=False)

    def reset(self) -> None:
        self._cursor = 0

    def complete(self, prompt: str, context: PromptContext) -> LLMReply:
        if self._cursor >= len(self.replies):
            if self.strict:
                raise RuntimeError("scripted backend exhausted")
            index = len(self.replies) - 1
        else:
            index = self._cursor
        self._cursor += 1
        text = self.replies[index]
        return LLMReply(
            text=text,
            latency_s=self.latency_s,
            input_tokens=estimate_tokens(prompt),
            output_tokens=estimate_tokens(text),
        )
