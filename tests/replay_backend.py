"""Record/replay for LLM backends (a test harness, not in the package).

Cloud reasoning calls are slow and expensive (the whole point of the
paper's §3.7 overhead analysis). This module lets a session be captured
once and re-run offline, deterministically:

* :class:`RecordingBackend` wraps any backend and logs every
  (prompt, reply) exchange;
* :meth:`RecordingBackend.save` / :func:`load_replay` persist the tape
  as JSON;
* :class:`ReplayBackend` plays a tape back, optionally verifying that
  the prompts produced by the re-run match the recorded ones (catching
  drift in prompt construction or workload generation).

This is also the mechanism for turning a *real* API session into a
reproducible artifact: record once against the cloud model, commit the
tape, and every CI run replays it exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from repro.core.backends import LLMBackend, LLMReply
from repro.core.prompt import PromptContext


def _fingerprint(prompt: str) -> str:
    """Short stable fingerprint of a prompt (for mismatch detection)."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:16]


@dataclass
class RecordedCall:
    """One captured backend exchange."""

    prompt_fingerprint: str
    text: str
    latency_s: float
    input_tokens: int
    output_tokens: int

    def to_json(self) -> dict:
        return {
            "prompt_fingerprint": self.prompt_fingerprint,
            "text": self.text,
            "latency_s": self.latency_s,
            "input_tokens": self.input_tokens,
            "output_tokens": self.output_tokens,
        }

    @classmethod
    def from_json(cls, data: dict) -> "RecordedCall":
        return cls(
            prompt_fingerprint=data["prompt_fingerprint"],
            text=data["text"],
            latency_s=float(data["latency_s"]),
            input_tokens=int(data["input_tokens"]),
            output_tokens=int(data["output_tokens"]),
        )


class RecordingBackend:
    """Wraps a backend and captures every call onto a tape."""

    def __init__(self, inner: LLMBackend) -> None:
        self.inner = inner
        self.name = inner.name
        self.tape: list[RecordedCall] = []

    def reset(self) -> None:
        # A fresh run gets a fresh tape — tapes capture one session.
        self.inner.reset()
        self.tape = []

    def complete(self, prompt: str, context: PromptContext) -> LLMReply:
        reply = self.inner.complete(prompt, context)
        self.tape.append(
            RecordedCall(
                prompt_fingerprint=_fingerprint(prompt),
                text=reply.text,
                latency_s=reply.latency_s,
                input_tokens=reply.input_tokens,
                output_tokens=reply.output_tokens,
            )
        )
        return reply

    def save(self, path: str | Path) -> None:
        """Persist the tape as JSON."""
        payload = {
            "model": self.name,
            "calls": [c.to_json() for c in self.tape],
        }
        Path(path).write_text(json.dumps(payload, indent=2))


class ReplayMismatch(RuntimeError):
    """The replayed session diverged from the recorded one."""


class ReplayBackend:
    """Plays a recorded tape back in order.

    Parameters
    ----------
    calls:
        The tape (e.g. from :func:`load_replay`).
    model:
        Name to report as the backend's model.
    verify_prompts:
        When True (default), every replayed call checks that the
        prompt fingerprint matches the recording — a mismatch means
        the re-run diverged (different workload, seed, or prompt
        rendering) and the tape no longer applies.
    """

    def __init__(
        self,
        calls: list[RecordedCall],
        *,
        model: str = "replay",
        verify_prompts: bool = True,
    ) -> None:
        self.calls = list(calls)
        self.name = model
        self.verify_prompts = verify_prompts
        self._cursor = 0

    def reset(self) -> None:
        self._cursor = 0

    def complete(self, prompt: str, context: PromptContext) -> LLMReply:
        if self._cursor >= len(self.calls):
            raise ReplayMismatch(
                f"tape exhausted after {len(self.calls)} calls — the "
                "re-run issued more queries than the recording"
            )
        call = self.calls[self._cursor]
        self._cursor += 1
        if self.verify_prompts and call.prompt_fingerprint != _fingerprint(
            prompt
        ):
            raise ReplayMismatch(
                f"prompt mismatch at call {self._cursor}: the re-run's "
                "prompt differs from the recorded one (workload, seed or "
                "prompt rendering changed)"
            )
        return LLMReply(
            text=call.text,
            latency_s=call.latency_s,
            input_tokens=call.input_tokens,
            output_tokens=call.output_tokens,
        )


def load_replay(
    path: str | Path, *, verify_prompts: bool = True
) -> ReplayBackend:
    """Load a tape saved by :meth:`RecordingBackend.save`."""
    payload = json.loads(Path(path).read_text())
    calls = [RecordedCall.from_json(c) for c in payload["calls"]]
    return ReplayBackend(
        calls,
        model=payload.get("model", "replay"),
        verify_prompts=verify_prompts,
    )
