"""The LLM-based ReAct scheduling agent (the paper's contribution).

Architecture (paper §2, Figure 1)::

    Discrete event HPC simulator  ──state──▶  Prompt builder (§3.4)
            ▲                                        │
            │ valid action                           ▼
    Constraint check  ◀──parse──  LLM backend (Thought / Action text)
            │                                        ▲
            └── natural-language feedback ──▶  Scratchpad memory

Modules
-------
``grammar``
    The textual ReAct action grammar: parsing ``Action:`` lines into
    :mod:`repro.sim.actions` objects and rendering replies.
``scratchpad``
    Persistent decision-history memory appended to every prompt.
``prompt``
    Renders the §3.4 prompt template from a
    :class:`~repro.sim.simulator.SystemView` + scratchpad.
``profiles``
    Model profiles (``claude-3.7-sim``, ``o4-mini-sim``): multiobjective
    policy weights and calibrated virtual-latency models.
``reasoning``
    The deterministic multiobjective reasoning policy that stands in
    for the cloud LLMs (its module docstring lists what is substituted).
``backends``
    The :class:`~repro.core.backends.LLMBackend` protocol and the
    simulated implementation, which can plan several actions per reply
    (§3.7.3 batch operation).
``constraints``
    Natural-language feedback rendering for violations (§2.4).
``agent``
    :class:`~repro.core.agent.ReActSchedulingAgent`, Algorithm 1, with
    plan-ahead and periodic (delay cooldown) operation.
``scheduler``
    Registers the simulated models with the scheduler registry.
"""

from repro.core.agent import ReActSchedulingAgent, create_llm_scheduler
from repro.core.backends import (
    LLMBackend,
    LLMCallRecord,
    LLMReply,
    SimulatedReasoningBackend,
)
from repro.core.constraints import render_feedback
from repro.core.grammar import ActionParseError, parse_reply, render_reply
from repro.core.profiles import (
    CLAUDE_37_SIM,
    ONPREM_FAST_SIM,
    MODEL_PROFILES,
    O4_MINI_SIM,
    LatencyModel,
    ModelProfile,
    PolicyWeights,
)
from repro.core.prompt import PromptBuilder, PromptContext
from repro.core.reasoning import ReasoningPolicy, ReasoningStep
from repro.core.scratchpad import Scratchpad, ScratchpadEntry

__all__ = [
    "ActionParseError",
    "CLAUDE_37_SIM",
    "LLMBackend",
    "LLMCallRecord",
    "LLMReply",
    "LatencyModel",
    "MODEL_PROFILES",
    "ModelProfile",
    "O4_MINI_SIM",
    "ONPREM_FAST_SIM",
    "PolicyWeights",
    "PromptBuilder",
    "PromptContext",
    "ReActSchedulingAgent",
    "ReasoningPolicy",
    "ReasoningStep",
    "Scratchpad",
    "ScratchpadEntry",
    "SimulatedReasoningBackend",
    "create_llm_scheduler",
    "parse_reply",
    "render_feedback",
    "render_reply",
]

# Register the LLM schedulers with the central registry on import.
from repro.core import scheduler as _scheduler_registration  # noqa: E402,F401
