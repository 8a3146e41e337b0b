"""Model profiles: policy behaviour + latency models per simulated LLM.

The paper evaluates two reasoning models (§1.2, §3.3):

* **O4-Mini** (OpenAI, "reasoning effort: high") — strong multi-step
  reasoning; heavy-tailed per-call latency with outliers beyond 100 s,
  especially on heterogeneous queues (Fig. 5/6); fairness-focused on
  contended workloads but prone to "easy wins" (short-job bias) when
  resources are scarce, hurting fairness in Resource Sparse /
  Homogeneous Short (§3.5).
* **Claude 3.7 Sonnet** (Anthropic, temperature 0) — tightly clustered
  per-call latencies below ~10 s, ~7× lower total overhead; balanced
  multiobjective behaviour, slightly weaker fairness than O4-Mini in
  Long-Job-Dominant.

A :class:`ModelProfile` packages the two aspects we substitute for the
cloud APIs (see :mod:`repro.core.reasoning`): :class:`PolicyWeights`
steering the multiobjective reasoning policy, and a
:class:`LatencyModel` producing
*virtual* per-call latencies with the observed distributional shape.
Nothing sleeps — latencies are sampled numbers fed to the overhead
analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class PolicyWeights:
    """Relative weights of the four prompt objectives in job scoring.

    Weights need not sum to one; scores are compared, not normalized.

    ``easy_win_bias`` models the paper's observation that O4-Mini
    over-prioritizes short jobs under low contention: it scales the
    throughput term *up* as the fraction of feasible queued jobs rises
    (lots of feasible jobs = low contention = easy wins available).
    """

    fairness: float = 0.25
    makespan: float = 0.25
    utilization: float = 0.25
    throughput: float = 0.25
    easy_win_bias: float = 0.0
    #: Starvation patience: once any queued job has waited longer than
    #: ``patience × max(median queued walltime, 300 s)`` the policy
    #: switches to reservation mode — it protects the starving job's
    #: earliest start the way EASY backfilling protects the queue head.
    #: Lower patience = more fairness-protective.
    starvation_patience: float = 3.0
    #: Std-dev of additive noise on per-job scores. Models the run-to-run
    #: nondeterminism of real LLM APIs (the paper's §4 robustness study
    #: exists because even temperature-0 cloud calls are not bitwise
    #: repeatable). Zero = fully deterministic policy.
    decision_noise: float = 0.0

    def __post_init__(self) -> None:
        for name in ("fairness", "makespan", "utilization", "throughput"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} weight must be non-negative")


@dataclass(frozen=True)
class LatencyModel:
    """Virtual per-call latency sampler.

    latency = lognormal(log(base_s), sigma)
              × (1 + het_sensitivity · heterogeneity)
              × (1 + queue_sensitivity · (queue_len / 20))
              [× outlier_scale·U(1, 2) with prob outlier_prob·(1+het)]

    Parameters are calibrated so the Fig. 5/6 *shapes* reproduce:
    Claude-sim clusters below 10 s with rare mild outliers; O4-Mini-sim
    is heavy-tailed with >100 s spikes on heterogeneous queues and a
    superlinear elapsed-time growth as queues lengthen.
    """

    base_s: float = 4.0
    sigma: float = 0.25
    het_sensitivity: float = 0.3
    queue_sensitivity: float = 0.1
    outlier_prob: float = 0.0
    outlier_scale: float = 1.0

    def sample(
        self,
        rng: np.random.Generator,
        *,
        queue_len: int = 0,
        heterogeneity: float = 0.0,
    ) -> float:
        """Draw one virtual call latency in seconds."""
        latency = rng.lognormal(np.log(self.base_s), self.sigma)
        latency *= 1.0 + self.het_sensitivity * heterogeneity
        latency *= 1.0 + self.queue_sensitivity * (queue_len / 20.0)
        p_outlier = self.outlier_prob * (1.0 + heterogeneity)
        if p_outlier > 0 and rng.random() < p_outlier:
            latency *= self.outlier_scale * rng.uniform(1.0, 2.0)
        return float(latency)


@dataclass(frozen=True)
class ModelProfile:
    """Everything that distinguishes one simulated LLM from another."""

    name: str
    weights: PolicyWeights
    latency: LatencyModel
    #: Probability that a decision proposes an infeasible job despite
    #: the prompt's resource listing — the hallucination mode §2.4's
    #: constraint enforcement exists to catch. Real reasoning models do
    #: this occasionally (Fig. 2 bottom-right); keep small.
    hallucination_rate: float = 0.02
    #: Max output tokens per call (Claude 3.7 was run with 5 000; the
    #: figure only feeds token accounting).
    max_tokens: int = 5000
    #: Sampling temperature metadata (0 = deterministic decisions).
    temperature: float = 0.0

    def with_weights(self, **kwargs: float) -> "ModelProfile":
        """Derived profile with some policy weights replaced (ablations)."""
        return replace(self, weights=replace(self.weights, **kwargs))

    def with_hallucination_rate(self, rate: float) -> "ModelProfile":
        return replace(self, hallucination_rate=rate)


#: Claude 3.7 Sonnet stand-in: balanced weights, tight low latency.
CLAUDE_37_SIM = ModelProfile(
    name="claude-3.7-sim",
    weights=PolicyWeights(
        fairness=0.24,
        makespan=0.26,
        utilization=0.28,
        throughput=0.22,
        easy_win_bias=0.0,
        starvation_patience=0.3,
        decision_noise=0.01,
    ),
    latency=LatencyModel(
        base_s=4.5,
        sigma=0.22,
        het_sensitivity=0.35,
        queue_sensitivity=0.12,
        outlier_prob=0.01,
        outlier_scale=1.8,
    ),
    hallucination_rate=0.02,
    max_tokens=5000,
    temperature=0.0,
)

#: O4-Mini stand-in: fairness-leaning with an easy-win short-job bias,
#: heavy-tailed latency sensitive to queue heterogeneity and length.
O4_MINI_SIM = ModelProfile(
    name="o4-mini-sim",
    weights=PolicyWeights(
        fairness=0.32,
        makespan=0.18,
        utilization=0.22,
        throughput=0.28,
        easy_win_bias=0.6,
        starvation_patience=0.25,
        decision_noise=0.02,
    ),
    latency=LatencyModel(
        base_s=10.0,
        sigma=0.8,
        het_sensitivity=1.0,
        queue_sensitivity=0.35,
        outlier_prob=0.05,
        outlier_scale=8.0,
    ),
    hallucination_rate=0.03,
    max_tokens=100_000,
    temperature=float("nan"),  # fixed internally, not controllable (§3.3)
)

#: Hypothetical on-premise fast reasoning model — the deployment the
#: paper's §6 says is "critical to overcome the computational overhead
#: barriers": Claude-sim's policy quality with two-orders-of-magnitude
#: lower, dedicated-hardware latency. Exists to quantify the §3.7.3
#: deployment-limit discussion under the suggested fix.
ONPREM_FAST_SIM = ModelProfile(
    name="onprem-fast-sim",
    weights=CLAUDE_37_SIM.weights,
    latency=LatencyModel(
        base_s=0.08,
        sigma=0.3,
        het_sensitivity=0.3,
        queue_sensitivity=0.1,
        outlier_prob=0.005,
        outlier_scale=3.0,
    ),
    hallucination_rate=0.02,
    max_tokens=5000,
    temperature=0.0,
)

#: Registry of named model profiles.
MODEL_PROFILES: dict[str, ModelProfile] = {
    CLAUDE_37_SIM.name: CLAUDE_37_SIM,
    O4_MINI_SIM.name: O4_MINI_SIM,
    ONPREM_FAST_SIM.name: ONPREM_FAST_SIM,
}


def get_profile(name: str) -> ModelProfile:
    """Look up a model profile with a helpful error."""
    try:
        return MODEL_PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown model profile {name!r}; available: "
            f"{', '.join(MODEL_PROFILES)}"
        ) from None
