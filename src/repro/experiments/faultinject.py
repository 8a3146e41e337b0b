"""Deterministic fault injection for the sweep engine (chaos harness).

The fault-tolerance layer in :mod:`repro.experiments.parallel` claims a
sweep survives worker crashes, hangs, and torn store writes without
changing a single persisted byte. This module makes that claim
testable: it injects exactly those failures, deterministically, so a
chaos test (or the CI ``chaos`` job) can kill a worker mid-sweep and
then assert the recovered store is ``diff``-identical to an
undisturbed serial run.

Determinism is the whole design:

* Whether a fault fires for a cell is a pure function of
  ``(plan seed, rule kind, cell-key string, attempt number)`` — a
  SHA-256 hash, never ``random``. Two processes with the same plan
  injure the same cells on the same attempts.
* Faults decide *which attempt fails*, never *what a run computes*:
  the simulation itself is untouched, so a retried cell reproduces its
  first-try result bit for bit.
* Injection is **off by default**. A plan exists only when installed
  programmatically (:func:`install`, for in-process tests) or via the
  ``REPRO_FAULTS`` environment variable (JSON, inherited by pool
  workers). With neither, every hook below is a no-op and the engine's
  behavior is byte-identical to a build without this module.

``REPRO_FAULTS`` example — kill (``os._exit``) the worker running any
``sjf`` cell on its first attempt, and corrupt the store line of one
specific cell::

    REPRO_FAULTS='{"seed": 0, "rules": [
      {"kind": "crash", "mode": "exit", "match": "|sjf|"},
      {"kind": "corrupt_write", "match": "adversarial|10|fcfs|1|"}
    ]}'

Rule kinds: ``crash`` (worker raises :class:`InjectedCrash`, or with
``"mode": "exit"`` dies without cleanup like an OOM kill), ``hang``
(worker sleeps ``hang_s`` seconds — the watchdog's prey), ``latency``
(worker sleeps ``skew_s`` seconds and then proceeds normally — skew
that must never change a persisted byte, only completion order),
``torn_write`` / ``corrupt_write`` (the store write for a matching
cell is truncated mid-line / garbled in place), and ``disk_full``
(the store write raises ``OSError(ENOSPC)`` before any byte lands —
the store's bounded append retry is its prey).
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import time
from dataclasses import dataclass, fields
from typing import Mapping, Optional

#: Environment variable holding a JSON :class:`FaultPlan`; unset (the
#: default) means no injection anywhere.
ENV_VAR = "REPRO_FAULTS"

#: Fault kinds applied at cell-execution time (in the worker).
#: ``latency`` is benign (the attempt proceeds after the sleep);
#: ``crash``/``hang`` terminate the attempt.
CELL_KINDS = ("crash", "hang", "latency")
#: Fault kinds applied at store-write time (in the parent).
WRITE_KINDS = ("torn_write", "corrupt_write", "disk_full")


class InjectedCrash(RuntimeError):
    """The exception a ``crash``-rule worker raises (``mode="raise"``)."""


@dataclass(frozen=True)
class FaultRule:
    """One injection rule; fields beyond ``kind`` narrow when it fires."""

    kind: str
    #: ``crash`` only: ``"raise"`` propagates :class:`InjectedCrash` to
    #: the parent (worker survives); ``"exit"`` calls ``os._exit`` so
    #: the worker dies without unwinding — the parent reads EOF on that
    #: worker's pipe and replaces it, exactly like an OOM-killed worker.
    mode: str = "raise"
    #: Trigger probability in [0, 1]; hashed, not random (see module
    #: docstring). 1.0 = every matching (cell, attempt).
    p: float = 1.0
    #: Substring filter on the canonical cell-key string; "" matches
    #: every cell.
    match: str = ""
    #: Highest attempt number the rule still fires on. The default (1)
    #: injures only first tries, so a bounded-retry engine always
    #: recovers; raise it (or use a large value) to model a permanently
    #: failing cell.
    max_attempt: int = 1
    #: ``hang`` only: how long the worker sleeps. Long by default — a
    #: hang is supposed to look infinite to the watchdog.
    hang_s: float = 3600.0
    #: ``crash``/``mode="exit"`` only: the worker's exit status.
    exit_code: int = 137
    #: ``latency`` only: how long the worker is delayed before the
    #: attempt proceeds. Short by default — skew is supposed to reorder
    #: completions, not trip the watchdog.
    skew_s: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in CELL_KINDS + WRITE_KINDS:
            raise ValueError(f"unknown fault kind: {self.kind!r}")
        if self.kind == "crash" and self.mode not in ("raise", "exit"):
            raise ValueError(f"unknown crash mode: {self.mode!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"fault p must be in [0, 1], got {self.p}")
        if self.max_attempt < 1:
            raise ValueError("max_attempt must be >= 1")
        if self.skew_s < 0:
            raise ValueError(f"skew_s must be >= 0, got {self.skew_s}")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of :class:`FaultRule`\\ s.

    The plan is plain frozen data so it serializes to/from the
    ``REPRO_FAULTS`` JSON losslessly and crosses the process boundary
    to pool workers unchanged.
    """

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()

    # -- decision ------------------------------------------------------
    def fires(self, rule: FaultRule, key: str, attempt: int) -> bool:
        """Deterministically decide whether *rule* hits this attempt."""
        if attempt > rule.max_attempt:
            return False
        if rule.match and rule.match not in key:
            return False
        if rule.p >= 1.0:
            return True
        if rule.p <= 0.0:
            return False
        digest = hashlib.sha256(
            f"{self.seed}|{rule.kind}|{key}|{attempt}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64 < rule.p

    def cell_rule(self, key: str, attempt: int) -> Optional[FaultRule]:
        """First crash/hang rule firing for this (cell, attempt).

        ``latency`` rules are deliberately excluded — they are benign
        (the attempt proceeds) and *all* firing ones apply, not just
        the first; see :meth:`latency_rules`.
        """
        for rule in self.rules:
            if rule.kind in ("crash", "hang") and self.fires(
                rule, key, attempt
            ):
                return rule
        return None

    def latency_rules(self, key: str, attempt: int) -> list[FaultRule]:
        """Every latency rule firing for this (cell, attempt); their
        skews stack, modeling several independent slow components."""
        return [
            rule
            for rule in self.rules
            if rule.kind == "latency" and self.fires(rule, key, attempt)
        ]

    def write_rule(self, key: str, attempt: int) -> Optional[FaultRule]:
        """First torn/corrupt-write rule firing for this write attempt."""
        for rule in self.rules:
            if rule.kind in WRITE_KINDS and self.fires(rule, key, attempt):
                return rule
        return None

    # -- (de)serialization --------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "rules": [
                    {f.name: getattr(r, f.name) for f in fields(FaultRule)}
                    for r in self.rules
                ],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed fault plan JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError("fault plan must be a JSON object")
        known = {f.name for f in fields(FaultRule)}
        rules = []
        for entry in payload.get("rules", ()):
            if not isinstance(entry, dict) or "kind" not in entry:
                raise ValueError(f"fault rule needs a 'kind': {entry!r}")
            unknown = set(entry) - known
            if unknown:
                raise ValueError(
                    f"unknown fault rule field(s): {sorted(unknown)}"
                )
            rules.append(FaultRule(**entry))
        return cls(seed=int(payload.get("seed", 0)), rules=tuple(rules))


# -- activation --------------------------------------------------------
#: Programmatic override (tests); None defers to the environment.
_installed: Optional[FaultPlan] = None
#: (raw env string, parsed plan) cache so hot paths don't re-parse.
_env_cache: tuple[Optional[str], Optional[FaultPlan]] = (None, None)
#: Per-process store-write counters: how many times each cell's line
#: has been written here. Lets a torn-write rule injure the first
#: write of a cell and spare the re-write after resume (same process);
#: a fresh process naturally starts over, which models a fresh crash.
_write_attempts: dict[str, int] = {}


def install(plan: Optional[FaultPlan]) -> None:
    """Set (or with ``None`` clear) the in-process plan override and
    reset write counters — test isolation in one call."""
    global _installed
    _installed = plan
    _write_attempts.clear()


def active_plan(environ: Optional[Mapping[str, str]] = None) -> Optional[FaultPlan]:
    """The live plan: the installed override, else ``REPRO_FAULTS``,
    else ``None`` (injection off — the production default)."""
    global _env_cache
    if _installed is not None:
        return _installed
    raw = (os.environ if environ is None else environ).get(ENV_VAR)
    if raw is None or not raw.strip():
        return None
    if _env_cache[0] != raw:
        _env_cache = (raw, FaultPlan.from_json(raw))
    return _env_cache[1]


# -- hooks (called by the engine; no-ops without an active plan) -------
def on_cell_attempt(key: str, attempt: int) -> None:
    """Worker-side hook: crash or hang per the active plan.

    Called at the top of the worker entry point, before any simulation
    work — an injected failure therefore never leaves partial state.
    """
    plan = active_plan()
    if plan is None:
        return
    # Latency first: skew delays the attempt but never replaces the
    # crash/hang decision — a slow worker can still die.
    for lat in plan.latency_rules(key, attempt):
        time.sleep(lat.skew_s)
    rule = plan.cell_rule(key, attempt)
    if rule is None:
        return
    if rule.kind == "hang":
        time.sleep(rule.hang_s)
        return
    if rule.mode == "exit":
        # Die like an OOM-killed worker: no unwinding, no IPC goodbye —
        # that worker is replaced. Unreachable under coverage because
        # it only ever runs in a sacrificial subprocess.
        os._exit(rule.exit_code)  # pragma: no cover
    raise InjectedCrash(
        f"injected worker crash (cell {key}, attempt {attempt})"
    )


def mangle_store_line(key: str, line: str) -> tuple[str, bool]:
    """Parent-side hook: maybe injure the store line for cell *key*.

    Returns ``(text to write, complete)``. ``complete=False`` means a
    torn write: the caller must write the (truncated) text with **no**
    trailing newline and stop, as if the process died mid-``write``.
    A corrupt write returns garbled text (still newline-free) to write
    as a normal full line — interior corruption once more lines follow.
    A ``disk_full`` rule raises ``OSError(ENOSPC)`` instead — before
    the caller writes a single byte, exactly like a full filesystem
    rejecting the ``write(2)`` — and the write-attempt counter still
    advances, so a ``max_attempt=1`` rule clears on the store's retry.
    """
    plan = active_plan()
    if plan is None:
        return line, True
    attempt = _write_attempts.get(key, 0) + 1
    _write_attempts[key] = attempt
    rule = plan.write_rule(key, attempt)
    if rule is None:
        return line, True
    if rule.kind == "disk_full":
        raise OSError(
            errno.ENOSPC,
            f"injected disk-full on store write (cell {key}, "
            f"write attempt {attempt})",
        )
    if rule.kind == "torn_write":
        return line[: max(1, len(line) // 2)], False
    return "#CORRUPT#" + line[len(line) // 3:], True
