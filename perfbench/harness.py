"""Measurement harness: calibration, the timed loop, result assembly.

A run is one workload in one process: ``SETUP_ROUNDS`` set-ups (each
builds the inputs from scratch and runs one untimed warm-up repetition),
then timed repetitions of the workload's body until ``--seconds`` are
used up, then one ``finish`` phase and the teardown.

**Host time is reported in calibrated seconds.** The sandbox this runs on
changes speed by tens of percent within seconds. A fixed calibration loop
(pure Python + numpy, no ``repro`` code) runs between repetitions, and
each timing is scaled by ``CALIB_REF_S / (mean of the two calibrations
around it)``. On a host whose calibration loop takes ``CALIB_REF_S`` the
calibrated and the raw number are equal; elsewhere the ratio removes the
drift the loop and the body share (sizing runs: medians of raw wall spread
10-19 % run to run, calibrated 2-5 %). Raw medians are printed next to the
calibrated ones. Simulated statistics are never scaled and must repeat
exactly.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

import numpy as np

from perfbench.tracing import NULL, Tracer, write_spans

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Wall time of :func:`calibrate` on the reference host (the sandbox the
#: benchmark was sized on, at its typical speed).
CALIB_REF_S = 0.010
#: Passes of the calibration loop per sample (about 60 ms). More passes
#: did not steady the ratio further in the sizing runs: what is left is
#: host noise faster than one repetition.
CALIB_PASSES = 6
#: Set-ups per run; ``setup_s`` is their median.
SETUP_ROUNDS = 3
#: A run whose calibration drifts by more than this from its first to its
#: last sample is marked ``noisy``.
NOISY_DRIFT = 0.10
#: Units whose values are host time and therefore calibrated, and what
#: a second is in each.
_UNIT_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}
TIME_UNITS = frozenset(_UNIT_SCALE)

_CAL_ARRAY = np.arange(4096, dtype=np.float64)
_CAL_KEY = itemgetter(2)


def calibrate() -> float:
    """Mean seconds of one pass of the fixed calibration loop right now,
    over ``CALIB_PASSES`` passes.

    The mix (tuple and dict churn, a keyed sort, small-array numpy
    masks) resembles what the simulator does, so it speeds up and slows
    down with the host the same way the workloads do. The mean, not the
    minimum: the host's speed changes within tens of milliseconds, and
    the body it is compared with pays the slow moments too. The collector
    is off inside it: its cost would grow with the heap the workload
    holds, and the calibration must depend on the host alone.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(CALIB_PASSES):
            _calibration_pass()
        return (perf_counter() - t0) / CALIB_PASSES
    finally:
        gc.enable()


def _calibration_pass() -> None:
    acc = 0
    table: dict[int, tuple] = {}
    rows = []
    for i in range(30000):
        row = (i, float(i), i & 7)
        table[i] = row
        rows.append(row)
        acc += (i * i) % 7
    rows.sort(key=_CAL_KEY)
    for i in range(0, 30000, 3):
        del table[i]
    for _ in range(150):
        mask = (_CAL_ARRAY > 512.0) & (_CAL_ARRAY < 3072.0)
        np.flatnonzero(mask)
        _CAL_ARRAY.cumsum()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(p25, median, p75); a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    p25, p50, p75 = statistics.quantiles(values, n=4)
    return p25, p50, p75


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 < q <= 100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Spec:
    """``BENCHMARK.json``: the one list of workload and metric names."""

    def __init__(self, path: Path = ROOT / "BENCHMARK.json") -> None:
        self.raw = json.loads(path.read_text(encoding="utf-8"))
        self.workloads = [w["name"] for w in self.raw["workloads"]]
        self.end_to_end = {m["name"]: m for m in self.raw["end_to_end"]}
        self.per_layer = {m["name"]: m for m in self.raw["per_layer"]}

    def unit(self, name: str) -> str:
        metric = self.end_to_end.get(name) or self.per_layer[name]
        return metric["unit"]


class Checks:
    """Output checks; each one is an attempted operation, each failed
    one a failed operation. Failures are reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def ok(self, condition: bool, what: str) -> bool:
        self.attempted += 1
        if not condition:
            self.failed += 1
            print(f"CHECK FAILED: {what}", file=sys.stderr)
        return bool(condition)

    def note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)


@dataclass
class Rep:
    """What one repetition of a workload's body did."""

    #: Units of work completed (jobs, cells, appends, replies).
    work: float
    #: Mean seconds of the user-visible operation (cell, query, request …)
    #: in this repetition. One number per repetition, because the samples
    #: inside one differ in kind (cells, layouts, session ages) and the
    #: median of a many-humped sample flips between the humps.
    op_s: float
    #: Seconds the ``work`` units took; ``None`` means the whole body.
    work_s: Optional[float] = None
    #: Operations attempted / failed inside the body.
    attempted: int = 0
    failed: int = 0
    #: Whatever :meth:`Workload.check` and ``layers`` need afterwards.
    outputs: Any = None


class Workload:
    """One benchmark workload; subclasses fill in the phases."""

    name = ""
    #: What ``work_per_s`` counts and ``op_ms_p50`` times, for the table.
    work_unit = ""
    op_name = ""

    def __init__(
        self, seed: int, smoke: bool, tmp: Path, goldens: dict,
        cores: set[int],
    ):
        self.seed = seed
        self.smoke = smoke
        self.tmp = tmp
        #: The CPUs the run may use; it is pinned to the lowest of them.
        self.cores = cores
        #: Seed-0 goldens for this workload, or ``{}`` when they do not
        #: apply (another seed, smoke sizes).
        self.goldens = goldens
        #: Digests and simulated statistics of the latest repetition,
        #: compared across repetitions and against the goldens.
        self.digests: dict[str, str] = {}
        self.sim: dict[str, float] = {}

    def setup(self) -> dict[str, float]:
        """Build the inputs from ``self.seed``; returns per-layer set-up
        timings in seconds (``workloads.generate_s`` …)."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed, before every repetition (e.g. a fresh copy of an
        archive the body writes to). Default: nothing."""

    def body(self, tr) -> Rep:
        """One repetition. *tr* is a Tracer or the null tracer."""
        raise NotImplementedError

    def check(self, rep: Rep, checks: Checks) -> None:
        """Untimed output checks on one repetition."""
        raise NotImplementedError

    def layers(self, tr, rep: Rep) -> dict[str, float]:
        """Per-layer numbers of one repetition of the traced pass, host
        times in seconds whatever the metric's unit. The traced pass
        alternates untraced (*tr* is the null tracer) and traced
        repetitions; most numbers come from the traced ones."""
        raise NotImplementedError

    def finish(self, traced: bool, checks: Checks) -> dict[str, float]:
        """Once after the timed repetitions; may return more per-layer
        numbers (host times in seconds). Default: nothing."""
        return {}

    def teardown(self) -> None:
        """Stop what ``setup`` started. Default: nothing."""

    # -- shared check helpers -------------------------------------------
    def record(self, checks: Checks, digests: dict, sim: dict) -> None:
        """Repetitions must agree with each other bit for bit, and at
        seed 0 with the goldens."""
        if self.digests:
            checks.ok(digests == self.digests, "digests differ between repetitions")
            checks.ok(sim == self.sim, "simulated statistics differ between repetitions")
        self.digests, self.sim = digests, sim
        if self.goldens:
            checks.ok(
                digests == self.goldens.get("digests"),
                f"{self.name}: digests differ from goldens.json",
            )
            checks.ok(
                sim == self.goldens.get("sim"),
                f"{self.name}: simulated statistics differ from goldens.json",
            )
        else:
            checks.note(
                "goldens skipped (they hold seed 0 at full size); "
                "seed-independent output checks only"
            )


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@dataclass
class _Sample:
    traced: bool
    wall: float
    factor: float
    rep: Rep


@dataclass
class RunResult:
    """Everything one run measured; ``summary`` is the contract line."""

    summary: dict
    detail: dict = field(default_factory=dict)


def run_workload(
    cls: type,
    *,
    spec: Spec,
    seed: int,
    seconds: float,
    traced: bool,
    smoke: bool,
    import_s: float,
    goldens: dict,
) -> RunResult:
    """Set up, measure and tear down one workload in this process.

    The process, and with it every child a workload starts, is pinned to
    one core for the length of the run. The sandbox's cores change speed
    independently of each other (correlation 0.2). Spread over both, a
    multi-process body followed the calibration loop, run on one core or
    on both at once, with a regression slope of 0.3 where 1 means
    "follows the host", and its medians spread 11-20 % from run to run;
    on one core the loop runs where the work runs: 4-7 %. The bodies
    lose little by it: the pooled sweep's cells are short next to the
    pool's start, and the daemon with two closed-loop clients is never
    idle (0.51 s per session pair on one core, 0.56 s on two).
    """
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    calib_first = calibrate()
    checks = Checks()
    tmp = OUT_DIR / f"tmp-{cls.name}-{seed}-{int(traced)}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    use_goldens = goldens if (seed == 0 and not smoke) else {}

    def factor(before: float, after: float) -> float:
        return CALIB_REF_S / ((before + after) / 2)

    wl: Optional[Workload] = None
    samples: list[_Sample] = []
    layer_samples: list[dict[str, float]] = []
    setup_samples: list[float] = []
    setup_layers: list[dict[str, float]] = []
    first_trace: Optional[Tracer] = None
    extra_layers: dict[str, float] = {}
    try:
        rounds = 1 if smoke else SETUP_ROUNDS
        for k in range(rounds):
            c0 = calibrate()
            t0 = perf_counter()
            wl = cls(seed, smoke, tmp / f"round{k}", use_goldens, cores)
            wl.tmp.mkdir()
            timings = wl.setup()
            wl.prepare()
            warm = Tracer() if traced else NULL
            with warm.span("rep"):
                rep = wl.body(warm)
            wl.check(rep, checks)
            wall = perf_counter() - t0
            scale = factor(c0, calibrate())
            setup_samples.append(wall * scale)
            setup_layers.append(_scale_times(spec, timings, scale))
            if k < rounds - 1:
                wl.teardown()
        gc.collect()
        gc.freeze()

        c_prev = calibrate()
        start = perf_counter()
        costs: list[float] = []
        while True:
            # The traced pass alternates untraced and traced repetitions:
            # their wall difference is the tracing overhead.
            use_tracer = traced and len(samples) % 2 == 1
            tr = Tracer() if use_tracer else NULL
            wl.prepare()
            gc.collect()
            t_rep = perf_counter()
            try:
                with tr.span("rep"):
                    rep = wl.body(tr)
            except Exception:  # a failed body is a failed operation
                traceback.print_exc()
                checks.ok(False, f"{cls.name}: body raised")
                break
            wall = perf_counter() - t_rep
            c_next = calibrate()
            scale = factor(c_prev, c_next)
            c_prev = c_next
            wl.check(rep, checks)
            if traced:
                layer_samples.append(
                    _scale_times(spec, wl.layers(tr, rep), scale)
                )
                if use_tracer and first_trace is None:
                    first_trace = tr
            rep.outputs = None
            samples.append(_Sample(use_tracer, wall, scale, rep))
            costs.append(perf_counter() - t_rep)
            elapsed = perf_counter() - start
            enough = len(samples) >= (2 if traced else 1)
            if enough and (
                smoke or elapsed + 0.5 * statistics.median(costs) >= seconds
            ):
                break
        if samples:
            extra_layers = _scale_times(
                spec, wl.finish(traced, checks), factor(c_prev, calibrate())
            )
    finally:
        if wl is not None:
            wl.teardown()
        shutil.rmtree(tmp, ignore_errors=True)
        os.sched_setaffinity(0, cores)
    if not samples:
        raise RuntimeError(f"{cls.name}: no repetition completed")

    calib_last = calibrate()
    drift = abs(calib_last - calib_first) / calib_first
    import_cal = import_s * factor(calib_first, calib_first)
    attempted = checks.attempted + sum(s.rep.attempted for s in samples)
    failed = checks.failed + sum(s.rep.failed for s in samples)

    detail: dict[str, Any] = {
        "workload": cls.name,
        "seed": seed,
        "trace": int(traced),
        "smoke": smoke,
        "noisy": drift > NOISY_DRIFT,
        "notes": checks.notes,
        "digests": wl.digests,
        "sim": wl.sim,
        "host": {
            "calib_ms_first": calib_first * 1e3,
            "calib_ms_last": calib_last * 1e3,
            "calib_drift_ratio": drift,
        },
    }
    plain = [s for s in samples if not s.traced]
    if traced:
        metrics, spread = _per_layer_metrics(
            spec, cls.name, samples, layer_samples, setup_layers,
            extra_layers, import_cal, calib_first, calib_last, drift,
        )
        if first_trace is not None:
            _write_trace(cls.name, first_trace)
    else:
        metrics, spread = _end_to_end_metrics(
            spec, plain, setup_samples, import_cal
        )
        detail["raw"] = {
            "wall_s": statistics.median(s.wall for s in plain),
            "repetitions": len(plain),
        }
    detail["spread"] = spread
    summary = {
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }
    detail["summary"] = summary
    _print_table(cls, detail, metrics, spread)
    return RunResult(summary, detail)


def _scale_times(spec: Spec, values: dict[str, float], factor: float) -> dict:
    """Calibrate the host-time members of one repetition's layer
    numbers (second-valued; converted to their unit later)."""
    return {
        name: value * factor if spec.unit(name) in TIME_UNITS else value
        for name, value in values.items()
    }


def _end_to_end_metrics(spec, samples, setup_samples, import_cal):
    walls = [s.wall * s.factor for s in samples]
    rates = [
        s.rep.work / ((s.rep.work_s or s.wall) * s.factor) for s in samples
    ]
    ops = [s.rep.op_s * s.factor * 1e3 for s in samples]
    setups = [import_cal + v for v in setup_samples]
    series = {
        "setup_s": setups,
        "wall_s": walls,
        "work_per_s": rates,
        "op_ms_p50": ops,
        "peak_rss_mb": [peak_rss_mb()],
    }
    metrics, spread = {}, {}
    for name in spec.end_to_end:
        p25, p50, p75 = quartiles(series[name])
        metrics[name] = {"value": p50, "unit": spec.unit(name)}
        spread[name] = {"p25": p25, "p75": p75, "n": len(series[name])}
    return metrics, spread


def _per_layer_metrics(
    spec, workload, samples, layer_samples, setup_layers, extra,
    import_cal, calib_first, calib_last, drift,
):
    traced_walls = [s.wall * s.factor for s in samples if s.traced]
    plain_walls = [s.wall * s.factor for s in samples if not s.traced]
    series: dict[str, list[float]] = {}
    for row in setup_layers + layer_samples:
        for name, value in row.items():
            series.setdefault(name, []).append(value)
    for name, value in extra.items():
        series.setdefault(name, []).append(value)
    series["cli.import_s"] = [import_cal]
    series["host.nproc"] = [float(len(os.sched_getaffinity(0)))]
    series["host.calib_ms"] = [(calib_first + calib_last) / 2]
    series["host.calib_drift_ratio"] = [drift]
    series["host.trace_overhead_ratio"] = [
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    ]
    unknown = sorted(set(series) - set(spec.per_layer))
    if unknown:
        raise RuntimeError(f"{workload}: unlisted per-layer metrics {unknown}")
    metrics, spread = {}, {}
    for name in spec.per_layer:
        unit = spec.unit(name)
        values = series.get(name)
        if not values:  # the workload bypasses this layer
            metrics[name] = {"value": 0.0, "unit": unit}
            continue
        scale = _UNIT_SCALE.get(unit, 1.0)
        p25, p50, p75 = quartiles([v * scale for v in values])
        metrics[name] = {"value": p50, "unit": unit}
        spread[name] = {"p25": p25, "p75": p75, "n": len(values)}
    return metrics, spread


def _write_trace(workload: str, tr: Tracer) -> None:
    """``workload → rep → …``: the first traced repetition's spans under
    a synthetic root, parents shifted to make room for it."""
    rep = tr.spans[0]
    spans = [["workload", rep[1], rep[2], None, 0]]
    for name, t0, t1, parent, op in tr.spans:
        spans.append([name, t0, t1, 0 if parent is None else parent + 1, op])
    OUT_DIR.mkdir(exist_ok=True)
    write_spans(OUT_DIR / f"trace-{workload}.jsonl", spans)


def _print_table(cls, detail, metrics, spread) -> None:
    kind = "per-layer (traced pass)" if detail["trace"] else "end-to-end"
    print(
        f"== {cls.name} seed={detail['seed']} {kind}"
        f"{' [smoke]' if detail['smoke'] else ''}"
        f"{' [NOISY: calibration drifted]' if detail['noisy'] else ''}"
    )
    print(f"   work unit: {cls.work_unit}; operation: {cls.op_name}")
    for name, metric in metrics.items():
        line = f"{name:36s} {metric['value']:14.6g} {metric['unit']:6s}"
        if name in spread:
            s = spread[name]
            line += f" p25={s['p25']:.6g} p75={s['p75']:.6g} n={s['n']}"
        print(line)
    if "raw" in detail:
        raw = detail["raw"]
        print(
            f"raw (uncalibrated) wall_s median {raw['wall_s']:.6g} over "
            f"{raw['repetitions']} repetitions; calibration "
            f"{detail['host']['calib_ms_first']:.3f} -> "
            f"{detail['host']['calib_ms_last']:.3f} ms"
        )
    for note in detail["notes"]:
        print(f"note: {note}")
