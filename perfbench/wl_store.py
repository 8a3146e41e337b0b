"""``store_archive``: the run store in both layouts, no simulator.

Set-up seeds an archive of synthetic ``StoredRun`` lines in the jsonl
layout and migrates it to the sharded one. Every repetition starts from a
fresh copy (``prepare``), so the archive does not grow from repetition to
repetition, and then does what users of ``matrix --resume``, ``report
--where`` and ``store migrate`` do: appends, cold fully-pinned queries on
fresh store objects, ``load``, ``completed_keys``, ``store_digest`` and a
migrate round trip. Writes sit beside reads so that a read-side gain that
costs appends, or the reverse, shows.

Every ``append`` ends in an ``fsync``, so its time is the disk's, which
the calibration loop does not follow: in the sizing runs the appends of a
repetition spread 35 % where the reads spread 10 %. The body therefore
holds few appends (a tenth of its time) and the throughput counts every
stored run read or written, not the appends alone.
"""

from __future__ import annotations

import shutil
from time import perf_counter

import numpy as np

from repro.experiments.runner import DEFAULT_SCHEDULERS
from repro.experiments.storage import (
    migrate_to_jsonl, migrate_to_sharded, open_store, store_digest,
)
from repro.experiments.store import WHERE_FIELDS, StoredRun
from repro.metrics.objectives import METRIC_NAMES
from repro.workloads.scenarios import PAPER_SCENARIOS

from perfbench.harness import Checks, Rep, Workload

LAYOUTS = ("jsonl", "sharded")


class StoreArchive(Workload):
    name = "store_archive"
    work_unit = "stored runs read or written, both layouts"
    op_name = ("one cold fully-pinned iter_runs(where) on a fresh store "
               "object, the mean over both layouts")

    def synthetic(self, index: int) -> StoredRun:
        """Run *index* of the archive: distinct key, seeded metrics."""
        rng = np.random.default_rng((self.seed, index))
        return StoredRun(
            scenario=PAPER_SCENARIOS[index % len(PAPER_SCENARIOS)],
            n_jobs=(10, 20, 40, 60)[index % 4],
            scheduler=DEFAULT_SCHEDULERS[index % len(DEFAULT_SCHEDULERS)],
            workload_seed=index,
            scheduler_seed=self.seed,
            metrics={m: float(rng.random()) for m in METRIC_NAMES},
            decision_summary={
                "n_decisions": index % 97, "n_accepted": index % 89,
                "n_rejected": index % 7, "by_kind": {"start_job": index % 89},
            },
        )

    def path(self, where, layout: str):
        return where / ("runs.jsonl" if layout == "jsonl" else "runs.sharded")

    def setup(self) -> dict[str, float]:
        self.n_seeded, self.n_appends, self.n_probes = (
            (60, 5, 2) if self.smoke else (1200, 12, 5)
        )
        self.seeded = self.tmp / "seeded"
        self.seeded.mkdir()
        jsonl = self.path(self.seeded, "jsonl")
        with open(jsonl, "w", encoding="utf-8") as fh:
            for i in range(self.n_seeded):
                fh.write(self.synthetic(i).to_json() + "\n")
        migrate_to_sharded(jsonl, self.path(self.seeded, "sharded"))
        self.bytes_per_run = jsonl.stat().st_size / self.n_seeded
        self.appended = [
            self.synthetic(self.n_seeded + i) for i in range(self.n_appends)
        ]
        self.probed = [
            self.synthetic((i * 37) % self.n_seeded)
            for i in range(self.n_probes)
        ]
        self.work = self.tmp / "work"
        return {}

    def prepare(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        shutil.copytree(self.seeded, self.work)

    def body(self, tr) -> Rep:
        t: dict[str, float] = {}
        bad_probes = 0
        for layout in LAYOUTS:
            store = open_store(self.path(self.work, layout))
            with tr.span("store.append"):
                t0 = perf_counter()
                for run in self.appended:
                    store.append(run)
                t[f"{layout}.append"] = perf_counter() - t0
        for layout in LAYOUTS:
            probe_s = 0.0
            for wanted in self.probed:
                where = {f: getattr(wanted, f) for f in WHERE_FIELDS}
                with tr.span("store.query"):
                    t0 = perf_counter()
                    fresh = open_store(self.path(self.work, layout))
                    found = list(fresh.iter_runs(where))
                    probe_s += perf_counter() - t0
                bad_probes += found != [wanted]
            t[f"{layout}.query"] = probe_s / self.n_probes
        digests = {}
        for layout in LAYOUTS:
            path = self.path(self.work, layout)
            with tr.span("store.load"):
                t0 = perf_counter()
                n_loaded = len(open_store(path).load())
                t[f"{layout}.load"] = perf_counter() - t0
            with tr.span("store.completed_keys"):
                t0 = perf_counter()
                n_keys = len(open_store(path).completed_keys())
                t[f"{layout}.keys"] = perf_counter() - t0
            with tr.span("store.digest"):
                t0 = perf_counter()
                digests[layout] = store_digest(open_store(path))
                t[f"{layout}.digest"] = perf_counter() - t0
            bad_probes += n_loaded != n_keys
        with tr.span("store.migrate"):
            t0 = perf_counter()
            migrate_to_sharded(self.path(self.work, "jsonl"),
                               self.work / "there.sharded")
            t["to_sharded"] = perf_counter() - t0
            t0 = perf_counter()
            migrate_to_jsonl(self.work / "there.sharded",
                             self.work / "back.jsonl")
            t["to_jsonl"] = perf_counter() - t0
        n_single = 2 * (self.n_appends + self.n_probes)
        # load, completed_keys and store_digest per layout and the two
        # migrations each go over the whole archive once.
        return Rep(
            work=n_single + 8 * n_keys,
            op_s=(t["jsonl.query"] + t["sharded.query"]) / 2,
            attempted=n_single + 8,
            failed=bad_probes,
            outputs={"t": t, "digests": digests, "n_keys": n_keys},
        )

    def check(self, rep: Rep, checks: Checks) -> None:
        out = rep.outputs
        checks.ok(out["n_keys"] == self.n_seeded + self.n_appends,
                  "archive holds the seeded and the appended runs")
        checks.ok(out["digests"]["jsonl"] == out["digests"]["sharded"],
                  "store_digest is equal across layouts")
        original = self.path(self.work, "jsonl").read_bytes()
        checks.ok((self.work / "back.jsonl").read_bytes() == original,
                  "migrate round trip is byte-identical")
        self.record(checks, {"archive": out["digests"]["jsonl"]}, {})

    def layers(self, tr, rep: Rep) -> dict[str, float]:
        if not tr.enabled:
            return {}
        t = rep.outputs["t"]
        layers = {
            "store.digest_s": t["jsonl.digest"] + t["sharded.digest"],
            "store.migrate_to_sharded_s": t["to_sharded"],
            "store.migrate_to_jsonl_s": t["to_jsonl"],
            "store.bytes_per_run": self.bytes_per_run,
            "host.trace_coverage_ratio": tr.coverage(0),
        }
        for layout in LAYOUTS:
            layers.update({
                f"store.{layout}.append_us": t[f"{layout}.append"] / self.n_appends,
                f"store.{layout}.query_cold_ms": t[f"{layout}.query"],
                f"store.{layout}.load_s": t[f"{layout}.load"],
                f"store.{layout}.completed_keys_s": t[f"{layout}.keys"],
            })
        return layers
