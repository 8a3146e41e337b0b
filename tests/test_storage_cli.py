"""CLI surface of the storage redesign: ``matrix --store-format``,
``store migrate``/``digest``, sharded ``store doctor``, and
``report --where``."""

import json

import pytest

from repro.experiments.cli import build_parser, main
from repro.experiments.storage import MANIFEST_NAME, ShardedStore, shard_name

MATRIX = [
    "matrix", "--scenarios", "adversarial", "--sizes", "6",
    "--schedulers", "fcfs", "sjf",
]


class TestParser:
    def test_store_format_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(MATRIX + [
            "--out", "x.store", "--store-format", "sharded",
            "--shards", "8",
        ])
        assert args.store_format == "sharded"
        assert args.shards == 8

    def test_store_subcommands_parse(self):
        parser = build_parser()
        assert parser.parse_args(
            ["store", "migrate", "a.jsonl", "b.store"]
        ).store_command == "migrate"
        assert parser.parse_args(
            ["store", "digest", "a.jsonl"]
        ).store_command == "digest"

    def test_report_where_parses(self):
        args = build_parser().parse_args([
            "report", "--store", "x.jsonl",
            "--where", "scenario=adversarial", "--where", "n_jobs=6",
        ])
        assert args.where == ["scenario=adversarial", "n_jobs=6"]


class TestMatrixStoreFormat:
    def test_sharded_sweep_and_digest_identity(self, tmp_path, capsys):
        assert main(MATRIX + [
            "--out", str(tmp_path / "runs.store"),
            "--store-format", "sharded", "--shards", "4",
            "--workers", "4",
        ]) == 0
        assert main(MATRIX + [
            "--out", str(tmp_path / "ref.jsonl"),
        ]) == 0
        capsys.readouterr()
        assert main(
            ["store", "digest", str(tmp_path / "runs.store")]
        ) == 0
        sharded_digest = capsys.readouterr().out.strip()
        assert main(
            ["store", "digest", str(tmp_path / "ref.jsonl")]
        ) == 0
        assert capsys.readouterr().out.strip() == sharded_digest

    def test_shards_without_sharded_format_rejected(self, tmp_path):
        assert main(MATRIX + [
            "--out", str(tmp_path / "runs.jsonl"), "--shards", "4",
        ]) == 2

    def test_format_mismatch_rejected(self, tmp_path, capsys):
        assert main(MATRIX + [
            "--out", str(tmp_path / "ref.jsonl"),
        ]) == 0
        assert main(MATRIX + [
            "--out", str(tmp_path / "ref.jsonl"),
            "--store-format", "sharded",
        ]) == 2
        assert "migrate" in capsys.readouterr().err


class TestStoreMigrateCLI:
    def _sweep(self, tmp_path):
        assert main(MATRIX + [
            "--out", str(tmp_path / "runs.jsonl"),
        ]) == 0
        return tmp_path / "runs.jsonl"

    def test_round_trip_byte_identical(self, tmp_path, capsys):
        src = self._sweep(tmp_path)
        assert main([
            "store", "migrate", str(src), str(tmp_path / "runs.store"),
            "--shards", "4",
        ]) == 0
        assert "jsonl->sharded" in capsys.readouterr().out
        assert main([
            "store", "migrate", str(tmp_path / "runs.store"),
            str(tmp_path / "back.jsonl"),
        ]) == 0
        assert "sharded->jsonl" in capsys.readouterr().out
        assert (
            (tmp_path / "back.jsonl").read_bytes() == src.read_bytes()
        )

    def test_shards_flag_rejected_on_sharded_source(self, tmp_path):
        src = self._sweep(tmp_path)
        assert main([
            "store", "migrate", str(src), str(tmp_path / "runs.store"),
        ]) == 0
        assert main([
            "store", "migrate", str(tmp_path / "runs.store"),
            str(tmp_path / "back.jsonl"), "--shards", "4",
        ]) == 2

    def test_existing_dest_rejected(self, tmp_path, capsys):
        src = self._sweep(tmp_path)
        assert main([
            "store", "migrate", str(src), str(src),
        ]) == 2
        assert "exists" in capsys.readouterr().err


class TestStoreDoctorSharded:
    def test_healthy_exit_zero(self, tmp_path, capsys):
        assert main(MATRIX + [
            "--out", str(tmp_path / "runs.store"),
            "--store-format", "sharded", "--shards", "2",
        ]) == 0
        assert main(["store", "doctor", str(tmp_path / "runs.store")]) == 0
        assert "healthy" in capsys.readouterr().out

    def test_corrupt_shard_exit_one_and_repairs(self, tmp_path, capsys):
        assert main(MATRIX + [
            "--out", str(tmp_path / "runs.store"),
            "--store-format", "sharded", "--shards", "2",
        ]) == 0
        shard = tmp_path / "runs.store" / shard_name(0)
        shard.write_text("{garbage\n" + shard.read_text())
        assert main(["store", "doctor", str(tmp_path / "runs.store")]) == 1
        capsys.readouterr()
        # Second pass: the rewrite removed the corruption.
        assert main(["store", "doctor", str(tmp_path / "runs.store")]) == 0

    def test_lost_manifest_repaired(self, tmp_path, capsys):
        assert main(MATRIX + [
            "--out", str(tmp_path / "runs.store"),
            "--store-format", "sharded", "--shards", "2",
        ]) == 0
        (tmp_path / "runs.store" / MANIFEST_NAME).unlink()
        assert main(["store", "doctor", str(tmp_path / "runs.store")]) == 1
        assert (tmp_path / "runs.store" / MANIFEST_NAME).exists()

    def test_garbled_manifest_is_doctors_to_rebuild(self, tmp_path, capsys):
        """Every other command refuses a garbled manifest and points at
        ``store doctor``; doctor itself opens the store anyway, infers
        the shard count from the shard files and rebuilds it."""
        path = tmp_path / "runs.store"
        assert main(MATRIX + [
            "--out", str(path), "--store-format", "sharded", "--shards", "2",
        ]) == 0
        capsys.readouterr()
        assert main(["store", "digest", str(path)]) == 0
        digest = capsys.readouterr().out
        good = (path / MANIFEST_NAME).read_text()
        for garbled in ("{oops", json.dumps({"format": "something-else"})):
            (path / MANIFEST_NAME).write_text(garbled)
            for refused in (["store", "digest", str(path)],
                            ["report", "--store", str(path)]):
                assert main(refused) == 2
                assert "store doctor" in capsys.readouterr().err
            assert main(["store", "doctor", "--dry-run", str(path)]) == 1
            assert (path / MANIFEST_NAME).read_text() == garbled
            assert main(["store", "doctor", str(path)]) == 1
            assert "rebuilt" in capsys.readouterr().out
            assert (path / MANIFEST_NAME).read_text() == good
            assert main(["store", "doctor", str(path)]) == 0
            capsys.readouterr()
            assert main(["store", "digest", str(path)]) == 0
            assert capsys.readouterr().out == digest

    def test_newer_manifest_is_not_rebuilt(self, tmp_path, capsys):
        """A manifest written by newer code is not garbled: doctor
        refuses it like everyone else instead of downgrading it."""
        store = ShardedStore(tmp_path / "runs.store", n_shards=2)
        store.ensure_initialized()
        payload = json.loads(store.manifest_path.read_text())
        payload["manifest_version"] += 1
        store.manifest_path.write_text(json.dumps(payload))
        assert main(["store", "doctor", str(store.path)]) == 2
        assert "upgrade" in capsys.readouterr().err
        assert json.loads(store.manifest_path.read_text()) == payload

    def test_missing_store_exit_two(self, tmp_path):
        assert main(["store", "doctor", str(tmp_path / "nope")]) == 2


class TestReportWhere:
    @pytest.fixture()
    def archive(self, tmp_path):
        path = tmp_path / "runs.store"
        assert main(MATRIX + [
            "--out", str(path), "--store-format", "sharded",
            "--shards", "2", "--seeds", "0", "1",
        ]) == 0
        return path

    def test_filtered_report(self, archive, capsys):
        capsys.readouterr()
        assert main([
            "report", "--store", str(archive),
            "--where", "workload_seed=1",
        ]) == 0
        out = capsys.readouterr().out
        assert "filtered: workload_seed=1" in out
        assert "seed 1" in out
        assert "seed 0" not in out

    def test_unknown_field_exit_two(self, archive, capsys):
        assert main([
            "report", "--store", str(archive), "--where", "bogus=1",
        ]) == 2
        assert "queryable fields" in capsys.readouterr().err

    def test_malformed_where_exit_two(self, archive):
        assert main([
            "report", "--store", str(archive), "--where", "nosign",
        ]) == 2

    def test_empty_result_exit_one(self, archive, capsys):
        assert main([
            "report", "--store", str(archive),
            "--where", "scenario=resource_sparse",
        ]) == 1
        assert "no runs" in capsys.readouterr().err


class TestSweepReadsBackThroughIterRuns:
    def test_resume_report_includes_prior_cells(self, tmp_path, capsys):
        """A resumed matrix prints the full table, reading the already
        -complete cells back through the keyed query API."""
        out = str(tmp_path / "runs.store")
        assert main(MATRIX + [
            "--out", out, "--store-format", "sharded", "--shards", "2",
        ]) == 0
        capsys.readouterr()
        assert main(MATRIX + [
            "--out", out, "--store-format", "sharded", "--resume",
        ]) == 0
        assert "sjf" in capsys.readouterr().out
