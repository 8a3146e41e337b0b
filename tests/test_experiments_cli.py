"""Tests for the repro-sched CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_parse(self):
        parser = build_parser()
        for argv in (
            ["fig2"], ["fig3"], ["fig4"], ["fig5"], ["fig6"], ["fig7"],
            ["fig8"], ["list"],
            ["run", "--scenario", "adversarial", "--scheduler", "fcfs"],
            ["matrix", "--scenarios", "adversarial", "--sizes", "10"],
            ["report", "--store", "runs.jsonl"],
        ):
            assert parser.parse_args(argv).command == argv[0]

    def test_run_walltime_flags_parse(self):
        args = build_parser().parse_args([
            "run", "--scenario", "adversarial", "--scheduler", "fcfs",
            "--enforce-walltime", "--max-decisions", "500",
        ])
        assert args.enforce_walltime is True
        assert args.max_decisions == 500

    def test_disruption_flags_parse(self):
        for cmd in (
            ["run", "--scenario", "drain_window", "--scheduler", "fcfs"],
            ["matrix", "--scenarios", "drain_window", "--sizes", "10"],
        ):
            args = build_parser().parse_args(cmd + [
                "--mtbf", "30000", "--mttr", "600",
                "--drain-every", "3600", "--drain-nodes", "32",
                "--restart-policy", "preempt-migrate",
                "--checkpoint-interval", "300",
                "--disruptions", "hostile",
            ])
            assert args.mtbf == 30000.0
            assert args.restart_policy == "preempt-migrate"
            assert args.checkpoint_interval == 300.0
            assert args.disruptions == "hostile"

    def test_bad_disruption_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([
                "run", "--scenario", "drain_window", "--scheduler",
                "fcfs", "--disruptions", "apocalypse",
            ])

    def test_checkpoint_policy_without_interval_is_friendly_error(
        self, capsys
    ):
        rc = main([
            "run", "--scenario", "drain_window", "--scheduler", "fcfs",
            "--mtbf", "30000", "--restart-policy", "checkpoint",
        ])
        assert rc == 2
        assert "--checkpoint-interval" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["run", "--scenario", "resource_sparse", "--scheduler",
         "ortools_like"],
        ["matrix", "--scenarios", "resource_sparse", "--sizes", "6"],
    ])
    def test_no_anneal_window_flag(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(command + ["--anneal-window", "4"])
        assert excinfo.value.code == 2
        assert "--anneal-window" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--mttr", "inf"], "mttr must be positive and finite"),
        (["--mttr", "nan"], "mttr must be positive and finite"),
        (["--restart-policy", "checkpoint", "--checkpoint-interval", "inf"],
         "--checkpoint-interval must be positive and finite"),
        (["--restart-policy", "checkpoint", "--checkpoint-interval", "nan"],
         "--checkpoint-interval must be positive and finite"),
    ])
    def test_non_finite_disruption_flag_is_friendly_error(
        self, flags, message, capsys
    ):
        rc = main([
            "run", "--scenario", "heterogeneous_mix", "--n-jobs", "10",
            "--scheduler", "fcfs", "--mtbf", "3600", *flags,
        ])
        assert rc == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_invalid_preset_override_is_friendly_error(self, capsys):
        rc = main([
            "matrix", "--scenarios", "drain_window", "--sizes", "8",
            "--schedulers", "fcfs", "--drain-every", "3600",
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestExecution:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "heterogeneous_mix" in out
        assert "claude-3.7-sim" in out
        assert "drain_window" in out
        assert "Disruption presets:" in out
        assert "hostile" in out

    def test_run_with_disruptions(self, capsys):
        assert main([
            "run", "--scenario", "drain_window", "--scheduler",
            "fcfs_backfill", "-n", "15",
            "--mtbf", "20000", "--mttr", "400",
            "--restart-policy", "checkpoint",
            "--checkpoint-interval", "300",
        ]) == 0
        out = capsys.readouterr().out
        assert "disruptions [" in out
        assert "policy=checkpoint" in out
        assert "goodput_nh" in out

    def test_run_with_correlated_failures(self, capsys):
        assert main([
            "run", "--scenario", "rack_storm", "--scheduler",
            "fcfs_backfill", "-n", "15",
            "--rack-size", "32", "--racks-per-switch", "4",
            "--rack-mtbf", "8000", "--mttr", "1000",
            "--restart-policy", "checkpoint",
            "--checkpoint-interval", "300",
        ]) == 0
        out = capsys.readouterr().out
        assert "rack_mtbf=8000" in out
        assert "blast radius [rack32x4]" in out

    def test_racks_per_switch_requires_rack_size(self, capsys):
        assert main([
            "run", "--scenario", "rack_storm", "--scheduler", "fcfs",
            "--racks-per-switch", "4",
        ]) == 2
        assert "--rack-size" in capsys.readouterr().err

    def test_correlation_without_rack_mtbf_is_friendly_error(self, capsys):
        assert main([
            "matrix", "--scenarios", "rack_storm", "--sizes", "10",
            "--correlation", "0.5",
        ]) == 2
        assert "--rack-mtbf" in capsys.readouterr().err

    def test_zero_racks_per_switch_is_friendly_error(self, capsys):
        assert main([
            "run", "--scenario", "rack_storm", "--scheduler", "fcfs",
            "--rack-size", "32", "--racks-per-switch", "0",
        ]) == 2
        assert "racks_per_switch" in capsys.readouterr().err

    def test_bad_rack_size_is_friendly_error(self, capsys):
        assert main([
            "run", "--scenario", "rack_storm", "--scheduler", "fcfs",
            "--rack-size", "1000",
        ]) == 2
        assert "rack_size" in capsys.readouterr().err

    def test_run_command(self, capsys):
        code = main([
            "run", "--scenario", "resource_sparse", "--scheduler", "sjf",
            "-n", "6",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "resource_sparse" in out
        assert "sjf" in out

    def test_run_llm_prints_overhead(self, capsys):
        code = main([
            "run", "--scenario", "resource_sparse",
            "--scheduler", "claude-3.7-sim", "-n", "5",
        ])
        assert code == 0
        assert "LLM overhead" in capsys.readouterr().out

    def test_fig2_prints_traces(self, capsys):
        assert main(["fig2", "--n-jobs", "8"]) == 0
        out = capsys.readouterr().out
        assert "# Thought" in out
        assert "# Action" in out

    def test_fig6_small(self, capsys):
        assert main(["fig6", "--sizes", "5", "8"]) == 0
        out = capsys.readouterr().out
        assert "o4-mini-sim" in out
        assert "elapsed_s" in out

    def test_run_with_enforce_walltime(self, capsys):
        code = main([
            "run", "--scenario", "resource_sparse", "--scheduler", "fcfs",
            "-n", "6", "--enforce-walltime", "--max-decisions", "5000",
        ])
        assert code == 0
        assert "resource_sparse" in capsys.readouterr().out

    def test_matrix_and_report(self, capsys, tmp_path):
        out = tmp_path / "runs.jsonl"
        code = main([
            "matrix", "--scenarios", "resource_sparse", "--sizes", "8",
            "--schedulers", "fcfs", "sjf", "--seeds", "0", "1",
            "--workers", "1", "--out", str(out),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "[4/4]" in text
        assert "normalized to FCFS" in text
        assert out.exists()

        # Resume over the same matrix: nothing left to execute.
        code = main([
            "matrix", "--scenarios", "resource_sparse", "--sizes", "8",
            "--schedulers", "fcfs", "sjf", "--seeds", "0", "1",
            "--workers", "2", "--out", str(out), "--resume",
        ])
        assert code == 0
        assert "resumed: 4 cells already" in capsys.readouterr().out

        code = main(["report", "--store", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "resource_sparse, 8 jobs, seed 0" in text
        assert "resource_sparse, 8 jobs, seed 1" in text

    def test_matrix_resume_requires_out(self, capsys):
        code = main([
            "matrix", "--scenarios", "resource_sparse", "--sizes", "6",
            "--schedulers", "fcfs", "--resume",
        ])
        assert code == 2
        assert "--resume requires --out" in capsys.readouterr().err

    def test_matrix_interrupt_reports_persisted_cells(
        self, capsys, tmp_path, monkeypatch
    ):
        out = tmp_path / "runs.jsonl"
        main([
            "matrix", "--scenarios", "resource_sparse", "--sizes", "8",
            "--schedulers", "fcfs", "--workers", "1", "--out", str(out),
        ])
        capsys.readouterr()

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.experiments.parallel.run_cells", interrupted)
        code = main([
            "matrix", "--scenarios", "resource_sparse", "--sizes", "8",
            "--schedulers", "fcfs", "sjf", "--workers", "1",
            "--out", str(out), "--resume",
        ])
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted — 1 cells persisted" in err
        assert "--resume" in err

    def test_matrix_report_scopes_to_requested_cells(self, capsys, tmp_path):
        out = tmp_path / "runs.jsonl"
        main([
            "matrix", "--scenarios", "adversarial", "--sizes", "8",
            "--schedulers", "fcfs", "--workers", "1", "--out", str(out),
        ])
        capsys.readouterr()
        # Second sweep shares the store file; its report covers only
        # its own matrix, not the earlier adversarial cells.
        main([
            "matrix", "--scenarios", "resource_sparse", "--sizes", "8",
            "--schedulers", "fcfs", "--workers", "1", "--out", str(out),
        ])
        text = capsys.readouterr().out
        assert "resource_sparse, 8 jobs" in text
        assert "adversarial" not in text

    def test_matrix_without_store(self, capsys):
        code = main([
            "matrix", "--scenarios", "resource_sparse", "--sizes", "6",
            "--schedulers", "fcfs", "--workers", "1",
        ])
        assert code == 0
        assert "normalized to FCFS" in capsys.readouterr().out

    def test_report_missing_store(self, tmp_path, capsys):
        code = main(["report", "--store", str(tmp_path / "none.jsonl")])
        assert code == 1
        assert "no runs" in capsys.readouterr().err

    def test_compare_command(self, capsys):
        code = main([
            "compare", "--scenario", "resource_sparse",
            "--a", "fcfs", "--b", "sjf", "-n", "6", "--seeds", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "paired" in out
        assert "makespan" in out


#: Every seed flag of every figure command.
_FIGURE_SEEDS = [
    ("fig2", "--seed"),
    *[
        (f"fig{n}", flag)
        for n in (3, 4, 5, 6)
        for flag in ("--seed", "--scheduler-seed")
    ],
    ("fig7", "--seed"),
    ("fig8", "--trace-seed"),
    ("fig8", "--scheduler-seed"),
]


def _must_not_run(*args, **kwargs):
    raise AssertionError("a usage error must be raised before any cell runs")


class TestBadNamesAndCounts:
    """An unknown scheduler or model profile, or a negative job count,
    is a usage error: exit 2, one ``error:`` line, no traceback,
    nothing simulated and no store written."""

    @pytest.mark.parametrize("argv,message", [
        (["--scheduler", "nope", "-n", "5"], "unknown scheduler 'nope'"),
        (["--scheduler", "fcfs", "-n", "-5"], "-n/--n-jobs must be >= 0"),
        (["--scheduler", "fcfs", "-n", "5", "--seed", "-1"],
         "workload_seed must be >= 0"),
        (["--scheduler", "ortools_like", "-n", "5", "--scheduler-seed", "-1"],
         "scheduler_seed must be >= 0"),
    ])
    def test_run(self, argv, message, capsys, monkeypatch):
        monkeypatch.setattr("repro.experiments.cli.run_single", _must_not_run)
        code = main(["run", "--scenario", "adversarial", *argv])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,message", [
        (["--a", "fcfs", "--b", "nope"], "unknown scheduler 'nope'"),
        (["--a", "nope", "--b", "sjf"], "unknown scheduler 'nope'"),
        (["--a", "fcfs", "--b", "sjf", "-n", "-1"], "-n/--n-jobs must be >= 0"),
        (["--a", "fcfs", "--b", "sjf", "--seeds", "0"], "--seeds must be >= 2"),
        (["--a", "fcfs", "--b", "sjf", "--seeds", "1"], "--seeds must be >= 2"),
    ])
    def test_compare(self, argv, message, capsys, monkeypatch):
        monkeypatch.setattr(
            "repro.analysis.significance.compare_schedulers", _must_not_run
        )
        code = main(["compare", "--scenario", "adversarial", *argv])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,message", [
        (["--sizes", "6", "--schedulers", "fcfs", "nope"],
         "unknown scheduler 'nope'"),
        (["--sizes", "6", "-3", "--schedulers", "fcfs"],
         "--sizes must be >= 0"),
        (["--sizes", "6", "--schedulers", "fcfs", "--seeds", "-1"],
         "workload_seed must be >= 0"),
    ])
    def test_matrix(self, argv, message, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(
            "repro.experiments.parallel.run_matrix_parallel", _must_not_run
        )
        monkeypatch.setattr("repro.experiments.parallel.run_cells", _must_not_run)
        for out in (tmp_path / "runs.jsonl", tmp_path / "shards"):
            code = main([
                "matrix", "--scenarios", "adversarial", *argv,
                "--workers", "1", "--out", str(out),
            ])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {message}")
            assert "Traceback" not in err
            assert not out.exists()

    def test_serve_negative_cache_size(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("repro.service.server.run_server", _must_not_run)
        code = main([
            "serve", "--socket", str(tmp_path / "d.sock"),
            "--cache-size", "-1",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --cache-size must be >= 0")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,figure,message", [
        (["fig2", "--model", "nope", "--n-jobs", "3"], "figure2",
         "unknown model profile 'nope'; available: claude-3.7-sim"),
        (["fig2", "--n-jobs", "-3"], "figure2", "--n-jobs must be >= 0"),
        (["fig3", "--n-jobs", "-1"], "figure3", "--n-jobs must be >= 0"),
        (["fig4", "--sizes", "5", "-2"], "figure4", "--sizes must be >= 0"),
        (["fig5", "--n-jobs", "-3"], "figure5", "--n-jobs must be >= 0"),
        (["fig6", "--sizes", "-2"], "figure6", "--sizes must be >= 0"),
        (["fig7", "--n-jobs", "-1"], "figure7", "--n-jobs must be >= 0"),
        (["fig7", "--repeats", "0"], "figure7", "--repeats must be >= 1"),
        (["fig8", "--n-jobs", "-1"], "figure8", "--n-jobs must be >= 0"),
        *[
            ([command, flag, "-1"], f"figure{command[3:]}",
             f"{flag} must be >= 0")
            for command, flag in _FIGURE_SEEDS
        ],
    ], ids=[
        "fig2-model", "fig2-n", "fig3-n", "fig4-sizes", "fig5-n",
        "fig6-sizes", "fig7-n", "fig7-repeats", "fig8-n",
        *[f"{command}{flag}" for command, flag in _FIGURE_SEEDS],
    ])
    def test_figures(self, argv, figure, message, capsys, monkeypatch):
        monkeypatch.setattr(
            f"repro.experiments.figures.{figure}", _must_not_run
        )
        code = main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_entry_point_prints_one_line(self):
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.experiments.cli", "run",
                "--scenario", "adversarial", "--scheduler", "nope",
            ],
            capture_output=True,
            text=True,
            env={
                **os.environ,
                "PYTHONPATH": str(Path(repro.__file__).parents[1]),
            },
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: unknown scheduler 'nope'")
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1


class TestClosedStdout:
    """A reader that stops early (``report | head -1``) ends the
    command quietly: no traceback, exit status 141 (128 + SIGPIPE)."""

    def test_report_into_a_reader_that_closes_after_one_line(self, tmp_path):
        import dataclasses

        from repro.experiments.runner import run_single
        from repro.experiments.store import RunStore, StoredRun

        store = RunStore(tmp_path / "runs.jsonl")
        runs = [
            StoredRun.from_run(run_single("adversarial", 2, name))
            for name in ("fcfs", "sjf")
        ]
        # One block per workload seed: a report far beyond the 64 KiB
        # a pipe buffers, so the writer is still writing at the close.
        for seed in range(600):
            for run in runs:
                store.append(dataclasses.replace(run, workload_seed=seed))
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.experiments.cli", "report",
                "--store", str(store.path),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={
                **os.environ,
                "PYTHONPATH": str(Path(repro.__file__).parents[1]),
            },
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 141
        assert first.startswith(b"== adversarial, 2 jobs")
        assert "Traceback" not in err
        assert "BrokenPipeError" not in err
        proc.stderr.close()


class TestFaultToleranceFlags:
    MATRIX = [
        "matrix", "--scenarios", "resource_sparse", "--sizes", "6",
        "--schedulers", "fcfs", "--workers", "1",
    ]

    def test_fault_flags_parse_with_defaults(self):
        args = build_parser().parse_args(
            ["matrix", "--scenarios", "adversarial", "--sizes", "10"]
        )
        assert args.cell_timeout is None
        assert args.max_retries == 2
        assert args.retry_backoff is None
        assert args.on_cell_failure == "abort"

    def test_bad_on_cell_failure_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                self.MATRIX + ["--on-cell-failure", "explode"]
            )

    def test_nonpositive_cell_timeout_is_friendly_error(self, capsys):
        rc = main(self.MATRIX + ["--workers", "2", "--cell-timeout", "0"])
        assert rc == 2
        assert "--cell-timeout" in capsys.readouterr().err

    def test_cell_timeout_is_honoured_at_one_worker(self, tmp_path, capsys):
        # A process cannot preempt itself, so a sweep with a watchdog
        # gets a worker process even at --workers 1.
        from tests.tooling import faults as faultinject

        faultinject.install(
            faultinject.FaultPlan(
                rules=(faultinject.FaultRule(kind="hang", hang_s=30.0),)
            )
        )
        try:
            rc = main(self.MATRIX + [
                "--cell-timeout", "1", "--max-retries", "0",
                "--on-cell-failure", "quarantine",
                "--out", str(tmp_path / "runs.jsonl"),
            ])
        finally:
            faultinject.install(None)
        err = capsys.readouterr().err
        assert rc == 3
        assert "TimeoutError" in err and "--cell-timeout (1s)" in err

    def test_negative_max_retries_is_friendly_error(self, capsys):
        rc = main(self.MATRIX + ["--max-retries", "-1"])
        assert rc == 2
        assert "--max-retries" in capsys.readouterr().err

    def test_negative_retry_backoff_is_friendly_error(self, capsys):
        rc = main(self.MATRIX + ["--retry-backoff", "-0.5"])
        assert rc == 2
        assert "--retry-backoff" in capsys.readouterr().err


class TestStoreDoctorCommand:
    def test_missing_store_exits_two(self, tmp_path, capsys):
        rc = main(["store", "doctor", str(tmp_path / "none.jsonl")])
        assert rc == 2
        assert "no store" in capsys.readouterr().err

    def test_healthy_store_exits_zero(self, tmp_path, capsys):
        store_path = tmp_path / "runs.jsonl"
        assert main([
            "matrix", "--scenarios", "resource_sparse", "--sizes", "6",
            "--schedulers", "fcfs", "--workers", "1",
            "--out", str(store_path),
        ]) == 0
        capsys.readouterr()
        rc = main(["store", "doctor", str(store_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "healthy" in out

    def test_corrupt_store_dry_run_then_repair(self, tmp_path, capsys):
        from repro.experiments.store import RunStore

        store_path = tmp_path / "runs.jsonl"
        assert main([
            "matrix", "--scenarios", "resource_sparse", "--sizes", "6",
            "--schedulers", "fcfs", "sjf", "--workers", "1",
            "--out", str(store_path),
        ]) == 0
        with store_path.open("a") as fh:
            fh.write("garbage line\n")
        capsys.readouterr()

        rc = main(["store", "doctor", str(store_path), "--dry-run"])
        assert rc == 1
        assert "would move" in capsys.readouterr().out
        # Dry run left the corruption in place.
        with pytest.raises(ValueError):
            RunStore(store_path).load()

        rc = main(["store", "doctor", str(store_path)])
        assert rc == 1
        assert "moved 1 unparseable line(s)" in capsys.readouterr().out
        assert len(RunStore(store_path).load()) == 2
        quarantine = store_path.with_name("runs.jsonl.quarantine")
        assert quarantine.read_text() == "L3\tgarbage line\n"

        # A second doctor pass finds nothing left to fix.
        rc = main(["store", "doctor", str(store_path)])
        assert rc == 0


class TestFigureCommands:
    """fig3–fig8 handlers route args into the right figure builder and
    renderer. The figure functions themselves are exercised by
    test_experiments_figures.py; here they are stubbed so each CLI
    path stays cheap."""

    @pytest.mark.parametrize(
        "argv, fig_name, render_name",
        [
            (["fig3"], "figure3", "render_figure3"),
            (["fig4", "--sizes", "10", "20"], "figure4", "render_figure4"),
            (["fig5"], "figure5", "render_overhead_table"),
            (["fig6", "--sizes", "10"], "figure6", "render_overhead_table"),
            (["fig7", "--repeats", "2"], "figure7", "render_figure7"),
            (["fig8", "--trace-seed", "7"], "figure8", "render_figure8"),
        ],
    )
    def test_fig_routes_data_to_renderer(
        self, monkeypatch, capsys, argv, fig_name, render_name
    ):
        from repro.experiments import cli, figures

        sentinel = object()
        seen = {}

        def fake_fig(**kwargs):
            seen["fig_kwargs"] = kwargs
            return sentinel

        def fake_render(data, **kwargs):
            assert data is sentinel
            seen["render_kwargs"] = kwargs
            return f"[{render_name} output]"

        monkeypatch.setattr(figures, fig_name, fake_fig)
        monkeypatch.setattr(cli.report, render_name, fake_render)
        assert main(argv) == 0
        assert f"[{render_name} output]" in capsys.readouterr().out
        # Every handler forwards the workload seed.
        assert "workload_seed" in seen["fig_kwargs"] or (
            "trace_seed" in seen["fig_kwargs"]
        )

    def test_fig8_zero_jobs_prints_its_table(self, capsys):
        assert main(["fig8", "--n-jobs", "0"]) == 0
        assert "Figure 8" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, title", [
        (["fig3", "--n-jobs", "4"], "Figure 3 — adversarial, 4 jobs"),
        (["fig5", "--n-jobs", "4"], "Figure 5 — overhead per scenario (4 jobs)"),
        (
            ["fig7", "--n-jobs", "6", "--repeats", "2"],
            "Figure 7 — Heterogeneous Mix, 6 jobs × 2 repetitions",
        ),
        (["fig8", "--n-jobs", "0"], "Figure 8 — Polaris trace, 0 jobs"),
    ])
    def test_titles_name_the_counts_that_ran(self, capsys, argv, title):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert title in out
        assert "60 jobs" not in out and "100 jobs" not in out

    def test_fig5_and_fig6_label_their_tables(self, monkeypatch, capsys):
        from repro.experiments import cli, figures

        labels = []
        monkeypatch.setattr(
            figures, "figure5", lambda **kw: {"f5": 1}
        )
        monkeypatch.setattr(
            figures, "figure6", lambda **kw: {"f6": 1}
        )
        monkeypatch.setattr(
            cli.report,
            "render_overhead_table",
            lambda data, key_label, title: (
                labels.append((key_label, title)) or "table"
            ),
        )
        assert main(["fig5"]) == 0
        assert main(["fig6"]) == 0
        capsys.readouterr()
        assert labels[0][0] == "scenario"
        assert "Figure 5" in labels[0][1]
        assert labels[1][0] == "n_jobs"
        assert "Figure 6" in labels[1][1]


class TestDisruptionSpecFlags:
    """_build_disruption_spec folds every override flag into the spec."""

    def _spec(self, extra):
        from repro.experiments.cli import _build_disruption_spec

        args = build_parser().parse_args(
            ["matrix", "--scenarios", "adversarial", "--sizes", "10"]
            + extra
        )
        return _build_disruption_spec(args)

    def test_every_override_flag_lands_in_spec(self):
        spec = self._spec([
            "--mtbf", "5000", "--mttr", "600",
            "--failure-model", "weibull",
            "--drain-every", "4000", "--drain-nodes", "2",
            "--drain-duration", "1200", "--drain-lead", "300",
            "--drain-first", "100",
            "--rack-mtbf", "9000", "--correlation", "0.5",
            "--correlation-level", "switch",
            "--disruption-seed", "7",
        ])
        assert spec.mtbf == 5000
        assert spec.mttr == 600
        assert spec.failure_model == "weibull"
        assert spec.drain_every == 4000
        assert spec.drain_nodes == 2
        assert spec.drain_duration == 1200
        assert spec.drain_lead == 300
        assert spec.drain_first == 100
        assert spec.rack_mtbf == 9000
        assert spec.correlation == 0.5
        assert spec.correlation_level == "switch"
        assert spec.seed == 7

    def test_checkpoint_interval_must_be_positive(self):
        from repro.experiments.cli import UsageError

        with pytest.raises(UsageError, match="must be positive"):
            self._spec([
                "--restart-policy", "checkpoint",
                "--checkpoint-interval", "0",
            ])

    def test_invalid_override_reported_as_friendly_error(self):
        # The spec's own validation (mtbf > 0) surfaces as a
        # UsageError, not a bare dataclasses traceback.
        from repro.experiments.cli import UsageError

        with pytest.raises(UsageError, match="mtbf must be positive"):
            self._spec(["--mtbf", "-5"])


class TestMatrixInterruptNoStore:
    def test_interrupt_without_out_reports_nothing_persisted(
        self, monkeypatch, capsys
    ):
        from repro.experiments import parallel

        def boom(*args, **kwargs):
            raise KeyboardInterrupt("mid-sweep")

        monkeypatch.setattr(parallel, "run_cells", boom)
        rc = main([
            "matrix", "--scenarios", "adversarial", "--sizes", "10",
            "--schedulers", "fcfs",
        ])
        assert rc == 130
        err = capsys.readouterr().err
        assert "interrupted (mid-sweep)" in err
        assert "nothing persisted" in err


class TestRetiredOptions:
    """The second benchmark, the twin-selector flag, the figure seed
    flags no driver read and the store-layout flags are gone from the
    parser, not silently accepted."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench"],
            ["run", "--scenario", "adversarial", "-n", "8", "--engine", "soa"],
            [
                "matrix", "--scenarios", "adversarial", "--sizes", "8",
                "--engine", "object",
            ],
            # Seed flags a figure's driver never read.
            ["fig2", "--scheduler-seed", "1"],
            ["fig7", "--scheduler-seed", "1"],
            ["fig8", "--seed", "1"],
            # The path names a store's layout; no flag chooses it.
            [
                "matrix", "--scenarios", "adversarial", "--sizes", "8",
                "--out", "runs", "--store-format", "sharded",
            ],
            [
                "matrix", "--scenarios", "adversarial", "--sizes", "8",
                "--out", "runs", "--shards", "8",
            ],
            ["serve", "--socket", "d.sock", "--store-format", "jsonl"],
            ["store", "migrate", "a", "b", "--shards", "8"],
        ],
        ids=[
            "bench", "run-engine", "matrix-engine",
            "fig2-scheduler-seed", "fig7-scheduler-seed", "fig8-seed",
            "matrix-store-format", "matrix-shards", "serve-store-format",
            "migrate-shards",
        ],
    )
    def test_argparse_rejects(self, argv, capsys, monkeypatch, tmp_path):
        # Were a row accepted, it must neither serve nor write here.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("repro.service.server.run_server", _must_not_run)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
