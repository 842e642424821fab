"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import build_parser, main
from repro.runtime import RunSpec, WorkloadSpec


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["solve-single"])
        assert args.policy == "approx_star"
        assert args.slots == 100
        assert args.k == 3

    def test_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve-single", "--policy", "magic"])

    def test_multi_options(self):
        args = build_parser().parse_args(
            ["solve-multi", "--tasks", "5", "--objective", "min", "--cores", "4"]
        )
        assert (args.tasks, args.objective, args.cores) == (5, "min", 4)

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.index_mode == "incremental"
        assert args.task_rate == 0.15
        assert args.epoch == 5.0
        assert args.seed == 7

    def test_simulate_rejects_unknown_index_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--index-mode", "magic"])

    def test_backend_flag(self):
        args = build_parser().parse_args(["solve-single", "--backend", "numpy"])
        assert args.backend == "numpy"

    def test_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve-single", "--backend", "fortran"])

    def test_bench_perf_options(self):
        args = build_parser().parse_args(["bench-perf", "--smoke"])
        assert args.smoke is True
        assert args.results_dir is None

    def test_bench_shard_options(self):
        args = build_parser().parse_args(["bench-shard"])
        assert args.smoke is False
        assert args.backend == "python"
        args = build_parser().parse_args(
            ["bench-shard", "--smoke", "--backend", "numpy"]
        )
        assert (args.smoke, args.backend) == (True, "numpy")

    def test_simulate_shard_flags(self):
        args = build_parser().parse_args(["simulate"])
        assert args.shards == 1
        assert args.halo == "auto"
        args = build_parser().parse_args(
            ["simulate", "--shards", "4", "--halo", "12.5"]
        )
        assert args.shards == 4
        assert args.halo == 12.5

    def test_simulate_rejects_bad_halo(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--halo", "magic"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--halo", "-3"])

    def test_simulate_rejects_bad_shard_count(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--shards", "0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--shards", "-2"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--shards", "many"])

    def test_run_options(self):
        args = build_parser().parse_args(["run"])
        assert args.spec is None
        assert args.mode is None
        assert args.print_spec is False
        args = build_parser().parse_args(
            ["run", "--spec", "s.json", "--mode", "stream", "--shards", "2",
             "--backend", "numpy", "--print-spec"]
        )
        assert (args.spec, args.mode, args.shards, args.backend) == (
            "s.json", "stream", 2, "numpy"
        )
        assert args.print_spec

    def test_matrix_options(self):
        args = build_parser().parse_args(["matrix", "--smoke"])
        assert args.smoke is True
        assert args.results_dir is None


class TestCommands:
    def test_solve_single(self, capsys):
        code = main(["solve-single", "--slots", "30", "--workers", "120", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "quality" in out
        assert "assigned" in out

    def test_solve_single_random_policy(self, capsys):
        code = main(
            ["solve-single", "--slots", "30", "--workers", "120", "--policy", "random"]
        )
        assert code == 0
        assert "policy=random" in capsys.readouterr().out

    def test_solve_multi_sum(self, capsys):
        code = main(
            ["solve-multi", "--tasks", "4", "--slots", "20", "--workers", "120"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "qsum" in out

    def test_solve_multi_min_with_cores(self, capsys):
        code = main(
            [
                "solve-multi", "--tasks", "4", "--slots", "20", "--workers", "120",
                "--objective", "min",
            ]
        )
        assert code == 0
        assert "qmin" in capsys.readouterr().out

    def test_solve_multi_parallel(self, capsys):
        code = main(
            ["solve-multi", "--tasks", "4", "--slots", "20", "--workers", "120",
             "--cores", "2"]
        )
        assert code == 0
        assert "cores=2" in capsys.readouterr().out

    def test_cover(self, capsys):
        code = main(
            ["cover", "--slots", "30", "--workers", "120", "--target", "0.6"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "reached" in out

    def test_zipfian_distribution(self, capsys):
        code = main(
            ["solve-single", "--slots", "30", "--workers", "120",
             "--distribution", "zipfian"]
        )
        assert code == 0

    def test_simulate(self, capsys):
        code = main(
            ["simulate", "--seed", "7", "--horizon", "30", "--task-rate", "0.15",
             "--task-slots", "10", "--initial-workers", "15", "--join-rate", "0.5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "streaming report" in out
        assert "latency" in out
        assert "index_mode=incremental" in out

    def test_simulate_rebuild_mode(self, capsys):
        code = main(
            ["simulate", "--seed", "3", "--horizon", "20", "--task-slots", "8",
             "--initial-workers", "10", "--join-rate", "0.3",
             "--index-mode", "rebuild", "--burstiness", "0.5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "index_mode=rebuild" in out

    def test_numpy_backend_matches_python_output(self, capsys):
        main(["solve-single", "--slots", "30", "--workers", "120", "--seed", "1"])
        python_out = capsys.readouterr().out
        main(["solve-single", "--slots", "30", "--workers", "120", "--seed", "1",
              "--backend", "numpy"])
        numpy_out = capsys.readouterr().out
        assert python_out == numpy_out

    def test_simulate_numpy_backend(self, capsys):
        code = main(
            ["simulate", "--seed", "3", "--horizon", "20", "--task-slots", "8",
             "--initial-workers", "10", "--join-rate", "0.3", "--backend", "numpy"]
        )
        assert code == 0
        assert "streaming report" in capsys.readouterr().out

    def test_bench_perf_smoke(self, tmp_path, capsys):
        code = main(["bench-perf", "--smoke", "--results-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "perf_suite.json").exists()
        # A custom results dir keeps everything inside it.
        assert (tmp_path / "BENCH_perf.json").exists()
        assert "lazy gain-eval ratio" in out

    def test_simulate_sharded(self, capsys):
        code = main(
            ["simulate", "--seed", "7", "--horizon", "30", "--task-slots", "10",
             "--initial-workers", "15", "--join-rate", "0.5", "--shards", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "sharded streaming report" in out
        assert "shards=3" in out

    def test_bench_shard_smoke(self, tmp_path, capsys):
        code = main(["bench-shard", "--smoke", "--results-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "shard_suite.json").exists()
        assert (tmp_path / "BENCH_shard.json").exists()
        assert "plans identical=True" in out


class TestRunCommand:
    """The spec-driven face of the composable runtime."""

    def test_default_spec_runs_plain(self, capsys):
        code = main(["run"])
        out = capsys.readouterr().out
        assert code == 0
        assert "serving report" in out
        assert "plan" in out

    def test_print_spec_emits_json(self, capsys):
        code = main(["run", "--print-spec", "--mode", "stream", "--shards", "3"])
        out = capsys.readouterr().out
        assert code == 0
        spec = json.loads(out)
        assert spec["mode"] == "stream"
        assert spec["shards"] == 3

    def test_spec_file_round_trips_through_the_cli(self, tmp_path, capsys):
        spec = RunSpec(
            mode="stream",
            shards=2,
            workload=WorkloadSpec(horizon=20, task_slots=8,
                                  initial_workers=12, join_rate=0.5, seed=5),
        )
        path = tmp_path / "spec.json"
        spec.to_json(path)
        code = main(["run", "--spec", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "sharded streaming report" in out

    def test_flag_overrides_spec_file(self, tmp_path, capsys):
        RunSpec(mode="plain").to_json(tmp_path / "spec.json")
        code = main(["run", "--spec", str(tmp_path / "spec.json"),
                     "--mode", "stream", "--print-spec"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["mode"] == "stream"

    def test_invalid_combo_is_a_typed_cli_error(self, capsys):
        code = main(["run", "--mode", "plain", "--journal", "/tmp/nope"])
        err = capsys.readouterr().err
        assert code == 2
        assert "invalid spec" in err
        assert "mode='stream'" in err

    def test_unknown_spec_field_is_a_typed_cli_error(self, tmp_path, capsys):
        path = tmp_path / "typo.json"
        path.write_text('{"shard_count": 4}')
        code = main(["run", "--spec", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "shard_count" in err

    def test_matrix_smoke(self, tmp_path, capsys):
        code = main(["matrix", "--smoke", "--results-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "matrix_suite.json").exists()
        assert (tmp_path / "BENCH_matrix.json").exists()
        assert "byte-identical to the legacy path" in out
        payload = json.loads((tmp_path / "matrix_suite.json").read_text())
        valid = [c for c in payload["cells"] if c["valid"]]
        assert valid and all(
            c["plan_identical"] and c["counters_identical"] for c in valid
        )
        rejected = [c for c in payload["cells"] if not c["valid"]]
        assert rejected and all(c["error"] == "SpecError" for c in rejected)


class TestJournalCLI:
    """The durability surface: --journal / --crash-at / --resume."""

    SIM = ["simulate", "--seed", "9", "--horizon", "16", "--task-rate", "0.3",
           "--task-slots", "8", "--initial-workers", "14", "--join-rate", "0.8",
           "--mean-lifetime", "12", "--epoch", "3", "--budget-fraction", "0.6",
           "--max-active", "4", "--queue-depth", "8", "--k", "2"]

    def test_parser_accepts_journal_flags(self):
        args = build_parser().parse_args(
            ["simulate", "--journal", "/tmp/j", "--snapshot-every", "2",
             "--crash-at", "5", "--resume"]
        )
        assert args.journal == "/tmp/j"
        assert args.snapshot_every == 2
        assert args.crash_at == 5
        assert args.resume

    def test_crash_flags_require_journal(self, capsys):
        assert main(["simulate", "--crash-at", "3"]) == 2
        assert main(["simulate", "--resume"]) == 2
        assert "--journal" in capsys.readouterr().err

    def test_existing_journal_refused_without_resume(self, tmp_path, capsys):
        """Re-running without --resume must not wipe the only copy of
        an interrupted run's log and snapshots."""
        jdir = str(tmp_path / "j")
        assert main(self.SIM + ["--journal", jdir, "--crash-at", "5"]) == 0
        capsys.readouterr()
        assert main(self.SIM + ["--journal", jdir, "--crash-at", "5"]) == 2
        assert "--resume" in capsys.readouterr().err
        # The journal survived and still recovers.
        assert main(self.SIM + ["--journal", jdir, "--resume"]) == 0
        assert "streaming report" in capsys.readouterr().out

    @staticmethod
    def _report_block(out: str) -> str:
        lines = out.splitlines()
        start = next(i for i, l in enumerate(lines) if "streaming report" in l)
        return "\n".join(lines[start:])

    def test_crash_then_resume_matches_clean_run(self, tmp_path, capsys):
        assert main(self.SIM) == 0
        clean = self._report_block(capsys.readouterr().out)

        jdir = str(tmp_path / "j")
        assert main(self.SIM + ["--journal", jdir, "--crash-at", "10"]) == 0
        out = capsys.readouterr().out
        assert "crash injected" in out
        assert "--resume" in out

        assert main(self.SIM + ["--journal", jdir, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "recovery: snapshot=" in out
        # Byte-identical operator report: the recovered run is exact.
        assert self._report_block(out) == clean

    def test_sharded_crash_then_resume_matches_clean_run(self, tmp_path, capsys):
        sim = self.SIM + ["--shards", "2"]
        assert main(sim) == 0
        clean = self._report_block(capsys.readouterr().out)

        jdir = str(tmp_path / "js")
        assert main(sim + ["--journal", jdir, "--crash-at", "20"]) == 0
        assert "crash injected" in capsys.readouterr().out

        # Shardedness is read off the journal root: --shards is not
        # needed (nor consulted) on resume.
        assert main(self.SIM + ["--journal", jdir, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "recovery shard 0" in out
        assert self._report_block(out) == clean

    def test_resume_missing_journal_is_guided(self, tmp_path, capsys):
        assert main(self.SIM + ["--journal", str(tmp_path / "nope"), "--resume"]) == 2
        assert "no journal found" in capsys.readouterr().err

    def test_double_fault_crash_during_resume_then_final_resume(self, tmp_path, capsys):
        """--crash-at stays armed on --resume: crash, recover, crash
        again mid-recovery, recover again — still byte-identical."""
        assert main(self.SIM) == 0
        clean = self._report_block(capsys.readouterr().out)
        jdir = str(tmp_path / "dbl")
        assert main(self.SIM + ["--journal", jdir, "--crash-at", "20"]) == 0
        capsys.readouterr()
        assert main(self.SIM + ["--journal", jdir, "--resume", "--crash-at", "40"]) == 0
        assert "crash injected" in capsys.readouterr().out
        assert main(self.SIM + ["--journal", jdir, "--resume"]) == 0
        assert self._report_block(capsys.readouterr().out) == clean

    def test_journaled_run_without_crash_matches_clean(self, tmp_path, capsys):
        assert main(self.SIM) == 0
        clean = self._report_block(capsys.readouterr().out)
        assert main(self.SIM + ["--journal", str(tmp_path / "nc")]) == 0
        assert self._report_block(capsys.readouterr().out) == clean

    def test_bench_journal_smoke(self, tmp_path, capsys):
        code = main(["bench-journal", "--smoke", "--results-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "journal_suite.json").exists()
        assert (tmp_path / "BENCH_journal.json").exists()
        assert "identical" in out


class TestElasticCLI:
    """The elasticity surface: --elastic / --migrate-at / --hotspot-drift."""

    SIM = ["simulate", "--seed", "9", "--horizon", "16", "--task-rate", "0.4",
           "--task-slots", "8", "--initial-workers", "14", "--join-rate", "0.8",
           "--mean-lifetime", "12", "--epoch", "3", "--budget-fraction", "0.6",
           "--max-active", "4", "--queue-depth", "8", "--k", "2",
           "--shards", "2"]

    def test_parser_accepts_elastic_flags(self):
        args = build_parser().parse_args(
            ["simulate", "--shards", "2", "--elastic", "--migrate-at", "3",
             "--hotspot-drift", "0.5"]
        )
        assert args.elastic
        assert args.migrate_at == 3
        assert args.hotspot_drift == 0.5

    def test_elastic_run_reports_placement(self, capsys):
        assert main(self.SIM + ["--elastic"]) == 0
        out = capsys.readouterr().out
        assert "elastic=auto" in out
        assert "executors=2->" in out

    def test_migrate_at_fires_one_migration(self, capsys):
        assert main(self.SIM + ["--migrate-at", "2"]) == 0
        out = capsys.readouterr().out
        assert "elastic=fixed migrate_at=2" in out
        assert "migrations=1" in out
        assert "migrate shard" in out

    def test_migrated_report_matches_static_report(self, capsys):
        """The operator-visible exactness claim: migrating changes the
        elastic lines of the report, never the computation above them."""

        def stream_block(text):
            lines = text.splitlines()
            start = next(
                i for i, line in enumerate(lines) if "streaming report" in line
            )
            end = next(
                i for i, line in enumerate(lines) if line.startswith("elastic ")
            )
            return "\n".join(lines[start:end])

        assert main(self.SIM + ["--elastic"]) == 0
        static = capsys.readouterr().out
        assert main(self.SIM + ["--migrate-at", "2"]) == 0
        migrated = capsys.readouterr().out
        assert stream_block(static) == stream_block(migrated)

    def test_elastic_requires_shards(self, capsys):
        assert main(["simulate", "--elastic"]) == 2
        assert "shards >= 2" in capsys.readouterr().err

    def test_migrate_at_past_trace_end_warns_and_exits_zero(self, capsys):
        """The --crash-at sibling: a boundary past the trace end warns
        (before and after the run) instead of failing."""
        assert main(self.SIM + ["--migrate-at", "999"]) == 0
        err = capsys.readouterr().err
        assert "at or beyond the trace's last epoch boundary" in err
        assert "never fired" in err

    def test_crash_at_past_trace_end_warns_and_exits_zero(self, tmp_path, capsys):
        jdir = str(tmp_path / "j")
        assert main(self.SIM + ["--journal", jdir, "--crash-at", "99999"]) == 0
        err = capsys.readouterr().err
        assert "at or beyond the trace's last event boundary" in err
        assert "complete without crashing" in err

    def test_hotspot_drift_changes_arrivals(self, capsys):
        assert main(self.SIM) == 0
        plain = capsys.readouterr().out
        assert main(self.SIM + ["--hotspot-drift", "1.0"]) == 0
        drifted = capsys.readouterr().out
        assert plain != drifted
        assert main(["simulate", "--hotspot-drift", "1.5"]) == 2
        assert "hotspot_drift" in capsys.readouterr().err

    def test_bench_elastic_smoke(self, tmp_path, capsys):
        code = main(["bench-elastic", "--smoke", "--results-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "elastic_suite.json").exists()
        assert (tmp_path / "BENCH_elastic.json").exists()
        payload = json.loads((tmp_path / "elastic_suite.json").read_text())
        sweep = payload["sweep"]["2"]
        assert sweep["identical"] == sweep["boundaries"]
        assert payload["off_identity"]["identical"]
        assert "identical" in out
