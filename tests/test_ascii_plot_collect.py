"""Tests for the ASCII plotting helpers and the report collector."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.ascii_plot import bar_chart, line_chart
from repro.bench.collect import (
    COLLECTORS,
    collect,
    collect_series,
    main,
    unrecognized_artifacts,
)
from repro.bench.report import SUITES
from repro.errors import ConfigurationError

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _results_with_series(tmp_path, *, skip=()):
    """A results dir holding one figure block plus a series for every
    registered artifact (except ``skip``), so ``main`` can regenerate
    them all."""
    results = tmp_path / "results"
    results.mkdir()
    (results / "fig6a.txt").write_text("# fig6a: early\nrow\n")
    for series in COLLECTORS.values():
        if series not in skip:
            (results / f"{series}_suite.json").write_text("{}\n")
    return results


class TestLineChart:
    def test_single_series(self):
        chart = line_chart([1, 2, 3], {"time": [1.0, 2.0, 4.0]}, title="demo")
        assert "demo" in chart
        assert "o=time" in chart
        assert chart.count("o") >= 3

    def test_two_series_markers(self):
        chart = line_chart([1, 2], {"a": [1.0, 2.0], "b": [2.0, 1.0]})
        assert "o=a" in chart and "x=b" in chart

    def test_log_scale(self):
        chart = line_chart([1, 2, 3], {"t": [1.0, 100.0, 10000.0]}, log=True)
        assert "(log scale)" in chart

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            line_chart([1], {"t": [0.0]}, log=True)

    def test_flat_series(self):
        chart = line_chart([1, 2], {"t": [5.0, 5.0]})
        grid_only = chart.split("\n|", 1)[1].rsplit("+", 1)[0]
        assert grid_only.count("o") == 2  # both points at the mid row

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            line_chart([1, 2], {})
        with pytest.raises(ConfigurationError):
            line_chart([1, 2], {"a": [1.0]})
        with pytest.raises(ConfigurationError):
            line_chart([1, 2], {"a": [1.0, 2.0], "b": [1.0]})
        with pytest.raises(ConfigurationError):
            line_chart([], {"a": []})

    def test_x_labels_rendered(self):
        chart = line_chart(["u", "g", "z"], {"t": [1.0, 2.0, 3.0]})
        assert "u" in chart and "g" in chart and "z" in chart


class TestBarChart:
    def test_basic(self):
        chart = bar_chart(["grid", "kdtree"], [0.3, 0.6], title="backends")
        assert "backends" in chart
        lines = chart.splitlines()
        assert lines[1].count("#") < lines[2].count("#")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            bar_chart(["a"], [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            bar_chart([], [])
        with pytest.raises(ConfigurationError):
            bar_chart(["a"], [0.0])


class TestCollect:
    def test_collects_and_orders(self, tmp_path):
        (tmp_path / "fig11a.txt").write_text("# fig11a: late\nrow\n")
        (tmp_path / "fig6a.txt").write_text("# fig6a: early\nrow\n")
        (tmp_path / "abl1.txt").write_text("# abl1: ablation\nrow\n")
        report = collect(tmp_path)
        assert report.index("fig6a") < report.index("fig11a") < report.index("abl1")
        assert "3 figure series" in report

    def test_main_writes_report(self, tmp_path, capsys):
        results = _results_with_series(tmp_path)
        assert main([str(results)]) == 0
        assert "fig6a" in (tmp_path / "REPORT.md").read_text()

    def test_main_fails_on_missing_registered_artifact(self, tmp_path, capsys):
        results = _results_with_series(tmp_path, skip=("elastic", "regress"))
        assert main([str(results)]) == 1
        err = capsys.readouterr().err
        # REPORT.md is still written, and every missing artifact named.
        assert (tmp_path / "REPORT.md").exists()
        assert "BENCH_elastic.json" in err and "BENCH_regress.json" in err
        assert "missing" in err and "BENCH_perf.json" not in err
        # A present (even stale) artifact is not missing.
        (tmp_path / "BENCH_elastic.json").write_text('{"series": {}}\n')
        (tmp_path / "BENCH_regress.json").write_text('{"series": {}}\n')
        assert main([str(results)]) == 0

    def test_main_missing_dir(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 1

    def test_collect_stream_merges_json_series(self, tmp_path):
        (tmp_path / "stream1.json").write_text('{"events_per_sec": 10.0}\n')
        (tmp_path / "stream2.json").write_text('{"events_per_sec": 20.0}\n')
        merged = collect_series("stream", tmp_path)
        assert set(merged["series"]) == {"stream1", "stream2"}
        assert merged["series"]["stream1"]["events_per_sec"] == 10.0

    def test_collect_stream_none_without_series(self, tmp_path):
        assert collect_series("stream", tmp_path) is None

    def test_main_writes_bench_stream_json(self, tmp_path, capsys):
        results = _results_with_series(tmp_path, skip=("stream",))
        (results / "stream1.json").write_text('{"events_per_sec": 10.0}\n')
        assert main([str(results)]) == 0
        payload = json.loads((tmp_path / "BENCH_stream.json").read_text())
        assert set(payload["series"]) == {"stream1"}
        assert payload["generated_by"] == "python -m repro.bench.collect"

    def test_collect_shard_merges_json_series(self, tmp_path):
        (tmp_path / "shard_suite.json").write_text('{"suite": "shardsuite"}\n')
        merged = collect_series("shard", tmp_path)
        assert set(merged["series"]) == {"shard_suite"}
        assert merged["generated_by"] == "python -m repro bench shard"

    def test_collect_journal_merges_json_series(self, tmp_path):
        (tmp_path / "journal_suite.json").write_text('{"suite": "journalsuite"}\n')
        merged = collect_series("journal", tmp_path)
        assert set(merged["series"]) == {"journal_suite"}
        assert merged["generated_by"] == "python -m repro bench journal"

    def test_collect_degrade_merges_json_series(self, tmp_path):
        (tmp_path / "degrade_suite.json").write_text(
            '{"suite": "degradesuite"}\n'
        )
        merged = collect_series("degrade", tmp_path)
        assert set(merged["series"]) == {"degrade_suite"}
        assert merged["generated_by"] == "python -m repro bench degrade"

    def test_every_registered_artifact_has_a_collector(self):
        assert set(COLLECTORS) == {
            "BENCH_stream.json", "BENCH_perf.json", "BENCH_shard.json",
            "BENCH_journal.json", "BENCH_matrix.json", "BENCH_degrade.json", "BENCH_elastic.json",
            "BENCH_regress.json",
        }
        assert list(COLLECTORS.values()) == ["stream", *SUITES, "regress"]
        for name, series in COLLECTORS.items():
            assert name == f"BENCH_{series}.json"
        # Every registered artifact is committed: docs and CI link them.
        missing = sorted(n for n in COLLECTORS if not (BENCHMARKS / n).is_file())
        assert missing == []

    def test_unrecognized_artifacts_detected(self, tmp_path):
        (tmp_path / "BENCH_stream.json").write_text("{}\n")
        (tmp_path / "BENCH_mystery.json").write_text("{}\n")
        assert unrecognized_artifacts(tmp_path) == ["BENCH_mystery.json"]

    def test_main_warns_on_stale_registered_artifact(self, tmp_path, capsys):
        results = _results_with_series(tmp_path, skip=("stream",))
        # A registered artifact whose source series vanished: it must
        # be flagged as stale, not silently skipped.
        (tmp_path / "BENCH_stream.json").write_text('{"series": {}}\n')
        assert main([str(results)]) == 0
        err = capsys.readouterr().err
        assert "BENCH_stream.json" in err
        assert "stale" in err

    def test_main_warns_on_unrecognized_artifact(self, tmp_path, capsys):
        results = _results_with_series(tmp_path)
        (tmp_path / "BENCH_mystery.json").write_text("{}\n")
        assert main([str(results)]) == 0
        err = capsys.readouterr().err
        assert err.count("BENCH_mystery.json") == 1
        assert "no registered collector" in err

    def test_report_ingests_bench_artifacts(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig6a.txt").write_text("# fig6a: early\nrow\n")
        (tmp_path / "BENCH_shard.json").write_text(
            json.dumps({"generated_by": "python -m repro bench shard",
                        "series": {"shard_suite": {}}})
        )
        report = collect(results)
        assert "Machine-readable artifacts" in report
        assert "BENCH_shard.json" in report
        assert "python -m repro bench shard" in report

    def test_report_flags_unrecognized_artifacts(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (tmp_path / "BENCH_mystery.json").write_text("{}\n")
        report = collect(results)
        assert "BENCH_mystery.json" in report
        assert "unrecognized" in report
