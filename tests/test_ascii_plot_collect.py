"""Tests for the ASCII plotting helpers and the report collector."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.ascii_plot import bar_chart, line_chart
from repro.bench.collect import (
    ARTIFACTS,
    collect,
    main,
    unrecognized_artifacts,
)
from repro.bench.report import SUITES, publish
from repro.errors import ConfigurationError

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _results_with_artifacts(tmp_path, *, skip=()):
    """A results dir holding one figure block, with a ``BENCH_*.json``
    artifact beside it for every suite of ``ARTIFACTS`` (except
    ``skip``)."""
    results = tmp_path / "results"
    results.mkdir()
    (results / "fig6a.txt").write_text("# fig6a: early\nrow\n")
    for name in ARTIFACTS:
        if name not in skip:
            (tmp_path / f"BENCH_{name}.json").write_text(
                json.dumps({"suite": name}, indent=2, sort_keys=True) + "\n"
            )
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
        results = _results_with_artifacts(tmp_path)
        assert main([str(results)]) == 0
        assert "fig6a" in (tmp_path / "REPORT.md").read_text()

    def test_main_fails_on_missing_registered_artifact(self, tmp_path, capsys):
        results = _results_with_artifacts(tmp_path, skip=("elastic", "regress"))
        assert main([str(results)]) == 1
        err = capsys.readouterr().err
        # REPORT.md is still written, and every missing artifact named
        # with the command that regenerates it.
        assert (tmp_path / "REPORT.md").exists()
        assert "BENCH_elastic.json" in err and "BENCH_regress.json" in err
        assert "python -m repro bench elastic" in err
        assert "python -m repro bench-regress" in err
        assert "missing" in err and "BENCH_perf.json" not in err
        (tmp_path / "BENCH_elastic.json").write_text("{}\n")
        (tmp_path / "BENCH_regress.json").write_text("{}\n")
        assert main([str(results)]) == 0

    def test_main_missing_dir(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 1

    def test_main_leaves_artifacts_byte_identical(self, tmp_path, capsys):
        # One writer per artifact: each suite writes its BENCH_*.json,
        # and collect writes only REPORT.md — not even a stray series
        # file under results/ makes it merge or rewrite an artifact.
        results = _results_with_artifacts(tmp_path)
        (results / "shard2.json").write_text('{"suite": "other"}\n')
        (results / "stream2.json").write_text('{"events_per_sec": 10.0}\n')
        before = {p.name: p.read_bytes() for p in tmp_path.glob("BENCH_*.json")}
        listing = sorted(p.name for p in tmp_path.rglob("*"))
        assert main([str(results)]) == 0
        after = {p.name: p.read_bytes() for p in tmp_path.glob("BENCH_*.json")}
        assert after == before
        assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(
            [*listing, "REPORT.md"]
        )
        assert capsys.readouterr().err == ""

    def test_collect_stream_merges_json_series(self, tmp_path):
        # Stream series files are no longer merged: collect neither
        # lists nor reads them, and writes nothing.
        results = _results_with_artifacts(tmp_path)
        (results / "stream2.json").write_text('{"events_per_sec": 10.0}\n')
        (results / "stream3.json").write_text('{"events_per_sec": 20.0}\n')
        listing = sorted(p.name for p in tmp_path.rglob("*"))
        report = collect(results)
        assert "stream2" not in report and "stream3" not in report
        assert sorted(p.name for p in tmp_path.rglob("*")) == listing

    def test_collect_stream_none_without_series(self, tmp_path):
        # The stream figure reaches the report as its text block only;
        # no machine-readable stream artifact is listed or expected.
        assert "stream" not in ARTIFACTS
        results = _results_with_artifacts(tmp_path)
        (results / "stream1.txt").write_text("# stream1: throughput\nrow\n")
        report = collect(results)
        assert "# stream1: throughput" in report
        assert not [
            line for line in report.splitlines()
            if line.startswith("* `BENCH_") and "stream" in line
        ]

    def test_main_writes_bench_stream_json(self, tmp_path, capsys):
        # main writes REPORT.md and no artifact, even with a stream
        # series file beside the blocks.
        results = _results_with_artifacts(tmp_path)
        (results / "stream2.json").write_text('{"events_per_sec": 10.0}\n')
        before = sorted(p.name for p in tmp_path.glob("BENCH_*.json"))
        assert main([str(results)]) == 0
        assert sorted(p.name for p in tmp_path.glob("BENCH_*.json")) == before
        assert (tmp_path / "REPORT.md").is_file()
        assert capsys.readouterr().err == ""

    def _assert_suite_artifact_untouched(self, tmp_path, capsys, name):
        """A suite's ``BENCH_<name>.json`` as its suite wrote it
        survives ``main`` byte for byte, unwrapped, and is indexed with
        the command that regenerates it; a leftover
        ``<name>2.json`` series is not merged into it."""
        results = _results_with_artifacts(tmp_path, skip=(name,))
        payload = {"suite": f"{name}suite", "rows": [1, 2]}
        artifact = tmp_path / f"BENCH_{name}.json"
        publish(
            name, payload, tmp_path,
            write_block=lambda payload, out: None,
            summary=lambda payload: [],
            check=lambda payload: [],
        )
        written = artifact.read_bytes()
        assert written == (
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        ).encode()
        (results / f"{name}2.json").write_text('{"suite": "old"}\n')
        capsys.readouterr()
        assert main([str(results)]) == 0
        assert artifact.read_bytes() == written
        assert json.loads(written) == payload
        report = (tmp_path / "REPORT.md").read_text()
        assert (
            f"`BENCH_{name}.json` — regenerate with "
            f"`python -m repro bench {name}`"
        ) in report
        assert capsys.readouterr().err == ""

    def test_collect_shard_merges_json_series(self, tmp_path, capsys):
        self._assert_suite_artifact_untouched(tmp_path, capsys, "shard")

    def test_collect_journal_merges_json_series(self, tmp_path, capsys):
        self._assert_suite_artifact_untouched(tmp_path, capsys, "journal")

    def test_collect_degrade_merges_json_series(self, tmp_path, capsys):
        self._assert_suite_artifact_untouched(tmp_path, capsys, "degrade")

    def test_every_registered_artifact_has_a_collector(self):
        assert ARTIFACTS == (*SUITES, "regress")
        # Every listed artifact is committed: docs and CI link them.
        missing = sorted(
            name for name in ARTIFACTS
            if not (BENCHMARKS / f"BENCH_{name}.json").is_file()
        )
        assert missing == []
        assert unrecognized_artifacts(BENCHMARKS) == []

    def test_unrecognized_artifacts_detected(self, tmp_path):
        (tmp_path / "BENCH_shard.json").write_text("{}\n")
        (tmp_path / "BENCH_retired.json").write_text("{}\n")
        (tmp_path / "BENCH_mystery.json").write_text("{}\n")
        assert unrecognized_artifacts(tmp_path) == [
            "BENCH_mystery.json", "BENCH_retired.json",
        ]

    def test_main_warns_on_stale_registered_artifact(self, tmp_path, capsys):
        # An artifact no suite writes any more (here in the retired
        # {"series": ...} wrapper) is flagged as stale, and left as it
        # is: not regenerated, rewritten or deleted.
        results = _results_with_artifacts(tmp_path)
        stale = tmp_path / "BENCH_retired.json"
        stale.write_text('{"series": {}}\n')
        assert main([str(results)]) == 0
        err = capsys.readouterr().err
        assert err.count("BENCH_retired.json") == 1
        assert "stale" in err
        assert stale.read_text() == '{"series": {}}\n'
        assert "**unrecognized**" in (tmp_path / "REPORT.md").read_text()

    def test_main_warns_on_unrecognized_artifact(self, tmp_path, capsys):
        results = _results_with_artifacts(tmp_path)
        (tmp_path / "BENCH_mystery.json").write_text("{}\n")
        assert main([str(results)]) == 0
        err = capsys.readouterr().err
        assert err.count("BENCH_mystery.json") == 1
        assert "written by no suite" in err

    def test_report_ingests_bench_artifacts(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig6a.txt").write_text("# fig6a: early\nrow\n")
        (tmp_path / "BENCH_shard.json").write_text('{"suite": "shard"}\n')
        (tmp_path / "BENCH_regress.json").write_text(
            json.dumps({"baselines_dir": "bl", "cells": [
                {"cell": "plain-s1", "baseline": "ok",
                 "critical_path_total": 12.5, "baseline_commit": "abc"},
            ]})
        )
        report = collect(results)
        assert "Machine-readable artifacts" in report
        assert "`BENCH_shard.json` — regenerate with `python -m repro bench shard`" in report
        assert "`BENCH_regress.json` — regenerate with `python -m repro bench-regress`" in report
        assert "BENCH_perf.json" not in report
        # The ledger section reads BENCH_regress.json.
        assert "* 1 cells checked against `bl`" in report
        assert "| `plain-s1` | ok | 12.5 | abc |" in report

    def test_report_flags_unrecognized_artifacts(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (tmp_path / "BENCH_mystery.json").write_text("{}\n")
        report = collect(results)
        assert "BENCH_mystery.json" in report
        assert "unrecognized" in report
