"""Tests for the benchmark support package (reporter + baselines)."""

from __future__ import annotations

import importlib
import inspect
import json

import pytest

from repro.bench.baselines import random_multi_assignment
from repro.bench.collect import collect_series
from repro.bench.matrixsuite import (
    CELL_GATES,
    CROSS_CELL_FIELDS,
    check_payload,
    summary,
    write_report_block,
)
from repro.bench.report import SUITES, Reporter, publish
from repro.core.quality import task_quality
from repro.workloads.scenario import ScenarioConfig, build_scenario


class TestReporter:
    def test_writes_file_and_prints(self, tmp_path, capsys):
        reporter = Reporter("figX", "Test figure", results_dir=tmp_path)
        reporter.note("a note")
        reporter.header("col1", "col2")
        reporter.row("a", 1.23456789)
        path = reporter.close()
        out = capsys.readouterr().out
        assert "figX: Test figure" in out
        assert path.exists()
        content = path.read_text()
        assert "note: a note" in content
        assert "col1 | col2" in content
        assert "a | 1.23457" in content  # 6 significant digits

    def test_integer_and_string_rows(self, tmp_path):
        reporter = Reporter("figY", "Ints", results_dir=tmp_path)
        reporter.row(42, "text", 0.5)
        content = reporter.close().read_text()
        assert "42 | text | 0.5" in content


class TestRandomMultiBaseline:
    @pytest.fixture(scope="class")
    def scenario(self):
        return build_scenario(
            ScenarioConfig(num_tasks=4, num_slots=15, num_workers=80, seed=3)
        )

    def test_budget_respected(self, scenario):
        budget = scenario.budget * 4
        qualities, assignment = random_multi_assignment(
            scenario.tasks, scenario.fresh_registry(), budget=budget, seed=1,
            return_assignment=True,
        )
        assert assignment.total_cost <= budget + 1e-9
        assert set(qualities) == {t.task_id for t in scenario.tasks}

    def test_qualities_match_assignment(self, scenario):
        budget = scenario.budget * 4
        qualities, assignment = random_multi_assignment(
            scenario.tasks, scenario.fresh_registry(), budget=budget, seed=2,
            return_assignment=True,
        )
        for task in scenario.tasks:
            slots = assignment.executed_slots(task.task_id)
            expected = task_quality(task.num_slots, 3, {s: 1.0 for s in slots})
            assert qualities[task.task_id] == pytest.approx(expected)

    def test_deterministic_per_seed(self, scenario):
        budget = scenario.budget * 4
        a = random_multi_assignment(
            scenario.tasks, scenario.fresh_registry(), budget=budget, seed=5
        )
        b = random_multi_assignment(
            scenario.tasks, scenario.fresh_registry(), budget=budget, seed=5
        )
        assert a == b

    def test_workers_not_double_booked(self, scenario):
        budget = scenario.budget * 4
        _, assignment = random_multi_assignment(
            scenario.tasks, scenario.fresh_registry(), budget=budget, seed=4,
            return_assignment=True,
        )
        tasks = {t.task_id: t for t in scenario.tasks}
        seen = set()
        for record in assignment:
            key = (record.worker_id, tasks[record.task_id].global_slot(record.slot))
            assert key not in seen
            seen.add(key)


class TestShardSuiteGates:
    """Gate logic of the shard suite (synthetic payloads, no solving)."""

    @staticmethod
    def _payload(**overrides):
        row = {
            "plan_identical": True,
            "conflicts": 0,
            "reconciled": 0,
            "serial_cost": 100.0,
        }
        row.update(overrides)
        return {
            "scenarios": [
                {
                    "name": "synthetic",
                    "reference": {"serial_cost": 100.0},
                    "shards": {"1": dict(row, conflicts=0, reconciled=0),
                               "2": row},
                }
            ]
        }

    def test_clean_payload_passes(self):
        from repro.bench.shardsuite import check_payload

        assert check_payload(self._payload()) == []

    def test_plan_divergence_fails(self):
        from repro.bench.shardsuite import check_payload

        failures = check_payload(self._payload(plan_identical=False))
        assert any("diverged" in f for f in failures)

    def test_serial_cost_drift_fails(self):
        from repro.bench.shardsuite import check_payload

        failures = check_payload(self._payload(serial_cost=150.0))
        assert any("serial cost" in f for f in failures)

    def test_single_shard_conflicts_fail(self):
        from repro.bench.shardsuite import check_payload

        payload = self._payload()
        payload["scenarios"][0]["shards"]["1"]["conflicts"] = 2
        failures = check_payload(payload)
        assert any("shards=1" in f for f in failures)

    def test_scenarios_match_perfsuite(self):
        from repro.bench.perfsuite import SCENARIOS as PERF
        from repro.bench.shardsuite import SCENARIOS, SHARD_COUNTS

        names = {s.name: s for s in SCENARIOS}
        for perf in PERF:
            scenario = names[perf.name]
            assert (scenario.tasks, scenario.m, scenario.workers, scenario.seed) == (
                1, perf.m, perf.workers, perf.seed
            )
        assert SHARD_COUNTS == (1, 2, 4, 8)


class TestSuiteDriver:
    """The one ``bench SUITE`` driver: every suite module meets its
    contract, and every file name derives from the suite name."""

    @pytest.mark.parametrize("suite", SUITES)
    def test_suite_module_contract(self, suite):
        module = importlib.import_module(f"repro.bench.{suite}suite")
        for name in ("run_suite", "check_payload", "write_report_block", "summary"):
            assert callable(getattr(module, name)), name
        smoke = inspect.signature(module.run_suite).parameters["smoke"]
        assert smoke.kind is inspect.Parameter.KEYWORD_ONLY

    @pytest.mark.parametrize("suite", SUITES)
    def test_series_merge_is_per_suite(self, suite, tmp_path):
        # Every suite's series side by side in one results dir, plus the
        # non-suite series: no suite's glob may pick up another's file.
        for name in (*SUITES, "regress"):
            (tmp_path / f"{name}_suite.json").write_text(json.dumps({"suite": name}))
        (tmp_path / "stream1.json").write_text("{}")
        merged = collect_series(suite, tmp_path)
        assert merged["series"] == {f"{suite}_suite": {"suite": suite}}
        assert merged["generated_by"] == f"python -m repro bench {suite}"

    def test_publish_writes_before_gating(self, tmp_path, capsys):
        blocks = []
        code = publish(
            "perf",
            {"cells": 2},
            tmp_path,
            write_block=lambda payload, results: blocks.append(results),
            summary=lambda payload: [f"cells={payload['cells']}"],
            check=lambda payload: ["first broken gate", "second broken gate"],
        )
        captured = capsys.readouterr()
        assert code == 1
        assert blocks == [tmp_path]
        # The diagnostic payload and the merged artifact are left behind.
        assert json.loads((tmp_path / "perf_suite.json").read_text()) == {"cells": 2}
        merged = json.loads((tmp_path / "BENCH_perf.json").read_text())
        assert merged["series"] == {"perf_suite": {"cells": 2}}
        assert "cells=2" in captured.out
        assert captured.err.splitlines() == [
            "FAIL: first broken gate",
            "FAIL: second broken gate",
        ]


def _clean_matrix_payload():
    """A one-cell matrix payload that passes every gate."""
    cell = {
        "mode": "stream", "shards": 2, "journal": False, "backend": "python",
        "valid": True, "server_class": "ShardedStreamingServer",
        "plan_length": 3, "records": 9,
        "masked_trace_digest": "t", "signature": "s",
        "counters_digest": "c", "metrics_digest": "m",
    }
    cell.update(dict.fromkeys(CELL_GATES, True))
    return {"cells": [cell]}


class TestMatrixGatePredicate:
    """The matrix report, summary and gate check read one predicate."""

    def _render(self, payload, tmp_path, capsys):
        write_report_block(payload, tmp_path)
        capsys.readouterr()
        return (tmp_path / "matrix1.txt").read_text(), summary(payload)[0]

    def test_clean_payload_reads_identical(self, tmp_path, capsys):
        payload = _clean_matrix_payload()
        block, line = self._render(payload, tmp_path, capsys)
        assert check_payload(payload) == []
        assert "| identical |" in block and "DIVERGED" not in block
        assert "1/1 composable cells" in line

    @pytest.mark.parametrize("gate", CELL_GATES)
    def test_one_failed_gate_reads_diverged(self, gate, tmp_path, capsys):
        payload = _clean_matrix_payload()
        payload["cells"][0][gate] = False
        block, line = self._render(payload, tmp_path, capsys)
        assert check_payload(payload) == [
            f"stream/shards=2/journal=off/python: {gate} is False"
        ]
        assert "| DIVERGED |" in block and "identical |" not in block
        assert "0/1 composable cells" in line

    def test_wrong_server_class_fails(self):
        """The class is judged against the table, not only the
        recorded boolean."""
        payload = _clean_matrix_payload()
        payload["cells"][0]["server_class"] = "StreamingTCSCServer"
        assert check_payload(payload) == [
            "stream/shards=2/journal=off/python: built StreamingTCSCServer, "
            "expected ShardedStreamingServer"
        ]

    @pytest.mark.parametrize("field", CROSS_CELL_FIELDS)
    @pytest.mark.parametrize("change", [{"journal": True}, {"backend": "numpy"}],
                             ids=["journal-on", "numpy"])
    def test_cross_cell_rule(self, field, change):
        """A journal-on cell must equal its journal-off cell, and a numpy
        cell its python cell, in plan, counters and metrics."""
        reference = _clean_matrix_payload()["cells"][0]
        cell = {**reference, **change, field: "drifted"}
        label = "journal-off" if "journal" in change else "python"
        name = ("stream/shards=2/journal=on/python" if "journal" in change
                else "stream/shards=2/journal=off/numpy")
        assert check_payload({"cells": [reference, cell]}) == [
            f"{name}: {field} diverged from the {label} cell"
        ]
