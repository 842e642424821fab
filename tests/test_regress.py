"""The continuous op-count regression ledger (PR 9).

Unit coverage for :mod:`repro.obs.regress` (fingerprints, drift
comparison, baseline files) and the :mod:`repro.bench.regresssuite`
check/update flow against a temporary ledger directory.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import regresssuite
from repro.obs.regress import (
    LEDGER_FORMAT,
    compare_fingerprints,
    fingerprint_outcome,
    load_baseline,
    write_baseline,
)
from repro.runtime import RunSpec, WorkloadSpec, build_runtime

STREAM_SPEC = RunSpec(
    mode="stream",
    telemetry=True,
    workload=WorkloadSpec(
        horizon=10, task_rate=0.3, task_slots=8, initial_workers=12,
        join_rate=0.8, mean_lifetime=12.0, seed=9,
    ),
    k=2, epoch_length=3.0, budget_fraction=0.6,
    max_active_tasks=4, max_queue_depth=8, snapshot_every=2,
)


@pytest.fixture(scope="module")
def fingerprint():
    return fingerprint_outcome(build_runtime(STREAM_SPEC.validate()).run())


class TestFingerprint:
    def test_two_runs_fingerprint_identically(self, fingerprint):
        again = fingerprint_outcome(build_runtime(STREAM_SPEC.validate()).run())
        assert fingerprint == again

    def test_fields(self, fingerprint):
        assert set(fingerprint) == {
            "plan", "plan_records", "counters", "trace", "critical_path",
        }
        assert fingerprint["critical_path"]["total"] > 0
        assert fingerprint["trace"]["solve"] >= 1

    def test_no_wall_clock_anywhere(self, fingerprint):
        text = json.dumps(fingerprint)
        assert "wall" not in text
        assert "timing" not in text

    def test_sharded_counters_are_per_shard(self):
        outcome = build_runtime(STREAM_SPEC.replace(shards=2).validate()).run()
        counters = fingerprint_outcome(outcome)["counters"]
        assert isinstance(counters, list) and len(counters) == 2


class TestCompare:
    def test_identical_is_clean(self, fingerprint):
        assert compare_fingerprints(fingerprint, fingerprint) == []

    def test_drift_names_the_flattened_path(self, fingerprint):
        mutated = json.loads(json.dumps(fingerprint))
        mutated["critical_path"]["total"] += 1.0
        drifts = compare_fingerprints(fingerprint, mutated)
        assert len(drifts) == 1
        assert drifts[0].startswith("critical_path.total:")

    def test_missing_and_extra_fields_drift(self, fingerprint):
        mutated = json.loads(json.dumps(fingerprint))
        del mutated["plan_records"]
        mutated["novel"] = 1
        drifts = compare_fingerprints(fingerprint, mutated)
        assert any("vanished" in d for d in drifts)
        assert any("not in baseline" in d for d in drifts)


class TestBaselineFiles:
    def test_roundtrip_and_meta(self, tmp_path, fingerprint):
        path = write_baseline(tmp_path, "cell-x", fingerprint)
        assert path.name == "cell-x.json"
        document = load_baseline(tmp_path, "cell-x")
        assert document["format"] == LEDGER_FORMAT
        assert document["cell"] == "cell-x"
        assert document["fingerprint"] == fingerprint
        assert set(document["meta"]) == {"commit", "version"}

    def test_missing_baseline_is_none(self, tmp_path):
        assert load_baseline(tmp_path, "nope") is None


@pytest.fixture()
def small_suite(monkeypatch):
    """Shrink the suite to one cell and stub the (expensive) diff
    gates so the check/update flow stays test-sized."""
    monkeypatch.setattr(
        regresssuite,
        "REGRESS_CELLS",
        {"stream-s1": {"spec": STREAM_SPEC}},
    )
    monkeypatch.setattr(
        regresssuite,
        "_diff_gates",
        lambda: {
            "same_spec_identical": True,
            "fault_localized": True,
            "fault_seq": 0,
            "fault_span": "run",
            "fault_stable": True,
        },
    )


class TestSuiteFlow:
    def test_update_then_check(self, tmp_path, small_suite, capsys):
        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        assert regresssuite.run_and_write(
            update=True, results_dir=results, baselines_dir=baselines
        ) == 0
        assert (baselines / "stream-s1.json").exists()
        # The payload lands once, beside its block: no second copy.
        assert sorted(p.name for p in results.iterdir()) == [
            "BENCH_regress.json", "regress1.txt",
        ]
        assert regresssuite.run_and_write(
            check=True, results_dir=results, baselines_dir=baselines
        ) == 0

    def test_check_fails_on_missing_baseline(self, tmp_path, small_suite):
        assert regresssuite.run_and_write(
            check=True,
            results_dir=tmp_path / "results",
            baselines_dir=tmp_path / "empty",
        ) == 1

    def test_check_fails_on_drift(self, tmp_path, small_suite, capsys):
        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        regresssuite.run_and_write(
            update=True, results_dir=results, baselines_dir=baselines
        )
        path = baselines / "stream-s1.json"
        document = json.loads(path.read_text())
        document["fingerprint"]["critical_path"]["total"] += 1.0
        path.write_text(json.dumps(document))
        assert regresssuite.run_and_write(
            check=True, results_dir=results, baselines_dir=baselines
        ) == 1
        assert "drift critical_path.total" in capsys.readouterr().err

    def test_check_and_update_are_exclusive(self, small_suite, tmp_path):
        assert regresssuite.run_and_write(
            check=True, update=True, results_dir=tmp_path
        ) == 2

    def test_report_mode_tolerates_missing_baselines(
        self, tmp_path, small_suite
    ):
        assert regresssuite.run_and_write(
            results_dir=tmp_path / "results",
            baselines_dir=tmp_path / "empty",
        ) == 0


class TestLedgerSection:
    def test_report_md_carries_ledger_status(
        self, tmp_path, small_suite, monkeypatch
    ):
        from repro.bench import collect

        # A custom --results-dir holds BENCH_regress.json itself, and
        # collect reads artifacts one level above its results dir.
        results = tmp_path / "results"
        results.mkdir()
        regresssuite.run_and_write(
            update=True, results_dir=tmp_path, baselines_dir=tmp_path / "baselines"
        )
        report = collect.collect(results)
        assert "## Regression-ledger status" in report
        assert "stream-s1" in report
        assert "drift detected: none" in report
