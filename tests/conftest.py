"""Shared fixtures: small, fast scenarios reused across the suite."""

from __future__ import annotations

import importlib
import json

import pytest

from repro.engine.costs import SingleTaskCostTable
from repro.workloads.scenario import ScenarioConfig, build_scenario


@pytest.fixture(scope="session")
def small_scenario():
    """One task, 40 slots, 200 workers — fast single-task instance."""
    return build_scenario(
        ScenarioConfig(num_tasks=1, num_slots=40, num_workers=200, seed=3)
    )


@pytest.fixture(scope="session")
def medium_scenario():
    """One task, 120 slots — large enough to exercise the index."""
    return build_scenario(
        ScenarioConfig(num_tasks=1, num_slots=120, num_workers=500, seed=11)
    )


@pytest.fixture(scope="session")
def multi_scenario():
    """Eight tasks sharing 250 workers — multi-task instance."""
    return build_scenario(
        ScenarioConfig(num_tasks=8, num_slots=40, num_workers=250, seed=7)
    )


@pytest.fixture()
def small_costs(small_scenario):
    """Fresh cost table for the small scenario's task."""
    return SingleTaskCostTable(small_scenario.single_task, small_scenario.fresh_registry())


@pytest.fixture()
def medium_costs(medium_scenario):
    """Fresh cost table for the medium scenario's task."""
    return SingleTaskCostTable(
        medium_scenario.single_task, medium_scenario.fresh_registry()
    )


@pytest.fixture()
def bench_smoke(tmp_path, capsys):
    """Run ``python -m repro bench SUITE --smoke`` into ``tmp_path``.

    Asserts the shared driver contract — exit 0, the payload written
    once, as ``BENCH_<suite>.json``, beside the ``<suite>1.txt`` block
    and no other file inside the custom results dir, and a payload the
    suite's own ``check_payload`` passes — and returns
    ``(stdout, payload)`` for the suite-specific assertions.
    """
    from repro.__main__ import main

    def run(suite):
        code = main(["bench", suite, "--smoke", "--results-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"BENCH_{suite}.json", f"{suite}1.txt",
        ]
        payload = json.loads((tmp_path / f"BENCH_{suite}.json").read_text())
        module = importlib.import_module(f"repro.bench.{suite}suite")
        assert module.check_payload(payload) == []
        return out, payload

    return run
