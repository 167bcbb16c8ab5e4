"""Tests for the experiment harness and small-scale experiment smoke runs."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.baselines.base import Platform
from repro.bench import fig7a, fig7b, fig8a, fig8b, fig10, table2
from repro.bench.__main__ import main as bench_main
from repro.bench.harness import (
    ExperimentResult,
    factor,
    ordering_holds,
    relative_error,
)
from repro.bench.paperdata import FIG7A_SECONDS, FIG8B_SECONDS


@pytest.fixture
def sample() -> ExperimentResult:
    result = ExperimentResult("figX", "sample")
    result.rows.append({"system": "fast", "time_s": 1.0, "extra": "yes"})
    result.rows.append({"system": "slow", "time_s": 10.0})
    return result


class TestHarness:
    def test_row_lookup(self, sample):
        assert sample.row("fast")["time_s"] == 1.0
        assert sample.value("slow", "time_s") == 10.0
        with pytest.raises(KeyError):
            sample.row("missing")

    def test_systems(self, sample):
        assert sample.systems() == ["fast", "slow"]

    def test_ordering(self, sample):
        assert ordering_holds(sample, "time_s", ["fast", "slow"])
        assert not ordering_holds(sample, "time_s", ["slow", "fast"])

    def test_factor(self, sample):
        assert factor(sample, "time_s", "slow", "fast") == 10.0

    def test_relative_error(self):
        assert relative_error(11.0, 10.0) == pytest.approx(0.1)
        assert relative_error(5.0, 0.0) == float("inf")

    def test_format_table(self, sample):
        text = sample.format_table()
        assert "figX" in text
        assert "fast" in text and "slow" in text
        # Missing cells render as blanks, not crashes.
        assert "extra" in text

    def test_empty_result(self):
        assert "(no rows)" in ExperimentResult("y", "empty").format_table()


class TestGoldenTables:
    """The equivalence oracle for refactors of the simulated platforms.

    ``GOLDEN`` is the stdout of ``python -m repro.bench {fig8a,fig8b,fig10}
    --scale 0.0625`` (in that order).  The simulation is deterministic, so
    any change to event order, CPU-state accounting (the ``iowait_pct`` /
    ``waiting_pct`` columns) or bytes moved shows up as a byte diff.
    Regenerate it only with a change that *means* to move a figure.
    """

    GOLDEN = Path(__file__).parent / "golden" / "fig8a_fig8b_fig10_scale_0.0625.txt"
    #: ``fig7a.run(scale=0.01, measure_real=False).show()`` then
    #: ``fig7b.run(scale=0.05).show()``: the simulated rows only, so
    #: Faasm (fig. 7a alone) and the chain models are pinned too.
    GOLDEN_FIG7 = Path(__file__).parent / "golden" / "fig7a_fig7b_sim.txt"

    def test_rendered_tables_match_golden(self, capsys):
        for name in ("fig8a", "fig8b", "fig10"):
            assert bench_main([name, "--scale", "0.0625"]) == 0
        assert capsys.readouterr().out == self.GOLDEN.read_text()

    def test_fig7_simulated_tables_match_golden(self, capsys):
        fig7a.run(scale=0.01, measure_real=False).show()
        fig7b.run(scale=0.05).show()
        assert capsys.readouterr().out == self.GOLDEN_FIG7.read_text()


SIM_STATISTICS = (
    Path(__file__).parent / "golden" / "sim_statistics_scale_0.0625.json"
)


def record_simulated_statistics() -> dict:
    """Every ``Platform.run`` of figs. 7a, 8a, 8b and 10, field by field.

    Floats are kept as ``repr`` so a change in the last bit shows.
    """
    runs: dict = {}
    original = Platform.run

    def recording(platform, graph, *args, **kwargs):
        result = original(platform, graph, *args, **kwargs)
        runs[figure].append({
            "platform": result.platform,
            "makespan": repr(result.makespan),
            "bytes": result.bytes_transferred,
            "messages": result.messages,
            "invocations": result.invocations,
            "core_seconds": {
                state: repr(value) for state, value in
                platform.cluster.accountant.core_seconds().items()
            },
            "task_finish": {
                name: repr(at) for name, at in result.task_finish.items()
            },
        })
        return result

    experiments = (
        ("fig7a", lambda: fig7a.run(scale=0.01, measure_real=False)),
        ("fig8a", lambda: fig8a.run(scale=0.0625)),
        ("fig8b", lambda: fig8b.run(scale=0.0625)),
        ("fig10", lambda: fig10.run(scale=0.0625)),
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Platform, "run", recording)
        for figure, experiment in experiments:
            runs[figure] = []
            experiment()
    return runs


class TestSimulatedStatisticsAreExact:
    """Every simulated statistic, not just what the tables print.

    ``TestGoldenTables`` sees rounded table cells: a change that moves a
    byte count by 64 or a task's finish time by 0.35 s can leave them
    intact.  This pins each run's makespan, bytes, messages,
    invocations, CPU core-seconds per state and every task's finish
    time, floats by ``repr``.  Regenerate it (only with a change that
    means to move the simulation) with
    ``PYTHONPATH=src python tests/test_bench_harness.py``.
    """

    def test_every_run_matches_golden(self):
        golden = json.loads(SIM_STATISTICS.read_text())
        recorded = record_simulated_statistics()
        assert list(recorded) == list(golden)
        for figure, runs in golden.items():
            assert [r["platform"] for r in recorded[figure]] == [
                r["platform"] for r in runs
            ], figure
            for got, want in zip(recorded[figure], runs):
                assert got == want, (figure, want["platform"])


class TestExperimentSmoke:
    """Tiny-scale runs of the cheap experiments (the big ones are covered
    in benchmarks/)."""

    def test_fig7a_without_real_measurement(self):
        result = fig7a.run(scale=0.01, measure_real=False)
        assert set(result.systems()) == set(FIG7A_SECONDS)

    def test_fig7b_short_chain(self):
        result = fig7b.run(scale=0.05)  # 25-link chain
        assert result.value("Ray (nearby)", "roundtrips") == 25

    def test_fig8a_small(self):
        result = fig8a.run(scale=0.0625)  # 64 tasks
        assert result.value("Fix (internal I/O)", "total_ms") > result.value(
            "Fix", "total_ms"
        )

    def test_table2_small(self):
        result = table2.run(scale=0.01, verify_keys=512)
        assert any("Fixpoint" in s for s in result.systems())

    def test_paperdata_consistency(self):
        # The paper's own table: orderings we rely on elsewhere.
        assert FIG8B_SECONDS["Fixpoint"] < FIG8B_SECONDS["Ray (blocking)"]
        ladder = list(FIG7A_SECONDS.values())
        assert ladder == sorted(ladder)


if __name__ == "__main__":
    SIM_STATISTICS.write_text(
        json.dumps(record_simulated_statistics(), indent=1) + "\n"
    )
