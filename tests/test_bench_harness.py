"""Tests for the experiment harness and small-scale experiment smoke runs."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench import fig7a, fig7b, fig8a, table2
from repro.bench.__main__ import main as bench_main
from repro.bench.harness import (
    ExperimentResult,
    factor,
    factor_within,
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
        assert factor_within(sample, "time_s", "slow", "fast", 5, 20)
        assert not factor_within(sample, "time_s", "slow", "fast", 11, 20)

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

    The file is the stdout of ``python -m repro.bench {fig8a,fig8b,fig10}
    --scale 0.0625`` (in that order).  The simulation is deterministic, so
    any change to event order, CPU-state accounting (the ``iowait_pct`` /
    ``waiting_pct`` columns) or bytes moved shows up as a byte diff.
    Regenerate it only with a change that *means* to move a figure.
    """

    GOLDEN = Path(__file__).parent / "golden" / "fig8a_fig8b_fig10_scale_0.0625.txt"

    def test_rendered_tables_match_golden(self, capsys):
        for name in ("fig8a", "fig8b", "fig10"):
            assert bench_main([name, "--scale", "0.0625"]) == 0
        assert capsys.readouterr().out == self.GOLDEN.read_text()


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
        result = table2.run(scale=0.01, verify_keys=512, verify_arity=8)
        assert any("Fixpoint" in s for s in result.systems())

    def test_paperdata_consistency(self):
        # The paper's own table: orderings we rely on elsewhere.
        assert FIG8B_SECONDS["Fixpoint"] < FIG8B_SECONDS["Ray (blocking)"]
        ladder = list(FIG7A_SECONDS.values())
        assert ladder == sorted(ladder)
