"""Tests for the abstract job IR: construction, validation, topology."""

from __future__ import annotations

import pytest

from repro.core.errors import SchedulingError
from repro.dist.graph import CLIENT, JobGraph, TaskSpec


def task(name, inputs=(), output=None, compute=1.0, **kw):
    return TaskSpec(
        name=name,
        fn="fn",
        inputs=tuple(inputs),
        output=output or f"{name}.out",
        output_size=8,
        compute_seconds=compute,
        **kw,
    )


class TestConstruction:
    def test_add_data_and_task(self):
        graph = JobGraph()
        graph.add_data("in", 100, "node0")
        graph.add_task(task("t", ["in"]))
        graph.validate()
        assert graph.data["in"].size == 100
        assert graph.tasks["t"].compute_seconds == 1.0

    def test_duplicate_data_rejected(self):
        graph = JobGraph()
        graph.add_data("x", 1, CLIENT)
        with pytest.raises(SchedulingError):
            graph.add_data("x", 1, CLIENT)

    def test_duplicate_task_rejected(self):
        graph = JobGraph()
        graph.add_task(task("t"))
        with pytest.raises(SchedulingError):
            graph.add_task(task("t"))

    def test_duplicate_output_rejected(self):
        graph = JobGraph()
        graph.add_task(task("a", output="same"))
        with pytest.raises(SchedulingError):
            graph.add_task(task("b", output="same"))

    def test_output_shadowing_data_rejected(self):
        graph = JobGraph()
        graph.add_data("x", 1, CLIENT)
        with pytest.raises(SchedulingError):
            graph.add_task(task("t", output="x"))

    def test_unknown_input_rejected(self):
        graph = JobGraph()
        graph.add_task(task("t", ["ghost"]))
        with pytest.raises(SchedulingError):
            graph.validate()

    def test_negative_sizes_rejected(self):
        with pytest.raises(SchedulingError):
            JobGraph().add_data("x", -1, CLIENT)
        with pytest.raises(SchedulingError):
            task("t", compute=-1.0)

    def test_zero_core_task_rejected(self):
        with pytest.raises(SchedulingError):
            task("t", cores=0)


class TestTopology:
    def _diamond(self):
        graph = JobGraph()
        graph.add_data("in", 10, CLIENT)
        graph.add_task(task("a", ["in"]))
        graph.add_task(task("b", ["a.out"], compute=2.0))
        graph.add_task(task("c", ["a.out"], compute=3.0))
        graph.add_task(task("d", ["b.out", "c.out"]))
        return graph

    def test_dependencies(self):
        graph = self._diamond()
        deps = graph.dependencies(graph.tasks["d"])
        assert sorted(deps) == ["b", "c"]
        assert graph.dependencies(graph.tasks["a"]) == []

    def test_topological_order(self):
        order = [t.name for t in self._diamond().topological_order()]
        assert order.index("a") < order.index("b")
        assert order.index("a") < order.index("c")
        assert order.index("b") < order.index("d")
        assert order.index("c") < order.index("d")

    def test_cycle_detected(self):
        graph = JobGraph()
        graph.add_task(task("a", ["b.out"]))
        graph.add_task(task("b", ["a.out"]))
        with pytest.raises(SchedulingError):
            graph.topological_order()

    def test_critical_path(self):
        """The last finish of the schedule is the critical path."""
        graph = self._diamond()
        # a(1) -> c(3) -> d(1) = 5 seconds.
        assert max(end for _, _, end in graph.schedule()) == pytest.approx(5.0)
        assert list(JobGraph().schedule()) == []

    def test_schedule_starts_each_task_when_its_last_dependency_ends(self):
        spans = {
            task.name: (start, finish)
            for task, start, finish in self._diamond().schedule()
        }
        assert spans == {
            "a": (0.0, 1.0),
            "b": (1.0, 3.0),
            "c": (1.0, 4.0),
            "d": (4.0, 5.0),
        }

    def test_producer_of(self):
        producers = self._diamond().producers()
        assert producers["b.out"] == "b"
        assert "in" not in producers

    def test_producers_cache_stays_fresh(self):
        graph = JobGraph()
        graph.add_task(task("a"))
        assert graph.producers() == {"a.out": "a"}
        graph.add_task(task("b"))
        assert graph.producers()["b.out"] == "b"
