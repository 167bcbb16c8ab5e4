"""Tests for the evaluation workloads (real codelets + graph builders)."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import CodeletError, SchedulingError
from repro.dist.graph import CLIENT, EXTERNAL, JobGraph, TaskSpec
from repro.fixpoint.runtime import Fixpoint
from repro.workloads.bptree import (
    build_bptree,
    compile_get,
    lookup,
    sample_queries,
)
from repro.workloads.chain import build_chain, run_chain
from repro.workloads.compilejob import (
    HEADERS,
    build_compile_graph,
    compile_project,
    make_source,
)
from repro.workloads.corpus import declare_shards, make_corpus, make_shard, reference_count
from repro.workloads.oneoff import build_oneoff_graph
from repro.workloads.titles import make_titles
from repro.workloads.wordcount import (
    COUNT_TASK_MEMORY,
    build_wordcount_graph,
    count_corpus,
    count_tree,
    map_only_graph,
)


class TestCorpus:
    def test_shard_size_exact(self):
        assert len(make_shard(1000, seed=1)) == 1000

    def test_determinism(self):
        assert make_shard(500, seed=9) == make_shard(500, seed=9)
        assert make_shard(500, seed=9) != make_shard(500, seed=10)

    def test_reference_count(self):
        shards = [b"the cat the dog", b"the end"]
        assert reference_count(shards, b"the") == 3

    def test_declared_shards_scatter(self):
        nodes = [f"node{i}" for i in range(10)]
        shards = declare_shards(200, 100, nodes, seed=1)
        used = {s.location for s in shards}
        assert len(used) == 10
        assert all(s.size == 100 for s in shards)


class TestWordcount:
    def test_matches_reference(self, fixpoint):
        shards = make_corpus(6, 3000, seed=5)
        got = count_corpus(fixpoint, shards, b"the")
        assert got == reference_count(shards, b"the")

    def test_non_overlapping_semantics(self, fixpoint):
        # bytes.count is non-overlapping, like the paper's counter.
        assert count_corpus(fixpoint, [b"aaaa"], b"aa") == 2

    def test_odd_shard_count(self, fixpoint):
        shards = make_corpus(7, 1000, seed=2)
        assert count_corpus(fixpoint, shards, b"of") == reference_count(shards, b"of")

    def test_single_shard(self, fixpoint):
        shards = make_corpus(1, 2000, seed=3)
        assert count_corpus(fixpoint, shards, b"a") == reference_count(shards, b"a")

    def test_graph_shape(self):
        shards = declare_shards(10, 100, ["node0"], seed=1)
        graph = build_wordcount_graph(shards)
        counts = [t for t in graph.tasks.values() if t.fn == "count-string"]
        merges = [t for t in graph.tasks.values() if t.fn == "merge-counts"]
        assert len(counts) == 10
        assert len(merges) == 9  # binary reduction of 10 leaves
        graph.validate()

    def test_map_only_graph(self):
        shards = declare_shards(10, 100, ["node0"], seed=1)
        graph = map_only_graph(shards)
        assert len(graph.tasks) == 10

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=2, max_value=12))
    def test_merge_tree_counts_property(self, n):
        shards = declare_shards(n, 100, ["node0"], seed=1)
        graph = build_wordcount_graph(shards)
        merges = [t for t in graph.tasks.values() if t.fn == "merge-counts"]
        assert len(merges) == n - 1  # any binary reduction needs n-1 merges


class TestChain:
    @pytest.mark.parametrize("length", [1, 2, 50, 500])
    def test_chain_result(self, fixpoint, length):
        assert run_chain(fixpoint, length) == length

    def test_chain_is_one_object_graph(self, fixpoint):
        handle = build_chain(fixpoint, 25)
        assert handle.is_encode  # a single evaluable object


class TestBPTree:
    def test_all_keys_found(self, fixpoint):
        titles = make_titles(300, seed=4)
        tree = build_bptree(fixpoint, titles, [b"v" + t for t in titles], 8)
        get_fn = compile_get(fixpoint)
        for key in titles[::23]:
            assert lookup(fixpoint, tree, get_fn, key) == b"v" + key

    def test_absent_key(self, fixpoint):
        titles = make_titles(100, seed=4)
        tree = build_bptree(fixpoint, titles, titles, 8)
        get_fn = compile_get(fixpoint)
        assert lookup(fixpoint, tree, get_fn, b"~~~nope") == b""
        assert lookup(fixpoint, tree, get_fn, b"") == b""

    def test_flat_tree(self, fixpoint):
        titles = make_titles(50, seed=1)
        tree = build_bptree(fixpoint, titles, titles, arity=64)
        assert tree.depth == 0
        get_fn = compile_get(fixpoint)
        assert lookup(fixpoint, tree, get_fn, titles[10]) == titles[10]

    def test_invocations_equal_levels(self, fixpoint):
        titles = make_titles(512, seed=2)
        tree = build_bptree(fixpoint, titles, titles, arity=8)
        get_fn = compile_get(fixpoint)
        before = fixpoint.trace.invocation_count("bptree-get")
        lookup(fixpoint, tree, get_fn, titles[100])
        after = fixpoint.trace.invocation_count("bptree-get")
        assert after - before == tree.levels  # Table 2: d invocations

    def test_unsorted_keys_rejected(self, fixpoint):
        with pytest.raises(ValueError):
            build_bptree(fixpoint, [b"b", b"a"], [b"1", b"2"], 4)

    def test_mismatched_values_rejected(self, fixpoint):
        with pytest.raises(ValueError):
            build_bptree(fixpoint, [b"a"], [], 4)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=2, max_value=32), st.integers(min_value=10, max_value=200))
    def test_lookup_equals_dict_property(self, arity, n):
        fp = Fixpoint()
        titles = make_titles(n, seed=6)
        values = [b"=" + t for t in titles]
        tree = build_bptree(fp, titles, values, arity)
        get_fn = compile_get(fp)
        reference = dict(zip(titles, values))
        for key in sample_queries(titles, 3, seed=n):
            assert lookup(fp, tree, get_fn, key) == reference[key]


class TestTitles:
    def test_unique_and_sorted(self):
        titles = make_titles(500)
        assert titles == sorted(set(titles))

    def test_mean_length_near_paper(self):
        titles = make_titles(3000)
        assert 18 <= sum(map(len, titles)) / len(titles) <= 26  # paper: ~22


class TestCompileJob:
    def test_pipeline_produces_executable(self, fixpoint):
        sources = [make_source(i, list(range(i))) for i in range(5)]
        exe = fixpoint.repo.get_blob(
            compile_project(fixpoint, sources, HEADERS)
        ).data
        assert exe.startswith(b"EXE\n")
        for i in range(5):
            assert f"fn_{i}".encode() in exe

    def test_headers_satisfy_externs(self, fixpoint):
        sources = [make_source(0, []) + b"\ncall printf"]
        exe = compile_project(fixpoint, sources, HEADERS + b"\nextern int printf;")
        assert fixpoint.repo.get_blob(exe).data.startswith(b"EXE")

    def test_undefined_symbol_fails_at_link(self, fixpoint):
        sources = [make_source(0, [99])]  # calls fn_99, defined nowhere
        with pytest.raises(CodeletError) as excinfo:
            compile_project(fixpoint, sources, HEADERS)
        assert "undefined" in str(excinfo.value)

    def test_duplicate_symbol_fails_at_link(self, fixpoint):
        sources = [make_source(0, []), make_source(0, [])]
        with pytest.raises(CodeletError) as excinfo:
            compile_project(fixpoint, sources, HEADERS)
        assert "duplicate" in str(excinfo.value)

    def test_graph_shape(self):
        graph = build_compile_graph(tu_count=50)
        graph.validate()
        assert len(graph.tasks) == 51  # 50 compiles + 1 link
        link = graph.tasks["link"]
        assert len(link.inputs) == 50
        assert graph.data["headers"].location == CLIENT

    def test_graph_compile_times_are_long_tailed(self):
        graph = build_compile_graph(tu_count=300)
        times = sorted(
            t.compute_seconds for t in graph.tasks.values() if t.fn == "libclang"
        )
        assert times[-1] > 2 * times[len(times) // 2]  # max >> median


class TestOneoff:
    def test_graph_shape(self):
        graph = build_oneoff_graph(tasks=16)
        graph.validate()
        assert len(graph.tasks) == 16
        assert all(d.location == EXTERNAL for d in graph.data.values())
        assert all(t.memory_bytes == 10**9 for t in graph.tasks.values())


# ----------------------------------------------------------------------
# The fig. 8b and fig. 10 graphs written out task by task: the oracle
# TestOneProgramTwoDrivers compares the graphs read off the trees with.


def _reference_wordcount(shards, task_memory=1 << 30, map_only=False):
    rng = random.Random(97)
    graph = JobGraph()
    level = []
    for spec in shards:
        graph.add_data(spec.name, spec.size, spec.location)
        base = spec.size / 0.157e9
        task = TaskSpec(
            name=f"count:{spec.name}",
            fn="count-string",
            inputs=(spec.name,),
            output=f"cnt:{spec.name}",
            output_size=8,
            compute_seconds=base * (1.0 + 0.30 * (2 * rng.random() - 1)),
            memory_bytes=task_memory,
        )
        graph.add_task(task)
        level.append(task.output)
    merge_index = 0
    while len(level) > 1 and not map_only:
        next_level = []
        for i in range(0, len(level) - 1, 2):
            task = TaskSpec(
                name=f"merge:{merge_index}",
                fn="merge-counts",
                inputs=(level[i], level[i + 1]),
                output=f"mrg:{merge_index}",
                output_size=8,
                compute_seconds=2e-6,
                memory_bytes=64 << 20,
            )
            graph.add_task(task)
            next_level.append(task.output)
            merge_index += 1
        if len(level) % 2:
            next_level.append(level[-1])
        level = next_level
    return graph


def _reference_compile(tu_count, seed):
    rng = random.Random(seed)
    graph = JobGraph()
    graph.add_data("headers", 45 << 20, CLIENT)
    objects = []
    for i in range(tu_count):
        src_name = f"src-{i:04d}.c"
        size = max(2 << 10, int(rng.lognormvariate(0, 0.6) * (30 << 10)))
        graph.add_data(src_name, size, CLIENT)
        compute = max(0.3, rng.lognormvariate(0, 0.45) * 2.6)
        task = TaskSpec(
            name=f"cc-{i:04d}",
            fn="libclang",
            inputs=(src_name, "headers"),
            output=f"obj-{i:04d}.o",
            output_size=96 << 10,
            compute_seconds=compute,
            memory_bytes=1 << 30,
        )
        graph.add_task(task)
        objects.append(task.output)
    graph.add_task(
        TaskSpec(
            name="link",
            fn="liblld",
            inputs=tuple(objects),
            output="project.exe",
            output_size=64 << 20,
            compute_seconds=7.0,
            memory_bytes=8 << 30,
        )
    )
    return graph


def _items(graph):
    """Data and tasks, in order."""
    return list(graph.data.items()), list(graph.tasks.items())


def _numbered():
    """A labeller naming tasks by the order ``from_encode`` asks in."""
    order = itertools.count()

    def label(fn, inputs):
        index = next(order)
        return f"{fn}:{index}", f"out:{index}", 1.0

    return label


def _evaluated(fp, monkeypatch):
    """The handles ``fp.eval`` is asked for, in order."""
    asked = []
    evaluate = fp.eval
    monkeypatch.setattr(fp, "eval", lambda handle: asked.append(handle) or evaluate(handle))
    return asked


class TestOneProgramTwoDrivers:
    """Fig. 8b's and fig. 10's simulated jobs are read off the thunk
    trees the runtime evaluates, and equal the hand-built graphs they
    replaced, data and tasks in order."""

    NODES = [f"node{i}" for i in range(10)]

    @pytest.mark.parametrize("seed", [1, 42, 2024])
    @pytest.mark.parametrize("count", [1, 2, 7, 123, 984])
    def test_wordcount_graphs_are_the_hand_built_ones(self, count, seed):
        shards = declare_shards(count, 100 << 20, self.NODES, seed=seed)
        assert _items(build_wordcount_graph(shards)) == _items(_reference_wordcount(shards))
        assert _items(map_only_graph(shards)) == _items(
            _reference_wordcount(shards, map_only=True)
        )
        assert _items(build_wordcount_graph(shards, task_memory=8 << 30)) == _items(
            _reference_wordcount(shards, task_memory=8 << 30)
        )

    @pytest.mark.parametrize("seed", [11, 3, 97])
    @pytest.mark.parametrize("tu_count", [1, 248, 1987])
    def test_compile_graph_is_the_hand_built_one(self, tu_count, seed):
        assert _items(build_compile_graph(tu_count=tu_count, seed=seed)) == _items(
            _reference_compile(tu_count, seed)
        )

    def test_count_corpus_evaluates_the_tree_it_schedules(self, fixpoint, monkeypatch):
        shards = make_corpus(7, 1000, seed=2)
        asked = _evaluated(fixpoint, monkeypatch)
        assert count_corpus(fixpoint, shards, b"of") == reference_count(shards, b"of")
        (root,) = asked
        stored = [fixpoint.repo.put_blob(shard) for shard in shards]
        data = {handle: (f"shard-{i}", "node0") for i, handle in enumerate(stored)}
        reads = []
        get_tree = fixpoint.repo.get_tree
        monkeypatch.setattr(
            fixpoint.repo, "get_tree", lambda handle: reads.append(handle) or get_tree(handle)
        )
        # A root named twice is still one job, each application parsed once.
        graph = JobGraph.from_encode(fixpoint.repo, [root, root], data, _numbered())
        graph.validate()
        counts = [t for t in graph.tasks.values() if t.fn == "count-string"]
        merges = [t for t in graph.tasks.values() if t.fn == "merge-counts"]
        assert (len(counts), len(merges), len(reads)) == (7, 6, 13)
        assert [d.size for d in graph.data.values()] == [len(s) for s in shards]
        # The needle is a literal: it rides in the handle, not as an input.
        assert [t.inputs for t in counts] == [(f"shard-{i}",) for i in range(7)]
        assert {(t.memory_bytes, t.output_size) for t in counts} == {(COUNT_TASK_MEMORY, 8)}
        assert merges[-1].inputs == (merges[-3].output, merges[-2].output)

    def test_compile_project_evaluates_the_tree_it_schedules(self, fixpoint, monkeypatch):
        sources = [make_source(i, [j for j in range(7) if j != i]) for i in range(7)]
        headers = HEADERS + b"\n/* the system and clang headers */"
        asked = _evaluated(fixpoint, monkeypatch)
        exe = fixpoint.repo.get_blob(compile_project(fixpoint, sources, headers)).data
        assert exe == b"EXE\n" + "\n".join(f"fn_{i}" for i in range(7)).encode()
        (root,) = asked
        data = {fixpoint.repo.put_blob(headers): ("headers", CLIENT)}
        for i, source in enumerate(sources):
            data[fixpoint.repo.put_blob(source)] = (f"src-{i}", CLIENT)
        graph = JobGraph.from_encode(fixpoint.repo, [root], data, _numbered())
        graph.validate()
        assert [t.fn for t in graph.tasks.values()] == ["libclang"] * 7 + ["liblld"]
        assert [d.size for d in graph.data.values()] == [len(headers)] + list(
            map(len, sources)
        )
        link = graph.tasks["liblld:7"]
        assert link.inputs == tuple(f"out:{i}" for i in range(7))
        assert (link.memory_bytes, link.output_size) == (8 << 30, 64 << 20)

    def test_a_deep_tree_is_read_without_recursion(self, fixpoint):
        root = build_chain(fixpoint, 3000)  # nested increments over a literal 0
        graph = JobGraph.from_encode(fixpoint.repo, [root], {}, _numbered())
        assert len(graph.tasks) == 3000 and not graph.data
        assert [t.inputs for t in list(graph.tasks.values())[:2]] == [(), ("out:0",)]

    def test_an_undeclared_datum_is_named(self, fixpoint):
        shards = [fixpoint.repo.put_blob(bytes([65 + i]) * 100) for i in range(3)]
        needle = fixpoint.repo.put_blob(b"A")
        tree = count_tree(fixpoint, shards, needle, COUNT_TASK_MEMORY)
        data = {shards[0]: ("a", "node0"), shards[2]: ("c", "node0")}
        with pytest.raises(SchedulingError, match=shards[1].digest[:4].hex()):
            JobGraph.from_encode(fixpoint.repo, tree[-1:], data, _numbered())
