"""Tests for repro.obs: metrics registry, causal tracing, and the
cross-node span propagation the wire frames carry (ISSUE 6).

The cross-node tests are the acceptance criterion made executable: a
two-node delegation must produce ONE stitched trace whose dispatch,
serve, and absorb spans share a trace_id carried inside the request and
reply frames - including the error-frame path, where the peer's failing
serve span still rides home inside the error reply.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.baselines.calibration import RAY_PULL_BW
from repro.baselines.ray import RayPlatform
from repro.codelets.stdlib import blob_int, int_blob
from repro.core.errors import FixError, SchedulingError
from repro.dist.engine import FixpointSim
from repro.dist.graph import EXTERNAL, JobGraph, TaskSpec
from repro.fixpoint.net import FixpointNode, NetworkError, RemoteEvalError
from repro.obs import (
    NULL_CONTEXT,
    NULL_OBS,
    MetricsError,
    MetricsRegistry,
    NullRegistry,
    Obs,
    SpanContext,
    Tracer,
    stitch,
)
from repro.sim.engine import Simulator
from repro.sim.stats import CpuAccountant

#: A codelet whose remote evaluation always fails - exercises the error
#: reply frame, which must still carry the serve span's context home.
KABOOM_SOURCE = (
    "def _fix_apply(fix, input):\n"
    "    raise ValueError('kaboom')\n"
)


@pytest.fixture
def pair():
    a = FixpointNode("alpha")
    b = FixpointNode("beta")
    a.connect(b)
    return a, b


def add_encode(node, x, y):
    repo = node.repo
    fn = node.runtime.stdlib["add_u8"]
    return node.runtime.invoke(
        fn, [repo.put_blob(int_blob(x, 1)), repo.put_blob(int_blob(y, 1))]
    ).wrap_strict()


# ----------------------------------------------------------------------
# Metrics registry


class TestCounter:
    def test_labeled_series(self):
        reg = MetricsRegistry(name="t")
        c = reg.counter("requests_total")
        c.inc(peer="beta")
        c.inc(2, peer="gamma")
        c.inc(peer="beta")
        assert c.value(peer="beta") == 2
        assert c.value(peer="gamma") == 2
        assert c.total() == 4
        assert c.total(peer="beta") == 2

    def test_counters_cannot_decrease(self):
        reg = MetricsRegistry(name="t")
        with pytest.raises(MetricsError):
            reg.counter("c").inc(-1)

    def test_get_or_create_same_object(self):
        reg = MetricsRegistry(name="t")
        assert reg.counter("c") is reg.counter("c")

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry(name="t")
        reg.counter("x")
        with pytest.raises(MetricsError):
            reg.gauge("x")


class TestGauge:
    def test_value_reads_the_callback(self):
        reg = MetricsRegistry(name="t")
        g = reg.gauge("depth")
        assert g.value() == 0.0  # nothing registered
        g.set_function(lambda: 2, peer="x")
        assert g.value(peer="x") == 2.0
        assert g.value() == 0.0

    def test_callback_sampled_at_export(self):
        """set_function gauges read live structures only when exported -
        nothing is pushed on the hot path."""
        reg = MetricsRegistry(name="t")
        live = [1, 2, 3]
        reg.gauge("len").set_function(lambda: len(live))
        assert reg.export()["gauges"]["len"][0]["value"] == 3
        live.append(4)
        assert reg.export()["gauges"]["len"][0]["value"] == 4


class TestHistogram:
    def test_observe_and_quantile(self):
        reg = MetricsRegistry(name="t")
        h = reg.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == pytest.approx(6.05)
        # One count per bucket, the last for +Inf.
        assert h.export()[0]["counts"] == [1, 2, 1, 0]

    def test_timer_uses_registry_clock(self):
        ticks = iter([10.0, 17.5])
        reg = MetricsRegistry(name="t", clock=lambda: next(ticks))
        h = reg.histogram("dur", buckets=(1.0, 10.0))
        with h.time():
            pass
        assert h.sum() == pytest.approx(7.5)


class TestRegistry:
    def test_export_shape_and_json(self):
        reg = MetricsRegistry(name="node0")
        reg.counter("c").inc(peer="x")
        reg.gauge("g").set_function(lambda: 1.5)
        reg.histogram("h").observe(0.01)
        snap = reg.export()
        assert snap["name"] == "node0"
        assert set(snap) >= {"counters", "gauges", "histograms"}
        json.dumps(snap)  # must be JSON-serializable as-is

    def test_null_registry_is_inert(self):
        reg = NullRegistry()
        reg.counter("c").inc(peer="x")
        reg.gauge("g").set_function(lambda: 9)
        with reg.histogram("h").time():
            pass
        snap = reg.export()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}


def _sorted_key(labels):
    """The series key every family built before keys were remembered."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class TestSeriesKeyIsBuiltOnce:
    """A family remembers the series key of each all-``str`` label set;
    every label set still lands on the series the sorted key names."""

    NAMES = ("peer", "kind", "role")
    VALUES = ("1", 1, True, 1.0, "True", "1.0", 0, False, "0", "a", "b",
              2.5, None, "None")
    OPS = ("inc", "sample", "observe", "time", "read")

    def _soup(self, seed, n=600):
        """Seeded calls: 0-3 labels in a random keyword order, values of
        mixed types that collide as dict keys, now and then a list."""
        rng = random.Random(seed)
        calls = []
        for _ in range(n):
            names = rng.sample(self.NAMES, rng.randint(0, 3))
            labels = {name: rng.choice(self.VALUES) for name in names}
            if names and rng.random() < 0.05:
                labels[rng.choice(names)] = [rng.randint(0, 2)]
            calls.append((rng.choice(self.OPS), rng.randint(0, 9), labels))
        return calls

    def _drive(self, calls, reference):
        ticks = iter(range(10**6))
        registry = MetricsRegistry(clock=lambda: float(next(ticks)))
        counter = registry.counter("c")
        gauge = registry.gauge("g")
        histogram = registry.histogram("h")
        if reference:
            for family in (counter, gauge, histogram):
                family._key = _sorted_key
        reads = []
        for op, value, labels in calls:
            if op == "inc":
                counter.inc(value, **labels)
            elif op == "sample":
                gauge.set_function(lambda value=value: value, **labels)
            elif op == "observe":
                histogram.observe(value / 10, **labels)
            elif op == "time":
                with histogram.time(**labels):
                    pass
            else:
                reads.append(
                    (
                        counter.value(**labels),
                        gauge.value(**labels),
                        histogram.count(**labels),
                        histogram.sum(**labels),
                    )
                )
        return registry.export(), reads

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_label_soup_exports_as_the_sorted_key(self, seed):
        calls = self._soup(seed)
        assert self._drive(calls, False) == self._drive(calls, True)

    def test_equal_keys_of_other_types_stay_apart(self):
        counter = MetricsRegistry().counter("c")
        for value in ("1", 1, True, 1.0, "1", 1, True, 1.0):
            counter.inc(peer=value)
        assert [s["labels"]["peer"] for s in counter.export()] == [
            "1", "1.0", "True"
        ]
        assert counter.value(peer="1") == 4.0
        assert counter.value(peer=True) == 2.0
        assert counter.value(peer=1.0) == 2.0

    def test_keyword_order_names_one_series(self):
        counter = MetricsRegistry().counter("c")
        counter.inc(peer="x", role="caller")
        counter.inc(role="caller", peer="x")
        assert counter.export() == [
            {"labels": {"peer": "x", "role": "caller"}, "value": 2.0}
        ]


# ----------------------------------------------------------------------
# Tracing


class TestSpanContext:
    def test_pack_unpack_roundtrip(self):
        ctx = SpanContext(0xDEADBEEF12345678, 0x42)
        wire = b"prefix" + ctx.pack() + b"suffix"
        out, offset = SpanContext.unpack(wire, 6)
        assert out == ctx
        assert offset == 6 + 16
        assert wire[offset:] == b"suffix"

    def test_null_context_is_falsy(self):
        assert not NULL_CONTEXT
        assert SpanContext(1, 1)


class TestTracer:
    def test_root_span_starts_its_trace(self):
        tracer = Tracer("node0")
        span = tracer.start("work")
        assert span.trace_id == span.span_id
        assert not span.parent_id

    def test_child_inherits_trace(self):
        tracer = Tracer("node0")
        root = tracer.start("parent")
        child = tracer.start("child", parent=root.context)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id

    def test_context_manager_marks_errors(self):
        tracer = Tracer("node0")
        with pytest.raises(RuntimeError):
            with tracer.start("boom"):
                raise RuntimeError("no")
        (span,) = tracer.spans
        assert span.status == "error"
        assert "RuntimeError" in span.error

    def test_span_ids_are_deterministic(self):
        names = [Tracer("node0").start("a").span_id for _ in range(2)]
        assert names[0] == names[1]


# ----------------------------------------------------------------------
# Cross-node propagation: the acceptance criterion


class TestCrossNodeTracing:
    def test_delegation_stitches_one_trace(self, pair):
        a, b = pair
        result = a.delegate("beta", add_encode(a, 20, 22))
        assert blob_int(a.repo.get_blob(result).data) == 42

        # connect()'s inventory exchange leaves its own gossip trace;
        # the delegation must form exactly one stitched trace of its own.
        traces = stitch(a.obs.tracer, b.obs.tracer)
        delegation = [
            spans
            for spans in traces.values()
            if any(s.name.startswith("delegate.") for s in spans)
        ]
        assert len(delegation) == 1
        spans = delegation[0]
        assert [(s.name, s.node) for s in spans] == [
            ("delegate.dispatch", "alpha"),
            ("delegate.serve", "beta"),
            ("delegate.absorb", "alpha"),
        ]
        dispatch, serve, absorb = spans
        # Causality crossed the wire in both directions: the request
        # frame parented the remote serve, the reply frame parented the
        # local absorb under the *serve* span (not the dispatch).
        assert serve.parent_id == dispatch.span_id
        assert absorb.parent_id == serve.span_id
        assert all(s.done for s in spans)
        assert all(s.status == "ok" for s in spans)

    def test_error_frame_still_carries_trace(self, pair):
        a, b = pair
        fn = a.runtime.compile(KABOOM_SOURCE, "kaboom")
        encode = a.runtime.invoke(
            fn, [a.repo.put_blob(int_blob(1, 1))]
        ).wrap_strict()
        with pytest.raises(RemoteEvalError):
            a.delegate("beta", encode)

        traces = stitch(a.obs.tracer, b.obs.tracer)
        delegation = [
            spans
            for spans in traces.values()
            if any(s.name.startswith("delegate.") for s in spans)
        ]
        assert len(delegation) == 1
        by_name = {s.name: s for s in delegation[0]}
        serve = by_name["delegate.serve"]
        absorb = by_name["delegate.absorb"]
        assert serve.node == "beta" and serve.status == "error"
        assert absorb.node == "alpha" and absorb.status == "error"
        # The error reply carried beta's serve context home: alpha's
        # absorb span is parented under the remote failure.
        assert absorb.parent_id == serve.span_id
        assert absorb.trace_id == by_name["delegate.dispatch"].trace_id

    def test_gossip_round_stitches_across_nodes(self, pair):
        a, b = pair
        a.repo.put_blob(b"only alpha has this")
        a.gossip_with("beta")

        traces = stitch(a.obs.tracer, b.obs.tracer)
        gossip = [
            spans
            for spans in traces.values()
            if any(s.name == "gossip.round" for s in spans)
        ]
        # connect() gossips too; at least one round must stitch both sides.
        assert any(
            ("gossip.round", "alpha") in names and ("gossip.serve", "beta") in names
            for names in ({(s.name, s.node) for s in spans} for spans in gossip)
        )

    def test_gossip_spans_say_how_much_the_refresh_stamped(self, pair):
        """``stamped`` separates a round slow because of news from one
        slow because of the store: 0 on a converged round, k after k puts
        (on whichever side put them)."""
        a, b = pair

        def last_round():
            caller = [s for s in a.obs.tracer.spans if s.name == "gossip.round"]
            server = [s for s in b.obs.tracer.spans if s.name == "gossip.serve"]
            return caller[-1].attrs, server[-1].attrs

        a.gossip_with("beta")
        caller, server = last_round()
        assert (caller["stamped"], server["stamped"]) == (0, 0)
        assert (caller["entries_in"], caller["entries_out"]) == (0, 0)

        for i in range(3):
            a.repo.put_blob(b"alpha's news %d" % i * 8)
        b.repo.put_tree([b.repo.put_blob(b"x")])
        a.gossip_with("beta")
        caller, server = last_round()
        assert (caller["stamped"], server["stamped"]) == (3, 1)
        assert (caller["entries_out"], server["entries_out"]) == (3, 1)

        a.gossip_with("beta")
        caller, server = last_round()
        assert (caller["stamped"], server["stamped"]) == (0, 0)

    def test_dispatch_span_says_what_it_named_and_what_it_shipped(self, pair):
        """``footprint`` beside ``handles_shipped`` separates a dispatch
        slow because of what it named from one slow because of the store:
        a three-key encode (tree, codelet, argument) whose codelet the
        peer advertised at ``connect`` ships the other two."""
        a, b = pair
        payload = b"x" * 64
        encode = a.runtime.invoke(
            a.runtime.stdlib["identity"], [a.repo.put_blob(payload)]
        ).wrap_strict()
        assert a.repo.get_blob(a.delegate_best(encode)).data == payload
        (dispatch,) = [
            s for s in a.obs.tracer.spans if s.name == "delegate.dispatch"
        ]
        attrs = dispatch.attrs
        assert (attrs["footprint"], attrs["handles_shipped"]) == (3, 2)

    def test_delegation_metrics_flow(self, pair):
        a, b = pair
        a.delegate("beta", add_encode(a, 1, 2))
        a_reg, b_reg = a.obs.registry, b.obs.registry
        assert a_reg.counter("delegations_sent_total").value(peer="beta") == 1
        assert b_reg.counter("delegations_served_total").value(peer="alpha") == 1
        assert a_reg.counter("net_bytes_total").total() > 64
        # transit latency was timed on the caller side (request + reply)
        transit = a_reg.export()["histograms"]["net_transit_seconds"]
        assert sum(series["count"] for series in transit) >= 2


class TestFailedWireSpansEndInError:
    """A gossip round or a dispatch that raises ends its span ``error``,
    with the error text: never left open and marked ``ok``."""

    def _last(self, node, name):
        return [s for s in node.obs.tracer.spans if s.name == name][-1]

    def _assert_failed(self, span, text):
        assert span.done
        assert span.status == "error"
        assert text in span.error

    def test_round_with_a_crashed_peer(self, pair):
        a, b = pair
        b.crash()
        with pytest.raises(NetworkError, match="closed"):
            a.gossip_with("beta")
        self._assert_failed(self._last(a, "gossip.round"), "closed")

    def test_dispatch_to_a_crashed_peer(self, pair):
        a, b = pair
        b.crash()
        with pytest.raises(NetworkError, match="closed"):
            a.delegate_async("beta", add_encode(a, 1, 2))
        self._assert_failed(self._last(a, "delegate.dispatch"), "closed")

    def test_round_that_refuses_a_short_ack(self, pair):
        a, b = pair
        real_serve = b._serve_gossip_syn

        def short_ack(wire):
            ack_wire, ack_seq = real_serve(wire)
            return ack_wire[:-1], ack_seq

        b._serve_gossip_syn = short_ack
        try:
            with pytest.raises(FixError) as refused:
                a.gossip_with("beta")
        finally:
            b._serve_gossip_syn = real_serve
        self._assert_failed(self._last(a, "gossip.round"), str(refused.value))
        # The refused ACK left its delivery window: the next round is ok.
        a.gossip_with("beta")
        assert self._last(a, "gossip.round").status == "ok"


# ----------------------------------------------------------------------
# Determinism: sim-clocked metrics are bit-identical under replay


def _simulated_snapshot(seed: int) -> str:
    platform = FixpointSim.build(nodes=3, cores=4, seed=seed)
    graph = JobGraph()
    for i in range(6):
        graph.add_data(f"x{i}", (i + 1) << 10, f"node{i % 3}")
        graph.add_task(
            TaskSpec(
                name=f"t{i}",
                fn="f",
                inputs=(f"x{i}",),
                output=f"t{i}.out",
                output_size=128,
                compute_seconds=0.05,
            )
        )
    platform.run(graph)
    return json.dumps(platform.obs.export(), sort_keys=True)


class TestSimDeterminism:
    def test_seeded_replay_is_bit_identical(self):
        assert _simulated_snapshot(7) == _simulated_snapshot(7)

    def test_sim_metrics_actually_populated(self):
        snap = json.loads(_simulated_snapshot(7))
        counters = snap["metrics"]["counters"]
        histograms = snap["metrics"]["histograms"]
        assert counters["scheduler_placements_total"]
        assert histograms["scheduler_place_seconds"][0]["count"] > 0


# ----------------------------------------------------------------------
# CpuAccountant.track survives raising activities


class TestCpuAccountantTrack:
    def test_raising_activity_still_charged(self):
        sim = Simulator()
        acct = CpuAccountant(sim)

        def activity():
            with acct.track("m0", "user", cores=2):
                yield sim.timeout(5.0)
                raise RuntimeError("activity died")

        proc = sim.process(activity())
        sim.run()
        assert not proc.ok  # the failure still propagates to waiters
        # ... but the 2 cores x 5 s actually held were accounted.
        assert acct.core_seconds()["user"] == pytest.approx(10.0)

    def test_fetch_failing_mid_wait_still_charges_iowait(self):
        """A blocking Ray worker claims 2 cores, pulls a peer-held input
        (time passes), then fails on an EXTERNAL one with no storage
        service.  The reservation is released, and the iowait the cores
        held until then is on the books (a stopwatch read after the wait
        never ran, leaving 0)."""
        size = 64 << 20
        platform = RayPlatform.build(nodes=2, style="blocking")
        graph = JobGraph()
        # One input per node: wherever the task lands, one is a peer's.
        graph.add_data("held0", size, "node0")
        graph.add_data("held1", size, "node1")
        graph.add_data("ext", 1 << 20, EXTERNAL)
        graph.add_task(
            TaskSpec(
                name="t",
                fn="f",
                inputs=("held0", "held1", "ext"),
                output="t.out",
                output_size=8,
                compute_seconds=0.01,
                cores=2,
            )
        )
        with pytest.raises(SchedulingError):
            platform.run(graph)
        cluster = platform.cluster
        assert all(m.cores.in_use == 0 for m in cluster.machines.values())
        busy = cluster.accountant.core_seconds()
        assert busy["iowait"] >= 2 * size / RAY_PULL_BW
        assert busy["user"] == 0.0


# ----------------------------------------------------------------------
# Obs facade


class TestObs:
    def test_export_includes_traces(self, pair):
        a, _ = pair
        a.delegate("beta", add_encode(a, 3, 4))
        snap = a.obs.export()
        assert snap["name"] == "alpha"
        assert snap["metrics"]["counters"]
        assert any(s["name"] == "delegate.dispatch" for s in snap["spans"])
        json.dumps(snap)

    def test_summary_renders_text(self, pair):
        a, _ = pair
        a.delegate("beta", add_encode(a, 3, 4))
        text = a.obs.registry.summary()
        assert "delegations_sent_total" in text

    def test_null_obs_is_shared_and_inert(self):
        NULL_OBS.registry.counter("c").inc()
        span = NULL_OBS.tracer.start("x")
        span.finish()
        snap = NULL_OBS.export()
        assert snap["metrics"]["counters"] == {}
        assert snap["spans"] == []

    def test_trace_facade_rides_registry(self):
        """Satellite (a): Fixpoint's Trace now emits onto the obs
        registry while keeping its queryable records."""
        obs = Obs("n0")
        node = FixpointNode("n0", obs=obs)
        node.runtime.eval(add_encode(node, 2, 3))
        counter = obs.registry.counter("fixpoint_invocations_total")
        assert counter.total() == node.runtime.trace.invocation_count()
        assert counter.total() >= 1

    def test_a_bare_runtime_traces_into_the_null_registry(self):
        """Without an obs nobody can read the trace's metrics, so they
        go nowhere; the trace's own counts stay exact."""
        from repro.fixpoint.runtime import Fixpoint

        fp = Fixpoint()
        assert fp.trace.registry is NULL_OBS.registry
        for i in range(3):
            fp.eval(fp.invoke(fp.stdlib["add_u8"], [
                fp.repo.put_blob(int_blob(i, 1)),
                fp.repo.put_blob(int_blob(1, 1)),
            ]).wrap_strict())
        assert fp.trace.invocation_count() == 3
        assert fp.trace.by_function() == {"add_u8": 3}

    @pytest.mark.parametrize(
        "registry", [MetricsRegistry(name="t"), NULL_OBS.registry]
    )
    def test_trace_state_is_bounded_by_functions(self, registry):
        """10 000 invocations of one codelet leave the trace holding one
        count and one byte total per *function* - no per-invocation
        record - whichever registry (real or null) backs the metrics."""
        from repro.fixpoint.tracing import Trace

        trace = Trace(registry=registry)
        for _ in range(10_000):
            trace.record("spin", 1e-6, 8, "worker-0")
        trace.record("other", 1e-6, 0, "worker-1")
        assert trace.invocation_count() == 10_001
        assert trace.invocation_count("spin") == 10_000
        assert trace.total_bytes_mapped() == 80_000
        assert trace.by_function() == {"spin": 10_000, "other": 1}
        held = [
            v for v in vars(trace).values()
            if isinstance(v, (list, dict, set, tuple))
        ]
        assert sum(len(v) for v in held) == 2 * 2  # two dicts x two functions
