"""Per-layer metrics: probes, count scenarios, and the traced run.

A *layer* is one of this repo's modules.  Everything here measures from
outside: a probe calls a public function in a loop at the fixed, seeded
size its name carries and reports the median of >= 21 batches, in
microseconds per call at nominal machine speed (``workloads.
machine_speed``); counts are exact.  README.md says which end-to-end
metric each probe is predicted to move, and where it should not.

``traced_run`` produces every ``per_layer`` metric of BENCHMARK.json:

* the probes (the same for every workload - they do not depend on it);
* counts and timings that only a workload can produce, from a short
  fixed-length scenario of that workload (``gossip_churn`` 30 rounds,
  ``scatter_resident`` 12 batches, ``sim_jobs`` 4 passes);
* the named workload at quarter length, once untraced and once under
  :class:`spans.SpanRecorder`: ``trace.self_ms.<layer>``,
  ``trace.residue_pct``, ``trace.overhead_pct`` and the per-op frame
  and handle counts.
"""

from __future__ import annotations

import random
import statistics
import threading
import time
from contextlib import nullcontext
from itertools import cycle
from pathlib import Path
from typing import Callable, Dict, Optional

import workloads
from spans import SpanRecorder
from workloads import machine_speed

from repro.analysis.sync import LockTracker, TrackedLock, tracking
from repro.codelets.stdlib import int_blob
from repro.core.data import Tree
from repro.core.eval import Evaluator
from repro.core.handle import Handle, blob_digest
from repro.core.minrepo import transitive_footprint
from repro.core.serialize import decode_bundle, encode_bundle
from repro.core.storage import Repository
from repro.core.thunks import make_application, make_selection, strict
from repro.dist import costmodel
from repro.dist.gossip import (
    GossipCoordinator,
    pack_delta,
    pack_digest,
    unpack_delta,
    unpack_digest,
)
from repro.dist.graph import TaskSpec
from repro.dist.membership import (
    Member,
    MembershipView,
    pack_members,
    unpack_members,
)
from repro.dist.objectview import EMPTY_DIGEST, ObjectView
from repro.dist.scheduler import DataflowScheduler
from repro.fixpoint.net import FixpointNode
from repro.fixpoint.runtime import Fixpoint
from repro.obs import NULL_OBS, Obs
from repro.sim.cluster import Cluster, MachineSpec
from repro.sim.engine import Simulator
from repro.sim.network import Network

BATCHES = 21
PROBE_SEED = 20260926  # sizes and contents of probe inputs never vary


def per_call_us(
    fn: Callable[[], object],
    calls: int,
    batches: int = BATCHES,
    prepare: Optional[Callable[[], object]] = None,
    divide: float = 1.0,
) -> float:
    """Median over ``batches`` of (time of ``calls`` calls) / calls, in
    microseconds at nominal machine speed.  ``prepare`` runs untimed
    before each batch; ``divide`` turns per-call into per-item."""
    speed = machine_speed()
    samples = []
    for _ in range(batches):
        if prepare is not None:
            prepare()
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - started) / calls)
    speed = (speed + machine_speed()) / 2
    return 1e6 * statistics.median(samples) / speed / divide


# ----------------------------------------------------------------------
# Probe inputs


def resident_repo(rng: random.Random, count: int = 2000) -> Repository:
    """The scatter_resident store: 3/4 256 B blobs, 1/4 3-child trees."""
    repo = Repository()
    blobs = [repo.put_blob(rng.randbytes(256)) for _ in range(count * 3 // 4)]
    for _ in range(count - len(blobs)):
        repo.put_tree(rng.sample(blobs, 3))
    return repo


def big_view(rng: random.Random, origins: int = 32, entries: int = 10_000):
    """A view holding ``entries`` beliefs merged from ``origins`` peers
    (content-key names, like the executing runtime's)."""
    merged = ObjectView("probe")
    per_origin = entries // origins
    for index in range(origins):
        peer = ObjectView(f"peer{index:02d}")
        for _ in range(per_origin):
            peer.learn(rng.randbytes(32), peer.node, rng.randrange(1, 1 << 20))
        merged.merge_delta(peer.delta_since(merged.digest()))
    return merged


def storm_cluster(rng: random.Random, machines: int, objects: int):
    sim = Simulator()
    names = [f"node{i:03d}" for i in range(machines)]
    cluster = Cluster(sim, [MachineSpec(name, cores=4) for name in names])
    for index in range(objects):
        cluster.add_object(
            f"x{index:05d}", rng.randrange(1 << 10, 1 << 20), rng.choice(names)
        )
    view = ObjectView("probe")
    view.sync_from_cluster(cluster)
    return cluster, view, names


def _fresh_encode(cluster, n: int) -> Handle:
    hub = cluster.hub
    return make_application(
        hub.repo, cluster.fn, [hub.repo.put_blob(int_blob(n))]
    ).wrap_strict()


def _task(name: str, inputs) -> TaskSpec:
    return TaskSpec(
        name=name, fn="f", inputs=tuple(inputs), output=f"{name}.out",
        output_size=64, compute_seconds=0.0,
    )


# ----------------------------------------------------------------------
# Probes, one function per layer group


def probe_core(out: Dict[str, float], rng: random.Random) -> None:
    handle = Handle.blob(blob_digest(b"x" * 100), 100)
    raw = handle.pack()
    out["core.handle.pack_us"] = per_call_us(handle.pack, 2000)
    out["core.handle.unpack_us"] = per_call_us(lambda: Handle.unpack(raw), 1000)
    payload = rng.randbytes(16 << 10)
    out["core.handle.blob_digest_us_16k"] = per_call_us(
        lambda: blob_digest(payload), 100
    )
    tree = Tree([Handle.of_blob(bytes([i]) * 8) for i in range(16)])
    out["core.data.tree_handle_us_16"] = per_call_us(tree.handle, 200)

    repo = Repository()
    small = [rng.randbytes(256) for _ in range(256)]
    large = [rng.randbytes(16 << 10) for _ in range(16)]
    next_small, next_large = cycle(small).__next__, cycle(large).__next__
    out["core.storage.put_blob_us_256"] = per_call_us(
        lambda: repo.put_blob(next_small()), 256
    )
    out["core.storage.put_blob_us_16k"] = per_call_us(
        lambda: repo.put_blob(next_large()), 32
    )
    held = repo.put_blob(small[0])
    out["core.storage.get_blob_us"] = per_call_us(lambda: repo.get_blob(held), 2000)
    resident = resident_repo(rng)
    out["core.storage.handles_scan_us_per_obj"] = per_call_us(
        lambda: list(resident.handles()), 1, divide=len(resident)
    )

    runtime = Fixpoint()
    encode = make_application(
        runtime.repo, runtime.stdlib["increment"],
        [runtime.repo.put_blob(int_blob(7))],
    ).wrap_strict()
    out["core.minrepo.footprint_us"] = per_call_us(
        lambda: transitive_footprint(runtime.repo, encode), 50
    )
    for label, size in (("1k", 1 << 10), ("16k", 16 << 10)):
        source, sink = Repository(), Repository()
        blob = source.put_blob(rng.randbytes(size))
        bundle = encode_bundle(source, [blob])
        out[f"core.serialize.encode_bundle_us_{label}"] = per_call_us(
            lambda: encode_bundle(source, [blob]), 200
        )
        out[f"core.serialize.decode_bundle_us_{label}"] = per_call_us(
            lambda: decode_bundle(sink, bundle), 100
        )

    literal = Handle.of_blob(int_blob(1))
    evaluator = Evaluator(
        runtime.repo, apply_fn=lambda _ev, _res, _inv: literal, memoize=False
    )
    out["core.eval.apply_us"] = per_call_us(
        lambda: evaluator.eval_encode(encode), 100
    )
    children = [runtime.repo.put_blob(bytes([i]) * 64) for i in range(64)]
    target = runtime.repo.put_tree(children)
    selector = Evaluator(runtime.repo, memoize=False)
    out["core.eval.select_us"] = per_call_us(
        lambda: selector.eval_encode(
            strict(make_selection(runtime.repo, target, 17))
        ),
        100,
    )
    serial = iter(range(1 << 30))
    out["codelets.compile_ms"] = 1e-3 * per_call_us(
        lambda: runtime.compile(
            workloads.FAT_INC_SOURCE + f"# {next(serial)}\n", "fat-inc"
        ),
        3,
    )


def probe_runtime(out: Dict[str, float], rng: random.Random) -> None:
    runtime = Fixpoint(memoize=False)
    encode = make_application(
        runtime.repo, runtime.stdlib["increment"],
        [runtime.repo.put_blob(int_blob(7))],
    ).wrap_strict()
    out["fixpoint.runtime.eval_us"] = per_call_us(lambda: runtime.eval(encode), 50)
    full = Fixpoint(repo=resident_repo(rng), with_stdlib=False)
    out["fixpoint.runtime.holdings_us_per_obj"] = per_call_us(
        full.holdings, 1, divide=len(full.repo)
    )
    for label, workers in (("thread", 0), ("pool", 1)):
        with Fixpoint(workers=workers, with_stdlib=False) as spawner:
            ran = threading.Event()

            def spawn_and_wait():
                ran.clear()
                spawner.spawn(ran.set)
                ran.wait(10.0)

            out[f"fixpoint.runtime.spawn_{label}_us"] = per_call_us(
                spawn_and_wait, 50
            )


def probe_net(out: Dict[str, float], rng: random.Random) -> None:
    """Delegation probes each start from a fresh delegate_small cluster
    and make 105 calls, so the hub's store grows from 20 to about 125
    objects - the first third of a workload round."""
    cluster = workloads.SmallCluster(list(range(10)))
    hub, peer = cluster.hub, cluster.peers[0]
    channel = hub.peers[peer.name]
    frame = rng.randbytes(256)

    def send():
        # The release keeps the delivery frontier moving, as a receiver
        # would; it is a dict probe and a notify.
        channel.arrival(hub, channel.send(hub, frame)[1]).release()

    def window():
        _wire, seq = channel.send(hub, frame)
        with channel.arrival(hub, seq):
            pass

    out["fixpoint.net.channel_send_us"] = per_call_us(send, 200)
    out["fixpoint.net.channel_window_us"] = per_call_us(window, 200)
    quoted = _fresh_encode(cluster, 99)
    out["fixpoint.net.quote_best_us"] = per_call_us(
        lambda: hub.quote_best(quoted), 20
    )
    cluster.close()

    cluster = workloads.SmallCluster(list(range(10)))
    hub = cluster.hub
    serial = iter(range(100, 1 << 30))
    pending = []

    def dispatch():
        pending.append(
            hub.delegate_async("peer-a", _fresh_encode(cluster, next(serial)))
        )

    def drain():
        for future in pending:
            future.result(workloads.RESULT_TIMEOUT)
        pending.clear()

    out["fixpoint.net.dispatch_us"] = per_call_us(dispatch, 5, prepare=drain)
    drain()
    cluster.close()

    cluster = workloads.SmallCluster(list(range(10)))
    out["fixpoint.net.delegate_rt_us"] = per_call_us(
        lambda: cluster.delegate(next(serial)), 5
    )
    cluster.close()

    def loaded(name: str) -> FixpointNode:
        node = FixpointNode(name)
        for _ in range(200):
            node.repo.put_blob(rng.randbytes(256))
        return node

    pairs = []
    entries = []

    def cold_pair():
        pairs.append((loaded("left"), loaded("right")))

    def cold():
        left, right = pairs[-1]
        started = len(left.view)
        left.connect(right)
        entries.append(len(left.view) + len(right.view) - started)

    connect_us = per_call_us(cold, 1, batches=7, prepare=cold_pair)
    out["fixpoint.net.connect_us"] = connect_us
    out["fixpoint.net.gossip_cold_us_per_entry"] = connect_us / statistics.median(
        entries
    )
    left, right = pairs[-1]
    out["fixpoint.net.gossip_converged_us"] = per_call_us(
        lambda: left.gossip_with(right.name), 5
    )
    for left, right in pairs:
        left.close()
        right.close()


def probe_views_and_placement(out: Dict[str, float], rng: random.Random) -> None:
    view = ObjectView("probe")
    serial = iter(range(1 << 30))
    out["dist.objectview.learn_us"] = per_call_us(
        lambda: view.learn(next(serial), "there", 64), 500
    )
    out["dist.objectview.learn_dup_us"] = per_call_us(
        lambda: view.learn(0, "there", 64), 1000
    )
    small = ObjectView("probe")
    for index in range(1000):
        small.learn(index, "there", 64)
    victims = iter(())

    def relearn():
        nonlocal victims
        for index in range(20):
            small.learn(index, "there", 64)
        victims = iter(range(20))

    out["dist.objectview.forget_us"] = per_call_us(
        lambda: small.forget(next(victims), "there"), 20, prepare=relearn
    )
    big = big_view(rng)
    digest = big.digest()
    out["dist.objectview.digest_us_10k"] = per_call_us(big.digest, 500)
    out["dist.objectview.delta_empty_us_10k"] = per_call_us(
        lambda: big.delta_since(digest), 100
    )
    full = big.delta_since(EMPTY_DIGEST)
    out["dist.objectview.delta_us_per_entry"] = per_call_us(
        lambda: big.delta_since(EMPTY_DIGEST), 1, batches=7, divide=len(full)
    )
    out["dist.objectview.merge_us_per_entry"] = per_call_us(
        lambda: ObjectView("sink").merge_delta(full), 1, batches=7,
        divide=len(full),
    )
    cluster, placed, names = storm_cluster(rng, 100, 5000)
    objects = sorted(cluster.objects)
    needs = [(name, cluster.object(name).size) for name in rng.sample(objects, 4)]
    out["dist.objectview.price_moves_us_100c"] = per_call_us(
        lambda: placed.price_moves(needs, names), 50
    )
    wide = rng.sample(objects, 1987)
    out["dist.objectview.missing_many_us_1987"] = per_call_us(
        lambda: placed.bytes_missing_many(cluster, wide, names), 1
    )

    # dist.scheduler, on the same 100-machine cluster
    scheduler = DataflowScheduler(cluster, placed)
    narrow = [
        _task(f"n{i}", rng.sample(objects, rng.randint(1, 4))) for i in range(64)
    ]
    next_narrow = cycle(narrow).__next__
    out["dist.scheduler.place_us_100m"] = per_call_us(
        lambda: scheduler.place(next_narrow()), 64
    )
    link = _task("link", wide)
    out["dist.scheduler.place_link_us_1987"] = per_call_us(
        lambda: scheduler.place(link), 1
    )


def probe_scheduler_4m(out: Dict[str, float]) -> None:
    """The BENCH_core.json set-up, so ``scheduler_us_per_decision``
    keeps its trajectory: 256 single-input tasks, 4 machines, 64
    objects, a wall-clocked Obs on the scheduler."""
    sim = Simulator()
    cluster = Cluster(sim, [MachineSpec(f"node{i}", cores=4) for i in range(4)])
    for i in range(64):
        cluster.add_object(f"x{i}", (i + 1) << 10, f"node{i % 4}")
    obs = Obs("core")
    view = ObjectView("bench", clock=obs.clock)
    view.sync_from_cluster(cluster)
    scheduler = DataflowScheduler(cluster, view, obs=obs)
    tasks = iter(())

    def place():
        scheduler.place(next(tasks))

    def fresh_tasks():
        nonlocal tasks
        tasks = iter([_task(f"t{i}", (f"x{i % 64}",)) for i in range(256)])

    out["dist.scheduler.place_us_4m"] = per_call_us(place, 256, prepare=fresh_tasks)


def probe_costmodel(out: Dict[str, float], rng: random.Random) -> None:
    for count in (10, 100, 1000):
        names = [f"node{i:04d}" for i in range(count)]
        holders = {key: rng.sample(names, 2) for key in range(4)}
        needs = [(key, 1000 * (key + 1)) for key in holders]
        prices = costmodel.price_moves(needs, holders.__getitem__, names)
        load = dict.fromkeys(names, 0)
        calls = max(2, 2000 // count)
        out[f"dist.costmodel.price_moves_us_{count}c"] = per_call_us(
            lambda: costmodel.price_moves(needs, holders.__getitem__, names), calls
        )
        out[f"dist.costmodel.choose_us_{count}c"] = per_call_us(
            lambda: costmodel.choose(names, prices.__getitem__, load.__getitem__),
            calls,
        )


def probe_gossip(out: Dict[str, float], rng: random.Random) -> None:
    view = big_view(rng, entries=3200)
    digest = view.digest()
    raw_digest = pack_digest(digest)
    out["dist.gossip.pack_digest_us"] = per_call_us(lambda: pack_digest(digest), 100)
    out["dist.gossip.unpack_digest_us"] = per_call_us(
        lambda: unpack_digest(raw_digest), 100
    )
    delta = view.delta_since(EMPTY_DIGEST)
    raw_delta = pack_delta(delta)
    out["dist.gossip.pack_delta_us_per_entry"] = per_call_us(
        lambda: pack_delta(delta), 1, divide=len(delta)
    )
    out["dist.gossip.unpack_delta_us_per_entry"] = per_call_us(
        lambda: unpack_delta(raw_delta), 1, divide=len(delta)
    )
    views = [ObjectView(f"v{i:02d}") for i in range(32)]
    for holder in views:
        for _ in range(20):
            holder.learn(rng.randbytes(32), holder.node, 4096)
    coordinator = GossipCoordinator(views, seed=PROBE_SEED, membership=True)
    out["dist.gossip.rounds_to_converge_32v"] = float(coordinator.run())
    converged = coordinator.round()
    out["dist.gossip.bytes_per_handshake_converged"] = (
        converged.bytes_shipped / len(converged.pairs)
    )
    out["dist.gossip.round_us_32v"] = per_call_us(coordinator.round, 1)


def probe_membership(out: Dict[str, float]) -> None:
    members = tuple(Member(f"node{i:02d}", 7 + i, incarnation=1) for i in range(32))
    raw = pack_members(members)
    out["dist.membership.bytes_32n"] = float(len(raw))
    out["dist.membership.pack_us_32n"] = per_call_us(lambda: pack_members(members), 50)
    out["dist.membership.unpack_us_32n"] = per_call_us(lambda: unpack_members(raw), 50)
    view = MembershipView("node00", suspect_after=1 << 30)
    view.merge(members)
    beat = iter(range(8, 1 << 30))

    def merge_fresher():
        hb = next(beat)
        view.merge(Member(m.node, hb + i, incarnation=1) for i, m in enumerate(members))

    out["dist.membership.merge_us_32n"] = per_call_us(merge_fresher, 20)
    out["dist.membership.tick_us_32n"] = per_call_us(view.tick, 100)


def probe_sim(out: Dict[str, float]) -> None:
    def timeouts():
        sim = Simulator()
        for index in range(1000):
            sim.timeout(index * 1e-3)
        sim.run()

    out["sim.engine.timeout_event_us"] = per_call_us(timeouts, 1, divide=1000)

    def stepping():
        sim = Simulator()

        def proc():
            for _ in range(1000):
                yield sim.timeout(1e-3)

        sim.run_until(sim.process(proc()))

    out["sim.engine.process_step_us"] = per_call_us(stepping, 1, divide=1000)

    def transfers():
        sim = Simulator()
        network = Network(sim)
        for name in ("a", "b"):
            network.attach(name)
        for _ in range(200):
            network.transfer("a", "b", 1 << 20)
        sim.run()

    out["sim.network.transfer_us"] = per_call_us(transfers, 1, divide=200)


def probe_taxes(out: Dict[str, float]) -> None:
    obs = Obs("probe")
    counter = obs.registry.counter("probe_total", "probe")
    histogram = obs.registry.histogram("probe_seconds", "probe")
    out["obs.counter_inc_us"] = per_call_us(lambda: counter.inc(peer="p"), 2000)

    def timed():
        with histogram.time(peer="p"):
            pass

    out["obs.histogram_time_us"] = per_call_us(timed, 1000)
    out["obs.span_us"] = per_call_us(
        lambda: obs.tracer.start("probe", peer="p").finish(), 500
    )
    raw = TrackedLock("probe.raw")  # no tracker installed: a bare lock

    def take(lock):
        def call():
            with lock:
                pass
        return call

    out["analysis.sync.lock_us_raw"] = per_call_us(take(raw), 5000)
    out["analysis.sync.lock_us_tracked"] = per_call_us(
        take(LockTracker("probe").lock("probe.tracked")), 2000
    )


# ----------------------------------------------------------------------
# The two taxes, end to end: delegate_small with and without


def probe_tax_runs(out: Dict[str, float], seed: int) -> None:
    """``delegate_small`` three ways - NULL_OBS, the default per-node
    Obs, and the default under the lock-order tracker - in short
    alternating rounds, so all three see the same machine phases.

    ``tracking()`` binds every lock created inside it (each round builds
    its cluster there), which is what ``pytest --race`` does process-
    wide; only the module-level topology lock, taken at connect, stays
    raw.
    """
    rates: Dict[str, list] = {"dark": [], "lit": [], "tracked": []}
    for cycle in range(5):
        for variant, samples in rates.items():
            workload = workloads.DelegateSmall(seed + cycle, 1.0)
            workload.ops_per_round = 100
            if variant == "dark":
                workload.obs = NULL_OBS
            tracker = tracking(LockTracker("tax")) if variant == "tracked" else nullcontext()
            with tracker:
                section = workload.execute()
            _require(section, f"delegate_small {variant} tax run")
            samples.append(section.ops / section.wall)
    dark, lit, tracked = (statistics.median(rates[v]) for v in rates)
    out["obs.tax_pct"] = 100.0 * (dark - lit) / dark
    out["analysis.sync.tax_pct"] = 100.0 * (lit - tracked) / lit


# ----------------------------------------------------------------------
# Scenarios: counts and timings only a workload produces


def scenarios(out: Dict[str, float], seed: int) -> None:
    churn = workloads.GossipChurn(seed, 30 / workloads.GossipChurn.rate, setups=1)
    section = churn.execute()
    _require(section, "gossip_churn scenario")
    for source, name in (
        ("handshakes_refused", "fixpoint.net.handshakes_refused"),
        ("rollbacks", "fixpoint.net.rollbacks"),
        ("log_entries", "dist.objectview.log_entries"),
        ("compactions", "dist.objectview.compactions"),
        ("rounds_to_tombstone", "dist.membership.rounds_to_tombstone"),
        ("rounds_to_readmit", "dist.membership.rounds_to_readmit"),
    ):
        out[name] = float(section.counts[source])

    scatter = workloads.ScatterResident(
        seed, 12 / workloads.ScatterResident.rate, setups=1
    )
    section = scatter.execute()
    _require(section, "scatter_resident scenario")
    out["fixpoint.net.peer_share_max"] = float(section.counts["peer_share_max"])

    sim = workloads.SimJobs(seed, 4 / workloads.SimJobs.rate, setups=1)
    section = sim.execute()
    _require(section, "sim_jobs scenario")
    speed = section.speed
    for job, samples in section.timings.items():
        out[f"dist.engine.job_ms_{job}"] = 1e3 * statistics.median(samples) / speed
    out["dist.engine.invocations_per_s"] = (
        section.counts["invocations"] / section.wall
    )


def _require(section, what: str) -> None:
    if section.failed or not section.ops:
        raise RuntimeError(f"{what} failed its checks: {section.errors}")


# ----------------------------------------------------------------------


def traced_run(cls, seed: int, seconds: float, out_dir: Path):
    """Every per-layer metric, for one workload.  Returns the traced
    section (its ops are what the run attempted) and the metrics."""
    out: Dict[str, float] = {}
    rng = random.Random(PROBE_SEED)
    probe_core(out, rng)
    probe_runtime(out, rng)
    probe_net(out, rng)
    probe_views_and_placement(out, rng)
    probe_scheduler_4m(out)
    probe_costmodel(out, rng)
    probe_gossip(out, rng)
    probe_membership(out)
    probe_sim(out)
    probe_taxes(out)
    probe_tax_runs(out, seed)
    scenarios(out, seed)

    quarter = seconds / 4.0
    plain = cls(seed, quarter, setups=1).execute()
    _require(plain, f"{cls.name} untraced quarter run")
    with SpanRecorder() as recorder:
        traced = cls(seed, quarter, setups=1).execute(recorder)
    for name, value in recorder.summary().items():
        out[name] = value / traced.speed if name.startswith("trace.self_ms.") else value
    out["trace.overhead_pct"] = 100.0 * (
        1.0 - (traced.ops / traced.wall) / (plain.ops / plain.wall)
    )
    out_dir.mkdir(exist_ok=True)
    recorder.dump(out_dir / f"trace-{cls.name}.json", cls.name)
    return traced, out
