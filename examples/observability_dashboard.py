#!/usr/bin/env python3
"""The observability layer end to end: two executing nodes, real wire
traffic, one stitched story.

Alpha delegates work to beta over the framed channel, then runs an
anti-entropy gossip round.  Every hop carried a 16-byte span context
inside the wire frames, so afterwards the two nodes' tracers stitch
into per-job causal trees (dispatch -> remote serve -> absorb), and
each node's metrics registry holds the counters/histograms of the
traffic it saw.

Run:  python examples/observability_dashboard.py
"""

from repro.codelets.stdlib import blob_int, int_blob
from repro.fixpoint.net import FixpointNode
from repro.obs import render_trace, stitch


def main() -> None:
    alpha = FixpointNode("alpha")
    beta = FixpointNode("beta")
    alpha.connect(beta).latency = 0.005  # 5 ms per direction

    # Delegate three additions to beta: each round trip ships the job,
    # serves it remotely, and absorbs the result - three spans, one
    # trace, two nodes.
    fn = alpha.runtime.stdlib["add_u8"]
    for x, y in [(20, 22), (3, 4), (100, 28)]:
        encode = alpha.runtime.invoke(
            fn,
            [
                alpha.repo.put_blob(int_blob(x, 1)),
                alpha.repo.put_blob(int_blob(y, 1)),
            ],
        ).wrap_strict()
        result = alpha.delegate("beta", encode)
        print(f"{x} + {y} = {blob_int(alpha.repo.get_blob(result).data)}")

    # Some local news, then an anti-entropy round to spread it.
    alpha.repo.put_blob(b"hot new object only alpha has")
    traffic = alpha.gossip_with("beta")
    print(
        f"\ngossip with beta: {traffic.bytes_shipped} bytes shipped, "
        f"{traffic.entries_sent} entries sent, "
        f"{traffic.entries_received} received"
    )

    # --- the dashboard -------------------------------------------------
    print("\n" + "=" * 68)
    print("alpha's metrics")
    print("=" * 68)
    print(alpha.obs.registry.summary())

    print("=" * 68)
    print("stitched traces (spans from BOTH nodes, joined by trace_id)")
    print("=" * 68)
    traces = stitch(alpha.obs.tracer, beta.obs.tracer)
    for trace_id in sorted(traces):
        print(f"trace {trace_id:#x}")
        print(render_trace(traces[trace_id]))

    # The same snapshot the weekly bench job persists:
    snap = alpha.obs.export()
    print(
        f"export: {len(snap['spans'])} spans in {snap['traces']} traces, "
        f"{sum(len(v) for v in snap['metrics']['counters'].values())} "
        "counter series"
    )


if __name__ == "__main__":
    main()
