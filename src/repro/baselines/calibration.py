"""Every cost constant used by the platform models, with provenance.

Constants fall in three classes:

* **paper-measured** - taken directly from the paper's microbenchmarks
  (fig. 7a per-invocation overheads, fig. 7b RTTs, fig. 8a storage
  latency).  These anchor each model.
* **public-knowledge** - hardware/service characteristics of the paper's
  testbed (m5.8xlarge NICs, EBS gp3, single-stream TCP throughput on EC2,
  MinIO GET throughput).  Sourced from vendor docs and common measurement.
* **calibrated** - effective data-path throughputs per system, chosen so
  the model reproduces the paper's end-to-end numbers while staying
  physically plausible; each is annotated.  The *shape* conclusions
  (orderings, crossovers) are robust to these within wide bands - see
  ``benchmarks/`` which asserts bands, not point values.

All times in seconds, sizes in bytes, rates in bytes/second.
"""

from __future__ import annotations

# ----------------------------------------------------------------------
# Fig. 7a: per-invocation overheads (paper-measured)

FIXPOINT_INVOKE = 1.46e-6  # Fixpoint codelet dispatch
VFORK_EXEC = 449.1e-6  # Linux vfork+exec+wait of a trivial program
PHEROMONE_INVOKE = 1.05e-3  # Pheromone client-triggered invocation
PHEROMONE_CORE = 27.0e-6  # Pheromone's internally-timed core execution
RAY_TASK_OVERHEAD = 1.29e-3  # Ray remote-function round trip (warm worker)
FAASM_INVOKE = 10.6e-3  # Faasm dispatch + Wasm module activation
FAASM_CORE = 2.3e-3  # Faasm internally-timed execution
OPENWHISK_INVOKE = 30.7e-3  # OpenWhisk warm action end-to-end
OPENWHISK_CORE = 5.2e-3  # OpenWhisk internally-timed action body

# Decomposition of the OpenWhisk warm path (public architecture:
# nginx -> controller -> Kafka -> invoker -> container /run).  The parts
# sum to OPENWHISK_INVOKE; only the split is estimated.
OW_GATEWAY = 2.0e-3
OW_CONTROLLER = 6.5e-3
OW_KAFKA = 5.0e-3
OW_INVOKER = 7.0e-3
OW_RESULT_PATH = 5.0e-3
assert abs(
    (OW_GATEWAY + OW_CONTROLLER + OW_KAFKA + OW_INVOKER + OW_RESULT_PATH)
    + OPENWHISK_CORE
    - OPENWHISK_INVOKE
) < 1e-9

# Ray decomposition (public architecture: pickle -> raylet -> worker).
RAY_PICKLE = 0.15e-3
RAY_RAYLET_DISPATCH = 0.55e-3
RAY_WORKER_HANDOFF = 0.35e-3
RAY_RESULT_STORE = 0.24e-3
assert abs(
    RAY_PICKLE + RAY_RAYLET_DISPATCH + RAY_WORKER_HANDOFF + RAY_RESULT_STORE
    - RAY_TASK_OVERHEAD
) < 1e-9

# ----------------------------------------------------------------------
# Fig. 7b: chain orchestration (paper-measured RTTs)

RTT_NEARBY = 0.35e-3  # client in the same EC2 cluster
RTT_REMOTE = 21.3e-3  # the paper's remote client
#: Pheromone executes a pre-declared workflow step locally (its 27 us core
#: plus bucket-trigger bookkeeping).  Calibrated from fig. 7b: 500 steps
#: in ~17.6 ms - RTT => ~34 us/step.
PHEROMONE_CHAIN_STEP = 34e-6
#: Client-side cost to build + serialize one Fix object (handle hashing,
#: tree packing).  Calibrated from fig. 7b nearby: 5.0 ms for a 500-thunk
#: chain => ~8 us/object client side + 1.46 us/invocation server side.
FIX_CLIENT_OBJECT = 8e-6

# ----------------------------------------------------------------------
# Storage / network data paths

#: Remote storage response latency for small objects (paper section 5.3.1).
S3_LATENCY = 0.150
#: Effective single-stream TCP throughput on EC2 for bulk object pulls
#: (window/latency limited; ~2.4 Gb/s).  Calibrated: makes Fixpoint
#: (no locality) spend ~31 s moving 885 non-local 100 MiB shards, matching
#: fig. 8b.  Physically plausible for one TCP stream per pull.
TCP_STREAM_BW = 0.30e9
#: MinIO GET/PUT effective throughput per object stream (HTTP + erasure
#: coding overhead; public benchmarks show 150-250 MB/s per stream).
#: Calibrated against fig. 8b's OpenWhisk row.
MINIO_STREAM_BW = 0.15e9
#: Pheromone's data path to durable storage (its own KVS client; parallel
#: range reads).  Calibrated against fig. 8b's Pheromone map phase.
PHEROMONE_STREAM_BW = 0.22e9
#: Ray plasma object pulls use chunked parallel streams (faster than one
#: TCP stream).  Calibrated against fig. 8b's Ray (blocking) row.
RAY_PULL_BW = 0.60e9
#: In-memory scan rate of the count-string operator (SIMD substring scan
#: incl. page-cache read): calibrated so Fixpoint's fig. 8b time lands at
#: ~3 s for 984 x 100 MiB shards on 320 cores.
MEMORY_SCAN_BW = 0.157e9
#: Local page-cache / plasma read bandwidth.
LOCAL_READ_BW = 3.0e9
#: Python-side deserialization/copy of bulk objects (Ray worker ingest).
PY_DESER_BW = 0.35e9

# ----------------------------------------------------------------------
# Ray details

#: A ray.get of a local plasma object from Python (IPC + handle).
RAY_LOCAL_GET = 0.4e-3
#: Driver-side serial submission cost per task (fig. 8b: the driver is a
#: single Python process pushing ~2,000 task specs).
RAY_DRIVER_SUBMIT = 1.0e-3
#: Continuation-passing adds a driver/owner round trip per nested
#: ObjectRef resolution (ownership protocol).
RAY_OWNER_RTT = 0.7e-3

# ----------------------------------------------------------------------
# OpenWhisk / Kubernetes details

#: Creating a pod/container for an action (K8s factory; fig. 10 includes
#: these, fig. 7a/8b use warm pools).
OW_COLD_START = 0.9
#: Docker-image actions (fig. 10: libclang/liblld exceed OpenWhisk's
#: inline binary limit) pull their image to each node on first use.
OW_IMAGE_BYTES = 1_200 << 20
#: K8s scheduling decision per pod.
K8S_SCHEDULE = 5e-3
#: MinIO per-request overhead on top of the stream transfer.
MINIO_REQUEST_OVERHEAD = 2.0e-3

# ----------------------------------------------------------------------
# Fixpoint distributed runtime details

#: Oversubscription factor for the "internal I/O" ablations (fig. 8a uses
#: 200 schedulable cores on a 32-core box; fig. 8b uses 128 threads on 31).
INTERNAL_IO_CORES_8A = 200
INTERNAL_IO_THREADS_8B = 128
#: Throughput penalty from oversubscribing CPUs (context-switch and cache
#: pressure); the paper measures 7.5% on fig. 8b.
OVERSUBSCRIPTION_PENALTY = 0.075
#: Per-invocation cost of the *blocking* read path: issuing the GET from
#: inside the reserved worker and waking it through the (oversubscribed)
#: run queue when data arrives.  Calibrated from fig. 8a's internal-I/O
#: residual: 2638 ms total - 16 waves x 150 ms - user - system leaves
#: ~238 ms across 1,024 invocations => ~0.23 ms each.  Externalized I/O
#: has no analog: network workers deliver resident data to a core that
#: binds exactly once.
INTERNAL_IO_RESUME = 0.23e-3

# ----------------------------------------------------------------------
# B+-tree experiment (fig. 9) data-path constants

#: First-touch read of node data from local disk (EBS gp3-class).
DISK_LATENCY = 0.5e-3
DISK_BW = 0.30e9
#: Content verification (BLAKE3-class hashing) of fetched data.
HASH_BW = 1.5e9
#: Fixpoint handle/tree parse per node visit (beyond FIXPOINT_INVOKE).
FIX_NODE_PARSE = 20e-6
#: Ray task for one CPS step of the B+-tree walk: task overhead plus the
#: ownership round trip plus result-ref plumbing (calibrated to fig. 9's
#: ~50x at arity 2^6).
RAY_CPS_STEP_EXTRA = 3.3e-3
#: Ray blocking-get of one node component (plasma IPC + deserialization
#: floor; calibrated to fig. 9's ~22x at arity 2^6).
RAY_BLOCKING_GET = 1.9e-3
