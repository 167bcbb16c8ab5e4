#!/usr/bin/env python3
"""The repo's performance benchmark: one command, five workloads.

Three ways in (all from the repo root; ``src/`` is put on the path here,
so no ``PYTHONPATH`` is needed)::

    # one measured run of one workload (what the driver calls)
    python3 benchmarks/perf/run.py --workload sim_jobs --seed 1 --seconds 10 --trace 0

    # every workload, each in a fresh interpreter; prints every metric
    # by name with its unit and writes out/results-seed1.json
    python3 benchmarks/perf/run.py --seed 1 [--runs 5] [--trace] [--quick]

    # two result files against the bounds in BENCHMARK.json
    python3 benchmarks/perf/run.py compare A.json B.json

A single run prints human-readable metric lines and then, as the last
line of stdout, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics (tracing
off); ``--trace 1`` reports the per-layer metrics: layer probes, a
short scenario of each count-bearing workload, and the span-traced
quarter-length run of the named workload.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"


def _load_json(path: Path):
    with open(path) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# One run (worker side)


def _percentile(values, percent: float) -> float:
    """Nearest-rank percentile of an unsorted sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * percent / 100.0))]


def end_to_end(section, tail_percentile: float) -> dict:
    """The end-to-end metrics of one timed section.

    Every time is divided by the machine-speed reading of the segment
    it was taken in (``workloads.machine_speed``), i.e. reported at the
    speed of the box the benchmark was defined on.  Counts are exact.
    """
    ops = section.ops
    latencies = [
        latency / s.speed for s in section.segments for latency in s.latencies
    ]
    return {
        "setup_s": statistics.median(t / speed for t, speed in section.setup_samples),
        "ops_per_s": ops / section.wall,
        "op_p50_ms": 1e3 * _percentile(latencies, 50.0),
        "op_tail_ms": 1e3 * _percentile(latencies, tail_percentile),
        "cpu_ms_per_op": 1e3 * section.cpu / ops,
        "wire_bytes_per_op": section.wire_bytes / ops,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _pin_to_one_core() -> None:
    """All load comes from one process on one core.

    Measured on the 2-core sandbox: with the client thread and the
    system's serve threads free to land on different cores, cross-core
    wake-ups made ``delegate_small`` both slower (224 vs 314 op/s) and
    two to five times noisier run to run; the interpreter lock
    serialises the threads anyway.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _pinned(spec: dict, args) -> dict:
    """The exact values spec.json pins for this (workload, seed, length)."""
    if args.trace:
        pins = spec["pins_per_layer"]
        return pins["values"] if pins.get("seed") == args.seed else {}
    for pin in spec["pins"].get(args.workload, []):
        if (pin["seed"], pin["seconds"]) == (args.seed, args.seconds):
            return pin["values"]
    return {}


def run_worker(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"nothing to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    _pin_to_one_core()
    import workloads

    spec = _load_json(HERE / "spec.json")
    benchmark = _load_json(ROOT / "BENCHMARK.json")
    cls = workloads.WORKLOADS[args.workload]
    started = time.perf_counter()
    if args.trace:
        import layers

        section, metrics = layers.traced_run(cls, args.seed, args.seconds, OUT)
        declared = benchmark["per_layer"]
    else:
        section = cls(args.seed, args.seconds).execute()
        metrics = end_to_end(section, cls.tail_percentile)
        declared = benchmark["end_to_end"]
    elapsed = time.perf_counter() - started

    correct = section.failed == 0 and section.ops > 0
    for message in section.errors:
        print(f"FAILED CHECK: {message}", file=sys.stderr)
    counts = json.loads(json.dumps(section.counts))  # tuples -> lists
    for name, want in _pinned(spec, args).items():
        got = metrics.get(name, counts.get(name))
        if got != want:
            correct = False
            print(f"FAILED CHECK: {name} = {got!r}, pinned {want!r}", file=sys.stderr)
    units = {entry["name"]: entry["unit"] for entry in declared}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"metrics not produced: {missing}")
    print(
        f"# {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} ops={section.ops} took={elapsed:.1f}s"
    )
    print(f"# counts {json.dumps(counts, sort_keys=True)}")
    for name in units:
        print(f"{name:44s} {metrics[name]:>18.6f} {units[name]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": section.attempted,
                "failed": section.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0 if correct else 1


# ----------------------------------------------------------------------
# All workloads (parent side)


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _spawn(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run in a fresh interpreter (in-process repeats drift: the
    sizing runs saw gossip_churn fall 390 -> 320 op/s by the fifth)."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload}: no result (exit {done.returncode})")
    result = json.loads(lines[-1])
    result["exit"] = done.returncode
    return result


def run_all(args) -> int:
    benchmark = _load_json(ROOT / "BENCHMARK.json")
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    if args.quick:
        seconds = benchmark["run_seconds"] / 20.0
    results = {
        "schema": 1,
        "seed": args.seed,
        "seconds": seconds,
        "runs": args.runs,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "claim": None,
        "workloads": {},
    }
    names = [entry["name"] for entry in benchmark["workloads"]]
    # The per-layer names are the same whichever workload is traced, so
    # the smoke run traces only the cheapest one.
    traced = set(names if args.trace else names[:1] if args.quick else [])
    ok = True
    for name in names:
        record = {"end_to_end": [], "per_layer": []}
        for _ in range(args.runs):
            run = _spawn(name, args.seed, seconds, 0)
            ok = ok and run["exit"] == 0 and run["correct"]
            record["end_to_end"].append(_values(run))
            record["attempted"], record["failed"] = run["attempted"], run["failed"]
        if name in traced:
            run = _spawn(name, args.seed, seconds, 1)
            ok = ok and run["exit"] == 0 and run["correct"]
            record["per_layer"].append(_values(run))
        results["workloads"][name] = record
        _print_workload(name, record, benchmark)
    OUT.mkdir(exist_ok=True)
    target = Path(args.out) if args.out else OUT / f"results-seed{args.seed}.json"
    with open(target, "w") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
    print(f"wrote {target}" + ("" if ok else "  (FAILED CHECKS)"))
    return 0 if ok else 1


def _values(run: dict) -> dict:
    return {name: metric["value"] for name, metric in run["metrics"].items()}


def _print_workload(name: str, record: dict, benchmark: dict) -> None:
    print(f"== {name}: attempted {record['attempted']}, failed {record['failed']}")
    for kind in ("end_to_end", "per_layer"):
        runs = record[kind]
        if not runs:
            continue
        for entry in benchmark[kind]:
            values = [run[entry["name"]] for run in runs]
            print(
                f"  {entry['name']:44s} {statistics.median(values):>18.6f} "
                f"{entry['unit']}"
            )


# ----------------------------------------------------------------------
# compare


def _spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / median if median else 0.0


def _verdict(worse: float, bound: float) -> str:
    if worse > bound:
        return "regressed"
    return "improved" if -worse > bound else "unchanged"


def compare(path_a: str, path_b: str) -> int:
    """One row per (metric, workload): both medians, ratio B/A with its
    base, verdict against the bound in BENCHMARK.json.  Exact metrics
    (spec.json ``exact``) compare exactly.  Exit 1 on any regression."""
    benchmark = _load_json(ROOT / "BENCHMARK.json")
    exact = set(_load_json(HERE / "spec.json")["exact"])
    a, b = _load_json(Path(path_a)), _load_json(Path(path_b))
    same_inputs = (a["seed"], a["seconds"]) == (b["seed"], b["seconds"])
    regressed = False
    print(f"A = {path_a} ({a['commit']}), B = {path_b} ({b['commit']})")
    print(
        f"{'workload':18s} {'metric':20s} {'A':>14s} {'B':>14s} "
        f"{'B/A':>8s} {'bound':>6s}  verdict"
    )
    for entry in benchmark["workloads"]:
        name = entry["name"]
        runs_a = a["workloads"][name]["end_to_end"]
        runs_b = b["workloads"][name]["end_to_end"]
        for metric in benchmark["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            values_a = [run[key] for run in runs_a]
            values_b = [run[key] for run in runs_b]
            med_a, med_b = statistics.median(values_a), statistics.median(values_b)
            ratio = med_b / med_a if med_a else float("inf")
            worse = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            if key in exact and same_inputs:
                # Exact metrics compare exactly: any difference is a verdict.
                verdict = _verdict(worse, 0.0)
            elif max(_spread(values_a), _spread(values_b)) > bound:
                verdict = "unresolved"
            else:
                verdict = _verdict(worse, bound)
            regressed = regressed or verdict == "regressed"
            print(
                f"{name:18s} {key:20s} {med_a:14.4f} {med_b:14.4f} "
                f"{ratio:8.4f} {bound:6.2f}  {verdict} (base A={med_a:.4f} {metric['unit']})"
            )
        failed = b["workloads"][name]["failed"]
        if failed:
            regressed = True
            print(f"{name:18s} failed ops: {failed}  regressed")
    return 1 if regressed else 0


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # A fixed hash seed makes set order, and with it every count
        # and byte, repeat; it must be set before the interpreter starts.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, str(HERE / "run.py"), *argv])
    if args.seconds is None:
        args.seconds = float(_load_json(ROOT / "BENCHMARK.json")["run_seconds"])
    return run_worker(args)


if __name__ == "__main__":
    sys.exit(main())
