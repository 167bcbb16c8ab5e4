"""Smoke test of the perf benchmark (opt-in, like everything under
``benchmarks/``: skipped unless pytest runs with ``--benchmarks``).

Runs ``run.py --quick`` (op counts at 1/20; about 40 s, most of it the
per-layer probes) and checks the contract between the harness and
``BENCHMARK.json``: the names emitted are exactly the names declared,
every name is well-formed, the counts stay under the schema's limits,
and every exact metric equals its pinned value (``run.py`` itself exits
non-zero when an op fails a check or a pin is off).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_quick_run_matches_benchmark_json(tmp_path):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    out = tmp_path / "quick.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "1",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    results = json.loads(out.read_text())

    workloads = [entry["name"] for entry in benchmark["workloads"]]
    end_to_end = [entry["name"] for entry in benchmark["end_to_end"]]
    per_layer = [entry["name"] for entry in benchmark["per_layer"]]
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    for name in workloads + end_to_end + per_layer:
        assert NAME.fullmatch(name), name
    assert len(set(workloads + end_to_end + per_layer)) == len(
        workloads + end_to_end + per_layer
    )

    assert sorted(results["workloads"]) == sorted(workloads)
    assert set(spec["workloads"]) == set(workloads)
    assert set(spec["end_to_end"]) == set(end_to_end)
    assert set(spec["per_layer"]) == set(per_layer)
    for name in workloads:
        record = results["workloads"][name]
        assert record["failed"] == 0
        (run,) = record["end_to_end"]
        assert set(run) == set(end_to_end)
        assert all(value > 0 for value in run.values()), run
        quick = [
            pin for pin in spec["pins"][name]
            if (pin["seed"], pin["seconds"]) == (1, results["seconds"])
        ]
        assert quick, f"{name}: no pin for the quick run"
        assert run["wire_bytes_per_op"] == quick[0]["values"]["wire_bytes_per_op"]
    (layers,) = results["workloads"][workloads[0]]["per_layer"]
    assert set(layers) == set(per_layer)
    for name, value in spec["pins_per_layer"]["values"].items():
        assert layers[name] == value, name
    assert 0.0 <= layers["trace.residue_pct"] <= 20.0
