"""Smoke test of the scaling benchmark harness.

Runs ``benchmarks/bench_scaling.py`` in ``--smoke`` mode against a temporary
output path: the sweep must succeed and the emitted JSON must follow the
``BENCH_scaling.json`` schema documented in the README.
"""

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import bench_scaling  # noqa: E402  (needs the benchmarks/ path above)


def test_smoke_sweep_writes_schema_conformant_json(tmp_path):
    out = tmp_path / "BENCH_scaling.json"
    exit_code = bench_scaling.main(["--smoke", "--out", str(out)])
    assert exit_code == 0

    payload = json.loads(out.read_text())
    assert set(payload) == {"benchmark", "experiment", "smoke", "repeats", "results"}
    assert payload["benchmark"] == "bench_scaling"
    assert payload["smoke"] is True

    results = payload["results"]
    expected = [
        (family, size) for family, sizes in bench_scaling.SMOKE_SIZES.items() for size in sizes
    ]
    assert [(entry["workload"], entry["size"]) for entry in results] == expected
    for entry in results:
        assert set(entry) == {"workload", "size", "num_qubits", "seconds", "breakdown"}
        assert entry["seconds"] >= 0.0
        assert entry["num_qubits"] >= 2
        assert "denotation" in entry["breakdown"]
