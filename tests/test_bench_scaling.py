"""Smoke test of the unified scaling benchmark harness.

Runs ``benchmarks/bench_scaling.py`` in ``--smoke`` mode against a temporary
output path: the sweep must succeed, both liftings must agree with the
reference semantics, and the emitted JSON must follow the
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
    assert payload["benchmark"] == "bench_scaling"
    assert payload["smoke"] is True
    assert payload["passed"] is True

    members = sum(len(sizes) for sizes in bench_scaling.SMOKE_SIZES.values())
    results = payload["results"]
    assert len(results) == members * 2
    for entry in results:
        assert entry["agrees_with_reference"] is True
        assert entry["lifting"] in ("dense", "local")
        assert entry["seconds"] >= 0.0
        assert entry["num_qubits"] >= 2
    claims = payload["claims"]
    assert len(claims) == members
    assert all(key.endswith("_kraus_local_speedup") for key in claims)
    assert all(value > 0.0 for value in claims.values())


def test_local_speedups_indexing():
    results = [
        {"workload": "grover", "size": 4, "lifting": "dense", "seconds": 1.0},
        {"workload": "grover", "size": 4, "lifting": "local", "seconds": 0.25},
        # A member with only one lifting measured yields no ratio.
        {"workload": "qwalk", "size": 16, "lifting": "dense", "seconds": 2.0},
    ]
    claims = bench_scaling.local_speedups(results)
    assert claims == {"grover4_kraus_local_speedup": 4.0}


def test_disagreeing_cell_fails_the_payload():
    payload = {
        "results": [
            {"workload": "qwalk", "size": 4, "lifting": "local", "agrees_with_reference": False}
        ]
    }
    assert bench_scaling.check_payload(payload) == [
        "qwalk size=4 local disagrees with the reference semantics"
    ]
