"""Experiment E12 — scaling sweep: denotation time against program size.

It times the denotational semantics of the three scalable program families

* ``grover``  — ``grover_program(n, layout="gates")``: loop-free, gate-local
  circuit with global oracle/reflection statements;
* ``qwalk``   — ``qwalk_program(2^m)``: a while loop whose nondeterministic
  body is two layers of single-qubit gates (the hypercube walk family);
* ``errcorr`` — ``errcorr_program(n)``: nondeterministic noise plus nested
  measurement conditionals, every statement one- or two-qubit local;

and writes the whole trajectory to ``BENCH_scaling.json``: per family member
the best wall-clock time of an uncached ``denotation`` call plus the per-region
breakdown of one traced run.  The sweep records numbers and asserts none.

Run directly::

    PYTHONPATH=src python benchmarks/bench_scaling.py           # full sweep
    PYTHONPATH=src python benchmarks/bench_scaling.py --smoke   # CI-sized

The ``--smoke`` mode restricts the sweep to ≤ 3-qubit instances and a single
timing repetition so CI can publish a per-PR trajectory artifact without
paying the full measurement cost.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.cache import RESULT_CACHE, clear_result_cache
from repro.programs.errcorr import errcorr_program, errcorr_register
from repro.programs.grover import grover_program, grover_register
from repro.programs.qwalk import qwalk_program, qwalk_register
from repro.semantics.denotational import denotation
from repro.telemetry import traced_regions

#: Sizes swept per workload: the family parameter per entry (register widths
#: reach 4 qubits).  Full *denotation sets* of the 5-qubit repetition code are
#: combinatorially heavy (6 noise branches × nested conditionals); 5-qubit
#: instances are exercised through the prover instead
#: (``tests/test_program_families.py``), which needs only wp transformers.
FULL_SIZES: Dict[str, List[int]] = {
    "grover": [2, 3, 4],
    "qwalk": [4, 8, 16],
    "errcorr": [3, 4],
}

SMOKE_SIZES: Dict[str, List[int]] = {
    "grover": [2, 3],
    "qwalk": [4, 8],
    "errcorr": [3],
}


def build_workload(family: str, size: int) -> Tuple[object, object]:
    """Return ``(program, register)`` for one family member."""
    if family == "grover":
        return grover_program(size, layout="gates"), grover_register(size)
    if family == "qwalk":
        return qwalk_program(size), qwalk_register(size)
    if family == "errcorr":
        return errcorr_program(size), errcorr_register(size)
    raise ValueError(f"unknown workload family {family!r}")


def best_of(function: Callable[[], object], repeats: int) -> float:
    """Return the best wall-clock time of ``repeats`` runs of ``function``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def run_sweep(smoke: bool, repeats: int) -> Dict:
    """Run the size sweep and return the JSON payload."""
    sizes = SMOKE_SIZES if smoke else FULL_SIZES
    results: List[Dict] = []
    for family, family_sizes in sizes.items():
        for size in family_sizes:
            program, register = build_workload(family, size)
            seconds = best_of(lambda: denotation(program, register), repeats)
            # One extra traced run per cell: the timed runs above stay
            # untraced, the breakdown attributes wall time per region
            # (denotation / loop / compare / ...) for this cell.
            breakdown = traced_regions(lambda: denotation(program, register))
            results.append(
                {
                    "workload": family,
                    "size": size,
                    "num_qubits": register.num_qubits,
                    "seconds": round(seconds, 6),
                    "breakdown": breakdown,
                }
            )
            print(f"{family:8s} size={size:<3d} n={register.num_qubits} {seconds*1000:9.2f} ms")
    return {
        "benchmark": "bench_scaling",
        "experiment": "E12",
        "smoke": smoke,
        "repeats": repeats,
        "results": results,
    }


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description="Scaling benchmark: denotation time by size.")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized sweep (<= 3-qubit instances, one timing repetition)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing repetitions per cell"
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_scaling.json"),
        help="output JSON path (default: BENCH_scaling.json at the repo root)",
    )
    arguments = parser.parse_args(argv)
    repeats = arguments.repeats if arguments.repeats is not None else (1 if arguments.smoke else 3)

    # Time the raw engines: with the content-addressed result cache enabled,
    # repeated timing runs would measure cache lookups instead (the cache's
    # payoff has its own harness, benchmarks/bench_incremental.py).
    RESULT_CACHE.configure(enabled=False)
    clear_result_cache()
    try:
        payload = run_sweep(arguments.smoke, repeats)
    finally:
        RESULT_CACHE.configure(enabled=True)
        clear_result_cache()

    out_path = Path(arguments.out)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
