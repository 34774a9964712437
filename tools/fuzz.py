"""Fuzzing driver: generate programs, run the differential oracle, promote findings.

Sweeps a fixed-seed batch of generated programs through the denotation-vs-wlp
oracle of :mod:`repro.fuzz.differential`::

    python tools/fuzz.py --seed 2023 --max-programs 200 --report fuzz-report.json

Every divergence prints one copy-pasteable repro line
(``python tools/fuzz.py --seed S --index I --shrink``) plus the (optionally
shrunk) source, and is promoted to the regression corpus as a
``tests/regressions/fuzz_<seed>_<index>.nqpv`` / ``.expected.json`` pair that
``tests/test_regressions.py`` replays forever after.

``--index`` re-checks a single batch member (the repro path); ``--shrink``
delta-debugs failures to a minimal program before reporting.  Exit status is
the number of divergent programs (0 = clean sweep), capped at 125.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.fuzz import GeneratorConfig, OracleConfig, generate_program, shrink  # noqa: E402
from repro.fuzz.differential import check_program, repro_line, run_differential  # noqa: E402

#: Where promoted regressions live, relative to the repository root.
REGRESSIONS_DIR = REPO_ROOT / "tests" / "regressions"


def parse_args(argv=None) -> argparse.Namespace:
    """Parse the driver's command line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2023, help="batch seed (default 2023)")
    parser.add_argument(
        "--max-programs", type=int, default=200, help="batch size (default 200)"
    )
    parser.add_argument(
        "--max-qubits", type=int, default=3, help="qubit budget per program (default 3)"
    )
    parser.add_argument(
        "--index", type=int, default=None, help="check one batch member instead of a sweep"
    )
    parser.add_argument(
        "--shrink", action="store_true", help="delta-debug failures to a minimal program"
    )
    parser.add_argument(
        "--clifford-bias",
        type=float,
        default=0.5,
        help="probability of Clifford-only gate draws (default 0.5)",
    )
    parser.add_argument(
        "--max-iterations",
        type=int,
        default=24,
        help="loop truncation bound used by the oracle (default 24)",
    )
    parser.add_argument("--report", type=Path, default=None, help="write a JSON report here")
    parser.add_argument(
        "--regressions-dir",
        type=Path,
        default=REGRESSIONS_DIR,
        help="where to write minimized divergences (default tests/regressions/)",
    )
    parser.add_argument(
        "--no-promote",
        action="store_true",
        help="do not write regression files for divergences",
    )
    return parser.parse_args(argv)


def shrink_failure(program, config):
    """Return the shrunk program preserving at least one oracle divergence."""
    return shrink(program, lambda candidate: bool(check_program(candidate, config)))


def report_failure(program, divergences, args, oracle_config) -> dict:
    """Print the repro line + (shrunk) source for one failure; return its JSON record."""
    minimized = program
    if args.shrink:
        minimized = shrink_failure(program, oracle_config)
    print(f"DIVERGENCE seed={program.seed} index={program.index}", file=sys.stderr)
    print(f"  repro: {repro_line(program.seed, program.index)}", file=sys.stderr)
    for divergence in divergences:
        print(
            f"  {divergence.kind}: {divergence.combo_a} vs {divergence.combo_b} — "
            f"{divergence.detail}",
            file=sys.stderr,
        )
    print("  minimized source:", file=sys.stderr)
    for line in minimized.source().splitlines():
        print("    " + line, file=sys.stderr)
    record = {
        "seed": program.seed,
        "index": program.index,
        "repro": repro_line(program.seed, program.index),
        "divergences": [divergence.to_dict() for divergence in divergences],
        "minimized_source": minimized.source(),
        "shrunk": bool(args.shrink),
        "original_size": program.size(),
        "minimized_size": minimized.size(),
    }
    if not args.no_promote:
        promote(record, args.regressions_dir)
    return record


def promote(record: dict, directory: Path) -> None:
    """Write one failure to the regression corpus as a source + expectation pair."""
    directory.mkdir(parents=True, exist_ok=True)
    stem = f"fuzz_{record['seed']}_{record['index']}"
    (directory / f"{stem}.nqpv").write_text(record["minimized_source"])
    expected = {
        "seed": record["seed"],
        "index": record["index"],
        "repro": record["repro"],
        "expected": "all representation combinations agree",
        "history": [
            {
                "kind": divergence["kind"],
                "combo_a": divergence["combo_a"],
                "combo_b": divergence["combo_b"],
                "detail": divergence["detail"],
            }
            for divergence in record["divergences"]
        ],
    }
    (directory / f"{stem}.expected.json").write_text(json.dumps(expected, indent=2) + "\n")
    print(f"  promoted to {directory / (stem + '.nqpv')}", file=sys.stderr)


def main(argv=None) -> int:
    """Run the sweep (or single-index check); return the divergent-program count."""
    args = parse_args(argv)
    generator_config = GeneratorConfig(
        max_qubits=args.max_qubits, clifford_bias=args.clifford_bias
    )
    oracle_config = OracleConfig(max_iterations=args.max_iterations)

    failures = []
    if args.index is not None:
        program = generate_program(args.seed, args.index, generator_config)
        divergences = check_program(program, oracle_config)
        payload = {
            "seed": args.seed,
            "programs_checked": 1,
            "divergence_count": len(divergences),
            "failures": [],
        }
        if divergences:
            payload["failures"].append(
                report_failure(program, divergences, args, oracle_config)
            )
        elif program.contains_while():
            print(
                f"index {args.index}: loop draw ran without engine errors, termination "
                "violations or duality violations on certified loops"
            )
        else:
            print(
                f"index {args.index}: wlp matches the denotation and the prover, "
                "and VC and wlp are ⊑_inf-equivalent"
            )
        failures = payload["failures"]
    else:
        programs = [
            generate_program(args.seed, index, generator_config)
            for index in range(args.max_programs)
        ]

        def on_program(position, program, divergences):
            if divergences:
                failures.append(report_failure(program, divergences, args, oracle_config))
            if (position + 1) % 50 == 0:
                print(f"... {position + 1}/{len(programs)} checked", file=sys.stderr)

        report = run_differential(programs, oracle_config, on_program=on_program)
        payload = report.to_dict()
        payload["failures"] = failures
        loops = report.loops
        print(
            f"checked {report.programs_checked} programs "
            f"(duality on {report.loop_free} loop-free and {report.loop_draws_compared} loop "
            f"draw(s), prover on {report.prover_checked}, "
            f"{report.order_decisions} order decision(s) between VC and wlp, "
            f"termination on {report.with_loops} with loops: {loops['certified']} loop(s) "
            f"certified, {loops['horizon']} refused at the horizon, {loops['budget']} over budget; "
            f"{report.denotation_maps} denotation map(s) with {report.kraus_operators} Kraus "
            f"operator(s)): {len(failures)} divergent program(s)"
        )

    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"report written to {args.report}")
    return min(len(failures), 125)


if __name__ == "__main__":
    sys.exit(main())
