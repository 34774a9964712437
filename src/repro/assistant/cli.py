"""Command-line entry point: ``nqpv-verify <file>``.

The input file may contain either a raw annotated program (precondition,
program with ``inv:`` annotations, postcondition) or a command script using
``def``/``proof``/``show``.  Additional operators can be supplied as ``.npy``
files via ``--operator NAME=path``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

import numpy as np

from ..exceptions import NameResolutionError, ParseError, ReproError, StaticAnalysisError
from ..logic.formula import CorrectnessMode
from ..logic.prover import ProverOptions
from ..telemetry import configure_tracing, get_tracer, metrics_snapshot
from .session import Session
from .verify import build_task, verify_source

__all__ = ["build_arg_parser", "main"]


#: Epilog describing how the engines compute; shown by ``--help``.
_EPILOG = """\
performance:
  The semantic engines compute with Kraus-form super-operators on the full
  register: a gate is applied by contracting only its own qubits.
  See README "Scaling guide" for measured numbers and --trace for where one
  run spends its time.
"""


def build_arg_parser() -> argparse.ArgumentParser:
    """Return the argument parser of the CLI."""
    parser = argparse.ArgumentParser(
        prog="nqpv-verify",
        description="Verify nondeterministic quantum programs (reproduction of NQPV, ASPLOS'23).",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("source", help="path to the annotated program or command script")
    parser.add_argument(
        "--operator",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="register an operator from a .npy file (repeatable)",
    )
    parser.add_argument(
        "--mode",
        choices=["partial", "total"],
        default="partial",
        help="correctness mode (default: partial, as in the paper's prototype)",
    )
    parser.add_argument(
        "--epsilon", type=float, default=1e-6, help="precision of the order decision procedure"
    )
    parser.add_argument(
        "--script",
        action="store_true",
        help="treat the input as a def/proof/show command script instead of a single program",
    )
    parser.add_argument(
        "--lint",
        action="store_true",
        help="run the static analyzer only (no verification): print every "
        "diagnostic as 'file:line:col: CODE severity: message' and exit "
        "non-zero when errors (or, with --strict, any diagnostics) were found",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat analyzer warnings as failures (with --lint: non-zero exit; "
        "during verification: abort before the prover runs)",
    )
    parser.add_argument(
        "--diagnostics-json",
        metavar="PATH",
        default=None,
        help="write the analyzer result (diagnostics + program profile) as JSON",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="only print the verification verdict"
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record spans across the verification pipeline and print the nested "
        "span tree (wall time per parse/denotation/wp/prover/order-decision region)",
    )
    parser.add_argument(
        "--trace-json",
        metavar="PATH",
        default=None,
        help="record spans and write them as JSONL (one span per line; implies tracing)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics-registry snapshot (order-decision counters and "
        "latencies, proof-event counts) as JSON",
    )
    return parser


def _write_diagnostics_json(path: str, analysis) -> None:
    """Write one analyzer result as a JSON document."""
    Path(path).write_text(json.dumps(analysis.to_dict(), indent=2, sort_keys=True))


def _run_lint(
    arguments: argparse.Namespace, source_text: str, filename: str, environment
) -> int:
    """Run ``--lint``: analyze only, print diagnostics, exit by severity.

    Exit code 0 when the program is clean (with ``--strict``: no diagnostics
    at all), 1 otherwise.  Never runs the prover or builds a super-operator.
    """
    from ..analysis.static.analyzer import analyze_source

    analysis = analyze_source(source_text, environment, filename=filename)
    if not arguments.quiet or not analysis.ok(arguments.strict):
        print(analysis.render())
    if arguments.diagnostics_json:
        _write_diagnostics_json(arguments.diagnostics_json, analysis)
    _emit_telemetry(arguments)
    return 0 if analysis.ok(arguments.strict) else 1


def _emit_telemetry(arguments: argparse.Namespace) -> None:
    """Print/export the requested telemetry output after a verification run."""
    tracer = get_tracer()
    if arguments.trace:
        rendered = tracer.render()
        if rendered:
            print(rendered)
    if arguments.trace_json:
        count = tracer.export_jsonl(arguments.trace_json)
        print(f"trace: wrote {count} spans to {arguments.trace_json}", file=sys.stderr)
    if arguments.metrics:
        print(json.dumps(metrics_snapshot(), indent=2, sort_keys=True))


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_arg_parser()
    arguments = parser.parse_args(argv)

    source_path = Path(arguments.source)
    try:
        source_text = source_path.read_text()
    except OSError as error:
        print(f"error: cannot read {source_path}: {error}", file=sys.stderr)
        return 2

    if arguments.trace or arguments.trace_json:
        configure_tracing(enabled=True)
        get_tracer().clear()

    try:
        session = Session(
            mode=CorrectnessMode(arguments.mode),
            options=ProverOptions(epsilon=arguments.epsilon),
            base_path=source_path.parent,
        )
        for definition in arguments.operator:
            name, _, path = definition.partition("=")
            if not name or not path:
                raise ReproError(f"invalid --operator value {definition!r}; expected NAME=PATH")
            session.load(name, path)

        if arguments.lint:
            return _run_lint(arguments, source_text, str(source_path), session.environment)

        if arguments.script:
            outputs = session.run_script(source_text)
            if not arguments.quiet:
                for output in outputs:
                    print(output)
            failed = any(proof.verified is False for proof in session.proofs.values())
            print("verification:", "FAILED" if failed else "OK")
            _emit_telemetry(arguments)
            return 1 if failed else 0

        # With --strict or --diagnostics-json the task is built first and
        # its analysis read before the prover runs.
        source = source_text
        if arguments.strict or arguments.diagnostics_json:
            rejection = None
            try:
                source = build_task(source_text, session.environment, mode=session.mode)
                analysis = replace(source.analysis, filename=str(source_path))
            except (ParseError, NameResolutionError, StaticAnalysisError) as error:
                # The error names the first finding of a rejected source; the
                # analysis lists all of them.
                from ..analysis.static.analyzer import analyze_source

                rejection = error
                analysis = analyze_source(source_text, session.environment, str(source_path))
            if arguments.diagnostics_json:
                _write_diagnostics_json(arguments.diagnostics_json, analysis)
            if arguments.strict and not analysis.ok(strict=True):
                print(analysis.render())
                print("verification: FAILED")
                _emit_telemetry(arguments)
                return 1
            if rejection is not None:
                raise rejection

        report = verify_source(
            source,
            session.environment,
            mode=session.mode,
            options=session.options,
        )
        if not arguments.quiet:
            print(report.outline.render())
            for message in report.messages:
                print("//", message)
            for diagnostic in report.diagnostics:
                print("// lint:", diagnostic.render(str(source_path)))
        print("verification:", "OK" if report.verified else "FAILED")
        _emit_telemetry(arguments)
        return 0 if report.verified else 1
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
