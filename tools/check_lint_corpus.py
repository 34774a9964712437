"""Lint-corpus gate: clean examples stay clean, malformed corpus stays caught.

Two checks, mirroring the CI lint step:

* every ``examples/*.nqpv`` program must be strict-clean — zero diagnostics
  from the static analyzer (``analyze_source``);
* every ``examples/lint/*.nqpv`` program must produce exactly the
  diagnostics recorded in the ``examples/lint/expected.json`` golden file,
  each pinned as ``CODE@line:column`` (and every golden entry must still
  have its corpus file).

The aggregate analyzer output (per-file diagnostics with spans, plus the
pass/fail verdicts) is written as JSON — by default ``LINT_diagnostics.json``
in the working directory — so CI can upload it as an artifact::

    PYTHONPATH=src python tools/check_lint_corpus.py [output.json]

Exit code 0 when both checks pass, 1 otherwise.  ``tests/test_static_analysis.py``
imports :func:`run_corpus` to enforce the same golden in tier-1.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"
CORPUS_DIR = EXAMPLES_DIR / "lint"
GOLDEN_FILE = CORPUS_DIR / "expected.json"


def _analyze(path: Path):
    """Run the static analyzer on one source file."""
    from repro.analysis.static import analyze_source

    return analyze_source(path.read_text(), filename=path.name)


def pinned(diagnostic) -> str:
    """Return the golden form of one diagnostic: ``CODE@line:column``."""
    return f"{diagnostic.code}@{diagnostic.span}"


def run_corpus() -> Dict[str, Any]:
    """Run both corpus checks and return the aggregate report.

    The report maps each file to its diagnostics and records every failure
    as a human-readable line under ``"failures"``; the run passed iff that
    list is empty.
    """
    failures: List[str] = []
    files: Dict[str, Any] = {}

    for path in sorted(EXAMPLES_DIR.glob("*.nqpv")):
        analysis = _analyze(path)
        files[f"examples/{path.name}"] = analysis.to_dict()
        if not analysis.ok(strict=True):
            codes = [diagnostic.code for diagnostic in analysis.diagnostics]
            failures.append(f"examples/{path.name}: expected strict-clean, got {codes}")

    golden: Dict[str, List[str]] = json.loads(GOLDEN_FILE.read_text())
    corpus_files = sorted(CORPUS_DIR.glob("*.nqpv"))
    for path in corpus_files:
        analysis = _analyze(path)
        files[f"examples/lint/{path.name}"] = analysis.to_dict()
        actual = [pinned(diagnostic) for diagnostic in analysis.diagnostics]
        expected = golden.get(path.name)
        if expected is None:
            failures.append(f"examples/lint/{path.name}: not in {GOLDEN_FILE.name} golden")
        elif actual != expected:
            failures.append(
                f"examples/lint/{path.name}: expected {expected}, got {actual}"
            )
        if not analysis.diagnostics:
            failures.append(
                f"examples/lint/{path.name}: malformed-corpus program produced no diagnostic"
            )

    seen = {path.name for path in corpus_files}
    for name in sorted(set(golden) - seen):
        failures.append(f"examples/lint/{name}: in golden but missing from corpus")

    return {"passed": not failures, "failures": failures, "files": files}


def main(argv: List[str] | None = None) -> int:
    """CLI entry point; writes the JSON artifact and returns the exit code."""
    argv = sys.argv[1:] if argv is None else argv
    output = Path(argv[0]) if argv else Path("LINT_diagnostics.json")

    report = run_corpus()
    output.write_text(json.dumps(report, indent=2, sort_keys=True))

    for failure in report["failures"]:
        print(failure)
    if report["passed"]:
        print(f"lint corpus OK ({len(report['files'])} file(s); report: {output})")
    else:
        print(f"{len(report['failures'])} lint-corpus failure(s)", file=sys.stderr)
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
