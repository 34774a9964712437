"""Per-test time budget for tier 1, read from a pytest JUnit XML report.

Tier 1 writes its report with ``--junitxml``::

    PYTHONPATH=src python -m pytest -x -q --junitxml=TIER1_junit.xml
    python tools/check_test_durations.py TIER1_junit.xml

The checker prints the slowest tests and exits 1 when any single test
(set-up, call and tear-down, as pytest reports it) takes longer than
:data:`BUDGET_S`.  The budget is a fixed number of seconds: unlike the
``@pytest.mark.timing`` thresholds it is *not* scaled by
``REPRO_RELAXED_TIMING``, because a test that needs minutes on any runner
is a slow kernel to fix, not noise to absorb.  Exit code 2 means the report
is missing, unreadable or holds no test cases.
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ElementTree
from pathlib import Path
from typing import List, Tuple

#: Most seconds one tier-1 test may take.
BUDGET_S = 120.0

#: How many of the slowest tests the report lists.
SHOWN = 10


def read_durations(path: Path) -> List[Tuple[str, float]]:
    """Return ``(test id, seconds)`` for every test case in a JUnit XML file, slowest first."""
    root = ElementTree.parse(path).getroot()
    durations = []
    for case in root.iter("testcase"):
        name = f"{case.get('classname', '')}::{case.get('name', '')}"
        durations.append((name, float(case.get("time") or 0.0)))
    durations.sort(key=lambda item: item[1], reverse=True)
    return durations


def over_budget(durations: List[Tuple[str, float]], budget: float = BUDGET_S) -> List[Tuple[str, float]]:
    """Return the entries of ``durations`` that take longer than ``budget`` seconds."""
    return [(name, seconds) for name, seconds in durations if seconds > budget]


def main(argv: List[str]) -> int:
    """Check the report named by ``argv[0]`` (default ``TIER1_junit.xml``)."""
    path = Path(argv[0]) if argv else Path("TIER1_junit.xml")
    try:
        durations = read_durations(path)
    except (OSError, ElementTree.ParseError) as error:
        print(f"cannot read {path}: {error}", file=sys.stderr)
        return 2
    if not durations:
        print(f"{path} holds no test cases", file=sys.stderr)
        return 2
    total = sum(seconds for _, seconds in durations)
    print(f"{len(durations)} tests, {total:.1f} s in total; slowest:")
    for name, seconds in durations[:SHOWN]:
        print(f"  {seconds:8.2f} s  {name}")
    offenders = over_budget(durations)
    for name, seconds in offenders:
        print(f"over the {BUDGET_S:.0f} s budget: {name} took {seconds:.1f} s", file=sys.stderr)
    return 1 if offenders else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
