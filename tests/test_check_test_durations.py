"""The tier-1 per-test time budget of ``tools/check_test_durations.py``."""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_test_durations  # noqa: E402  (needs the tools/ path above)

REPORT = """<?xml version="1.0" encoding="utf-8"?>
<testsuites><testsuite name="pytest" tests="3">
<testcase classname="tests.test_a.TestX" name="test_fast" time="0.5" />
<testcase classname="tests.test_b" name="test_slow[2]" time="{slow}" />
<testcase classname="tests.test_c" name="test_skipped" time="0.000"><skipped /></testcase>
</testsuite></testsuites>
"""


def write_report(tmp_path, slow):
    path = tmp_path / "junit.xml"
    path.write_text(REPORT.format(slow=slow))
    return path


def test_durations_are_read_slowest_first(tmp_path):
    durations = check_test_durations.read_durations(write_report(tmp_path, slow=7.25))
    assert durations == [
        ("tests.test_b::test_slow[2]", 7.25),
        ("tests.test_a.TestX::test_fast", 0.5),
        ("tests.test_c::test_skipped", 0.0),
    ]


def test_budget_is_120_seconds_exclusive():
    assert check_test_durations.BUDGET_S == 120.0
    durations = [("a", 120.0), ("b", 120.5), ("c", 359.0)]
    assert check_test_durations.over_budget(durations) == [("b", 120.5), ("c", 359.0)]


def test_exit_codes(tmp_path, capsys):
    assert check_test_durations.main([str(write_report(tmp_path, slow=119.9))]) == 0
    assert check_test_durations.main([str(write_report(tmp_path, slow=359.0))]) == 1
    assert "test_slow[2] took 359.0 s" in capsys.readouterr().err
    assert check_test_durations.main([str(tmp_path / "missing.xml")]) == 2
    empty = tmp_path / "empty.xml"
    empty.write_text("<testsuites><testsuite name='pytest' /></testsuites>")
    assert check_test_durations.main([str(empty)]) == 2
