"""Tier-1 enforcement of public-API docstring coverage.

Runs the AST-based checker of ``tools/check_docstrings.py`` over its
``DEFAULT_TARGETS`` — the whole ``src/repro`` package and ``tools/`` — so a
missing docstring on any public symbol fails the ordinary test run, not just
the dedicated CI step.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docstrings  # noqa: E402  (needs the tools/ path above)


def test_public_api_docstring_coverage():
    targets = [str(REPO_ROOT / target) for target in check_docstrings.DEFAULT_TARGETS]
    violations = check_docstrings.check(targets)
    assert not violations, "\n".join(violations)


def test_checker_flags_missing_docstrings(tmp_path):
    offender = tmp_path / "module.py"
    offender.write_text("def public():\n    pass\n")
    violations = check_docstrings.check([str(offender)])
    assert len(violations) == 2  # module + function
    documented = tmp_path / "documented.py"
    documented.write_text('"""Module."""\n\ndef public():\n    """Doc."""\n')
    assert check_docstrings.check([str(documented)]) == []
