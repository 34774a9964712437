"""Docstring coverage checker for the public API (pydocstyle-equivalent D1xx).

Walks the given packages and reports every public symbol without a docstring:

* module docstrings,
* public top-level classes and functions (names not starting with ``_``),
* public methods of public classes (dunder methods other than ``__init__``
  are exempt — their contracts are the language's).

The container has no ``pydocstyle`` wheel baked in, so this small AST-based
walker enforces the same "missing docstring" class of checks in CI; it is run
both by ``tests/test_docstrings.py`` (tier-1) and as a standalone CI step::

    python tools/check_docstrings.py src/repro tools
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

#: What is checked when no arguments are given: the whole package and the tools.
DEFAULT_TARGETS = ("src/repro", "tools")


def iter_public_symbols(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """Yield ``(qualified_name, node)`` for every public symbol of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield node.name, node
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = item.name
                if name.startswith("__") and name.endswith("__") and name != "__init__":
                    continue
                if name.startswith("_"):
                    continue
                yield f"{node.name}.{name}", item


def missing_docstrings(path: Path) -> List[str]:
    """Return the violations (as report lines) of one Python source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    violations = []
    if ast.get_docstring(tree) is None:
        violations.append(f"{path}:1: missing module docstring")
    for name, node in iter_public_symbols(tree):
        if ast.get_docstring(node) is None:
            kind = "class" if isinstance(node, ast.ClassDef) else "function"
            violations.append(f"{path}:{node.lineno}: missing docstring on {kind} {name}")
    return violations


def check(targets: List[str]) -> List[str]:
    """Return all violations found under the target files/directories."""
    violations: List[str] = []
    for target in targets:
        root = Path(target)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for file in files:
            violations.extend(missing_docstrings(file))
    return violations


def main(argv: List[str] | None = None) -> int:
    """CLI entry point; returns the number of violations (0 = success)."""
    argv = sys.argv[1:] if argv is None else argv
    targets = argv or [str(Path(__file__).resolve().parent.parent / t) for t in DEFAULT_TARGETS]
    violations = check(targets)
    for violation in violations:
        print(violation)
    if violations:
        print(f"{len(violations)} public symbol(s) missing docstrings", file=sys.stderr)
    else:
        print("docstring coverage OK")
    return min(len(violations), 1)


if __name__ == "__main__":
    sys.exit(main())
