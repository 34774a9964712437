"""Compatibility stub for the benchmark harness's two imports.

``perfbench/run.py`` imports :func:`clear_result_cache` and
:func:`cache_stats` from this module, calling the first before every op and
reading per-region hit/miss counts from the second.  They exist only for
that import.  No result outlives the call that computed it: the prover, the
loop chain and the wp transformer keep their memos local to one call, so
there is nothing to clear and no counter to report.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["cache_stats", "clear_result_cache"]


def clear_result_cache() -> None:
    """Do nothing: no result outlives the call that computed it."""


def cache_stats() -> Dict[str, Any]:
    """Return ``{"regions": {}}``: there is no cross-call cache to count."""
    return {"regions": {}}
