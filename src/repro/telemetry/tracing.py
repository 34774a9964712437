"""Span tracing: nested wall-clock regions with tags, JSONL export and a tree view.

A *span* is one timed region of work — ``parse``, ``denotation``, ``wp``,
``prover``, ``order-decision``, ``superop``, … — opened with the context manager
:func:`span` and automatically nested under whatever span is open on the same
thread.  The process-wide :class:`Tracer` (:data:`TRACER`) collects finished
root spans; it is **disabled by default** and its disabled path is a shared
no-op context manager, so instrumented library code pays only an attribute
lookup and an empty ``with`` block per call site (see the overhead guard in
``tests/test_telemetry.py``).

Span taxonomy (the ``region`` tag)
----------------------------------

Every span carries a ``region`` tag naming the pipeline stage it belongs to;
the shipped instrumentation uses:

``parse``, ``verify``, ``denotation``, ``loop``, ``wp``, ``prover``,
``order-decision``, ``compare``, ``refinement``, and ``superop`` for the
dense kernels' leaf spans (``choi``, tagged ``dimension``, ``kraus_rank``,
``bytes``; ``simplify``, tagged ``dimension``, ``rank_in``, ``rank_out``,
``side``).

:func:`region_breakdown` partitions wall time by attributing each span's
*self time* (duration minus the durations of its direct children) to its
region, so the per-region totals of one root sum exactly to the root's
duration.

JSONL schema
------------

:meth:`Tracer.export_jsonl` (and :meth:`Tracer.jsonl_lines`) emit one JSON
object per span, pre-order within each root::

    {"span_id": 3, "parent_id": 2, "name": "leq-inf", "start": 1723110000.12,
     "duration_ms": 4.21, "self_ms": 0.73, "tags": {"region": "order-decision",
     "predicates": 2}}

``span_id`` values are unique within one process; ``parent_id`` is ``null``
for root spans.  ``start`` is a Unix timestamp (``time.time()``); durations
come from the monotonic clock.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

__all__ = [
    "Span",
    "Tracer",
    "TRACER",
    "span",
    "get_tracer",
    "configure_tracing",
    "render_span_tree",
    "region_breakdown",
    "leaf_coverage",
    "traced_regions",
]

#: Process-wide monotonically increasing span identifiers.
_SPAN_IDS = itertools.count(1)


class Span:
    """One finished (or still-open) timed region of the trace tree.

    Attributes
    ----------
    name:
        The span's display name (e.g. ``"denotation"``).
    tags:
        Arbitrary key → value attributes; by convention every span carries a
        ``region`` tag (see the module docstring).
    start_wall / start / end:
        Unix timestamp of entry, and monotonic-clock entry/exit times.
    children:
        Directly nested spans, in completion order.

    A span is its own context manager: :meth:`Tracer.span` creates it (its
    clock starts then), ``__enter__`` pushes it on the tracer's open-span
    stack of the current thread and ``__exit__`` stops the clock and files it
    under its parent, or among the tracer's roots.  Both work on the stack
    inline: they run for every span of a traced run.
    """

    __slots__ = (
        "name", "tags", "span_id", "parent_id", "start_wall", "start", "end", "children", "_tracer"
    )

    def __init__(
        self,
        name: str,
        tags: Dict[str, Any],
        parent_id: Optional[int] = None,
        tracer: Optional["Tracer"] = None,
    ):
        self.name = name
        self.tags = tags
        self.span_id = next(_SPAN_IDS)
        self.parent_id = parent_id
        self.end: Optional[float] = None
        self.children: List["Span"] = []
        self._tracer = tracer
        self.start_wall = time.time()
        self.start = time.perf_counter()

    def __enter__(self) -> "Span":
        local = self._tracer._local
        try:
            stack = local.stack
        except AttributeError:
            stack = local.stack = []
        if stack:
            self.parent_id = stack[-1].span_id
        stack.append(self)
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.end = time.perf_counter()
        stack = getattr(self._tracer._local, "stack", ())
        # Tolerate a foreign stack top (e.g. a span leaked across a generator
        # or closed on another thread): unwind down to this span instead of
        # corrupting the tree.
        while stack and stack[-1] is not self:
            stack.pop()
        if stack:
            stack.pop()
        if stack:
            stack[-1].children.append(self)
        else:
            self._tracer._add_root(self)
        return False

    # ------------------------------------------------------------------ timing
    @property
    def duration(self) -> float:
        """Wall-clock seconds between entry and exit (``0.0`` while open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the durations of the direct children (never negative)."""
        return max(0.0, self.duration - sum(child.duration for child in self.children))

    def set_tag(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one tag on the span."""
        self.tags[key] = value

    # ------------------------------------------------------------------ export
    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant in pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        """Return the JSONL record of this span (see the module docstring)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start_wall,
            "duration_ms": round(self.duration * 1000.0, 6),
            "self_ms": round(self.self_time * 1000.0, 6),
            "tags": dict(self.tags),
        }


class _NullSpan:
    """The span handed out while tracing is disabled; every operation is a no-op."""

    __slots__ = ()

    def set_tag(self, key: str, value: Any) -> None:
        """Discard the tag (tracing is disabled)."""


_NULL_SPAN = _NullSpan()


class _NullSpanContext:
    """Shared context manager returned by :func:`span` while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_CONTEXT = _NullSpanContext()


class Tracer:
    """Process-wide span collector with a per-thread open-span stack.

    Disabled by default: :meth:`span` then returns a shared no-op context
    manager and nothing is recorded.  Finished *root* spans (spans opened with
    no enclosing span on their thread) are retained up to ``max_roots``,
    oldest first evicted.
    """

    def __init__(self, max_roots: int = 256):
        self._enabled = False
        self._max_roots = int(max_roots)
        self._roots: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # ----------------------------------------------------------- configuration
    @property
    def enabled(self) -> bool:
        """Whether spans are currently being recorded."""
        return self._enabled

    def configure(self, enabled: Optional[bool] = None, max_roots: Optional[int] = None) -> None:
        """Switch recording on/off and/or bound the retained root spans."""
        if enabled is not None:
            self._enabled = bool(enabled)
        if max_roots is not None:
            with self._lock:
                self._max_roots = int(max_roots)
                del self._roots[: max(0, len(self._roots) - self._max_roots)]

    def clear(self) -> None:
        """Drop every retained finished root span."""
        with self._lock:
            self._roots.clear()

    # ----------------------------------------------------------------- tracing
    def span(self, name: str, **tags: Any):
        """Return a context manager timing ``name`` (no-op while disabled)."""
        if not self._enabled:
            return _NULL_CONTEXT
        return Span(name, tags, tracer=self)

    def _add_root(self, closed: Span) -> None:
        """Retain a finished root span, evicting the oldest beyond ``max_roots``."""
        with self._lock:
            self._roots.append(closed)
            del self._roots[: max(0, len(self._roots) - self._max_roots)]

    # ------------------------------------------------------------------ export
    def finished_roots(self) -> List[Span]:
        """Return the retained finished root spans, oldest first."""
        with self._lock:
            return list(self._roots)

    def jsonl_lines(self) -> List[str]:
        """Return one JSON line per recorded span, pre-order within each root."""
        lines: List[str] = []
        for root in self.finished_roots():
            for node in root.walk():
                lines.append(json.dumps(node.to_dict(), default=str, sort_keys=True))
        return lines

    def export_jsonl(self, path) -> int:
        """Write the recorded spans as JSONL to ``path``; return the span count."""
        lines = self.jsonl_lines()
        with open(path, "w") as handle:
            for line in lines:
                handle.write(line + "\n")
        return len(lines)

    def render(self) -> str:
        """Render every retained root span as an indented tree (see :func:`render_span_tree`)."""
        return "\n".join(render_span_tree(root) for root in self.finished_roots())


#: The process-wide tracer every instrumented call site shares.
TRACER = Tracer()


def get_tracer() -> Tracer:
    """Return the process-wide :class:`Tracer`."""
    return TRACER


def span(name: str, **tags: Any):
    """Open a span on the process-wide tracer (no-op context manager while disabled).

    Usage::

        with span("denotation", region="denotation", num_qubits=3) as sp:
            ...
            sp.set_tag("set_size", 4)

    Equivalent to ``get_tracer().span(name, **tags)``, without the second
    call: every instrumented call site goes through here.
    """
    if not TRACER._enabled:
        return _NULL_CONTEXT
    return Span(name, tags, tracer=TRACER)


def configure_tracing(enabled: Optional[bool] = None, max_roots: Optional[int] = None) -> None:
    """Configure the process-wide tracer (recording on/off, root retention)."""
    TRACER.configure(enabled=enabled, max_roots=max_roots)


def _format_tags(tags: Dict[str, Any]) -> str:
    """Render a span's tags as ``key=value`` pairs, ``region`` first."""
    ordered = sorted(tags.items(), key=lambda item: (item[0] != "region", item[0]))
    return " ".join(f"{key}={value}" for key, value in ordered)


def render_span_tree(root: Span) -> str:
    """Render one root span as a human-readable indented tree.

    Every line shows the span name, its tags, the total and self wall times in
    milliseconds and the share of the root's duration; a trailing summary line
    reports the *leaf coverage* (see :func:`leaf_coverage`).
    """
    total = max(root.duration, 1e-12)
    lines: List[str] = []

    def _render(node: Span, depth: int) -> None:
        label = f"{'  ' * depth}{node.name}"
        tags = _format_tags(node.tags)
        if tags:
            label += f" [{tags}]"
        lines.append(
            f"{label:<64s} {node.duration * 1000.0:9.2f} ms"
            f"  self {node.self_time * 1000.0:9.2f} ms"
            f"  {100.0 * node.duration / total:5.1f}%"
        )
        for child in node.children:
            _render(child, depth + 1)

    _render(root, 0)
    lines.append(f"leaf coverage: {100.0 * leaf_coverage(root):.1f}% of {total * 1000.0:.2f} ms")
    return "\n".join(lines)


def leaf_coverage(root: Span) -> float:
    """Return the fraction of the root's duration spent inside leaf spans."""
    total = root.duration
    if total <= 0.0:
        return 0.0
    leaves = sum(node.duration for node in root.walk() if not node.children)
    return leaves / total


def traced_regions(function: Callable[[], object]) -> Dict[str, Dict[str, float]]:
    """Run ``function`` once with tracing enabled and return its region breakdown.

    The process-wide tracer is flipped on (and its retained roots cleared) just
    for the call, then restored to its previous state — the helper the
    benchmark harnesses use to attach a per-region wall-time breakdown to an
    otherwise untraced timing cell.
    """
    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.configure(enabled=True)
    tracer.clear()
    try:
        function()
    finally:
        tracer.configure(enabled=was_enabled)
    roots = tracer.finished_roots()
    tracer.clear()
    return region_breakdown(roots)


def region_breakdown(roots: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Partition wall time by region over ``roots``.

    Each span's *self time* is attributed to its ``region`` tag (falling back
    to the span name), so the ``seconds`` totals of one root sum exactly to
    that root's duration.  Returns ``{region: {"seconds": ..., "spans": n}}``.
    """
    breakdown: Dict[str, Dict[str, float]] = {}
    for root in roots:
        for node in root.walk():
            region = str(node.tags.get("region", node.name))
            entry = breakdown.setdefault(region, {"seconds": 0.0, "spans": 0})
            entry["seconds"] += node.self_time
            entry["spans"] += 1
    for entry in breakdown.values():
        entry["seconds"] = round(entry["seconds"], 6)
    return breakdown
