"""Per-layer spans recorded from outside the program.

The traced run wraps public layer functions of ``repro`` at the names their
callers look up: a function imported with ``from … import`` is rebound in
every loaded ``repro`` module that holds it, a method is replaced on its
class.  Each wrapper records one span (layer, start, end, parent) in memory,
plus counts derived from its arguments and result.  Self time is a span's
duration minus the time its child spans cover.

:meth:`Tracer.install` puts the wrappers in place, :meth:`Tracer.remove`
restores every original, and :func:`assert_unwrapped` fails if any wrapper
is still reachable.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Attribute set on every wrapper, so leftovers can be found.
MARKER = "__perfbench_layer__"

#: Span name of the op root, which the runner opens around each op.
OP = "op"


def _choi_counts(args, kwargs, result) -> Dict[str, float]:
    # Computed bytes of the d²×d² complex128 result: d⁴·16.
    return {"bytes": float(result.shape[0] * result.shape[1] * 16)}


def _simplified_counts(args, kwargs, result) -> Dict[str, float]:
    return {
        "rank_in": float(len(args[0].kraus_operators)),
        "rank_out": float(len(result.kraus_operators)),
    }


def _compose_counts(args, kwargs, result) -> Dict[str, float]:
    return {
        "kraus_products": float(len(args[0].kraus_operators) * len(args[1].kraus_operators))
    }


def _iterates_counts(args, kwargs, result) -> Dict[str, float]:
    return {"iterations": float(len(result))}


# (layer, module holding the original, attribute, class or None, counts)
LAYERS: Tuple[Tuple[str, str, str, Optional[str], Optional[Callable]], ...] = (
    ("language.parse", "repro.language.parser", "parse_annotated_program", None, None),
    ("analysis.analyze", "repro.analysis.static.analyzer", "analyze_source", None, None),
    ("assistant.resolve", "repro.assistant.verify", "build_task", None, None),
    ("logic.prover", "repro.logic.prover", "generate", "Prover", None),
    ("logic.ranking", "repro.logic.ranking", "synthesize_ranking", None, None),
    ("logic.ranking", "repro.logic.ranking", "check_ranking", None, None),
    ("predicates.leq_inf", "repro.predicates.order", "leq_inf", None, None),
    ("predicates.sdp_gap", "repro.predicates.sdp", "max_min_expectation_gap", None, None),
    ("semantics.denotation", "repro.semantics.denotational", "denotation", None, None),
    ("semantics.loop_iterates", "repro.semantics.denotational", "loop_iterates", None, _iterates_counts),
    ("superop.choi", "repro.superop.choi", "choi_matrix", None, _choi_counts),
    ("superop.simplified", "repro.superop.kraus", "simplified", "SuperOperator", _simplified_counts),
    ("superop.compose", "repro.superop.kraus", "compose", "SuperOperator", _compose_counts),
    ("superop.deduplicate", "repro.superop.compare", "deduplicate", None, None),
)


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Tracer:
    """Installed wrappers plus the spans they record."""

    def __init__(self) -> None:
        # Each span: [layer, start, end, parent index or -1, counts or None].
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    # ---------------------------------------------------------------- spans
    def open(self, layer: str) -> list:
        """Open a span under the innermost open one and return its record."""
        record = [layer, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close(self, record: list) -> None:
        """Close the innermost span, which must be ``record``."""
        record[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, layer: str, function: Callable, counts: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            record = tracer.open(layer)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(record)
            if counts is not None:
                record[4] = counts(args, kwargs, result)
            return result

        setattr(wrapper, MARKER, layer)
        return wrapper

    # ------------------------------------------------------------- patching
    def _patch(self, owner, attribute: str, wrapper) -> None:
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def install(self) -> None:
        """Wrap every layer of :data:`LAYERS` at every name it is bound to."""
        modules = _repro_modules()
        for layer, module_name, attribute, class_name, counts in LAYERS:
            module = sys.modules[module_name]
            if class_name is not None:
                owner = getattr(module, class_name)
                original = owner.__dict__[attribute]
                self._patch(owner, attribute, self._wrap(layer, original, counts))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(layer, original, counts)
            for candidate in modules:
                for name, value in list(vars(candidate).items()):
                    if value is original:
                        self._patch(candidate, name, wrapper)

    def remove(self) -> None:
        """Restore every original binding, newest first."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------ aggregates
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``calls``, ``self_s``, ``total_s`` and summed counts."""
        child_time = defaultdict(float)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, (layer, start, end, parent, counts) in enumerate(self.spans):
            entry = layers[layer]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
            for key, value in (counts or {}).items():
                entry[key] += value
        return {layer: dict(entry) for layer, entry in layers.items()}

    def write(self, path) -> None:
        """Write the spans as JSON lines (times relative to the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, (layer, start, end, parent, counts) in enumerate(self.spans):
                record = {
                    "id": index,
                    "parent": parent,
                    "layer": layer,
                    "start_s": start - origin,
                    "duration_s": end - start,
                }
                if counts:
                    record.update(counts)
                handle.write(json.dumps(record) + "\n")


def assert_unwrapped() -> None:
    """Raise ``RuntimeError`` if any wrapper is still bound in a ``repro`` module or class."""
    for module in _repro_modules():
        for name, value in list(vars(module).items()):
            if hasattr(value, MARKER):
                raise RuntimeError(f"trace wrapper still installed at {module.__name__}.{name}")
            if isinstance(value, type):
                for attribute, member in vars(value).items():
                    if hasattr(member, MARKER):
                        raise RuntimeError(
                            f"trace wrapper still installed at "
                            f"{module.__name__}.{name}.{attribute}"
                        )
