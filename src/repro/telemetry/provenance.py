"""Structured proof provenance: typed, timestamped events replacing log strings.

The prover's historical ``messages: List[str]`` carried invariant validations
and ranking syntheses as opaque strings.  A :class:`ProofEvent` keeps the same
human-readable rendering (``render()`` returns exactly the old string, so
reports and the CLI output are backwards compatible) while exposing *what
happened* as data: the event ``kind``, the proof ``rule`` involved,
free-form ``data`` pairs and a wall-clock timestamp.

Event kinds shipped by the pipeline:

``rule``
    One proof rule applied to one subterm (``rule`` set).
``invariant``
    A loop invariant validated against the loop body (old message string).
``ranking``
    A total-correctness loop certified to terminate under every scheduler.
``order``
    The final ``⊑_inf`` comparison against the declared precondition.
``info``
    Anything else (free-form, renders verbatim).

Events are *levelled*: ``"info"``-level events are what the old string log
contained and are what :func:`render_events` (and ``VerificationReport.messages``)
renders; ``"debug"``-level events (per-rule applications) are only visible
on the structured ``events`` list.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = ["ProofEvent", "proof_event", "render_events"]


@dataclass(frozen=True, slots=True)
class ProofEvent:
    """One structured, timestamped provenance record of a verification run.

    Attributes
    ----------
    kind:
        Event type — ``rule``, ``invariant``, ``ranking``, ``order`` or
        ``info`` (see the module docstring).
    message:
        The human-readable rendering; identical to the historical log string.
    rule:
        Name of the proof rule involved, when any (``Skip``, ``Meas+Union``, …).
    level:
        ``"info"`` (rendered into ``messages``) or ``"debug"`` (structured only).
    timestamp:
        Unix time the event was emitted.
    data:
        Additional ``(key, value)`` pairs, e.g. an order-decision outcome.
    """

    kind: str
    message: str
    rule: Optional[str] = None
    level: str = "info"
    timestamp: float = field(default_factory=time.time)
    data: Tuple[Tuple[str, Any], ...] = ()

    def render(self) -> str:
        """Return the human-readable message (the historical log string)."""
        return self.message

    def to_dict(self) -> Dict[str, Any]:
        """Return a JSON-serialisable record of the event."""
        return {
            "kind": self.kind,
            "message": self.message,
            "rule": self.rule,
            "level": self.level,
            "timestamp": self.timestamp,
            "data": dict(self.data),
        }


def proof_event(
    kind: str,
    message: str,
    rule: Optional[str] = None,
    level: str = "info",
    **data: Any,
) -> ProofEvent:
    """Build a :class:`ProofEvent`, folding keyword ``data`` into sorted pairs."""
    return ProofEvent(
        kind=kind,
        message=message,
        rule=rule,
        level=level,
        data=tuple(sorted(data.items())),
    )


def render_events(events: Iterable[ProofEvent]) -> List[str]:
    """Render the ``info``-level events to the historical string log."""
    return [event.render() for event in events if event.level == "info"]
