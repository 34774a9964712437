"""Structured proof provenance: typed, timestamped events replacing log strings.

The prover's historical ``messages: List[str]`` carried invariant validations
and ranking syntheses as opaque strings.  A :class:`ProofEvent` keeps the same
human-readable rendering (``render()`` returns exactly the old string, so
reports and the CLI output are backwards compatible) while exposing *what
happened* as data: the event ``kind``, the proof ``rule`` involved,
free-form ``data`` pairs, a wall-clock timestamp, and a ``replayed`` flag
for events re-emitted from the prover's per-call memo.

Event kinds shipped by the pipeline:

``rule``
    One proof rule applied to one subterm (``rule`` set).
``invariant``
    A loop invariant validated against the loop body (old message string).
``ranking``
    A total-correctness loop certified to terminate under every scheduler.
``order``
    The final ``⊑_inf`` comparison against the declared precondition.
``cache``
    A prover annotation reused from earlier in the same ``generate`` call;
    its original events follow as replayed copies.
``info``
    Anything else (free-form, renders verbatim).

Events are *levelled*: ``"info"``-level events are what the old string log
contained and are what :func:`render_events` (and ``VerificationReport.messages``)
renders; ``"debug"``-level events (per-rule applications, memo reuses) are
only visible on the structured ``events`` list.

Replay of reused annotations
----------------------------

Within one ``Prover.generate`` call the prover memoizes each annotation
together with the events its computation emitted.  When it reuses one, the
stored events are **not** appended verbatim (their timestamps would be stale
and nothing would mark them as reused); :meth:`ProofEvent.replay` re-emits a
copy with ``replayed=True`` and a fresh timestamp.  Renderings are unchanged,
so reports read exactly as if every annotation had been recomputed.
"""

from __future__ import annotations

import dataclasses
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
        Event type — ``rule``, ``invariant``, ``ranking``, ``order``,
        ``cache`` or ``info`` (see the module docstring).
    message:
        The human-readable rendering; identical to the historical log string.
    rule:
        Name of the proof rule involved, when any (``Skip``, ``Meas+Union``, …).
    level:
        ``"info"`` (rendered into ``messages``) or ``"debug"`` (structured only).
    timestamp:
        Unix time the event was emitted (or replayed).
    replayed:
        ``True`` when the event was re-emitted for an annotation the prover
        reused from earlier in the same run rather than computed fresh.
    data:
        Additional ``(key, value)`` pairs, e.g. an order-decision outcome.
    """

    kind: str
    message: str
    rule: Optional[str] = None
    level: str = "info"
    timestamp: float = field(default_factory=time.time)
    replayed: bool = False
    data: Tuple[Tuple[str, Any], ...] = ()

    def render(self) -> str:
        """Return the human-readable message (the historical log string)."""
        return self.message

    def replay(self) -> "ProofEvent":
        """Return a copy tagged ``replayed=True`` with a fresh timestamp."""
        return dataclasses.replace(self, replayed=True, timestamp=time.time())

    def to_dict(self) -> Dict[str, Any]:
        """Return a JSON-serialisable record of the event."""
        return {
            "kind": self.kind,
            "message": self.message,
            "rule": self.rule,
            "level": self.level,
            "timestamp": self.timestamp,
            "replayed": self.replayed,
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
