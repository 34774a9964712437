"""Schedulers resolving nondeterminism inside while-loop bodies (Sec. 3.2).

The denotational semantics of ``while M[q̄] do S end`` is parameterised by a
scheduler ``η ∈ [[S]]^N`` selecting, for each iteration, which super-operator of
the loop body's denotation is executed.  A :class:`Scheduler` here chooses an
*index* into the (finite) list of body denotations, which keeps schedulers
independent of the concrete register the program is interpreted over.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..exceptions import SchedulerError

__all__ = [
    "Scheduler",
    "ConstantScheduler",
    "CyclicScheduler",
    "FunctionScheduler",
    "RandomScheduler",
    "constant_schedulers",
    "sample_schedulers",
]


class Scheduler:
    """Base class: maps the 1-based iteration number to a branch index."""

    def select(self, iteration: int, num_choices: int) -> int:
        """Return the index (``0 ≤ index < num_choices``) chosen at ``iteration``."""
        raise NotImplementedError

    def describe(self) -> str:
        """A short human-readable description used in experiment reports."""
        return type(self).__name__


class ConstantScheduler(Scheduler):
    """Always choose the same branch — the schedulers used in Example 5.3 of [12]."""

    def __init__(self, index: int):
        if index < 0:
            raise SchedulerError("scheduler index must be non-negative")
        self.index = index

    def select(self, iteration: int, num_choices: int) -> int:
        """Return the fixed branch index (validated against ``num_choices``)."""
        if self.index >= num_choices:
            raise SchedulerError(
                f"constant scheduler index {self.index} out of range for {num_choices} choice(s)"
            )
        return self.index

    def describe(self) -> str:
        """Return ``constant(i)``."""
        return f"constant({self.index})"


class CyclicScheduler(Scheduler):
    """Cycle deterministically through a fixed pattern of branch indices."""

    def __init__(self, pattern: Sequence[int]):
        if not pattern:
            raise SchedulerError("cyclic scheduler needs a non-empty pattern")
        self.pattern = tuple(int(index) for index in pattern)

    def select(self, iteration: int, num_choices: int) -> int:
        """Return the pattern entry of the (1-based) ``iteration``, cyclically."""
        index = self.pattern[(iteration - 1) % len(self.pattern)]
        if index >= num_choices:
            raise SchedulerError(
                f"cyclic scheduler index {index} out of range for {num_choices} choice(s)"
            )
        return index

    def describe(self) -> str:
        """Return ``cyclic([...])`` with the pattern."""
        return f"cyclic({list(self.pattern)})"


class FunctionScheduler(Scheduler):
    """Delegate the choice to an arbitrary callable ``(iteration, num_choices) → index``."""

    def __init__(self, function: Callable[[int, int], int], description: str = "function"):
        self._function = function
        self._description = description

    def select(self, iteration: int, num_choices: int) -> int:
        """Return the delegate's choice, range-checked."""
        index = int(self._function(iteration, num_choices))
        if not 0 <= index < num_choices:
            raise SchedulerError(f"scheduler produced out-of-range index {index}")
        return index

    def describe(self) -> str:
        """Return the description supplied at construction."""
        return self._description


class RandomScheduler(Scheduler):
    """Choose branches pseudo-randomly but reproducibly — a pure function of the seed.

    The choice at ``iteration`` is derived from ``(seed, iteration,
    num_choices)`` alone by seeding a fresh generator per query, so the
    scheduler is one fixed element of ``[[S]]^N`` no matter how often, in what
    order, or at what ``num_choices`` it is queried.  (The historical
    implementation memoised the first draw per iteration at whatever
    ``num_choices`` it happened to see and silently rescaled stale choices
    with ``index % num_choices``, so a reused instance drifted away from a
    fresh one.)  Instances carry no hidden state, so a pickled copy selects
    exactly what the original does.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def select(self, iteration: int, num_choices: int) -> int:
        """Return the pseudo-random choice derived from ``(seed, iteration, num_choices)``."""
        if num_choices <= 0:
            raise SchedulerError("scheduler queried with no choices available")
        rng = np.random.default_rng((self.seed, int(iteration)))
        return int(rng.integers(0, num_choices))

    def describe(self) -> str:
        """Return ``random(seed=s)``."""
        return f"random(seed={self.seed})"


def constant_schedulers(num_choices: int) -> list[Scheduler]:
    """Return one constant scheduler per available branch."""
    return [ConstantScheduler(index) for index in range(num_choices)]


def sample_schedulers(count: int, seed: int = 0) -> list[Scheduler]:
    """Return ``count`` reproducible random schedulers with distinct seeds."""
    return [RandomScheduler(seed=seed + offset) for offset in range(count)]
