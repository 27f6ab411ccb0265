"""The retry policy a thin client applies to its frame requests.

The paper's control plane is SOAP over the grid ("we only use Grid/Web
services for initial service discovery ... and subsequent subscription");
the one call retried on failure is the thin client's frame request
(:meth:`repro.services.clients.ThinClient.request_frame`).  A refused
admission is not a failure: the grid's 429 carries a ``retry_after`` hint
that :meth:`~repro.services.clients.ThinClient.open_grid_session` sleeps
out on its own.

:class:`RetryPolicy` gives each attempt a timeout and each retry an
exponential backoff with seeded jitter, so a chaos schedule replays
identically; :func:`wait` charges both to the simulated clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


def wait(sim, dt: float) -> None:
    """Advance the :class:`~repro.network.clock.Simulator` by ``dt``,
    firing events that fall due meanwhile (link restorations,
    heartbeats)."""
    if dt > 0:
        sim.run_until(sim.now + dt)


@dataclass(frozen=True)
class RetryPolicy:
    """How a call behaves under failure: ``timeout_s`` bounds each attempt,
    and retry ``n`` first sleeps :meth:`backoff_seconds` ``(n)``."""

    max_attempts: int = 4
    timeout_s: float = 2.0
    base_backoff_s: float = 0.25
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 8.0
    #: jitter fraction in [0, 1]: each backoff is scaled by a factor drawn
    #: uniformly from [1 - jitter, 1 + jitter]
    jitter: float = 0.2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def backoff_seconds(self, attempt: int, rng: random.Random) -> float:
        """Sleep before retry number ``attempt`` (1 = first retry)."""
        if attempt < 1:
            return 0.0
        base = min(self.max_backoff_s,
                   self.base_backoff_s
                   * self.backoff_multiplier ** (attempt - 1))
        scale = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return base * scale


__all__ = ["RetryPolicy", "wait"]
