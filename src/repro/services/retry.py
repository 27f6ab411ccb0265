"""Control-plane hardening: retries, backoff, deadlines, circuit breaking.

The paper's control plane is SOAP over the grid ("we only use Grid/Web
services for initial service discovery ... and subsequent subscription"),
and a single stalled SOAP call can wedge an entire session.  This module
gives every control-plane interaction a bounded failure mode:

- :class:`RetryPolicy` — per-attempt timeout, exponential backoff with
  seeded jitter, and an overall deadline that propagates through retries;
- :class:`CircuitBreaker` — a per-service breaker that trips after
  repeated faults, rejects calls while open, and admits a half-open probe
  after a cool-down (all on the simulated clock);
- :func:`call_with_retry` — wraps any callable in policy + breaker;
- :class:`ReliableSoapChannel` — a :class:`SoapChannel` wrapper that
  charges timeout waits and backoff sleeps to the simulated clock, treats
  fault-injected transfer loss as a timeout, and feeds the breaker.

Everything is deterministic: jitter comes from one seeded ``random.Random``
so a chaos schedule replays identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import (
    CallTimeout,
    CircuitOpenError,
    NetworkError,
    SoapFault,
    TooManyRequestsError,
)
from repro.network.transport import ChannelTiming, SoapChannel
from repro.services.soap import is_retryable_fault

#: exception types a retry loop is allowed to absorb
RETRYABLE_ERRORS = (NetworkError, CallTimeout)

#: explicit backpressure from a healthy-but-full service: never counted
#: against the circuit breaker, never worth burning retry budget on —
#: the server told us exactly when to come back (``retry_after``)
BACKPRESSURE_ERRORS = (TooManyRequestsError,)


def wait(clock, dt: float) -> None:
    """Advance simulated time by ``dt``, running any due simulator events.

    ``clock`` may be a :class:`~repro.network.clock.Simulator` (events
    scheduled during the wait — link restorations, heartbeats — fire at
    their due times) or a bare :class:`~repro.network.clock.SimClock`.
    """
    if dt <= 0:
        return
    if hasattr(clock, "run_until"):
        clock.run_until(clock.now + dt)
    else:
        clock.advance(dt)


@dataclass(frozen=True)
class RetryPolicy:
    """How a control-plane call behaves under failure.

    ``timeout_s`` bounds each attempt; ``deadline_s`` (when set) bounds the
    whole call including backoff sleeps — the deadline propagates, so a
    retry never starts after it has passed.
    """

    max_attempts: int = 4
    timeout_s: float = 2.0
    base_backoff_s: float = 0.25
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 8.0
    #: jitter fraction in [0, 1]: each backoff is scaled by a factor drawn
    #: uniformly from [1 - jitter, 1 + jitter]
    jitter: float = 0.2
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")

    def backoff_seconds(self, attempt: int, rng: random.Random) -> float:
        """Sleep before retry number ``attempt`` (1 = first retry)."""
        if attempt < 1:
            return 0.0
        base = min(self.max_backoff_s,
                   self.base_backoff_s
                   * self.backoff_multiplier ** (attempt - 1))
        scale = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return base * scale

    def remaining(self, start: float, now: float) -> float:
        """Seconds left before the overall deadline (inf when unset)."""
        if self.deadline_s is None:
            return float("inf")
        return self.deadline_s - (now - start)


class CircuitBreaker:
    """Per-service breaker: closed → open after repeated faults → half-open.

    While open, calls are rejected immediately with
    :class:`~repro.errors.CircuitOpenError` — a wedged service stops
    consuming everyone's deadlines.  After ``reset_timeout_s`` one probe
    call is admitted (half-open); success closes the breaker, failure
    re-opens it for another cool-down.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, clock, failure_threshold: int = 5,
                 reset_timeout_s: float = 30.0, name: str = "") -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.clock = clock
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self.name = name
        self._failures = 0
        self._state = self.CLOSED
        self._opened_at = 0.0
        self.trips = 0

    @property
    def state(self) -> str:
        if (self._state == self.OPEN
                and self.clock.now - self._opened_at >= self.reset_timeout_s):
            return self.HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """May a call proceed right now?"""
        return self.state != self.OPEN

    def check(self) -> None:
        """Raise :class:`CircuitOpenError` unless a call may proceed."""
        if not self.allow():
            raise CircuitOpenError(
                f"circuit for {self.name or 'service'} is open",
                retry_at=self._opened_at + self.reset_timeout_s)

    def record_success(self) -> None:
        self._failures = 0
        self._state = self.CLOSED

    def record_failure(self) -> None:
        self._failures += 1
        if self.state == self.HALF_OPEN:
            # the probe failed: re-open for another full cool-down
            self._state = self.OPEN
            self._opened_at = self.clock.now
        elif (self._state == self.CLOSED
              and self._failures >= self.failure_threshold):
            self._state = self.OPEN
            self._opened_at = self.clock.now
            self.trips += 1


def call_with_retry(fn, policy: RetryPolicy, clock,
                    rng: random.Random | None = None,
                    breaker: CircuitBreaker | None = None,
                    retryable=RETRYABLE_ERRORS):
    """Run ``fn()`` under a retry policy on the simulated clock.

    Retryable failures are absorbed up to ``max_attempts``, with backoff
    sleeps charged to the clock; the breaker (when given) is checked before
    and informed after every attempt.  Non-retryable exceptions propagate
    immediately (after informing the breaker).
    """
    rng = rng if rng is not None else random.Random(0)
    start = clock.now
    last: Exception | None = None
    for attempt in range(1, policy.max_attempts + 1):
        if breaker is not None:
            breaker.check()
        if policy.remaining(start, clock.now) <= 0:
            raise CallTimeout(
                f"deadline of {policy.deadline_s:g}s exceeded before "
                f"attempt {attempt}",
                elapsed=clock.now - start, attempts=attempt - 1)
        try:
            result = fn()
        except BACKPRESSURE_ERRORS:
            # an explicit 429-style reject is the service working as
            # designed: surface it untouched, leave the breaker alone
            raise
        except retryable as exc:
            last = exc
            if breaker is not None:
                breaker.record_failure()
            if attempt == policy.max_attempts:
                break
            pause = policy.backoff_seconds(attempt, rng)
            pause = min(pause, max(0.0, policy.remaining(start, clock.now)))
            wait(clock, pause)
            continue
        except Exception:
            if breaker is not None:
                breaker.record_failure()
            raise
        if breaker is not None:
            breaker.record_success()
        return result
    raise CallTimeout(
        f"call failed after {policy.max_attempts} attempts: {last}",
        elapsed=clock.now - start, attempts=policy.max_attempts)


class ReliableSoapChannel:
    """A :class:`SoapChannel` with retries, timeouts and a breaker.

    Semantics per attempt:

    - the underlying channel raises :class:`NetworkError` (no route, link
      down) → the caller burns the attempt timeout waiting, then retries;
    - the fault injector loses the request or response in flight → same;
    - the response is a SOAP fault → retried only when
      :func:`~repro.services.soap.is_retryable_fault` says so, otherwise
      raised as :class:`~repro.errors.SoapFault`.

    All waits (timeouts, backoff) advance the simulated clock, so chaos
    tests measure the real cost of flaky control planes.
    """

    def __init__(self, channel: SoapChannel,
                 policy: RetryPolicy | None = None,
                 breaker: CircuitBreaker | None = None,
                 seed: int = 0) -> None:
        self.channel = channel
        self.policy = policy if policy is not None else RetryPolicy()
        self.breaker = breaker
        self.rng = random.Random(seed)
        self.attempts = 0
        self.timeouts = 0

    @property
    def network(self):
        return self.channel.network

    @property
    def clock(self):
        return self.network.sim.clock

    def _lost_in_flight(self) -> bool:
        injector = self.network.fault_injector
        if injector is None:
            return False
        return (injector.roll_loss(self.channel.src, self.channel.dst)
                or injector.roll_loss(self.channel.dst, self.channel.src))

    def _attempt(self, value, response) -> tuple[object, ChannelTiming]:
        self.attempts += 1
        if self._lost_in_flight():
            # the message (or its response) vanished: the caller waits the
            # full attempt timeout before concluding anything
            wait(self.network.sim, self.policy.timeout_s)
            self.timeouts += 1
            raise CallTimeout(
                f"SOAP call {self.channel.src}->{self.channel.dst} lost "
                f"in flight", elapsed=self.policy.timeout_s, attempts=1)
        decoded, timing = self.channel.request(value, response)
        if isinstance(decoded, tuple) and len(decoded) == 2:
            operation, body = decoded
            if operation == "Fault" and isinstance(body, dict):
                fault = (body.get("code", "Receiver"),
                         body.get("reason", ""))
                if fault[0] == "TooManyRequests":
                    raise TooManyRequestsError(
                        fault[1] or "service at capacity",
                        retry_after=float(body.get("retry_after", 0.0)))
                if is_retryable_fault(fault[0]):
                    raise CallTimeout(
                        f"retryable SOAP fault: {fault[0]}: {fault[1]}")
                raise SoapFault(*fault)
        return decoded, timing

    def request(self, value, response) -> tuple[object, ChannelTiming]:
        """One reliable round trip; see class docstring for semantics."""

        def attempt():
            try:
                return self._attempt(value, response)
            except NetworkError:
                # no route / link down: the caller still waits out the
                # attempt timeout before retrying
                wait(self.network.sim, self.policy.timeout_s)
                self.timeouts += 1
                raise

        return call_with_retry(attempt, self.policy, self.network.sim,
                               rng=self.rng, breaker=self.breaker)


def reliable_request(network, src: str, dst: str, value, response,
                     policy: RetryPolicy | None = None,
                     breaker: CircuitBreaker | None = None,
                     cpu_factor: float = 1.0, seed: int = 0):
    """Convenience wrapper: one reliable SOAP round trip between hosts."""
    channel = SoapChannel(network, src, dst, cpu_factor=cpu_factor)
    reliable = ReliableSoapChannel(channel, policy=policy, breaker=breaker,
                                   seed=seed)
    return reliable.request(value, response)


class ServiceHealthLedger:
    """Shared per-service breakers + failure counts (service health state).

    One ledger per session or data service: every control-plane wrapper
    asks it for the breaker guarding the callee, so repeated faults against
    one service trip a single shared breaker rather than many private ones.
    """

    def __init__(self, clock, failure_threshold: int = 5,
                 reset_timeout_s: float = 30.0) -> None:
        self.clock = clock
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self._breakers: dict[str, CircuitBreaker] = {}

    def breaker(self, service_name: str) -> CircuitBreaker:
        if service_name not in self._breakers:
            self._breakers[service_name] = CircuitBreaker(
                self.clock, failure_threshold=self.failure_threshold,
                reset_timeout_s=self.reset_timeout_s, name=service_name)
        return self._breakers[service_name]

    def healthy(self, service_name: str) -> bool:
        """Healthy = breaker closed (or never used)."""
        b = self._breakers.get(service_name)
        return b is None or b.state == CircuitBreaker.CLOSED

    def unhealthy_services(self) -> list[str]:
        return sorted(name for name, b in self._breakers.items()
                      if b.state != CircuitBreaker.CLOSED)


__all__ = [
    "RETRYABLE_ERRORS",
    "BACKPRESSURE_ERRORS",
    "RetryPolicy",
    "CircuitBreaker",
    "call_with_retry",
    "ReliableSoapChannel",
    "reliable_request",
    "ServiceHealthLedger",
]
