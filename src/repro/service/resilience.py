"""Client-side resilience: retries, deadlines, and a circuit breaker.

:class:`RetryingClient` wraps the blocking :class:`ServiceClient` with
the machinery a long-lived caller needs against a server that crashes,
restarts, drops connections, or stalls:

* a **per-operation deadline** spanning all attempts,
* **capped exponential backoff with jitter** between attempts,
* **automatic reconnect** — every transport failure drops the
  connection and the next attempt dials fresh,
* a **circuit breaker** that stops hammering a server that has failed
  repeatedly, letting one probe through after a cool-down,
* **idempotency tokens** on ``append``: the client generates a random
  64-bit token per logical append and resends the *same* token on every
  retry, so a retry after a lost ACK can never double-insert (the
  server dedupes in :class:`IdempotencyWindow`).

Which failures are retried
--------------------------
Transport failures (``OSError``, timeouts, mid-frame truncation,
connection resets) and the transient wire errors ``overloaded``,
``shutting_down``, and ``timeout`` are retried — but only for
operations that are safe to resend: reads, and appends carrying a
token.  Definitive answers (``bad_request``, ``query``, ``degraded``,
``internal``) are never retried; the server spoke, retrying will not
change its mind.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from repro.errors import (
    CircuitOpenError,
    OverloadedError,
    ServiceError,
    ServiceTimeoutError,
)
from repro.service.client import ClientOps, ServiceClient
from repro.service.ops import is_idempotent

#: Idempotency tokens live in [2**32, 2**63).  The floor keeps them
#: disjoint from positional transaction ids (small integers counted
#: from 0), which is what lets a restarted server rebuild its token
#: window from the journal: any persisted tid >= 2**32 *is* a token.
TOKEN_MIN = 1 << 32
TOKEN_MAX = 1 << 63

#: Wire error types that describe a transient server condition.
RETRYABLE_ERROR_TYPES = frozenset({"overloaded", "shutting_down", "timeout"})


def make_token(rng: random.Random | None = None) -> int:
    """A fresh idempotency token for one logical append."""
    return (rng or random).randrange(TOKEN_MIN, TOKEN_MAX)


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs for :class:`RetryingClient`.

    ``op_deadline`` bounds one logical operation across *all* attempts,
    backoff sleeps included; ``request_timeout`` bounds a single
    attempt's socket reads so a blackholed connection cannot eat the
    whole deadline.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5
    op_deadline: float = 30.0
    request_timeout: float = 10.0
    connect_timeout: float = 5.0

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        delay = min(self.max_delay, self.base_delay * (2 ** (attempt - 1)))
        return delay * (1.0 + self.jitter * rng.random())


class CircuitBreaker:
    """Closed / open / half-open failure gate.

    ``failure_threshold`` consecutive failures open the circuit;
    requests are then refused locally for ``reset_after`` seconds.
    After the cool-down the breaker is *half-open*: attempts are allowed
    again, and the first success closes it while a further failure
    re-opens it for another cool-down.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        reset_after: float = 5.0,
        clock=time.monotonic,
    ):
        self.failure_threshold = failure_threshold
        self.reset_after = reset_after
        self._clock = clock
        self._failures = 0
        self._opened_at: float | None = None
        self.opens = 0

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self._clock() - self._opened_at >= self.reset_after:
            return "half_open"
        return "open"

    def allow(self) -> bool:
        """May a request be attempted right now?"""
        return self.state != "open"

    def record_success(self) -> None:
        self._failures = 0
        self._opened_at = None

    def record_failure(self) -> None:
        self._failures += 1
        if self._opened_at is not None:
            if self.state == "half_open":
                self._opened_at = self._clock()  # failed probe: re-open
                self.opens += 1
        elif self._failures >= self.failure_threshold:
            self._opened_at = self._clock()
            self.opens += 1

    def as_dict(self) -> dict:
        return {
            "state": self.state,
            "failures": self._failures,
            "opens": self.opens,
        }


class AIMDLimiter:
    """Additive-increase / multiplicative-decrease concurrency limiter.

    The client-side half of the server's admission control: the allowed
    in-flight concurrency grows by ``~1/limit`` per success (one extra
    slot per round-trip-full of successes) and halves on every
    ``overloaded`` shed, the same control law TCP uses for congestion
    windows.  Shared by every thread using one :class:`RetryingClient`
    (or a pool of them against the same server), so a fleet of callers
    converges onto the capacity the server actually has instead of
    hammering it into further shedding.
    """

    def __init__(
        self,
        *,
        initial: float = 8.0,
        min_limit: float = 1.0,
        max_limit: float = 64.0,
        increase: float = 1.0,
        decrease: float = 0.5,
    ):
        self._cond = threading.Condition()
        self.limit = float(initial)
        self.min_limit = float(min_limit)
        self.max_limit = float(max_limit)
        self.increase = increase
        self.decrease = decrease
        self.in_flight = 0
        self.acquired = 0
        self.acquire_timeouts = 0
        self.decreases = 0

    def acquire(self, timeout: float | None = None) -> bool:
        """Take one slot; False if the window stayed full past ``timeout``."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self.in_flight >= int(self.limit):
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    self.acquire_timeouts += 1
                    return False
                self._cond.wait(remaining)
            self.in_flight += 1
            self.acquired += 1
            return True

    def release(self) -> None:
        with self._cond:
            self.in_flight = max(0, self.in_flight - 1)
            self._cond.notify()

    def on_success(self) -> None:
        """Additive increase: ~one extra slot per window of successes."""
        with self._cond:
            self.limit = min(
                self.max_limit, self.limit + self.increase / max(1.0, self.limit)
            )
            self._cond.notify()

    def on_overloaded(self) -> None:
        """Multiplicative decrease on a shed."""
        with self._cond:
            self.limit = max(self.min_limit, self.limit * self.decrease)
            self.decreases += 1

    def as_dict(self) -> dict:
        with self._cond:
            return {
                "limit": round(self.limit, 2),
                "in_flight": self.in_flight,
                "acquired": self.acquired,
                "acquire_timeouts": self.acquire_timeouts,
                "decreases": self.decreases,
            }


class RetryingClient(ClientOps):
    """A reconnecting, retrying, deadline-bound service client.

    Shares the :class:`ClientOps` operation surface with
    :class:`ServiceClient`; each call is one *logical* operation that
    may span several attempts over several TCP connections.
    Connections are dialled lazily and dropped on any transport
    failure.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        limiter: AIMDLimiter | None = None,
        seed: int | None = None,
    ):
        self.host = host
        self.port = port
        self.policy = policy or RetryPolicy()
        self.breaker = breaker or CircuitBreaker()
        #: Optional shared AIMD window; when set, every logical
        #: operation holds one slot for its whole duration and the
        #: window reacts to ``overloaded`` sheds / successes.
        self.limiter = limiter
        self._rng = random.Random(seed)
        self._client: ServiceClient | None = None
        self.retries = 0
        self.reconnects = 0
        self.sheds_seen = 0

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self._drop_connection()

    def _drop_connection(self) -> None:
        if self._client is not None:
            try:
                self._client.close()
            finally:
                self._client = None

    # -- the retry core ------------------------------------------------------

    def request(
        self,
        op: str,
        args: dict | None = None,
        *,
        idempotent: bool | None = None,
        deadline: float | None = None,
    ) -> dict:
        """One logical operation, retried per the policy.

        ``idempotent`` defaults from the op table
        (:func:`repro.service.ops.is_idempotent`): reads always,
        ``append`` only when ``args`` carries an idempotency token.
        Non-idempotent operations still retry *connect* failures
        (nothing was sent) but never a failure after the request hit
        the wire.
        """
        if idempotent is None:
            idempotent = is_idempotent(op, args)
        policy = self.policy
        deadline_ts = time.monotonic() + (
            deadline if deadline is not None else policy.op_deadline
        )
        if self.limiter is not None:
            if not self.limiter.acquire(
                timeout=max(0.0, deadline_ts - time.monotonic())
            ):
                raise ServiceTimeoutError(
                    f"operation {op!r} deadline exhausted waiting for an "
                    f"AIMD concurrency slot"
                )
            try:
                return self._request_attempts(
                    op, args, idempotent=idempotent, deadline_ts=deadline_ts
                )
            finally:
                self.limiter.release()
        return self._request_attempts(
            op, args, idempotent=idempotent, deadline_ts=deadline_ts
        )

    def _request_attempts(
        self,
        op: str,
        args: dict | None,
        *,
        idempotent: bool,
        deadline_ts: float,
    ) -> dict:
        policy = self.policy
        attempt = 0
        last_exc: Exception | None = None
        while True:
            if not self.breaker.allow():
                raise CircuitOpenError(
                    f"circuit open after repeated failures against "
                    f"{self.host}:{self.port}"
                )
            remaining = deadline_ts - time.monotonic()
            if remaining <= 0:
                raise ServiceTimeoutError(
                    f"operation {op!r} deadline exhausted after "
                    f"{attempt} attempt(s)"
                ) from last_exc
            attempt += 1
            sent = False
            try:
                if self._client is None:
                    self._client = ServiceClient(
                        self.host,
                        self.port,
                        timeout=min(policy.request_timeout, remaining),
                        connect_timeout=min(policy.connect_timeout, remaining),
                    )
                    if attempt > 1:
                        self.reconnects += 1
                else:
                    self._client.settimeout(min(policy.request_timeout, remaining))
                sent = True  # past this point the request may have been applied
                # Stamp the attempt with whatever budget is left, so the
                # server (and every hop behind it) stops working for this
                # request the moment we would stop waiting for it.
                budget_ms = max(
                    1.0, (deadline_ts - time.monotonic()) * 1000.0
                )
                result = self._client.request(op, args, deadline_ms=budget_ms)
            except OverloadedError as exc:
                # A request-level shed: the server is healthy, answered
                # typed, and provably dispatched nothing — safe to
                # resend even for non-idempotent ops.  Feeds the AIMD
                # window instead of the circuit breaker (the server
                # spoke; it is not down).
                self.sheds_seen += 1
                if self.limiter is not None:
                    self.limiter.on_overloaded()
                caught, retryable = exc, True
            except ServiceTimeoutError as exc:
                self._note_failure(exc)
                caught, retryable = exc, idempotent or not sent
            except ServiceError as exc:
                if exc.error_type == "protocol":
                    # transport-level: truncated frame, reset, closed
                    self._note_failure(exc)
                    caught, retryable = exc, idempotent or not sent
                elif exc.error_type in RETRYABLE_ERROR_TYPES:
                    # the server answered but cannot serve right now
                    self._note_failure(exc)
                    caught, retryable = exc, idempotent
                else:
                    # a definitive answer: the server is healthy
                    self.breaker.record_success()
                    raise
            except OSError as exc:
                self._note_failure(exc)
                caught, retryable = exc, idempotent or not sent
            else:
                self.breaker.record_success()
                if self.limiter is not None:
                    self.limiter.on_success()
                return result
            last_exc = caught
            if not retryable or attempt >= policy.max_attempts:
                raise caught
            pause = policy.backoff(attempt, self._rng)
            retry_after = getattr(caught, "retry_after", None)
            if retry_after:
                # The server's own capacity estimate is a *floor* on the
                # backoff, never a ceiling.
                pause = max(pause, float(retry_after))
            pause = min(pause, max(0.0, deadline_ts - time.monotonic()))
            if pause:
                time.sleep(pause)
            self.retries += 1

    def _note_failure(self, exc: Exception) -> None:
        self.breaker.record_failure()
        self._drop_connection()

    # -- operations ----------------------------------------------------------

    def append(self, items, *, token: int | None = None) -> dict:
        """Insert one transaction exactly once, however many retries.

        A token is generated if the caller does not supply one; the same
        token rides every retry, so the server can deduplicate.
        """
        if token is None:
            token = make_token(self._rng)
        return super().append(items, token=token)


class IdempotencyWindow:
    """Server-side bounded map of append tokens → applied positions.

    The window remembers the last ``capacity`` tokens in arrival order;
    a retried append whose token is still in the window is answered
    from the map instead of re-applied.  Durable servers persist each
    token as the journal record's transaction id, so the window can be
    re-seeded after a crash (see :func:`seed`) and dedupe survives
    kill -9.
    """

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError("idempotency window capacity must be positive")
        self.capacity = capacity
        self._tokens: dict[int, int] = {}
        self.hits = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._tokens)

    def lookup(self, token: int) -> int | None:
        """The applied position for ``token``, or None if unseen."""
        position = self._tokens.get(token)
        if position is not None:
            self.hits += 1
        return position

    def record(self, token: int, position: int) -> None:
        """Remember that ``token`` was applied at ``position``."""
        if token in self._tokens:
            self._tokens[token] = position
            return
        while len(self._tokens) >= self.capacity:
            oldest = next(iter(self._tokens))
            del self._tokens[oldest]
            self.evictions += 1
        self._tokens[token] = position

    def seed(self, pairs) -> int:
        """Pre-load ``(token, position)`` pairs (journal replay at boot)."""
        n = 0
        for token, position in pairs:
            self.record(token, position)
            n += 1
        return n

    def as_dict(self) -> dict:
        return {
            "size": len(self._tokens),
            "capacity": self.capacity,
            "hits": self.hits,
            "evictions": self.evictions,
        }
