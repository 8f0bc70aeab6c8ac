"""The scatter-gather router: one wire endpoint, N shard servers.

:class:`ShardRouter` exposes the same ``handle(op, args)`` /
``close()`` surface as :class:`~repro.service.handlers.PatternService`,
so the unchanged :class:`~repro.service.server.PatternServer` (and its
admission limits, per-request timeouts, and graceful drain) serves it —
clients speak the existing wire protocol and cannot tell a router from
a single node, except that the answers cover the concatenation of every
shard's transaction range.

Per-shard transport is :class:`ShardLink`, the asyncio counterpart of
:class:`~repro.service.resilience.RetryingClient`: the same
:class:`RetryPolicy` (per-operation deadline spanning all attempts,
capped exponential backoff with jitter, bounded attempts), the same
:class:`CircuitBreaker` per endpoint, and the same retry matrix —
transport failures and transient error frames retry for idempotent
operations, definitive answers never do.

Overload handling (PR 9): the router is itself served by a
:class:`PatternServer`, so it inherits admission control and brownout
for free; what this module adds is *propagation*.  A client-stamped
``deadline_ms`` survives the extra hop — the server parks the live
budget in :data:`~repro.service.protocol.CURRENT_DEADLINE` and every
:class:`ShardLink` re-stamps the *remaining* budget onto its shard
frames, refusing to dial at all once it has expired (an expired request
provably spawns zero shard-side work).  And a shard that sheds with a
typed ``overloaded`` error is *healthy*, just saturated: the link does
not trip its breaker or fail over to the follower — instead the whole
fan-out is cancelled promptly and the router answers with its own typed
``overloaded`` carrying the largest shard ``retry_after``, so one
saturated shard cannot make the others burn work that will be thrown
away.

Failure handling (the "never a hang" contract): every fan-out runs
under the per-shard deadline; a shard that stays unreachable past its
retries fails over to its configured follower for reads (PR 6
replication — followers serve counts), or, for the tail shard's
appends, is *promoted* (the idempotent ``promote`` op) with the map
updated and persisted.  When no follower exists the request fails with
a typed ``partial`` error naming the missing global ranges — the router
never serves an under-count from partial coverage.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.core.refine import resolve_threshold
from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    ConnectionClosedError,
    OverloadedError,
    PartialResultError,
    ReproError,
    ServiceError,
    ServiceTimeoutError,
)
from repro.service.cache import canonical_itemset
from repro.service.handlers import MAX_RETAINED_JOBS, LatencyHistogram, _itemset_arg
from repro.service.protocol import (
    CURRENT_DEADLINE,
    ERR_BAD_REQUEST,
    ERR_QUERY,
    decode_reply,
    read_frame,
    write_frame,
)
from repro.service.ops import OPS, ROUTER, handler_table, is_idempotent
from repro.service.resilience import (
    RETRYABLE_ERROR_TYPES,
    CircuitBreaker,
    RetryPolicy,
)
from repro.service.shard.merge import (
    candidate_itemsets,
    local_threshold,
    merge_count_payloads,
    merged_mine_payload,
    merged_patterns_payload,
    sum_exact_counts,
)
from repro.service.shard.shardmap import ShardEntry, ShardMap

#: Default per-shard retry policy: tighter than the client default so a
#: dead shard resolves to a typed error well inside the server's own
#: per-request timeout instead of racing it.
ROUTER_POLICY = RetryPolicy(
    max_attempts=3,
    base_delay=0.05,
    max_delay=1.0,
    op_deadline=8.0,
    request_timeout=4.0,
    connect_timeout=2.0,
)

#: Itemsets per ``count_batch`` request during phase-2 verification.
VERIFY_BATCH = 512

#: Overall deadline for a routed mining job (both phases, all shards).
MINE_DEADLINE_S = 600.0

#: Poll cadence for shard-side mine jobs.
JOB_POLL_INTERVAL_S = 0.05

#: Per-attempt / per-poll ceilings for ``job`` polls against a mining
#: shard.  Mining pegs the shard's CPU, so even a tiny status frame can
#: take seconds to come back (and the final poll carries the full local
#: result); misclassifying that as "unreachable" would fail a healthy
#: cluster.  The whole routed mine stays bounded by ``MINE_DEADLINE_S``.
MINE_POLL_TIMEOUT_S = 60.0
MINE_POLL_DEADLINE_S = 120.0


class ShardUnavailableError(ServiceError):
    """Internal: a shard (and its follower, if any) is unreachable."""

    def __init__(self, entry: ShardEntry, cause: Exception):
        super().__init__(
            f"shard {entry.shard_id} at {entry.address} unreachable: {cause}",
            error_type="unavailable",
        )
        self.entry = entry
        self.cause = cause


class ShardLink:
    """One retrying, breaker-gated asyncio connection to one endpoint.

    The async mirror of :class:`RetryingClient.request`: lazily dialled,
    dropped on any transport failure, serialised per connection (the
    protocol is strict request/response), bounded by the policy's
    per-operation deadline across all attempts.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        policy: RetryPolicy,
        rng: random.Random,
        breaker: CircuitBreaker | None = None,
    ):
        self.host = host
        self.port = port
        self.policy = policy
        self.breaker = breaker or CircuitBreaker()
        self._rng = rng
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._lock = asyncio.Lock()
        self._next_id = 1
        self.retries = 0
        self.reconnects = 0
        #: Requests refused before dialling because the propagated
        #: deadline had already expired — the zero-orphaned-work proof.
        self.deadline_preempts = 0

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def close(self) -> None:
        """Drop the connection (sync-safe: no await, best-effort close)."""
        writer = self._writer
        self._reader = None
        self._writer = None
        if writer is not None:
            writer.close()

    async def _dial(self, timeout: float) -> None:
        try:
            self._reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port), timeout=timeout
            )
        except asyncio.TimeoutError as exc:
            raise ServiceTimeoutError(
                f"timed out connecting to {self.address}"
            ) from exc

    async def _roundtrip(self, op: str, args: dict) -> dict:
        request_id = self._next_id
        self._next_id += 1
        frame: dict = {"id": request_id, "op": op, "args": args}
        budget = CURRENT_DEADLINE.get()
        if budget is not None:
            # Re-stamp the *remaining* budget so the shard enforces the
            # same wall-clock deadline the client asked for, minus the
            # hops already spent.  The floor keeps an almost-expired
            # request parseable; the shard's own pre-dispatch check
            # refuses it there if the last millisecond runs out in
            # flight.
            frame["deadline_ms"] = max(budget.remaining_ms, 1.0)
        await write_frame(self._writer, frame)
        payload = await read_frame(self._reader)
        if payload is None:
            raise ConnectionClosedError("connection closed between frames")
        return decode_reply(payload, request_id)

    async def request(
        self,
        op: str,
        args: dict | None = None,
        *,
        idempotent: bool | None = None,
        deadline: float | None = None,
        request_timeout: float | None = None,
    ) -> dict:
        """One logical operation against this endpoint, retried per policy.

        ``request_timeout`` overrides the per-attempt ceiling for ops
        that are legitimately slow on a healthy shard (a ``job`` poll
        against a CPU-saturated miner can take seconds to answer — slow
        is not the same as unreachable).
        """
        if idempotent is None:
            idempotent = is_idempotent(op, args)
        policy = self.policy
        attempt_ceiling = (
            request_timeout
            if request_timeout is not None
            else policy.request_timeout
        )
        deadline_ts = time.monotonic() + (
            deadline if deadline is not None else policy.op_deadline
        )
        budget = CURRENT_DEADLINE.get()
        if budget is not None:
            # The propagated client budget caps the policy deadline:
            # retrying a shard past the point where the original caller
            # is gone is pure waste.
            deadline_ts = min(deadline_ts, budget.expires_at)
        attempt = 0
        last_exc: Exception | None = None
        while True:
            if not self.breaker.allow():
                raise CircuitOpenError(
                    f"circuit open after repeated failures against "
                    f"{self.address}"
                )
            remaining = deadline_ts - time.monotonic()
            if remaining <= 0:
                if budget is not None and budget.expired:
                    # Refused before any dial or frame: an expired
                    # request spawns no shard-side work at all.
                    self.deadline_preempts += 1
                    raise ServiceTimeoutError(
                        f"propagated deadline expired before contacting "
                        f"{self.address}; the shard was never asked"
                    ) from last_exc
                raise ServiceTimeoutError(
                    f"operation {op!r} deadline exhausted after "
                    f"{attempt} attempt(s) against {self.address}"
                ) from last_exc
            attempt += 1
            sent = False
            try:
                async with self._lock:
                    if self._reader is None:
                        await self._dial(min(policy.connect_timeout, remaining))
                        if attempt > 1:
                            self.reconnects += 1
                    sent = True
                    result = await asyncio.wait_for(
                        self._roundtrip(op, args or {}),
                        timeout=min(attempt_ceiling, remaining),
                    )
            except asyncio.CancelledError:
                # Cancelled mid-roundtrip (fan-out shed, expired caller):
                # a request frame may be on the wire with its response
                # unread, which would desync the strictly-serialised
                # connection — drop it so the next request redials clean.
                self.close()
                raise
            except asyncio.TimeoutError:
                self._note_failure()
                caught: Exception = ServiceTimeoutError(
                    f"timed out waiting for {op!r} from {self.address}"
                )
                retryable = idempotent or not sent
            except ServiceTimeoutError as exc:
                self._note_failure()
                caught, retryable = exc, idempotent or not sent
            except OverloadedError:
                # A shed is a definitive, healthy answer ("not now"):
                # nothing was dispatched shard-side, the connection is
                # still in protocol sync, and the breaker must not trip
                # — the fan-out layer decides whether to shed the whole
                # request or let the client's retry_after backoff work.
                self.breaker.record_success()
                raise
            except ServiceError as exc:
                if exc.error_type == "protocol":
                    self._note_failure()
                    caught, retryable = exc, idempotent or not sent
                elif exc.error_type in RETRYABLE_ERROR_TYPES:
                    self._note_failure()
                    caught, retryable = exc, idempotent
                else:
                    # A definitive answer: the shard is healthy.
                    self.breaker.record_success()
                    raise
            except OSError as exc:
                self._note_failure()
                caught, retryable = exc, idempotent or not sent
            else:
                self.breaker.record_success()
                return result
            last_exc = caught
            if not retryable or attempt >= policy.max_attempts:
                raise caught
            pause = min(
                policy.backoff(attempt, self._rng),
                max(0.0, deadline_ts - time.monotonic()),
            )
            if pause:
                await asyncio.sleep(pause)
            self.retries += 1

    def _note_failure(self) -> None:
        self.breaker.record_failure()
        self.close()

    def as_dict(self) -> dict:
        return {
            "address": self.address,
            "breaker": self.breaker.as_dict(),
            "retries": self.retries,
            "reconnects": self.reconnects,
            "deadline_preempts": self.deadline_preempts,
        }


class ShardState:
    """One shard's links and the router's last observations of it."""

    def __init__(
        self, entry: ShardEntry, *, policy: RetryPolicy, rng: random.Random
    ):
        self.entry = entry
        self.policy = policy
        self.rng = rng
        self.primary = ShardLink(entry.host, entry.port, policy=policy, rng=rng)
        self.follower = (
            ShardLink(
                entry.follower_host, entry.follower_port, policy=policy, rng=rng
            )
            if entry.follower_address is not None
            else None
        )
        self.last_epoch = 0
        self.last_n_transactions = entry.count
        self.failovers = 0

    def observe(self, payload: dict) -> None:
        """Fold a shard answer's epoch / count into the router's view.

        ``max`` keeps the view monotonic across a shard restart (which
        resets the shard's session-local epoch to its boot value).
        """
        epoch = payload.get("epoch")
        if isinstance(epoch, int) and not isinstance(epoch, bool):
            self.last_epoch = max(self.last_epoch, epoch)
        count = payload.get("n_transactions")
        if isinstance(count, int) and not isinstance(count, bool):
            self.last_n_transactions = max(self.last_n_transactions, count)

    def adopt_promotion(self, updated: ShardEntry) -> None:
        """Point the primary link at the just-promoted follower."""
        self.entry = updated
        self.primary.close()
        if self.follower is not None:
            self.primary = self.follower
        else:  # pragma: no cover - promote is gated on a follower existing
            self.primary = ShardLink(
                updated.host, updated.port, policy=self.policy, rng=self.rng
            )
        self.follower = None
        self.failovers += 1

    def close(self) -> None:
        self.primary.close()
        if self.follower is not None:
            self.follower.close()


@dataclass
class RouterMineJob:
    """One two-phase scatter-gather mining job on the router."""

    id: str
    params: dict
    submitted_epoch: int
    submitted_at: float
    state: str = "pending"  # pending -> running -> done|error|cancelled
    result: dict | None = None
    error: str | None = None
    elapsed_seconds: float | None = None
    task: object = field(default=None, repr=False)


def _is_unreachable(exc: Exception) -> bool:
    """Failures that justify failing over to a follower.

    Transport-level failures, exhausted deadlines, an open breaker, and
    the transient wire errors — everything where the shard did *not*
    give a definitive answer.  A typed ``overloaded`` shed is
    *excluded* even though clients retry it: the primary is alive and
    answering, it just refused to queue more work — routing the load to
    its follower would melt the replica a saturated primary is counting
    on, so sheds propagate to the fan-out layer instead.
    """
    if isinstance(exc, (OSError, ServiceTimeoutError, CircuitOpenError)):
        return True
    if isinstance(exc, ServiceError):
        if exc.error_type == "overloaded":
            return False
        return (
            exc.error_type == "protocol"
            or exc.error_type in RETRYABLE_ERROR_TYPES
        )
    return False


class ShardRouter:
    """The service object a :class:`PatternServer` serves for a router.

    It answers the ops :mod:`repro.service.ops` marks as served by the
    router.  Storage-coupled per-shard ops are refused with a pointer
    at the shard — the router holds no storage of its own beyond the
    persisted :class:`ShardMap`.
    """

    def __init__(
        self,
        shard_map: ShardMap,
        *,
        map_path=None,
        policy: RetryPolicy | None = None,
        seed: int | None = None,
    ):
        self.map = shard_map
        self.map_path = map_path
        self.policy = policy or ROUTER_POLICY
        self._rng = random.Random(seed)
        self.shards = [
            ShardState(entry, policy=self.policy, rng=self._rng)
            for entry in shard_map.entries
        ]
        self._epoch_high = 0
        self.histograms: dict[str, LatencyHistogram] = {}
        self.fanout_latency: dict[str, LatencyHistogram] = {}
        self.request_counts: Counter = Counter()
        #: Fan-outs abandoned because a required shard shed (typed
        #: ``overloaded``): the router cancelled the other legs and
        #: answered with the shard's ``retry_after``.
        self.fanout_sheds = 0
        #: Set by the server (PatternServer.__init__): the shared
        #: AdmissionController guarding the router's own front door.
        self.admission = None
        self.started_monotonic = time.monotonic()
        self._jobs: dict[str, RouterMineJob] = {}
        self._job_ids = itertools.count(1)
        #: Set by the server (PatternServer.__init__), same as a service.
        self.shutdown_callback = None

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    async def discover(
        cls,
        addresses: list[tuple[str, int]],
        *,
        followers: list[tuple[str, int] | None] | None = None,
        map_path=None,
        policy: RetryPolicy | None = None,
        seed: int | None = None,
    ) -> "ShardRouter":
        """Build (or reload) the map by interrogating the live shards.

        A persisted map at ``map_path`` whose address list still matches
        is reused as-is (range starts and entry epochs survive a router
        restart); a changed shard list rebuilds the assignment under a
        bumped generation.  Either way every shard's ``status`` is
        fetched to validate reachability and ``m``/``k`` agreement —
        shards hashing with different families would silently break
        bit-identity, so that is a boot-time error, not a runtime
        surprise.
        """
        from pathlib import Path

        from repro.service.shard.shardmap import build_map

        policy = policy or ROUTER_POLICY
        rng = random.Random(seed)
        statuses = []
        for host, port in addresses:
            link = ShardLink(host, port, policy=policy, rng=rng)
            try:
                statuses.append(await link.request("status"))
            finally:
                link.close()
        mks = {(s["m"], s["k"]) for s in statuses}
        if len(mks) > 1:
            raise ConfigurationError(
                f"shards disagree on the hash family: m/k pairs {sorted(mks)};"
                f" a sharded index must be built with one (m, k)"
            )
        counts = [s["n_transactions"] for s in statuses]
        shard_map = None
        if map_path is not None and Path(map_path).exists():
            persisted = ShardMap.load(map_path)
            if cls._map_matches(persisted, addresses, followers):
                shard_map = persisted
                cls._check_counts(shard_map, counts)
            else:
                shard_map = build_map(
                    addresses,
                    counts,
                    followers=followers,
                    generation=persisted.generation + 1,
                )
        if shard_map is None:
            shard_map = build_map(addresses, counts, followers=followers)
        if map_path is not None:
            shard_map.save(map_path)
        router = cls(
            shard_map, map_path=map_path, policy=policy, seed=seed
        )
        for state, status in zip(router.shards, statuses):
            state.observe(status)
        return router

    @staticmethod
    def _map_matches(persisted, addresses, followers) -> bool:
        if len(persisted.entries) != len(addresses):
            return False
        followers = followers or [None] * len(addresses)
        for entry, (host, port), follower in zip(
            persisted.entries, addresses, followers
        ):
            if (entry.host, entry.port) != (host, port):
                return False
            wanted = f"{follower[0]}:{follower[1]}" if follower else None
            if entry.follower_address != wanted:
                return False
        return True

    @staticmethod
    def _check_counts(shard_map: ShardMap, counts: list[int]) -> None:
        """A sealed shard that shrank or grew broke its range contract."""
        for entry, live in zip(shard_map.entries[:-1], counts[:-1]):
            if live != entry.count:
                raise ConfigurationError(
                    f"sealed shard {entry.shard_id} at {entry.address} has "
                    f"{live} transaction(s) but the map assigns it "
                    f"{entry.count}; only the tail shard may grow — "
                    f"rebuild the map if the topology really changed"
                )

    def close(self) -> None:
        """Drop every shard connection; cancel in-flight routed jobs."""
        for job in self._jobs.values():
            if job.task is not None and job.state in ("pending", "running"):
                job.task.cancel()
        for state in self.shards:
            state.close()

    # -- dispatch ------------------------------------------------------------

    async def handle(self, op: str, args: dict, deadline=None) -> dict:
        # ``deadline`` is accepted for signature parity with
        # PatternService; the live budget itself rides in the
        # CURRENT_DEADLINE contextvar the server set, which every
        # ShardLink in this task reads when stamping shard frames.
        handler = self._OPS.get(op)
        if handler is None:
            if op in OPS:  # known, but served by the shards only
                raise ServiceError(
                    f"op {op!r} is not routed: it is a per-shard storage "
                    f"operation — address the shard server directly "
                    f"(see the `shardmap` op for addresses)",
                    error_type=ERR_BAD_REQUEST,
                )
            raise ServiceError(
                f"unknown op {op!r}; expected one of {sorted(self._OPS)}",
                error_type=ERR_BAD_REQUEST,
            )
        started = time.perf_counter()
        try:
            return await handler(self, args)
        finally:
            histogram = self.histograms.get(op)
            if histogram is None:
                histogram = self.histograms[op] = LatencyHistogram()
            histogram.record(time.perf_counter() - started)
            self.request_counts[op] += 1

    # -- shard transport helpers ---------------------------------------------

    def _record_fanout(self, op: str, seconds: float) -> None:
        histogram = self.fanout_latency.get(op)
        if histogram is None:
            histogram = self.fanout_latency[op] = LatencyHistogram()
        histogram.record(seconds)

    async def _shard_request(
        self,
        state: ShardState,
        op: str,
        args: dict | None = None,
        *,
        failover: bool = True,
        deadline: float | None = None,
        request_timeout: float | None = None,
    ) -> dict:
        """One shard operation with follower failover for reads.

        Raises :class:`ShardUnavailableError` when neither the primary
        nor the follower could give a definitive answer; definitive
        errors (``bad_request``, ``query``, ``degraded``...) propagate
        untouched.
        """
        started = time.perf_counter()
        try:
            result = await state.primary.request(
                op, args, deadline=deadline, request_timeout=request_timeout
            )
        except Exception as exc:
            if not _is_unreachable(exc):
                raise
            if failover and state.follower is not None:
                try:
                    result = await state.follower.request(
                        op,
                        args,
                        deadline=deadline,
                        request_timeout=request_timeout,
                    )
                except Exception as follower_exc:
                    if not _is_unreachable(follower_exc):
                        raise
                    raise ShardUnavailableError(
                        state.entry, follower_exc
                    ) from follower_exc
            else:
                raise ShardUnavailableError(state.entry, exc) from exc
        finally:
            self._record_fanout(op, time.perf_counter() - started)
        state.observe(result)
        return result

    def _missing_ranges(
        self, failures: list[ShardUnavailableError]
    ) -> list[tuple]:
        tail_id = self.map.tail.shard_id
        missing = []
        for failure in failures:
            entry = failure.entry
            end = None if entry.shard_id == tail_id else entry.start + entry.count
            missing.append((entry.start, end, entry.address))
        return missing

    def _raise_partial(self, failures: list[ShardUnavailableError]) -> None:
        tail_id = self.map.tail.shard_id
        labels = ", ".join(
            f.entry.range_label(tail=f.entry.shard_id == tail_id)
            + f" (shard {f.entry.shard_id} at {f.entry.address})"
            for f in failures
        )
        raise PartialResultError(
            f"{len(failures)} shard(s) unreachable; missing transaction "
            f"range(s): {labels}",
            missing=self._missing_ranges(failures),
        )

    async def _fanout(
        self,
        op: str,
        args: dict | None = None,
        *,
        deadline: float | None = None,
        request_timeout: float | None = None,
    ) -> list[dict]:
        """Run ``op`` on every shard concurrently; all-or-typed-error.

        Either every shard (or its follower) answered — the results come
        back in shard order — or the request fails typed: ``partial``
        naming the uncovered ranges, ``overloaded`` (carrying the
        largest shard ``retry_after``) when any required shard shed, or
        the definitive shard error itself.  The merge layers need every
        shard's answer, so the first shed or definitive failure cancels
        the still-pending legs promptly instead of letting them burn
        work the caller can no longer use.
        """
        tasks = [
            asyncio.ensure_future(
                self._shard_request(
                    state,
                    op,
                    args,
                    deadline=deadline,
                    request_timeout=request_timeout,
                )
            )
            for state in self.shards
        ]
        index_of = {task: index for index, task in enumerate(tasks)}
        results: list[dict | None] = [None] * len(tasks)
        failures: list[tuple[int, ShardUnavailableError]] = []
        overload: OverloadedError | None = None
        definitive: tuple[int, BaseException] | None = None
        pending = set(tasks)
        try:
            while pending and overload is None and definitive is None:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    index = index_of[task]
                    exc = task.exception()
                    if exc is None:
                        results[index] = task.result()
                    elif isinstance(exc, OverloadedError):
                        if overload is None or (exc.retry_after or 0.0) > (
                            overload.retry_after or 0.0
                        ):
                            overload = exc
                    elif isinstance(exc, ShardUnavailableError):
                        failures.append((index, exc))
                    elif definitive is None or index < definitive[0]:
                        definitive = (index, exc)
        finally:
            if pending:
                for task in pending:
                    task.cancel()
                await asyncio.gather(*pending, return_exceptions=True)
        if overload is not None:
            self.fanout_sheds += 1
            raise OverloadedError(
                f"fan-out for {op!r} shed: a required shard is overloaded "
                f"({overload}); the remaining legs were cancelled",
                retry_after=overload.retry_after,
            ) from overload
        if definitive is not None:
            raise definitive[1]
        if failures:
            self._raise_partial([exc for _, exc in sorted(failures)])
        return results

    def _router_epoch(self) -> int:
        self._epoch_high = max(
            self._epoch_high, sum(state.last_epoch for state in self.shards)
        )
        return self._epoch_high

    def _persist_map(self) -> None:
        if self.map_path is not None:
            self.map.save(self.map_path)

    # -- count ---------------------------------------------------------------

    async def _op_count(self, args: dict) -> dict:
        key = _itemset_arg(args)
        want_exact = bool(args.get("exact", False))
        payloads = await self._fanout(
            "count", {"items": list(key), "exact": want_exact}
        )
        merged = merge_count_payloads(
            list(key), payloads, want_exact=want_exact
        )
        merged["epoch"] = self._router_epoch()
        return merged

    async def _op_count_batch(self, args: dict) -> dict:
        itemsets = _itemsets_arg(args)
        want_exact = bool(args.get("exact", False))
        payloads = await self._fanout(
            "count_batch",
            {"itemsets": [list(k) for k in itemsets], "exact": want_exact},
        )
        results = []
        for position, key in enumerate(itemsets):
            per_shard = [p["results"][position] for p in payloads]
            results.append(
                merge_count_payloads(list(key), per_shard, want_exact=want_exact)
            )
        for state, payload in zip(self.shards, payloads):
            state.observe(payload)
        epoch = self._router_epoch()
        for entry in results:
            entry["epoch"] = epoch
        return {"results": results, "epoch": epoch}

    # -- append --------------------------------------------------------------

    async def _op_append(self, args: dict) -> dict:
        """Route the append to the tail shard; global position out.

        The idempotency token (when present) is forwarded verbatim, so
        the shard's journal-backed dedupe window gives the same
        exactly-once guarantee across the extra hop: however many times
        the client — or the router's own bounded retry — resends, the
        shard applies it once and answers from the window.

        If the tail primary is unreachable and a follower is configured,
        the router *promotes* the follower (idempotent op), re-points
        the persisted map at it (epoch bump fences the dead primary
        out), and routes the append there.
        """
        tail_state = self.shards[-1]
        try:
            result = await tail_state.primary.request("append", args)
        except Exception as exc:
            if not _is_unreachable(exc):
                raise
            if tail_state.follower is None:
                self._raise_partial([ShardUnavailableError(tail_state.entry, exc)])
            result = await self._promote_tail(tail_state, args)
        tail_state.observe(result)
        start = tail_state.entry.start
        merged = dict(result)
        merged["position"] = start + result["position"]
        merged["n_transactions"] = start + result["n_transactions"]
        merged["epoch"] = self._router_epoch()
        return merged

    async def _promote_tail(self, state: ShardState, append_args: dict) -> dict:
        """Fail the tail shard over to its follower, then retry the append."""
        follower = state.follower
        try:
            await follower.request("promote")
        except Exception as exc:
            if _is_unreachable(exc):
                self._raise_partial([ShardUnavailableError(state.entry, exc)])
            raise
        # The promote RPC suspended this task; a concurrent append that
        # hit the same dead primary may have raced through this failover
        # already, in which case the map entry has no follower left and
        # promote_follower would refuse.  Re-check after the await: if
        # another task already adopted the promotion, just ride it.
        if state.follower is not None:
            updated = self.map.promote_follower(state.entry.shard_id)
            state.adopt_promotion(updated)
            self._persist_map()
        return await state.primary.request("append", append_args)

    # -- mining --------------------------------------------------------------

    async def _op_mine(self, args: dict) -> dict:
        from repro.core.mining import ALGORITHMS

        min_support = args.get("min_support")
        if not isinstance(min_support, (int, float)) or isinstance(
            min_support, bool
        ):
            raise ServiceError(
                "'min_support' must be a number (absolute count or fraction)",
                error_type=ERR_BAD_REQUEST,
            )
        algorithm = args.get("algorithm", "dfp")
        if algorithm not in ALGORITHMS + ("auto",):
            raise ServiceError(
                f"unknown algorithm {algorithm!r}", error_type=ERR_BAD_REQUEST
            )
        params = {
            "min_support": min_support,
            "algorithm": algorithm,
            "max_size": args.get("max_size"),
            "workers": args.get("workers", 1),
        }
        job = RouterMineJob(
            id=f"rjob-{next(self._job_ids)}",
            params=params,
            submitted_epoch=self._router_epoch(),
            submitted_at=time.monotonic(),
        )
        self._jobs[job.id] = job
        self._evict_finished_jobs()
        job.task = asyncio.ensure_future(self._run_mine_job(job))
        return {"job_id": job.id, "epoch": job.submitted_epoch}

    async def _run_mine_job(self, job: RouterMineJob) -> None:
        # The submitting request's budget only covered the *submission*;
        # this background task inherited a copy of its context, so shed
        # the stale deadline or every shard poll would be stamped with a
        # budget that expires seconds into a minutes-long mine.
        CURRENT_DEADLINE.set(None)
        job.state = "running"
        started = time.perf_counter()
        try:
            result = await asyncio.wait_for(
                self._mine_two_phase(job.params), timeout=MINE_DEADLINE_S
            )
        except asyncio.CancelledError:
            job.elapsed_seconds = time.perf_counter() - started
            job.state = "cancelled"
            raise
        except asyncio.TimeoutError:
            job.elapsed_seconds = time.perf_counter() - started
            job.error = (
                f"routed mine exceeded the {MINE_DEADLINE_S:.0f}s deadline"
            )
            job.state = "error"
            return
        except (ReproError, OSError) as exc:
            job.elapsed_seconds = time.perf_counter() - started
            job.error = f"{type(exc).__name__}: {exc}"
            job.state = "error"
            return
        job.elapsed_seconds = time.perf_counter() - started
        result["elapsed_seconds"] = job.elapsed_seconds
        job.result = result
        job.state = "done"

    async def _mine_two_phase(self, params: dict) -> dict:
        """Partition phase 1 (scatter) + exact verification phase 2.

        See :mod:`repro.service.shard.merge` for why the output equals
        the single-node answer: local thresholds preserve completeness,
        phase-2 exact counting over every shard restores the true
        global supports.
        """
        statuses = await self._fanout("status")
        counts = [status["n_transactions"] for status in statuses]
        total = sum(counts)
        s_abs = resolve_threshold(params["min_support"], total)

        shard_results = await asyncio.gather(
            *(
                self._mine_on_shard(
                    state,
                    local_threshold(s_abs, count, total),
                    params,
                )
                for state, count in zip(self.shards, counts)
            )
        )
        candidates = candidate_itemsets(shard_results)
        totals = await self._verify_candidates(candidates)
        return merged_mine_payload(
            algorithm=params["algorithm"],
            min_support_abs=s_abs,
            n_transactions=total,
            totals=totals,
            elapsed_seconds=0.0,  # stamped by the caller when the job settles
        )

    async def _mine_on_shard(
        self, state: ShardState, threshold: int, params: dict
    ) -> dict:
        """Submit + poll one shard's local mine, failing over whole.

        A shard that dies mid-poll loses its job state, so failover
        restarts the (deterministic) local mine on the follower rather
        than resuming — same parameters, same local answer.
        """
        mine_args = {
            "min_support": threshold,
            "algorithm": params["algorithm"],
            "max_size": params["max_size"],
            "workers": params["workers"],
        }
        try:
            return await self._mine_via(state.primary, mine_args)
        except Exception as exc:
            if not _is_unreachable(exc):
                raise
            if state.follower is None:
                self._raise_partial([ShardUnavailableError(state.entry, exc)])
            try:
                return await self._mine_via(state.follower, mine_args)
            except Exception as follower_exc:
                if not _is_unreachable(follower_exc):
                    raise
                self._raise_partial(
                    [ShardUnavailableError(state.entry, follower_exc)]
                )

    async def _mine_via(self, link: ShardLink, mine_args: dict) -> dict:
        submitted = await link.request("mine", mine_args, idempotent=True)
        job_id = submitted["job_id"]
        interval = JOB_POLL_INTERVAL_S
        while True:
            # A mining shard is CPU-saturated: a poll can take seconds
            # to answer (and the final poll ships the whole local
            # result), so give it the patient per-attempt ceiling —
            # slow is not unreachable.  The overall mine is still
            # bounded by MINE_DEADLINE_S around the whole job.
            payload = await link.request(
                "job",
                {"job_id": job_id, "top": 0},
                deadline=MINE_POLL_DEADLINE_S,
                request_timeout=MINE_POLL_TIMEOUT_S,
            )
            state = payload["state"]
            if state == "done":
                return payload["result"]
            if state in ("error", "cancelled"):
                raise ServiceError(
                    f"shard mine job {job_id} on {link.address} finished as "
                    f"{state}: {payload.get('error', 'no result')}",
                    error_type=ERR_QUERY,
                )
            await asyncio.sleep(interval)
            interval = min(interval * 2, 0.5)

    async def _verify_candidates(
        self, candidates: list[tuple]
    ) -> dict[tuple, int]:
        """Exact global support for every candidate: batched shard sums."""
        per_shard: list[dict[tuple, int]] = [{} for _ in self.shards]
        for offset in range(0, len(candidates), VERIFY_BATCH):
            chunk = candidates[offset : offset + VERIFY_BATCH]
            # Exact verification probes the shard's database for every
            # candidate; a full batch on a busy shard can legitimately
            # take longer than an interactive count, so use the patient
            # mine-phase ceilings here too.
            payloads = await self._fanout(
                "count_batch",
                {"itemsets": [list(key) for key in chunk], "exact": True},
                deadline=MINE_POLL_DEADLINE_S,
                request_timeout=MINE_POLL_TIMEOUT_S,
            )
            for shard_index, payload in enumerate(payloads):
                for key, entry in zip(chunk, payload["results"]):
                    per_shard[shard_index][key] = entry["exact"]
        return sum_exact_counts(candidates, per_shard)

    def _evict_finished_jobs(self) -> None:
        finished = [
            job_id
            for job_id, job in self._jobs.items()
            if job.state in ("done", "error", "cancelled")
        ]
        excess = len(self._jobs) - MAX_RETAINED_JOBS
        for job_id in finished[: max(0, excess)]:
            del self._jobs[job_id]

    def _get_job(self, args: dict) -> RouterMineJob:
        job_id = args.get("job_id")
        job = self._jobs.get(job_id) if isinstance(job_id, str) else None
        if job is None:
            raise ServiceError(
                f"unknown job id {job_id!r}", error_type=ERR_QUERY
            )
        return job

    async def _op_job(self, args: dict) -> dict:
        job = self._get_job(args)
        payload = {
            "job_id": job.id,
            "state": job.state,
            "params": job.params,
            "epoch": job.submitted_epoch,
            "elapsed_seconds": job.elapsed_seconds,
        }
        if job.state == "error":
            payload["error"] = job.error
        if job.state == "done":
            top = args.get("top", 0)
            result = dict(job.result)
            if top:
                result["patterns"] = result["patterns"][:top]
            payload["result"] = result
            payload["stale"] = job.submitted_epoch != self._router_epoch()
        return payload

    async def _op_cancel(self, args: dict) -> dict:
        job = self._get_job(args)
        if job.state in ("pending", "running") and job.task is not None:
            job.task.cancel()
            job.state = "cancelled"
        return {
            "job_id": job.id,
            "state": job.state,
            "cancel_requested": job.state == "cancelled",
        }

    # -- tracked patterns ----------------------------------------------------

    async def _op_patterns(self, args: dict) -> dict:
        """Merge the shards' tracked sets at the summed threshold.

        Sound by the same pigeonhole as phase 1: a pattern with global
        support ``≥ Σ t_i`` clears some shard's local cut, so the union
        of tracked sets contains every such pattern; phase-2 exact
        verification then restores true counts and filters.
        """
        top = args.get("top", 0)
        payloads = await self._fanout("patterns", {"top": 0})
        global_threshold = sum(p["min_support"] for p in payloads)
        candidates = candidate_itemsets(payloads)
        totals = await self._verify_candidates(candidates)
        merged = merged_patterns_payload(
            shard_payloads=payloads,
            totals=totals,
            global_threshold=global_threshold,
        )
        merged["epoch"] = self._router_epoch()
        if top:
            merged["patterns"] = merged["patterns"][:top]
        return merged

    # -- observability -------------------------------------------------------

    async def _shard_overview(self) -> tuple[list[dict], int]:
        """Best-effort per-shard status rows; never raises on a dead shard."""
        outcomes = await asyncio.gather(
            *(
                self._shard_request(state, "status")
                for state in self.shards
            ),
            return_exceptions=True,
        )
        rows = []
        unreachable = 0
        tail_id = self.map.tail.shard_id
        for state, outcome in zip(self.shards, outcomes):
            entry = state.entry
            row = {
                "shard_id": entry.shard_id,
                "address": entry.address,
                "follower": entry.follower_address,
                "range": entry.range_label(tail=entry.shard_id == tail_id),
                "map_epoch": entry.epoch,
                "breaker": state.primary.breaker.as_dict(),
                "failovers": state.failovers,
            }
            if state.follower is not None:
                row["follower_breaker"] = state.follower.breaker.as_dict()
            if isinstance(outcome, BaseException):
                unreachable += 1
                row["reachable"] = False
                row["error"] = str(outcome)
                row["n_transactions"] = state.last_n_transactions
                row["epoch"] = state.last_epoch
            else:
                row["reachable"] = True
                row["n_transactions"] = outcome["n_transactions"]
                row["epoch"] = outcome["epoch"]
                row["mode"] = outcome["mode"]
                row["role"] = outcome["role"]
                replication = outcome.get("replication") or {}
                if replication.get("lag") is not None:
                    row["lag"] = replication["lag"]
            rows.append(row)
        return rows, unreachable

    async def _op_status(self, args: dict) -> dict:
        rows, unreachable = await self._shard_overview()
        states = Counter(job.state for job in self._jobs.values())
        payload = {
            "router": True,
            "n_transactions": sum(row["n_transactions"] for row in rows),
            "epoch": self._router_epoch(),
            "generation": self.map.generation,
            "n_shards": len(self.shards),
            "unreachable_shards": unreachable,
            "mode": "ok" if unreachable == 0 else "partial",
            "shards": rows,
            "uptime_seconds": time.monotonic() - self.started_monotonic,
            "jobs": dict(states),
            "fanout_sheds": self.fanout_sheds,
        }
        if self.admission is not None:
            snapshot = self.admission.as_dict()
            payload["load"] = {
                "state": snapshot["brownout"]["state"],
                "queued": {
                    name: stats["queued"]
                    for name, stats in snapshot["classes"].items()
                },
                "sheds_total": snapshot["sheds_total"],
            }
        return payload

    async def _op_metrics(self, args: dict) -> dict:
        rows, unreachable = await self._shard_overview()
        payload = {
            "router": True,
            "uptime_seconds": time.monotonic() - self.started_monotonic,
            "requests": dict(self.request_counts),
            "latency": {
                op: histogram.as_dict()
                for op, histogram in sorted(self.histograms.items())
            },
            "fanout_latency": {
                op: histogram.as_dict()
                for op, histogram in sorted(self.fanout_latency.items())
            },
            "generation": self.map.generation,
            "unreachable_shards": unreachable,
            "mode": "ok" if unreachable == 0 else "partial",
            "shards": rows,
            "fanout_sheds": self.fanout_sheds,
            "links": [state.primary.as_dict() for state in self.shards],
        }
        if self.admission is not None:
            payload["overload"] = self.admission.as_dict()
        return payload

    async def _op_health(self, args: dict) -> dict:
        rows, unreachable = await self._shard_overview()
        degraded = any(row.get("mode") == "degraded" for row in rows)
        if unreachable:
            mode = "partial"
        elif degraded:
            mode = "degraded"
        else:
            mode = "ok"
        return {
            "ok": mode == "ok",
            "mode": mode,
            "epoch": self._router_epoch(),
        }

    async def _op_shardmap(self, args: dict) -> dict:
        return self.map.as_dict()

    async def _op_shutdown(self, args: dict) -> dict:
        if self.shutdown_callback is not None:
            self.shutdown_callback()
        return {"draining": True}

    _OPS = handler_table(locals(), ROUTER)


def _itemsets_arg(args: dict) -> list[tuple]:
    """Validate the ``itemsets`` argument of a ``count_batch`` request."""
    itemsets = args.get("itemsets")
    if not isinstance(itemsets, list) or not itemsets:
        raise ServiceError(
            "'itemsets' must be a non-empty JSON list of itemsets",
            error_type=ERR_BAD_REQUEST,
        )
    if len(itemsets) > VERIFY_BATCH * 2:
        raise ServiceError(
            f"'itemsets' holds {len(itemsets)} entries, over the "
            f"{VERIFY_BATCH * 2} per-request cap; split the batch",
            error_type=ERR_BAD_REQUEST,
        )
    return [_itemset_arg({"items": items}) for items in itemsets]


__all__ = [
    "JOB_POLL_INTERVAL_S",
    "MINE_DEADLINE_S",
    "ROUTER_POLICY",
    "RouterMineJob",
    "ShardLink",
    "ShardRouter",
    "ShardState",
    "ShardUnavailableError",
    "VERIFY_BATCH",
]
