"""The op table (``repro.service.ops``) and the code that derives from it.

Every fact about an op — admission class, retry safety, which service
object answers it — is stated once in ``ops.OPS``.  These tests pin the
table to the service's established behaviour and check that the
server, both sync clients, the router's shard links, the handler dicts
and the shared reply decoder all agree with it.
"""

from __future__ import annotations

import asyncio
import random
import socket
import threading
from types import SimpleNamespace

import pytest

from repro.core.bbs import BBS
from repro.errors import (
    DegradedError,
    OverloadedError,
    PartialResultError,
    ServiceError,
    ServiceProtocolError,
    ServiceTimeoutError,
)
from repro.service import ops
from repro.service.client import ServiceClient
from repro.service.handlers import PatternService
from repro.service.protocol import (
    decode_reply,
    error_frame,
    ok_frame,
    read_frame_sock,
    write_frame_sock,
)
from repro.service.resilience import RetryingClient, RetryPolicy
from repro.service.server import classify_op, start_server_thread
from repro.service.shard.router import ShardLink, ShardRouter
from tests.conftest import make_random_database

#: The facts the table must reproduce: (admission, idempotent, served_by).
EXPECTED = {
    "count": ("read", True, "both"),
    "count_batch": ("read", True, "both"),
    "job": ("read", True, "both"),
    "patterns": ("read", True, "both"),
    "append": ("write", "token", "both"),
    "mine": ("mine", False, "both"),
    "cancel": ("control", False, "both"),
    "shutdown": ("control", False, "both"),
    "status": ("control", True, "both"),
    "metrics": ("control", True, "both"),
    "health": ("control", True, "both"),
    "recover": ("control", True, "node"),
    "promote": ("control", True, "node"),
    "replicate": ("read", True, "node"),
    "snapshot": ("read", True, "node"),
    "snapshot_fetch": ("read", True, "node"),
    "shardmap": ("read", True, "router"),
}

#: One attempt plus one retry: an idempotent op hits the wire twice.
TWO_ATTEMPTS = RetryPolicy(
    max_attempts=2,
    base_delay=0.001,
    max_delay=0.001,
    op_deadline=5.0,
    request_timeout=2.0,
    connect_timeout=2.0,
)


def _args(spec):
    return {"token": 1 << 40} if spec.idempotent == ops.WITH_TOKEN else {}


def _link_request(port, op, args):
    """One ``ShardLink.request`` on a fresh link, closed on its own loop."""
    link = ShardLink(
        "127.0.0.1", port, policy=TWO_ATTEMPTS, rng=random.Random(1)
    )

    async def run():
        try:
            return await link.request(op, args)
        finally:
            link.close()

    return asyncio.run(run())


class FakeServer:
    """Answers each request frame with ``reply(frame)``; None hangs up."""

    def __init__(self, reply):
        self.reply = reply
        self.requests: list[dict] = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.port = self._listener.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            with conn:
                conn.settimeout(2.0)
                try:
                    while True:
                        frame = read_frame_sock(conn)
                        self.requests.append(frame)
                        payload = self.reply(frame)
                        if payload is None:
                            break
                        write_frame_sock(conn, payload)
                except (ServiceError, OSError):
                    pass  # the client hung up

    def close(self):
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._listener.close()
        assert not self._thread.is_alive()


@pytest.fixture
def hangup_server():
    """Reads one request per connection, then closes it unanswered."""
    server = FakeServer(lambda frame: None)
    yield server
    server.close()


class TestTable:
    def test_table_reproduces_the_established_op_facts(self):
        assert {
            name: (spec.admission, spec.idempotent, spec.served_by)
            for name, spec in ops.OPS.items()
        } == EXPECTED
        assert all(name == spec.name for name, spec in ops.OPS.items())

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_server_admission_class_reads_the_table(self, name):
        assert classify_op(name) == ops.OPS[name].admission

    def test_unknown_ops_are_admitted_as_reads_and_never_resent(self):
        assert classify_op("no_such_op") == "read"
        assert ops.is_idempotent("no_such_op") is False

    def test_append_is_idempotent_only_with_a_token(self):
        assert ops.is_idempotent("append", {"items": [1]}) is False
        assert ops.is_idempotent("append", {"items": [1], "token": 1 << 40})

    def test_each_server_has_exactly_the_handlers_it_serves(self):
        for server, handlers in (
            (ops.NODE, PatternService._OPS),
            (ops.ROUTER, ShardRouter._OPS),
        ):
            served = {n for n, s in ops.OPS.items() if s.served_on(server)}
            assert set(handlers) == served
            assert all(callable(handler) for handler in handlers.values())

    @pytest.mark.parametrize(
        "name", sorted(n for n, s in EXPECTED.items() if s[2] == "node")
    )
    def test_router_refuses_node_only_ops_as_not_routed(self, name):
        router = SimpleNamespace(_OPS=ShardRouter._OPS)
        with pytest.raises(ServiceError) as err:
            asyncio.run(ShardRouter.handle(router, name, {}))
        assert err.value.error_type == "bad_request"
        assert "is not routed" in str(err.value)

    def test_router_answers_unknown_ops_as_unknown(self):
        router = SimpleNamespace(_OPS=ShardRouter._OPS)
        with pytest.raises(ServiceError, match="unknown op"):
            asyncio.run(ShardRouter.handle(router, "no_such_op", {}))


class TestRetrySafetyFollowsTheTable:
    """A request lost after it hit the wire is resent only when idempotent."""

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_retrying_client(self, hangup_server, name):
        spec = ops.OPS[name]
        with RetryingClient(
            "127.0.0.1", hangup_server.port, policy=TWO_ATTEMPTS, seed=1
        ) as client:
            with pytest.raises(ServiceError):
                client.request(name, _args(spec))
        expected = 2 if ops.is_idempotent(name, _args(spec)) else 1
        assert len(hangup_server.requests) == expected

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_shard_link(self, hangup_server, name):
        spec = ops.OPS[name]
        with pytest.raises(ServiceError):
            _link_request(hangup_server.port, name, _args(spec))
        expected = 2 if ops.is_idempotent(name, _args(spec)) else 1
        assert len(hangup_server.requests) == expected


class TestReplyDecoder:
    @pytest.mark.parametrize(
        "error_type, exc_class",
        [
            ("degraded", DegradedError),
            ("partial", PartialResultError),
            ("overloaded", OverloadedError),
            ("bad_request", ServiceError),
            ("query", ServiceError),
            ("timeout", ServiceError),
            ("shutting_down", ServiceError),
            ("not_primary", ServiceError),
            ("internal", ServiceError),
        ],
    )
    def test_each_wire_error_type_maps_to_its_exception(
        self, error_type, exc_class
    ):
        with pytest.raises(ServiceError) as err:
            decode_reply(error_frame(7, error_type, "boom"), 7)
        assert type(err.value) is exc_class
        assert err.value.error_type == error_type
        assert str(err.value) == "boom"

    def test_overloaded_keeps_retry_after(self):
        frame = error_frame(3, "overloaded", "full", retry_after=0.25)
        with pytest.raises(OverloadedError) as err:
            decode_reply(frame, 3)
        assert err.value.retry_after == 0.25

    def test_success_and_connection_level_frames(self):
        assert decode_reply(ok_frame(5, {"x": 1}), 5) == {"x": 1}
        with pytest.raises(OverloadedError):
            decode_reply(error_frame(-1, "overloaded", "too many"), 5)

    def test_protocol_violations(self):
        with pytest.raises(ServiceProtocolError, match="does not match"):
            decode_reply(ok_frame(4, {}), 5)
        with pytest.raises(ServiceProtocolError, match="no result"):
            decode_reply({"id": 5, "ok": True, "result": [1]}, 5)

    def test_both_transports_raise_the_decoded_error(self):
        server = FakeServer(
            lambda frame: error_frame(frame["id"], "degraded", "read-only")
        )
        try:
            with ServiceClient("127.0.0.1", server.port) as client:
                with pytest.raises(DegradedError):
                    client.append([1])
            with pytest.raises(DegradedError):
                _link_request(server.port, "append", {"items": [1]})
        finally:
            server.close()


class TestSharedClientSurface:
    def test_both_clients_time_out_waiting_for_a_job_the_same_way(self):
        db = make_random_database(seed=3, n_transactions=40, n_items=12)
        service = PatternService(db, BBS.from_database(db, m=64))
        running = {"state": "running", "epoch": 0}
        try:
            with start_server_thread(service) as handle:
                for client in (
                    ServiceClient("127.0.0.1", handle.port),
                    RetryingClient("127.0.0.1", handle.port),
                ):
                    with client:
                        client.job = lambda job_id, top=0: running
                        with pytest.raises(ServiceTimeoutError):
                            client.wait_for_job("1", timeout=0.0)
        finally:
            service.close()

    def test_retrying_client_gains_the_replication_ops(self):
        for name in ("replicate", "snapshot", "snapshot_fetch"):
            assert getattr(RetryingClient, name) is getattr(ServiceClient, name)
