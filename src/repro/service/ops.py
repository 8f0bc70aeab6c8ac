"""The op table: every wire operation's facts, stated once.

Each :class:`OpSpec` says how one op is admitted, whether a client may
resend it, and which service objects answer it.  Everything else
derives from this table:

* the server's admission class (:func:`admission_class`, via
  :func:`repro.service.server.classify_op`);
* the retry policy of :class:`~repro.service.resilience.RetryingClient`
  and the router's :class:`~repro.service.shard.router.ShardLink`
  (:func:`is_idempotent`);
* the handler dicts ``PatternService._OPS`` and ``ShardRouter._OPS``
  (:func:`handler_table`), and the router's "not routed" refusal.

Adding an op is one entry here plus its ``_op_<name>`` handler on each
service object that serves it.
"""

from __future__ import annotations

from dataclasses import dataclass

# -- admission classes (see repro.service.server.AdmissionController) -------

#: Bypasses the admission queues: an operator locked out of
#: ``status``/``metrics``/``shutdown`` on an overloaded server cannot
#: diagnose or relieve the overload.  All control ops are cheap.
CONTROL = "control"
READ = "read"
MINE = "mine"
WRITE = "write"

# -- who serves an op -------------------------------------------------------

#: A single node (``PatternService``) only; storage-coupled ops such as
#: recovery, replication and snapshots are per-shard concerns.
NODE = "node"
#: The scatter-gather router (``ShardRouter``) only.
ROUTER = "router"
BOTH = "both"

#: ``idempotent`` value for an op that is safe to resend only when its
#: args carry an idempotency token (the server dedupes the retry).
WITH_TOKEN = "token"


@dataclass(frozen=True)
class OpSpec:
    """One wire operation.

    ``idempotent`` is True when a resend can never change the outcome
    (reads, the replication reads, and ``recover``/``promote``, which
    converge), False when it can (each ``mine`` submit is a new job),
    or :data:`WITH_TOKEN`.
    """

    name: str
    admission: str
    idempotent: bool | str
    served_by: str = BOTH

    def served_on(self, server: str) -> bool:
        """Does a ``server`` (:data:`NODE` or :data:`ROUTER`) answer this op?"""
        return self.served_by in (server, BOTH)


OPS: dict[str, OpSpec] = {
    spec.name: spec
    for spec in (
        OpSpec("count", READ, True),
        OpSpec("count_batch", READ, True),
        OpSpec("append", WRITE, WITH_TOKEN),
        OpSpec("mine", MINE, False),
        OpSpec("job", READ, True),
        OpSpec("cancel", CONTROL, False),
        OpSpec("patterns", READ, True),
        OpSpec("status", CONTROL, True),
        OpSpec("metrics", CONTROL, True),
        OpSpec("health", CONTROL, True),
        OpSpec("recover", CONTROL, True, NODE),
        OpSpec("replicate", READ, True, NODE),
        OpSpec("snapshot", READ, True, NODE),
        OpSpec("snapshot_fetch", READ, True, NODE),
        OpSpec("promote", CONTROL, True, NODE),
        OpSpec("shardmap", READ, True, ROUTER),
        OpSpec("shutdown", CONTROL, False),
    )
}


def admission_class(op: str) -> str:
    """The admission class of ``op``.

    Unknown ops land in ``read``: they are admitted and then answered
    ``bad_request`` by the handler, which keeps the error typed rather
    than conflating "no such op" with "overloaded".
    """
    spec = OPS.get(op)
    return spec.admission if spec is not None else READ


def is_idempotent(op: str, args: dict | None = None) -> bool:
    """May a request for ``op`` with ``args`` be resent after it hit the wire?"""
    spec = OPS.get(op)
    if spec is None:
        return False
    if spec.idempotent == WITH_TOKEN:
        return bool((args or {}).get("token"))
    return bool(spec.idempotent)


def handler_table(namespace: dict, server: str) -> dict:
    """``{op: namespace["_op_<op>"]}`` for every op ``server`` answers.

    Called from a service class body with ``locals()``; a missing
    handler fails at import rather than at the first request.
    """
    return {
        name: namespace[f"_op_{name}"]
        for name, spec in OPS.items()
        if spec.served_on(server)
    }
