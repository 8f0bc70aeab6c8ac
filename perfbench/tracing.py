"""Span tracing from outside the program, for the per-layer breakdown.

Nothing under ``src/`` knows about this module.  :class:`Tracer` wraps
the public entry points of each layer (module functions and class
methods) with recording shims, records one span per call — name,
start, end, parent span and root span — and keeps the spans in memory
until the run ends.  The parent is tracked in a :class:`ContextVar`, so
asyncio tasks inherit the span that created them and concurrent
requests on one event loop keep separate trees.

A call made while no root span is open is not recorded (its time has
no operation to be charged to); wrappers declared ``root=True`` open
the trees.  :func:`breakdown` turns the spans into per-layer self time:
a span's duration minus the union of its children's intervals, so the
self times of one tree, root included, add up to the root's duration.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import time
from collections import defaultdict

_CLOCK = time.perf_counter


class Tracer:
    """In-memory span recorder plus the monkeypatches that feed it."""

    def __init__(self):
        #: One ``[name, start, end, parent, root]`` list per span; parent
        #: and root are indices into this list (``-1``: none).
        self.spans: list[list] = []
        self._current = contextvars.ContextVar("perfbench_span", default=-1)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _open(self, name: str, root: bool):
        """Append a span and make it current; ``None`` outside any root."""
        parent = self._current.get()
        if parent < 0 and not root:
            return None
        index = len(self.spans)
        record = [name, _CLOCK(), 0.0, parent,
                  index if parent < 0 else self.spans[parent][4]]
        self.spans.append(record)
        return record, self._current.set(index)

    def wrap(self, owner, attr: str, name, *, root: bool = False,
             on_return=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``name`` is a span name or a callable ``(args, kwargs) -> name``.
        ``on_return(record, result)`` may inspect the result and rename
        the span.  Coroutine functions get an ``async`` wrapper.
        """
        original = inspect.getattr_static(owner, attr)
        namer = name if callable(name) else (lambda _a, _k, _n=name: _n)
        tracer, current = self, self._current

        def finish(opened, result):
            record, token = opened
            record[2] = _CLOCK()
            current.reset(token)
            if on_return is not None and result is not None:
                on_return(record, result)

        if inspect.iscoroutinefunction(original):
            async def traced(*args, **kwargs):
                opened = tracer._open(namer(args, kwargs), root)
                if opened is None:
                    return await original(*args, **kwargs)
                result = None
                try:
                    result = await original(*args, **kwargs)
                    return result
                finally:
                    finish(opened, result)
        else:
            def traced(*args, **kwargs):
                opened = tracer._open(namer(args, kwargs), root)
                if opened is None:
                    return original(*args, **kwargs)
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    finish(opened, result)

        functools.update_wrapper(traced, original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def root(self, name: str):
        """Context manager opening a root span around benchmark code."""
        return _RootSpan(self, name)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write the spans as JSON lines (name, start, end, parent, root)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _RootSpan:
    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        self._record, self._token = self._tracer._open(self._name, True)
        return self._record

    def __exit__(self, *exc):
        self._record[2] = _CLOCK()
        self._tracer._current.reset(self._token)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def breakdown(spans: list[list], root_name: str, keep_root=None) -> dict:
    """Per-layer self time over the complete trees rooted at ``root_name``.

    Returns ``{"roots": n, "root_s": total root seconds, "self_s":
    {layer: seconds}, "calls": {layer: n}}``; the root's own self time
    is reported under ``"unattributed"``.  ``keep_root(index)`` may
    exclude trees (for example control requests).  Trees whose root
    never closed (in flight when the run ended) are dropped.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    kept = {
        index for index, span in enumerate(spans)
        if span[3] < 0 and span[0] == root_name and span[2] > 0.0
        and (keep_root is None or keep_root(index))
    }
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    root_s = 0.0
    for index, span in enumerate(spans):
        if span[4] not in kept:
            continue
        own = span[2] - span[1] - _covered(children.get(index, []))
        name = "unattributed" if index in kept else span[0]
        self_s[name] += own
        calls[name] += 1
        if index in kept:
            root_s += span[2] - span[1]
    return {"roots": len(kept), "root_s": root_s,
            "self_s": dict(self_s), "calls": dict(calls)}


def root_ops(spans: list[list], root_name: str, prefix: str) -> dict[int, str]:
    """Map each ``root_name`` root to the suffix of its ``prefix`` child."""
    ops = {}
    for span in spans:
        if span[0].startswith(prefix) and span[3] >= 0:
            parent = spans[span[3]]
            if parent[0] == root_name:
                ops[span[3]] = span[0][len(prefix):]
    return ops


# -- the layers, as wrapped from outside --------------------------------------


def install_mining(tracer: Tracer, parallel_samples: list) -> None:
    """Wrap the mining layers' public entry points.

    ``parallel_samples`` collects one ``{pid: busy seconds}`` dict per
    filter-phase :meth:`WorkerPool.collect`, for the imbalance metric.
    """
    from repro.core import bitvec, mining
    from repro.core.filters import FilterEngine
    from repro.core.pool import WorkerPool

    def classify_collect(record, payloads):
        batches = [p for p in payloads.values() if "subtrees" in p]
        if not batches:
            record[0] = "core.parallel.scan_wait"
            return
        busy: dict[int, float] = defaultdict(float)
        for payload in batches:
            busy[payload["pid"]] += payload["seconds"]
        parallel_samples.append(dict(busy))

    tracer.wrap(FilterEngine, "prepare", "core.filters.prepare")
    tracer.wrap(FilterEngine, "run", "core.filters.walk")
    tracer.wrap(bitvec, "row_popcount", "core.kernels.row_popcount")
    tracer.wrap(mining, "probe", "core.refine.probe")
    tracer.wrap(WorkerPool, "collect", "core.parallel.filter_wait",
                on_return=classify_collect)


REQUEST_ROOT = "service.server.request"
HANDLE_PREFIX = "service.handlers.handle."


def install_serving(tracer: Tracer) -> None:
    """Wrap the serving layers' entry points inside the server process.

    The request root is ``PatternServer._answer``, the one call that
    covers a request from parse to the written reply.  Frame decoding
    runs earlier, in the connection's read task, so it forms its own
    root and is reported per request beside the tree.  No wrapped call
    runs concurrently with a sibling (``MicroBatcher.count`` would,
    under ``count_batch``), so each tree's self times add up to its
    root.
    """
    from repro.service import handlers, protocol, server
    from repro.service.handlers import PatternService
    from repro.service.replication import ReplicationLog
    from repro.service.server import AdmissionController, PatternServer
    from repro.storage.diskbbs import DiskBBS

    tracer.wrap(PatternServer, "_answer", REQUEST_ROOT, root=True)
    tracer.wrap(protocol, "decode_payload", "service.protocol.decode",
                root=True)
    tracer.wrap(server, "parse_request", "service.protocol.parse")
    tracer.wrap(AdmissionController, "acquire",
                "service.server.admission_wait")
    tracer.wrap(PatternService, "handle",
                lambda args, kwargs: HANDLE_PREFIX + str(args[1]))
    tracer.wrap(handlers, "probe", "core.refine.probe")
    tracer.wrap(DiskBBS, "count_itemset", "storage.diskbbs.count")
    tracer.wrap(DiskBBS, "flush", "storage.diskbbs.flush")
    tracer.wrap(ReplicationLog, "sync", "storage.txfile.journal_sync")
    tracer.wrap(server, "write_frame", "service.server.write")
    tracer.wrap(protocol, "encode_frame", "service.protocol.encode")
