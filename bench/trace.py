"""Span recording around calls into the runtime's public functions.

In a traced run — and only there — :func:`install` rebinds a handful of
public callables of the runtime to wrappers that record a span (name,
start, end, parent, request id) in memory.  Nothing under ``src/`` is
edited: the wrappers live here and are removed again by the function
:func:`install` returns.  A layer's *self time* is its span minus the
part its child spans cover; spans are written out when the run ends.

Wrapped, all in the driver process (forked fleet workers never are):

=============================== ========================= ==============
callable                        span                      kind
=============================== ========================= ==============
``RuntimeClient.request_future`` ``request``               wait (root)
                                ``client.request_future`` cpu
``FrameEncoder.add``            ``wire.encode``           cpu
``LiveCluster.send``            ``cluster.send``          cpu
``LiveCluster.decide_replication`` ``cluster.decide``     cpu
``LiveCluster.catalog_advance`` ``cluster.catalog_advance`` cpu
``ControlLink.call``            ``scaleout.control_call`` wait
=============================== ========================= ==============

A *wait* span covers an interval the loop spends on other work too (a
request in flight, an RPC round trip), so it never counts towards the
CPU a layer used.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

CPU_SPANS = (
    "client.request_future",
    "wire.encode",
    "cluster.send",
    "cluster.decide",
    "cluster.catalog_advance",
)
"""Spans whose time is CPU the layer used; ``request`` and
``scaleout.control_call`` are waits."""

SPANS_WRITTEN_MAX = 20_000
"""Spans kept in ``spans.jsonl``; aggregates always cover every span."""

STREAM_MAX = 50_000
"""Requests of the traced window kept as input for the driven layers."""


@dataclass
class SpanTotals:
    """Aggregate of every span sharing one name."""

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0

    @property
    def self_us(self) -> float:
        return self.self_s / self.count * 1e6 if self.count else 0.0

    @property
    def mean_us(self) -> float:
        return self.total_s / self.count * 1e6 if self.count else 0.0


class Tracer:
    """In-memory span list plus the request stream the client sent.

    A span is ``[name, start, end, parent, request_id]``; its id is its
    index.  ``parent`` is the span open on this tracer when it began
    (``-1`` for none) — one event loop, so "open" is a simple stack.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.stream: list[tuple[str, str, int]] = []
        """(kind, file, entry pid) of every request the client sent."""
        self.update_frames = 0
        """UPDATE frames that crossed ``LiveCluster.send``."""
        self._open: list[int] = []

    def begin(self, name: str, request_id: int, parent: int | None = None,
              scope: bool = True) -> int:
        """Open a span; ``scope=False`` keeps it off the parent stack
        (a wait interval is nobody's enclosing call)."""
        if parent is None:
            parent = self._open[-1] if self._open else -1
        sid = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, parent, request_id])
        if scope:
            self._open.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter()
        if self._open and self._open[-1] == sid:
            self._open.pop()
        elif sid in self._open:  # a coroutine that suspended mid-span
            self._open.remove(sid)

    def totals(self) -> dict[str, SpanTotals]:
        return span_totals(self.spans)

    def stream_digest(self) -> str:
        """sha256 over the captured request stream, one line a request."""
        digest = hashlib.sha256()
        for kind, name, entry in self.stream:
            digest.update(f"{kind} {name} {entry}\n".encode())
        return digest.hexdigest()

    def write(self, path: Path) -> int:
        """Write the first ``SPANS_WRITTEN_MAX`` spans as JSON lines."""
        written = 0
        with path.open("w") as out:
            for sid, (name, start, end, parent, rid) in enumerate(self.spans):
                if written >= SPANS_WRITTEN_MAX:
                    break
                out.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "request_id": rid,
                }) + "\n")
                written += 1
        return written


def span_totals(spans: list[list[Any]]) -> dict[str, SpanTotals]:
    """Per-name count, total and self time of a span list.

    Self time is the span's duration minus the part of it its direct
    children cover (children are clipped to the parent's interval; an
    unfinished span, ``end == 0``, is skipped).
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _rid in spans:
        if end <= 0.0 or parent < 0:
            continue
        p_start, p_end = spans[parent][1], spans[parent][2]
        if p_end <= 0.0:
            continue
        overlap = min(end, p_end) - max(start, p_start)
        if overlap > 0.0:
            covered[parent] += overlap
    out: dict[str, SpanTotals] = {}
    for sid, (name, start, end, _parent, _rid) in enumerate(spans):
        if end <= 0.0:
            continue
        agg = out.setdefault(name, SpanTotals())
        agg.count += 1
        agg.total_s += end - start
        agg.self_s += max(0.0, (end - start) - covered[sid])
    return out


def install(tracer: Tracer) -> Callable[[], None]:
    """Rebind the wrapped callables; returns the function that undoes it."""
    from repro.net.message import MessageKind
    from repro.runtime.client import RuntimeClient
    from repro.runtime.cluster import LiveCluster
    from repro.runtime.scaleout.control import ControlLink
    from repro.runtime.wire import WIRE_VERSION, FrameEncoder

    originals: list[tuple[type, str, Any]] = []

    def rebind(owner: type, attr: str, wrapper: Any) -> None:
        originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    request_future = RuntimeClient.request_future

    def traced_request_future(self, msg, timeout):
        if len(tracer.stream) < STREAM_MAX:
            tracer.stream.append((msg.kind.value, msg.file, self.pid))
        root = tracer.begin("request", msg.request_id, parent=-1, scope=False)
        sid = tracer.begin("client.request_future", msg.request_id, parent=root)
        try:
            future = request_future(self, msg, timeout)
        finally:
            tracer.end(sid)
        future.add_done_callback(lambda _f: tracer.end(root))
        return future

    rebind(RuntimeClient, "request_future", traced_request_future)

    add = FrameEncoder.add

    def traced_add(self, msg, version=WIRE_VERSION):
        sid = tracer.begin("wire.encode", msg.request_id)
        try:
            return add(self, msg, version)
        finally:
            tracer.end(sid)

    rebind(FrameEncoder, "add", traced_add)

    send = LiveCluster.send

    async def traced_send(self, src, msg):
        if msg.kind is MessageKind.UPDATE:
            tracer.update_frames += 1
        sid = tracer.begin("cluster.send", msg.request_id)
        try:
            return await send(self, src, msg)
        finally:
            tracer.end(sid)

    rebind(LiveCluster, "send", traced_send)

    def span_async(owner: type, attr: str, name: str, wait: bool = False) -> None:
        """Wrap a coroutine method in one span; a ``wait`` span is a
        round trip, not an enclosing call, so it stays off the stack."""
        original = owner.__dict__[attr]

        async def traced(self, *args, **kwargs):
            if wait:
                sid = tracer.begin(name, -1, parent=-1, scope=False)
            else:
                sid = tracer.begin(name, -1)
            try:
                return await original(self, *args, **kwargs)
            finally:
                tracer.end(sid)

        rebind(owner, attr, traced)

    span_async(LiveCluster, "decide_replication", "cluster.decide")
    span_async(LiveCluster, "catalog_advance", "cluster.catalog_advance")
    span_async(ControlLink, "call", "scaleout.control_call", wait=True)

    def uninstall() -> None:
        while originals:
            owner, attr, original = originals.pop()
            setattr(owner, attr, original)

    return uninstall
