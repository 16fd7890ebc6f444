"""Sharded load generation: K driver processes for one fleet.

A single `LoadGenerator` is one CPython interpreter — one event loop,
one GIL — and at fleet scale *it* becomes the serialization point: the
cluster is 128 processes wide but the offered load is generated one
coroutine step at a time.  :class:`ShardedLoadDriver` removes that cap
the same way the fleet itself scaled: fork K real OS processes, each
with its own asyncio loop, its own :class:`ScaleoutEndpoint`, and a
**disjoint entry-node partition** (shard ``k`` of ``K`` enters through
pids with ``pid % K == k``), so shards never share a client connection
or an entry node's accept queue.

Measurement stays exact because every ledger a shard produces is
mergeable by construction (`LoadReport.merge`): terminal counters add,
the HDR-style log-linear histogram adds bucket-wise, raw latency
samples concatenate (shipped as JSON floats, which round-trip doubles
exactly), and the wall-clock window is shared, so the union's
conservation identity and p99-SLO sustained criterion are the same
predicates a single driver would have computed over the concatenated
samples — the tier-1 property test pins the merge down bit-for-bit.

Process discipline mirrors the supervisor's: :meth:`launch` forks
**before any event loop exists** in the parent; each child closes the
fds it inherited but does not own (the bootstrap listen socket, the
other shards' pipes), parks on a go-pipe read, and only then starts
its own loop.  The parent inserts the file set and drains through its
own endpoint, releases the gate (:meth:`start`), and collects one
JSON report per result pipe (:meth:`collect`) — reading all
pipes concurrently, so a shard's report can exceed the pipe buffer
without deadlock.  Each shard's endpoint ships its per-destination
send counts on close, so the bootstrap's quiescence ledger balances
over the union of shards exactly as it did for one client.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import signal
from dataclasses import dataclass
from typing import Any, Sequence

from ...core.errors import ConfigurationError
from ..client import LoadGenerator, LoadReport, WorkloadShape
from .endpoint import ScaleoutEndpoint
from .supervisor import FleetLifecycleError, _die_with_parent

__all__ = ["ShardedLoadDriver"]

_COLLECT_SLACK = 10.0
"""Seconds :meth:`ShardedLoadDriver.collect` allows, beyond warm-up,
window and request timeout, for dialing, closing and shipping reports."""


@dataclass
class _Shard:
    """Parent-side handle for one forked driver process."""

    index: int
    ospid: int
    go_w: int
    """Write end of the go pipe: one byte releases the shard."""
    res_r: int
    """Read end of the result pipe: the shard's report, as JSON."""


class ShardedLoadDriver:
    """K forked load-generator processes over one scale-out fleet."""

    def __init__(
        self,
        host: str,
        port: int,
        files: Sequence[str],
        shards: int,
        rps: float,
        duration: float,
        warmup: float = 0.0,
        shape: WorkloadShape | None = None,
        seed: int = 0,
        timeout: float = 5.0,
        redirects: int = 3,
        inherited_sockets: Sequence[Any] = (),
    ) -> None:
        if shards < 1:
            raise ConfigurationError("shards must be positive")
        if rps <= 0 or duration <= 0:
            raise ConfigurationError("rps and duration must be positive")
        if not files:
            raise ConfigurationError("the sharded driver needs inserted files")
        self.host = host
        self.port = port
        self.files = list(files)
        self.shards = shards
        self.rps = rps
        self.duration = duration
        self.warmup = warmup
        self.shape = shape if shape is not None else WorkloadShape()
        self.seed = seed
        self.timeout = timeout
        self.redirects = redirects
        self.inherited_sockets = list(inherited_sockets)
        """Sockets the parent holds that shard children must close
        (the supervisor's bootstrap listen socket, chiefly)."""
        self._handles: list[_Shard] = []
        self.shard_reports: list[LoadReport] = []
        """Per-shard reports from the last :meth:`collect`, in shard
        order — the per-shard achieved-rps column of ``run_meta``."""

    # -- lifecycle -----------------------------------------------------------

    def launch(self) -> None:
        """Fork the K shard processes.  Call *before* any asyncio loop
        exists in the parent — same discipline as the fleet supervisor,
        for the same reason (a forked epoll set is shared corruption).
        Children park on their go pipe; nothing dials until
        :meth:`start`."""
        if self._handles:
            raise ConfigurationError("the shard drivers are already launched")
        for k in range(self.shards):
            go_r, go_w = os.pipe()
            res_r, res_w = os.pipe()
            child = os.fork()
            if child:
                os.close(go_r)
                os.close(res_w)
                self._handles.append(
                    _Shard(index=k, ospid=child, go_w=go_w, res_r=res_r)
                )
                continue
            # Shard child: drop everything inherited but not ours.
            status = 1
            try:
                _die_with_parent()
                os.close(go_w)
                os.close(res_r)
                for sock in self.inherited_sockets:
                    sock.close()
                for prev in self._handles:
                    os.close(prev.go_w)
                    os.close(prev.res_r)
                self._handles = []
                status = self._shard_child(k, go_r, res_w)
            except BaseException:  # pragma: no cover - crash visibly
                import traceback

                traceback.print_exc()
            finally:
                os._exit(status)

    def start(self) -> None:
        """Release the gate: every shard starts its loop and dials."""
        for shard in self._handles:
            os.write(shard.go_w, b"g")
            os.close(shard.go_w)
            shard.go_w = -1

    async def collect(self) -> LoadReport:
        """Await every shard's report and merge them, in shard order.

        Result pipes are read concurrently (a big report can exceed
        the pipe buffer, so the reader must not serialize behind a
        writer), then each child is reaped.  A shard that died without
        shipping a report fails the whole run — a lost shard would
        silently shrink the offered load and fake a sustained verdict —
        and one still running at the deadline (warm-up + window +
        request timeout + slack) is SIGKILLed, reaped and raised as a
        :class:`FleetLifecycleError` naming shard index and OS pid.
        """
        loop = asyncio.get_running_loop()
        deadline = (
            loop.time() + self.warmup + self.duration + self.timeout
            + _COLLECT_SLACK
        )
        shards = self._handles
        reads = [
            loop.run_in_executor(None, self._read_all, shard.res_r)
            for shard in shards
        ]
        await asyncio.wait(reads, timeout=deadline - loop.time())
        stuck: dict[int, int] = {}
        statuses: list[int] = []
        for shard, read in zip(shards, reads):
            # A shard exits right after it closes its result pipe.
            status = None
            while read.done():
                status = self._reap(shard.ospid, os.WNOHANG)
                if status is not None or loop.time() >= deadline:
                    break
                await asyncio.sleep(0.01)
            if status is None:
                os.kill(shard.ospid, signal.SIGKILL)
                status = self._reap(shard.ospid)
                stuck[shard.ospid] = shard.index
            statuses.append(status)
        # Every writer is reaped, so every pipe has reached EOF.
        raws = await asyncio.gather(*reads)
        self._handles = []
        if stuck:
            raise FleetLifecycleError(stuck, member="shard {}")
        reports: list[LoadReport] = []
        for shard, raw, status in zip(shards, raws, statuses):
            if not raw:
                raise RuntimeError(
                    f"load shard {shard.index} died without a report "
                    f"(exit status {status})"
                )
            reports.append(LoadReport.from_wire(json.loads(raw)))
        self.shard_reports = reports
        merged = LoadReport()
        for report in reports:
            merged.merge(report)
        return merged

    def kill(self) -> None:
        """Abort path: SIGKILL any shard still running, close fds."""
        for shard in self._handles:
            try:
                os.kill(shard.ospid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self._reap(shard.ospid)
            for fd in (shard.go_w, shard.res_r):
                if fd >= 0:
                    try:
                        os.close(fd)
                    except OSError:
                        pass
        self._handles = []

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _read_all(fd: int) -> bytes:
        chunks: list[bytes] = []
        while True:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
        os.close(fd)
        return b"".join(chunks)

    @staticmethod
    def _reap(ospid: int, flags: int = 0) -> int | None:
        """The exit status; ``None`` under ``WNOHANG`` while it runs."""
        try:
            pid, status = os.waitpid(ospid, flags)
        except ChildProcessError:  # pragma: no cover - reaped elsewhere
            return 0
        return status if pid else None

    def _shard_child(self, k: int, go_r: int, res_w: int) -> int:
        """Everything a shard process does: park, drive, report."""
        # Park *before* any event loop exists: the fd read blocks this
        # whole process at zero cost while the parent inserts the file
        # set and drains the fleet.
        released = os.read(go_r, 1)
        os.close(go_r)
        if not released:  # parent died or aborted: no run to do
            return 1
        report = asyncio.run(self._shard_main(k))
        payload = json.dumps(report.to_wire()).encode()
        written = 0
        while written < len(payload):
            written += os.write(res_w, payload[written:])
        os.close(res_w)
        return 0

    async def _shard_main(self, k: int) -> LoadReport:
        endpoint = await ScaleoutEndpoint.connect(self.host, self.port)
        try:
            gen = LoadGenerator(
                endpoint,
                self.files,
                shape=self.shape,
                seed=self.seed + 7919 * (k + 1),
                timeout=self.timeout,
                redirects=self.redirects,
                entry_shard=(k, self.shards),
                collect_served=False,
            )
            share = self.rps / self.shards
            if self.warmup > 0:
                await gen.run_open_loop(rps=share, duration=self.warmup)
            gc.collect()
            gc.disable()
            try:
                report = await gen.run_open_loop(
                    rps=share, duration=self.duration
                )
            finally:
                gc.enable()
            await gen.close()
            return report
        finally:
            # close() ships this shard's per-destination send counts —
            # its column of the bootstrap's quiescence ledger.
            await endpoint.close()
