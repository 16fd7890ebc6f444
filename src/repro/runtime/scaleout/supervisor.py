"""The scale-out supervisor: boot, watch, and kill real OS processes.

`ScaleoutSupervisor` owns the process tree of a deployment: it binds
the bootstrap's listen socket, spawns one OS process per LessLog node
(``fork`` by default — copy-on-write makes a 256-node fleet cheap even
on a single-core host; ``subprocess`` re-execs the interpreter for a
fully isolated fleet), runs the :class:`BootstrapServer` in the parent,
and injects §5.3 crash churn with a literal ``kill -9``.

Lifecycle discipline:

* **launch() is synchronous and runs before any event loop exists** —
  forking with a live asyncio loop would duplicate its epoll state
  into every child.  Children close the inherited listen socket, ask
  the kernel for a SIGKILL when the parent dies (``PR_SET_PDEATHSIG``,
  best effort), run the worker coroutine on a fresh loop, and
  ``os._exit`` so no parent cleanup (atexit hooks, buffered writers)
  runs twice.
* **kill(pid)** resolves the node's OS pid from its ``hello``, sends
  ``SIGKILL``, reaps the zombie, and only then tells the bootstrap —
  the process is provably gone before the coordination plane flips the
  membership bit, so nothing the victim might still have written races
  the kill record.
* **start()** polls the process table while it waits for the last
  registration: a worker that exited can never register, so the rest are
  SIGKILLed and a :class:`FleetLifecycleError` names the dead one at once.
* **shutdown()** SIGTERMs the remaining children, collects their
  ``goodbye`` snapshots (each worker drains its inbox first), keeps the
  loop turning until every child has exited, and closes the bootstrap.
  Nothing after SIGTERM blocks without a deadline: a child still alive
  when it passes is SIGKILLed and named in a :class:`FleetLifecycleError`.
"""

from __future__ import annotations

import asyncio
import ctypes
import os
import signal
import socket
import subprocess
import sys

from ...core.errors import ConfigurationError, MembershipError
from ..cluster import RuntimeConfig
from .bootstrap import BootstrapServer
from .worker import run_worker

__all__ = ["FleetLifecycleError", "ScaleoutSupervisor"]

_EXIT_GRACE = 1.0
"""Seconds a worker gets to exit once its goodbye has been answered,
even when the goodbye wait used up the whole ``term_timeout``."""

_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """Best effort: have the kernel SIGKILL us if the parent dies."""
    try:
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):  # pragma: no cover - non-glibc
        pass


class FleetLifecycleError(RuntimeError):
    """Child processes outlived a lifecycle deadline and were SIGKILLed
    (workers that of ``shutdown()``, load shards that of ``collect()``)
    or, with another ``what``, exited before ``start()`` saw them register."""

    def __init__(
        self, stuck: dict[int, int], member: str = "P({})",
        what: str = "processes outlived their deadline and were killed",
    ) -> None:
        self.stuck = stuck
        """OS pid → node id (``-1``: it never said hello) of each one;
        for load shards, OS pid → shard index."""
        super().__init__(
            f"{what}: " + ", ".join(
                f"os pid {o} ({member.format(n)})" for o, n in sorted(stuck.items())
            )
        )


class ScaleoutSupervisor:
    """One multi-process LessLog deployment, end to end."""

    def __init__(
        self,
        config: RuntimeConfig,
        n_nodes: int | None = None,
        mode: str = "fork",
    ) -> None:
        if mode not in ("fork", "subprocess"):
            raise ConfigurationError(
                f"mode must be 'fork' or 'subprocess', got {mode!r}"
            )
        self.mode = mode
        self.bootstrap = BootstrapServer(config, n_nodes)
        self.address: tuple[str, int] | None = None
        self._listen_sock: socket.socket | None = None
        self._children: list[int] = []
        """OS pids of forked children (fork mode)."""
        self._procs: list[subprocess.Popen] = []
        self._reaped: set[int] = set()

    # -- boot ----------------------------------------------------------------

    def launch(self) -> tuple[str, int]:
        """Bind the bootstrap socket and spawn the fleet.  Call this
        *before* any asyncio loop exists in the parent process."""
        if self._listen_sock is not None:
            raise ConfigurationError("the fleet is already launched")
        sock = socket.create_server(
            ("127.0.0.1", 0), backlog=max(512, self.bootstrap.expected * 2)
        )
        self._listen_sock = sock
        host, port = sock.getsockname()[:2]
        self.address = (host, port)
        for _ in range(self.bootstrap.expected):
            self._spawn(host, port)
        return (host, port)

    def _spawn(self, host: str, port: int) -> None:
        if self.mode == "subprocess":
            self._procs.append(
                subprocess.Popen(
                    [sys.executable, "-m", "repro", "worker",
                     "--bootstrap", f"{host}:{port}"],
                    env=os.environ.copy(),
                )
            )
            return
        child = os.fork()
        if child:
            self._children.append(child)
            return
        # Child: a fresh worker process sharing nothing but memory pages.
        status = 1
        try:
            _die_with_parent()
            assert self._listen_sock is not None
            self._listen_sock.close()
            run_worker(host, port)
            status = 0
        except KeyboardInterrupt:  # pragma: no cover
            status = 0
        except BaseException:  # pragma: no cover - crash visibly
            import traceback

            traceback.print_exc()
        finally:
            os._exit(status)

    @property
    def listen_socket(self) -> socket.socket | None:
        """The bootstrap's bound listen socket, while launched.  Forked
        shard-driver children must close their inherited copy so the
        address actually dies with this parent."""
        return self._listen_sock

    async def start(self, boot_timeout: float = 60.0) -> None:
        """Serve the bootstrap and wait until every worker registered.
        If one exits first the fleet stays one short for good: the rest
        are SIGKILLed and :class:`FleetLifecycleError` names the dead."""
        await self.bootstrap.serve(sock=self._listen_sock)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + boot_timeout
        while not self.bootstrap.ready.is_set():
            dead = [ospid for ospid, up in self.alive().items() if not up]
            if dead:
                await self._kill_and_close()
                raise FleetLifecycleError(
                    self._nodes_of(dead), what="workers exited before registering"
                )
            if loop.time() >= deadline:
                raise asyncio.TimeoutError(f"no fleet within {boot_timeout}s")
            await asyncio.sleep(0.01)

    # -- liveness / crash injection ------------------------------------------

    def alive(self) -> dict[int, bool]:
        """Liveness of every spawned OS process (``wait``-free poll)."""
        out: dict[int, bool] = {}
        for ospid in self._children:
            out[ospid] = self._poll_fork(ospid)
        for proc in self._procs:
            out[proc.pid] = proc.poll() is None
        return out

    def _poll_fork(self, ospid: int) -> bool:
        if ospid in self._reaped:
            return False
        try:
            done, _status = os.waitpid(ospid, os.WNOHANG)
        except ChildProcessError:  # pragma: no cover - reaped elsewhere
            self._reaped.add(ospid)
            return False
        if done:
            self._reaped.add(ospid)
            return False
        return True

    async def kill(self, pid: int) -> None:
        """``kill -9`` the worker serving node ``pid`` — no drain, no
        goodbye, no flush; then record the silent death (PR 8's crash
        semantics over a real process table)."""
        ospid = self.bootstrap.ospid_of(pid)
        if ospid <= 0:
            raise MembershipError(f"no OS process known for P({pid})")
        os.kill(ospid, signal.SIGKILL)
        self._reap(ospid)
        await self.bootstrap.note_killed(pid)

    def _reap(self, ospid: int) -> None:
        """Blocking reap — only ever called right after a SIGKILL."""
        if ospid in self._reaped:
            return
        if self.mode == "subprocess":
            for proc in self._procs:
                if proc.pid == ospid:
                    proc.wait()
                    self._reaped.add(ospid)
                    return
        try:
            os.waitpid(ospid, 0)
        except ChildProcessError:  # pragma: no cover - already reaped
            pass
        self._reaped.add(ospid)

    # -- teardown ------------------------------------------------------------

    async def shutdown(self, term_timeout: float = 30.0) -> None:
        """SIGTERM the fleet, await the goodbyes and the exits, close.

        Raises :class:`FleetLifecycleError`, after cleaning up, when a
        worker had to be SIGKILLed.
        """
        survivors = sorted(self.bootstrap.worker_pids())
        for pid in survivors:
            ospid = self.bootstrap.ospid_of(pid)
            if ospid > 0 and ospid not in self._reaped:
                try:
                    os.kill(ospid, signal.SIGTERM)
                except ProcessLookupError:  # pragma: no cover
                    pass
        loop = asyncio.get_running_loop()
        deadline = loop.time() + term_timeout
        while (
            len(self.bootstrap.goodbyes) < len(survivors)
            and loop.time() < deadline
        ):
            await asyncio.sleep(0.01)
        # A worker exits only after it has read the reply to its
        # goodbye.  The handler writes that reply in the step that
        # records the goodbye, but a paused link holds it until this
        # loop drains it: keep the loop running while children exit.
        deadline = max(deadline, loop.time() + _EXIT_GRACE)
        while any(self.alive().values()) and loop.time() < deadline:
            await asyncio.sleep(0.01)
        stuck = self._nodes_of(await self._kill_and_close())
        if stuck:
            raise FleetLifecycleError(stuck)

    async def _kill_and_close(self) -> list[int]:
        """SIGKILL and reap what still runs, close up; returns those pids."""
        stuck = [ospid for ospid, up in self.alive().items() if up]
        for ospid in stuck:
            os.kill(ospid, signal.SIGKILL)
            self._reap(ospid)
        await self.bootstrap.shutdown()
        if self._listen_sock is not None:
            self._listen_sock.close()
            self._listen_sock = None
        return stuck

    def _nodes_of(self, ospids: list[int]) -> dict[int, int]:
        """OS pid → the node id it said hello as (``-1``: it never did)."""
        node_of = {
            self.bootstrap.ospid_of(pid): pid
            for pid in range(self.bootstrap.expected)
        }
        return {ospid: node_of.get(ospid, -1) for ospid in ospids}
