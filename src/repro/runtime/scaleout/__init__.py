"""Multi-process scale-out runtime: one OS process per LessLog node.

The pieces, smallest to largest:

* :mod:`.control` — the CONTROL-frame RPC/cast channel everything
  coordinates over (the data plane's ``FrameConnection``, one frame
  per body);
* :mod:`.worker` — `WorkerRuntime` (the per-process `NodeHost` a
  `NodeServer` runs against, unchanged) and the process entrypoint;
* :mod:`.bootstrap` — identifier assignment, the address book, and
  the `Coordinator` behind the control RPCs;
* :mod:`.endpoint` — the client facade `RuntimeClient`/`LoadGenerator`
  drive unchanged;
* :mod:`.loadshard` — `ShardedLoadDriver`, K forked load-generator
  processes with disjoint entry partitions and exactly-merging
  ledgers;
* :mod:`.supervisor` — forks/boots the fleet, injects ``kill -9``,
  and tears it down.
"""

from .bootstrap import BootstrapServer, ScaleoutStats
from .control import ControlLink, config_from_wire, config_to_wire
from .endpoint import ScaleoutEndpoint
from .loadshard import ShardedLoadDriver
from .supervisor import FleetLifecycleError, ScaleoutSupervisor
from .worker import WorkerProcess, WorkerRuntime, run_worker

__all__ = [
    "BootstrapServer",
    "ScaleoutStats",
    "ControlLink",
    "config_from_wire",
    "config_to_wire",
    "ScaleoutEndpoint",
    "ShardedLoadDriver",
    "FleetLifecycleError",
    "ScaleoutSupervisor",
    "WorkerProcess",
    "WorkerRuntime",
    "run_worker",
]
