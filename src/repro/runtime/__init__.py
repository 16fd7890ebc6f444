"""The live asyncio runtime: LessLog served over a real wire protocol.

Everything the synchronous model (:mod:`repro.cluster.system`) and the
DES driver state about the paper's algorithms, this package *runs*:
``2**m`` asyncio node servers exchange length-prefixed frames over
in-process socketpairs (or real TCP on loopback), clients drive them with
seeded workloads, and an operation-log replay through the synchronous
oracle proves the live system lands in the identical final state.

Every connection — node, client and scale-out control link — speaks
one codec, binary v2; the header's flags byte selects struct-packed
fixed layouts for the hot message kinds (the fast lane — see
:mod:`repro.runtime.wire`).  Routing decisions on the hot path are
served from the LRU routing-table cache keyed on status-word content.
"""

from .addressing import Address, dial_node, dial_peer, start_listener
from .client import (
    ClientError,
    LatencyHistogram,
    LoadGenerator,
    LoadReport,
    RequestOutcome,
    RuntimeClient,
    WorkloadShape,
    percentile,
)
from .churn import ChurnEvent, ChurnInjector
from .cluster import LiveCluster, PeerUnreachableError, RuntimeConfig
from .conformance import (
    ClusterStateSnapshot,
    ConformanceReport,
    Op,
    WorkloadSpec,
    apply_ops,
    diff_snapshot,
    diff_states,
    generate_ops,
    replay_oplog,
    run_conformance,
    run_live,
    snapshot_of,
    verify_snapshot,
)
from .coordinator import ADMIN, Coordinator, OpRecord
from .host import NodeHost
from .node import CLIENT, NodeServer
from .overload import (
    QUEUE_POLICIES,
    SHED_POLICIES,
    VICTIM_POLICIES,
    AdmissionController,
    LatencyTracker,
    OverloadPolicy,
    policy_grid,
)
from .wire import (
    FRAME_ACK,
    FRAME_GENERIC,
    FRAME_GET,
    FRAME_GET_REPLY,
    FRAME_OVERLOAD,
    MAX_FRAME,
    WIRE_VERSION,
    WIRE_VERSION_BINARY,
    WRITE_HIGH_WATER,
    FrameConnection,
    FrameEncoder,
    FrameError,
    WireDecodeError,
    WireError,
    decode_message,
    encode_message,
)

__all__ = [
    "ADMIN",
    "Address",
    "CLIENT",
    "ClusterStateSnapshot",
    "FRAME_ACK",
    "FRAME_GENERIC",
    "FRAME_GET",
    "FRAME_GET_REPLY",
    "FRAME_OVERLOAD",
    "MAX_FRAME",
    "QUEUE_POLICIES",
    "SHED_POLICIES",
    "VICTIM_POLICIES",
    "WIRE_VERSION",
    "WIRE_VERSION_BINARY",
    "WRITE_HIGH_WATER",
    "AdmissionController",
    "ChurnEvent",
    "ChurnInjector",
    "ClientError",
    "ConformanceReport",
    "Coordinator",
    "FrameConnection",
    "FrameEncoder",
    "FrameError",
    "LatencyHistogram",
    "LatencyTracker",
    "LiveCluster",
    "LoadGenerator",
    "LoadReport",
    "NodeHost",
    "NodeServer",
    "Op",
    "OpRecord",
    "OverloadPolicy",
    "PeerUnreachableError",
    "RequestOutcome",
    "RuntimeClient",
    "RuntimeConfig",
    "WireDecodeError",
    "WireError",
    "WorkloadShape",
    "WorkloadSpec",
    "apply_ops",
    "decode_message",
    "dial_node",
    "dial_peer",
    "diff_snapshot",
    "diff_states",
    "encode_message",
    "generate_ops",
    "percentile",
    "policy_grid",
    "replay_oplog",
    "run_conformance",
    "run_live",
    "snapshot_of",
    "start_listener",
    "verify_snapshot",
]
