"""Snapshot / restore for LessLogSystem state.

Serialises the durable state of a system — membership, per-node stores
(with origins, versions, access counters), and the file catalog — to a
JSON document, and rebuilds an equivalent system from one.  Payloads
must be JSON-serialisable (strings/bytes/numbers/lists/dicts); a bytes
payload is base64-tagged, and a dict payload that looks like a tag is
escaped, so every payload restores as itself.

Used for experiment checkpointing and for the ``lesslog audit``-style
offline inspection workflows.
"""

from __future__ import annotations

import base64
import json
from typing import Any

from ..core.errors import ConfigurationError
from ..node.storage import FileOrigin
from .system import CatalogEntry, LessLogSystem

__all__ = ["snapshot_to_dict", "snapshot_to_json", "restore_from_dict", "restore_from_json"]

_FORMAT_VERSION = 1


_BYTES = "__bytes__"
"""``{_BYTES: base64 text}`` stands for a bytes payload."""
_ESCAPED = "__escaped__"
"""``{_ESCAPED: dict}`` stands for a dict payload shaped like a tag."""


def _is_tag(payload: Any) -> bool:
    return isinstance(payload, dict) and len(payload) == 1 and (
        _BYTES in payload or _ESCAPED in payload
    )


def _encode_payload(payload: Any) -> Any:
    if isinstance(payload, bytes):
        return {_BYTES: base64.b64encode(payload).decode("ascii")}
    if _is_tag(payload):
        return {_ESCAPED: payload}
    return payload


def _decode_payload(payload: Any) -> Any:
    if _is_tag(payload):
        if _BYTES in payload:
            return base64.b64decode(payload[_BYTES])
        return payload[_ESCAPED]
    return payload


def snapshot_to_dict(system: LessLogSystem) -> dict:
    """Capture the durable state of ``system`` as plain data."""
    return {
        "format": _FORMAT_VERSION,
        "m": system.m,
        "b": system.b,
        "psi_salt": system.psi.salt,
        "now": system.now,
        "live": sorted(system.membership.live_pids()),
        "faults": sorted(set(system.faults)),
        "catalog": [
            {"name": e.name, "target": e.target, "version": e.version}
            for e in system.catalog.values()
        ],
        "stores": {
            str(pid): [
                {
                    "name": f.name,
                    "payload": _encode_payload(f.payload),
                    "version": f.version,
                    "origin": f.origin.value,
                    "access_count": f.access_count,
                    "stored_at": f.stored_at,
                }
                for f in (store.get(n, count_access=False) for n in store.names())
            ]
            for pid, store in sorted(system.stores.items())
        },
    }


def snapshot_to_json(system: LessLogSystem, indent: int | None = None) -> str:
    return json.dumps(snapshot_to_dict(system), indent=indent, sort_keys=True)


def restore_from_dict(data: dict, check: bool = True) -> LessLogSystem:
    """Rebuild a system from :func:`snapshot_to_dict` output.

    ``check=False`` skips the placement-invariant assertion, letting
    verification tooling round-trip a *deliberately* corrupted system
    (e.g. a fuzzer mutation) and report the violation itself instead of
    crashing inside the restore.
    """
    if data.get("format") != _FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported snapshot format {data.get('format')!r}"
        )
    from ..core.hashing import Psi

    system = LessLogSystem(
        m=int(data["m"]),
        b=int(data["b"]),
        live=set(int(p) for p in data["live"]),
        psi=Psi(int(data["m"]), salt=str(data.get("psi_salt", ""))),
    )
    system.now = float(data.get("now", 0.0))
    system.faults = list(data.get("faults", []))
    for entry in data["catalog"]:
        system.catalog[entry["name"]] = CatalogEntry(
            name=entry["name"],
            target=int(entry["target"]),
            version=int(entry["version"]),
        )
    for pid_str, files in data["stores"].items():
        pid = int(pid_str)
        if pid not in system.stores:
            raise ConfigurationError(
                f"snapshot stores files at dead node P({pid})"
            )
        store = system.stores[pid]
        for f in files:
            stored = store.store(
                f["name"],
                _decode_payload(f["payload"]),
                int(f["version"]),
                FileOrigin(f["origin"]),
                now=float(f.get("stored_at", 0.0)),
            )
            stored.access_count = int(f.get("access_count", 0))
    if check:
        system.check_invariants()
    return system


def restore_from_json(text: str, check: bool = True) -> LessLogSystem:
    return restore_from_dict(json.loads(text), check=check)
