"""Tests for system snapshot / restore (repro.cluster.snapshot)."""

import json

import pytest

from repro.cluster import LessLogSystem
from repro.cluster.snapshot import (
    restore_from_dict,
    restore_from_json,
    snapshot_to_dict,
    snapshot_to_json,
)
from repro.core.errors import ConfigurationError
from repro.core.hashing import Psi
from repro.node.storage import FileOrigin


def loaded_system():
    system = LessLogSystem.build(m=4, b=1, dead={2}, psi=Psi(4, salt="snap"))
    system.insert("a.txt", payload=b"binary\x00payload")
    system.insert("b.txt", payload={"nested": [1, 2, 3]})
    system.insert("c.txt", payload="plain string")
    home = system.holders_of("a.txt")[0]
    system.replicate("a.txt", overloaded=home)
    system.update("b.txt", payload={"nested": [4]})
    system.get("c.txt", entry=0)
    return system


class TestRoundTrip:
    def test_dict_roundtrip_preserves_everything(self):
        original = loaded_system()
        restored = restore_from_dict(snapshot_to_dict(original))
        assert restored.m == original.m and restored.b == original.b
        assert set(restored.membership.live_pids()) == set(
            original.membership.live_pids()
        )
        assert set(restored.catalog) == set(original.catalog)
        for name in original.catalog:
            assert restored.catalog[name].version == original.catalog[name].version
            assert restored.holders_of(name) == original.holders_of(name)

    def test_payloads_survive_including_bytes(self):
        restored = restore_from_dict(snapshot_to_dict(loaded_system()))
        assert restored.get("a.txt", entry=0).payload == b"binary\x00payload"
        assert restored.get("b.txt", entry=0).payload == {"nested": [4]}
        assert restored.get("c.txt", entry=0).payload == "plain string"
        # Dicts shaped like the bytes tag (or its escape) stay dicts.
        original = loaded_system()
        tagged = {
            "d.txt": {"__bytes__": "aGk="},
            "e.txt": {"__escaped__": {"__bytes__": "aGk="}},
        }
        for name, payload in tagged.items():
            original.insert(name, payload=payload)
        restored = restore_from_json(snapshot_to_json(original))
        for name, payload in tagged.items():
            assert restored.get(name, entry=0).payload == payload

    def test_origins_and_counters_survive(self):
        original = loaded_system()
        restored = restore_from_dict(snapshot_to_dict(original))
        for pid in original.holders_of("a.txt"):
            orig = original.stores[pid].get("a.txt", count_access=False)
            back = restored.stores[pid].get("a.txt", count_access=False)
            assert back.origin is orig.origin
            assert back.access_count == orig.access_count

    def test_json_roundtrip(self):
        original = loaded_system()
        text = snapshot_to_json(original, indent=2)
        json.loads(text)  # valid JSON
        restored = restore_from_json(text)
        assert set(restored.catalog) == set(original.catalog)

    def test_restored_system_is_operable(self):
        restored = restore_from_dict(snapshot_to_dict(loaded_system()))
        restored.insert("new.txt", payload=1)
        restored.update("a.txt", payload=b"v2")
        restored.fail(next(iter(restored.membership.live_pids())))
        restored.check_invariants()

    def test_psi_salt_preserved(self):
        restored = restore_from_dict(snapshot_to_dict(loaded_system()))
        assert restored.psi.salt == "snap"

    def test_faults_preserved(self):
        system = LessLogSystem.build(m=4)
        name = system.psi.find_name_for_target(4)
        system.insert(name)
        system.fail(4)
        assert name in system.faults
        restored = restore_from_dict(snapshot_to_dict(system))
        assert name in restored.faults


class TestValidation:
    def test_bad_format_rejected(self):
        with pytest.raises(ConfigurationError):
            restore_from_dict({"format": 99})

    def test_files_at_dead_node_rejected(self):
        data = snapshot_to_dict(loaded_system())
        data["stores"]["2"] = [
            {"name": "x", "payload": None, "version": 1, "origin": "inserted"}
        ]
        with pytest.raises(ConfigurationError):
            restore_from_dict(data)

    def test_restore_runs_invariant_check(self):
        data = snapshot_to_dict(loaded_system())
        # Corrupt: duplicate INSERTED copy of a.txt somewhere else.
        victim = next(
            pid for pid in data["stores"]
            if not any(f["name"] == "a.txt" for f in data["stores"][pid])
        )
        data["stores"][victim].append(
            {
                "name": "a.txt",
                "payload": None,
                "version": 2,
                "origin": FileOrigin.INSERTED.value,
            }
        )
        with pytest.raises(AssertionError):
            restore_from_dict(data)
