"""Unit tests for the node layer: storage, load monitor, membership."""

import random

import pytest

from repro.core.errors import MembershipError, StorageError
from repro.node import FileOrigin, FileStore, LoadMonitor, StatusWord, WindowedRate


class TestFileStore:
    def test_store_and_get(self):
        store = FileStore()
        store.store("a", b"x", 1, FileOrigin.INSERTED)
        assert store.has("a") and "a" in store
        assert store.get("a").payload == b"x"

    def test_get_missing_raises(self):
        with pytest.raises(StorageError):
            FileStore().get("nope")

    def test_access_counting(self):
        store = FileStore()
        store.store("a", None, 1, FileOrigin.REPLICATED)
        store.get("a")
        store.get("a", count_access=False)
        assert store.get("a", count_access=False).access_count == 1

    def test_origin_upgrade_inserted_wins(self):
        store = FileStore()
        store.store("a", b"1", 1, FileOrigin.REPLICATED)
        store.store("a", b"2", 2, FileOrigin.INSERTED)
        entry = store.get("a", count_access=False)
        assert entry.origin is FileOrigin.INSERTED
        assert entry.payload == b"2"
        # Replica origin does not downgrade an inserted copy.
        store.store("a", b"3", 3, FileOrigin.REPLICATED)
        assert store.get("a", count_access=False).origin is FileOrigin.INSERTED

    def test_version_downgrade_rejected(self):
        store = FileStore()
        store.store("a", b"2", 2, FileOrigin.INSERTED)
        with pytest.raises(StorageError):
            store.store("a", b"1", 1, FileOrigin.REPLICATED)

    def test_update_semantics(self):
        store = FileStore()
        assert not store.update("a", b"x", 1)  # not present -> discard
        store.store("a", b"v1", 1, FileOrigin.REPLICATED)
        assert store.update("a", b"v2", 2)
        assert store.get("a", count_access=False).payload == b"v2"
        # Stale update is idempotently ignored.
        assert store.update("a", b"old", 1)
        assert store.get("a", count_access=False).payload == b"v2"

    def test_remove_and_discard(self):
        store = FileStore()
        store.store("a", None, 1, FileOrigin.REPLICATED)
        store.remove("a")
        assert "a" not in store
        with pytest.raises(StorageError):
            store.remove("a")
        store.discard("a")  # no-op

    def test_origin_partition(self):
        store = FileStore()
        store.store("i1", None, 1, FileOrigin.INSERTED)
        store.store("r1", None, 1, FileOrigin.REPLICATED)
        store.store("r2", None, 1, FileOrigin.REPLICATED)
        assert [f.name for f in store.inserted_files()] == ["i1"]
        assert sorted(f.name for f in store.replicated_files()) == ["r1", "r2"]
        assert len(store) == 3
        assert store.names() == ["i1", "r1", "r2"]


class TestWindowedRate:
    def test_rate_over_window(self):
        wr = WindowedRate(window=2.0)
        for t in (0.0, 0.5, 1.0, 1.5):
            wr.record(t)
        assert wr.rate(1.5) == pytest.approx(4 / 2.0)

    def test_old_events_expire(self):
        wr = WindowedRate(window=1.0)
        wr.record(0.0)
        wr.record(0.5)
        assert wr.count(0.9) == 2
        assert wr.count(1.2) == 1
        assert wr.count(3.0) == 0
        assert wr.total == 2

    def test_out_of_order_rejected(self):
        wr = WindowedRate()
        wr.record(1.0)
        with pytest.raises(ValueError):
            wr.record(0.5)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            WindowedRate(window=0.0)


class TestLoadMonitor:
    def test_overload_detection(self):
        mon = LoadMonitor(capacity=5.0, window=1.0)
        for i in range(6):
            mon.record_served("f", -1, i * 0.1)
        assert mon.is_overloaded(0.5)
        assert mon.total_rate(0.5) == pytest.approx(6.0)

    def test_hottest_file(self):
        mon = LoadMonitor(capacity=100.0)
        for i in range(5):
            mon.record_served("hot", -1, i * 0.01)
        mon.record_served("cold", -1, 0.05)
        assert mon.hottest_file(0.05) == "hot"

    def test_hottest_of_empty_is_none(self):
        assert LoadMonitor().hottest_file(0.0) is None

    def test_source_rates_breakdown(self):
        mon = LoadMonitor(capacity=10.0, window=1.0)
        for t, src in ((0.0, 3), (0.1, 3), (0.2, 7), (0.3, -1)):
            mon.record_served("f", src, t)
        rates = mon.source_rates("f", 0.3)
        assert rates == {3: pytest.approx(2.0), 7: pytest.approx(1.0), -1: pytest.approx(1.0)}
        assert mon.source_rates("ghost", 0.3) == {}

    def test_file_rate(self):
        mon = LoadMonitor(window=1.0)
        mon.record_served("f", -1, 0.0)
        assert mon.file_rate("f", 0.0) == pytest.approx(1.0)
        assert mon.file_rate("other", 0.0) == 0.0

    def test_reset(self):
        mon = LoadMonitor()
        mon.record_served("f", -1, 0.0)
        mon.reset()
        assert mon.total_rate(0.0) == 0.0

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            LoadMonitor(capacity=0.0)

    def test_unread_windows_keep_only_the_last_window(self):
        """A node that never overloads never reads its per-file and
        per-source windows.  Over 100 windows of serves with no read,
        every window still holds only events from the last window before
        its newest one, and rates read afterwards are those of a run
        that read after every serve."""
        rng = random.Random(5)
        window = 0.5
        unread = LoadMonitor(capacity=1.0, window=window)
        read = LoadMonitor(capacity=1.0, window=window)
        files, sources = ("a", "b", "c", "d"), (-1, 3, 7)
        now = 0.0
        while now < 100 * window:
            now += rng.choice((0.0, 0.001, 0.004, 0.03, 0.7))
            name, source = rng.choice(files), rng.choice(sources)
            unread.record_served(name, source, now)
            read.record_served(name, source, now)
            read.is_overloaded(now)
            read.source_rates(read.hottest_file(now), now)
        rates = [unread._total] + [
            rate for load in unread._loads.values()
            for rate in (load.served, *load.by_source.values())
        ]
        for rate in rates:
            times = rate._times
            assert times and times[0] > times[-1] - window
        for at in (now, now + window / 3, now + window):
            assert unread.total_rate(at) == read.total_rate(at)
            assert unread.hottest_file(at) == read.hottest_file(at)
            for name in files:
                assert unread.file_rate(name, at) == read.file_rate(name, at)
                assert unread.source_rates(name, at) == read.source_rates(name, at)


class TestStatusWord:
    def test_full(self):
        word = StatusWord.full(4)
        assert word.live_count() == 16
        assert list(word.live_pids()) == list(range(16))

    def test_register_transitions(self):
        word = StatusWord(4, live=[1, 2])
        word.register_live(5)
        word.register_dead(1)
        assert sorted(word.live_pids()) == [2, 5]
        assert 5 in word and 1 not in word

    def test_idempotent_registration(self):
        word = StatusWord(4, live=[1])
        word.register_live(1)
        word.register_dead(9)
        assert word.live_count() == 1

    def test_merge_adopts_other(self):
        a = StatusWord(4, live=[1])
        b = StatusWord(4, live=[2, 3])
        a.merge(b)
        assert a == b and a is not b

    def test_merge_width_mismatch(self):
        with pytest.raises(MembershipError):
            StatusWord(4).merge(StatusWord(5))

    def test_int_roundtrip(self):
        word = StatusWord(4, live=[0, 3, 15])
        again = StatusWord.from_int(4, word.as_int())
        assert again == word

    def test_from_int_range_check(self):
        with pytest.raises(MembershipError):
            StatusWord.from_int(2, 1 << 20)

    def test_copy_is_independent(self):
        word = StatusWord(4, live=[1])
        clone = word.copy()
        clone.register_live(2)
        assert word.live_count() == 1

    def test_hash_and_eq(self):
        assert hash(StatusWord(4, live=[1])) == hash(StatusWord(4, live=[1]))
        assert StatusWord(4, live=[1]) != StatusWord(4, live=[2])

    def test_satisfies_liveness_protocol(self):
        from repro.core.liveness import LivenessView

        assert isinstance(StatusWord(4), LivenessView)
