"""Concurrency contract tests for every VP store backend.

Each backend must keep exact semantics under parallel writers: no lost
VPs, no duplicates, and batch-insert counts that sum to the number of
VPs actually stored — byte-for-byte the state a serial reference run
produces.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.viewprofile import ViewProfile
from repro.errors import StorageError
from repro.geo.geometry import Rect
from repro.store import MemoryStore, ProcessShardedStore, ShardedStore, SQLiteStore
from repro.store.serving import QuerySpec
from tests.store.conftest import fingerprint, make_vp

N_THREADS = 6
VPS_PER_THREAD = 12


def make_backend(kind: str, tmp_path):
    """Fresh backend instances for each concurrency scenario."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    if kind == "memory":
        return MemoryStore()
    if kind == "sqlite":
        return SQLiteStore()
    if kind == "sqlite-file":
        return SQLiteStore(str(tmp_path / "concurrent.sqlite"))
    if kind == "sharded":
        return ShardedStore.memory(n_shards=3)
    if kind == "sharded-sqlite":
        return ShardedStore.sqlite(
            [str(tmp_path / f"shard-{i}.sqlite") for i in range(3)]
        )
    if kind == "procs":
        return ProcessShardedStore.memory(n_workers=2, shard_cells=2)
    if kind == "procs-sqlite":
        return ProcessShardedStore.sqlite(
            [str(tmp_path / f"worker-{i}.sqlite") for i in range(2)],
            shard_cells=2,
        )
    raise AssertionError(kind)


BACKENDS = [
    "memory",
    "sqlite",
    "sqlite-file",
    "sharded",
    "sharded-sqlite",
    "procs",
    "procs-sqlite",
]


def corpus_for(thread: int) -> list:
    """A thread's batch: its own VPs plus shared duplicates."""
    own = [
        make_vp(seed=1000 + thread * VPS_PER_THREAD + i, minute=i % 4, x0=25.0 * i)
        for i in range(VPS_PER_THREAD)
    ]
    shared = [make_vp(seed=1, minute=0), make_vp(seed=2, minute=1)]
    return own + shared


@pytest.mark.parametrize("kind", BACKENDS)
class TestConcurrentIngest:
    def test_parallel_insert_many_no_lost_no_duplicated(self, kind, tmp_path):
        batches = [corpus_for(t) for t in range(N_THREADS)]

        serial = make_backend(kind, tmp_path / "serial")
        serial_counts = [serial.insert_many(batch) for batch in batches]
        expected_ids = {vp.vp_id for batch in batches for vp in batch}
        assert len(serial) == len(expected_ids)

        store = make_backend(kind, tmp_path / "parallel")
        barrier = threading.Barrier(N_THREADS, timeout=10.0)

        def ingest(batch):
            barrier.wait()  # maximize overlap
            return store.insert_many(batch)

        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            counts = list(pool.map(ingest, batches))

        # counts sum to the stored population: nothing lost, nothing doubled
        assert sum(counts) == len(store) == len(expected_ids) == sum(serial_counts)
        for vp_id in expected_ids:
            assert vp_id in store
        # per-minute populations identical to the serial reference
        assert store.minutes() == serial.minutes()
        for minute in serial.minutes():
            got = {fingerprint(vp) for vp in store.query(QuerySpec(minute=minute)).vps}
            want = {fingerprint(vp) for vp in serial.query(QuerySpec(minute=minute)).vps}
            assert got == want
        serial.close()
        store.close()

    def test_parallel_readers_during_writes(self, kind, tmp_path):
        store = make_backend(kind, tmp_path)
        seed_vps = [make_vp(seed=i + 1, minute=0, x0=10.0 * i) for i in range(8)]
        store.insert_many(seed_vps)
        area = Rect(-5, -5, 500, 5)
        stop = threading.Event()
        errors: list[Exception] = []

        def reader():
            try:
                while not stop.is_set():
                    assert len(store.query(QuerySpec(minute=0)).vps) >= 8
                    store.query(QuerySpec(minute=0, area=area)).vps
                    assert seed_vps[0].vp_id in store
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for i in range(40):
            store.insert(make_vp(seed=500 + i, minute=0, x0=1000.0 + i))
        stop.set()
        for t in threads:
            t.join(timeout=10.0)
        assert not errors
        assert len(store) == 48
        store.close()


class TestSQLiteConcurrencyMachinery:
    def test_per_thread_connections_share_one_dataset(self):
        store = SQLiteStore()
        store.insert(make_vp(seed=1))
        seen: dict[str, int] = {}

        def probe(name: str) -> None:
            seen[name] = len(store)  # forces a thread-local connection

        threads = [
            threading.Thread(target=probe, args=(f"t{i}",)) for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen == {"t0": 1, "t1": 1, "t2": 1}
        assert store.stats().detail["connections"] >= 4  # keepalive + probes
        store.close()

    def test_closed_store_refuses_queries(self):
        store = SQLiteStore()
        store.insert(make_vp(seed=5))
        store.close()
        with pytest.raises(StorageError):
            len(store)
        store.close()  # idempotent

    def test_trusted_flag_survives_threads(self):
        store = SQLiteStore()
        vp = make_vp(seed=6)
        store.insert_trusted(vp)
        out: list[bool] = []

        def probe() -> None:
            got = store.get(vp.vp_id)
            out.append(got is not None and got.trusted)

        t = threading.Thread(target=probe)
        t.start()
        t.join()
        assert out == [True]
        assert len(store.query(QuerySpec(minute=0, trusted_only=True)).vps) == 1
        store.close()


class TestShardedFanout:
    def test_multi_minute_batch_fans_out_and_counts_exactly(self):
        store = ShardedStore.memory(n_shards=4)
        vps = [make_vp(seed=100 + i, minute=i % 4, x0=10.0 * i) for i in range(32)]
        assert store.insert_many(vps) == 32
        assert [len(s) for s in store.shards] == [8, 8, 8, 8]
        assert store.stats().detail["fanout_workers"] == 4
        store.close()

    def test_same_id_at_different_minutes_lands_on_one_shard_only(self):
        # the same R value at two minutes routes to two shards; the
        # fleet-wide reservation must keep exactly one copy even when
        # the two inserts race
        from dataclasses import replace

        for _ in range(20):
            store = ShardedStore.memory(n_shards=2)
            a = make_vp(seed=7, minute=0)
            b = make_vp(seed=8, minute=1)
            # forge the id collision across minutes (keeps b's timestamps)
            b = ViewProfile(
                digests=[replace(vd, vp_id=a.vp_id) for vd in b.digests],
                bloom=b.bloom,
            )
            assert a.vp_id == b.vp_id and a.minute != b.minute
            barrier = threading.Barrier(2, timeout=5.0)
            counts = []

            def ingest(vp):
                barrier.wait()
                counts.append(store.insert_many([vp]))

            threads = [threading.Thread(target=ingest, args=(vp,)) for vp in (a, b)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert sorted(counts) == [0, 1]
            assert len(store) == 1
            store.close()

    def test_insert_trusted_rejection_does_not_mutate(self):
        store = ShardedStore.memory(n_shards=2)
        original = make_vp(seed=9, minute=0)
        store.insert_many([original])
        duplicate = make_vp(seed=9, minute=0)  # same id, caller-held copy
        with pytest.raises(Exception) as excinfo:
            store.insert_trusted(duplicate)
        assert "already exists" in str(excinfo.value)
        assert duplicate.trusted is False  # rejected insert never mutates
        assert store.get(original.vp_id).trusted is False
        store.close()

    def test_serial_fanout_option(self):
        store = ShardedStore(
            [MemoryStore() for _ in range(3)], fanout_workers=0
        )
        vps = [make_vp(seed=200 + i, minute=i % 3) for i in range(9)]
        assert store.insert_many(vps) == 9
        assert len(store) == 9
        store.close()


class TestEvictionRaces:
    """Regression: retention passes racing ingest must never error.

    Inserting into a minute that was just evicted re-creates it on the
    owning shard — the reservation must treat evicted ids as free, not
    raise a duplicate error off stale directory state.
    """

    @pytest.mark.parametrize("shard_cells", [1, 4])
    def test_insert_into_just_evicted_minute_recreates_shard(self, shard_cells):
        store = ShardedStore.memory(n_shards=4, shard_cells=shard_cells)
        vps = [make_vp(seed=300 + i, minute=0, x0=40.0 * i) for i in range(8)]
        store.insert_many(vps)
        assert store.evict_before(1) == 8
        # the very VPs that were evicted insert cleanly again
        assert store.insert_many(vps) == 8
        assert len(store.query(QuerySpec(minute=0)).vps) == 8
        for vp in vps:
            assert vp.vp_id in store
        store.close()

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_concurrent_eviction_and_ingest_no_errors(self, kind, tmp_path):
        store = make_backend(kind, tmp_path)
        shard_cells = 3 if kind == "sharded" else 1
        if kind == "sharded":
            store.close()
            store = ShardedStore.memory(n_shards=3, shard_cells=shard_cells)
        stop = threading.Event()
        errors: list[Exception] = []

        def evictor() -> None:
            try:
                while not stop.is_set():
                    store.evict_before(10)  # everything in flight is older
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        t = threading.Thread(target=evictor)
        t.start()
        try:
            for i in range(30):
                batch = [
                    make_vp(seed=400 + 4 * i + j, minute=j % 3, x0=30.0 * i)
                    for j in range(4)
                ]
                assert store.insert_many(batch) == 4  # ids evicted, never taken
        finally:
            stop.set()
            t.join(timeout=10.0)
        assert not errors
        store.evict_before(10)
        assert len(store) == 0  # final pass leaves nothing behind
        store.close()
