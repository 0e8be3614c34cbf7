"""Concurrency contract tests for every placement of the VP store.

Each placement must keep exact semantics under parallel writers: no lost
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
from repro.store import make_store
from repro.store.serving import QuerySpec
from tests.store.conftest import PLACEMENTS, build_placement, fingerprint, make_vp

N_THREADS = 6
VPS_PER_THREAD = 12


BACKENDS = list(PLACEMENTS)


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
    def test_parallel_insert_many_no_lost_no_duplicated(self, kind):
        batches = [corpus_for(t) for t in range(N_THREADS)]

        serial = build_placement(kind)
        serial_counts = [serial.insert_many(batch) for batch in batches]
        expected_ids = {vp.vp_id for batch in batches for vp in batch}
        assert len(serial) == len(expected_ids)

        store = build_placement(kind)
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

    def test_parallel_readers_during_writes(self, kind):
        store = build_placement(kind)
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


class TestLogConcurrencyMachinery:
    def test_closed_store_refuses_queries(self):
        store = make_store("memory")
        store.insert(make_vp(seed=5))
        store.close()
        with pytest.raises(StorageError):
            store.get(make_vp(seed=5).vp_id)
        store.close()  # idempotent

    def test_trusted_flag_survives_threads(self):
        store = make_store("memory")
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


@pytest.mark.parametrize("kind", BACKENDS)
class TestOneWinner:
    def test_same_id_at_different_minutes_lands_once(self, kind):
        # the same R value at two minutes lands in two segments; the
        # id map must keep exactly one copy even when the two inserts race
        from dataclasses import replace

        for _attempt in range(20):
            store = build_placement(kind)
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

    def test_insert_trusted_rejection_does_not_mutate(self, kind):
        store = build_placement(kind)
        original = make_vp(seed=9, minute=0)
        store.insert_many([original])
        duplicate = make_vp(seed=9, minute=0)  # same id, caller-held copy
        with pytest.raises(Exception) as excinfo:
            store.insert_trusted(duplicate)
        assert "already exists" in str(excinfo.value)
        assert duplicate.trusted is False  # rejected insert never mutates
        assert store.get(original.vp_id).trusted is False
        store.close()


class TestEvictionRaces:
    """Regression: retention passes racing ingest must never error.

    Inserting into a minute that was just evicted re-creates its
    segment — the id map must treat evicted ids as free, not raise a
    duplicate error off stale state.
    """

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_insert_into_just_evicted_minute_recreates_it(self, kind):
        store = build_placement(kind)
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
    def test_concurrent_eviction_and_ingest_no_errors(self, kind):
        store = build_placement(kind)
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
