"""The per-call store contract, on every placement of the one engine.

Every store is the minute-segment log; what varies is where its
segments are (anonymous or named files) and who owns them (this process,
a sharded router, worker processes).  ``make_store("memory")`` keeps
each VP's wire record in an unlinked temporary segment, so on every
placement reads return fresh objects equal in content to what was
inserted.  The property tests (``test_read_state_machine.py``,
``test_backend_parity.py``) hold all placements to one read oracle over
random histories; here each placement is held, one call at a time, to
the edges a random history rarely reaches: an empty store, a closed one,
a frame arriving as a read-only ``memoryview``, a rectangle edge that
touches a claimed position exactly, and the occupancy numbers
``stats()`` reports.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import StorageError, ValidationError
from repro.geo.geometry import Point, Rect
from repro.store import QuerySpec, ShardedStore, encode_vp_batch, make_store
from tests.store.conftest import fingerprint, fingerprints, make_vp

#: placement name -> constructor taking a scratch directory
PLACEMENTS = {
    "memory": lambda tmp: make_store("memory"),
    "named": lambda tmp: make_store("sqlite", str(tmp / "log")),
    "sharded": lambda tmp: make_store("sharded", n_shards=3),
    "sharded-cells": lambda tmp: make_store("sharded", n_shards=3, shard_cells=3),
    "sharded-named": lambda tmp: ShardedStore(
        [make_store("sqlite", str(tmp / f"shard{i}")) for i in range(2)]
    ),
    "procs": lambda tmp: make_store("procs", ingest_workers=2, shard_cells=2),
    "procs-named": lambda tmp: make_store("procs", str(tmp / "fleet"), ingest_workers=2),
}

EMPTY_FRAME = encode_vp_batch([])


@pytest.fixture(params=list(PLACEMENTS))
def store(request, tmp_path):
    built = PLACEMENTS[request.param](tmp_path)
    yield built
    built.close()


def spread(n, minute=0):
    """``n`` VPs of one minute, a kilometre apart: composite routing
    sends them to different shards."""
    return [make_vp(seed=100 * (minute + 1) + i, minute=minute, x0=1000.0 * i) for i in range(n)]


class TestInsertQuery:
    def test_insert_get_identity(self, store):
        vp = make_vp(seed=1)
        store.insert(vp)
        assert len(store) == 1
        assert vp.vp_id in store
        got = store.get(vp.vp_id)
        # equal bytes, fresh object
        assert fingerprint(got) == fingerprint(vp) and got is not vp

    def test_duplicate_rejected(self, store):
        vp = make_vp(seed=1)
        store.insert(vp)
        with pytest.raises(ValidationError):
            store.insert(vp)

    def test_by_minute_preserves_insertion_order(self, store):
        vps = [make_vp(seed=i, minute=2, x0=1000.0 * i) for i in range(5)]
        for vp in vps:
            store.insert(vp)
        assert fingerprints(store.query(QuerySpec(minute=2)).vps) == fingerprints(vps)
        assert store.minutes() == [2]

    def test_insert_many_skips_duplicates(self, store):
        a, b = make_vp(seed=1), make_vp(seed=2)
        store.insert(a)
        assert store.insert_many([a, b, b]) == 1
        assert len(store) == 2

    def test_frame_lands_from_a_read_only_memoryview(self, store):
        vps = spread(3) + spread(2, minute=1)
        frame = memoryview(encode_vp_batch(vps)).toreadonly()
        assert store.insert_encoded(frame) == 5
        assert store.insert_encoded(frame) == 0  # every id is taken now
        with pytest.raises(ValidationError):
            store.insert_encoded(frame, strict=True)
        assert fingerprints(store.query(QuerySpec(minute=0)).vps) == fingerprints(vps[:3])
        assert fingerprints(store.query(QuerySpec(minute=1)).vps) == fingerprints(vps[3:])


class TestAreaQuery:
    def test_matches_linear_scan_semantics(self, store):
        near = make_vp(seed=1, x0=0.0)
        far = make_vp(seed=2, x0=10_000.0)
        store.insert(near)
        store.insert(far)
        found = store.query(QuerySpec(minute=0, area=Rect(-100, -100, 1000, 100))).vps
        assert fingerprints(found) == fingerprints([near])

    def test_vp_spanning_cells_found_once(self, store):
        # 360 m of positions cross several coverage tiles; the VP is one row
        vp = make_vp(seed=3, n=10, step=40.0)
        store.insert_many(spread(2) + [vp])
        found = store.query(QuerySpec(minute=0, area=Rect(-1000, -1000, 5000, 1000))).vps
        assert [got.vp_id for got in found].count(vp.vp_id) == 1
        assert len(found) == 3
        tail = store.query(QuerySpec(minute=0, area=Rect(350, -5, 370, 5))).vps
        assert fingerprints(tail) == fingerprints([vp])

    def test_boundary_inclusive(self, store):
        vp = make_vp(seed=4, n=2, x0=0.0)  # positions at x=0 and x=10
        store.insert(vp)
        touching = QuerySpec(minute=0, area=Rect(10.0, -5.0, 20.0, 5.0))
        missing = QuerySpec(minute=0, area=Rect(10.5, -5.0, 20.0, 5.0))
        assert fingerprints(store.query(touching).vps) == fingerprints([vp])
        assert store.query(missing).vps == []
        assert store.query(replace(touching, count=True)).n == 1
        assert store.query(replace(missing, count=True)).n == 0

    def test_empty_minute(self, store):
        assert len(store) == 0 and store.minutes() == []
        assert list(store.iter_id_minutes()) == []
        assert store.get(make_vp(seed=1).vp_id) is None
        assert store.existing_ids([make_vp(seed=1).vp_id]) == set()
        for spec in (QuerySpec(minute=9), QuerySpec(minute=9, area=Rect(0, 0, 1, 1))):
            assert store.query_encoded(spec) == EMPTY_FRAME
            assert store.query(spec).vps == []
            assert store.query(replace(spec, count=True)).n == 0
        assert store.query(QuerySpec(minute=9, nearest=Point(0, 0), k=3)).vps == []
        assert store.evict_before(10) == 0


class TestTrusted:
    def test_insert_trusted_sets_flag(self, store):
        vp = make_vp(seed=5)
        store.insert_trusted(vp)
        assert vp.trusted and store.get(vp.vp_id).trusted
        found = store.query(QuerySpec(minute=0, trusted_only=True)).vps
        assert fingerprints(found) == fingerprints([vp])

    def test_duplicate_insert_trusted_leaves_argument_untouched(self, store):
        store.insert(make_vp(seed=6))
        dup = make_vp(seed=6)  # same secret -> same vp_id, caller-held copy
        with pytest.raises(ValidationError):
            store.insert_trusted(dup)
        assert not dup.trusted
        assert store.query(QuerySpec(minute=0, trusted_only=True)).vps == []

    def test_nearest_trusted_vectorized_ordering(self, store):
        near = make_vp(seed=7, x0=0.0)
        far = make_vp(seed=8, x0=5_000.0)
        store.insert_trusted(far)
        store.insert_trusted(near)
        nearest = QuerySpec(minute=0, trusted_only=True, nearest=Point(0, 0), k=1)
        assert fingerprints(store.query(nearest).vps) == fingerprints([near])
        assert fingerprints(store.query(replace(nearest, k=2)).vps) == fingerprints([near, far])

    def test_nearest_ties_keep_insertion_order(self, store):
        # both trajectories end 100 m from the site, on opposite sides (and
        # in different routing cells); only insertion order can break the tie
        site = Point(0.0, 0.0)
        for minute, order in ((0, (100.0, -130.0)), (1, (-130.0, 100.0))):
            seed = 20 + 10 * minute
            tied = [make_vp(seed=seed + i, minute=minute, x0=x0) for i, x0 in enumerate(order)]
            store.insert_many(tied + [make_vp(seed=seed + 9, minute=minute, x0=400.0)])
            ranked = store.query(QuerySpec(minute=minute, nearest=site, k=2)).vps
            assert fingerprints(ranked) == fingerprints(tied), minute


class TestStats:
    def test_stats_counts(self, store):
        # minute 0 spans every shard of a composite-routed fleet; it is
        # still one minute
        store.insert_many(spread(4, minute=0))
        store.insert_trusted(make_vp(seed=7, minute=0, x0=500.0))
        store.insert_trusted(make_vp(seed=8, minute=3))
        stats = store.stats()
        assert (stats.vps, stats.trusted, stats.minutes) == (6, 2, 2)
        assert store.evict_before(1, keep_trusted=True) == 4
        stats = store.stats()
        assert (stats.vps, stats.trusted, stats.minutes) == (2, 2, 2)


class TestClose:
    def test_closed_store_refuses_calls_and_closes_twice(self, store):
        store.insert(make_vp(seed=11))
        store.close()
        store.close()  # idempotent
        for call in (
            lambda: store.insert(make_vp(seed=12)),
            lambda: store.insert_encoded(encode_vp_batch([make_vp(seed=13)])),
            lambda: store.query_encoded(QuerySpec(minute=0)),
            lambda: store.query(QuerySpec(minute=0)),
            lambda: store.evict_before(1),
        ):
            with pytest.raises(StorageError):
                call()
