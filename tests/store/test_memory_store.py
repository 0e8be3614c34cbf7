"""The per-call store contract, on every way a caller gets the one engine.

Every store is the minute-segment log; what varies is where its
segments are (anonymous or named files), whether its index was rebuilt
by a reopen, whether it records metrics, and which ``make_store`` call
built it (``tests/store/conftest.py:PLACEMENTS``).  ``SegmentStore()``
keeps each VP's wire record in an unlinked temporary segment, so on every
placement reads return fresh objects equal in content to what was
inserted.  The property tests (``test_read_state_machine.py``,
``test_backend_parity.py``) hold the placements to one read oracle over
random histories; here each placement is held, one call at a time, to
the edges a random history rarely reaches: an empty store, a closed one,
a frame arriving as a read-only ``memoryview``, a rectangle edge that
touches a claimed position exactly, one id claimed at two minutes, and
the occupancy numbers ``stats()`` reports.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.system import ViewMapSystem
from repro.errors import StorageError, ValidationError
from repro.geo.geometry import Rect
from repro.store import QuerySpec, encode_vp_batch
from tests.store.conftest import (
    PLACEMENTS,
    build_placement,
    fingerprint,
    fingerprints,
    insert_trusted_vp,
    insert_vp,
    insert_vps,
    make_vp,
)

EMPTY_FRAME = encode_vp_batch([])
UNKNOWN_ID = b"\x00" * 16


@pytest.fixture(params=list(PLACEMENTS))
def store(request):
    built = build_placement(request.param)
    yield built
    built.close()


def spread(n, minute=0):
    """``n`` VPs of one minute, a kilometre apart."""
    return [make_vp(seed=100 * (minute + 1) + i, minute=minute, x0=1000.0 * i) for i in range(n)]


class TestInsertQuery:
    def test_insert_get_identity(self, store):
        vp = make_vp(seed=1)
        insert_vp(store, vp)
        assert len(store) == 1
        assert vp.vp_id in store
        got = store.get(vp.vp_id)
        # equal bytes, fresh object
        assert fingerprint(got) == fingerprint(vp) and got is not vp

    def test_duplicate_rejected(self, store):
        vp = make_vp(seed=1)
        insert_vp(store, vp)
        with pytest.raises(ValidationError):
            insert_vp(store, vp)

    def test_by_minute_preserves_insertion_order(self, store):
        vps = [make_vp(seed=i, minute=2, x0=1000.0 * i) for i in range(5)]
        for vp in vps:
            insert_vp(store, vp)
        assert fingerprints(store.query(QuerySpec(minute=2)).vps) == fingerprints(vps)
        assert store.minutes() == [2]

    def test_insert_many_skips_duplicates(self, store):
        a, b = make_vp(seed=1), make_vp(seed=2)
        insert_vp(store, a)
        assert insert_vps(store, [a, b, b]) == 1
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
        insert_vp(store, near)
        insert_vp(store, far)
        found = store.query(QuerySpec(minute=0, area=Rect(-100, -100, 1000, 100))).vps
        assert fingerprints(found) == fingerprints([near])

    def test_vp_spanning_cells_found_once(self, store):
        # 360 m of positions span a wide bounding box; the VP is one row
        vp = make_vp(seed=3, n=10, step=40.0)
        insert_vps(store, spread(2) + [vp])
        found = store.query(QuerySpec(minute=0, area=Rect(-1000, -1000, 5000, 1000))).vps
        assert [got.vp_id for got in found].count(vp.vp_id) == 1
        assert len(found) == 3
        tail = store.query(QuerySpec(minute=0, area=Rect(350, -5, 370, 5))).vps
        assert fingerprints(tail) == fingerprints([vp])

    def test_boundary_inclusive(self, store):
        vp = make_vp(seed=4, n=2, x0=0.0)  # positions at x=0 and x=10
        insert_vp(store, vp)
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
        assert store.evict_before(10) == 0


class TestTrusted:
    def test_insert_trusted_sets_flag(self, store):
        vp = make_vp(seed=5)
        insert_trusted_vp(store, vp)
        assert vp.trusted and store.get(vp.vp_id).trusted
        found = store.query(QuerySpec(minute=0, trusted_only=True)).vps
        assert fingerprints(found) == fingerprints([vp])

    def test_duplicate_insert_trusted_leaves_argument_untouched(self, store):
        insert_vp(store, make_vp(seed=6))
        dup = make_vp(seed=6)  # same secret -> same vp_id, caller-held copy
        with pytest.raises(ValidationError):
            ViewMapSystem(key_bits=512, store=store).ingest_trusted_vp(dup)
        assert not dup.trusted
        assert store.query(QuerySpec(minute=0, trusted_only=True)).vps == []


class TestAcrossMinutes:
    """Each minute is its own segment; the id map spans all of them."""

    def test_point_lookup_across_minutes(self, store):
        vps = [make_vp(seed=i + 1, minute=i) for i in range(8)]
        for vp in vps:
            insert_vp(store, vp)
        assert len(store) == 8 and store.minutes() == list(range(8))
        for vp in vps:
            got = store.get(vp.vp_id)
            assert fingerprint(got) == fingerprint(vp) and got is not vp
        assert store.get(UNKNOWN_ID) is None and UNKNOWN_ID not in store

    def test_minutes_sorted_whatever_the_insert_order(self, store):
        vps = {minute: make_vp(seed=minute, minute=minute) for minute in (5, 1, 4)}
        for vp in vps.values():
            insert_vp(store, vp)
        insert_vp(store, make_vp(seed=50, minute=1, x0=900.0))
        assert store.minutes() == [1, 4, 5]
        assert [m for _id, m in store.iter_id_minutes()] == [1, 1, 4, 5]
        assert [vp_id for vp_id, _m in store.iter_id_minutes()][0] == vps[1].vp_id

    def test_cross_minute_duplicate_id_rejected(self, store):
        # the same R value claimed at two minutes would land in two segments
        insert_vp(store, make_vp(seed=1, minute=0))
        with pytest.raises(ValidationError):
            insert_vp(store, make_vp(seed=1, minute=1))
        assert len(store) == 1 and store.minutes() == [0]
        assert store.query(QuerySpec(minute=1)).vps == []

    def test_cross_minute_duplicate_skipped_in_batch(self, store):
        vps = [make_vp(seed=1, minute=0), make_vp(seed=1, minute=1), make_vp(seed=2, minute=1)]
        assert insert_vps(store, vps) == 2
        assert len(store) == 2
        assert fingerprints(store.query(QuerySpec(minute=1)).vps) == fingerprints([vps[2]])

    def test_existing_ids_spans_minutes(self, store):
        vps = [make_vp(seed=i + 1, minute=i) for i in range(3)]
        insert_vps(store, vps)
        probe = [vp.vp_id for vp in vps] + [UNKNOWN_ID]
        assert store.existing_ids(probe) == {vp.vp_id for vp in vps}

    def test_queries_see_only_their_minute(self, store):
        near = make_vp(seed=1, minute=3, x0=0.0)
        far = make_vp(seed=2, minute=3, x0=9_000.0)
        insert_vp(store, make_vp(seed=3, minute=2, x0=0.0))  # same place, other minute
        insert_trusted_vp(store, near)
        insert_vp(store, far)
        assert fingerprints(store.query(QuerySpec(minute=3)).vps) == fingerprints([near, far])
        in_area = QuerySpec(minute=3, area=Rect(-50, -50, 100, 50))
        assert fingerprints(store.query(in_area).vps) == fingerprints([near])
        trusted = QuerySpec(minute=3, trusted_only=True)
        assert fingerprints(store.query(trusted).vps) == fingerprints([near])


class TestBatches:
    def test_strict_batch_lands_nothing_on_a_duplicate(self, store):
        taken, fresh = make_vp(seed=1), make_vp(seed=2, minute=1)
        insert_vp(store, taken)
        with pytest.raises(ValidationError):
            store.insert_encoded(encode_vp_batch([fresh, taken]), strict=True)
        assert fresh.vp_id not in store and store.minutes() == [0]

    def test_empty_batches_land_nothing(self, store):
        assert insert_vps(store, []) == 0
        assert store.insert_encoded(EMPTY_FRAME) == 0
        assert store.insert_encoded(EMPTY_FRAME, strict=True) == 0
        stats = store.stats()
        assert (stats.vps, stats.trusted, stats.minutes) == (0, 0, 0)
        assert store.minutes() == []

    def test_batch_spanning_minutes_counts_exactly(self, store):
        vps = [make_vp(seed=i + 1, minute=i % 4, x0=25.0 * i) for i in range(12)]
        assert insert_vps(store, vps) == 12
        assert len(store) == 12 and store.minutes() == [0, 1, 2, 3]
        for minute in range(4):
            found = store.query(QuerySpec(minute=minute)).vps
            assert fingerprints(found) == fingerprints(vps[minute::4]), minute


class TestEvictionEdges:
    def test_evict_is_idempotent_and_frees_ids(self, store):
        vps = [make_vp(seed=i + 1, minute=i % 3, x0=100.0 * i) for i in range(6)]
        insert_vps(store, vps)
        assert store.evict_before(2) == 4
        assert store.evict_before(2) == 0
        assert store.minutes() == [2]
        assert insert_vps(store, vps) == 4  # exactly the evicted ones land again
        assert store.minutes() == [0, 1, 2]

    def test_an_all_trusted_minute_survives_keep_trusted(self, store):
        seeds = [make_vp(seed=i + 1, x0=200.0 * i) for i in range(3)]
        for vp in seeds:
            insert_trusted_vp(store, vp)
        frame = store.query_encoded(QuerySpec(minute=0))
        assert store.evict_before(1, keep_trusted=True) == 0
        assert store.query_encoded(QuerySpec(minute=0)) == frame
        assert store.evict_before(1) == 3 and len(store) == 0


class TestSelectionEdges:
    def test_counts_agree_with_decoded_selections(self, store):
        insert_vps(store, spread(4))
        insert_trusted_vp(store, make_vp(seed=60, x0=1000.0))
        insert_trusted_vp(store, make_vp(seed=61, x0=5000.0))
        area = Rect(-10, -10, 1100, 10)
        for spec in (
            QuerySpec(minute=0),
            QuerySpec(minute=0, trusted_only=True),
            QuerySpec(minute=0, area=area),
            QuerySpec(minute=0, area=area, trusted_only=True),
        ):
            n = len(store.query(spec).vps)
            assert store.query(replace(spec, count=True)).n == n, spec
            assert store.query(replace(spec, encoded=True)).n == n, spec
        assert store.query(QuerySpec(minute=0, area=area, trusted_only=True, count=True)).n == 1


class TestStats:
    def test_stats_counts(self, store):
        # minute 0 spread over a kilometre and more is still one minute
        insert_vps(store, spread(4, minute=0))
        insert_trusted_vp(store, make_vp(seed=7, minute=0, x0=500.0))
        insert_trusted_vp(store, make_vp(seed=8, minute=3))
        stats = store.stats()
        assert (stats.vps, stats.trusted, stats.minutes) == (6, 2, 2)
        assert store.evict_before(1, keep_trusted=True) == 4
        stats = store.stats()
        assert (stats.vps, stats.trusted, stats.minutes) == (2, 2, 2)


class TestClose:
    def test_closed_store_refuses_calls_and_closes_twice(self, store):
        insert_vp(store, make_vp(seed=11))
        store.close()
        store.close()  # idempotent
        for call in (
            lambda: insert_vp(store, make_vp(seed=12)),
            lambda: store.insert_encoded(encode_vp_batch([make_vp(seed=13)])),
            lambda: store.query_encoded(QuerySpec(minute=0)),
            lambda: store.query(QuerySpec(minute=0)),
            lambda: store.evict_before(1),
        ):
            with pytest.raises(StorageError):
                call()
