"""Tests for the store lifecycle subsystem (retention + eviction).

Covers the policy object itself, ``apply_retention`` reports, the
composite-routing variants of :class:`ShardedStore`, and — as a
hypothesis property — that for *any* interleaving of inserts and
evictions, every backend answers area queries over the retained window
with exactly the non-evicted matching VPs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.geo.geometry import Rect
from repro.store import (
    MemoryStore,
    ProcessShardedStore,
    RetentionPolicy,
    ShardedStore,
    SQLiteStore,
    apply_retention,
)
from repro.store.serving import QuerySpec
from tests.store.conftest import fingerprints, make_vp


class TestRetentionPolicy:
    def test_cutoff_and_retains(self):
        policy = RetentionPolicy(window_minutes=3, grace=1)
        assert policy.retained_minutes == 4
        assert policy.cutoff(newest_minute=10) == 7
        assert policy.retains(7, newest_minute=10)
        assert not policy.retains(6, newest_minute=10)

    def test_validation(self):
        with pytest.raises(ValidationError):
            RetentionPolicy(window_minutes=0)
        with pytest.raises(ValidationError):
            RetentionPolicy(window_minutes=1, grace=-1)
        with pytest.raises(ValidationError):
            RetentionPolicy(window_minutes=1, max_vps_per_minute=-1)
        with pytest.raises(ValidationError):
            RetentionPolicy(window_minutes=1, compact_every=-1)


class TestApplyRetention:
    def test_evicts_below_cutoff_and_reports(self):
        store = MemoryStore()
        for minute in range(5):
            store.insert(make_vp(seed=minute + 1, minute=minute))
        report = apply_retention(
            store, RetentionPolicy(window_minutes=2), newest_minute=4
        )
        assert report.cutoff == 3
        assert report.evicted == 3
        assert store.minutes() == [3, 4]

    def test_overload_flagged_not_discarded(self):
        # the per-minute cap is advisory: VPs are potential evidence, so
        # a concentration flood is reported, never silently dropped
        store = MemoryStore()
        for i in range(4):
            store.insert(make_vp(seed=i + 1, minute=0, x0=40.0 * i))
        policy = RetentionPolicy(window_minutes=5, max_vps_per_minute=3)
        report = apply_retention(store, policy, newest_minute=0)
        assert report.overloaded == {0: 4}
        assert len(store) == 4

    def test_compaction_gauges_returned(self):
        store = SQLiteStore()
        store.insert(make_vp(seed=1, minute=0))
        store.insert(make_vp(seed=2, minute=9))
        report = apply_retention(
            store, RetentionPolicy(window_minutes=1), newest_minute=9, compact=True
        )
        assert report.evicted == 1
        assert "db_bytes" in report.compaction
        store.close()

    def test_compaction_drains_the_freelist(self, tmp_path):
        # PRAGMA incremental_vacuum is not stepped to completion by one
        # execute(): compact() must loop until the freelist is empty,
        # not free a single page and claim success
        store = SQLiteStore(str(tmp_path / "vacuum.sqlite"))
        store.insert_many(
            [make_vp(seed=i + 1, minute=i % 10, x0=40.0 * i) for i in range(1500)]
        )
        store.evict_before(9)
        conn = store._conn
        freed = conn.execute("PRAGMA freelist_count").fetchone()[0]
        assert freed > 10  # eviction left real pages to reclaim
        report = store.compact(min_reclaim_bytes=1)
        assert report["vacuumed"]
        assert conn.execute("PRAGMA freelist_count").fetchone()[0] == 0
        store.close()

    def test_count_by_minute_matches_population(self):
        for store in (MemoryStore(), SQLiteStore(), ShardedStore.memory(3),
                      ShardedStore.memory(4, shard_cells=4)):
            for i in range(5):
                store.insert(make_vp(seed=i + 1, minute=i % 2, x0=500.0 * i))
            assert store.query(QuerySpec(minute=0, count=True)).n == 3
            assert len(store.query(QuerySpec(minute=0)).vps) == 3
            assert store.query(QuerySpec(minute=1, count=True)).n == 2
            assert store.query(QuerySpec(minute=7, count=True)).n == 0
            store.close()


class TestEvictionSemantics:
    @pytest.mark.parametrize("kind", ["memory", "sqlite", "sharded", "sharded-cells"])
    def test_evicted_vps_fully_gone(self, kind):
        store = {
            "memory": MemoryStore,
            "sqlite": SQLiteStore,
            "sharded": lambda: ShardedStore.memory(n_shards=3),
            "sharded-cells": lambda: ShardedStore.memory(n_shards=4, shard_cells=4),
        }[kind]()
        vps = [
            make_vp(seed=10 * m + i + 1, minute=m, x0=300.0 * i)
            for m in range(4)
            for i in range(3)
        ]
        store.insert_many(vps)
        assert store.evict_before(2) == 6
        assert store.minutes() == [2, 3]
        for vp in vps:
            if vp.minute < 2:
                assert vp.vp_id not in store
                assert store.get(vp.vp_id) is None
            else:
                assert vp.vp_id in store
        # evicted ids are free again: the same R value can be reused
        # (the fleet-wide duplicate check must not remember ghosts)
        readd = make_vp(seed=1, minute=0)
        store.insert(readd)
        assert fingerprints(store.query(QuerySpec(minute=0)).vps) == fingerprints([readd])
        assert store.evict_before(10) == 7
        assert len(store) == 0
        store.close()


class TestTrustedPinning:
    """``pin_trusted``: a retention pass never drops investigation seeds."""

    @pytest.mark.parametrize(
        "kind", ["memory", "sqlite", "sharded", "sharded-cells", "procs"]
    )
    def test_pinned_trusted_survive_eviction(self, kind):
        store = {
            "memory": MemoryStore,
            "sqlite": SQLiteStore,
            "sharded": lambda: ShardedStore.memory(n_shards=3),
            "sharded-cells": lambda: ShardedStore.memory(n_shards=4, shard_cells=4),
            "procs": lambda: ProcessShardedStore.memory(n_workers=2, shard_cells=2),
        }[kind]()
        try:
            anon = [
                make_vp(seed=10 * m + i + 1, minute=m, x0=500.0 * i)
                for m in range(3)
                for i in range(3)
            ]
            seeds = [make_vp(seed=100 + m, minute=m, x0=40.0) for m in range(3)]
            store.insert_many(anon)
            for vp in seeds:
                store.insert_trusted(vp)

            assert store.evict_before(2, keep_trusted=True) == 6
            # seeds of the evicted minutes survive, in order, queryable
            for m in range(2):
                for spec in (QuerySpec(minute=m), QuerySpec(minute=m, trusted_only=True)):
                    assert fingerprints(store.query(spec).vps) == fingerprints([seeds[m]])
                assert store.get(seeds[m].vp_id) is not None
                assert seeds[m].vp_id in store
            # minute 2 untouched: full population, original order
            assert fingerprints(store.query(QuerySpec(minute=2)).vps) == fingerprints(
                anon[6:9] + [seeds[2]]
            )
            # pinned ids stay claimed; evicted anonymous ids free up
            with pytest.raises(ValidationError):
                store.insert(make_vp(seed=100, minute=0, x0=40.0))
            store.insert(make_vp(seed=1, minute=0, x0=0.0))
            # a later unpinned pass reclaims everything below the cutoff:
            # 2 at minute 0 (seed + re-add), 1 at minute 1, 4 at minute 2
            assert store.evict_before(3) == 7
            assert len(store) == 0
        finally:
            store.close()

    def test_apply_retention_honors_pin_trusted(self):
        store = MemoryStore()
        store.insert(make_vp(seed=1, minute=0))
        store.insert_trusted(make_vp(seed=2, minute=0, x0=40.0))
        policy = RetentionPolicy(window_minutes=1, pin_trusted=True)
        report = apply_retention(store, policy, newest_minute=9)
        assert report.evicted == 1
        assert len(store) == 1 and store.query(QuerySpec(minute=0, trusted_only=True)).vps
        store.close()

    def test_unpinned_policy_still_evicts_trusted(self):
        store = MemoryStore()
        store.insert_trusted(make_vp(seed=2, minute=0, x0=40.0))
        report = apply_retention(
            store, RetentionPolicy(window_minutes=1), newest_minute=9
        )
        assert report.evicted == 1 and len(store) == 0
        store.close()


class TestCompositeRouting:
    def test_hot_minute_spreads_across_shards(self):
        store = ShardedStore.memory(n_shards=8, shard_cells=8, route_cell_m=500.0)
        vps = [
            make_vp(seed=i + 1, minute=0, x0=700.0 * i, y0=900.0 * (i % 5))
            for i in range(40)
        ]
        store.insert_many(vps)
        occupied = sum(1 for shard in store.shards if len(shard) > 0)
        assert occupied >= 4  # one minute no longer lives on one shard

    def test_insertion_order_preserved_across_shards(self):
        store = ShardedStore.memory(n_shards=4, shard_cells=4, route_cell_m=250.0)
        vps = [
            make_vp(seed=i + 1, minute=0, x0=800.0 * (i % 7), y0=650.0 * (i % 3))
            for i in range(25)
        ]
        for vp in vps[:10]:
            store.insert(vp)
        store.insert_many(vps[10:])
        assert fingerprints(store.query(QuerySpec(minute=0)).vps) == fingerprints(vps)
        area = Rect(-10.0, -10.0, 3000.0, 1500.0)
        expected = [
            vp
            for vp in vps
            if any(
                -10.0 <= p.x <= 3000.0 and -10.0 <= p.y <= 1500.0
                for p in vp.trajectory.points
            )
        ]
        found = store.query(QuerySpec(minute=0, area=area)).vps
        assert fingerprints(found) == fingerprints(expected)

    def test_minute_only_routing_unchanged(self):
        # shard_cells=1 must behave exactly as the historical router
        store = ShardedStore.memory(n_shards=3)
        vp = make_vp(seed=1, minute=5)
        store.insert(vp)
        assert vp.vp_id in store.shards[5 % 3]

    def test_reopened_sqlite_fleet_keeps_duplicate_check(self, tmp_path):
        paths = [str(tmp_path / f"shard-{i}.sqlite") for i in range(3)]
        store = ShardedStore.sqlite(paths, shard_cells=3)
        vps = [make_vp(seed=i + 1, minute=0, x0=900.0 * i) for i in range(6)]
        store.insert_many(vps)
        store.close()

        reopened = ShardedStore.sqlite(paths, shard_cells=3)
        # the id directory is re-seeded from the shards: duplicates are
        # still rejected and the stored set is intact (order across
        # shards is per-shard after a restart, so compare as sets)
        with pytest.raises(ValidationError):
            reopened.insert(make_vp(seed=1, minute=0))
        assert reopened.insert_many([vps[2], make_vp(seed=99, minute=0)]) == 1
        assert len(reopened) == 7
        merged = reopened.query(QuerySpec(minute=0)).vps
        got = {f for f in fingerprints(merged)}
        want = {f for f in fingerprints(vps + [make_vp(seed=99, minute=0)])}
        assert got == want
        # a restart must never order new VPs ahead of persisted ones
        assert fingerprints(merged[-1:]) == fingerprints([make_vp(seed=99, minute=0)])
        reopened.close()


# -- property: any insert/evict interleaving, exact retained answers -------

#: an op is insert (False, seed-ish, minute, x_cell, y_cell) or evict
#: (True, cutoff, _, _, _)
lifecycle_ops = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(0, 6),
        st.integers(0, 3),
        st.integers(-2, 4),
        st.integers(-2, 4),
    ),
    min_size=1,
    max_size=16,
)
areas = st.tuples(
    st.floats(-700, 1400), st.floats(-700, 1400), st.floats(0, 900), st.floats(0, 900)
)


def lifecycle_backends():
    return [
        MemoryStore(),
        SQLiteStore(),
        ShardedStore.memory(n_shards=3),
        ShardedStore.memory(n_shards=4, shard_cells=4, route_cell_m=300.0),
        ProcessShardedStore.memory(n_workers=2, shard_cells=2, route_cell_m=300.0),
    ]


@given(ops=lifecycle_ops, area=areas)
@settings(max_examples=25, deadline=None)
def test_any_interleaving_retains_exactly_the_survivors(ops, area):
    backends = lifecycle_backends()
    #: reference model: minute -> VPs in insertion order, evict = del
    alive: dict[int, list] = {}

    for index, (is_evict, a, minute, xc, yc) in enumerate(ops):
        if is_evict:
            cutoff = a  # evict everything below minute `a`
            expected = sum(len(vps) for m, vps in alive.items() if m < cutoff)
            for m in [m for m in alive if m < cutoff]:
                del alive[m]
            for store in backends:
                assert store.evict_before(cutoff) == expected
        else:
            # unique per op so inserts never collide across interleavings
            seed = 1 + index + 100 * (a + 10 * (minute + 4 * ((xc + 2) + 7 * (yc + 2))))
            copies = [
                make_vp(seed=seed, n=2, minute=minute, x0=300.0 * xc, y0=300.0 * yc)
                for _ in range(len(backends) + 1)
            ]
            alive.setdefault(minute, []).append(copies[-1])
            for store, vp in zip(backends, copies):
                store.insert(vp)

    x0, y0, w, h = area
    rect = Rect(x0, y0, x0 + w, y0 + h)
    for store in backends:
        assert len(store) == sum(len(vps) for vps in alive.values())
        assert store.minutes() == sorted(alive)
        for minute in range(4):
            survivors = alive.get(minute, [])
            found = store.query(QuerySpec(minute=minute)).vps
            assert fingerprints(found) == fingerprints(survivors)
            expected_area = [
                vp
                for vp in survivors
                if any(
                    rect.x_min <= p.x <= rect.x_max and rect.y_min <= p.y <= rect.y_max
                    for p in vp.trajectory.points
                )
            ]
            found = store.query(QuerySpec(minute=minute, area=rect)).vps
            assert fingerprints(found) == fingerprints(expected_area)
        store.close()
