"""Tests for the minute-partitioned sharded VP store."""

import pytest

from repro.errors import ValidationError
from repro.geo.geometry import Point, Rect
from repro.store import ProcessShardedStore, ShardedStore
from repro.store.serving import QuerySpec
from tests.store.conftest import fingerprints, make_vp


class TestRouting:
    def test_minute_routes_to_one_shard(self):
        store = ShardedStore.memory(n_shards=3)
        vps = [make_vp(seed=i, minute=i) for i in range(6)]
        store.insert_many(vps)
        for minute, vp in enumerate(vps):
            shard = store.shard_for(minute)
            assert vp.vp_id in shard
            others = [s for s in store.shards if s is not shard]
            assert all(vp.vp_id not in s for s in others)

    def test_cross_shard_point_lookup(self):
        store = ShardedStore.memory(n_shards=4)
        vps = [make_vp(seed=i, minute=i) for i in range(8)]
        for vp in vps:
            store.insert(vp)
        assert len(store) == 8
        for vp in vps:
            assert vp.vp_id in store
            assert store.get(vp.vp_id) is vp
        assert store.get(b"\x00" * 16) is None

    def test_minutes_merged_across_shards(self):
        store = ShardedStore.memory(n_shards=3)
        for minute in (5, 1, 4):
            store.insert(make_vp(seed=minute, minute=minute))
        assert store.minutes() == [1, 4, 5]


class TestSemantics:
    def test_duplicate_rejected_across_wrapper(self):
        store = ShardedStore.memory(n_shards=2)
        store.insert(make_vp(seed=1))
        with pytest.raises(ValidationError):
            store.insert(make_vp(seed=1))

    def test_cross_minute_duplicate_id_rejected(self):
        # same R value claimed at two minutes routes to two different
        # shards — the duplicate check must still span the whole fleet
        store = ShardedStore.memory(n_shards=2)
        store.insert(make_vp(seed=1, minute=0))
        with pytest.raises(ValidationError):
            store.insert(make_vp(seed=1, minute=1))
        assert len(store) == 1

    def test_cross_minute_duplicate_skipped_in_batch(self):
        store = ShardedStore.memory(n_shards=2)
        vps = [make_vp(seed=1, minute=0), make_vp(seed=1, minute=1), make_vp(seed=2, minute=1)]
        assert store.insert_many(vps) == 2
        assert len(store) == 2
        assert store.query(QuerySpec(minute=1)).vps == [vps[2]]

    def test_existing_ids_spans_shards(self):
        store = ShardedStore.memory(n_shards=3)
        vps = [make_vp(seed=i, minute=i) for i in range(3)]
        store.insert_many(vps)
        probe = [vp.vp_id for vp in vps] + [b"\x00" * 16]
        assert store.existing_ids(probe) == {vp.vp_id for vp in vps}

    def test_queries_delegate_to_owning_shard(self):
        store = ShardedStore.memory(n_shards=2)
        near = make_vp(seed=1, minute=3, x0=0.0)
        far = make_vp(seed=2, minute=3, x0=9_000.0)
        store.insert_trusted(near)
        store.insert(far)
        assert store.query(QuerySpec(minute=3)).vps == [near, far]
        assert store.query(QuerySpec(minute=3, area=Rect(-50, -50, 100, 50))).vps == [near]
        assert store.query(QuerySpec(minute=3, trusted_only=True)).vps == [near]
        nearest = QuerySpec(minute=3, trusted_only=True, nearest=Point(0, 0))
        assert store.query(nearest).vps == [near]

    def test_empty_shard_list_rejected(self):
        with pytest.raises(ValidationError):
            ShardedStore([])

    def test_stats_aggregates(self):
        store = ShardedStore.memory(n_shards=2)
        store.insert(make_vp(seed=1, minute=0))
        store.insert_trusted(make_vp(seed=2, minute=1))
        stats = store.stats()
        assert stats.backend == "sharded"
        assert stats.vps == 2
        assert stats.trusted == 1
        assert stats.detail["n_shards"] == 2
        assert sum(stats.detail["shard_vps"]) == 2


class TestSqliteShards:
    def test_sqlite_fleet_persists(self, tmp_path):
        paths = [str(tmp_path / f"shard{i}.sqlite") for i in range(2)]
        store = ShardedStore.sqlite(paths)
        vps = [make_vp(seed=i, minute=i) for i in range(4)]
        store.insert_many(vps)
        store.close()

        reopened = ShardedStore.sqlite(paths)
        assert len(reopened) == 4
        assert reopened.minutes() == [0, 1, 2, 3]
        assert fingerprints(reopened.query(QuerySpec(minute=2)).vps) == fingerprints([vps[2]])
        reopened.close()

    @pytest.mark.parametrize(
        "open_fleet",
        [
            lambda paths: ShardedStore.sqlite(paths, shard_cells=3),
            lambda paths: ProcessShardedStore.sqlite(paths, shard_cells=2),
        ],
        ids=["sharded", "procs"],
    )
    def test_reopened_directory_is_what_the_shards_hold(self, tmp_path, open_fleet):
        # the id directory is rebuilt from the shards on every open, so
        # it cannot remember an evicted id or miss a stored one however
        # many processes wrote in between
        paths = [str(tmp_path / f"shard{i}.sqlite") for i in range(3)]
        old, new = make_vp(seed=1, minute=0), make_vp(seed=2, minute=1, x0=900.0)
        store = open_fleet(paths)
        store.insert(old)
        store.close()

        store = open_fleet(paths)
        assert store.evict_before(old.minute + 1) == 1
        store.insert(new)
        store.close()

        store = open_fleet(paths)
        try:
            assert new.vp_id in store
            assert fingerprints([store.get(new.vp_id)]) == fingerprints([new])
            assert old.vp_id not in store and store.get(old.vp_id) is None
            with pytest.raises(ValidationError):
                store.insert(new)
            assert len(store) == 1
        finally:
            store.close()
