"""Tests for the persistent SQLite VP store."""

import pytest

from repro.errors import ValidationError, WireFormatError
from repro.geo.geometry import Point, Rect
from repro.store import SQLiteStore, decode_vp, encode_vp
from repro.store.serving import QuerySpec
from tests.store.conftest import fingerprint, fingerprints, make_vp


class TestCodec:
    def test_round_trip_partial_vp(self):
        vp = make_vp(seed=1, n=3)
        restored = decode_vp(encode_vp(vp))
        assert fingerprint(restored) == fingerprint(vp)

    def test_trusted_comes_from_backend_not_blob(self):
        vp = make_vp(seed=2)
        vp.trusted = True
        restored = decode_vp(encode_vp(vp))
        assert not restored.trusted
        assert fingerprint(decode_vp(encode_vp(vp), trusted=True)) == fingerprint(vp)

    def test_malformed_blobs_rejected(self):
        with pytest.raises(WireFormatError):
            decode_vp(b"")
        with pytest.raises(WireFormatError):
            decode_vp(b"\x07" + encode_vp(make_vp(seed=3))[1:])  # bad version
        blob = encode_vp(make_vp(seed=3))
        with pytest.raises(WireFormatError):
            decode_vp(blob[:-300])  # truncated digest block


class TestInsertQuery:
    def test_insert_get_round_trip(self):
        store = SQLiteStore()
        vp = make_vp(seed=1)
        store.insert(vp)
        assert len(store) == 1
        assert vp.vp_id in store
        assert fingerprint(store.get(vp.vp_id)) == fingerprint(vp)
        assert store.get(b"\x00" * 16) is None

    def test_duplicate_rejected(self):
        store = SQLiteStore()
        vp = make_vp(seed=1)
        store.insert(vp)
        with pytest.raises(ValidationError):
            store.insert(make_vp(seed=1))

    def test_queries_preserve_insertion_order(self):
        store = SQLiteStore()
        vps = [make_vp(seed=i, minute=1, x0=50.0 * i) for i in range(6)]
        store.insert_many(vps)
        assert fingerprints(store.query(QuerySpec(minute=1)).vps) == fingerprints(vps)
        area = Rect(-10, -10, 120, 10)
        expected = [vp for vp in vps if vp.positions_array[:, 0].min() <= 120]
        found = store.query(QuerySpec(minute=1, area=area)).vps
        assert fingerprints(found) == fingerprints(expected)

    def test_insert_many_skips_duplicates(self):
        store = SQLiteStore()
        a, b = make_vp(seed=1), make_vp(seed=2)
        store.insert(a)
        assert store.insert_many([a, b, b]) == 1
        assert len(store) == 2

    def test_trusted_flag_and_nearest(self):
        store = SQLiteStore()
        near = make_vp(seed=3, x0=0.0)
        far = make_vp(seed=4, x0=4000.0)
        store.insert_trusted(far)
        store.insert_trusted(near)
        store.insert(make_vp(seed=5, x0=1.0))  # anonymous, must not appear
        trusted = store.query(QuerySpec(minute=0, trusted_only=True)).vps
        assert fingerprints(trusted) == fingerprints([far, near])
        best = store.query(QuerySpec(minute=0, trusted_only=True, nearest=Point(0, 0), k=1)).vps
        assert fingerprints(best) == fingerprints([near])


class TestPersistence:
    def test_survives_close_and_reopen(self, tmp_path):
        path = str(tmp_path / "vps.sqlite")
        store = SQLiteStore(path)
        vps = [make_vp(seed=i, minute=i % 2, x0=100.0 * i) for i in range(8)]
        store.insert_many(vps)
        sentinel = make_vp(seed=99, minute=0)
        store.insert_trusted(sentinel)
        expected_m0 = fingerprints(store.query(QuerySpec(minute=0)).vps)
        store.close()

        reopened = SQLiteStore(path)
        assert len(reopened) == 9
        assert reopened.minutes() == [0, 1]
        assert fingerprints(reopened.query(QuerySpec(minute=0)).vps) == expected_m0
        assert len(reopened.query(QuerySpec(minute=0, trusted_only=True)).vps) == 1
        from repro.store.base import vp_claims_in_area

        area = Rect(-10, -10, 250, 10)
        expected = [
            vp
            for vp in vps + [sentinel]
            if vp.minute == 0 and vp_claims_in_area(vp, area)
        ]
        found = reopened.query(QuerySpec(minute=0, area=area)).vps
        assert fingerprints(found) == fingerprints(expected)
        reopened.close()

    def test_stats(self):
        store = SQLiteStore()
        store.insert(make_vp(seed=1))
        stats = store.stats()
        assert stats.backend == "sqlite"
        assert stats.vps == 1
        assert stats.detail["path"] == ":memory:"


class TestGroupCommit:
    def test_writes_group_until_threshold(self):
        store = SQLiteStore(group_commit_rows=4, group_commit_latency_s=5.0)
        assert store.insert_many([make_vp(seed=1), make_vp(seed=2)]) == 2
        assert len(store._pending) == 2  # grouped, not yet committed
        assert store.insert_many([make_vp(seed=3), make_vp(seed=4)]) == 2
        assert not store._pending  # threshold crossed: one commit, 4 rows
        detail = store.stats().detail["group_commit"]
        assert detail["commits"] == 1 and detail["grouped_rows"] == 4
        store.close()

    def test_duplicate_checks_see_pending_rows_without_flush(self):
        store = SQLiteStore(group_commit_rows=100, group_commit_latency_s=5.0)
        vp = make_vp(seed=1)
        store.insert(vp)
        assert store._pending
        # the batch-upload probe path: no flush, duplicates still caught
        assert store.existing_ids([vp.vp_id, b"\x00" * 16]) == {vp.vp_id}
        assert vp.vp_id in store
        assert store._pending  # probes did not force a commit
        with pytest.raises(ValidationError):
            store.insert(make_vp(seed=1))
        assert store.insert_many([make_vp(seed=1), make_vp(seed=2)]) == 1
        store.close()

    def test_reads_flush_first(self):
        store = SQLiteStore(group_commit_rows=100, group_commit_latency_s=5.0)
        vps = [make_vp(seed=i + 1, minute=0, x0=60.0 * i) for i in range(3)]
        store.insert_many(vps)
        assert store._pending
        assert fingerprints(store.query(QuerySpec(minute=0)).vps) == fingerprints(vps)
        assert not store._pending  # read-your-writes forced the group down
        store.close()

    def test_close_flushes_durably(self, tmp_path):
        path = str(tmp_path / "grouped.sqlite")
        store = SQLiteStore(path, group_commit_rows=100, group_commit_latency_s=5.0)
        store.insert_many([make_vp(seed=1), make_vp(seed=2)])
        assert store._pending
        store.close()
        with SQLiteStore(path) as reopened:
            assert len(reopened) == 2

    def test_eviction_flushes_and_counts_pending_rows(self):
        store = SQLiteStore(group_commit_rows=100, group_commit_latency_s=5.0)
        store.insert_many([make_vp(seed=i + 1, minute=i % 2, x0=70.0 * i) for i in range(4)])
        assert store.evict_before(1) == 2
        assert store.minutes() == [1]
        store.close()

    def test_flush_if_due_enforces_latency_bound(self):
        import time

        store = SQLiteStore(group_commit_rows=100, group_commit_latency_s=0.01)
        store.insert(make_vp(seed=1))
        if store._pending:  # the enqueue itself may have hit the deadline
            time.sleep(0.02)
            assert store.flush_if_due()
        assert not store._pending
        assert not store.flush_if_due()  # nothing pending: a no-op
        store.close()

    def test_knob_validation(self):
        with pytest.raises(ValidationError):
            SQLiteStore(group_commit_rows=-1)
        with pytest.raises(ValidationError):
            SQLiteStore(commit_latency_s=-0.1)
