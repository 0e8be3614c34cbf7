"""Zero-copy ingest regression: spans reach the store unmaterialized.

The streaming front-end hands ``insert_encoded`` a read-only
:class:`memoryview` of the connection's receive buffer.  These tests
pin the two halves of the zero-copy contract:

* **counting** — :func:`repro.store.codec.span_copy_count` is the
  process-local materialization ledger.  Single-destination ingest on
  every backend moves **zero** record spans; the sharded router's
  scatter regroup (:func:`join_encoded_records`) is the one legitimate
  copy and is visible on the counter (the positive control proving the
  ledger is live).
* **identity** — a memoryview batch ingests to the same observable
  contents as the equivalent ``bytes`` batch, SQLite's group-commit
  buffer holds the *source* spans (``row.obj is`` the original buffer),
  and the process-worker pipe carries views without pre-flattening.
"""

from __future__ import annotations

import pytest

from repro.store import MemoryStore, ProcessShardedStore, ShardedStore, SQLiteStore
from repro.store.codec import (
    encode_vp,
    encode_vp_batch,
    iter_encoded_records,
    join_encoded_records,
    note_span_copies,
    span_copy_count,
)
from repro.store.serving import QuerySpec
from tests.net.test_wire_frame import make_backend, make_complete_vp


@pytest.fixture(scope="module")
def vp_pool():
    return [make_complete_vp(seed) for seed in range(1, 7)]


def contents(store) -> dict:
    return {
        minute: [
            (vp.vp_id, vp.minute, vp.trusted, encode_vp(vp))
            for vp in store.query(QuerySpec(minute=minute)).vps
        ]
        for minute in store.minutes()
    }


class TestCopyLedger:
    def test_note_and_read(self):
        before = span_copy_count()
        note_span_copies(3)
        assert span_copy_count() - before == 3

    def test_join_encoded_records_is_counted(self, vp_pool):
        batch = encode_vp_batch(vp_pool[:3])
        spans = [(start, end) for _, start, end in iter_encoded_records(batch)]
        before = span_copy_count()
        joined = join_encoded_records(batch, spans)
        assert span_copy_count() - before == 3
        assert joined == batch


class TestZeroCopyIngest:
    @pytest.mark.parametrize("backend", ["memory", "sqlite", "sharded", "procs"])
    def test_single_destination_ingest_moves_no_spans(self, backend, vp_pool):
        # one record per batch has exactly one destination shard, so no
        # regroup happens anywhere on the path — not even on sharded
        with make_backend(backend) as store:
            before = span_copy_count()
            for vp in vp_pool:
                frame = memoryview(encode_vp_batch([vp])).toreadonly()
                assert store.insert_encoded(frame, strict=False) == 1
            assert span_copy_count() == before, "a body span was materialized"
            assert len(store) == len(vp_pool)

    @pytest.mark.parametrize("backend", ["memory", "sqlite", "sharded", "procs"])
    def test_memoryview_and_bytes_ingest_identical(self, backend, vp_pool):
        frame = encode_vp_batch(vp_pool[:4])
        with make_backend(backend) as via_bytes:
            via_bytes.insert_encoded(frame, strict=False)
            expected = contents(via_bytes)
        with make_backend(backend) as via_view:
            via_view.insert_encoded(memoryview(frame).toreadonly(), strict=False)
            assert contents(via_view) == expected

    def test_sharded_scatter_is_the_one_copy(self, vp_pool):
        # a multi-record batch fanning out across shards must regroup —
        # the positive control that the ledger actually observes copies
        with ShardedStore.memory(n_shards=3, shard_cells=3) as store:
            before = span_copy_count()
            inserted = store.insert_encoded(
                memoryview(encode_vp_batch(vp_pool)).toreadonly(), strict=False
            )
            assert inserted == len(vp_pool)
            assert span_copy_count() > before, "scatter regroup went uncounted"


class TestViewPlumbing:
    def test_sqlite_pending_rows_hold_source_spans(self, vp_pool):
        # group commit retains rows between flushes: the retained body
        # must be the span of the caller's buffer, not a copy of it
        frame = encode_vp_batch(vp_pool[:3])
        with SQLiteStore(group_commit_rows=64) as store:
            store.insert_encoded(memoryview(frame).toreadonly(), strict=False)
            rows = list(store._pending.values())
            assert len(rows) == 3
            for row in rows:
                assert isinstance(row[7], memoryview)
                assert row[7].obj is frame
            # the deferred flush binds those spans and reads see them
            got = {vp.vp_id for m in store.minutes() for vp in store.query(QuerySpec(minute=m)).vps}
            assert got == {vp.vp_id for vp in vp_pool[:3]}

    def test_worker_pipe_carries_views(self, vp_pool):
        # the procs proxy ships the frame out-of-band over the pipe as
        # raw bytes — a read-only view must survive the trip verbatim
        frame = encode_vp_batch(vp_pool[:3])
        with ProcessShardedStore.memory(n_workers=2, shard_cells=2) as store:
            assert store.insert_encoded(memoryview(frame).toreadonly()) == 3
            got = {vp.vp_id for m in store.minutes() for vp in store.query(QuerySpec(minute=m)).vps}
            assert got == {vp.vp_id for vp in vp_pool[:3]}

    def test_strict_duplicate_still_clean_on_views(self, vp_pool):
        frame = memoryview(encode_vp_batch([vp_pool[0]])).toreadonly()
        with MemoryStore() as store:
            assert store.insert_encoded(frame, strict=True) == 1
            assert store.insert_encoded(frame, strict=False) == 0
