"""Zero-copy ingest regression: spans reach the store unmaterialized.

The streaming front-end hands ``insert_encoded`` a read-only
:class:`memoryview` of the connection's receive buffer.  These tests
pin the two halves of the zero-copy contract:

* **counting** — :func:`repro.store.codec.span_copy_count` is the
  process-local materialization ledger.  Ingest on either placement
  moves **zero** record spans; :func:`note_span_copies` moving it is
  the positive control proving the ledger is live.
* **identity** — a memoryview batch ingests to the same observable
  contents as the equivalent ``bytes`` batch, the segment log appends
  the *source* spans (``span.obj is`` the original buffer).
"""

from __future__ import annotations

import pytest

from repro.store import make_store
from repro.store.codec import (
    Batch,
    encode_vp,
    encode_vp_batch,
    note_span_copies,
    span_copy_count,
)
from repro.store.serving import QuerySpec
from tests.net.test_wire_frame import make_complete_vp
from tests.store.conftest import build_store


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


class TestZeroCopyIngest:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_ingest_moves_no_spans(self, backend, vp_pool):
        with build_store(backend) as store:
            before = span_copy_count()
            for vp in vp_pool:
                frame = memoryview(encode_vp_batch([vp])).toreadonly()
                assert store.insert_encoded(frame, strict=False) == 1
            assert span_copy_count() == before, "a body span was materialized"
            assert len(store) == len(vp_pool)

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_memoryview_and_bytes_ingest_identical(self, backend, vp_pool):
        frame = encode_vp_batch(vp_pool[:4])
        with build_store(backend) as via_bytes:
            via_bytes.insert_encoded(frame, strict=False)
            expected = contents(via_bytes)
        with build_store(backend) as via_view:
            via_view.insert_encoded(memoryview(frame).toreadonly(), strict=False)
            assert contents(via_view) == expected


class TestViewPlumbing:
    def test_log_appends_source_spans(self, vp_pool):
        # the log's one writev is fed the record spans of the caller's
        # buffer: each is a view of it, not a copy
        frame = encode_vp_batch(vp_pool[:3])
        batch = Batch.from_frame(memoryview(frame).toreadonly())
        spans = [batch.record_span(i) for i in range(len(batch))]
        assert len(spans) == 3
        for span in spans:
            assert isinstance(span, memoryview)
            assert span.obj is frame
        with make_store("memory") as store:
            assert store.write(batch) == [0, 1, 2]
            got = {vp.vp_id for m in store.minutes() for vp in store.query(QuerySpec(minute=m)).vps}
            assert got == {vp.vp_id for vp in vp_pool[:3]}

    def test_strict_duplicate_still_clean_on_views(self, vp_pool):
        frame = memoryview(encode_vp_batch([vp_pool[0]])).toreadonly()
        with make_store("memory") as store:
            assert store.insert_encoded(frame, strict=True) == 1
            assert store.insert_encoded(frame, strict=False) == 0
