"""File-level behaviour of the minute-segment log.

``test_read_state_machine.py`` holds the engine to the read contract
in both placements (volatile, named); here is what that machine cannot
express: torn and short writes, a reader racing eviction, what the
files look like, and what an ack is worth when the writing process
dies.
"""

from __future__ import annotations

import errno
import gc
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
import warnings
import zlib

import pytest

from repro.constants import VP_ID_BYTES
from repro.errors import StorageError, ValidationError, WireFormatError
from repro.store import QuerySpec, SegmentStore, encode_vp_batch
from repro.store.codec import (
    FRAME_HEADER_BYTES,
    RECORD_BYTES,
    RECORD_DTYPE,
    RECORD_ID_MISMATCH,
    RECORD_OVERHEAD_BYTES,
    Batch,
    encode_vp,
)
from repro.store.segments import _HEADER
from tests.store.conftest import (
    STORE_PLACEMENTS,
    build_store,
    insert_trusted_vp,
    insert_vp,
    insert_vps,
    make_vp,
)

HEADER = _HEADER.size


def stored_size(vp) -> int:
    """Bytes one VP occupies in its segment: header + wire record."""
    return HEADER + RECORD_OVERHEAD_BYTES + len(encode_vp(vp))


def ids_of(store, minute):
    return [vp.vp_id for vp in store.query(QuerySpec(minute=minute)).vps]


def files_of(path):
    directory, base = os.path.split(path)
    return sorted(n for n in os.listdir(directory) if n.startswith(base + "."))


@pytest.fixture
def seeded(tmp_path):
    """A closed store: minute 0 and minute 1 hold three VPs each."""
    path = str(tmp_path / "origin" / "log")
    os.mkdir(tmp_path / "origin")
    vps = {m: [make_vp(seed=10 * m + i + 1, n=2, minute=m) for i in range(3)] for m in (0, 1)}
    with SegmentStore(path) as store:
        for minute_vps in vps.values():
            assert insert_vps(store, minute_vps) == 3
    return path, vps


def reopen_copy(path, tmp_path, name, damage):
    """Copy the store's files aside, ``damage`` the last segment, reopen."""
    target = tmp_path / name
    shutil.copytree(os.path.dirname(path), target)
    copy = str(target / "log")
    segment = copy + ".00000001.seg"
    damage(segment)
    return SegmentStore(copy), segment


def cuts_inside(size: int) -> list[int]:
    """Offsets to cut a stored record of ``size`` bytes at: every byte of
    its header and of the record head, each ``RECORD_DTYPE`` field
    boundary and its neighbours, the last byte, and a fixed sample of
    64 body offsets."""
    head = HEADER + RECORD_OVERHEAD_BYTES
    bounds = [HEADER + RECORD_DTYPE.fields[name][1] for name in RECORD_DTYPE.names]
    cuts = {*range(head + 1), *(at + d for at in bounds for d in (-1, 0, 1)), size - 1}
    cuts.update(random.Random(0).sample(range(head, size), 64))
    return sorted(cut for cut in cuts if 0 <= cut < size)


class TestTornTail:
    def test_every_cut_inside_the_final_record(self, seeded, tmp_path):
        path, vps = seeded
        sizes = [stored_size(vp) for vp in vps[1]]
        start = sum(sizes[:2])
        for cut in (start + inside for inside in cuts_inside(sizes[2])):
            store, segment = reopen_copy(
                path, tmp_path, f"cut{cut}", lambda seg: os.truncate(seg, cut)
            )
            with store:
                assert ids_of(store, 1) == [vp.vp_id for vp in vps[1][:2]], cut
                assert ids_of(store, 0) == [vp.vp_id for vp in vps[0]], cut
                assert os.path.getsize(segment) == start, cut
                # the un-acked VP may be sent again, and lands whole
                insert_vp(store, vps[1][2])
            with SegmentStore(segment[: -len(".00000001.seg")]) as store:
                assert ids_of(store, 1) == [vp.vp_id for vp in vps[1]], cut
            shutil.rmtree(tmp_path / f"cut{cut}")

    @pytest.mark.parametrize("kept", [0, RECORD_OVERHEAD_BYTES, RECORD_BYTES - 1])
    def test_a_short_final_record_is_torn_whatever_its_crc(self, seeded, tmp_path, kept):
        # a header naming one whole stride over the ``kept`` bytes that
        # follow it, with their CRC: the read came up short, so it is cut
        path, vps = seeded
        start = sum(stored_size(vp) for vp in vps[1][:2])

        def forge(segment):
            with open(segment, "r+b") as fh:
                fh.seek(start + HEADER)
                kept_bytes = fh.read(kept)
                fh.seek(start)
                fh.write(_HEADER.pack(RECORD_BYTES, zlib.crc32(kept_bytes)))
            os.truncate(segment, start + HEADER + kept)

        store, segment = reopen_copy(path, tmp_path, "short", forge)
        with store:
            assert ids_of(store, 1) == [vp.vp_id for vp in vps[1][:2]]
            assert os.path.getsize(segment) == start

    @pytest.mark.parametrize("record, inside", [(0, 5), (1, 1), (1, 200), (1, HEADER)])
    def test_cuts_inside_earlier_records(self, seeded, tmp_path, record, inside):
        path, vps = seeded
        sizes = [stored_size(vp) for vp in vps[1]]
        start = sum(sizes[:record])
        store, segment = reopen_copy(
            path, tmp_path, "early", lambda seg: os.truncate(seg, start + inside)
        )
        with store:
            assert ids_of(store, 1) == [vp.vp_id for vp in vps[1][:record]]
            assert store.minutes() == ([0, 1] if record else [0])
        # a segment left without a record is removed, not kept empty
        assert os.path.exists(segment) == bool(record)
        if record:
            assert os.path.getsize(segment) == start

    @pytest.mark.parametrize("record", [1, 2])
    def test_flipped_body_byte_fails_the_crc(self, seeded, tmp_path, record):
        path, vps = seeded
        sizes = [stored_size(vp) for vp in vps[1]]
        start = sum(sizes[:record])

        def flip(segment):
            with open(segment, "r+b") as fh:
                fh.seek(start + HEADER + RECORD_OVERHEAD_BYTES + 40)
                byte = fh.read(1)
                fh.seek(-1, os.SEEK_CUR)
                fh.write(bytes([byte[0] ^ 0x01]))

        store, segment = reopen_copy(path, tmp_path, "flip", flip)
        with store:
            # the first bad record ends the segment, valid or not after it
            assert ids_of(store, 1) == [vp.vp_id for vp in vps[1][:record]]
            assert os.path.getsize(segment) == start

    def test_zero_filled_tail_is_cut_off(self, seeded, tmp_path):
        path, vps = seeded

        def pad(segment):
            with open(segment, "ab") as fh:
                fh.write(bytes(64))

        store, segment = reopen_copy(path, tmp_path, "zeros", pad)
        with store:
            assert ids_of(store, 1) == [vp.vp_id for vp in vps[1]]
            assert os.path.getsize(segment) == sum(stored_size(vp) for vp in vps[1])


class TestReopen:
    def test_insertion_order_and_duplicate_rejection_survive(self, seeded):
        path, vps = seeded
        late = make_vp(seed=99, n=2, minute=0)
        with SegmentStore(path) as store:
            for minute, minute_vps in vps.items():
                assert ids_of(store, minute) == [vp.vp_id for vp in minute_vps]
            assert len(store) == 6
            with pytest.raises(ValidationError):
                insert_vp(store, vps[0][1])  # strict: raises, lands nothing
            with pytest.raises(ValidationError):
                store.insert_encoded(encode_vp_batch([late, vps[1][0]]), strict=True)
            assert late.vp_id not in store and len(store) == 6
            # non-strict: the duplicate is skipped, the fresh one appended last
            assert insert_vps(store, [vps[0][2], late, vps[0][0]]) == 1
        with SegmentStore(path) as store:
            assert ids_of(store, 0) == [vp.vp_id for vp in vps[0]] + [late.vp_id]
            assert insert_vps(store, [late]) == 0

    def test_keep_trusted_eviction_keeps_the_trusted_in_order(self, tmp_path):
        path = str(tmp_path / "log")
        vps = [make_vp(seed=i + 1, n=2, minute=0) for i in range(6)]
        trusted = [vps[1], vps[3], vps[4]]
        with SegmentStore(path) as store:
            for vp in vps:
                (insert_trusted_vp if vp in trusted else insert_vp)(store, vp)
            insert_vp(store, make_vp(seed=50, n=2, minute=1))
            assert store.evict_before(2, keep_trusted=True) == 4
            assert ids_of(store, 0) == [vp.vp_id for vp in trusted]
            assert files_of(path) == ["log.00000000.seg", "log.00000002.cut"]
        with SegmentStore(path) as store:
            survivors = store.query(QuerySpec(minute=0)).vps
            assert [vp.vp_id for vp in survivors] == [vp.vp_id for vp in trusted]
            assert all(vp.trusted for vp in survivors)
            assert store.minutes() == [0]
            # an evicted id is free again; a surviving one is still taken
            assert insert_vps(store, [vps[0], vps[1]]) == 1
            assert store.cutoff == 2  # read back from the marker
            assert store.evict_before(1) == 4
        assert files_of(path) == ["log.00000002.cut"]  # a lower cutoff does not move it

    def test_the_cutoff_is_one_empty_marker_renamed_forward(self, tmp_path):
        # a retention pass at a young watermark asks for a negative cutoff;
        # the marker must name it too, or a restart forgets the pass
        path = str(tmp_path / "log")
        with SegmentStore(path) as store:
            insert_vp(store, make_vp(seed=1, minute=3))
            assert store.cutoff is None and files_of(path) == ["log.00000003.seg"]
            assert store.evict_before(-4) == 0
            assert files_of(path) == ["log.-0000004.cut", "log.00000003.seg"]
        for cutoff, expect in ((2, 2), (1, 2), (5, 5)):
            with SegmentStore(path) as store:
                assert store.cutoff in (-4, 2, 5)
                store.evict_before(cutoff)
                assert store.cutoff == expect  # monotonic: a lower cutoff is ignored
            assert [n for n in files_of(path) if n.endswith(".cut")] == [f"log.{expect:08d}.cut"]
        assert files_of(path) == ["log.00000005.cut"]
        with SegmentStore(path) as store:
            assert store.cutoff == 5 and len(store) == 0
        with SegmentStore() as anonymous:  # kept in memory, no file named
            anonymous.evict_before(7)
            assert anonymous.cutoff == 7

    @pytest.mark.parametrize("acked", [0, 2])
    def test_a_whole_record_of_another_layout_refuses_the_store(self, tmp_path, acked):
        # a CRC-good record in the length-prefixed layout the one stride
        # replaced — a 4-digest VP without its empty slots — behind
        # ``acked`` records: the store refuses to open and truncates
        # nothing, so no acked record is lost to a layout change
        path = str(tmp_path / "log")
        with SegmentStore(path) as store:
            insert_vps(store, [make_vp(seed=i + 1, n=60) for i in range(acked)])
        record = encode_vp_batch([make_vp(seed=9, n=4)])[FRAME_HEADER_BYTES:]
        slots = RECORD_OVERHEAD_BYTES + 7
        old = bytearray(record[: slots + 4 * 72] + record[slots + 60 * 72 :])
        body_len = len(old) - RECORD_OVERHEAD_BYTES  # 7 + 4 x 72 + 256, the old body
        old[RECORD_OVERHEAD_BYTES - 4 : RECORD_OVERHEAD_BYTES] = body_len.to_bytes(4, "big")
        segment = path + ".00000000.seg"
        with open(segment, "ab") as fh:
            fh.write(_HEADER.pack(len(old), zlib.crc32(old)) + old)
        with open(segment, "rb") as fh:
            before = fh.read()
        with pytest.raises(StorageError, match=f"holds a {len(old)}-byte record"):
            SegmentStore(path)
        with open(segment, "rb") as fh:
            assert fh.read() == before

    def test_a_whole_record_of_a_head_alone_refuses_the_store(self, tmp_path):
        # the shortest length the scan reads as a record rather than a
        # torn tail: CRC-good and of another length, so another layout
        path = str(tmp_path / "log")
        head = bytes(RECORD_OVERHEAD_BYTES)
        with open(path + ".00000000.seg", "wb") as fh:
            fh.write(_HEADER.pack(len(head), zlib.crc32(head)) + head)
        with pytest.raises(StorageError, match=f"holds a {len(head)}-byte record"):
            SegmentStore(path)

    def test_a_rewrite_that_never_renamed_is_discarded(self, seeded):
        path, vps = seeded
        stale = path + ".00000000.seg.tmp"
        with open(stale, "wb") as fh:
            fh.write(b"half a rewrite")
        with SegmentStore(path) as store:
            assert ids_of(store, 0) == [vp.vp_id for vp in vps[0]]
        assert not os.path.exists(stale)


class TestFiles:
    def test_names_and_the_stored_bytes_identity(self, tmp_path):
        # what ``stored_bytes_per_vp`` rests on: flat regular files named
        # from the path, whose sizes sum to live records x (record + 8)
        path = str(tmp_path / "db")
        (tmp_path / "db.sibling.00000000.seg").write_bytes(b"someone else's")
        vps = [make_vp(seed=i + 1, n=1 + i % 3, minute=i % 4) for i in range(24)]
        store = SegmentStore(path)
        insert_vps(store, vps)
        insert_trusted_vp(store, make_vp(seed=77, n=2, minute=0))
        assert store.evict_before(2) == 13
        store.close()
        names = files_of(path)
        assert names == [
            "db.00000002.cut",
            "db.00000002.seg",
            "db.00000003.seg",
            "db.sibling.00000000.seg",
        ]
        ours = names[:3]
        assert os.path.getsize(tmp_path / ours[0]) == 0  # the cutoff marker is empty
        live = [vp for vp in vps if vp.minute >= 2]
        for name in ours:
            assert os.path.isfile(tmp_path / name) and not os.path.islink(tmp_path / name)
        assert sum(os.path.getsize(tmp_path / n) for n in ours) == sum(
            stored_size(vp) for vp in live
        )
        assert not os.path.exists(path)  # nothing is created at the path itself
        with SegmentStore(path) as store:  # a sibling's files are not ours to scan
            assert len(store) == len(live)

    def test_a_sqlite_database_is_refused_not_migrated(self, tmp_path):
        import sqlite3

        path = str(tmp_path / "old.sqlite")
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE vps (vp_id BLOB)")
        conn.commit()
        conn.close()
        with pytest.raises(StorageError, match="no migration"):
            SegmentStore(path)

    def test_unopenable_path_and_closed_store_raise_storage_error(self, tmp_path):
        with pytest.raises(StorageError):
            SegmentStore(str(tmp_path / "no-such-dir" / "log"))
        store = SegmentStore(str(tmp_path / "log"))
        store.close()
        store.close()  # idempotent
        for call in (
            lambda: insert_vp(store, make_vp()),
            lambda: store.query_encoded(QuerySpec(minute=0)),
            lambda: store.evict_before(1),
        ):
            with pytest.raises(StorageError):
                call()

    def test_pathless_store_leaves_nothing_behind(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", None)
        with SegmentStore() as store:
            insert_vps(store, [make_vp(seed=i + 1, minute=i % 2) for i in range(4)])
            assert len(store) == 4
            assert os.listdir(tmp_path) == []  # anonymous: never had a name


class TestShortWrite:
    def test_a_short_second_chunk_leaves_the_minute_as_it_was(self, tmp_path, monkeypatch):
        # an object batch is framed and written 256 records per writev;
        # a short second writev must cut the first chunk off again and
        # publish nothing, so the batch stays atomic per minute
        path = str(tmp_path / "log")
        segment = path + ".00000000.seg"
        before = [make_vp(seed=i + 1, n=1, minute=0) for i in range(3)]
        batch = [make_vp(seed=100 + i, n=1, minute=0) for i in range(300)]
        store = SegmentStore(path)
        insert_vps(store, before)
        size = os.path.getsize(segment)
        real_writev, calls = os.writev, []

        def short_second(fd, parts):
            calls.append(len(parts) // 2)
            written = real_writev(fd, parts)
            return written - 1 if len(calls) == 2 else written

        monkeypatch.setattr(os, "writev", short_second)
        with pytest.raises(StorageError, match="short write"):
            insert_vps(store, batch)
        monkeypatch.undo()
        assert calls == [256, 44]
        assert os.path.getsize(segment) == size
        assert ids_of(store, 0) == [vp.vp_id for vp in before]
        assert len(store) == 3 and not any(vp.vp_id in store for vp in batch)
        assert insert_vps(store, batch) == 300  # appends where the minute ended
        store.close()
        with SegmentStore(path) as reopened:
            assert ids_of(reopened, 0) == [vp.vp_id for vp in before + batch]

    @pytest.mark.parametrize("failing", [1, 3], ids=["first-chunk", "last-chunk"])
    def test_a_failed_chunk_leaves_the_minute_as_it_was(self, tmp_path, monkeypatch, failing):
        # 600 records are three writevs (256, 256, 88); any one failing
        # must take the whole minute's append back
        path = str(tmp_path / "log")
        segment = path + ".00000000.seg"
        before = [make_vp(seed=i + 1, n=1, minute=0) for i in range(2)]
        batch = [make_vp(seed=100 + i, n=1, minute=0) for i in range(600)]
        store = SegmentStore(path)
        insert_vps(store, before)
        size = os.path.getsize(segment)
        real_writev, calls = os.writev, []

        def fail_one(fd, parts):
            calls.append(len(parts) // 2)
            if len(calls) == failing:
                raise OSError(errno.ENOSPC, "no space left on device")
            return real_writev(fd, parts)

        monkeypatch.setattr(os, "writev", fail_one)
        with pytest.raises(StorageError, match="no space"):
            insert_vps(store, batch)
        monkeypatch.undo()
        assert calls == [256, 256, 88][:failing]
        assert os.path.getsize(segment) == size
        assert ids_of(store, 0) == [vp.vp_id for vp in before] and len(store) == 2
        assert store.query(QuerySpec(minute=0, count=True)).n == 2
        store.close()
        with SegmentStore(path) as reopened:
            assert ids_of(reopened, 0) == [vp.vp_id for vp in before]

    def test_an_encode_error_mid_batch_is_truncated_and_raised(self, tmp_path, monkeypatch):
        # a record that cannot be framed is not a storage fault: the
        # error surfaces as it is, after the chunks before it are cut off
        path = str(tmp_path / "log")
        segment = path + ".00000000.seg"
        store = SegmentStore(path)
        insert_vp(store, make_vp(seed=1, n=1))
        size = os.path.getsize(segment)
        real_span = Batch.record_span

        def broken_span(batch, index):
            if index == 300:
                raise ValueError("cannot frame record 300")
            return real_span(batch, index)

        monkeypatch.setattr(Batch, "record_span", broken_span)
        with pytest.raises(ValueError, match="record 300"):
            insert_vps(store, [make_vp(seed=100 + i, n=1) for i in range(400)])
        monkeypatch.undo()
        assert os.path.getsize(segment) == size and len(store) == 1
        insert_vp(store, make_vp(seed=2, n=1))  # the append handle is where the minute ends
        store.close()
        with SegmentStore(path) as reopened:
            assert len(reopened) == 2

    def test_a_failed_later_minute_keeps_the_earlier_ones(self, tmp_path, monkeypatch):
        # atomic per minute, not per batch: minute 0 was written and
        # published before minute 1's append failed
        path = str(tmp_path / "log")
        early = [make_vp(seed=i + 1, n=1, minute=0) for i in range(3)]
        late = [make_vp(seed=10 + i, n=1, minute=1) for i in range(3)]
        store = SegmentStore(path)
        real_writev, calls = os.writev, []

        def fail_second(fd, parts):
            calls.append(fd)
            if len(calls) == 2:
                raise OSError(errno.EIO, "input/output error")
            return real_writev(fd, parts)

        # the failed minute's descriptor is closed, not left to a
        # finalizer: an unclosed-file warning is an error here
        unraisable: list = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        monkeypatch.setattr(os, "writev", fail_second)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(StorageError):
                insert_vps(store, early + late)
            gc.collect()
        monkeypatch.undo()
        assert unraisable == []
        assert not os.path.exists(f"{path}.00000001.seg")  # and no empty file stays
        assert ids_of(store, 0) == [vp.vp_id for vp in early]
        assert ids_of(store, 1) == [] and store.minutes() == [0]
        assert store.query(QuerySpec(minute=0, count=True)).n == 3
        assert insert_vps(store, early + late) == 3  # the rest lands on a retry
        store.close()
        with SegmentStore(path) as reopened:
            assert ids_of(reopened, 1) == [vp.vp_id for vp in late]


class TestChunkedAppend:
    @pytest.mark.parametrize("n", [255, 256, 257, 513])
    def test_an_object_batch_spans_writev_chunks(self, tmp_path, monkeypatch, n):
        path = str(tmp_path / "log")
        vps = [make_vp(seed=i + 1, n=1, minute=0) for i in range(n)]
        real_writev, calls = os.writev, []

        def counting(fd, parts):
            calls.append(len(parts) // 2)
            return real_writev(fd, parts)

        monkeypatch.setattr(os, "writev", counting)
        with SegmentStore(path) as store:
            assert insert_vps(store, vps) == n
            # records are stored as framed: the read is the batch's frame
            assert store.query_encoded(QuerySpec(minute=0)) == encode_vp_batch(vps)
        monkeypatch.undo()
        assert calls == [256] * (n // 256) + ([n % 256] if n % 256 else [])
        segment = path + ".00000000.seg"
        assert os.path.getsize(segment) == sum(stored_size(vp) for vp in vps)
        with SegmentStore(path) as reopened:
            assert ids_of(reopened, 0) == [vp.vp_id for vp in vps]

    def test_a_frame_spans_writev_chunks(self, tmp_path, monkeypatch):
        path = str(tmp_path / "log")
        vps = [make_vp(seed=i + 1, n=1, minute=0) for i in range(257)]
        frame = encode_vp_batch(vps)
        real_writev, calls = os.writev, []

        def counting(fd, parts):
            calls.append(len(parts) // 2)
            return real_writev(fd, parts)

        monkeypatch.setattr(os, "writev", counting)
        with SegmentStore(path) as store:
            assert store.insert_encoded(memoryview(frame).toreadonly()) == 257
            assert store.query_encoded(QuerySpec(minute=0)) == frame
        monkeypatch.undo()
        assert calls == [256, 1]


@pytest.mark.parametrize("placement", STORE_PLACEMENTS)
def test_a_record_keyed_apart_from_its_body_is_refused_by_every_read(placement):
    # the storage path takes frames the upload validator already passed,
    # so a record whose head id is not its body's can only be planted;
    # a read by that head id must refuse it as a query does
    frame = bytearray(encode_vp_batch([make_vp(seed=41)]))
    id_at = FRAME_HEADER_BYTES + RECORD_OVERHEAD_BYTES - 4 - VP_ID_BYTES
    frame[id_at] ^= 0xFF
    head_id = bytes(frame[id_at : id_at + VP_ID_BYTES])
    with build_store(placement) as store:
        assert store.insert_encoded(bytes(frame)) == 1
        with pytest.raises(WireFormatError) as by_get:
            store.get(head_id)
        with pytest.raises(WireFormatError) as by_query:
            store.query(QuerySpec(minute=0))
    assert str(by_get.value) == str(by_query.value) == RECORD_ID_MISMATCH


@pytest.mark.parametrize("keep_trusted", [False, True])
def test_a_read_racing_eviction_is_whole_or_empty(tmp_path, keep_trusted):
    """Two threads: ``query_encoded`` of a minute while it is evicted.

    Every reply is the complete pre-eviction frame or the complete
    post-eviction one — never a partial frame, never ``EBADF``.
    """
    vps = [make_vp(seed=i + 1, n=2, minute=0) for i in range(40)]
    trusted = vps[::7] if keep_trusted else []
    for vp in trusted:
        vp.trusted = True  # travels in the batch metadata
    before = encode_vp_batch(vps)
    after = encode_vp_batch(trusted)
    store = SegmentStore(str(tmp_path / "log"))
    spec = QuerySpec(minute=0)
    replies, errors = [], []
    stop = threading.Event()

    def read():
        try:
            while not stop.is_set():
                replies.append(store.query_encoded(spec))
        except BaseException as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        deadline = time.monotonic() + 20.0
        for _ in range(25):
            assert insert_vps(store, vps) == len(vps)
            assert store.query_encoded(spec) == before
            stop.clear()
            reader = threading.Thread(target=read)
            reader.start()
            while not replies and time.monotonic() < deadline:
                time.sleep(0)  # the reader is in its loop before the evict
            evicted = store.evict_before(1, keep_trusted=keep_trusted)
            stop.set()
            reader.join(timeout=10.0)
            assert not reader.is_alive()
            assert evicted == len(vps) - len(trusted)
            assert not errors, errors
            assert set(replies) <= {before, after}
            assert store.query_encoded(spec) == after
            replies.clear()
            store.evict_before(1)  # the pinned ones too: next round starts empty
    finally:
        sys.setswitchinterval(interval)
        store.close()


def test_ack_means_stored_when_the_writer_is_killed(tmp_path):
    """``SegmentStore(path)``: every acked id survives ``SIGKILL``.

    A write returns once the records were handed to the kernel; there
    is no buffer in the writing process for the ack to run ahead of.
    """
    path = str(tmp_path / "log")
    script = f"""
import os, signal, sys
from repro.sim.stream import stream_vp
from repro.store import SegmentStore, encode_vp_batch
store = SegmentStore({path!r})
for f in range(12):
    vps = [stream_vp(7, f % 3, 8 * f + i, 3000.0) for i in range(8)]
    assert store.insert_encoded(encode_vp_batch(vps)) == 8
    print(*(vp.vp_id.hex() for vp in vps), flush=True)
os.kill(os.getpid(), signal.SIGKILL)  # no close, no goodbye
"""
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == -signal.SIGKILL, done.stderr
    acked = [bytes.fromhex(token) for token in done.stdout.split()]
    assert len(acked) == 96
    with SegmentStore(path) as reopened:
        assert sorted(vp_id for vp_id, _m in reopened.iter_id_minutes()) == sorted(acked)
        assert len(reopened) == len(acked)
