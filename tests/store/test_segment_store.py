"""File-level behaviour of the minute-segment log.

``test_read_state_machine.py`` holds the engine to the read contract
(three configurations of it, beside the kept ``SQLiteStore`` oracle);
here is what that machine cannot express: torn writes, a reader racing
eviction, what the files look like, and what an ack is worth when a
worker process dies.
"""

from __future__ import annotations

import os
import shutil
import signal
import sys
import threading
import time

import pytest

from repro.errors import StorageError, ValidationError
from repro.store import QuerySpec, SegmentStore, encode_vp_batch, make_store
from repro.store.codec import RECORD_OVERHEAD_BYTES, encode_vp
from repro.store.segments import _HEADER
from tests.store.conftest import make_vp

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
            assert store.insert_many(minute_vps) == 3
    return path, vps


def reopen_copy(path, tmp_path, name, damage):
    """Copy the store's files aside, ``damage`` the last segment, reopen."""
    target = tmp_path / name
    shutil.copytree(os.path.dirname(path), target)
    copy = str(target / "log")
    segment = copy + ".00000001.seg"
    damage(segment)
    return SegmentStore(copy), segment


class TestTornTail:
    def test_every_cut_inside_the_final_record(self, seeded, tmp_path):
        path, vps = seeded
        sizes = [stored_size(vp) for vp in vps[1]]
        start = sum(sizes[:2])
        for cut in range(start, start + sizes[2]):
            store, segment = reopen_copy(
                path, tmp_path, f"cut{cut}", lambda seg: os.truncate(seg, cut)
            )
            with store:
                assert ids_of(store, 1) == [vp.vp_id for vp in vps[1][:2]], cut
                assert ids_of(store, 0) == [vp.vp_id for vp in vps[0]], cut
                assert os.path.getsize(segment) == start, cut
                # the un-acked VP may be sent again, and lands whole
                store.insert(vps[1][2])
            with SegmentStore(segment[: -len(".00000001.seg")]) as store:
                assert ids_of(store, 1) == [vp.vp_id for vp in vps[1]], cut
            shutil.rmtree(tmp_path / f"cut{cut}")

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
                store.insert(vps[0][1])  # strict: raises, lands nothing
            with pytest.raises(ValidationError):
                store.insert_encoded(encode_vp_batch([late, vps[1][0]]), strict=True)
            assert late.vp_id not in store and len(store) == 6
            # non-strict: the duplicate is skipped, the fresh one appended last
            assert store.insert_many([vps[0][2], late, vps[0][0]]) == 1
        with SegmentStore(path) as store:
            assert ids_of(store, 0) == [vp.vp_id for vp in vps[0]] + [late.vp_id]
            assert store.insert_many([late]) == 0

    def test_keep_trusted_eviction_keeps_the_trusted_in_order(self, tmp_path):
        path = str(tmp_path / "log")
        vps = [make_vp(seed=i + 1, n=2, minute=0) for i in range(6)]
        trusted = [vps[1], vps[3], vps[4]]
        with SegmentStore(path) as store:
            for vp in vps:
                (store.insert_trusted if vp in trusted else store.insert)(vp)
            store.insert(make_vp(seed=50, n=2, minute=1))
            assert store.evict_before(2, keep_trusted=True) == 4
            assert ids_of(store, 0) == [vp.vp_id for vp in trusted]
            assert files_of(path) == ["log.00000000.seg"]
        with SegmentStore(path) as store:
            survivors = store.query(QuerySpec(minute=0)).vps
            assert [vp.vp_id for vp in survivors] == [vp.vp_id for vp in trusted]
            assert all(vp.trusted for vp in survivors)
            assert store.minutes() == [0]
            # an evicted id is free again; a surviving one is still taken
            assert store.insert_many([vps[0], vps[1]]) == 1
            assert store.evict_before(1) == 4
        assert files_of(path) == []

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
        (tmp_path / "db.workerX.00000000.seg").write_bytes(b"someone else's")
        vps = [make_vp(seed=i + 1, n=1 + i % 3, minute=i % 4) for i in range(24)]
        store = SegmentStore(path)
        store.insert_many(vps)
        store.insert_trusted(make_vp(seed=77, n=2, minute=0))
        assert store.evict_before(2) == 13
        store.close()
        names = files_of(path)
        assert names == ["db.00000002.seg", "db.00000003.seg", "db.workerX.00000000.seg"]
        ours = names[:2]
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
            make_store("sqlite", path)

    def test_unopenable_path_and_closed_store_raise_storage_error(self, tmp_path):
        with pytest.raises(StorageError):
            SegmentStore(str(tmp_path / "no-such-dir" / "log"))
        store = SegmentStore(str(tmp_path / "log"))
        store.close()
        store.close()  # idempotent
        for call in (
            lambda: store.insert(make_vp()),
            lambda: store.query_encoded(QuerySpec(minute=0)),
            lambda: store.evict_before(1),
        ):
            with pytest.raises(StorageError):
                call()

    def test_pathless_store_leaves_nothing_behind(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", None)
        with make_store("sqlite") as store:
            store.insert_many([make_vp(seed=i + 1, minute=i % 2) for i in range(4)])
            assert len(store) == 4
            assert os.listdir(tmp_path) == []  # anonymous: never had a name


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
            assert store.insert_many(vps) == len(vps)
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


def test_ack_means_stored_when_a_worker_is_killed(tmp_path):
    """``make_store("procs", path)``: every acked id survives ``SIGKILL``.

    A write returns once the worker handed the records to the kernel;
    there is no buffer in the worker for the ack to run ahead of.
    """
    path = str(tmp_path / "fleet")
    fleet = make_store("procs", path=path, ingest_workers=2, shard_cells=2)
    acked = []
    try:
        for f in range(12):
            vps = [
                make_vp(seed=1 + 8 * f + i, n=2, minute=f % 3, x0=1500.0 * (i % 2))
                for i in range(8)
            ]
            assert fleet.insert_encoded(encode_vp_batch(vps)) == 8
            acked += [vp.vp_id for vp in vps]
        for pid in fleet.worker_pids():
            os.kill(pid, signal.SIGKILL)  # no close, no flush, no goodbye
        for shard in fleet.shards:
            shard._proc.join(timeout=10.0)
            assert not shard._proc.is_alive()
        with pytest.raises(StorageError):
            len(fleet)
    finally:
        fleet.close()
    with make_store("procs", path=path, ingest_workers=2, shard_cells=2) as reopened:
        assert sorted(vp_id for vp_id, _m in reopened.iter_id_minutes()) == sorted(acked)
        assert len(reopened) == len(acked)
