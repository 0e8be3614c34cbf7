"""Volatile stores leave nothing behind: no descriptor, no named file.

The volatile placement of the segment log, ``make_store("memory")``,
holds exactly one descriptor per live minute, each on an anonymous
segment that was never linked into any directory.  Eviction closes the evicted minutes'
descriptors, ``close()`` must hand every one of them back, and no file
named after the store may appear anywhere.  A named store returns its
descriptors the same way and keeps exactly its segment files.  A store
without retention runs into the process's descriptor limit after about
``RLIMIT_NOFILE`` live minutes, and must say so.
"""

from __future__ import annotations

import os
import tempfile
from collections import Counter

import pytest

from repro.errors import StorageError
from repro.store import QuerySpec, make_store
from repro.store.codec import encode_vp_batch
from tests.store.conftest import make_vp

MINUTES = 20

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs a /proc file-descriptor table"
)


def file_targets() -> Counter:
    """What this process's descriptors on files point at (pipes and sockets excluded)."""
    table = "/proc/self/fd"
    targets: Counter = Counter()
    for fd in os.listdir(table):
        try:
            target = os.readlink(f"{table}/{fd}")
        except OSError:  # the listing's own descriptor, closed since
            continue
        if target.startswith("/"):
            targets[target] += 1
    return targets


def opened_since(files_before: Counter) -> Counter:
    """File descriptors opened since ``files_before`` was taken."""
    return file_targets() - files_before


def anonymous_segments(opened: Counter) -> list[str]:
    return [target for target in opened.elements() if target.endswith(" (deleted)")]


def test_close_returns_every_descriptor_and_names_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    temp_before = set(os.listdir(tempfile.gettempdir()))
    fds_before = len(os.listdir("/proc/self/fd"))
    files_before = file_targets()

    store = make_store("memory")
    frame = encode_vp_batch([make_vp(seed=m + 1, minute=m) for m in range(MINUTES)])
    assert store.insert_encoded(frame) == MINUTES
    # one descriptor per live minute, each on an unlinked segment
    opened = opened_since(files_before)
    segments = anonymous_segments(opened)
    assert len(segments) == MINUTES, opened
    assert set(opened) == set(segments), opened  # nothing else is a named file

    store.close()
    assert len(os.listdir("/proc/self/fd")) == fds_before
    assert os.listdir(tmp_path) == []
    assert set(os.listdir(tempfile.gettempdir())) <= temp_before


@pytest.mark.parametrize("keep_trusted", [False, True], ids=["all", "keep-trusted"])
def test_eviction_returns_the_evicted_minutes_descriptors(keep_trusted, tmp_path):
    files_before = file_targets()
    store = make_store("memory")
    try:
        store.insert_many([make_vp(seed=m + 1, minute=m) for m in range(MINUTES)])
        store.insert_trusted(make_vp(seed=MINUTES + 1, minute=0, x0=50.0))
        cutoff = MINUTES // 2
        pinned = 1 if keep_trusted else 0
        assert store.evict_before(cutoff, keep_trusted=keep_trusted) == cutoff + 1 - pinned
        # a pinned minute is rewritten to a fresh anonymous segment; the
        # old one is closed, not leaked beside it
        live = MINUTES - cutoff + pinned
        assert store.minutes() == ([0] if keep_trusted else []) + list(range(cutoff, MINUTES))
        assert len(anonymous_segments(opened_since(files_before))) == live
        assert store.evict_before(MINUTES) == live
        assert anonymous_segments(opened_since(files_before)) == []
    finally:
        store.close()


def test_unretained_store_fails_cleanly_at_the_descriptor_ceiling():
    # no retention: every new minute keeps a descriptor, so past
    # RLIMIT_NOFILE the next new minute is refused with its cause named,
    # what landed stays whole, and eviction hands the descriptors back
    resource = pytest.importorskip("resource")
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    headroom = 16
    store = make_store("memory")
    minute = 0
    # the limit caps descriptor *numbers*: free ones below it are the
    # headroom plus whatever holes the table has
    limit = max(map(int, os.listdir("/proc/self/fd"))) + 1 + headroom
    try:
        resource.setrlimit(resource.RLIMIT_NOFILE, (limit, hard))
        with pytest.raises(StorageError, match="one descriptor stays open per live minute"):
            while minute < limit:
                store.insert(make_vp(seed=minute + 1, minute=minute))
                minute += 1
        assert headroom <= minute < limit
        assert len(store) == minute and store.minutes() == list(range(minute))
        with pytest.raises(StorageError):  # a read duplicates a descriptor too
            store.query(QuerySpec(minute=0))
        assert store.evict_before(minute - 1) == minute - 1
        assert len(store.query(QuerySpec(minute=minute - 1)).vps) == 1
        store.insert(make_vp(seed=minute + 1, minute=minute))
        assert store.minutes() == [minute - 1, minute]
    finally:
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
        store.close()


def test_named_store_close_returns_descriptors_and_keeps_its_files(tmp_path):
    fds_before = len(os.listdir("/proc/self/fd"))
    files_before = file_targets()
    path = str(tmp_path / "log")
    store = make_store("sqlite", path)
    store.insert_many([make_vp(seed=m + 1, minute=m) for m in range(MINUTES)])
    opened = opened_since(files_before)
    named = [target for target in opened.elements() if target.startswith(path)]
    assert len(named) == MINUTES and not anonymous_segments(opened), opened

    store.close()
    assert len(os.listdir("/proc/self/fd")) == fds_before
    assert sorted(os.listdir(tmp_path)) == sorted(os.path.basename(t) for t in named)
    with make_store("sqlite", path) as reopened:
        assert len(reopened) == MINUTES
