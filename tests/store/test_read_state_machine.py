"""One read oracle for every backend: a stateful property test.

A hypothesis ``RuleBasedStateMachine`` drives the same write / evict /
compact / reopen history into every backend configuration and, after
every step, checks the read contract of ``repro.store.base`` for every
axis combination ``QuerySpec`` allows:

* ``encode_vp_batch(query(spec).vps) == query_encoded(spec)``, byte for
  byte — each backend implements one selection primitive and derives
  the other form from it, so the two can never disagree;
* that frame is equal across backends (and equal to a flat model's);
* ``query(count).n == len(query(spec).vps)``, with and without an area;
* k-nearest keeps ``min(k, n)`` VPs, the same ones on every backend;
* ``get(id)`` agrees with membership, and two ``get``\\ s of one id
  return equal content.

There is no read cache anywhere below ``query``: the plain assertions
at the bottom keep what the SQLite decode-cache tests used to pin that
is still behaviour ("``get`` after ``evict_before`` is ``None``", "two
``get``\\ s return equal content").
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import ValidationError
from repro.geo.geometry import Point, Rect
from repro.store import (
    MemoryStore,
    ProcessShardedStore,
    QuerySpec,
    ShardedStore,
    SQLiteStore,
    encode_vp_batch,
    make_store,
)
from tests.store.conftest import fingerprint, make_vp

MINUTES = 3
AREAS = (
    None,
    Rect(-50.0, -50.0, 320.0, 50.0),  # one district
    Rect(250.0, 250.0, 1000.0, 1000.0),  # another, often empty
    Rect(-1e7, -1e7, 1e7, 1e7),  # wider than any index: the whole minute
)
SITE = Point(150.0, 150.0)

#: every selection ``QuerySpec`` allows: minute x area x trusted
SELECTIONS = [
    QuerySpec(minute=minute, area=area, trusted_only=trusted_only)
    for minute in range(MINUTES)
    for area in AREAS
    for trusted_only in (False, True)
]

#: a VP is (seed, minute, x cell, y cell); the id follows from all four
vps = st.tuples(
    st.integers(0, 5), st.integers(0, MINUTES - 1), st.integers(0, 2), st.integers(0, 2)
)


def vp_of(key):
    seed, minute, xc, yc = key
    unique = 1 + seed + 6 * (minute + MINUTES * (xc + 3 * yc))
    return make_vp(seed=unique, n=2, minute=minute, x0=300.0 * xc, y0=300.0 * yc)


class ReadContract(RuleBasedStateMachine):
    """Every backend configuration, one history, one oracle."""

    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="repro-read-sm-"))
        #: name -> constructor; the file-backed ones reopen their files.
        #: ``make_store("sqlite"|"procs", path)`` is the segment log; the
        #: SQLiteStore rows are the differential oracle it replaced
        #: (they go with the class in PR 23).
        self.factories = {
            "memory": MemoryStore,
            "segments": lambda: make_store("sqlite"),
            "segments-file": lambda: make_store("sqlite", str(self.dir / "log")),
            "segments-procs": lambda: make_store(
                "procs", str(self.dir / "fleet"), ingest_workers=2, shard_cells=2
            ),
            "sqlite": SQLiteStore,
            "sqlite-grouped": lambda: SQLiteStore(group_commit_rows=4),
            "sqlite-file": lambda: SQLiteStore(str(self.dir / "plain.sqlite")),
            "sqlite-file-grouped": lambda: SQLiteStore(
                str(self.dir / "grouped.sqlite"), group_commit_rows=4
            ),
            "sharded": lambda: ShardedStore.memory(n_shards=3),
            "sharded-cells": lambda: ShardedStore.memory(n_shards=3, shard_cells=3),
            "procs": lambda: ProcessShardedStore.memory(n_workers=2, shard_cells=2),
        }
        self.stores = {name: build() for name, build in self.factories.items()}
        #: the flat model: stored keys in insertion order, key -> trusted
        self.model: dict[tuple, bool] = {}
        self.ever: set[tuple] = set()
        self.model_vps: dict[tuple, object] = {}

    def teardown(self):
        for store in self.stores.values():
            store.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- rules ---------------------------------------------------------------

    def _write(self, key, trusted):
        """One strict insert on every backend; all agree on the outcome."""
        self.ever.add(key)
        outcomes = set()
        for store in self.stores.values():
            vp = vp_of(key)  # a fresh object per store: no aliasing
            try:
                (store.insert_trusted if trusted else store.insert)(vp)
                outcomes.add("stored")
            except ValidationError:
                outcomes.add("duplicate")
                assert not vp.trusted
        assert outcomes == {"duplicate" if key in self.model else "stored"}
        self.model.setdefault(key, trusted)

    @rule(key=vps)
    def insert(self, key):
        self._write(key, trusted=False)

    @rule(key=vps)
    def insert_trusted(self, key):
        self._write(key, trusted=True)

    @rule(data=st.data())
    def duplicate_insert(self, data):
        if self.model:
            key = data.draw(st.sampled_from(sorted(self.model)))
            self._write(key, trusted=data.draw(st.booleans()))

    @rule(keys=st.lists(vps, min_size=1, max_size=4))
    def insert_frame(self, keys):
        """A non-strict frame: duplicates skipped, the rest land in order."""
        fresh = list(dict.fromkeys(key for key in keys if key not in self.model))
        self.ever.update(keys)
        for store in self.stores.values():
            frame = encode_vp_batch([vp_of(key) for key in keys])
            assert store.insert_encoded(frame) == len(fresh)
        for key in fresh:
            self.model[key] = False

    @rule(cutoff=st.integers(0, MINUTES), keep_trusted=st.booleans())
    def evict_before(self, cutoff, keep_trusted):
        doomed = [
            key
            for key, trusted in self.model.items()
            if key[1] < cutoff and not (keep_trusted and trusted)
        ]
        for store in self.stores.values():
            assert store.evict_before(cutoff, keep_trusted=keep_trusted) == len(doomed)
        for key in doomed:
            del self.model[key]

    @rule()
    def compact(self):
        for store in self.stores.values():
            store.compact()

    @rule(
        name=st.sampled_from(
            ["segments-file", "segments-procs", "sqlite-file", "sqlite-file-grouped"]
        )
    )
    def close_and_reopen(self, name):
        self.stores[name].close()
        self.stores[name] = self.factories[name]()

    # -- the oracle ----------------------------------------------------------

    def expected(self, spec):
        """The flat model's selection, as VPs in insertion order."""
        out = []
        for key, trusted in self.model.items():
            if key[1] != spec.minute or (spec.trusted_only and not trusted):
                continue
            if key not in self.model_vps:
                self.model_vps[key] = vp_of(key)  # the model's own copy
            vp = self.model_vps[key]
            vp.trusted = trusted
            area = spec.area
            if area is None or any(
                area.x_min <= p.x <= area.x_max and area.y_min <= p.y <= area.y_max
                for p in vp.trajectory.points
            ):
                out.append(vp)
        return out

    @invariant()
    def reads_agree(self):
        for spec in SELECTIONS:
            frame = encode_vp_batch(self.expected(spec))
            n = int.from_bytes(frame[1:5], "big")
            nearest = None
            for name, store in self.stores.items():
                selected = store.query(spec)
                assert selected.n == len(selected.vps) == n, (name, spec)
                assert encode_vp_batch(selected.vps) == frame, (name, spec)
                assert store.query_encoded(spec) == frame, (name, spec)
                encoded = store.query(replace(spec, encoded=True))
                assert (encoded.n, encoded.frame) == (n, frame), (name, spec)
                assert store.query(replace(spec, count=True)).n == n, (name, spec)
                ranked = store.query(replace(spec, nearest=SITE, k=2)).vps
                assert len(ranked) == min(2, n), (name, spec)
                ids = [vp.vp_id for vp in ranked]
                nearest = ids if nearest is None else nearest
                assert ids == nearest, (name, spec)

    @invariant()
    def point_reads_agree(self):
        stored = {vp_of(key).vp_id: trusted for key, trusted in self.model.items()}
        for name, store in self.stores.items():
            assert len(store) == len(stored), name
            assert sorted(store.iter_id_minutes()) == sorted(
                (vp_of(key).vp_id, key[1]) for key in self.model
            ), name
            for key in self.ever:
                vp_id = vp_of(key).vp_id
                got = store.get(vp_id)
                assert (got is not None) == (vp_id in store) == (vp_id in stored), name
                if got is not None:
                    assert got.trusted == stored[vp_id], name
                    assert fingerprint(got) == fingerprint(store.get(vp_id)), name


TestReadContract = ReadContract.TestCase
TestReadContract.settings = settings(
    max_examples=20, stateful_step_count=12, derandomize=True, deadline=None
)


@pytest.mark.parametrize("build", [SQLiteStore, lambda: make_store("sqlite")])
def test_get_after_eviction_is_none_and_gets_agree(build):
    # what the decode-cache tests pinned that outlives the cache
    with build() as store:
        vp = make_vp(seed=1, minute=0)
        store.insert(vp)
        first, second = store.get(vp.vp_id), store.get(vp.vp_id)
        assert fingerprint(first) == fingerprint(second) == fingerprint(vp)
        assert store.evict_before(1) == 1
        assert store.get(vp.vp_id) is None
        assert vp.vp_id not in store
