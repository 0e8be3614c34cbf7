"""Property test: every backend answers every query identically.

Randomized insert/query sequences (every write entry point, object and
frame, strict and not, with duplicate-id rejection and trusted-path
inserts) are replayed against ``MemoryStore``,
``SQLiteStore``, ``ShardedStore`` and ``ProcessShardedStore`` (real
worker OS processes) plus a deliberately naive reference model
reproducing the seed database's flat linear-scan semantics; all five
must agree on every observable.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError, ValidationError
from repro.geo.geometry import Point, Rect
from repro.store import (
    STORE_KINDS,
    MemoryStore,
    ProcessShardedStore,
    QuerySpec,
    ShardedStore,
    SQLiteStore,
    decode_vp_batch,
    encode_vp_batch,
    make_store,
)
from tests.store.conftest import fingerprints, make_vp


class ReferenceModel:
    """The seed's flat dict database: linear scans, no indexes."""

    def __init__(self):
        self._by_id = {}
        self._order = []

    def insert(self, vp):
        if vp.vp_id in self._by_id:
            raise ValidationError("duplicate")
        self._by_id[vp.vp_id] = vp
        self._order.append(vp)

    def insert_trusted(self, vp):
        if vp.vp_id in self._by_id:
            raise ValidationError("duplicate")
        vp.trusted = True
        self.insert(vp)

    def insert_many(self, vps):
        n = 0
        for vp in vps:
            if vp.vp_id not in self._by_id:
                self.insert(vp)
                n += 1
        return n

    def insert_encoded(self, frame, strict=False):
        vps = decode_vp_batch(frame)
        ids = [vp.vp_id for vp in vps]
        if strict and (len(set(ids)) < len(ids) or any(i in self._by_id for i in ids)):
            raise ValidationError("duplicate")
        return self.insert_many(vps)

    def get(self, vp_id):
        return self._by_id.get(vp_id)

    def __len__(self):
        return len(self._by_id)

    def __contains__(self, vp_id):
        return vp_id in self._by_id

    def minutes(self):
        return sorted({vp.minute for vp in self._order})

    def select(self, spec):
        """Linear scan for one ``QuerySpec`` (every axis but count/encoded)."""
        vps = [vp for vp in self._order if vp.minute == spec.minute]
        if spec.area is not None:
            area = spec.area
            vps = [
                vp
                for vp in vps
                if any(
                    area.x_min <= p.x <= area.x_max and area.y_min <= p.y <= area.y_max
                    for p in vp.trajectory.points
                )
            ]
        if spec.trusted_only:
            vps = [vp for vp in vps if vp.trusted]
        if spec.nearest is not None:
            site = spec.nearest
            vps.sort(key=lambda vp: min(site.distance_to(p) for p in vp.trajectory.points))
            vps = vps[: spec.k]
        return vps


def selection_specs(minute, rect, site):
    """One spec per decoded selection shape the investigator uses."""
    return (
        QuerySpec(minute=minute),
        QuerySpec(minute=minute, area=rect),
        QuerySpec(minute=minute, trusted_only=True),
        QuerySpec(minute=minute, trusted_only=True, nearest=site, k=2),
    )


#: an op is (seed, minute, x_cell, y_cell, trusted)
ops = st.lists(
    st.tuples(
        st.integers(0, 7),
        st.integers(0, 3),
        st.integers(-2, 4),
        st.integers(-2, 4),
        st.booleans(),
    ),
    min_size=1,
    max_size=14,
)
#: the write entry points; the two frame ones are ``insert_encoded``
ENTRY_POINTS = ("insert", "insert_trusted", "insert_many", "encoded", "encoded_strict")

#: a write op is (seed, minute, x_cell, y_cell, entry point)
write_ops = st.lists(
    st.tuples(
        st.integers(0, 7),
        st.integers(0, 3),
        st.integers(-2, 4),
        st.integers(-2, 4),
        st.sampled_from(ENTRY_POINTS),
    ),
    min_size=1,
    max_size=14,
)
areas = st.tuples(
    st.floats(-700, 1400), st.floats(-700, 1400), st.floats(0, 900), st.floats(0, 900)
)


def fresh_backends():
    return [
        MemoryStore(),
        SQLiteStore(),
        ShardedStore.memory(n_shards=3),
        ProcessShardedStore.memory(n_workers=2, shard_cells=2),
    ]


def replay_write(store, entry, vps):
    """Send ``vps`` through one entry point; the count stored, or "dup"."""
    try:
        if entry == "insert":
            store.insert(vps[0])
        elif entry == "insert_trusted":
            store.insert_trusted(vps[0])
        elif entry == "insert_many":
            return store.insert_many(vps)
        else:
            return store.insert_encoded(
                encode_vp_batch(vps), strict=entry == "encoded_strict"
            )
    except ValidationError:
        return "dup"
    return 1


@given(ops=write_ops, area=areas, batch=ops)
@settings(max_examples=25, deadline=None)
def test_backends_agree_with_reference(ops, area, batch):
    reference = ReferenceModel()
    backends = fresh_backends()
    stores = [reference] + backends

    def corpus(op):
        # identical content per op across stores, but a FRESH object per
        # store so cross-store aliasing (e.g. the trusted flag) can't
        # mask divergence.  VPs are identified by (seed,) alone: same
        # seed with different placement would collide on vp_id, so fold
        # placement into the seed.
        seed, minute, xc, yc, trusted = op
        unique = seed + 10 * (minute + 4 * ((xc + 2) + 7 * (yc + 2)))
        return [
            make_vp(seed=unique, n=2, minute=minute, x0=300.0 * xc, y0=300.0 * yc)
            for _ in stores
        ]

    # -- replay writes: every entry point, forced duplicates ----------------
    # batch entry points carry this op's VP *then* the previous op's —
    # usually a duplicate, placed last so a strict batch that is not
    # all-or-nothing shows up as a stray stored record
    previous = None
    for op in ops:
        entry = op[4]
        copies = corpus(op)
        if previous is not None and entry not in ("insert", "insert_trusted"):
            copies = [[new, old] for new, old in zip(copies, corpus(previous))]
        else:
            copies = [[vp] for vp in copies]
        previous = op
        outcomes = [replay_write(store, entry, vps) for store, vps in zip(stores, copies)]
        assert len(set(outcomes)) == 1, f"{entry} outcome diverged: {outcomes}"
        assert len({len(store) for store in stores}) == 1, f"{entry} left stray records"
        # on rejection no backend may have flipped the caller's flag
        if outcomes[0] == "dup" and entry == "insert_trusted":
            assert all(not vps[0].trusted for vps in copies)

    # -- batch ingest (duplicates silently skipped) ------------------------
    batch_copies = [corpus(op) for op in batch]
    counts = {
        i: store.insert_many([copies[i] for copies in batch_copies])
        for i, store in enumerate(stores)
    }
    assert len(set(counts.values())) == 1, "insert_many count diverged"

    # -- compare every observable ------------------------------------------
    x0, y0, w, h = area
    rect = Rect(x0, y0, x0 + w, y0 + h)
    site = Point(150.0, 150.0)
    assert len({len(store) for store in stores}) == 1
    assert len({tuple(store.minutes()) for store in stores}) == 1
    for minute in range(4):
        for spec in selection_specs(minute, rect, site):
            expected = fingerprints(reference.select(spec))
            for backend in backends:
                assert fingerprints(backend.query(spec).vps) == expected, spec
    for vp in reference._order:
        for backend in backends:
            assert vp.vp_id in backend
            assert fingerprints([backend.get(vp.vp_id)]) == fingerprints([vp])
    for backend in backends:
        backend.close()


@given(ops=ops, area=areas)
@settings(max_examples=25, deadline=None)
def test_query_spec_parity_decoded_and_encoded(ops, area):
    """Every ``query(QuerySpec)`` axis agrees across backends — and the
    encoded (decode-free) results are *byte-identical* to re-encoding
    the decoded-path selection, on every backend."""
    reference = ReferenceModel()
    backends = fresh_backends()
    stores = [reference] + backends
    for op in ops:
        seed, minute, xc, yc, trusted = op
        unique = seed + 10 * (minute + 4 * ((xc + 2) + 7 * (yc + 2)))
        copies = [
            make_vp(seed=unique, n=2, minute=minute, x0=300.0 * xc, y0=300.0 * yc)
            for _ in stores
        ]
        for store, vp in zip(stores, copies):
            try:
                if trusted:
                    store.insert_trusted(vp)
                else:
                    store.insert(vp)
            except ValidationError:
                pass

    x0, y0, w, h = area
    rect = Rect(x0, y0, x0 + w, y0 + h)
    site = Point(150.0, 150.0)
    for minute in range(4):
        for spec in selection_specs(minute, rect, site):
            expected = reference.select(spec)
            for backend in backends:
                result = backend.query(spec)
                assert fingerprints(result.vps) == fingerprints(expected), spec
                assert result.n == len(expected), spec
        # count axis (tile-served for a whole minute, the frame's count
        # header with an area)
        for spec in (
            QuerySpec(minute=minute),
            QuerySpec(minute=minute, trusted_only=True),
            QuerySpec(minute=minute, area=rect),
            QuerySpec(minute=minute, area=rect, trusted_only=True),
        ):
            expected_n = len(reference.select(spec))
            for backend in backends:
                assert backend.query(replace(spec, count=True)).n == expected_n, spec
        # encoded axis: byte-identical frames, client-side decode parity
        for spec in selection_specs(minute, rect, site)[:3]:
            expected = reference.select(spec)
            spec = replace(spec, encoded=True)
            expected_frame = encode_vp_batch(expected)
            for backend in backends:
                result = backend.query(spec)
                assert result.frame == expected_frame, backend.kind
                assert result.n == len(expected)
    for backend in backends:
        backend.close()


@pytest.mark.parametrize("kind", ["memory", "sqlite", "sharded", "procs"])
def test_make_store_round_trip(kind):
    from repro.store import make_store

    store = make_store(kind, ingest_workers=2)
    vp = make_vp(seed=42)
    store.insert(vp)
    assert fingerprints(store.query(QuerySpec(minute=0)).vps) == fingerprints([vp])
    store.close()


def test_identity_contract():
    """Which reads return the inserted instance, stated once.

    A store that holds objects hands them back: ``MemoryStore.get`` and
    ``query`` return the inserted instance, and ``ShardedStore.get``
    routes to its shard's.  A decoded *selection* through a router or
    SQLite is ``decode_vp_batch(query_encoded(spec))`` — fresh
    wire-backed VPs per call, equal in content; nothing below ``query``
    caches objects, so no ``is`` may be asserted there.
    """
    spec = QuerySpec(minute=0)
    vp = make_vp(seed=7)
    with MemoryStore() as memory:
        memory.insert(vp)
        assert memory.get(vp.vp_id) is vp
        assert memory.query(spec).vps[0] is vp
    with ShardedStore.memory(n_shards=2) as sharded:
        sharded.insert(vp)
        assert sharded.get(vp.vp_id) is vp
        first, second = sharded.query(spec).vps[0], sharded.query(spec).vps[0]
        assert first is not vp and first is not second
        assert fingerprints([first, second]) == fingerprints([vp, vp])
    with SQLiteStore() as sqlite:
        sqlite.insert(vp)
        first, second = sqlite.query(spec).vps[0], sqlite.query(spec).vps[0]
        assert first is not second and sqlite.get(vp.vp_id) is not sqlite.get(vp.vp_id)
        assert fingerprints([first, second]) == fingerprints([vp, vp])


def test_each_backend_defines_one_read_primitive():
    """``_select`` or ``query_encoded`` — never both, never neither."""
    from repro.store import WorkerShard

    for backend in (MemoryStore, SQLiteStore, ShardedStore, WorkerShard):
        own = {name for name in ("_select", "query_encoded") if name in vars(backend)}
        assert len(own) == 1, (backend.__name__, own)
    assert "_select" in vars(MemoryStore)
    assert not {"_select", "query_encoded"} & set(vars(ProcessShardedStore))


def _strict_store(kind):
    if kind == "sqlite-grouped":
        return SQLiteStore(group_commit_rows=64)
    return make_store(kind, ingest_workers=2)


@pytest.mark.parametrize("kind", STORE_KINDS + ("sqlite-grouped",))
def test_strict_batch_is_all_or_nothing(kind):
    """A strict batch with one duplicate raises and stores none of it."""
    vps = [make_vp(seed=seed, minute=seed % 2) for seed in range(1, 5)]
    with _strict_store(kind) as store:
        store.insert(make_vp(seed=3, minute=1))
        with pytest.raises(ValidationError):
            store.insert_encoded(encode_vp_batch(vps), strict=True)
        assert len(store) == 1
        assert store.existing_ids([vp.vp_id for vp in vps]) == {vps[2].vp_id}
        # the same batch, not strict, lands everything but the duplicate
        assert store.insert_encoded(encode_vp_batch(vps)) == 3
        assert len(store) == 4


def test_failed_trusted_insert_leaves_caller_untrusted(tmp_path):
    """A shard failure mid-``insert_trusted`` must not mint a trusted VP."""
    store = ShardedStore.sqlite([str(tmp_path / f"s{i}.sqlite") for i in range(2)])
    vp = make_vp(seed=9)
    try:
        for shard in store.shards:
            shard.close()
        with pytest.raises(StorageError):
            store.insert_trusted(vp)
        assert vp.trusted is False
        assert vp.vp_id not in store
    finally:
        store.close()
