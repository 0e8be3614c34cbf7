"""Property test: every placement answers every query identically.

Randomized insert/query sequences (every write form — one record,
one trusted record, a frame strict and not — with duplicate-id
rejection) are replayed against both placements of the one engine — the
volatile and the named segment log — plus a deliberately naive
reference model reproducing the seed database's flat linear-scan
semantics; all must agree on every observable.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import ViewMapSystem
from repro.errors import StorageError, ValidationError
from repro.geo.geometry import Rect
from repro.store import (
    QuerySpec,
    SegmentStore,
    decode_vp_batch,
    encode_vp_batch,
    make_store,
)
from tests.store.conftest import (
    PLACEMENTS,
    STORE_PLACEMENTS,
    build_placement,
    build_store,
    fingerprints,
    insert_trusted_vp,
    insert_vp,
    insert_vps,
    make_vp,
)


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
        return vps


def selection_specs(minute, rect):
    """One spec per decoded selection shape the investigator uses."""
    return (
        QuerySpec(minute=minute),
        QuerySpec(minute=minute, area=rect),
        QuerySpec(minute=minute, trusted_only=True),
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
#: the write forms, every one an ``insert_encoded`` frame: one record
#: (strict), one trusted record (strict), a batch, a strict batch
ENTRY_POINTS = ("insert_vp", "insert_trusted_vp", "insert_vps", "encoded_strict")

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


def fresh_backends(tmp_dir):
    return [
        SegmentStore(),
        SegmentStore(str(tmp_dir / "log")),
    ]


def replay_write(store, entry, vps):
    """Send ``vps`` through one write form; the count stored, or "dup"."""
    try:
        if entry == "insert_vp":
            insert_vp(store, vps[0])
        elif entry == "insert_trusted_vp":
            insert_trusted_vp(store, vps[0])
        elif entry == "insert_vps":
            return insert_vps(store, vps)
        else:
            return store.insert_encoded(encode_vp_batch(vps), strict=True)
    except ValidationError:
        return "dup"
    return 1


@given(ops=write_ops, area=areas, batch=ops)
@settings(max_examples=25, deadline=None)
def test_backends_agree_with_reference(ops, area, batch):
    reference = ReferenceModel()
    tmp_dir = Path(tempfile.mkdtemp(prefix="repro-parity-"))
    backends = fresh_backends(tmp_dir)
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
        if previous is not None and entry not in ("insert_vp", "insert_trusted_vp"):
            copies = [[new, old] for new, old in zip(copies, corpus(previous))]
        else:
            copies = [[vp] for vp in copies]
        previous = op
        outcomes = [replay_write(store, entry, vps) for store, vps in zip(stores, copies)]
        assert len(set(outcomes)) == 1, f"{entry} outcome diverged: {outcomes}"
        assert len({len(store) for store in stores}) == 1, f"{entry} left stray records"
        # on rejection no backend may have flipped the caller's flag
        if outcomes[0] == "dup" and entry == "insert_trusted_vp":
            assert all(not vps[0].trusted for vps in copies)

    # -- batch ingest (duplicates silently skipped) ------------------------
    batch_copies = [corpus(op) for op in batch]
    counts = {
        i: insert_vps(store, [copies[i] for copies in batch_copies])
        for i, store in enumerate(stores)
    }
    assert len(set(counts.values())) == 1, "insert_vps count diverged"

    # -- compare every observable ------------------------------------------
    x0, y0, w, h = area
    rect = Rect(x0, y0, x0 + w, y0 + h)
    assert len({len(store) for store in stores}) == 1
    assert len({tuple(store.minutes()) for store in stores}) == 1
    for minute in range(4):
        for spec in selection_specs(minute, rect):
            expected = fingerprints(reference.select(spec))
            for backend in backends:
                assert fingerprints(backend.query(spec).vps) == expected, spec
    for vp in reference._order:
        for backend in backends:
            assert vp.vp_id in backend
            assert fingerprints([backend.get(vp.vp_id)]) == fingerprints([vp])
    for backend in backends:
        backend.close()
    shutil.rmtree(tmp_dir)


@given(ops=ops, area=areas)
@settings(max_examples=25, deadline=None)
def test_query_spec_parity_decoded_and_encoded(ops, area):
    """Every ``query(QuerySpec)`` axis agrees across backends — and the
    encoded (decode-free) results are *byte-identical* to re-encoding
    the decoded-path selection, on every backend."""
    reference = ReferenceModel()
    tmp_dir = Path(tempfile.mkdtemp(prefix="repro-parity-"))
    backends = fresh_backends(tmp_dir)
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
                    insert_trusted_vp(store, vp)
                else:
                    insert_vp(store, vp)
            except ValidationError:
                pass

    x0, y0, w, h = area
    rect = Rect(x0, y0, x0 + w, y0 + h)
    for minute in range(4):
        for spec in selection_specs(minute, rect):
            expected = reference.select(spec)
            for backend in backends:
                result = backend.query(spec)
                assert fingerprints(result.vps) == fingerprints(expected), spec
                assert result.n == len(expected), spec
        # count axis (the minute's row count for a whole minute, the frame's count
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
        for spec in selection_specs(minute, rect):
            expected = reference.select(spec)
            spec = replace(spec, encoded=True)
            expected_frame = encode_vp_batch(expected)
            for backend in backends:
                result = backend.query(spec)
                assert result.frame == expected_frame, backend.path
                assert result.n == len(expected)
    for backend in backends:
        backend.close()
    shutil.rmtree(tmp_dir)


@pytest.mark.parametrize("kind", list(PLACEMENTS))
def test_make_store_round_trip(kind):
    store = build_placement(kind)
    vp = make_vp(seed=42)
    insert_vp(store, vp)
    assert fingerprints(store.query(QuerySpec(minute=0)).vps) == fingerprints([vp])
    store.close()


def test_identity_contract():
    """What a read returns, stated once: equal bytes, a fresh object.

    Every backend holds bytes, so ``get`` and a decoded ``query`` are
    ``decode_vp_batch(query_encoded(spec))`` — fresh wire-backed VPs per
    call, equal in content to the inserted one and never that instance;
    nothing below ``query`` caches objects, so no ``is`` may be asserted.
    """
    spec = QuerySpec(minute=0)
    vp = make_vp(seed=7)
    for placement in STORE_PLACEMENTS:
        with build_store(placement) as store:
            insert_vp(store, vp)
            first, second = store.query(spec).vps[0], store.query(spec).vps[0]
            got = store.get(vp.vp_id)
            assert first == second == got == vp, placement
            assert len({id(first), id(second), id(got), id(vp)}) == 4, placement


def test_each_backend_defines_one_read_primitive():
    """``query_encoded`` is the read primitive; a decoded read is its frame
    decoded, never a second selection."""
    assert "query_encoded" in vars(SegmentStore)
    vp = make_vp(seed=5)
    with SegmentStore() as store:  # nothing stored: the frame is the only source
        store.query_encoded = lambda spec: memoryview(encode_vp_batch([vp]))
        assert fingerprints(store.query(QuerySpec(minute=0)).vps) == fingerprints([vp])


@pytest.mark.parametrize("kind", list(PLACEMENTS))
def test_strict_batch_is_all_or_nothing(kind):
    """A strict batch with one duplicate raises and stores none of it."""
    vps = [make_vp(seed=seed, minute=seed % 2) for seed in range(1, 5)]
    with build_placement(kind) as store:
        insert_vp(store, make_vp(seed=3, minute=1))
        with pytest.raises(ValidationError):
            store.insert_encoded(encode_vp_batch(vps), strict=True)
        assert len(store) == 1
        assert store.existing_ids([vp.vp_id for vp in vps]) == {vps[2].vp_id}
        # the same batch, not strict, lands everything but the duplicate
        assert store.insert_encoded(encode_vp_batch(vps)) == 3
        assert len(store) == 4


def test_failed_trusted_insert_leaves_caller_untrusted(tmp_path):
    """A store failure mid-``ingest_trusted_vp`` must not mint a trusted VP."""
    store = SegmentStore(str(tmp_path / "log"))
    vp = make_vp(seed=9)
    store.close()
    with pytest.raises(StorageError):
        ViewMapSystem(key_bits=512, store=store).ingest_trusted_vp(vp)
    assert vp.trusted is False
    with SegmentStore(str(tmp_path / "log")) as reopened:
        assert vp.vp_id not in reopened


def test_retired_kinds_resolve_to_the_one_log(tmp_path):
    """``make_store("procs", path, ...)`` is ``SegmentStore(path)``.

    The pipeline benchmark still asks for the retired placement with its
    shard and worker counts: it gets one in-process log, no child
    process, and exactly the files and bytes the ``sqlite`` kind writes.
    """
    import multiprocessing

    frames = [
        encode_vp_batch(
            [make_vp(seed=4 * f + i + 1, minute=f % 3, x0=500.0 * i) for i in range(4)]
        )
        for f in range(6)
    ]
    for name in ("procs", "sqlite"):
        (tmp_path / name).mkdir()
    retired = make_store(
        "procs", str(tmp_path / "procs" / "log"), n_shards=2, ingest_workers=2, shard_cells=2
    )
    with retired, SegmentStore(str(tmp_path / "sqlite" / "log")) as log:
        assert type(retired) is SegmentStore
        assert multiprocessing.active_children() == []
        for frame in frames:
            assert retired.insert_encoded(frame) == log.insert_encoded(frame) == 4
    stored = {
        name: {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}
        for name in ("procs", "sqlite")
    }
    assert len(stored["sqlite"]) == 3
    assert stored["procs"] == stored["sqlite"]
    with make_store("sharded", n_shards=3) as volatile:
        assert type(volatile) is SegmentStore and volatile.path == ""
