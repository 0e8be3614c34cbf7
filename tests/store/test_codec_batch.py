"""Property tests for the columnar VP batch codec.

The batch buffer is the IPC framing of the process shard workers AND
the feed of the SQLite group-commit path, so its guarantees are pinned
hard: exact round-trip for any VP mix (digest counts, minutes,
positions, trusted flags), record metadata identical to what the SQLite
backend would derive from the decoded VP, and loud failures on
truncated or version-skewed buffers.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WireFormatError
from repro.store.codec import (
    Batch,
    decode_vp_batch,
    encode_vp,
    encode_vp_batch,
    encoded_body_bytes,
    iter_encoded_records,
    join_encoded_records,
)
from tests.store.conftest import fingerprints, make_vp

#: one VP description: (seed-ish, digest count, minute, x cell, y cell, trusted)
vp_specs = st.lists(
    st.tuples(
        st.integers(0, 30),
        st.integers(1, 5),
        st.integers(0, 4),
        st.integers(-3, 5),
        st.integers(-3, 5),
        st.booleans(),
    ),
    min_size=0,
    max_size=12,
)


def build_corpus(specs):
    vps = []
    for index, (seed, n, minute, xc, yc, trusted) in enumerate(specs):
        vp = make_vp(
            seed=1 + index + 40 * seed,
            n=n,
            minute=minute,
            x0=250.0 * xc,
            y0=250.0 * yc,
        )
        vp.trusted = trusted
        vps.append(vp)
    return vps


@given(specs=vp_specs)
@settings(max_examples=50, deadline=None)
def test_batch_round_trip_exact(specs):
    vps = build_corpus(specs)
    decoded = decode_vp_batch(encode_vp_batch(vps))
    assert fingerprints(decoded) == fingerprints(vps)


@given(specs=vp_specs)
@settings(max_examples=25, deadline=None)
def test_encoded_rows_match_storage_metadata(specs):
    # every record must carry exactly the columns the SQLite backend
    # derives from the decoded VP — the group-commit path trusts them
    vps = build_corpus(specs)
    rows = Batch.from_frame(encode_vp_batch(vps)).rows()
    assert len(rows) == len(vps)
    for vp, (vp_id, minute, trusted, x_min, y_min, x_max, y_max, body) in zip(vps, rows):
        assert bytes(vp_id) == vp.vp_id
        assert minute == vp.minute
        assert bool(trusted) == vp.trusted
        assert (x_min, y_min, x_max, y_max) == vp.bounding_box
        assert bytes(body) == encode_vp(vp)


@given(specs=vp_specs, data=st.data())
@settings(max_examples=25, deadline=None)
def test_batch_forms_agree(specs, data):
    # the write primitive's value type: whichever form the records
    # arrived in, every derived form (and every sub-batch) is the same
    vps = build_corpus(specs)
    frame = encode_vp_batch(vps)
    from_vps, from_frame = Batch.from_vps(vps), Batch.from_frame(frame)
    assert from_vps.meta == from_frame.meta
    assert from_vps.rows() == from_frame.rows()
    assert from_vps.frame() == frame and from_frame.frame() is frame
    assert all(a is b for a, b in zip(from_vps.vps(), vps))
    assert fingerprints(from_frame.vps()) == fingerprints(vps)
    indices = sorted(data.draw(st.sets(st.sampled_from(range(len(vps))))) if vps else [])
    picked = [vps[i] for i in indices]
    for batch in (from_vps, from_frame):
        sub = batch.select(indices)
        assert len(sub) == len(picked)
        assert sub.frame() == encode_vp_batch(picked)
        assert sub.rows() == Batch.from_vps(picked).rows()
    # a trusted write forces the bit in the metadata only
    assert all(record[2] for record in Batch.from_vps(vps, trusted=True).meta)
    assert [vp.trusted for vp in vps] == [bool(spec[5]) for spec in specs]


def test_empty_batch_round_trips():
    assert decode_vp_batch(encode_vp_batch([])) == []


@given(specs=vp_specs)
@settings(max_examples=25, deadline=None)
def test_record_spans_tile_the_buffer(specs):
    # spans are contiguous, ordered, and joining ALL of them reproduces
    # the source buffer byte-for-byte — the zero-decode router's slices
    # are provably the framed records and nothing else
    vps = build_corpus(specs)
    batch = encode_vp_batch(vps)
    records = list(iter_encoded_records(batch))
    offset = 5  # version + count header
    for _row, start, end in records:
        assert start == offset
        assert end > start
        offset = end
    assert offset == len(batch)
    assert join_encoded_records(batch, [(s, e) for _, s, e in records]) == batch


@given(specs=vp_specs)
@settings(max_examples=25, deadline=None)
def test_sliced_sub_batches_decode_to_their_records(specs):
    # carving alternating records into a new frame preserves exactly
    # those VPs, in span order — per-shard slicing is lossless
    vps = build_corpus(specs)
    batch = encode_vp_batch(vps)
    records = list(iter_encoded_records(batch))
    picked = records[::2]
    sub = join_encoded_records(batch, [(s, e) for _, s, e in picked])
    assert fingerprints(decode_vp_batch(sub)) == fingerprints(vps[::2])


def test_encoded_body_bytes_matches_real_blobs():
    for n in (1, 4, 60):
        vp = make_vp(seed=n, n=n)
        assert len(encode_vp(vp)) == encoded_body_bytes(n)


def test_batch_rejects_bad_version():
    buf = bytearray(encode_vp_batch([make_vp(seed=1)]))
    buf[0] = 99
    with pytest.raises(WireFormatError):
        decode_vp_batch(bytes(buf))


def test_batch_rejects_truncation():
    buf = encode_vp_batch([make_vp(seed=1), make_vp(seed=2)])
    for cut in (3, len(buf) // 2, len(buf) - 1):
        with pytest.raises(WireFormatError):
            decode_vp_batch(buf[:cut])


def test_batch_rejects_trailing_bytes():
    buf = encode_vp_batch([make_vp(seed=1)])
    with pytest.raises(WireFormatError):
        decode_vp_batch(buf + b"\x00")


def test_batch_rejects_id_body_mismatch():
    # flip a byte inside the record's id field: the body's own id wins
    # and the mismatch must surface, not silently mis-key the VP
    vp = make_vp(seed=1)
    buf = bytearray(encode_vp_batch([vp]))
    id_offset = 5 + 1 + 4 + 32  # header + flags + minute + bbox
    buf[id_offset] ^= 0xFF
    with pytest.raises(WireFormatError):
        decode_vp_batch(bytes(buf))


class TestFramingCopiesNothingTwice:
    """``encode_row_batch`` joins prefix and body as separate parts.

    It used to build ``pack_prefixed(bytes(body))`` per row — every
    ~4.6 kB body copied before the join copied it again.
    """

    @staticmethod
    def _peak(fn) -> tuple[int, bytes]:
        import tracemalloc

        tracemalloc.start()
        try:
            out = fn()
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()

    def test_object_batch_frames_within_its_blobs_plus_the_join(self):
        vps = [make_vp(seed=i + 1, n=60, minute=0) for i in range(64)]
        Batch.from_vps(vps).frame()  # what a VP memoizes is not the framing's
        peak, frame = self._peak(lambda: Batch.from_vps(vps).frame())
        assert frame == encode_vp_batch(vps)
        assert peak < 2.2 * len(frame)  # the encoded bodies, then one join

    def test_memoryview_bodies_go_into_the_join_as_they_are(self):
        from repro.store.codec import encode_row_batch

        frame = encode_vp_batch([make_vp(seed=i + 1, n=60, minute=0) for i in range(64)])
        rows = Batch.from_frame(memoryview(frame)).rows()
        peak, again = self._peak(lambda: encode_row_batch(rows))
        assert again == frame
        assert peak < 1.2 * len(frame)  # the join is the only copy
