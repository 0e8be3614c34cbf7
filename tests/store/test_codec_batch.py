"""Property tests for the columnar VP batch codec.

The batch buffer is the upload wire payload AND the record format of
the segment log, so its guarantees are pinned hard: exact round-trip
for any VP mix (digest counts, minutes, positions, trusted flags),
record metadata identical to what the store would derive from the
decoded VP, and loud failures on truncated or version-skewed buffers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.viewdigest import PACKED_DIGEST_DTYPE
from repro.errors import WireFormatError
from repro.store.codec import (
    FRAME_HEADER_BYTES,
    RECORD_OVERHEAD_BYTES,
    Batch,
    RecordColumns,
    decode_vp_batch,
    encode_vp,
    encode_vp_batch,
    encoded_body_bytes,
    frame_header,
    iter_encoded_meta,
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
    batch = Batch.from_frame(encode_vp_batch(vps))
    assert len(batch) == len(vps)
    for i, (vp, record) in enumerate(zip(vps, batch.meta)):
        vp_id, minute, trusted, x_min, y_min, x_max, y_max = record
        body = batch.record_span(i)[RECORD_OVERHEAD_BYTES:]
        assert bytes(vp_id) == vp.vp_id
        assert minute == vp.minute
        assert bool(trusted) == vp.trusted
        assert (x_min, y_min, x_max, y_max) == vp.bounding_box
        assert bytes(body) == encode_vp(vp)


@given(specs=vp_specs)
@settings(max_examples=25, deadline=None)
def test_batch_forms_agree(specs):
    # the write primitive's value type: whichever form the records
    # arrived in, every derived form is the same
    vps = build_corpus(specs)
    frame = encode_vp_batch(vps)
    from_vps, from_frame = Batch.from_vps(vps), Batch.from_frame(frame)
    assert from_vps.meta == from_frame.meta
    # an object batch frames its records exactly as the frame holds them
    joined = [from_vps.record_span(i) for i in range(len(vps))]
    assert b"".join([frame_header(len(vps)), *joined]) == frame
    spans = [(start, end) for _meta, start, end in iter_encoded_meta(frame)]
    for i, (start, end) in enumerate(spans):
        assert from_vps.record_span(i) == from_frame.record_span(i) == frame[start:end]
    columns = RecordColumns.from_frame(frame)
    assert fingerprints(map(columns.profile, range(len(columns)))) == fingerprints(vps)
    # a trusted write forces the bit in the metadata only
    assert all(record[2] for record in Batch.from_vps(vps, trusted=True).meta)
    assert [vp.trusted for vp in vps] == [bool(spec[5]) for spec in specs]


def test_empty_batch_round_trips():
    assert decode_vp_batch(encode_vp_batch([])) == []


@given(specs=vp_specs)
@settings(max_examples=25, deadline=None)
def test_record_spans_tile_the_buffer(specs):
    # spans are contiguous, ordered, and joining ALL of them reproduces
    # the source buffer byte-for-byte — the slices a log appends are
    # provably the framed records and nothing else, and views of the
    # caller's buffer rather than copies
    vps = build_corpus(specs)
    batch = encode_vp_batch(vps)
    records = list(iter_encoded_meta(batch))
    offset = FRAME_HEADER_BYTES
    for _meta, start, end in records:
        assert start == offset
        assert end > start
        offset = end
    assert offset == len(batch)
    wrapped = Batch.from_frame(batch)
    spans = [wrapped.record_span(i) for i in range(len(wrapped))]
    assert all(isinstance(span, memoryview) and span.obj is batch for span in spans)
    assert b"".join([frame_header(len(spans)), *spans]) == batch


@given(specs=vp_specs)
@settings(max_examples=25, deadline=None)
def test_sliced_sub_batches_decode_to_their_records(specs):
    # records framed again under a new header — what a log's read
    # returns — decode to exactly those VPs, in span order
    vps = build_corpus(specs)
    batch = Batch.from_frame(encode_vp_batch(vps))
    picked = [batch.record_span(i) for i in range(0, len(batch), 2)]
    sub = b"".join([frame_header(len(picked)), *picked])
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


def _digests(buf: bytearray, record: int) -> np.ndarray:
    """A writable view of one record's digests inside ``buf``."""
    start = [start for _meta, start, _end in iter_encoded_meta(bytes(buf))][record]
    body = start + RECORD_OVERHEAD_BYTES
    n = int.from_bytes(buf[body + 3 : body + 7], "big") // 72
    return np.frombuffer(memoryview(buf)[body + 7 : body + 7 + 72 * n], PACKED_DIGEST_DTYPE)


def _body(buf: bytearray, record: int) -> int:
    return [start for _meta, start, _end in iter_encoded_meta(bytes(buf))][record] + (
        RECORD_OVERHEAD_BYTES
    )


def _set(field, value, at=slice(None)):
    def corrupt(buf, record):
        _digests(buf, record)[field][at] = value

    return corrupt


def _poke(offset, value):
    def corrupt(buf, record):
        buf[_body(buf, record) + offset] = value

    return corrupt


#: damage to one record, each of what decoding it refuses
CORRUPTIONS = {
    "blob version": _poke(0, 9),
    "zero-hash bloom": lambda buf, record: buf.__setitem__(
        slice(_body(buf, record) + 1, _body(buf, record) + 3), b"\0\0"
    ),
    "block not whole digests": _poke(6, 73),
    "head id": lambda buf, record: buf.__setitem__(
        _body(buf, record) - RECORD_OVERHEAD_BYTES + 1 + 4 + 32,
        buf[_body(buf, record) - RECORD_OVERHEAD_BYTES + 1 + 4 + 32] ^ 0xFF,
    ),
    "body id": _set("vp_id", 7),
    "one digest's id": _set("vp_id", 7, at=-1),
    "second 0": _set("second_index", 0, at=0),
    "second repeated": _set("second_index", 1),
    "time NaN": _set("t", float("nan"), at=1),
    "position inf": _set("location", float("inf"), at=-1),
    "too wide": _set("location", 20_000.0, at=-1),
}


def _refusal(read, frame):
    try:
        read(frame)
    except Exception as exc:  # the comparison is the class and the message
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("first", [None, *CORRUPTIONS])
@pytest.mark.parametrize("second", sorted(CORRUPTIONS))
def test_columns_refuse_what_decoding_refuses(first, second):
    # a minute, a 4-digest VP and a minute: damage one record, or two;
    # the earlier damaged record decides, with what decoding it says
    vps = [make_vp(seed=1, n=60), make_vp(seed=2, n=4), make_vp(seed=3, n=60)]
    buf = bytearray(encode_vp_batch(vps))
    CORRUPTIONS[second](buf, 2)
    if first is not None:
        CORRUPTIONS[first](buf, 1)
    want = _refusal(decode_vp_batch, bytes(buf))
    assert want is not None
    assert _refusal(RecordColumns.from_frame, bytes(buf)) == want


def test_columns_of_an_empty_frame():
    columns = RecordColumns.from_frame(encode_vp_batch([]))
    assert len(columns) == 0 and columns.digests.shape == (0, 60)


class TestFramingCopiesNothingTwice:
    """Framing joins a record's prefix and body as separate parts.

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
        expected = encode_vp_batch(vps)  # what a VP memoizes is not the framing's
        peak, frame = self._peak(lambda: encode_vp_batch(vps))
        assert frame == expected
        assert peak < 2.2 * len(frame)  # the encoded bodies, then one join

    def test_memoryview_bodies_go_into_the_join_as_they_are(self):
        frame = encode_vp_batch([make_vp(seed=i + 1, n=60, minute=0) for i in range(64)])
        batch = Batch.from_frame(memoryview(frame))
        peak, again = self._peak(
            lambda: b"".join(
                [frame_header(len(batch)), *(batch.record_span(i) for i in range(len(batch)))]
            )
        )
        assert again == frame
        assert peak < 1.2 * len(frame)  # the join is the only copy
