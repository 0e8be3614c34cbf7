"""The columnar upload-frame validator gives the per-record verdict.

``unpack_vp_batch_frame`` reads a frame of complete VPs as one record
array and evaluates every rule as one mask over all records;
``tests/net/reference_validation.py`` keeps the validator it replaced
(a framing walk, then one body check per record).  For a random frame
of 1-8 VPs with one field corrupted — a sidecar field, a blob-head
field, any digest's time, location, second index or id, the frame's
count, a truncation or a trailing byte — both accept it with the same
``Batch`` or reject it with the same message; with two records
corrupted, the earlier one is reported.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import VD_MESSAGE_BYTES
from repro.core.neighbors import NeighborTable
from repro.core.viewdigest import PACKED_FIELD, VDGenerator, make_secret
from repro.core.viewprofile import ViewProfile, build_view_profile
from repro.errors import ValidationError
from repro.net.messages import FRAME_BODY_BYTES, pack_vp_batch_frame, unpack_vp_batch_frame
from repro.store.codec import (
    FRAME_HEADER_BYTES,
    RECORD_DTYPE,
    RECORD_OVERHEAD_BYTES,
    encode_vp_batch,
)
from tests.net.reference_validation import reference_unpack_vp_batch_frame

#: one record of an upload frame: sidecar + body of a complete VP
RECORD_BYTES = RECORD_DTYPE.itemsize

#: offset of each field inside a record, and its struct format
RECORD_FIELDS = {
    "flags": (0, ">B"),
    "minute": (1, ">I"),
    "body_len": (53, ">I"),
    "version": (57, ">B"),
    "bloom_k": (58, ">H"),
    "block_len": (60, ">I"),
}

#: where the 60 packed digests of a record start
DIGESTS_AT = RECORD_OVERHEAD_BYTES + 7

#: doubles a sidecar box or a digest time may be overwritten with
ODD_FLOATS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0, -1.0, 1e300]),
    st.floats(allow_nan=True, allow_infinity=True),
)


def complete_vp(seed: int) -> ViewProfile:
    """A 60-digest VP of a seeded minute, some of it at negative coordinates."""
    gen = VDGenerator(make_secret(seed))
    minute = seed % 4
    x0, y0 = 300.0 * (seed - 4), -70.0 * seed
    gen.record(
        [minute * 60.0 + i + 1 for i in range(60)],
        [(x0 + 2.5 * i, y0 - 0.5 * i) for i in range(60)],
        [b"chunk"] * 60,
    )
    return build_view_profile(gen.digests, NeighborTable())


POOL = [complete_vp(seed) for seed in range(1, 9)]


def verdict(validate, frame: bytes):
    """What a validator made of a frame: its batch, or its message."""
    try:
        batch = validate(frame)
    except ValidationError as exc:
        return "rejected", str(exc)
    spans = [bytes(batch.record_span(i)) for i in range(len(batch))]
    return "accepted", batch.meta, spans


@st.composite
def frames(draw):
    """A valid frame of 1..8 pool VPs (repeats allowed: ids are not policed here)."""
    picks = draw(st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=8))
    return bytearray(pack_vp_batch_frame([POOL[i] for i in picks])), len(picks)


@st.composite
def record_corruptions(draw, record: int, framing: bool = True):
    """A function overwriting one field of record ``record`` of a frame.

    ``framing=False`` leaves ``body_len`` alone, so the frame's record
    geometry stays intact and the corruption is the record's alone.
    """
    base = FRAME_HEADER_BYTES + record * RECORD_BYTES
    kind = draw(st.sampled_from(["sidecar", "bbox", "vp_id", "digest"]))
    if kind == "sidecar":
        names = sorted(RECORD_FIELDS) if framing else sorted(set(RECORD_FIELDS) - {"body_len"})
        offset, fmt = RECORD_FIELDS[draw(st.sampled_from(names))]
        top = (1 << (8 * struct.calcsize(fmt))) - 1
        value = draw(st.integers(0, top))
        step = draw(st.sampled_from([None, -1, 1]))  # or one off the current value

        def apply(frame: bytearray) -> None:
            if step is not None:
                (current,) = struct.unpack_from(fmt, frame, base + offset)
                written = (current + step) % (top + 1)
            else:
                written = value
            struct.pack_into(fmt, frame, base + offset, written)

    elif kind == "bbox":
        corner = draw(st.integers(0, 3))
        how = draw(st.sampled_from(["odd", "invert", "nudge"]))
        odd = draw(ODD_FLOATS)
        toward = draw(st.sampled_from([-1e9, 1e9]))

        def apply(frame: bytearray) -> None:
            box = list(struct.unpack_from(">4d", frame, base + 5))
            if how == "odd":
                box[corner] = odd
            elif how == "invert":
                axis = corner % 2
                box[axis], box[axis + 2] = box[axis + 2] + 1.0, box[axis]
            else:
                box[corner] = float(np.nextafter(box[corner], toward))
            struct.pack_into(">4d", frame, base + 5, *box)

    elif kind == "vp_id":
        at = base + 37 + draw(st.integers(0, 15))
        flip = draw(st.integers(1, 255))

        def apply(frame: bytearray) -> None:
            frame[at] ^= flip

    else:
        digest = base + DIGESTS_AT + draw(st.integers(0, 59)) * VD_MESSAGE_BYTES
        field = draw(st.sampled_from(["t", "location", "second_index", "vp_id"]))
        at = digest + PACKED_FIELD[field].start
        if field == "t":
            odd = draw(ODD_FLOATS)
            how = draw(st.sampled_from(["odd", "minute back", "minute on", "negate"]))

            def apply(frame: bytearray) -> None:
                (t,) = struct.unpack_from(">d", frame, at)
                new = {"odd": odd, "minute back": t - 60.0, "minute on": t + 60.0, "negate": -t}
                struct.pack_into(">d", frame, at, new[how])

        elif field == "location":
            at += 4 * draw(st.integers(0, 1))
            value = draw(
                st.one_of(
                    st.sampled_from(
                        [float("nan"), float("inf"), -float("inf"), 3.4028235e38, -3.4028235e38]
                    ),
                    st.floats(width=32, allow_nan=False, allow_infinity=False),
                    st.floats(-2e4, 2e4, width=32),
                )
            )

            def apply(frame: bytearray) -> None:
                struct.pack_into(">f", frame, at, value)

        elif field == "second_index":
            value = draw(st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([0, 61, -1, 1])))

            def apply(frame: bytearray) -> None:
                (second,) = struct.unpack_from(">Q", frame, at)
                new = (second + value) % 2**64 if value in (-1, 1) else value
                struct.pack_into(">Q", frame, at, new)

        else:
            at += draw(st.integers(0, 15))
            flip = draw(st.integers(1, 255))

            def apply(frame: bytearray) -> None:
                frame[at] ^= flip

    return apply


@st.composite
def corrupted_frames(draw):
    """A frame with one field corrupted: a record's, the header's, or its length."""
    frame, n = draw(frames())
    where = draw(st.sampled_from(["record"] * 4 + ["count", "version", "truncate", "trail"]))
    if where == "record":
        draw(record_corruptions(draw(st.integers(0, n - 1))))(frame)
    elif where == "count":
        value = draw(st.one_of(st.integers(0, 2**32 - 1), st.sampled_from([0, n - 1, n + 1])))
        struct.pack_into(">I", frame, 1, value)
    elif where == "version":
        frame[0] = draw(st.integers(0, 255))
    elif where == "truncate":
        del frame[draw(st.integers(0, len(frame) - 1)) :]
    else:
        frame += draw(st.binary(min_size=1, max_size=3))
    return bytes(frame)


@settings(max_examples=500, deadline=None)
@given(frame=corrupted_frames())
def test_one_corrupted_field_gets_the_reference_verdict(frame):
    assert verdict(unpack_vp_batch_frame, frame) == verdict(
        reference_unpack_vp_batch_frame, frame
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_the_earlier_of_two_corrupted_records_is_reported(data):
    clean, n = data.draw(frames().filter(lambda drawn: drawn[1] >= 2))
    first, second = sorted(
        data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    )
    corrupt_first = data.draw(record_corruptions(first, framing=False))
    corrupt_second = data.draw(record_corruptions(second, framing=False))
    frames_by_damage = {}
    for damage in ("first", "second", "both"):
        frame = bytearray(clean)
        if damage != "second":
            corrupt_first(frame)
        if damage != "first":
            corrupt_second(frame)
        frames_by_damage[damage] = bytes(frame)
    got = {k: verdict(unpack_vp_batch_frame, f) for k, f in frames_by_damage.items()}
    assert got["both"] == verdict(reference_unpack_vp_batch_frame, frames_by_damage["both"])
    # whatever the later record carries, a broken earlier one decides
    decides = "first" if got["first"][0] == "rejected" else "second"
    if got[decides][0] == "rejected":
        assert got["both"] == got[decides]


def _second_record(offset: int, fmt: str, change) -> bytes:
    """A three-VP frame whose middle record has one field rewritten."""
    frame = bytearray(pack_vp_batch_frame(POOL[:3]))
    at = FRAME_HEADER_BYTES + RECORD_BYTES + offset
    (value,) = struct.unpack_from(fmt, frame, at)
    struct.pack_into(fmt, frame, at, change(value))
    return bytes(frame)


def _digest(j: int, field: str) -> int:
    return DIGESTS_AT + j * VD_MESSAGE_BYTES + PACKED_FIELD[field].start


def _swapped_seconds() -> bytes:
    frame = bytearray(pack_vp_batch_frame(POOL[:3]))
    first = FRAME_HEADER_BYTES + RECORD_BYTES + _digest(3, "second_index")
    struct.pack_into(">Q", frame, first, 5)
    struct.pack_into(">Q", frame, first + VD_MESSAGE_BYTES, 4)
    return bytes(frame)


#: one frame per rule, broken in its second record, and the message's gist
EACH_RULE = {
    "trusted": (_second_record(0, ">B", lambda v: v | 1), "cannot claim trusted status"),
    "short body": (
        encode_vp_batch([POOL[0], build_view_profile(POOL[1].digests[:59], NeighborTable())]),
        "digest block is 4248 bytes, expected 4320",
    ),
    "box not finite": (_second_record(5, ">d", lambda v: float("nan")), "not a finite box"),
    "box inverted": (_second_record(5, ">d", lambda v: v + 1e5), "not a finite box"),
    "blob version": (_second_record(57, ">B", lambda v: 2), "unsupported VP blob version 2"),
    "zero k": (_second_record(58, ">H", lambda v: 0), "zero-hash bloom filter"),
    "small k": (_second_record(58, ">H", lambda v: v - 1), "bloom k=7; uploads must use k=8"),
    "block length": (_second_record(60, ">I", lambda v: v - 72), "block is 4248 bytes"),
    "second range": (
        _second_record(_digest(59, "second_index"), ">Q", lambda v: 61),
        "second index must be 1..60",
    ),
    "shared id": (
        _second_record(_digest(7, "vp_id"), ">B", lambda v: v ^ 1),
        "must share one R value",
    ),
    "increasing": (_swapped_seconds(), "increasing second indices"),
    "finite time": (
        _second_record(_digest(9, "t"), ">d", lambda v: float("inf")),
        "non-finite time/location",
    ),
    "finite location": (
        _second_record(_digest(9, "location"), ">f", lambda v: float("nan")),
        "non-finite time/location",
    ),
    "extent": (
        _second_record(_digest(30, "location"), ">f", lambda v: v + 2e4),
        "span more than 10000 m",
    ),
    "sidecar id": (_second_record(37, ">B", lambda v: v ^ 1), "keyed by a different vp_id"),
    "exact box": (
        _second_record(21, ">d", lambda v: float(np.nextafter(v, 1e9))),
        "does not match the body's locations",
    ),
    "minute": (_second_record(1, ">I", lambda v: v + 1), "does not match the claimed minute"),
    "start time": (
        _second_record(_digest(0, "t"), ">d", lambda v: -v),
        "does not match the claimed minute",
    ),
}


@pytest.mark.parametrize("rule", sorted(EACH_RULE))
def test_each_rule_rejects_with_the_reference_message(rule):
    frame, gist = EACH_RULE[rule]
    got = verdict(unpack_vp_batch_frame, frame)
    assert got == verdict(reference_unpack_vp_batch_frame, frame)
    assert got[0] == "rejected" and gist in got[1]


def test_a_clean_frame_is_accepted_with_the_reference_batch():
    frame = pack_vp_batch_frame(POOL)
    got = verdict(unpack_vp_batch_frame, frame)
    assert got[0] == "accepted"
    assert got == verdict(reference_unpack_vp_batch_frame, frame)


def test_an_empty_frame_is_an_empty_batch():
    frame = pack_vp_batch_frame([])
    assert verdict(unpack_vp_batch_frame, frame) == ("accepted", [], [])
    assert verdict(reference_unpack_vp_batch_frame, frame) == ("accepted", [], [])


@pytest.mark.parametrize("record", [0, 3, 7])
def test_a_memoryview_frame_validates_like_bytes(record):
    frame = bytearray(pack_vp_batch_frame(POOL))
    frame[FRAME_HEADER_BYTES + record * RECORD_BYTES + 37] ^= 1  # sidecar vp_id
    view = memoryview(bytes(frame)).toreadonly()
    with pytest.raises(ValidationError, match="keyed by a different vp_id"):
        unpack_vp_batch_frame(view)
    with pytest.raises(ValidationError, match="keyed by a different vp_id"):
        reference_unpack_vp_batch_frame(view)


def test_the_record_dtype_is_the_codec_record():
    vp = POOL[0]
    records = np.frombuffer(
        pack_vp_batch_frame([vp]), RECORD_DTYPE, 1, FRAME_HEADER_BYTES
    )
    assert RECORD_BYTES == RECORD_OVERHEAD_BYTES + FRAME_BODY_BYTES == 4640
    assert records["vp_id"][0].tobytes() == vp.vp_id
    assert records["minute"][0] == vp.minute
    assert tuple(records["bbox"][0].tolist()) == vp.bounding_box
    assert records["digests"][0].tobytes() == vp.digest_block()
    assert records["bloom"][0].tobytes() == vp.bloom.to_bytes()
