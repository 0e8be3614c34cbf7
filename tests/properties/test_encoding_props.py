"""Property-based tests for wire encodings."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.viewdigest import ViewDigest
from repro.errors import WireFormatError
from repro.net.messages import decode_message, encode_message
from repro.util.encoding import f32round

f32 = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).map(f32round)


@st.composite
def view_digests(draw):
    return ViewDigest(
        second_index=draw(st.integers(min_value=1, max_value=60)),
        t=draw(st.floats(min_value=0, max_value=1e9, allow_nan=False)),
        location=(draw(f32), draw(f32)),
        file_size=draw(st.integers(min_value=0, max_value=2**50)),
        initial_location=(draw(f32), draw(f32)),
        vp_id=draw(st.binary(min_size=16, max_size=16)),
        chain_hash=draw(st.binary(min_size=16, max_size=16)),
    )


class TestViewDigestWire:
    @given(view_digests())
    @settings(max_examples=60)
    def test_pack_unpack_identity(self, vd):
        assert ViewDigest.unpack(vd.pack()) == vd

    @given(view_digests())
    @settings(max_examples=40)
    def test_wire_always_72_bytes(self, vd):
        assert len(vd.pack()) == 72


field_names = st.text(min_size=1, max_size=10).filter(lambda s: s not in ("kind", "$bytes"))

leaves = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31),
    st.text(max_size=30),
    st.booleans(),
    st.none(),
    st.binary(max_size=40),
)

#: bytes / list / dict / int / str / bool, nested a few levels deep
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(field_names, inner, max_size=4)
    ),
    max_leaves=12,
)


@st.composite
def shuffled_fields(draw):
    """Message fields, plus the same fields in a random kwargs order."""
    fields = draw(st.dictionaries(field_names, values, max_size=6))
    order = draw(st.permutations(sorted(fields)))
    return fields, {name: fields[name] for name in order}


def as_views(value):
    """The same structure with every ``bytes`` as a memoryview."""
    if isinstance(value, bytes):
        return memoryview(value)
    if isinstance(value, list):
        return [as_views(v) for v in value]
    if isinstance(value, dict):
        return {k: as_views(v) for k, v in value.items()}
    return value


class TestEnvelopeProperties:
    @given(shuffled_fields())
    @settings(max_examples=150)
    def test_roundtrip_in_any_kwargs_order(self, drawn):
        # attachments are ordered by the header's sorted-key traversal,
        # not by the order the sender passed its fields — a mismatch
        # would silently swap two binary fields
        fields, shuffled = drawn
        wire = encode_message("test", **shuffled)
        assert wire == encode_message("test", **fields)
        assert decode_message(wire) == {"kind": "test", **fields}

    @given(shuffled_fields())
    @settings(max_examples=50)
    def test_memoryview_inputs_encode_identically(self, drawn):
        fields, shuffled = drawn
        assert encode_message("test", **as_views(shuffled)) == encode_message("test", **fields)

    @given(st.lists(st.binary(max_size=30), max_size=10))
    @settings(max_examples=40)
    def test_byte_lists_roundtrip(self, chunks):
        decoded = decode_message(encode_message("video", chunks=chunks))
        assert decoded["chunks"] == chunks

    @given(shuffled_fields(), st.data())
    @settings(max_examples=80)
    def test_damaged_envelopes_fail_cleanly(self, drawn, data):
        # truncation or a flipped byte either still decodes or raises
        # WireFormatError — nothing else ever escapes the decoder
        wire = bytearray(encode_message("test", **drawn[1]))
        if data.draw(st.booleans()):
            del wire[data.draw(st.integers(0, len(wire) - 1)) :]
        else:
            wire[data.draw(st.integers(0, len(wire) - 1))] ^= data.draw(st.integers(1, 255))
        try:
            decode_message(bytes(wire))
        except WireFormatError:
            pass
