"""Tests for protocol wire formats."""

import pytest

from repro.errors import ValidationError, WireFormatError
from repro.net.messages import (
    decode_message,
    encode_message,
    pack_vp_batch_frame,
    unpack_vp_batch_frame,
)
from repro.store.codec import RECORD_OVERHEAD_BYTES, decode_vp_batch
from tests.core.test_viewprofile import make_vp


class TestVPWireFormat:
    """A single VP on the wire is a frame of one."""

    def test_wire_size(self):
        # batch header + record sidecar + blob header, then Section 6.1's
        # 60 VDs and Bloom bits (minus the secret that stays on board)
        frame = pack_vp_batch_frame([make_vp(seed=1)])
        assert len(frame) == 5 + RECORD_OVERHEAD_BYTES + 7 + 60 * 72 + 256

    def test_roundtrip(self):
        vp = make_vp(seed=2)
        (restored,) = decode_vp_batch(pack_vp_batch_frame([vp]))
        assert restored.vp_id == vp.vp_id
        assert len(restored.digests) == 60
        assert restored.bloom.to_bytes() == vp.bloom.to_bytes()
        assert restored.positions_array.tolist() == vp.positions_array.tolist()

    def test_trusted_vp_never_packed(self):
        vp = make_vp(seed=3)
        vp.trusted = True
        with pytest.raises(WireFormatError):
            pack_vp_batch_frame([vp])

    def test_incomplete_vp_rejected(self):
        vp = make_vp(seed=4, n=30)
        with pytest.raises(WireFormatError):
            pack_vp_batch_frame([vp])

    def test_wrong_size_rejected(self):
        with pytest.raises(ValidationError):
            unpack_vp_batch_frame(b"\x00" * 100)


def envelope(header: bytes, *attachments: bytes) -> bytes:
    """Hand-build ``u32 header length | header | attachments``."""
    return len(header).to_bytes(4, "big") + header + b"".join(attachments)


#: every malformed shape the envelope must refuse — shared with the
#: server / fabric boundary tests in ``tests/net/test_envelope.py``
MALFORMED_ENVELOPES = {
    "empty buffer": b"",
    "shorter than the length prefix": b"\x00\x00\x01",
    "header length past the end": (500).to_bytes(4, "big") + b'{"kind":"x"}',
    "header not UTF-8": envelope(b'{"kind":"\xff\xfe"}'),
    "header UTF-16, not UTF-8": envelope('{"kind":"x"}'.encode("utf-16")),
    "header not JSON": envelope(b"\x00\x01not json"),
    "header not an object": envelope(b'["kind"]'),
    "header nested past the recursion limit": envelope(
        b'{"kind":"x","v":' + b"[" * 50_000 + b"]" * 50_000 + b"}"
    ),
    "missing kind": envelope(b'{"session":"s"}'),
    "kind not a string": envelope(b'{"kind":["upload_vp"],"session":"s"}'),
    "old hex-in-JSON form": b'{"kind": "x", "vp": {"hex": "00ff"}}',
    "marker length negative": envelope(b'{"kind":"x","v":{"$bytes":-1}}'),
    "marker length a string": envelope(b'{"kind":"x","v":{"$bytes":"4"}}', b"abcd"),
    "marker length a float": envelope(b'{"kind":"x","v":{"$bytes":4.0}}', b"abcd"),
    "marker length a bool": envelope(b'{"kind":"x","v":{"$bytes":true}}', b"a"),
    "marker length null": envelope(b'{"kind":"x","v":{"$bytes":null}}'),
    "marker runs past the buffer": envelope(b'{"kind":"x","v":{"$bytes":10}}', b"abcd"),
    "nested marker runs past the buffer": envelope(
        b'{"kind":"x","v":[{"$bytes":2},{"d":{"$bytes":3}}]}', b"abcd"
    ),
    "huge marker": envelope(b'{"kind":"x","v":{"$bytes":' + b"9" * 400 + b"}}", b"abcd"),
    "trailing unclaimed bytes": envelope(b'{"kind":"x","v":{"$bytes":4}}', b"abcd", b"x"),
    "trailing bytes, no markers": envelope(b'{"kind":"x"}', b"x"),
}


class TestEnvelope:
    def test_roundtrip_with_bytes_fields(self):
        msg = encode_message("upload_video", vp_id=b"\x01\x02", chunks=[b"a", b"b"])
        decoded = decode_message(msg)
        assert decoded["kind"] == "upload_video"
        assert decoded["vp_id"] == b"\x01\x02"
        assert decoded["chunks"] == [b"a", b"b"]

    def test_layout_is_header_then_raw_attachments(self):
        # binary fields ride raw behind a compact sorted-key header,
        # in sorted-key traversal order — never as text inside it
        msg = encode_message("k", z=b"\xffZZ", a=[b"A", 7], m={"y": b"", "x": b"XX"})
        header = (
            b'{"a":[{"$bytes":1},7],"kind":"k",'
            b'"m":{"x":{"$bytes":2},"y":{"$bytes":0}},"z":{"$bytes":3}}'
        )
        assert msg == envelope(header, b"A", b"XX", b"", b"\xffZZ")

    def test_kwargs_order_does_not_move_attachments(self):
        # a sender's field order differing from the header's sorted
        # order must not swap same-length fields on the way back
        one = encode_message("k", b=b"BBBB", a=b"AAAA", c=[b"CCCC"])
        two = encode_message("k", c=[b"CCCC"], a=b"AAAA", b=b"BBBB")
        assert one == two
        decoded = decode_message(one)
        assert (decoded["a"], decoded["b"], decoded["c"]) == (b"AAAA", b"BBBB", [b"CCCC"])

    def test_scalar_fields_pass_through(self):
        decoded = decode_message(encode_message("offer", units=5, label="x"))
        assert decoded["units"] == 5
        assert decoded["label"] == "x"

    def test_nested_structures(self):
        decoded = decode_message(
            encode_message("n", data={"inner": [b"\xff", 3]})
        )
        assert decoded["data"]["inner"] == [b"\xff", 3]

    def test_empty_and_multi_megabyte_attachments(self):
        big = bytes(range(256)) * (3 * 4096)  # 3 MiB
        decoded = decode_message(encode_message("view", frame=big, empty=b"", n=1))
        assert decoded["frame"] == big
        assert decoded["empty"] == b""
        assert type(decoded["empty"]) is bytes

    def test_bytes_like_inputs_and_buffers(self):
        frame = bytes(range(64))
        msg = encode_message(
            "k", view=memoryview(frame)[8:24], array=bytearray(b"ab"), plain=frame
        )
        for buffer in (msg, bytearray(msg), memoryview(msg)):
            decoded = decode_message(buffer)
            assert decoded["view"] == frame[8:24]
            assert decoded["array"] == b"ab"
            assert decoded["plain"] == frame
            assert all(type(decoded[k]) is bytes for k in ("view", "array", "plain"))

    def test_marker_shaped_user_dict_rejected_at_encode(self):
        # it could not be told from a real marker on the way back
        with pytest.raises(WireFormatError, match="marker"):
            encode_message("k", v={"$bytes": 4})
        with pytest.raises(WireFormatError, match="marker"):
            encode_message("k", v=[{"deep": {"$bytes": "zz"}}])
        with pytest.raises(WireFormatError, match="str keys"):
            encode_message("k", v={1: b"a", 10: b"b"})
        # a dict that merely *contains* the key is ordinary data
        decoded = decode_message(encode_message("k", v={"$bytes": 4, "other": b"x"}))
        assert decoded["v"] == {"$bytes": 4, "other": b"x"}

    @pytest.mark.parametrize("case", sorted(MALFORMED_ENVELOPES))
    def test_malformed_envelope_rejected(self, case):
        with pytest.raises(WireFormatError):
            decode_message(MALFORMED_ENVELOPES[case])

    def test_truncation_at_every_boundary_rejected(self):
        msg = encode_message("upload_video", vp_id=b"\x01" * 16, chunks=[b"ab", b"cd"])
        for cut in range(len(msg)):
            with pytest.raises(WireFormatError):
                decode_message(msg[:cut])
