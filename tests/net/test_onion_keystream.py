"""The word-wide keystream XOR is byte-identical to the per-byte loop.

``repro.net.onion._keystream_xor`` builds its SHA-256 CTR keystream in
one join and XORs the whole layer as two big integers.  The per-byte
loop it replaced lives on here as the reference: same construction,
same counter encoding, so every ciphertext an older peer produced still
unwraps — across block boundaries, empty layers and layers larger than
a full 4-VP upload.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.onion import OnionNetwork, _keystream_xor
from repro.net.transport import InMemoryNetwork

BOUNDARY_LENGTHS = [0, 1, 31, 32, 33, 63, 64, 65, 255, 256, 257, 4_710, 18_841, 40_000]


def reference_keystream_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """The original implementation: one byte per bytecode loop."""
    out = bytearray(len(data))
    counter = 0
    offset = 0
    while offset < len(data):
        block = hashlib.sha256(key + nonce + counter.to_bytes(8, "big")).digest()
        n = min(len(block), len(data) - offset)
        for i in range(n):
            out[offset + i] = data[offset + i] ^ block[i]
        offset += n
        counter += 1
    return bytes(out)


class TestKeystreamMatchesReference:
    @given(
        key=st.binary(max_size=48),
        nonce=st.binary(max_size=24),
        length=st.one_of(st.sampled_from(BOUNDARY_LENGTHS), st.integers(0, 2_048)),
        fill=st.randoms(use_true_random=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_byte_identical(self, key, nonce, length, fill):
        data = fill.randbytes(length)
        expected = reference_keystream_xor(key, nonce, data)
        assert _keystream_xor(key, nonce, data) == expected
        assert _keystream_xor(key, nonce, expected) == data

    @pytest.mark.parametrize("length", BOUNDARY_LENGTHS)
    def test_leading_zero_bytes_survive(self, length):
        # a big-integer XOR must not drop high-order zero bytes
        key, nonce = b"k" * 32, b"n" * 16
        stream = reference_keystream_xor(key, nonce, bytes(length))
        assert _keystream_xor(key, nonce, stream) == bytes(length)
        assert _keystream_xor(key, nonce, bytes(length)) == stream

    def test_accepts_buffer_views(self):
        key, nonce, data = b"k" * 32, b"n" * 16, bytes(range(100))
        expected = reference_keystream_xor(key, nonce, data)
        assert _keystream_xor(key, nonce, memoryview(data)) == expected
        assert _keystream_xor(key, nonce, bytearray(data)) == expected


class TestCircuitRoundTrip:
    @given(
        payload=st.one_of(
            st.binary(max_size=200),
            st.sampled_from(BOUNDARY_LENGTHS).map(lambda n: bytes(range(256)) * (n // 256 + 1)),
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_wrap_three_relays_unwrap_reply(self, payload, seed):
        net = InMemoryNetwork()
        seen = []

        def authority(request: bytes) -> bytes:
            seen.append(request)
            return b"ack:" + request[::-1]

        net.register("authority", authority)
        onion = OnionNetwork(network=net, n_relays=6, hops=3, seed=seed)
        circuit = onion.build_circuit()
        wrapped = circuit.wrap("authority", payload)
        # each relay strips exactly the layer the reference would have
        layer = wrapped
        for relay in circuit.relays:
            nonce, body = layer[4:20], layer[24:]
            assert nonce == circuit.nonce
            plain = reference_keystream_xor(relay.key, nonce, body)
            hop_len = int.from_bytes(plain[:4], "big")
            layer = plain[4 + hop_len + 4 :]
        assert layer == payload
        reply = net.send("client", circuit.relays[0].address, wrapped)
        assert seen == [payload]
        assert circuit.unwrap_reply(reply) == b"ack:" + payload[::-1]
