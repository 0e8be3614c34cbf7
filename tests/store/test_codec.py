"""The per-VP storage blob: what of it is memoized, and what is not.

A VP's digests never change once it exists, so the joined digest block
is kept; its Bloom filter does change (guards and colluding attackers
add neighbours after construction), so the blob is always composed from
the live bits.
"""

from __future__ import annotations

import pytest

from repro.store.codec import decode_vp, encode_vp
from tests.store.conftest import make_vp


def test_digest_block_is_joined_once():
    vp = make_vp(seed=1)
    assert vp.digest_block() is vp.digest_block()
    assert encode_vp(vp) == encode_vp(vp)
    assert decode_vp(encode_vp(vp)).digest_block() == vp.digest_block()


def test_blob_follows_bloom_mutated_after_first_encode():
    """Regression: a memoized blob dropped linkage added after encoding."""
    a, b = make_vp(seed=1), make_vp(seed=2)
    key = b.digests[0].bloom_key()
    before = encode_vp(a)
    assert key not in decode_vp(before).bloom
    a.bloom.add(key)
    after = encode_vp(a)
    assert after != before
    assert key in decode_vp(after).bloom
    assert decode_vp(after).may_link_to(b)


def test_decoded_vp_reencodes_to_the_same_bytes():
    for n in (1, 4, 60):
        blob = encode_vp(make_vp(seed=n, n=n))
        assert encode_vp(decode_vp(blob)) == blob
        assert encode_vp(decode_vp(memoryview(blob))) == blob


def test_digests_cannot_be_reassigned():
    """Regression: reassignment left keys, arrays and bbox stale."""
    for vp in (make_vp(seed=1), decode_vp(encode_vp(make_vp(seed=1)))):
        with pytest.raises(AttributeError):
            vp.digests = list(vp.digests[:2])
        assert vp.bloom_keys()[0] == vp.digests[0].pack()
