"""Streaming-vs-threaded parity: byte-identical store contents.

The streaming front-end must be a pure transport optimization: a
sequence of batch uploads driven through a held streaming connection
and the same sequence through the buffer-whole threaded fabric leave
**byte-identical** store contents (ids, minutes, trusted flags, encoded
bodies, per-minute order) and identical acks — hypothesis-checked on
both placements, memory and sqlite.

Uploads are sequential within each arm, so insertion order is
deterministic and the comparison is exact, not just set-equal.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import ViewMapSystem
from repro.net.concurrency import ConcurrentViewMapServer, ThreadedNetwork
from repro.net.messages import decode_message, encode_message, pack_vp_batch_frame
from repro.net.streaming import StreamingNetwork
from tests.net.test_wire_frame import (
    POOL_SIZE,
    make_complete_vp,
    store_contents,
)
from tests.store.conftest import build_store


@pytest.fixture(scope="module")
def vp_pool():
    return [make_complete_vp(seed) for seed in range(1, POOL_SIZE + 1)]


#: several batches per example so cross-request duplicates are exercised
compositions_strategy = st.lists(
    st.lists(st.integers(0, POOL_SIZE - 1), min_size=1, max_size=5),
    min_size=1,
    max_size=3,
)


def run_threaded(backend: str, pool, compositions) -> tuple[list, dict]:
    with ViewMapSystem(key_bits=512, seed=3, store=build_store(backend)) as system:
        with ThreadedNetwork(workers=2) as net:
            server = ConcurrentViewMapServer(system=system, network=net)
            replies = []
            for composition in compositions:
                frame = pack_vp_batch_frame([pool[i] for i in composition])
                payload = encode_message("upload_vp_batch", session="s", frame=frame)
                replies.append(decode_message(net.send("v", server.address, payload)))
            return replies, store_contents(system)


def run_streaming(backend: str, pool, compositions) -> tuple[list, dict]:
    with ViewMapSystem(key_bits=512, seed=3, store=build_store(backend)) as system:
        with StreamingNetwork(workers=2) as net:
            server = ConcurrentViewMapServer(system=system, network=net)
            conn = net.connect(server.address)
            replies = [
                conn.upload_frame(pack_vp_batch_frame([pool[i] for i in composition]))
                for composition in compositions
            ]
            return replies, store_contents(system)


def assert_transport_parity(backend: str, pool, compositions) -> None:
    threaded_replies, threaded = run_threaded(backend, pool, compositions)
    streamed_replies, streamed = run_streaming(backend, pool, compositions)
    for a, b in zip(threaded_replies, streamed_replies):
        assert a["kind"] == b["kind"] == "batch_ack"
        assert a["accepted"] == b["accepted"]
        assert a["inserted"] == b["inserted"]
    assert threaded == streamed


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@given(compositions=compositions_strategy)
@settings(max_examples=10, deadline=None)
def test_streaming_and_threaded_store_identical_bytes(backend, vp_pool, compositions):
    assert_transport_parity(backend, vp_pool, compositions)
