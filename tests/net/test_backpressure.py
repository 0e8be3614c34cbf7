"""Backpressure properties: bounded admission, retry hints, clean sheds.

Two layers:

* :class:`~repro.obs.admission.AdmissionController` in isolation —
  under any interleaving of admits and releases the per-shard depth
  bound and the global pending-bytes cap are never exceeded, every
  rejection yields a strictly positive ``retry_after``, and releasing
  everything returns the controller to empty.
* the streaming transport end-to-end — with the store gated shut and
  the admission queue full, every rejected upload gets a ``busy`` reply
  carrying ``retry_after``, **nothing** from a rejected upload lands in
  the store, and the acks for the admitted uploads resolve unaffected
  once the store opens.
"""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import ViewMapSystem
from repro.net.concurrency import ConcurrentViewMapServer
from repro.net.messages import decode_message, pack_vp_batch_frame
from repro.net.streaming import StreamingNetwork
from repro.obs.admission import AdmissionController
from repro.obs.metrics import counter_value
from repro.store import SegmentStore
from tests.net.test_wire_frame import make_complete_vp

# ---------------------------------------------------------------------------
# Controller invariants in isolation
# ---------------------------------------------------------------------------

ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("admit"), st.integers(0, 7), st.integers(1, 4096)),
        st.tuples(st.just("release"), st.just(0), st.just(0)),
    ),
    max_size=60,
)


@given(
    ops=ops_strategy,
    n_shards=st.integers(1, 4),
    max_depth=st.integers(1, 5),
    max_pending=st.integers(2048, 16384),
)
@settings(max_examples=200, deadline=None)
def test_admission_controller_invariants(ops, n_shards, max_depth, max_pending):
    ctrl = AdmissionController(
        n_shards=n_shards, max_depth=max_depth, max_pending_bytes=max_pending
    )
    held = []
    rejections = 0
    for op, shard, nbytes in ops:
        if op == "admit":
            shard %= n_shards
            ticket = ctrl.try_admit(shard, nbytes)
            if ticket is None:
                rejections += 1
                assert ctrl.retry_after(shard) > 0.0
            else:
                held.append(ticket)
                assert ctrl.depth(shard) <= max_depth
                assert ctrl.pending_bytes() <= max_pending
        elif held:
            ctrl.release(held.pop())
    snap = ctrl.metrics.snapshot()
    assert counter_value(snap, "server.upload.shed") in (0, rejections)
    for ticket in held:
        ctrl.release(ticket)
    assert all(ctrl.depth(s) == 0 for s in range(n_shards))
    assert ctrl.pending_bytes() == 0


def test_retry_after_scales_with_depth():
    ctrl = AdmissionController(n_shards=1, max_depth=8)
    idle = ctrl.retry_after(0)
    tickets = [ctrl.try_admit(0, 100) for _ in range(4)]
    assert all(tickets)
    assert ctrl.retry_after(0) > idle, "deeper queue, longer hint"
    assert ctrl.retry_after(0) == pytest.approx(ctrl.retry_base_s * 5)
    for t in tickets:
        ctrl.release(t)


# ---------------------------------------------------------------------------
# End-to-end: full queue on the streaming transport
# ---------------------------------------------------------------------------


class GatedStore(SegmentStore):
    """A store whose one write path blocks until the gate opens."""

    def __init__(self) -> None:
        super().__init__()
        self.gate = threading.Event()

    def write(self, batch, strict: bool = False):
        assert self.gate.wait(30.0), "test gate never opened"
        return super().write(batch, strict=strict)


@pytest.fixture(scope="module")
def vp_pool():
    return [make_complete_vp(seed) for seed in range(1, 8)]


def wait_for_depth(net: StreamingNetwork, depth: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while net.admission.depth(0) < depth:
        assert time.monotonic() < deadline, "admitted uploads never reached ingest"
        time.sleep(0.005)


@given(n_admitted=st.integers(1, 3), n_rejected=st.integers(1, 4))
@settings(max_examples=8, deadline=None)
def test_full_queue_sheds_cleanly(vp_pool, n_admitted, n_rejected):
    store = GatedStore()
    with ViewMapSystem(key_bits=512, seed=3, store=store) as system:
        with StreamingNetwork(
            workers=4, admission_shards=1, admission_depth=n_admitted
        ) as net:
            server = ConcurrentViewMapServer(system=system, network=net)
            # fill the admission queue: each upload blocks inside the store
            admitted = []
            for i in range(n_admitted):
                conn = net.connect(server.address)
                frame = pack_vp_batch_frame([vp_pool[i]])
                admitted.append(conn.upload_frame_async(frame))
            wait_for_depth(net, n_admitted)
            # every further upload is shed with a usable retry hint...
            for i in range(n_rejected):
                conn = net.connect(server.address)
                frame = pack_vp_batch_frame([vp_pool[n_admitted + i]])
                busy = conn.upload_frame(frame)
                assert busy["kind"] == "busy"
                assert busy["retry_after"] > 0.0
            # ...nothing of a rejected upload ever landed,
            assert len(system.database) == 0
            # and the admitted acks resolve unaffected once the store opens
            store.gate.set()
            for future in admitted:
                ack = decode_message(future.result(30.0))
                assert ack["kind"] == "batch_ack"
                assert ack["accepted"] == [True]
                assert ack["inserted"] == 1
            assert len(system.database) == n_admitted
            snap = net.metrics.snapshot()
            assert counter_value(snap, "server.upload.shed") >= n_rejected
