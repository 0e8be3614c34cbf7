"""Lifetime oracle: a closed authority is freed by reference counting.

The authority opens and closes fabrics, sessions and connections all
the time; every object graph built around one must be acyclic once it
is closed, so ``close()`` plus dropping the last reference frees it at
once rather than whenever the cycle collector next runs.  Each test
runs with the collector disabled: after ``close()`` and ``del``,
weakrefs to the server, the system, its store, the network and every
stream session and client connection must already be dead, and a full
collection afterwards must find no object whose type comes from
``repro``.
"""

from __future__ import annotations

import gc
import socket
import threading
import time
import weakref

import pytest

from repro.core.system import ViewMapSystem
from repro.core.vehicle import VehicleAgent
from repro.errors import NetworkError
from repro.net.client import VehicleClient
from repro.net.concurrency import ThreadedNetwork
from repro.net.messages import (
    STREAM_KIND_FRAME,
    STREAM_KIND_MSG,
    STREAM_MAGIC,
    FrameParser,
    decode_message,
    encode_message,
    pack_stream_record,
    pack_vp_batch_frame,
)
from repro.net.onion import OnionNetwork
from repro.net.server import ViewMapServer
from repro.net.streaming import StreamingNetwork
from repro.obs.metrics import counter_value
from repro.store import SegmentStore
from tests.conftest import run_linked_minute
from tests.net.test_wire_frame import make_complete_vp


@pytest.fixture
def no_collector():
    """Run the test with the cycle collector off (and earlier garbage gone)."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def repro_garbage() -> list[str]:
    """Names of the ``repro`` types among what a full collection finds."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return sorted(
            {
                f"{type(obj).__module__}.{type(obj).__qualname__}"
                for obj in gc.garbage
                if type(obj).__module__.startswith("repro")
            }
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.collect()


def alive(refs: list[weakref.ref]) -> list[str]:
    """Type names of the referents still alive."""
    return [type(obj).__qualname__ for ref in refs if (obj := ref()) is not None]


class GatedStore(SegmentStore):
    """A store whose write waits while the gate is shut."""

    def __init__(self) -> None:
        super().__init__()
        self.gate = threading.Event()
        self.gate.set()

    def write(self, batch, strict: bool = False):
        assert self.gate.wait(30.0), "test gate never opened"
        return super().write(batch, strict=strict)


def track_sessions(monkeypatch, refs: list[weakref.ref]) -> None:
    """Weakly record every session a streaming network starts, and the
    in-memory client connection it calls back."""
    start = StreamingNetwork._start_session

    def tracked(net, session) -> None:
        refs.append(weakref.ref(session))
        client = getattr(session.on_close, "__self__", None)
        if client is not None:
            refs.append(weakref.ref(client))
        start(net, session)

    monkeypatch.setattr(StreamingNetwork, "_start_session", tracked)


def wait_for(condition, what: str, timeout: float = 20.0) -> None:
    """Poll ``condition`` until it holds."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.01)


def read_records(sock: socket.socket, parser: FrameParser, want: int) -> list:
    """Read until ``want`` records arrived (or the peer hung up)."""
    records: list = []
    while len(records) < want and (data := sock.recv(65536)):
        records.extend(parser.feed(data))
    return records


def test_a_closed_threaded_authority_is_freed_without_the_collector(no_collector):
    net = ThreadedNetwork(workers=2)
    onion = OnionNetwork(network=net, n_relays=4, hops=2, seed=5)
    system = ViewMapSystem(key_bits=512, seed=6, store=SegmentStore())
    server = ViewMapServer(system=system, network=net)
    a = VehicleAgent(vehicle_id=1, seed=2)
    res_a, _ = run_linked_minute(a, VehicleAgent(vehicle_id=2, seed=3))
    client = VehicleClient(agent=a, onion=onion)
    client.queue_minute_output(res_a.actual_vp, res_a.guard_vps)
    staged = len(client.pending_vps)
    assert client.upload_pending_batch() == staged
    assert len(client.query_view(res_a.actual_vp.minute)) == staged
    refs = [weakref.ref(x) for x in (net, server, system, system.store, *onion.relays)]

    net.close()
    system.close()
    del net, onion, system, server, client

    assert alive(refs) == []
    assert repro_garbage() == []


def test_a_closed_streaming_authority_is_freed_without_the_collector(
    no_collector, monkeypatch
):
    refs: list[weakref.ref] = []
    track_sessions(monkeypatch, refs)
    vps = [make_complete_vp(seed) for seed in range(1, 5)]
    store = GatedStore()
    system = ViewMapSystem(key_bits=512, seed=3, store=store)
    net = StreamingNetwork(workers=2)
    server = ViewMapServer(system=system, network=net)
    refs += [weakref.ref(x) for x in (net, server, system, store)]

    # two held in-memory connections: a frame and a control round-trip
    first, second = net.connect(server.address), net.connect(server.address)
    assert first.upload_frame(pack_vp_batch_frame(vps[:1]))["inserted"] == 1
    assert second.request("public_key", session="s")["kind"] == "public_key"
    # one transient connection through the fabric contract
    reply = net.send("vehicle", server.address, encode_message("public_key", session="t"))
    assert decode_message(reply)["kind"] == "public_key"

    host, port = net.listen(server.address)
    # one TCP connection, still open when the network closes
    held = socket.create_connection((host, port), timeout=10.0)
    held.settimeout(10.0)
    parser = FrameParser()
    frame = pack_vp_batch_frame(vps[1:2])
    held.sendall(STREAM_MAGIC + pack_stream_record(STREAM_KIND_FRAME, frame))
    ack = read_records(held, parser, 1)
    assert decode_message(bytes(ack[0][1]))["inserted"] == 1
    # one TCP connection shed for a bad handshake
    with socket.create_connection((host, port), timeout=10.0) as shed:
        shed.settimeout(10.0)
        shed.sendall(b"HTTP/1.1 GET /")
        records = read_records(shed, FrameParser(), 2)
        assert "magic" in decode_message(bytes(records[-1][1]))["reason"]

    # one client that hangs up with an upload in flight
    store.gate.clear()
    leaving = net.connect(server.address)
    in_flight = leaving.upload_frame_async(pack_vp_batch_frame(vps[2:3]))
    deadline = time.monotonic() + 10.0
    while net.admission.pending_bytes() == 0:
        assert time.monotonic() < deadline, "the upload never reached ingest"
        time.sleep(0.005)
    leaving.close()
    with pytest.raises(NetworkError):
        in_flight.result(10.0)
    store.gate.set()

    net.close()
    system.close()
    assert held.recv(65536) == b"", "a closing network hangs up held TCP peers"
    held.close()
    del net, server, system, store, first, second, leaving, in_flight

    assert len(refs) == 4 + 2 * 4 + 2, "sessions: 4 in memory (with clients), 2 TCP"
    assert alive(refs) == []
    assert repro_garbage() == []


@pytest.mark.parametrize("hangs_up", [False, True], ids=["stays", "hangs-up"])
def test_a_shed_peer_that_never_reads_cannot_stall_close(no_collector, hangs_up):
    """A TCP peer that stops reading leaves replies unsent on the
    authority's transport.  Once it is shed — and also once it then
    hangs up its sending half, so its session ends before the network
    closes — ``close()`` must still end every task and free the graph.
    """
    vps = [make_complete_vp(seed) for seed in range(3, 3 * 41, 3)]  # 40, minute 0
    system = ViewMapSystem(key_bits=512, seed=3, store=SegmentStore())
    net = StreamingNetwork(workers=2)
    server = ViewMapServer(system=system, network=net)
    refs = [weakref.ref(x) for x in (net, server, system, system.store)]
    loader = net.connect(server.address)
    assert loader.upload_frame(pack_vp_batch_frame(vps))["inserted"] == len(vps)
    loader.close()

    host, port = net.listen(server.address)
    peer = socket.socket()
    peer.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    peer.connect((host, port))
    # ~11 MB of view replies against a few MB of socket buffers
    view = pack_stream_record(STREAM_KIND_MSG, encode_message("query_view", minute=0))
    peer.sendall(STREAM_MAGIC + view * 60)
    served = server.metrics.histogram("serve.encoded_bytes")
    seen = {"count": -1, "since": time.monotonic()}

    def stalled() -> bool:
        if served.count != seen["count"]:
            seen.update(count=served.count, since=time.monotonic())
        return time.monotonic() - seen["since"] > 0.3

    wait_for(stalled, "the reply writer to stall")
    assert 0 < served.count < 60, "the peer's buffers never filled"
    peer.sendall(b"\x7f" + bytes(4))  # an unknown record kind: shed
    wait_for(
        lambda: counter_value(net.metrics.snapshot(), "server.upload.shed") == 1, "the shed"
    )
    if hangs_up:
        peer.shutdown(socket.SHUT_WR)
        wait_for(
            lambda: net.metrics.snapshot()["stream.conn.open"]["value"] == 0,
            "the session to end on the peer's EOF",
        )

    closer = threading.Thread(target=net.close, daemon=True)
    closer.start()
    closer.join(30.0)
    assert not closer.is_alive(), "close() hangs on a peer that stopped reading"
    peer.close()
    system.close()
    del net, server, system, loader, closer

    assert alive(refs) == []
    assert repro_garbage() == []
