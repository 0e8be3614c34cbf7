"""Tests for the worker-pool fabric and the concurrent server front-end."""

import threading

import pytest

from repro.core.system import ViewMapSystem
from repro.core.vehicle import VehicleAgent
from repro.errors import NetworkError
from repro.net.client import VehicleClient
from repro.net.concurrency import ConcurrentViewMapServer, ThreadedNetwork
from repro.net.messages import decode_message, encode_message, pack_vp_batch_frame
from repro.net.onion import OnionNetwork
from repro.store import ShardedStore
from tests.conftest import run_linked_minute


class TestThreadedNetworkContract:
    """The serial fabric's contract holds on the worker-pool fabric."""

    def test_request_response(self):
        with ThreadedNetwork(workers=2) as net:
            net.register("echo", lambda payload: payload.upper())
            assert net.send("client", "echo", b"hello") == b"HELLO"

    def test_unknown_destination_raises(self):
        with ThreadedNetwork(workers=2) as net:
            with pytest.raises(NetworkError):
                net.send("client", "nowhere", b"x")

    def test_unknown_destination_raises_through_future(self):
        with ThreadedNetwork(workers=2) as net:
            future = net.send_async("client", "nowhere", b"x")
            with pytest.raises(NetworkError):
                future.result()

    def test_duplicate_registration_rejected(self):
        with ThreadedNetwork(workers=1) as net:
            net.register("svc", lambda p: p)
            with pytest.raises(NetworkError):
                net.register("svc", lambda p: p)

    def test_unregister(self):
        with ThreadedNetwork(workers=1) as net:
            net.register("svc", lambda p: p)
            net.unregister("svc")
            with pytest.raises(NetworkError):
                net.send("c", "svc", b"x")

    def test_delivery_log_records_metadata_only(self):
        with ThreadedNetwork(workers=1) as net:
            net.register("svc", lambda p: b"")
            net.send("alice", "svc", b"12345")
            assert net.delivery_log == [("alice", "svc", 5)]

    def test_addresses_sorted(self):
        with ThreadedNetwork(workers=1) as net:
            net.register("b", lambda p: p)
            net.register("a", lambda p: p)
            assert net.addresses() == ["a", "b"]

    def test_send_after_close_raises(self):
        net = ThreadedNetwork(workers=1)
        net.register("svc", lambda p: p)
        net.close()
        with pytest.raises(NetworkError):
            net.send("c", "svc", b"x")

    def test_zero_workers_rejected(self):
        with pytest.raises(NetworkError):
            ThreadedNetwork(workers=0)


class TestThreadedNetworkConcurrency:
    def test_nested_send_runs_inline_on_one_worker(self):
        # with a single worker, a relay-style handler forwarding to a
        # second endpoint would deadlock unless nested sends run inline
        with ThreadedNetwork(workers=1) as net:
            net.register("inner", lambda p: p + b"!")
            net.register("outer", lambda p: net.send("outer", "inner", p))
            assert net.send("client", "outer", b"hop") == b"hop!"

    def test_requests_overlap_up_to_worker_count(self):
        # both requests must be inside the handler at once to pass the
        # barrier; a serial fabric would time out
        barrier = threading.Barrier(2, timeout=5.0)

        def handler(payload: bytes) -> bytes:
            barrier.wait()
            return payload

        with ThreadedNetwork(workers=2) as net:
            net.register("svc", handler)
            futures = [net.send_async("c", "svc", b"x") for _ in range(2)]
            assert [f.result(timeout=5.0) for f in futures] == [b"x", b"x"]

    def test_many_async_requests_from_many_threads(self):
        with ThreadedNetwork(workers=4) as net:
            net.register("double", lambda p: p * 2)
            results: dict[int, bytes] = {}

            def client(i: int) -> None:
                results[i] = net.send("c", "double", bytes([i]))

            threads = [threading.Thread(target=client, args=(i,)) for i in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert results == {i: bytes([i, i]) for i in range(16)}
            assert len(net.delivery_log) == 16


@pytest.fixture
def concurrent_stack():
    net = ThreadedNetwork(workers=4)
    onion = OnionNetwork(network=net, n_relays=4, hops=2, seed=5)
    system = ViewMapSystem(key_bits=512, seed=6, store=ShardedStore.memory(n_shards=2))
    server = ConcurrentViewMapServer(system=system, network=net)
    yield net, onion, system, server
    net.close()
    system.close()


class TestConcurrentViewMapServer:
    def test_full_stack_batch_upload_over_onion(self, concurrent_stack):
        net, onion, system, server = concurrent_stack
        a = VehicleAgent(vehicle_id=1, seed=2)
        b = VehicleAgent(vehicle_id=2, seed=3)
        res_a, _ = run_linked_minute(a, b)
        client = VehicleClient(agent=a, onion=onion)
        client.queue_minute_output(res_a.actual_vp, res_a.guard_vps)
        staged = len(client.pending_vps)
        assert client.upload_pending_batch() == staged
        assert len(system.database) == staged
        assert res_a.actual_vp.vp_id in system.database

    def test_registry_still_covers_exactly_the_protocol(self, concurrent_stack):
        net, onion, system, server = concurrent_stack
        assert set(server._handlers) == {
            "upload_vp_batch",
            "query_view",
            "list_solicitations",
            "upload_video",
            "list_rewards",
            "claim_reward",
            "sign_blinded",
            "public_key",
        }

    def test_unknown_kind_is_closed_world(self, concurrent_stack):
        net, onion, system, server = concurrent_stack
        reply = decode_message(server.handle(encode_message("reboot", session="x")))
        assert reply["kind"] == "error"
        assert "unknown kind" in reply["reason"]

    def test_session_log_complete_under_parallel_requests(self, concurrent_stack):
        net, onion, system, server = concurrent_stack
        payload = encode_message("list_solicitations", session="s")
        futures = [
            net.send_async("c", server.address, payload) for _ in range(24)
        ]
        for f in futures:
            assert decode_message(f.result(timeout=10.0))["kind"] == "solicitations"
        kinds = [k for k, _ in server.session_log]
        assert kinds.count("list_solicitations") == 24

    def test_parallel_duplicate_batches_store_exactly_once(self, concurrent_stack):
        net, onion, system, server = concurrent_stack
        a = VehicleAgent(vehicle_id=5, seed=7)
        b = VehicleAgent(vehicle_id=6, seed=8)
        res_a, _ = run_linked_minute(a, b)
        vps = [res_a.actual_vp] + res_a.guard_vps
        payload = encode_message("upload_vp_batch", session="s", frame=pack_vp_batch_frame(vps))
        futures = [net.send_async("c", server.address, payload) for _ in range(8)]
        replies = [decode_message(f.result(timeout=10.0)) for f in futures]
        assert all(r["kind"] == "batch_ack" for r in replies)
        # the store keeps exactly one copy however the races resolve
        assert len(system.database) == len(vps)
        assert sum(r["inserted"] for r in replies) == len(vps)
