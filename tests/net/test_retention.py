"""Tests for retention watermark advancement through the front-ends.

The upload stream is the authority's clock: when VPs for a newer minute
arrive, minutes that fell out of the solicitation window are evicted.
The serial server advances the watermark inline; the concurrent server
does it under ``control_lock`` with a lock-free fast path.
"""

from __future__ import annotations

import pytest

from repro.core.neighbors import NeighborTable
from repro.core.system import ViewMapSystem
from repro.core.viewdigest import VDGenerator, make_secret
from repro.core.viewprofile import ViewProfile, build_view_profile
from repro.geo.geometry import Point
from repro.net.concurrency import ConcurrentViewMapServer, ThreadedNetwork
from repro.net.messages import decode_message, encode_message, pack_vp_batch_frame
from repro.net.server import MAX_WATERMARK_STEP, ViewMapServer
from repro.net.transport import InMemoryNetwork
from repro.store import RetentionPolicy


def make_wire_vp(seed: int, minute: int, x0: float = 0.0) -> ViewProfile:
    """One complete (60-digest) VP, eligible for the upload wire format."""
    gen = VDGenerator(make_secret(seed))
    base = minute * 60.0
    for i in range(60):
        gen.tick(base + i + 1, Point(x0 + 2.0 * i, 50.0 * minute), b"chunk")
    return build_view_profile(gen.digests, NeighborTable())


def batch_payload(vps: list[ViewProfile], session: str = "s") -> bytes:
    return encode_message("upload_vp_batch", session=session, frame=pack_vp_batch_frame(vps))


class TestSystemRetention:
    def test_advance_evicts_and_reports(self):
        system = ViewMapSystem(
            key_bits=512, seed=1, retention=RetentionPolicy(window_minutes=2)
        )
        for minute in range(4):
            system.ingest_vps([make_wire_vp(seed=minute + 1, minute=minute)])
        report = system.advance_retention(3)
        assert report is not None and report.evicted == 2
        assert system.database.minutes() == [2, 3]
        assert system.retention_watermark == 3

    def test_watermark_is_monotonic(self):
        system = ViewMapSystem(
            key_bits=512, seed=1, retention=RetentionPolicy(window_minutes=1)
        )
        system.ingest_vps([make_wire_vp(seed=1, minute=5)])
        assert system.advance_retention(5) is not None
        # a stale (or repeated) observation never un-evicts or re-runs
        assert system.advance_retention(5) is None
        assert system.advance_retention(3) is None
        assert system.retention_watermark == 5

    def test_no_policy_is_a_noop(self):
        system = ViewMapSystem(key_bits=512, seed=1)
        system.ingest_vps([make_wire_vp(seed=1, minute=0)])
        assert system.advance_retention(99) is None
        assert len(system.database) == 1

    def test_compaction_knob_is_gone(self):
        # eviction unlinks whole minute segments, so there is nothing to
        # compact and no pacing knob: the old argument is a TypeError
        with pytest.raises(TypeError):
            RetentionPolicy(window_minutes=2, compact_every=3)


class TestSerialServerRetention:
    def test_uploads_advance_the_watermark(self):
        net = InMemoryNetwork()
        system = ViewMapSystem(
            key_bits=512, seed=1, retention=RetentionPolicy(window_minutes=2)
        )
        server = ViewMapServer(system=system, network=net)
        for minute in range(5):
            reply = decode_message(
                net.send("v", server.address,
                         batch_payload([make_wire_vp(seed=minute + 1, minute=minute)]))
            )
            assert reply["kind"] == "batch_ack" and reply["inserted"] == 1
        # minutes 0..2 fell out of the window as 3 and 4 arrived
        assert system.database.minutes() == [3, 4]
        assert system.retention_watermark == 4

    def test_far_future_minute_cannot_flush_the_store(self):
        # a single upload claiming a far-future minute (malicious or a
        # broken clock) must not evict the whole retained window: the
        # upload-driven watermark advances by at most MAX_WATERMARK_STEP
        net = InMemoryNetwork()
        system = ViewMapSystem(
            key_bits=512, seed=1, retention=RetentionPolicy(window_minutes=60)
        )
        server = ViewMapServer(system=system, network=net)
        for minute in range(3):
            net.send("v", server.address,
                     batch_payload([make_wire_vp(seed=minute + 1, minute=minute)]))
        net.send("v", server.address,
                 batch_payload([make_wire_vp(seed=99, minute=10**6)]))
        # the legitimate window survives; the watermark crept, not jumped
        assert set(system.database.minutes()) >= {0, 1, 2}
        assert system.retention_watermark <= 2 + MAX_WATERMARK_STEP
        # honest traffic keeps working afterwards
        reply = decode_message(
            net.send("v", server.address,
                     batch_payload([make_wire_vp(seed=5, minute=3)]))
        )
        assert reply["inserted"] == 1
        assert make_wire_vp(seed=5, minute=3).vp_id in system.database

    def test_fresh_system_first_packet_cannot_poison_the_watermark(self):
        # even an EMPTY store anchors the watermark (at minute 0), so the
        # very first accepted upload is clamped too — it can neither
        # evict anything nor push the monotonic watermark out of reach
        # of honest traffic
        net = InMemoryNetwork()
        system = ViewMapSystem(
            key_bits=512, seed=1, retention=RetentionPolicy(window_minutes=10)
        )
        assert system.retention_watermark == 0
        server = ViewMapServer(system=system, network=net)
        net.send("v", server.address,
                 batch_payload([make_wire_vp(seed=99, minute=10**6)]))
        assert system.retention_watermark <= MAX_WATERMARK_STEP
        # honest traffic still advances retention afterwards
        for minute in range(1, 5):
            net.send("v", server.address,
                     batch_payload([make_wire_vp(seed=minute, minute=minute)]))
        assert system.retention_watermark == 4

    def test_restarted_server_over_populated_store_is_clamped_too(self):
        # a fresh server process over a persistent store must not trust
        # its first observed upload either: the system seeds the
        # watermark from the stored minutes at construction
        from repro.store import make_store

        store = make_store("memory")
        for minute in range(5):
            store.insert(make_wire_vp(seed=minute + 1, minute=minute))
        net = InMemoryNetwork()
        system = ViewMapSystem(
            key_bits=512, seed=1, store=store,
            retention=RetentionPolicy(window_minutes=10),
        )
        assert system.retention_watermark == 4  # seeded from the data
        server = ViewMapServer(system=system, network=net)
        net.send("v", server.address,
                 batch_payload([make_wire_vp(seed=99, minute=10**6)]))
        # the first observation is clamped relative to the stored data
        assert system.retention_watermark <= 4 + MAX_WATERMARK_STEP
        assert set(system.database.minutes()) >= {0, 1, 2, 3, 4}

    def test_no_policy_accumulates_forever(self):
        net = InMemoryNetwork()
        system = ViewMapSystem(key_bits=512, seed=1)
        server = ViewMapServer(system=system, network=net)
        for minute in range(5):
            net.send("v", server.address,
                     batch_payload([make_wire_vp(seed=minute + 1, minute=minute)]))
        assert system.database.minutes() == [0, 1, 2, 3, 4]


class TestConcurrentServerRetention:
    def test_concurrent_uploads_converge_to_the_window(self):
        with ThreadedNetwork(workers=6) as net:
            system = ViewMapSystem(
                key_bits=512, seed=1, retention=RetentionPolicy(window_minutes=3)
            )
            server = ConcurrentViewMapServer(system=system, network=net)
            payloads = [
                batch_payload(
                    [make_wire_vp(seed=10 * minute + i + 1, minute=minute, x0=9.0 * i)
                     for i in range(3)],
                    session=f"s{minute}",
                )
                for minute in range(8)
            ]
            futures = [
                net.send_async("v", server.address, payload) for payload in payloads
            ]
            for f in futures:
                assert decode_message(f.result())["kind"] == "batch_ack"
            # arrival order is arbitrary, so mid-flight eviction may keep
            # any superset of the final window (an early-arriving newest
            # minute evicts before the older batches land); one explicit
            # final pass under the control lock settles the steady state
            policy = system.retention
            with server.control_lock:
                system.database.evict_before(policy.cutoff(7))
            assert system.database.minutes() == [5, 6, 7]
            assert len(system.database) == 9
            system.close()

    def test_named_store_behind_concurrent_front_end(self, tmp_path):
        # the file-backed log wired end to end: batch uploads through
        # the concurrent server advance the watermark, eviction unlinks
        # whole segments, and the id map keeps rejecting duplicates
        # after the passes
        from repro.store import make_store

        store = make_store("sqlite", str(tmp_path / "log"))
        with ThreadedNetwork(workers=4) as net:
            system = ViewMapSystem(
                key_bits=512, seed=1, store=store,
                retention=RetentionPolicy(window_minutes=2),
            )
            server = ConcurrentViewMapServer(system=system, network=net)
            for minute in range(5):
                reply = net.send(
                    "v", server.address,
                    batch_payload(
                        [make_wire_vp(seed=10 * minute + i + 1, minute=minute,
                                      x0=11.0 * i) for i in range(3)],
                        session=f"s{minute}",
                    ),
                )
                assert decode_message(reply)["kind"] == "batch_ack"
            assert system.retention_watermark == 4
            assert system.database.minutes() == [3, 4]
            # a duplicate of a retained VP is still rejected per-VP
            ack = decode_message(net.send(
                "v", server.address,
                batch_payload([make_wire_vp(seed=41, minute=4, x0=0.0)]),
            ))
            assert ack["accepted"] == [False]
            system.close()

    def test_retention_pass_runs_once_per_new_minute(self):
        with ThreadedNetwork(workers=4) as net:
            system = ViewMapSystem(
                key_bits=512, seed=1, retention=RetentionPolicy(window_minutes=1)
            )
            server = ConcurrentViewMapServer(system=system, network=net)
            # many uploads of the SAME minute: only the first can pay for
            # the control lock; the watermark ends at that minute
            futures = [
                net.send_async(
                    "v", server.address,
                    batch_payload([make_wire_vp(seed=i + 1, minute=2, x0=7.0 * i)]),
                )
                for i in range(8)
            ]
            for f in futures:
                f.result()
            assert system.retention_watermark == 2
            assert len(system.database) == 8
            system.close()
