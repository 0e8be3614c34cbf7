"""Concurrent vs serial batch-ingest throughput per storage backend.

Models a fleet uploading full minutes of VPs over WiFi: every
``upload_vp_batch`` request pays a modeled last-mile round-trip
(``LATENCY_S``) before the authority handles it.  The serial fabric
(:class:`InMemoryNetwork`) pays that latency once per request, back to
back; the worker-pool fabric (:class:`ThreadedNetwork`) overlaps the
in-flight requests — plus whatever else releases the GIL (segment
appends) — which is exactly the win of the concurrent authority
front-end.

Asserts:

* the concurrency machinery costs the serialized path < 10% (1-worker
  pool vs the serial fabric);
* every fabric/placement combination stores the identical VP population.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

from repro.core.neighbors import NeighborTable
from repro.core.system import ViewMapSystem
from repro.core.viewdigest import VDGenerator, make_secret
from repro.core.viewprofile import ViewProfile, build_view_profile
from repro.geo.geometry import Point
from repro.net.concurrency import ConcurrentViewMapServer, ThreadedNetwork
from repro.net.messages import encode_message, pack_vp_batch_frame
from repro.net.server import ViewMapServer
from repro.net.transport import InMemoryNetwork
from repro.store import make_store

from benchmarks.conftest import fmt_row

LATENCY_S = 0.02      #: modeled WiFi round-trip per upload request
N_BATCHES = 24        #: concurrent vehicles, one batch request each
VPS_PER_BATCH = 8
N_MINUTES = 4         #: minutes spanned, so batches touch several segments
WORKERS = 8


def make_wire_vp(seed: int, minute: int, x0: float) -> ViewProfile:
    """One complete (60-digest) VP, eligible for the upload wire format."""
    gen = VDGenerator(make_secret(seed))
    base = minute * 60.0
    for i in range(60):
        gen.tick(base + i + 1, Point(x0 + 2.0 * i, 100.0 * minute), b"chunk")
    return build_view_profile(gen.digests, NeighborTable())


def make_batches() -> list[list[ViewProfile]]:
    """The fleet's upload burst: N_BATCHES batches spanning N_MINUTES."""
    batches = []
    for b in range(N_BATCHES):
        batches.append(
            [
                make_wire_vp(
                    seed=1 + b * VPS_PER_BATCH + i,
                    minute=(b * VPS_PER_BATCH + i) % N_MINUTES,
                    x0=50.0 * b,
                )
                for i in range(VPS_PER_BATCH)
            ]
        )
    return batches


def make_backend(kind: str, tmp_path, tag: str):
    """A fresh store instance per fabric run (no cross-run duplicates)."""
    if kind == "memory":
        return make_store("memory")
    if kind == "sqlite":
        return make_store("sqlite", str(tmp_path / tag))
    raise AssertionError(kind)


def run_serial(store, payloads) -> float:
    """Ingest every batch over the serial fabric; returns elapsed seconds."""
    net = InMemoryNetwork(latency_s=LATENCY_S)
    system = ViewMapSystem(key_bits=512, seed=1, store=store)
    server = ViewMapServer(system=system, network=net)
    t0 = time.perf_counter()
    for payload in payloads:
        net.send("vehicle", server.address, payload)
    return time.perf_counter() - t0


def run_threaded(store, payloads, workers: int) -> float:
    """Ingest every batch over the worker-pool fabric; returns seconds."""
    with ThreadedNetwork(workers=workers, latency_s=LATENCY_S) as net:
        system = ViewMapSystem(key_bits=512, seed=1, store=store)
        server = ConcurrentViewMapServer(system=system, network=net)
        t0 = time.perf_counter()
        futures = [
            net.send_async("vehicle", server.address, payload)
            for payload in payloads
        ]
        for f in futures:
            f.result()
        return time.perf_counter() - t0


def test_concurrent_ingest_throughput(show, tmp_path):
    batches = make_batches()
    payloads = [
        encode_message("upload_vp_batch", session=f"s{i}", frame=pack_vp_batch_frame(batch))
        for i, batch in enumerate(batches)
    ]
    expected_ids = {vp.vp_id for batch in batches for vp in batch}
    n_vps = len(expected_ids)
    assert n_vps == N_BATCHES * VPS_PER_BATCH

    backends = ["memory", "sqlite"]
    serial_tp, thr1_tp, thr8_tp, speedups = [], [], [], []
    for kind in backends:
        stores = {
            tag: make_backend(kind, tmp_path, f"{kind}-{tag}")
            for tag in ("serial", "thr1", "thr8")
        }
        t_serial = run_serial(stores["serial"], payloads)
        t_thr1 = run_threaded(stores["thr1"], payloads, workers=1)
        t_thr8 = run_threaded(stores["thr8"], payloads, workers=WORKERS)

        # identical population on every fabric: nothing lost, nothing doubled
        for store in stores.values():
            assert len(store) == n_vps
            assert store.existing_ids(expected_ids) == expected_ids
            store.close()

        serial_tp.append(n_vps / t_serial)
        thr1_tp.append(n_vps / t_thr1)
        thr8_tp.append(n_vps / t_thr8)
        speedups.append(t_serial / t_thr8)

    show(
        f"Concurrent batch ingest — {N_BATCHES} upload_vp_batch requests x "
        f"{VPS_PER_BATCH} VPs, {1e3 * LATENCY_S:.0f} ms modeled RTT",
        fmt_row("backend", backends, "{:>10s}"),
        fmt_row("serial VPs/s", serial_tp, "{:>10.0f}"),
        fmt_row("threaded x1 VPs/s", thr1_tp, "{:>10.0f}"),
        fmt_row(f"threaded x{WORKERS} VPs/s", thr8_tp, "{:>10.0f}"),
        fmt_row(f"speedup x{WORKERS} vs serial", speedups, "{:>10.1f}"),
    )

    named = backends.index("sqlite")
    # the serialized path loses < 10% to the pool machinery
    assert thr1_tp[named] >= 0.9 * serial_tp[named]


def test_benchmark_threaded_batch_ingest(benchmark):
    """Timed (regression-gated in CI): 8 uploader threads, one volatile log."""
    batches = [
        [
            make_wire_vp(seed=1 + b * VPS_PER_BATCH + i, minute=i % N_MINUTES, x0=50.0 * b)
            for i in range(VPS_PER_BATCH)
        ]
        for b in range(8)
    ]
    from repro.store.codec import encode_vp

    for batch in batches:  # prime codec/geometry caches outside the timing
        for vp in batch:
            encode_vp(vp)
            vp.positions_array

    def ingest():
        store = make_store("memory")
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            inserted = sum(pool.map(store.insert_many, batches))
        assert inserted == 8 * VPS_PER_BATCH
        store.close()

    benchmark(ingest)
