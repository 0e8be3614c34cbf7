"""Concurrent vs serial batch-ingest throughput per storage backend.

Models a fleet uploading full minutes of VPs over WiFi: every
``upload_vp_batch`` request pays a modeled last-mile round-trip
(``LATENCY_S``) before the authority handles it.  The serial fabric
(:class:`InMemoryNetwork`) pays that latency once per request, back to
back; the worker-pool fabric (:class:`ThreadedNetwork`) overlaps the
in-flight requests — plus whatever else releases the GIL (segment
appends on the sharded fleet's files) — which is exactly the win of the
concurrent authority front-end.

Asserts the PR's acceptance bar:

* ``ThreadedNetwork`` with 8 workers sustains >= 2x the serial
  batch-ingest throughput on ``ShardedStore``;
* the concurrency machinery costs the serialized path < 10% (1-worker
  pool vs the serial fabric);
* every fabric/backend combination stores the identical VP population.
"""

from __future__ import annotations

import time

import random
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
from repro.store import ShardedStore, make_store

from benchmarks.conftest import fmt_row

LATENCY_S = 0.02      #: modeled WiFi round-trip per upload request
N_BATCHES = 24        #: concurrent vehicles, one batch request each
VPS_PER_BATCH = 8
N_MINUTES = 4         #: minutes spanned, so batches fan out across shards
WORKERS = 8

# -- hot-shard process-worker workload (see the tests below) ---------------
AREA_M = 10_000.0          #: city edge length for the hot-minute corpus
HOT_BATCHES = 64           #: vehicles uploading the hot minute, one batch each
HOT_BATCH_VPS = 16         #: VPs per vehicle batch
N_PROC_WORKERS = 4         #: worker OS processes in the fleet
FEEDERS = 8                #: uploader threads feeding the fleet


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
    if kind == "sharded":
        return ShardedStore(
            [make_store("sqlite", str(tmp_path / f"{tag}-shard-{i}")) for i in range(N_MINUTES)]
        )
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

    backends = ["memory", "sqlite", "sharded"]
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

    sharded = backends.index("sharded")
    # acceptance: 8 workers sustain >= 2x serial throughput on ShardedStore
    assert thr8_tp[sharded] >= 2.0 * serial_tp[sharded]
    # acceptance: the serialized path loses < 10% to the pool machinery
    assert thr1_tp[sharded] >= 0.9 * serial_tp[sharded]


def test_benchmark_threaded_batch_ingest(benchmark):
    """Timed (regression-gated in CI): 8 uploader threads, sharded fleet."""
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
        store = ShardedStore.memory(n_shards=N_MINUTES, shard_cells=N_MINUTES)
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            inserted = sum(pool.map(store.insert_many, batches))
        assert inserted == 8 * VPS_PER_BATCH
        store.close()

    benchmark(ingest)


# -- hot-shard ingest past the GIL: process workers -------------------------
#
# One minute, every vehicle uploading at once: batch framing and the
# store's per-record work hold the GIL.  The procs fleet puts each
# shard's segment log in its own worker process and routes the hot
# minute across them by spatial cell; measured against one in-process
# log, that costs more in pipe hops than it parallelizes.


def make_hot_vp(seed: int, x0: float) -> ViewProfile:
    """One 8-digest minute-0 VP at a city position (hot-minute corpus)."""
    gen = VDGenerator(make_secret(seed))
    for i in range(8):
        gen.tick(float(i + 1), Point(x0 + 5.0 * i, 100.0), b"chunk")
    return build_view_profile(gen.digests, NeighborTable())


def hot_shard_batches(tag: int) -> list[list[ViewProfile]]:
    """Fresh hot-minute upload burst; new VP objects per run.

    Fresh objects keep the per-VP codec caches cold (the state of a VP
    just unpacked from the wire), so the timed region pays the full
    serial ingest path — encode, bbox, rows — not a pre-chewed one.
    """
    rng = random.Random(7)
    base = 1 + tag * (HOT_BATCHES * HOT_BATCH_VPS + 1)
    return [
        [
            make_hot_vp(seed=base + b * HOT_BATCH_VPS + i, x0=rng.uniform(0.0, AREA_M))
            for i in range(HOT_BATCH_VPS)
        ]
        for b in range(HOT_BATCHES)
    ]


def run_hot_serial(tmp_path, tag: int) -> float:
    """Serial ingest into one segment log on files; elapsed seconds."""
    n = HOT_BATCHES * HOT_BATCH_VPS
    store = make_store("sqlite", str(tmp_path / f"hot-serial-{tag}"))
    batches = hot_shard_batches(tag)
    t0 = time.perf_counter()
    inserted = sum(store.insert_many(b) for b in batches)
    assert len(store) == n
    elapsed = time.perf_counter() - t0
    assert inserted == n
    store.close()
    return elapsed


def run_hot_threaded(tmp_path, tag: int) -> float:
    """FEEDERS threads into ONE segment log on files."""
    n = HOT_BATCHES * HOT_BATCH_VPS
    store = make_store("sqlite", str(tmp_path / f"hot-thr-{tag}"))
    batches = hot_shard_batches(tag)
    with ThreadPoolExecutor(max_workers=FEEDERS) as pool:
        t0 = time.perf_counter()
        inserted = sum(pool.map(store.insert_many, batches))
        assert len(store) == n
        elapsed = time.perf_counter() - t0
    assert inserted == n
    store.close()
    return elapsed


def run_hot_procs(tmp_path, tag: int) -> float:
    """FEEDERS threads into N_PROC_WORKERS worker processes."""
    n = HOT_BATCHES * HOT_BATCH_VPS
    store = make_store(
        "procs",
        str(tmp_path / f"hot-procs-{tag}"),
        ingest_workers=N_PROC_WORKERS,
        shard_cells=N_PROC_WORKERS,
    )
    batches = hot_shard_batches(tag)
    with ThreadPoolExecutor(max_workers=FEEDERS) as pool:
        t0 = time.perf_counter()
        inserted = sum(pool.map(store.insert_many, batches))
        assert len(store) == n
        elapsed = time.perf_counter() - t0
    assert inserted == n
    store.close()
    return elapsed


def test_process_hot_shard_ingest_speedup(show, tmp_path):
    """Measured, not modeled: serial vs threads vs 4 worker processes.

    A segment append costs tens of microseconds per VP, less than the
    pipe round trip that ships it to a worker, so on a hot minute the
    procs fleet is *slower* than one in-process log (~0.2-0.3x on a
    2-CPU host).  The gates pin that shape: threads on one log stay
    GIL-bound, and the fleet's IPC toll stays bounded.
    """
    n = HOT_BATCHES * HOT_BATCH_VPS
    t_serial = run_hot_serial(tmp_path, 0)
    t_thread = run_hot_threaded(tmp_path, 0)
    t_procs = run_hot_procs(tmp_path, 0)
    speedup = t_serial / t_procs

    show(
        f"Hot-shard ingest — {HOT_BATCHES} uploads x {HOT_BATCH_VPS} VPs of ONE "
        f"minute, segment log on files, no modeled latency",
        fmt_row("serial / thr8 / procs4 s", [t_serial, t_thread, t_procs], "{:>10.3f}"),
        fmt_row("throughput kVP/s", [n / t_serial / 1e3, n / t_thread / 1e3,
                                     n / t_procs / 1e3], "{:>10.2f}"),
        fmt_row("speedup vs serial", [1.0, t_serial / t_thread, speedup], "{:>10.2f}"),
    )

    # threads on one log stay bound by its GIL and its lock...
    assert t_serial / t_thread < 2.0
    # ...and the worker fleet pays pipe hops for appends this cheap: its
    # toll is bounded, not a win
    assert speedup >= 0.1

    # routing moved no data: a fleet reopened on the same files finds
    # every id
    ref_ids = {vp.vp_id for b in hot_shard_batches(0) for vp in b}
    store = make_store(
        "procs",
        str(tmp_path / "hot-procs-0"),
        ingest_workers=N_PROC_WORKERS,
        shard_cells=N_PROC_WORKERS,
    )
    assert store.existing_ids(ref_ids) == ref_ids
    store.close()


def test_benchmark_process_hot_shard_ingest(benchmark, tmp_path):
    """Timed (regression-gated in CI): the process-worker ingest path."""
    state = {"round": 1}

    def ingest():
        tag = state["round"]
        state["round"] += 1
        run_hot_procs(tmp_path, tag)

    benchmark.pedantic(ingest, rounds=3, iterations=1)


# -- zero-decode wire path: frame bytes straight into worker shards ---------
#
# The batch codec travels ON the wire: the server validates and
# duplicate-probes from record metadata alone, slices the fresh records
# out of the incoming buffer, and forwards the bytes untouched to the
# worker processes, with a modeled last-mile latency per request on the
# fabric.


WIRE_BATCHES = 48          #: vehicles uploading the hot minute, one request each
WIRE_BATCH_VPS = 16        #: complete 60-digest VPs per request
WIRE_LATENCY_S = 0.01      #: modeled last-mile RTT per upload request


def make_wire_hot_vp(seed: int, x0: float) -> ViewProfile:
    """One complete minute-0 VP at a city position (wire-eligible)."""
    gen = VDGenerator(make_secret(seed))
    for i in range(60):
        gen.tick(float(i + 1), Point(x0 + 2.0 * i, 100.0), b"chunk")
    return build_view_profile(gen.digests, NeighborTable())


def wire_hot_batches(tag: int) -> list[list[ViewProfile]]:
    """Fresh hot-minute burst of complete VPs; new objects per run."""
    rng = random.Random(7)
    base = 1 + tag * (WIRE_BATCHES * WIRE_BATCH_VPS + 1)
    return [
        [
            make_wire_hot_vp(
                seed=base + b * WIRE_BATCH_VPS + i, x0=rng.uniform(0.0, AREA_M)
            )
            for i in range(WIRE_BATCH_VPS)
        ]
        for b in range(WIRE_BATCHES)
    ]


def wire_payloads(batches: list[list[ViewProfile]]) -> list[bytes]:
    """Pre-encode the upload requests (client work, outside the timing)."""
    return [
        encode_message("upload_vp_batch", session=f"s{i}", frame=pack_vp_batch_frame(b))
        for i, b in enumerate(batches)
    ]


def run_wire_ingest(tmp_path, payloads: list[bytes], tag: str) -> float:
    """One hot burst through ConcurrentViewMapServer into a procs fleet."""
    n = WIRE_BATCHES * WIRE_BATCH_VPS
    store = make_store(
        "procs",
        str(tmp_path / f"wire-{tag}"),
        ingest_workers=N_PROC_WORKERS,
        shard_cells=N_PROC_WORKERS,
    )
    with ThreadedNetwork(workers=WORKERS, latency_s=WIRE_LATENCY_S) as net:
        system = ViewMapSystem(key_bits=512, seed=1, store=store)
        server = ConcurrentViewMapServer(system=system, network=net)
        t0 = time.perf_counter()
        futures = [
            net.send_async("vehicle", server.address, payload) for payload in payloads
        ]
        for f in futures:
            f.result()
        assert len(store) == n
        elapsed = time.perf_counter() - t0
    store.close()
    return elapsed


def test_benchmark_wire_frame_ingest(benchmark, tmp_path):
    """Timed (regression-gated in CI): the zero-decode wire fast path."""
    payloads = wire_payloads(wire_hot_batches(9))
    state = {"round": 0}

    def ingest():
        state["round"] += 1
        run_wire_ingest(tmp_path, payloads, f"bench{state['round']}")

    benchmark.pedantic(ingest, rounds=3, iterations=1)
