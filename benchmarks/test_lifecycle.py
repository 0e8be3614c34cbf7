"""Store lifecycle: bounded long-run footprint and hot-minute sharding.

Two claims of the lifecycle subsystem are pinned here:

* **Bounded footprint** — with a :class:`RetentionPolicy` advancing as
  ingest does, a multi-hour upload stream leaves the store holding one
  retention window, not the whole history: live VPs stay within 2x of a
  window's worth on the volatile and the named segment log, and the
  named log's segment files stay within 2x of a log built from a single
  window (eviction unlinks whole segments; nothing needs compacting).
* **Hot-minute fan-out** — composite ``(minute, spatial cell)`` routing
  spreads one hot minute across the shard fleet.  Wall-clock effect is
  measured on a fleet of *modeled storage nodes* with finite ingest
  bandwidth (`ThrottledNodeStore`, sleeping ``bytes/bandwidth`` under a
  per-node I/O lock — the same modeling idiom as ``latency_s`` on the
  network fabrics; local segment files cannot stand in for nodes here
  because CPython's GIL serializes the per-record work at ~1.1x).  Minute-only
  routing drowns one node in the whole minute; cell routing must sustain
  >= 2x the ingest throughput on 8 nodes.  Raw (unthrottled, in-process)
  numbers are printed alongside for transparency.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import ThreadPoolExecutor
from threading import Lock

from repro.core.neighbors import NeighborTable
from repro.core.viewdigest import VDGenerator, make_secret
from repro.core.viewprofile import ViewProfile, build_view_profile
from repro.geo.geometry import Point, Rect
from repro.store import (
    RetentionPolicy,
    ShardedStore,
    apply_retention,
    make_store,
)
from repro.store.base import VPStore
from repro.store.codec import encode_vp
from repro.store.serving import QuerySpec

from benchmarks.conftest import bench_runs, fmt_row

AREA_M = 10_000.0          #: city edge length
WINDOW_MINUTES = 30        #: solicitation window the authority retains
VPS_PER_MINUTE = 60        #: steady upload rate of the long run
RUN_HOURS = 6              #: simulated duration of the long run

N_SHARDS = 8               #: hot-minute fleet width
HOT_BATCHES = 16           #: concurrent vehicles uploading the hot minute
HOT_BATCH_SIZE = 125
NODE_BANDWIDTH = 4e6       #: modeled per-node ingest bandwidth, bytes/s


def make_vp(seed: int, minute: int, x: float, y: float, n: int = 4) -> ViewProfile:
    """One synthetic n-digest VP at a chosen minute and position."""
    gen = VDGenerator(make_secret(seed))
    base = minute * 60.0
    for i in range(n):
        gen.tick(base + i + 1, Point(x + 10.0 * i, y), b"c")
    return build_view_profile(gen.digests, NeighborTable())


def minute_corpus(minute: int, n: int, seed: int = 0) -> list[ViewProfile]:
    """n VPs of one minute, uniform over the city."""
    rng = random.Random((seed << 20) | minute)
    return [
        make_vp(
            seed=(minute << 12) | i,
            minute=minute,
            x=rng.uniform(0, AREA_M),
            y=rng.uniform(0, AREA_M),
        )
        for i in range(n)
    ]


# -- (a) bounded footprint over a multi-hour ingest ------------------------


def segment_bytes(prefix: str) -> int:
    """Bytes of every segment file a named log keeps under ``prefix``."""
    directory, base = os.path.split(prefix)
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory)
        if name.startswith(base + ".")
    )


def test_bounded_footprint_long_run(show, tmp_path):
    minutes = RUN_HOURS * 60 * bench_runs(1)
    policy = RetentionPolicy(window_minutes=WINDOW_MINUTES)
    window_vps = WINDOW_MINUTES * VPS_PER_MINUTE

    path = str(tmp_path / "lifecycle")
    stores: dict[str, VPStore] = {
        "memory": make_store("memory"),
        "sqlite": make_store("sqlite", path),
    }
    peaks = {name: 0 for name in stores}
    evicted = {name: 0 for name in stores}

    for minute in range(minutes):
        corpus = minute_corpus(minute, VPS_PER_MINUTE)
        for name, store in stores.items():
            store.insert_many(corpus)
            report = apply_retention(store, policy, minute)
            evicted[name] += report.evicted
            peaks[name] = max(peaks[name], len(store))

    steady_bytes = segment_bytes(path)

    # reference: a log holding exactly one window's worth of VPs
    ref_path = str(tmp_path / "window-only")
    with make_store("sqlite", ref_path) as ref:
        for minute in range(minutes - WINDOW_MINUTES, minutes):
            ref.insert_many(stores["memory"].query(QuerySpec(minute=minute)).vps)
        window_bytes = segment_bytes(ref_path)

    total = minutes * VPS_PER_MINUTE
    show(
        f"Lifecycle long run — {minutes} minutes x {VPS_PER_MINUTE} VPs/min "
        f"({total} ingested, window {WINDOW_MINUTES} min = {window_vps} VPs)",
        fmt_row("peak live VPs (memory/sqlite)", [peaks["memory"], peaks["sqlite"]],
                "{:>10.0f}"),
        fmt_row("evicted (each backend)", [evicted["memory"], evicted["sqlite"]],
                "{:>10.0f}"),
        fmt_row("sqlite bytes (steady vs 1 window)", [steady_bytes, window_bytes],
                "{:>10.0f}"),
    )

    for name, store in stores.items():
        # steady state: exactly the retained window is live
        assert len(store) == window_vps
        assert store.minutes() == list(range(minutes - WINDOW_MINUTES, minutes))
        # the watermark advances each minute, so occupancy never exceeds
        # window + the minute being ingested — well inside the 2x bar
        assert peaks[name] <= 2 * window_vps
        assert evicted[name] == total - window_vps
        store.close()

    # on-disk footprint tracks the window, not the 6-hour history
    assert steady_bytes <= 2 * window_bytes


# -- (b) hot-minute throughput under composite routing ---------------------


class ThrottledNodeStore:
    """A storage *node* model: any backend behind finite ingest bandwidth.

    Writes sleep ``payload_bytes / bandwidth`` under a per-node I/O lock
    before delegating, modeling a node that commits its ingest stream at
    a fixed rate (sleeps release the GIL, so separate nodes genuinely
    overlap — the point of spreading a hot minute across them).  Reads
    delegate untouched.
    """

    def __init__(self, inner: VPStore, bandwidth: float = NODE_BANDWIDTH) -> None:
        self.inner = inner
        self.bandwidth = bandwidth
        self._io_lock = Lock()
        self.kind = f"throttled-{inner.kind}"

    def write(self, batch, strict: bool = False) -> int:
        # the router reaches a shard only through the one write
        # primitive, so this is every byte the node ingests
        payload = sum(len(row[7]) for row in batch.rows())
        with self._io_lock:
            time.sleep(payload / self.bandwidth)
        return self.inner.write(batch, strict)

    def __len__(self) -> int:
        return len(self.inner)

    def __contains__(self, vp_id: bytes) -> bool:
        return vp_id in self.inner

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


def hot_minute_batches() -> list[list[ViewProfile]]:
    """The hot-minute burst: one district's rush hour, many uploaders."""
    rng = random.Random(7)
    batches = []
    for b in range(HOT_BATCHES):
        batches.append(
            [
                make_vp(
                    seed=1 + b * HOT_BATCH_SIZE + i,
                    minute=0,
                    x=rng.uniform(0, AREA_M),
                    y=rng.uniform(0, AREA_M),
                )
                for i in range(HOT_BATCH_SIZE)
            ]
        )
    return batches


def run_hot_minute(batches, shard_cells: int, throttled: bool) -> float:
    """Ingest the burst from 8 uploader threads; returns elapsed seconds."""
    inner = [make_store("memory") for _ in range(N_SHARDS)]
    shards = [ThrottledNodeStore(s) for s in inner] if throttled else inner
    store = ShardedStore(shards, shard_cells=shard_cells)
    with ThreadPoolExecutor(max_workers=8) as pool:
        t0 = time.perf_counter()
        inserted = sum(pool.map(store.insert_many, batches))
        elapsed = time.perf_counter() - t0
    assert inserted == HOT_BATCHES * HOT_BATCH_SIZE
    store.close()
    return elapsed


def test_hot_minute_cell_sharding_throughput(show):
    batches = hot_minute_batches()
    for batch in batches:  # warm codec caches outside the timed region
        for vp in batch:
            encode_vp(vp)
            vp.positions_array

    n_vps = HOT_BATCHES * HOT_BATCH_SIZE
    t_minute = run_hot_minute(batches, shard_cells=1, throttled=True)
    t_cells = run_hot_minute(batches, shard_cells=N_SHARDS, throttled=True)
    raw_minute = run_hot_minute(batches, shard_cells=1, throttled=False)
    raw_cells = run_hot_minute(batches, shard_cells=N_SHARDS, throttled=False)
    speedup = t_minute / t_cells

    show(
        f"Hot minute — {n_vps} VPs of ONE minute, {HOT_BATCHES} uploaders, "
        f"{N_SHARDS} storage nodes at {NODE_BANDWIDTH / 1e6:.0f} MB/s each",
        fmt_row("modeled nodes s (minute/cell)", [t_minute, t_cells], "{:>10.3f}"),
        fmt_row("modeled throughput kVP/s", [n_vps / t_minute / 1e3,
                                             n_vps / t_cells / 1e3], "{:>10.1f}"),
        fmt_row("raw in-process s (minute/cell)", [raw_minute, raw_cells],
                "{:>10.3f}"),
        fmt_row("cell-sharding speedup x", [speedup], "{:>10.2f}"),
    )

    # acceptance: >= 2x hot-minute ingest with shard_cells > 1 on 8 shards
    assert speedup >= 2.0

    # routing must not change what is stored or found
    ref = make_store("memory")
    for batch in batches:
        ref.insert_many(batch)
    store = ShardedStore.memory(n_shards=N_SHARDS, shard_cells=N_SHARDS)
    for batch in batches:
        store.insert_many(batch)
    area = Rect(2_000.0, 2_000.0, 6_000.0, 6_000.0)
    assert [vp.vp_id for vp in store.query(QuerySpec(minute=0, area=area)).vps] == [
        vp.vp_id for vp in ref.query(QuerySpec(minute=0, area=area)).vps
    ]
    store.close()


# -- pytest-benchmark entries (regression-gated in CI) ---------------------


def test_benchmark_retention_pass(benchmark):
    """Timed: ingest one minute + advance the watermark on a full window."""
    policy = RetentionPolicy(window_minutes=WINDOW_MINUTES)
    store = make_store("memory")
    for minute in range(WINDOW_MINUTES):
        store.insert_many(minute_corpus(minute, VPS_PER_MINUTE))
    state = {"minute": WINDOW_MINUTES}

    def advance_one_minute():
        minute = state["minute"]
        state["minute"] += 1
        store.insert_many(minute_corpus(minute, VPS_PER_MINUTE))
        apply_retention(store, policy, minute)

    benchmark(advance_one_minute)
    assert len(store) == WINDOW_MINUTES * VPS_PER_MINUTE
    store.close()


def test_benchmark_hot_minute_insert_many(benchmark):
    """Timed: one hot-minute batch through composite-routed sharding."""
    corpus = minute_corpus(0, 500, seed=3)
    for vp in corpus:
        encode_vp(vp)
        vp.positions_array

    def ingest_and_reset():
        store = ShardedStore.memory(n_shards=N_SHARDS, shard_cells=N_SHARDS)
        inserted = store.insert_many(corpus)
        assert inserted == len(corpus)
        store.close()

    benchmark(ingest_and_reset)
