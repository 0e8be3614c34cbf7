"""Store lifecycle: bounded long-run footprint.

The claim of the lifecycle subsystem pinned here:

* **Bounded footprint** — with a :class:`RetentionPolicy` advancing as
  ingest does, a multi-hour upload stream leaves the store holding one
  retention window, not the whole history: live VPs stay within 2x of a
  window's worth on the volatile and the named segment log, and the
  named log's segment files stay within 2x of a log built from a single
  window (eviction unlinks whole segments; nothing needs compacting).
"""

from __future__ import annotations

import os
import random

from repro.core.neighbors import NeighborTable
from repro.core.viewdigest import VDGenerator, make_secret
from repro.core.viewprofile import ViewProfile, build_view_profile
from repro.geo.geometry import Point
from repro.store import RetentionPolicy, SegmentStore, apply_retention
from repro.store.serving import QuerySpec

from benchmarks.conftest import bench_runs, fmt_row

AREA_M = 10_000.0          #: city edge length
WINDOW_MINUTES = 30        #: solicitation window the authority retains
VPS_PER_MINUTE = 60        #: steady upload rate of the long run
RUN_HOURS = 6              #: simulated duration of the long run


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
    stores: dict[str, SegmentStore] = {
        "memory": SegmentStore(),
        "sqlite": SegmentStore(path),
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
    with SegmentStore(ref_path) as ref:
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


# -- pytest-benchmark entries (regression-gated in CI) ---------------------


def test_benchmark_retention_pass(benchmark):
    """Timed: ingest one minute + advance the watermark on a full window."""
    policy = RetentionPolicy(window_minutes=WINDOW_MINUTES)
    store = SegmentStore()
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
