"""Store scaling: linear scan vs the segment log's area queries.

The investigation hot path asks for every VP of one minute inside a
coverage area.  The seed database answered by linearly scanning the
whole minute; the segment log prunes on its per-minute bounding-box
columns and reads only the candidates' records.  This bench populates
one minute with 10k–50k VPs (100k with ``REPRO_BENCH_RUNS>=2``) spread
over a 10x10 km city and times a batch of site-sized (500 m) queries on
the volatile (``memory``) and the named (``sqlite``) placement,
asserting

* both placements return the linear scan's VP sets (insertion order
  included);
* the volatile store beats the linear scan >= 5x at 50k VPs;
* a named log round-trips through close/reopen with identical VPs.
"""

from __future__ import annotations

import random
import time

from repro.core.neighbors import NeighborTable
from repro.core.viewdigest import VDGenerator, make_secret
from repro.core.viewprofile import ViewProfile, build_view_profile
from repro.geo.geometry import Point, Rect
from repro.store import SegmentStore
from repro.store.base import vp_claims_in_area
from repro.store.serving import QuerySpec

from benchmarks.conftest import bench_runs, fmt_row

AREA_M = 10_000.0     #: city edge length
QUERY_M = 500.0       #: investigation site edge length
N_QUERIES = 5


def make_corpus(n: int, seed: int = 7) -> list[ViewProfile]:
    """n two-digest VPs of one minute, uniform over the city."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        gen = VDGenerator(make_secret(i + 1))
        x, y = rng.uniform(0, AREA_M), rng.uniform(0, AREA_M)
        gen.tick(1.0, Point(x, y), b"c")
        gen.tick(2.0, Point(x + 15.0, y), b"c")
        out.append(build_view_profile(gen.digests, NeighborTable()))
    return out


def query_areas(seed: int = 3) -> list[Rect]:
    rng = random.Random(seed)
    areas = []
    for _ in range(N_QUERIES):
        x, y = rng.uniform(0, AREA_M - QUERY_M), rng.uniform(0, AREA_M - QUERY_M)
        areas.append(Rect(x, y, x + QUERY_M, y + QUERY_M))
    return areas


def linear_scan(vps: list[ViewProfile], area: Rect) -> list[ViewProfile]:
    """The seed database's flat scan over every VP of the minute."""
    return [vp for vp in vps if vp_claims_in_area(vp, area)]


def timed(fn) -> tuple[float, object]:
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def ids(vps: list[ViewProfile]) -> list[bytes]:
    return [vp.vp_id for vp in vps]


def test_store_scaling(show, tmp_path):
    sizes = [10_000, 50_000]
    if bench_runs(1) >= 2:
        sizes.append(100_000)
    areas = query_areas()

    lines = ["Store scaling — one-minute area queries "
             f"({N_QUERIES} sites of {QUERY_M:.0f} m over {AREA_M / 1000:.0f} km city)",
             fmt_row("VPs/minute", sizes, "{:>10.0f}")]
    linear_ms, memory_ms, sqlite_ms, speedups = [], [], [], []

    for n in sizes:
        corpus = make_corpus(n)
        for vp in corpus:
            vp.positions_array  # prime caches so scans compare index work only

        memory = SegmentStore()
        memory.insert_many(corpus)
        sqlite = SegmentStore(str(tmp_path / f"scaling-{n}"))
        sqlite.insert_many(corpus)

        t_lin, expected = timed(lambda: [linear_scan(corpus, a) for a in areas])
        specs = [QuerySpec(minute=0, area=a) for a in areas]
        t_mem, via_mem = timed(lambda: [memory.query(spec).vps for spec in specs])
        t_sql, via_sql = timed(lambda: [sqlite.query(spec).vps for spec in specs])
        sqlite.close()
        memory.close()

        # identical results, insertion order included
        assert [ids(r) for r in via_mem] == [ids(r) for r in expected]
        assert [ids(r) for r in via_sql] == [ids(r) for r in expected]

        linear_ms.append(1e3 * t_lin)
        memory_ms.append(1e3 * t_mem)
        sqlite_ms.append(1e3 * t_sql)
        speedups.append(t_lin / max(t_mem, 1e-9))

    lines += [
        fmt_row("linear scan (seed) ms", linear_ms, "{:>10.2f}"),
        fmt_row("memory log ms", memory_ms, "{:>10.2f}"),
        fmt_row("named log ms", sqlite_ms, "{:>10.2f}"),
        fmt_row("memory speedup x", speedups, "{:>10.1f}"),
    ]
    show(*lines)

    # acceptance: >= 5x over the seed linear scan at 50k VPs/minute
    assert speedups[sizes.index(50_000)] >= 5.0


def test_sqlite_round_trip(show, tmp_path):
    path = str(tmp_path / "scaling")
    corpus = make_corpus(2_000, seed=11)
    area = query_areas(seed=5)[0]

    store = SegmentStore(path)
    t_ins, n = timed(lambda: store.insert_many(corpus))
    assert n == len(corpus)
    before = [
        (vp.vp_id, [vd.pack() for vd in vp.digests])
        for vp in store.query(QuerySpec(minute=0, area=area)).vps
    ]
    store.close()

    reopened = SegmentStore(path)
    t_q, after_vps = timed(lambda: reopened.query(QuerySpec(minute=0, area=area)).vps)
    after = [(vp.vp_id, [vd.pack() for vd in vp.digests]) for vp in after_vps]
    assert len(reopened) == len(corpus)
    assert after == before  # identical VPs across restart
    reopened.close()

    show(
        f"Segment-log round-trip: {len(corpus)} VPs inserted in {1e3 * t_ins:.1f} ms, "
        f"restart query {1e3 * t_q:.2f} ms, {len(after)} hits identical"
    )


def test_benchmark_grid_area_queries(benchmark):
    """Timed (regression-gated in CI): site queries on a 10k-VP minute.

    The name is the benchmark's baseline key; the store is the volatile
    segment log, which prunes on bounding-box columns, not a grid.
    """
    corpus = make_corpus(10_000)
    memory = SegmentStore()
    memory.insert_many(corpus)
    areas = query_areas()
    results = benchmark(lambda: [memory.query(QuerySpec(minute=0, area=a)).vps for a in areas])
    assert sum(len(r) for r in results) > 0
