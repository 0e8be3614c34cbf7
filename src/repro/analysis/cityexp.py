"""City-scale viewmap experiments: Figs 21, 22c and 22f.

Runs the full-fidelity ViewMap simulation on grid-city traffic and
reports viewmap structure (node/edge counts, membership ratio) and
vehicle contact statistics per speed configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.database import VPDatabase
from repro.core.viewmap import ViewMapGraph, build_viewmap
from repro.geo.obstacles import corridor_los
from repro.geo.routing import make_grid_route_fn
from repro.mobility.scenarios import city_scenario
from repro.radio.channel import DsrcChannel
from repro.sim.contacts import mean_contact_time
from repro.sim.runner import run_viewmap_simulation
from repro.store import QuerySpec, RetentionPolicy, VPStore, make_store
from repro.util.rng import derive_seed


@dataclass
class CityViewmapStats:
    """Structural summary of one traffic-derived viewmap."""

    label: str
    nodes: int
    edges: int
    avg_degree: float
    components: int
    member_ratio: float
    mean_neighbors: float


def city_viewmap_stats(
    speed_kmh: float | None,
    mixed_speeds_kmh: tuple[float, ...] = (),
    n_vehicles: int = 400,
    area_km: float = 6.0,
    seed: int = 0,
    label: str | None = None,
    store: VPStore | str | None = None,
    workers: int = 1,
    retention: RetentionPolicy | None = None,
) -> tuple[CityViewmapStats, ViewMapGraph]:
    """Simulate one minute of city traffic and build its viewmap.

    The simulated VP corpus is batch-ingested into an authority VP
    database before the viewmap is built, exercising the real ingest →
    query path.  ``store`` selects the storage backend (an instance or a
    :func:`repro.store.make_store` kind name; default in-memory);
    ``workers`` > 1 drives the ingest from that many concurrent uploader
    threads (the stores are thread-safe).  ``retention`` replays the
    ingest in minute order with the retention watermark advancing, so
    the database ends the run holding only the retained window (a
    window shorter than the trace evicts the early minutes — including
    the one the viewmap is built from, which is the point when
    demonstrating lifecycle behaviour, but keep it >= the trace length
    for figure-faithful output).
    """
    scn = city_scenario(
        area_km=area_km,
        n_vehicles=n_vehicles,
        duration_s=120,
        speed_kmh=speed_kmh or 50.0,
        mixed_speeds_kmh=mixed_speeds_kmh,
        seed=derive_seed(seed, "city", speed_kmh, mixed_speeds_kmh),
    )
    channel = DsrcChannel(corridor_block_m=scn.block_m, seed=seed)
    result = run_viewmap_simulation(
        scn.traces,
        channel,
        route_fn=make_grid_route_fn(scn.block_m),
        seed=seed,
    )
    if isinstance(store, str):
        store = make_store(store)
    database = VPDatabase(store=store) if store is not None else VPDatabase()
    result.ingest_concurrently(database, workers=workers, retention=retention)
    vmap = build_viewmap(database.query(QuerySpec(minute=0)).vps, minute=0)
    stats = vmap.degree_stats()
    n_counts = list(result.neighbor_counts[0].values())
    mean_neighbors = sum(n_counts) / max(len(n_counts), 1)
    return (
        CityViewmapStats(
            label=label or (f"{speed_kmh:.0f}km/h" if speed_kmh else "Mix"),
            nodes=int(stats["nodes"]),
            edges=int(stats["edges"]),
            avg_degree=float(stats["avg_degree"]),
            components=int(stats["components"]),
            member_ratio=vmap.member_ratio(),
            mean_neighbors=mean_neighbors,
        ),
        vmap,
    )


def contact_time_by_speed(
    speeds_kmh: list[float | None],
    n_vehicles: int = 300,
    area_km: float = 6.0,
    duration_s: int = 300,
    seed: int = 0,
) -> dict[str, float]:
    """Average vehicle contact time per speed configuration (Fig 22c).

    ``None`` in the speed list means the mixed-speed configuration.
    """
    out: dict[str, float] = {}
    for speed in speeds_kmh:
        mixed = (30.0, 50.0, 70.0) if speed is None else ()
        scn = city_scenario(
            area_km=area_km,
            n_vehicles=n_vehicles,
            duration_s=duration_s,
            speed_kmh=speed or 50.0,
            mixed_speeds_kmh=mixed,
            seed=derive_seed(seed, "contact", speed),
        )
        label = "Mix" if speed is None else f"{speed:.0f}km/h"
        out[label] = mean_contact_time(
            scn.traces,
            los_fn=lambda a, b: corridor_los(a, b, scn.block_m),
        )
    return out
