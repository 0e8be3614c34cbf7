"""Full-fidelity ViewMap simulation over a mobility trace.

Each second every vehicle records a chunk, extends its hash chain and
broadcasts a real :class:`~repro.core.viewdigest.ViewDigest`; the channel
decides which neighbours receive it; receivers validate and store
first/last VDs.  At minute boundaries agents compile actual VPs, create
guard VPs along road-plausible routes, and the runner collects everything
with ground truth attached (owner vehicle per VP) for evaluation.

``fast_links=True`` replaces the RSSI/PDR draw with a fixed delivery
probability conditioned on LOS — statistically equivalent for linkage
structure and considerably cheaper on 1000-vehicle runs.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from scipy.spatial import cKDTree

from repro.core.guard import RouteFn, straight_route
from repro.core.vehicle import MinuteResult, VehicleAgent
from repro.core.viewprofile import ViewProfile
from repro.errors import SimulationError
from repro.geo.geometry import Point
from repro.mobility.traces import TraceSet
from repro.radio.channel import DsrcChannel
from repro.util.rng import derive_seed, make_rng

LOS_DELIVERY_P = 0.95    #: fast-mode per-beacon delivery probability (LOS)
NLOS_DELIVERY_P = 0.02   #: fast-mode per-beacon delivery probability (NLOS)


@dataclass
class SimulationResult:
    """Everything a full-fidelity run produces."""

    vps_by_minute: dict[int, list[ViewProfile]] = field(
        default_factory=lambda: defaultdict(list)
    )
    #: ground truth: actual VP id -> owner vehicle id
    actual_owner: dict[bytes, int] = field(default_factory=dict)
    #: ground truth: guard VP id -> creator vehicle id
    guard_creator: dict[bytes, int] = field(default_factory=dict)
    #: per-vehicle actual VP ids in minute order
    vehicle_sequence: dict[int, list[bytes]] = field(
        default_factory=lambda: defaultdict(list)
    )
    #: per-minute neighbour counts per vehicle (for Fig 9 volume stats)
    neighbor_counts: dict[int, dict[int, int]] = field(
        default_factory=lambda: defaultdict(dict)
    )
    agents: dict[int, VehicleAgent] = field(default_factory=dict)

    def all_vps(self) -> list[ViewProfile]:
        """Every VP (actual + guard) across all minutes."""
        return [vp for vps in self.vps_by_minute.values() for vp in vps]

    def ingest_into(self, database) -> int:
        """Batch-insert every produced VP into a VP database (or store).

        Uses the ``insert_many`` batch path one minute at a time — the
        same shape a city-scale authority sees from batched uploads —
        and returns how many VPs were newly stored.  ``database`` is
        anything exposing ``insert_many`` (``VPDatabase`` or a raw
        ``repro.store`` backend).
        """
        return sum(
            database.insert_many(self.vps_by_minute[minute])
            for minute in sorted(self.vps_by_minute)
        )

    def ingest_concurrently(self, database, workers: int = 4, retention=None) -> int:
        """Batch-insert every produced VP with N concurrent uploaders.

        Replays the corpus through the same ``insert_many`` batch path
        as :meth:`ingest_into`, but from a pool of ``workers`` threads —
        the shape a city-scale authority sees when a fleet uploads over
        WiFi simultaneously.  Each minute's output is split into enough
        chunks that all workers stay busy even when the trace covers few
        minutes.  ``database`` must be thread-safe (every ``repro.store``
        backend and :class:`~repro.core.database.VPDatabase` over one).
        Returns how many VPs were newly stored; the stored population is
        identical to the serial path, though per-minute insertion order
        may interleave differently.

        ``retention`` (a :class:`~repro.store.lifecycle.RetentionPolicy`)
        turns the replay into a *live* long-run: minutes are replayed in
        wall-clock order and after each one the retention watermark
        advances — eviction runs concurrently with the next minute's
        uploads, exactly the steady state of a long-lived authority.
        The store then ends the run holding only the retained window
        (trusted VPs excepted when the policy pins them).  A
        process-sharded store (``make_store("procs", ...)``) composes
        naturally: the uploader threads feed the worker fleet
        concurrently, and eviction fans out across the worker
        processes.
        """
        minutes = sorted(self.vps_by_minute)
        if (workers <= 1 and retention is None) or not minutes:
            return self.ingest_into(database)
        workers = max(workers, 1)
        insert = database.insert_many
        from concurrent.futures import ThreadPoolExecutor

        def minute_batches(minute: int, n_chunks: int) -> list[list[ViewProfile]]:
            vps = self.vps_by_minute[minute]
            if not vps:  # defaultdict reads can leave empty minutes behind
                return []
            n_chunks = min(n_chunks, len(vps))
            size = -(-len(vps) // n_chunks)
            return [vps[s : s + size] for s in range(0, len(vps), size)]

        if retention is None:
            # no watermark to order by: every minute's chunks fly at once
            chunks_per_minute = -(-workers // len(minutes))  # ceil division
            batches = [
                b for minute in minutes for b in minute_batches(minute, chunks_per_minute)
            ]
            if not batches:
                return 0
            with ThreadPoolExecutor(
                max_workers=min(workers, len(batches)),
                thread_name_prefix="repro-ingest",
            ) as pool:
                futures = [pool.submit(insert, b) for b in batches]
                return sum(f.result() for f in futures)

        inserted = 0
        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-ingest"
        ) as pool:
            eviction = None
            for minute in minutes:
                futures = [
                    pool.submit(insert, b) for b in minute_batches(minute, workers)
                ]
                inserted += sum(f.result() for f in futures)
                if eviction is not None:
                    eviction.result()  # previous minute's pass, overlapped
                eviction = pool.submit(
                    database.evict_before,
                    retention.cutoff(minute),
                    keep_trusted=retention.pin_trusted,
                )
            if eviction is not None:
                eviction.result()
        return inserted

    def actual_vps(self, minute: int) -> list[ViewProfile]:
        """Actual VPs of a minute (ground-truth filtered)."""
        return [
            vp for vp in self.vps_by_minute.get(minute, [])
            if vp.vp_id in self.actual_owner
        ]

    def guard_vps(self, minute: int) -> list[ViewProfile]:
        """Guard VPs of a minute (ground-truth filtered)."""
        return [
            vp for vp in self.vps_by_minute.get(minute, [])
            if vp.vp_id in self.guard_creator
        ]


@dataclass
class ViewMapSimulation:
    """Configurable runner; see module docstring."""

    traces: TraceSet
    channel: DsrcChannel
    route_fn: RouteFn = staticmethod(straight_route)
    alpha: float | None = None
    seed: int = 0
    fast_links: bool = True

    def run(self) -> SimulationResult:
        """Execute the simulation over the whole trace duration."""
        duration = self.traces.duration_s
        if duration < 60:
            raise SimulationError("trace must cover at least one minute")
        ids = self.traces.vehicle_ids()
        agents = {
            vid: VehicleAgent(
                vehicle_id=vid,
                route_fn=self.route_fn,
                alpha=self.alpha,
                seed=derive_seed(self.seed, "agent-seed", vid),
            )
            for vid in ids
        }
        result = SimulationResult(agents=agents)
        rng_links = make_rng(derive_seed(self.seed, "links"))
        matrix = self.traces.position_matrix()
        n_minutes = duration // 60

        for minute in range(n_minutes):
            for sec in range(60):
                t = float(minute * 60 + sec + 1)
                col = minute * 60 + sec + 1
                pts = matrix[:, col, :]
                digests = {}
                positions = {}
                for row, vid in enumerate(ids):
                    p = Point(pts[row, 0], pts[row, 1])
                    positions[vid] = p
                    digests[vid] = agents[vid].emit(t, p, minute=minute)
                tree = cKDTree(pts)
                for ii, jj in tree.query_pairs(self.channel.config.max_range_m):
                    a, b = ids[ii], ids[jj]
                    pa, pb = positions[a], positions[b]
                    if self._delivered(pa, pb, rng_links):
                        agents[b].receive(digests[a], t, pb)
                    if self._delivered(pb, pa, rng_links):
                        agents[a].receive(digests[b], t, pa)
            for vid in ids:
                self._collect(result, minute, vid, agents[vid].finalize_minute())
        return result

    def _delivered(self, tx: Point, rx: Point, rng) -> bool:
        """Per-beacon delivery decision (fast or full radio model)."""
        if self.fast_links:
            p = LOS_DELIVERY_P if self.channel.is_los(tx, rx) else NLOS_DELIVERY_P
            return rng.random() < p
        return self.channel.beacon_delivered(tx, rx)

    def _collect(
        self, result: SimulationResult, minute: int, vid: int, res: MinuteResult
    ) -> None:
        result.vps_by_minute[minute].append(res.actual_vp)
        result.actual_owner[res.actual_vp.vp_id] = vid
        result.vehicle_sequence[vid].append(res.actual_vp.vp_id)
        result.neighbor_counts[minute][vid] = res.neighbor_count
        for guard in res.guard_vps:
            result.vps_by_minute[minute].append(guard)
            result.guard_creator[guard.vp_id] = vid


def run_viewmap_simulation(
    traces: TraceSet,
    channel: DsrcChannel,
    route_fn: RouteFn = straight_route,
    alpha: float | None = None,
    seed: int = 0,
    fast_links: bool = True,
) -> SimulationResult:
    """One-call convenience wrapper around :class:`ViewMapSimulation`."""
    sim = ViewMapSimulation(
        traces=traces,
        channel=channel,
        route_fn=route_fn,
        alpha=alpha,
        seed=seed,
        fast_links=fast_links,
    )
    return sim.run()
