"""In-memory VP store with a per-minute spatial grid index.

The drop-in successor of the seed's flat dict database: identical
semantics, but an area query touches only the grid cells the query
rectangle overlaps instead of linearly scanning every VP of the minute
(see :mod:`repro.store.grid`).  Objects are stored by reference, so
``get`` and ``query`` return the exact instances that were inserted —
the one backend whose read primitive is the decoded ``_select``; a VP that
arrived inside a codec frame is held wire-backed — its packed digest
block and Bloom bits, about the paper's 4.5 kB, no digest objects.

Thread safety: every public method runs under one re-entrant lock, so
the store can sit behind a :class:`~repro.net.concurrency.ThreadedNetwork`
front-end.  ``write`` is atomic — concurrent batches containing the
same VP ids dedupe correctly and the returned counts never
double-count.  The coarse lock is deliberate: operations
are short (dict/grid updates), so finer striping would buy little and
cost invariants.
"""

from __future__ import annotations

import threading
from collections import defaultdict

from repro.core.viewprofile import ViewProfile
from repro.obs.metrics import MetricsRegistry, stage_timer
from repro.store.base import StoreStats, VPStore
from repro.store.codec import Batch
from repro.store.grid import DEFAULT_CELL_M, SpatialGrid
from repro.store.serving import MinuteTiles, QuerySpec, TileCache, build_minute_tiles


class MemoryStore(VPStore):
    """Minute- and grid-indexed in-memory backend (lock-guarded)."""

    kind = "memory"

    def __init__(
        self,
        cell_m: float = DEFAULT_CELL_M,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.cell_m = cell_m
        #: per-stage latency instrumentation (see ``docs/observability.md``)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: materialized coverage tiles, maintained incrementally at ingest
        self.tiles = TileCache(cell_m=cell_m, metrics=self.metrics)
        self._lock = threading.RLock()
        self._by_id: dict[bytes, ViewProfile] = {}
        self._by_minute: dict[int, list[ViewProfile]] = defaultdict(list)
        self._grids: dict[int, SpatialGrid] = {}

    # -- writes ------------------------------------------------------------

    def write(self, batch: Batch, strict: bool = False) -> int:
        """Land the batch's objects by reference under the store lock.

        A frame batch becomes wire-backed VPs here (before the lock),
        each owning a copy of its digest block so the frame buffer can
        be released; an object batch stores the caller's own instances.
        """
        with stage_timer(self.metrics, "store.insert"):
            vps = batch.vps()
            with self._lock:
                fresh = batch.fresh_indices(strict, self._by_id)
                minutes = {batch.meta[i][1] for i in fresh}
                with self.tiles.write(minutes) as tile_writes:
                    for i in fresh:
                        vp, record = vps[i], batch.meta[i]
                        minute = record[1]
                        # the stored instance carries the batch's bit
                        # from the moment it is visible to readers
                        vp.trusted = bool(record[2])
                        self._by_id[vp.vp_id] = vp
                        self._by_minute[minute].append(vp)
                        grid = self._grids.get(minute)
                        if grid is None:
                            grid = self._grids[minute] = SpatialGrid(cell_m=self.cell_m)
                        grid.insert(vp)
                        tile_writes.add(*record[1:])
                return len(fresh)

    # -- point reads -------------------------------------------------------

    def get(self, vp_id: bytes) -> ViewProfile | None:
        """Fetch one VP by identifier (the inserted instance itself)."""
        with self._lock:
            return self._by_id.get(vp_id)

    def iter_id_minutes(self) -> list[tuple[bytes, int]]:
        """(vp_id, minute) pairs of every stored VP (no body copies)."""
        with self._lock:
            return [(vp.vp_id, vp.minute) for vp in self._by_id.values()]

    def __len__(self) -> int:
        """Total stored VPs."""
        with self._lock:
            return len(self._by_id)

    def __contains__(self, vp_id: bytes) -> bool:
        """True when a VP with this identifier is stored."""
        with self._lock:
            return vp_id in self._by_id

    # -- minute/area reads ---------------------------------------------------

    def minutes(self) -> list[int]:
        """Sorted minute indices with at least one stored VP."""
        with self._lock:
            return sorted(self._by_minute)

    def _select(self, spec: QuerySpec) -> list[ViewProfile]:
        """The stored instances a spec selects, in insertion order.

        This backend's one read primitive: the minute list, or with an
        area the minute's grid (tile-pruned first), then the trusted
        filter.  ``query_encoded`` is the inherited encoding of it.
        """
        minute, area = spec.minute, spec.area
        if area is not None and not self._tiles_allow(minute, area):
            return []
        with self._lock:
            if area is None:
                vps = list(self._by_minute.get(minute, ()))
            else:
                grid = self._grids.get(minute)
                vps = grid.in_area(area) if grid is not None else []
        if spec.trusted_only:
            vps = [vp for vp in vps if vp.trusted]
        return vps

    def _build_tiles(self, minute: int) -> MinuteTiles:
        """Tile build from the VPs' memoized bounding boxes."""
        with self._lock:
            boxes = [
                (int(vp.trusted), *vp.bounding_box)
                for vp in self._by_minute.get(minute, ())
            ]
        return build_minute_tiles(boxes, self.cell_m)

    # -- lifecycle ---------------------------------------------------------

    def evict_before(self, minute: int, keep_trusted: bool = False) -> int:
        """Drop every minute bucket (and its grid) below the cutoff.

        Whole-bucket removal: the per-minute list, the minute's spatial
        grid and the id entries go together, so eviction cost scales
        with the evicted population only — retained minutes are never
        touched.  With ``keep_trusted`` an evicted minute's trusted VPs
        survive: the bucket is rebuilt around them (the grid re-indexes
        the survivors in their original insertion order), so an active
        investigation's seeds outlive the watermark.
        """
        with stage_timer(self.metrics, "store.evict"), self._lock:
            evicted = 0
            for m in [m for m in self._by_minute if m < minute]:
                bucket = self._by_minute.pop(m)
                self._grids.pop(m, None)
                pinned = [vp for vp in bucket if vp.trusted] if keep_trusted else []
                for vp in bucket:
                    if keep_trusted and vp.trusted:
                        continue
                    del self._by_id[vp.vp_id]
                    evicted += 1
                if pinned:
                    self._by_minute[m] = pinned
                    grid = self._grids[m] = SpatialGrid(cell_m=self.cell_m)
                    for vp in pinned:
                        grid.insert(vp)
            # pending tile builds are discarded and evicted minutes drop
            # from the cache while the store lock still excludes readers
            self.tiles.invalidate_below(minute)
            return evicted

    def compact(self) -> dict[str, int]:
        """Occupancy gauges only: eviction already reclaims in full.

        ``evict_before`` drops whole minute buckets (list, grid and id
        entries together), so an in-memory store has no fragmentation
        left to clean — compact is the observability hook of the
        lifecycle contract here.
        """
        with self._lock:
            return {
                "minutes": len(self._by_minute),
                "grid_cells": sum(g.n_cells for g in self._grids.values()),
            }

    # -- introspection -----------------------------------------------------

    def stats(self) -> StoreStats:
        """Occupancy snapshot (detail: ``cell_m``, ``grid_cells``)."""
        with self._lock:
            return StoreStats(
                backend=self.kind,
                vps=len(self._by_id),
                trusted=sum(1 for vp in self._by_id.values() if vp.trusted),
                minutes=len(self._by_minute),
                detail={
                    "cell_m": self.cell_m,
                    "grid_cells": sum(g.n_cells for g in self._grids.values()),
                    "tile_cache": self.tiles.info(),
                    "metrics": self.metrics.snapshot(),
                },
            )
