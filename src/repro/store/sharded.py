"""Horizontal scale-out: hash-partition VPs across storage backends.

Models the authority running N storage nodes.  Routing is a composite
``(minute, spatial cell)`` key:

* with ``shard_cells=1`` (the default) the cell component vanishes and
  every VP lands on ``shards[minute % N]`` — a whole minute, the unit
  of investigation, lives on exactly one shard and minute/area queries
  touch a single backend;
* with ``shard_cells=C > 1`` the min corner of each VP's trajectory
  bounding box is hashed into one of C spatial routing slots (cell edge
  ``route_cell_m``) and the VP lands on ``shards[(minute + slot) % N]``.
  A single *hot* minute — rush hour concentrated in one district — now
  fans out across ``min(C, N)`` shards, so concurrent batch inserts
  into the same minute stop serializing behind one backend's writer
  lock.  Minute queries gather from the (bounded) owner-shard set and
  re-merge into fleet-wide insertion order via a per-minute sequence
  map.  Routing keys off the bounding box — metadata every
  :class:`~repro.store.codec.Batch` record carries — so a wire frame's
  records route to exactly the shards the same VPs would reach as
  objects, without decoding a single body.

Point lookups (``get``/``in``) probe shards in order, because an
anonymous identifier carries no minute information.  Shards can be any
mix of backends (memory for hot minutes, SQLite for durable ones); the
convenience constructors build homogeneous fleets.

Thread safety: routing itself is stateless, but the fleet-wide
duplicate-id check must not race — the same id arriving at two
*different* minutes (or two different cells of one minute) would pass
two independent checks and land on two shards.  Writers therefore pass
a short **reservation phase** under one lock: a pure in-memory probe of
the wrapper's **id directory** (every stored id, grouped by minute and
seeded from the shards at construction) plus a claim in an in-flight
set.  Holding no backend round-trips under the routing lock keeps the
reservation from serializing concurrent writers — the earlier design
probed every shard per batch and throttled the whole fleet to one
backend query stream.  The actual inserts then fan out to the shards in
parallel: a lone caller uses a small private pool, concurrent callers
run their own fan-outs inline on rotated shard orders (see
``_fanout``).  Reservations are dropped once the rows are visible
in the shards, so the in-flight set stays small.

Lifecycle: ``evict_before`` retires whole minutes fleet-wide — the
per-minute sequence map is dropped first (so queries stop resurrecting
order state), then the eviction fans out to every shard.  An upload
racing into a just-evicted minute is *not* an error: the reservation
finds the fleet empty for that id again, the owning shard re-creates
the minute bucket, and the next retention pass removes it.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Iterable, Sequence, TypeVar

from repro.core.viewprofile import ViewProfile
from repro.errors import ValidationError
from repro.obs.metrics import MetricsRegistry, merge_snapshots, stage_timer
from repro.store.base import StoreStats, VPStore
from repro.store.codec import (
    Batch,
    encode_row_batch,
    iter_encoded_meta,
    join_encoded_spans,
)
from repro.store.grid import DEFAULT_CELL_M
from repro.store.memory import MemoryStore
from repro.store.serving import MinuteTiles, QuerySpec, TileCache

#: upper bound on the batch fan-out pool, whatever the shard count
MAX_FANOUT_WORKERS = 8

#: default spatial routing-cell edge — district-sized, far coarser than
#: the query grid (`DEFAULT_CELL_M`): routing only needs to split a hot
#: minute's load, not answer area queries
DEFAULT_ROUTE_CELL_M = 1000.0

_T = TypeVar("_T")


class ShardedStore(VPStore):
    """Minute-partitioned wrapper over a fleet of VP store backends."""

    kind = "sharded"

    def __init__(
        self,
        shards: Sequence[VPStore],
        fanout_workers: int | None = None,
        shard_cells: int = 1,
        route_cell_m: float = DEFAULT_ROUTE_CELL_M,
        metrics: MetricsRegistry | None = None,
        tile_cell_m: float = DEFAULT_CELL_M,
    ) -> None:
        """Wrap an ordered shard fleet.

        ``fanout_workers`` caps the pool used to parallelize batch
        inserts across shards (``None`` sizes it to the fleet, ``0``
        forces serial fan-out).  ``shard_cells`` widens routing from
        minute-only (1) to ``(minute, spatial cell)`` composite keys
        over that many routing slots; ``route_cell_m`` is the edge of
        one spatial routing cell.
        """
        if not shards:
            raise ValidationError("a sharded store needs at least one shard")
        if shard_cells < 1:
            raise ValidationError("shard_cells must be >= 1")
        if route_cell_m <= 0:
            raise ValidationError("route_cell_m must be positive")
        self.shards = list(shards)
        self.shard_cells = shard_cells
        self.route_cell_m = route_cell_m
        #: the routing tier's own registry; ``stats()`` merges it with
        #: every shard's shipped snapshot into ``detail["metrics"]``
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: router-level coverage tiles: area/count queries answer (or
        #: short-circuit) here without touching a shard.  ``tile_cell_m``
        #: must match the shards' query-grid cell so merged tile maps
        #: align cell-for-cell.
        self.tiles = TileCache(cell_m=tile_cell_m, metrics=self.metrics)
        if fanout_workers is None:
            fanout_workers = min(len(self.shards), MAX_FANOUT_WORKERS)
        self.fanout_workers = fanout_workers
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        # ids claimed by an in-flight write but possibly not yet visible
        # in any shard; guarded by the routing lock (see module docstring)
        self._route_lock = threading.Lock()
        self._in_flight: set[bytes] = set()
        # concurrent write calls in flight (guarded by _pool_lock)
        # plus a rotation counter that staggers which shard each inline
        # fan-out starts on, so concurrent callers don't convoy on the
        # same shard's writer lock
        self._active_batches = 0
        self._rotation = 0
        # the routing tier's fleet-wide id directory (id -> minute):
        # duplicate checks and point-read routing answer from memory
        # instead of probing every shard per batch (which serialized all
        # writers behind N backend queries).  Seeded from pre-populated
        # shards (metadata-only scan), kept exact by _release on the
        # write path and evict_before.  ``_minute_ids`` groups the same
        # ids by minute so eviction retires a minute's directory entries
        # wholesale; mutate both only through _directory_add and
        # evict_before.
        self._ids: dict[bytes, int] = {}
        self._minute_ids: dict[int, set[bytes]] = {}
        # composite routing spreads one minute across shards, so the
        # fleet-wide insertion order must be tracked here: minute ->
        # vp_id -> global sequence number (guarded by the routing lock,
        # dropped wholesale when the minute is evicted)
        self._minute_seq: dict[int, dict[bytes, int]] = {}
        self._next_seq = 0
        self._seed_directory_from_shards()

    def _seed_directory_from_shards(self) -> None:
        """Rebuild the id directory with a metadata-only fleet scan."""
        for shard in self.shards:
            for vp_id, minute in shard.iter_id_minutes():
                self._directory_add(vp_id, minute)
                if self.shard_cells > 1:
                    # seed order state for pre-populated shards: the true
                    # cross-shard interleaving of a previous process is
                    # unrecoverable, but per-shard order is kept and every
                    # pre-existing VP sorts before anything inserted from
                    # now on — a restart never inverts old behind new
                    seq_map = self._minute_seq.setdefault(minute, {})
                    seq_map[vp_id] = self._next_seq
                    self._next_seq += 1

    def _directory_add(self, vp_id: bytes, minute: int) -> None:
        """Record one stored id in the directory.

        Callers hold the routing lock (construction runs pre-sharing and
        needs none).  Single mutation point for the paired structures:
        the id -> minute map and the per-minute id groups move in
        lockstep or not at all.
        """
        self._ids[vp_id] = minute
        self._minute_ids.setdefault(minute, set()).add(vp_id)

    @classmethod
    def memory(
        cls,
        n_shards: int = 4,
        cell_m: float = DEFAULT_CELL_M,
        shard_cells: int = 1,
        route_cell_m: float = DEFAULT_ROUTE_CELL_M,
    ) -> "ShardedStore":
        """A fleet of in-memory shards."""
        return cls(
            [MemoryStore(cell_m=cell_m) for _ in range(n_shards)],
            shard_cells=shard_cells,
            route_cell_m=route_cell_m,
            tile_cell_m=cell_m,
        )

    @classmethod
    def sqlite(
        cls,
        paths: Sequence[str],
        shard_cells: int = 1,
        route_cell_m: float = DEFAULT_ROUTE_CELL_M,
        group_commit_rows: int = 0,
    ) -> "ShardedStore":
        """A fleet of SQLite shards, one database file per path.

        ``group_commit_rows`` turns on the per-shard group-commit path.
        """
        from repro.store.sqlite import SQLiteStore

        return cls(
            [SQLiteStore(path, group_commit_rows=group_commit_rows) for path in paths],
            shard_cells=shard_cells,
            route_cell_m=route_cell_m,
        )

    # -- routing -----------------------------------------------------------

    def shard_for(self, minute: int) -> VPStore:
        """The backend owning one minute's VPs under minute-only routing."""
        return self.shards[minute % len(self.shards)]

    def _slot_of_xy(self, x: float, y: float) -> int:
        """Spatial routing slot of one coordinate in ``[0, shard_cells)``.

        The mix is an explicit integer hash (stable across processes,
        unlike ``hash()`` on strings) so a persistent fleet reopened
        later routes queries to the same shards.  Non-finite
        coordinates are rejected as ``ValidationError`` — routing is
        fed attacker-influenced metadata, and ``int(nan // cell)``
        would otherwise escape as a non-Repro exception.
        """
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValidationError("cannot route a VP with non-finite coordinates")
        cx = int(float(x) // self.route_cell_m)
        cy = int(float(y) // self.route_cell_m)
        mixed = (cx * 0x9E3779B1 + cy * 0x85EBCA77) & 0xFFFFFFFF
        return mixed % self.shard_cells

    def _shard_index(self, record: tuple) -> int:
        """Composite ``(minute, cell)`` shard index of one batch record.

        The cell is the routing cell of the bounding box's min corner —
        deterministic per VP and read from the record metadata alone,
        so objects and frames agree on every placement.
        """
        if self.shard_cells == 1:
            return record[1] % len(self.shards)
        return (record[1] + self._slot_of_xy(record[3], record[4])) % len(self.shards)

    def _owner_indices(self, minute: int) -> list[int]:
        """Every shard index that may hold VPs of one minute."""
        n = len(self.shards)
        slots = min(self.shard_cells, n)
        return sorted({(minute + slot) % n for slot in range(slots)})

    def _fanout_pool(self) -> ThreadPoolExecutor | None:
        """The lazily created cross-shard insert pool (None = serial)."""
        if self.fanout_workers < 1 or len(self.shards) < 2:
            return None
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.fanout_workers,
                    thread_name_prefix="repro-shard",
                )
            return self._pool

    # -- writes ------------------------------------------------------------

    def _reserve(self, batch: Batch, strict: bool) -> list[int]:
        """Claim the batch's fresh ids against the fleet and in-flight set.

        Runs the fleet-wide duplicate check and the claim as one atomic
        step, closing the window where the same id at two different
        minutes (or cells) would pass two independent checks and land on
        two shards.  The check is a pure in-memory probe of the id
        directory — no backend round-trips while the routing lock is
        held.  Returns the indices of the records this caller now owns
        the right to insert (first claim per id wins); a ``strict``
        duplicate raises before anything is claimed.
        """
        with self._route_lock:
            fresh = batch.fresh_indices(strict, self._ids, self._in_flight)
            self._in_flight.update(batch.meta[i][0] for i in fresh)
            if self.shard_cells > 1:
                # claim fleet-wide insertion-order slots while the batch
                # order is still known; a stale entry from a failed
                # insert is harmless (merges only order rows that exist)
                for i in fresh:
                    vp_id, minute = batch.meta[i][:2]
                    seq_map = self._minute_seq.setdefault(minute, {})
                    seq_map[vp_id] = self._next_seq
                    self._next_seq += 1
            return fresh

    def _release(self, pairs: list[tuple[bytes, int]]) -> None:
        """Drop reservations and record the ids: their rows landed."""
        with self._route_lock:
            self._in_flight.difference_update(vp_id for vp_id, _minute in pairs)
            for vp_id, minute in pairs:
                self._directory_add(vp_id, minute)

    def _release_failed(self, pairs: list[tuple[bytes, int]]) -> None:
        """Reconcile the directory when a write raised mid-flight.

        An exception leaves the per-shard outcome unknown (some
        sub-batches may have committed before another shard failed), so
        the claimed ids are re-probed against the backends and only the
        rows that actually landed are recorded — keeping the directory
        exactly as trustworthy as the shard probes it replaced.
        """
        by_id = dict(pairs)
        landed: set[bytes] = set()
        for shard in self.shards:
            landed |= shard.existing_ids(list(by_id))
        with self._route_lock:
            self._in_flight.difference_update(by_id)
            for vp_id in landed:
                self._directory_add(vp_id, by_id[vp_id])

    def write(self, batch: Batch, strict: bool = False) -> int:
        """Reserve, route from metadata, forward one sub-batch per shard.

        The batch is deduplicated (against the fleet, in-flight writes,
        and within itself) under the routing lock and partitioned by
        owning shard; each shard lands its sub-batch through its own
        ``write``.  Racing batches that contain the same VP agree on a
        single winner and the summed counts stay exact.  A frame that
        routes entirely to one shard is forwarded untouched; otherwise
        its record spans are regrouped without decoding a body.
        """
        with stage_timer(self.metrics, "route.insert"):
            meta = batch.meta
            fresh = self._reserve(batch, strict)
            claimed = [meta[i][:2] for i in fresh]
            try:
                by_shard: dict[int, list[int]] = {}
                for i in fresh:
                    by_shard.setdefault(self._shard_index(meta[i]), []).append(i)
                minutes = {minute for _vp_id, minute in claimed}
                with self.tiles.write(minutes) as tile_writes:
                    inserted = self._fanout(
                        {idx: batch.select(ix) for idx, ix in by_shard.items()}, strict
                    )
                    if inserted == len(fresh):
                        for i in fresh:
                            tile_writes.add(*meta[i][1:])
                    elif inserted:
                        # a shard rejected part of its sub-batch, so the
                        # landed set is unknown — rebuild on next read
                        tile_writes.mark_dirty(*minutes)
            except BaseException:
                self._release_failed(claimed)
                raise
            self._release(claimed)
            return inserted

    def _fanout(self, by_shard: dict[int, Batch], strict: bool) -> int:
        """Write one sub-batch per shard with adaptive parallelism.

        A lone caller fans out on the private pool (overlapping
        per-shard commit I/O), while concurrent callers each run their
        own fan-out inline — the callers already provide the
        thread-level parallelism, and funnelling every sub-batch
        through one bounded pool would just queue them.  Inline
        fan-outs start on rotated shards so racing callers walk the
        fleet out of phase instead of convoying on one writer lock.
        """
        with self._pool_lock:
            self._active_batches += 1
            contended = self._active_batches > 1
            self._rotation += 1
            rotation = self._rotation
        try:
            pool = None
            if len(by_shard) > 1 and not contended:
                pool = self._fanout_pool()
            if pool is None:
                order = sorted(
                    by_shard,
                    key=lambda idx: (idx + rotation) % len(self.shards),
                )
                return sum(self.shards[idx].write(by_shard[idx], strict) for idx in order)
            futures = [
                pool.submit(self.shards[idx].write, sub, strict)
                for idx, sub in by_shard.items()
            ]
            # drain every sub-batch before surfacing a failure: the
            # post-failure directory reconciliation probes the shards
            # and must see the final outcome, not race a sibling
            # sub-batch that is still committing
            wait(futures)
            return sum(f.result() for f in futures)
        finally:
            with self._pool_lock:
                self._active_batches -= 1

    def existing_ids(self, vp_ids: Iterable[bytes]) -> set[bytes]:
        """Which of these identifiers are stored on any shard.

        Answered from the routing tier's id directory — one set probe
        per id, no shard round-trips.
        """
        with self._route_lock:
            return {vp_id for vp_id in vp_ids if vp_id in self._ids}

    # -- point reads -------------------------------------------------------

    def get(self, vp_id: bytes) -> ViewProfile | None:
        """Fetch one VP by identifier via the id directory.

        Misses (common on investigation paths after eviction) cost one
        in-memory probe; hits route to the minute's owner shards only.
        The residual fleet sweep covers directory entries whose rows
        moved — a fleet reopened under a different routing config — so
        a stored VP is never unreachable.
        """
        with self._route_lock:
            minute = self._ids.get(vp_id)
        if minute is None:
            return None
        owners = self._owner_indices(minute)
        rest = [i for i in range(len(self.shards)) if i not in owners]
        for idx in owners + rest:
            vp = self.shards[idx].get(vp_id)
            if vp is not None:
                return vp
        return None

    def __len__(self) -> int:
        """Total stored VPs across the fleet."""
        return sum(len(shard) for shard in self.shards)

    def __contains__(self, vp_id: bytes) -> bool:
        """True when any shard stores a VP with this identifier."""
        with self._route_lock:
            return vp_id in self._ids

    def iter_id_minutes(self) -> list[tuple[bytes, int]]:
        """(vp_id, minute) pairs of every stored VP, shard by shard."""
        return [pair for shard in self.shards for pair in shard.iter_id_minutes()]

    # -- minute/area queries -----------------------------------------------

    def minutes(self) -> list[int]:
        """Sorted minute indices with at least one stored VP, fleet-wide."""
        out: set[int] = set()
        for shard in self.shards:
            out.update(shard.minutes())
        return sorted(out)

    def query_encoded(self, spec: QuerySpec) -> bytes:
        """The router's one read primitive: a decode-free span query,
        fanned out over owner shards only.

        Each owner shard returns a ready codec frame of its matching
        records (already area-filtered and trusted-filtered on the
        shard, where the rows live).  Under minute-only routing the
        single owner's frame passes through untouched; under composite
        routing the per-shard frames are re-merged into fleet-wide
        insertion order by walking their record *metadata* and joining
        the raw spans — no VP body is decoded on the router.

        Each shard returns its records in local insertion order; the
        per-minute sequence map restores the global one.  The map is
        seeded at construction for pre-populated shards (per-shard
        order, every old VP before every new one), so unknown ids are a
        last-resort safety net only: they keep their per-shard order and
        trail the known ones.  Callers needing *exact* cross-restart
        order use minute-only routing, where rowid order is the truth.
        """
        if spec.area is not None and not self._tiles_allow(spec.minute, spec.area):
            return encode_row_batch([])
        if self.shard_cells == 1:
            return self.shard_for(spec.minute).query_encoded(spec)
        frames = [
            self.shards[idx].query_encoded(spec)
            for idx in self._owner_indices(spec.minute)
        ]
        with self._route_lock:
            seqs = dict(self._minute_seq.get(spec.minute, ()))
        known: list[tuple[int, bytes, int, int]] = []
        unknown: list[tuple[bytes, int, int]] = []
        for frame in frames:
            for row, start, end in iter_encoded_meta(frame):
                seq = seqs.get(bytes(row[0]))
                if seq is None:
                    unknown.append((frame, start, end))
                else:
                    known.append((seq, frame, start, end))
        known.sort(key=lambda item: item[0])
        spans = [(frame, start, end) for _, frame, start, end in known]
        spans.extend(unknown)
        return join_encoded_spans(spans)

    def _build_tiles(self, minute: int) -> MinuteTiles:
        """Merge the owner shards' tile maps into one fleet-wide map.

        Shards partition the minute's VPs, so per-cell counts and the
        per-minute totals add exactly; the shard-level caches make the
        merge incremental in practice.
        """
        merged = MinuteTiles(cell_m=self.tiles.cell_m)
        for idx in self._owner_indices(minute):
            merged.merge(self.shards[idx].coverage_tiles(minute))
        return merged

    # -- lifecycle / introspection -----------------------------------------

    def _map_shards(self, fn: Callable[[VPStore], _T]) -> list[_T]:
        """Apply one operation to every shard, on the pool when available."""
        pool = self._fanout_pool()
        if pool is None:
            return [fn(shard) for shard in self.shards]
        return [f.result() for f in [pool.submit(fn, shard) for shard in self.shards]]

    def evict_before(self, minute: int, keep_trusted: bool = False) -> int:
        """Retire every minute below the cutoff across the whole fleet.

        Ordering matters against racing writers: the shard rows are
        deleted *first*, and only then are the (snapshotted) directory
        entries dropped.  While the pass runs, a re-upload of an
        evicted id is still rejected by the directory — never admitted
        against a half-evicted fleet, which would strand the directory
        with ids whose rows are gone.  A *fresh* id racing into an
        evicted minute is stored normally (its directory entry is not
        in the snapshot, so the cleanup leaves it alone) and the next
        retention pass removes it.  The one unavoidable window — an
        insert that landed just before its shard's eviction but
        released after the snapshot — leaves a directory-only ghost
        that the next pass sweeps, so repeated watermark advances keep
        the directory exact.

        With ``keep_trusted`` the shards pin their trusted rows; the
        directory tracks only ``(id, minute)``, so the surviving ids
        are re-learned with one batched ``existing_ids`` probe per
        shard over the snapshotted (evicted-minute) ids — cost scales
        with the evicted population, and the per-minute order state of
        survivors is preserved.
        """
        with self._route_lock:
            if not keep_trusted:
                for m in [m for m in self._minute_seq if m < minute]:
                    del self._minute_seq[m]
            snapshot = {
                m: set(ids) for m, ids in self._minute_ids.items() if m < minute
            }
        evicted = sum(
            self._map_shards(lambda shard: shard.evict_before(minute, keep_trusted))
        )
        # epoch bump: discard router tile builds that overlapped the
        # fan-out and drop every cached minute below the watermark
        self.tiles.invalidate_below(minute)
        survivors: set[bytes] = set()
        if keep_trusted and snapshot:
            snapshot_ids = [vp_id for ids in snapshot.values() for vp_id in ids]
            for found in self._map_shards(
                lambda shard: shard.existing_ids(snapshot_ids)
            ):
                survivors |= found
        with self._route_lock:
            for m, ids in snapshot.items():
                dropped = ids - survivors
                current = self._minute_ids.get(m)
                if current is not None:
                    current.difference_update(dropped)
                    if not current:
                        del self._minute_ids[m]
                for vp_id in dropped:
                    self._ids.pop(vp_id, None)
                if keep_trusted:
                    seq_map = self._minute_seq.get(m)
                    if seq_map:
                        for vp_id in dropped:
                            seq_map.pop(vp_id, None)
                        if not seq_map:
                            del self._minute_seq[m]
        return evicted

    def compact(self) -> dict:
        """Compact every shard; returns per-shard gauges in fleet order."""
        return {"shards": self._map_shards(lambda shard: shard.compact())}

    def stats(self) -> StoreStats:
        """Fleet-wide occupancy with per-shard detail.

        Beyond the summed counters, the detail surfaces per-shard
        *skew*: ``shard_load`` max/min gauges (and their imbalance
        ratio) make a hot shard visible where a fleet-wide sum would
        average it away.  ``detail["metrics"]`` is the fleet-wide merged
        metric snapshot — the routing tier's own registry folded with
        every shard's shipped snapshot (for process-backed shards, the
        snapshot crosses the worker pipe inside the shard's ``stats``
        reply), so per-stage histograms aggregate across all worker
        processes.
        """
        per_shard = [shard.stats() for shard in self.shards]
        shard_vps = [s.vps for s in per_shard]
        load_max, load_min = max(shard_vps), min(shard_vps)
        self.metrics.set_gauge("shards.load_max", load_max)
        self.metrics.set_gauge("shards.load_min", load_min)
        merged = merge_snapshots(
            [self.metrics.snapshot()]
            + [s.detail.get("metrics") or {} for s in per_shard]
        )
        return StoreStats(
            backend=self.kind,
            vps=sum(s.vps for s in per_shard),
            trusted=sum(s.trusted for s in per_shard),
            minutes=len(self.minutes()),
            detail={
                "n_shards": len(self.shards),
                "fanout_workers": self.fanout_workers,
                "shard_cells": self.shard_cells,
                "route_cell_m": self.route_cell_m,
                "shard_backends": [s.backend for s in per_shard],
                "shard_vps": shard_vps,
                "shard_load": {
                    "max": load_max,
                    "min": load_min,
                    "imbalance": load_max / load_min if load_min else float(load_max),
                },
                "tile_cache": self.tiles.info(),
                "metrics": merged,
            },
        )

    def close(self) -> None:
        """Shut the fan-out pool down and close every shard."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        for shard in self.shards:
            shard.close()
