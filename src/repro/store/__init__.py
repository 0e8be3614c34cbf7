"""repro.store — pluggable, spatially-indexed, persistent VP storage.

The authority's VP database is a facade over one of these interchangeable
backends (all implementing the :class:`~repro.store.base.VPStore`
contract):

* :class:`~repro.store.memory.MemoryStore` — per-minute uniform spatial
  grid; fastest, volatile.  The default, and the right choice for
  simulations and tests.
* :class:`~repro.store.segments.SegmentStore` — the persistent backend
  (``make_store("sqlite", path)``): a minute-segment log that appends
  wire records verbatim; survives restarts and scales past RAM.  Pick
  it for a long-lived authority.
* :class:`~repro.store.sharded.ShardedStore` — hash-partitions minutes
  across N inner backends to model horizontal scale-out.  Pick it when
  one node cannot absorb a city's upload stream.
* :class:`~repro.store.workers.ProcessShardedStore` — the sharded
  fleet with every shard in its own worker OS process, fed over pipes
  with the columnar batch codec.  Pick it when a *hot* shard's ingest
  is GIL-bound: batch encode/decode and segment appends run on the
  workers' GILs, so hot-shard ``insert_many`` scales with worker count
  instead of ~1.1x.

:func:`make_store` maps the CLI-facing backend names to instances.

Every backend is thread-safe behind the concurrent authority front-end
(:mod:`repro.net.concurrency`): memory and the segment log each
serialize on one lock (the log reads outside it), and sharded fleets
fan batch inserts out to their
(thread-safe) shards concurrently.  Sharded fleets optionally route by
``(minute, spatial cell)`` composite keys (``shard_cells``) so a single
hot minute fans out across shards.

Reads go through ONE entry point — ``VPStore.query`` with a
:class:`~repro.store.serving.QuerySpec` — backed by the serving tier
(:mod:`repro.store.serving`): incrementally-maintained per-cell coverage
tiles answer count queries and prune area queries without touching rows,
and ``query_encoded`` serves decode-free span replies for the wire.  Each
backend implements one selection primitive (``query_encoded`` where it
holds bytes, ``_select`` where it holds objects); the other form is
derived from it once, in :mod:`repro.store.base`.

Retention lives in :mod:`repro.store.lifecycle`: a
:class:`RetentionPolicy` plus the ``evict_before``/``compact`` contract
every backend implements keep a long-running authority's footprint
bounded to the solicitation window.  ``docs/stores.md`` is the
selection and tuning guide.
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.store.adaptive import GroupCommitController
from repro.store.base import StoreStats, VPStore
from repro.store.codec import decode_vp, decode_vp_batch, encode_vp, encode_vp_batch
from repro.store.grid import DEFAULT_CELL_M, SpatialGrid
from repro.store.lifecycle import (
    LifecycleReport,
    RetentionPolicy,
    apply_retention,
    survey_overloaded,
)
from repro.store.memory import MemoryStore
from repro.store.segments import SegmentStore
from repro.store.serving import (
    DEFAULT_TILE_MINUTES,
    MinuteTiles,
    QueryResult,
    QuerySpec,
    TileCache,
)
from repro.store.sharded import DEFAULT_ROUTE_CELL_M, ShardedStore
from repro.store.sqlite import SQLiteStore
from repro.store.workers import ProcessShardedStore, WorkerShard

#: backend names accepted by make_store and the CLI ``--store`` option
STORE_KINDS = ("memory", "sqlite", "sharded", "procs")


def make_store(
    kind: str = "memory",
    path: str = "",
    n_shards: int = 4,
    cell_m: float = DEFAULT_CELL_M,
    shard_cells: int = 1,
    route_cell_m: float = DEFAULT_ROUTE_CELL_M,
    ingest_workers: int = 4,
) -> VPStore:
    """Build a VP store backend from a CLI-style description.

    ``sqlite`` names the persistent single-node backend — since PR 22
    the minute-segment log (:class:`~repro.store.segments.SegmentStore`;
    the name outlives the engine it used to select).  ``path`` is its
    segment-file prefix (empty means anonymous temporary segments) and,
    for ``procs``, the per-worker prefix (``{path}.worker{i}``; empty
    keeps the workers in memory); ``n_shards``/``cell_m`` tune
    sharded/memory backends.  ``shard_cells`` > 1 switches the sharded
    backends to composite ``(minute, spatial cell)`` routing with
    ``route_cell_m``-sized cells, spreading hot minutes across shards.
    ``ingest_workers`` sizes the ``procs`` worker-process fleet.  All
    backends are thread-safe (see ``docs/stores.md``).
    """
    if kind == "memory":
        return MemoryStore(cell_m=cell_m)
    if kind == "sqlite":
        return SegmentStore(path)
    if kind == "sharded":
        return ShardedStore.memory(
            n_shards=n_shards,
            cell_m=cell_m,
            shard_cells=shard_cells,
            route_cell_m=route_cell_m,
        )
    if kind == "procs":
        if path:
            return ProcessShardedStore(
                [
                    {"kind": "segments", "path": f"{path}.worker{i}"}
                    for i in range(ingest_workers)
                ],
                shard_cells=shard_cells,
                route_cell_m=route_cell_m,
            )
        return ProcessShardedStore.memory(
            n_workers=ingest_workers,
            cell_m=cell_m,
            shard_cells=shard_cells,
            route_cell_m=route_cell_m,
        )
    raise ValidationError(f"unknown store kind {kind!r}; expected one of {STORE_KINDS}")


__all__ = [
    "DEFAULT_CELL_M",
    "DEFAULT_ROUTE_CELL_M",
    "DEFAULT_TILE_MINUTES",
    "GroupCommitController",
    "LifecycleReport",
    "MemoryStore",
    "MinuteTiles",
    "ProcessShardedStore",
    "QueryResult",
    "QuerySpec",
    "RetentionPolicy",
    "STORE_KINDS",
    "SegmentStore",
    "ShardedStore",
    "SpatialGrid",
    "SQLiteStore",
    "StoreStats",
    "TileCache",
    "VPStore",
    "WorkerShard",
    "apply_retention",
    "decode_vp",
    "decode_vp_batch",
    "encode_vp",
    "encode_vp_batch",
    "make_store",
    "survey_overloaded",
]
