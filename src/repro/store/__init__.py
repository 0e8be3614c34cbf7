"""repro.store — one storage engine for VPs, in three placements.

Every VP the authority holds lives in the minute-segment log
(:class:`~repro.store.segments.SegmentStore`): one append-only segment
per minute holding the codec frame records verbatim, and an in-memory
index (ids, per-minute offset/bbox columns, coverage tiles) rebuilt from
them.  What varies is only *where* the segments are and *who* owns them:

* **in process, volatile** — ``make_store("memory")``: the segments are
  unlinked anonymous files (``tempfile.TemporaryFile``); nothing is
  named on disk and everything vanishes at ``close()``.  The default of
  :class:`~repro.core.database.VPDatabase`;
* **in process, named** — ``make_store("sqlite", path)``: flat sibling
  files ``{path}.{minute:08d}.seg`` that survive restarts (the kind name
  outlives the engine it used to select);
* **across shards** — :class:`~repro.store.sharded.ShardedStore`
  (``make_store("sharded")``) hash-partitions minutes over N
  in-process logs, and :class:`~repro.store.workers.ProcessShardedStore`
  (``make_store("procs")``) puts each shard's log in its own worker OS
  process behind a pipe: a failure domain per shard, not a speed-up (an
  append costs less than the pipe hop; ``docs/stores.md`` has numbers).

Every backend is thread-safe behind the concurrent authority front-end
(:mod:`repro.net.concurrency`): the log serializes on one lock and reads
outside it, and sharded fleets fan batch inserts out to their shards
concurrently, optionally routing by ``(minute, spatial cell)`` composite
keys (``shard_cells``) so a single hot minute fans out across shards.

Reads go through ONE entry point — ``VPStore.query`` with a
:class:`~repro.store.serving.QuerySpec` — backed by the serving tier
(:mod:`repro.store.serving`): per-cell coverage tiles answer count
queries and prune area queries without touching records.  Every backend
holds bytes and implements one read primitive, ``query_encoded``;
decoded reads are that frame decoded, defined once in
:mod:`repro.store.base`.

Retention lives in :mod:`repro.store.lifecycle`: a
:class:`RetentionPolicy` plus the ``evict_before`` contract every
backend implements keep a long-running authority's footprint bounded to
the solicitation window.  ``docs/stores.md`` is the guide.
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.store.base import StoreStats, VPStore
from repro.store.codec import decode_vp, decode_vp_batch, encode_vp, encode_vp_batch
from repro.store.lifecycle import (
    LifecycleReport,
    RetentionPolicy,
    apply_retention,
    survey_overloaded,
)
from repro.store.segments import SegmentStore
from repro.store.serving import (
    DEFAULT_CELL_M,
    DEFAULT_TILE_MINUTES,
    MinuteTiles,
    QueryResult,
    QuerySpec,
    TileCache,
)
from repro.store.sharded import DEFAULT_ROUTE_CELL_M, ShardedStore
from repro.store.workers import ProcessShardedStore, WorkerShard

#: backend names accepted by make_store and the CLI ``--store`` option
STORE_KINDS = ("memory", "sqlite", "sharded", "procs")


def make_store(
    kind: str = "memory",
    path: str = "",
    n_shards: int = 4,
    shard_cells: int = 1,
    route_cell_m: float = DEFAULT_ROUTE_CELL_M,
    ingest_workers: int = 4,
) -> VPStore:
    """Build a VP store from a CLI-style description.

    Every kind is the segment log.  ``memory`` is volatile: anonymous
    segments, ``path`` ignored.  ``sqlite`` is the single-node log with
    ``path`` as its segment-file prefix (empty means anonymous segments).
    ``sharded`` is ``n_shards`` volatile logs in this process; ``procs``
    is ``ingest_workers`` worker processes, each on
    ``{path}.worker{i}`` (empty path: volatile workers).
    ``shard_cells`` > 1 switches the sharded kinds to composite
    ``(minute, spatial cell)`` routing with ``route_cell_m``-sized cells,
    spreading hot minutes across shards.  All are thread-safe (see
    ``docs/stores.md``).
    """
    if kind == "memory":
        return SegmentStore()
    if kind == "sqlite":
        return SegmentStore(path)
    if kind == "sharded":
        return ShardedStore.memory(
            n_shards=n_shards,
            shard_cells=shard_cells,
            route_cell_m=route_cell_m,
        )
    if kind == "procs" and not path:
        return ProcessShardedStore.memory(
            n_workers=ingest_workers,
            shard_cells=shard_cells,
            route_cell_m=route_cell_m,
        )
    if kind == "procs":
        return ProcessShardedStore(
            [
                {"kind": "segments", "path": f"{path}.worker{i}"}
                for i in range(ingest_workers)
            ],
            shard_cells=shard_cells,
            route_cell_m=route_cell_m,
        )
    raise ValidationError(f"unknown store kind {kind!r}; expected one of {STORE_KINDS}")


__all__ = [
    "DEFAULT_CELL_M",
    "DEFAULT_ROUTE_CELL_M",
    "DEFAULT_TILE_MINUTES",
    "LifecycleReport",
    "MinuteTiles",
    "ProcessShardedStore",
    "QueryResult",
    "QuerySpec",
    "RetentionPolicy",
    "STORE_KINDS",
    "SegmentStore",
    "ShardedStore",
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
