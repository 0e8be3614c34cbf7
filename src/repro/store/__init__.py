"""repro.store — one storage engine for VPs, one class.

Every VP the authority holds lives in the minute-segment log,
:class:`~repro.store.segments.SegmentStore`: one append-only segment
per minute holding the codec frame records verbatim, and an in-memory
index (ids, per-minute offset/trusted/bbox columns) rebuilt from them.
The placement is the path and nothing else:

* ``SegmentStore()`` — unlinked anonymous segment files
  (``tempfile.TemporaryFile``); nothing is named on disk and everything
  vanishes at ``close()``.  The default of
  :class:`~repro.core.database.VPDatabase`;
* ``SegmentStore(path)`` — flat sibling files ``{path}.{minute:08d}.seg``
  (and the eviction cutoff's empty ``.cut`` marker) that survive a
  restart: reopening the path rescans them.

The log runs in the caller's process: an append costs less than any
pipe hop, so there is no router and no worker fleet.  It is thread-safe
behind the concurrent authority front-end (:mod:`repro.net.concurrency`):
it serializes writes on one lock and reads outside it.

Reads go through ONE entry point — ``SegmentStore.query`` with a
:class:`~repro.store.serving.QuerySpec`.  The log's per-minute columns
are its only index: they answer whole-minute counts and prune area
queries by bounding box before any record is read.  Its one read
primitive is ``query_encoded``; decoded reads are that frame decoded.

Retention lives in :mod:`repro.store.lifecycle`: a
:class:`RetentionPolicy` plus ``evict_before`` keep a long-running
authority's footprint bounded to the solicitation window.
``docs/stores.md`` is the guide.
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.store.base import StoreStats
from repro.store.codec import decode_vp, decode_vp_batch, encode_vp, encode_vp_batch
from repro.store.lifecycle import (
    LifecycleReport,
    RetentionPolicy,
    apply_retention,
    survey_overloaded,
)
from repro.store.segments import SegmentStore
from repro.store.serving import QueryResult, QuerySpec

def make_store(
    kind: str = "memory",
    path: str = "",
    *,
    n_shards: int = 0,
    shard_cells: int = 0,
    ingest_workers: int = 0,
) -> SegmentStore:
    """A store from a kind name: the one caller left is the frozen
    pipeline benchmark (``benchmarks/pipeline/workloads.py``,
    ``Workload._store``); nothing in ``src/`` calls it.

    ``memory`` is ``SegmentStore()`` (``path`` ignored) and ``sqlite``
    is ``SegmentStore(path)``.  The retired placements ``"sharded"``
    and ``"procs"`` resolve to ``"memory"`` and ``"sqlite"``;
    ``n_shards``, ``shard_cells`` and ``ingest_workers`` are ignored.
    The benchmark change that builds ``SegmentStore`` directly deletes
    this function with its kinds and keywords.
    """
    kind = {"sharded": "memory", "procs": "sqlite"}.get(kind, kind)  # retired names
    if kind == "memory":
        return SegmentStore()
    if kind == "sqlite":
        return SegmentStore(path)
    raise ValidationError(f"unknown store kind {kind!r}; expected 'memory' or 'sqlite'")


__all__ = [
    "LifecycleReport",
    "QueryResult",
    "QuerySpec",
    "RetentionPolicy",
    "SegmentStore",
    "StoreStats",
    "apply_retention",
    "decode_vp",
    "decode_vp_batch",
    "encode_vp",
    "encode_vp_batch",
    "make_store",
    "survey_overloaded",
]
