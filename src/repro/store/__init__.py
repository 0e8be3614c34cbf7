"""repro.store — one storage engine for VPs, in two placements.

Every VP the authority holds lives in the minute-segment log
(:class:`~repro.store.segments.SegmentStore`): one append-only segment
per minute holding the codec frame records verbatim, and an in-memory
index (ids, per-minute offset/trusted/bbox columns) rebuilt from them.
What varies is only *where* the segments are:

* **volatile** — ``make_store("memory")``: the segments are unlinked
  anonymous files (``tempfile.TemporaryFile``); nothing is named on
  disk and everything vanishes at ``close()``.  The default of
  :class:`~repro.core.database.VPDatabase`;
* **named** — ``make_store("sqlite", path)``: flat sibling files
  ``{path}.{minute:08d}.seg`` that survive restarts (the kind name
  outlives the engine it used to select).

Both run in the caller's process: an append costs less than any pipe
hop, so there is no router and no worker fleet.  The log is thread-safe
behind the concurrent authority front-end (:mod:`repro.net.concurrency`):
it serializes writes on one lock and reads outside it.

Reads go through ONE entry point — ``VPStore.query`` with a
:class:`~repro.store.serving.QuerySpec`.  The log's per-minute columns
are its only index: they answer whole-minute counts and prune area
queries by bounding box before any record is read.  The log holds
bytes and implements one read primitive, ``query_encoded``; decoded
reads are that frame decoded, defined once in :mod:`repro.store.base`.

Retention lives in :mod:`repro.store.lifecycle`: a
:class:`RetentionPolicy` plus the ``evict_before`` contract keep a
long-running authority's footprint bounded to the solicitation window.
``docs/stores.md`` is the guide.
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
from repro.store.serving import QueryResult, QuerySpec

#: backend names accepted by make_store and the CLI ``--store`` option
STORE_KINDS = ("memory", "sqlite")

#: retired placement names and the kind each now resolves to
_RETIRED_KINDS = {"sharded": "memory", "procs": "sqlite"}


def make_store(
    kind: str = "memory",
    path: str = "",
    *,
    n_shards: int = 0,
    shard_cells: int = 0,
    ingest_workers: int = 0,
) -> VPStore:
    """Build a VP store from a CLI-style description.

    Both kinds are the segment log in this process.  ``memory`` is
    volatile: anonymous segments, ``path`` ignored.  ``sqlite`` keeps
    ``path`` as its segment-file prefix (empty means anonymous
    segments).  The log is thread-safe (see ``docs/stores.md``).

    The retired placements ``"sharded"`` and ``"procs"`` resolve to
    ``"memory"`` and ``"sqlite"``; ``n_shards``, ``shard_cells`` and
    ``ingest_workers`` are ignored.  Both exist only because
    ``benchmarks/pipeline/workloads.py`` (``Workload._store``) still
    passes them; the benchmark change that retargets ``ingest_stream``
    onto ``sqlite`` deletes the aliases and the three keywords.
    """
    kind = _RETIRED_KINDS.get(kind, kind)
    if kind == "memory":
        return SegmentStore()
    if kind == "sqlite":
        return SegmentStore(path)
    raise ValidationError(f"unknown store kind {kind!r}; expected one of {STORE_KINDS}")


__all__ = [
    "LifecycleReport",
    "QueryResult",
    "QuerySpec",
    "RetentionPolicy",
    "STORE_KINDS",
    "SegmentStore",
    "StoreStats",
    "VPStore",
    "apply_retention",
    "decode_vp",
    "decode_vp_batch",
    "encode_vp",
    "encode_vp_batch",
    "make_store",
    "survey_overloaded",
]
