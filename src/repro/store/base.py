"""The VP store backend contract shared by every storage engine.

A *store* is the authority's durable memory of uploaded view profiles.
The service layer (``repro.core.database.VPDatabase``) is a thin facade
over one of these backends, so swapping a flat in-memory index for a
persistent segment log or a sharded fleet never touches investigation
code.

Backends must agree exactly on semantics so they are interchangeable:

* every write is one ``write(batch, strict)`` over a
  :class:`~repro.store.codec.Batch`: duplicate ids are skipped and the
  landed count returned, or with ``strict`` raise ``ValidationError``
  before any record lands.  The four ``insert*`` entry points are
  defined once, here, on top of it;
* every read goes through one entry point — ``query(QuerySpec)``
  (:mod:`repro.store.serving`) — whose axes compose minute, area,
  trusted, k-nearest, count and encoded selection.  Underneath it each
  backend implements exactly ONE selection primitive, in the form it
  stores: a backend that holds bytes (the segment log, the worker proxy, the
  sharded routers) implements ``query_encoded(spec)`` and its decoded
  reads are ``decode_vp_batch(query_encoded(spec))`` — fresh
  wire-backed VPs per call; the memory backend, which holds objects by
  reference, implements ``_select(spec)`` and its encoded reads are
  ``encode_vp_batch(_select(spec))``.  No backend overrides both, so a
  decoded and an encoded read of one spec can never disagree;
* minute-scoped selections return VPs in insertion order;
* an area axis selects a VP iff any of its claimed positions lies
  inside the (closed) query rectangle — identical to a full linear
  scan, however the backend prunes candidates (and the shared
  coverage-tile cache short-circuits minutes that cannot match);
* ``query_encoded`` returns the *stored frame representation* of a
  selection (:mod:`repro.store.codec` batch buffer), byte-identical
  across backends for the same insertion history; an area ``count``
  is that frame's count header, a whole-minute one the tile totals;
* ``evict_before`` removes every VP of a minute strictly below the
  cutoff (the retention watermark of :mod:`repro.store.lifecycle`) and
  returns how many were dropped; with ``keep_trusted=True`` trusted VPs
  are pinned past the cutoff (``RetentionPolicy(pin_trusted=True)`` —
  an eviction pass must never drop an investigation's seeds);
  ``compact`` reclaims whatever the backend can (freed pages, empty
  buckets) and reports gauges.

The contract includes thread safety: every backend tolerates
concurrent calls from many threads, and ``write`` is atomic per
backend — two racing batches containing the same VP id agree on one
winner and the returned counts sum to the number of VPs actually stored.
How each backend meets this (coarse lock, single-writer lock,
per-shard atomicity) is its own business; see ``docs/stores.md``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, TypeVar

import numpy as np

from repro.core.viewprofile import ViewProfile
from repro.geo.geometry import Point, Rect
from repro.obs.metrics import stage_timer
from repro.store.codec import Batch, decode_vp_batch, encode_vp_batch
from repro.store.serving import MinuteTiles, QueryResult, QuerySpec, TileCache
from repro.util.encoding import unpack_uint

_T = TypeVar("_T")


@dataclass(frozen=True)
class StoreStats:
    """Aggregate health/occupancy numbers reported by every backend.

    ``backend`` is the reporting store's ``kind``; ``vps``/``trusted``/
    ``minutes`` count stored VPs, trusted VPs and distinct minute
    indices.  ``detail`` carries backend-specific gauges: grid occupancy
    for memory, path and tile gauges for the segment log, per-shard
    breakdowns for sharded fleets.
    """

    backend: str
    vps: int
    trusted: int
    minutes: int
    detail: dict[str, Any] = field(default_factory=dict)


def vp_claims_in_area(vp: ViewProfile, area: Rect) -> bool:
    """Exact membership test: does the VP claim any position in ``area``?"""
    pos = vp.positions_array
    inside = (
        (pos[:, 0] >= area.x_min)
        & (pos[:, 0] <= area.x_max)
        & (pos[:, 1] >= area.y_min)
        & (pos[:, 1] <= area.y_max)
    )
    return bool(inside.any())


def min_squared_distance(vp: ViewProfile, site: Point) -> float:
    """Squared distance from ``site`` to the VP's nearest claimed position."""
    pos = vp.positions_array
    dx = pos[:, 0] - site.x
    dy = pos[:, 1] - site.y
    return float(np.min(dx * dx + dy * dy))


class VPStore(ABC):
    """Abstract VP storage backend (see module docstring for semantics)."""

    #: short backend identifier used in stats and CLI output
    kind: str = "abstract"

    # -- writes ------------------------------------------------------------

    @abstractmethod
    def write(self, batch: Batch, strict: bool = False) -> int:
        """Land one batch atomically; returns how many records were stored.

        The backend's only write path.  Duplicates (against the store
        or within the batch) are skipped, or with ``strict`` raise
        ``ValidationError`` before any record lands.  Each backend
        takes the batch in the form it stores: objects by reference,
        rows and body spans, or the frame bytes.
        """

    def insert(self, vp: ViewProfile) -> None:
        """Store one VP; raises ``ValidationError`` on a duplicate id."""
        self.write(Batch.from_vps([vp]), strict=True)

    def insert_trusted(self, vp: ViewProfile) -> None:
        """Store a VP through the authority path, marking it trusted.

        The trusted bit travels in the batch metadata; the caller's
        object is flagged only once the write has returned, so a
        rejected or failed insert never leaves it claiming trust.
        """
        self.write(Batch.from_vps([vp], trusted=True), strict=True)
        vp.trusted = True

    def insert_many(self, vps: Iterable[ViewProfile]) -> int:
        """Batch-ingest VPs, skipping duplicates; returns how many landed."""
        return self.write(Batch.from_vps(vps))

    def insert_encoded(self, batch: bytes | memoryview, strict: bool = False) -> int:
        """Batch-ingest a codec frame; returns how many records landed.

        ``batch`` is a :func:`repro.store.codec.encode_vp_batch` buffer
        or a read-only ``memoryview`` of one (the streaming front-end's
        receive buffer).  No backend that stores bytes decodes a body
        or copies a span on the way in.
        """
        return self.write(Batch.from_frame(batch), strict)

    def existing_ids(self, vp_ids: Iterable[bytes]) -> set[bytes]:
        """Which of these identifiers are already stored (one batch probe).

        Backends override this with a single indexed query; the batch
        upload front-end uses it to reject duplicates per VP without a
        per-VP store round-trip.
        """
        return {vp_id for vp_id in vp_ids if vp_id in self}

    @abstractmethod
    def iter_id_minutes(self) -> Iterable[tuple[bytes, int]]:
        """(vp_id, minute) pairs of every stored VP — no body is decoded.

        A metadata-only scan used to seed routing/duplicate indexes
        (e.g. a :class:`~repro.store.sharded.ShardedStore` wrapping
        pre-populated persistent shards).
        """

    # -- point reads -------------------------------------------------------

    @abstractmethod
    def get(self, vp_id: bytes) -> ViewProfile | None:
        """Fetch one VP by identifier."""

    @abstractmethod
    def __len__(self) -> int:
        """Total stored VPs."""

    @abstractmethod
    def __contains__(self, vp_id: bytes) -> bool:
        """True when a VP with this identifier is stored."""

    # -- the unified query entry point ---------------------------------------

    #: per-minute coverage tile cache — backends that materialize tiles
    #: attach one at construction; ``None`` disables tile pruning (the
    #: worker-shard proxy, whose worker-side store owns the tiles)
    tiles: TileCache | None = None

    @abstractmethod
    def minutes(self) -> list[int]:
        """Sorted minute indices with at least one stored VP."""

    def query(self, spec: QuerySpec) -> QueryResult:
        """Run one read request; the single entry point for every read.

        Axes compose (see :class:`~repro.store.serving.QuerySpec`):
        selection = minute, restricted by area and/or trusted flag;
        then ``nearest`` ranks the selection by point-to-trajectory
        distance (ties keep insertion order — stable sort) and keeps
        ``k``; ``count`` returns cardinality only; ``encoded`` returns
        the stored frame representation via :meth:`query_encoded`.
        The whole read is one ``store.query`` stage observation, and
        minutes whose coverage tiles cannot overlap the query area
        short-circuit without touching a backend index.
        """
        with stage_timer(getattr(self, "metrics", None), "store.query"):
            if spec.encoded:
                frame = self.query_encoded(spec)
                return QueryResult(spec=spec, n=unpack_uint(frame[1:5]), frame=frame)
            if spec.count:
                return QueryResult(spec=spec, n=self._count_query(spec))
            vps = self._select(spec)
            if spec.nearest is not None:
                site = spec.nearest
                vps.sort(key=lambda vp: min_squared_distance(vp, site))
                vps = vps[: spec.k]
            return QueryResult(spec=spec, n=len(vps), vps=vps)

    def query_encoded(self, spec: QuerySpec) -> bytes:
        """Stored-frame form of a selection — the decode-free read op.

        Returns a :func:`repro.store.codec.encode_vp_batch` buffer of
        the VPs the decoded selection would yield (minute, area and
        trusted axes), byte-identical to re-encoding them: bodies are
        content-deterministic and the metadata head derives from the
        same values.  A backend that stores bytes overrides this —
        the segment log frames stored records pass-through, sharded fleets stitch
        owner-shard frames without decoding a body — and leaves
        :meth:`_select` alone; this default is the memory store's,
        whose VPs each hold their digest block.
        """
        return encode_vp_batch(self._select(spec))

    def _select(self, spec: QuerySpec) -> list[ViewProfile]:
        """Decoded selection (minute, area and trusted axes).

        The other half of the pair: a backend overrides this or
        :meth:`query_encoded`, never both.  This default decodes the
        frame, so every byte-holding backend hands out fresh
        wire-backed VPs per call (about 6 kB each, no digest unpacked).
        """
        return decode_vp_batch(self.query_encoded(spec))

    def _count_query(self, spec: QuerySpec) -> int:
        """Count axis: the minute's exact tile totals (not per-cell
        sums), or with an area the selection frame's count header."""
        if spec.area is not None:
            return unpack_uint(self.query_encoded(spec)[1:5])
        counts = self.tiles.counts(spec.minute) if self.tiles is not None else None
        if counts is None:
            counts = self._scan_tiles(spec.minute, lambda t: (t.n_vps, t.n_trusted))
        return counts[1] if spec.trusted_only else counts[0]

    def _tiles_allow(self, minute: int, area: Rect) -> bool:
        """Tile prune: may any VP of the minute claim inside ``area``?"""
        if self.tiles is None:
            return True
        verdict = self.tiles.overlaps(minute, area)
        if verdict is None:
            verdict = self._scan_tiles(minute, lambda t: t.overlaps(area))
        return verdict

    def coverage_tiles(self, minute: int) -> MinuteTiles:
        """Materialized per-cell coverage/confidence of one minute.

        Served from the tile cache when warm (as an independent copy);
        a miss builds from the backend's metadata scan.
        """
        if self.tiles is None:
            return self._build_tiles(minute)
        snap = self.tiles.snapshot(minute)
        if snap is None:
            snap = self._scan_tiles(minute, MinuteTiles.copy)
        return snap

    def _scan_tiles(self, minute: int, read: Callable[[MinuteTiles], _T]) -> _T:
        """Build one minute's tiles, ``read`` the answer, offer them to the cache.

        The read runs before the offer: an admitted entry belongs to
        the cache, which mutates it under ingest deltas (admission is
        subject to the epoch/generation discipline of
        :class:`~repro.store.serving.TileCache`).
        """
        if self.tiles is None:
            return read(self._build_tiles(minute))
        token = self.tiles.begin(minute)
        entry = self._build_tiles(minute)
        answer = read(entry)
        self.tiles.store(minute, entry, token)
        return answer

    @abstractmethod
    def _build_tiles(self, minute: int) -> MinuteTiles:
        """Scan one minute's record metadata into coverage tiles.

        Never touches a body: the bounding boxes ride outside it on
        every backend (memoized on the object, table columns, the
        shards' own tile maps).
        """

    # -- lifecycle / introspection -----------------------------------------

    @abstractmethod
    def evict_before(self, minute: int, keep_trusted: bool = False) -> int:
        """Remove every VP with ``vp.minute < minute``; returns the count.

        The retention primitive: callers advance a monotonic watermark
        (see :mod:`repro.store.lifecycle`) and the store drops whole
        minutes below it.  Must be safe to run concurrently with
        ingest — a VP racing into an evicted minute is stored normally
        (the minute is re-created) and removed by the next pass.
        ``keep_trusted=True`` pins trusted VPs: they survive the pass
        whatever their minute, so an active investigation's seeds are
        never evicted mid-flight (``RetentionPolicy(pin_trusted=True)``).
        """

    def compact(self) -> dict[str, Any]:
        """Reclaim space freed by eviction; returns backend gauges.

        Default is a no-op for backends with nothing to reclaim.
        Implementations may run maintenance (SQLite vacuum/analyze, while it stays,
        dropping empty buckets) and should stay incremental — compact
        runs on a live store between retention passes.
        """
        return {}

    @abstractmethod
    def stats(self) -> StoreStats:
        """Occupancy snapshot for dashboards and benchmarks."""

    def close(self) -> None:
        """Release backend resources (no-op for in-memory backends)."""

    def __enter__(self) -> "VPStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
