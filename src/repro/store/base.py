"""The VP store backend contract: one engine, two placements.

A *store* is the authority's memory of uploaded view profiles.  The
service layer (``repro.core.database.VPDatabase``) is a thin facade over
one of these backends — the minute-segment log
(:mod:`repro.store.segments`), on anonymous or named segments — so the
placement never touches investigation code.

Backends must agree exactly on semantics so they are interchangeable:

* every write is one ``write(batch, strict)`` over a
  :class:`~repro.store.codec.Batch`: duplicate ids are skipped and the
  indices of the landed records returned, or with ``strict`` raise
  ``ValidationError`` before any record lands.  The four ``insert*``
  entry points are defined once, here, on top of it;
* every read goes through one entry point — ``query(QuerySpec)``
  (:mod:`repro.store.serving`) — whose axes compose minute, area,
  trusted, k-nearest, count and encoded selection.  Every backend holds
  bytes and implements ONE read primitive, ``query_encoded(spec)``;
  decoded reads are ``decode_vp_batch(query_encoded(spec))`` — fresh
  wire-backed VPs per call, equal in content, never the inserted
  instance — so a decoded and an encoded read of one spec can never
  disagree;
* minute-scoped selections return VPs in insertion order;
* an area axis selects a VP iff any of its claimed positions lies
  inside the (closed) query rectangle — identical to a full linear
  scan, however the backend prunes candidates (the log tests each
  row's bounding box first, so a cold area reads no record);
* ``query_encoded`` returns the *stored frame representation* of a
  selection (:mod:`repro.store.codec` batch buffer), byte-identical
  across backends for the same insertion history; an area ``count``
  is that frame's count header, a whole-minute one the minute's
  published row count (``_count_query``);
* ``evict_before`` removes every VP of a minute strictly below the
  cutoff (the retention watermark of :mod:`repro.store.lifecycle`) and
  returns how many were dropped; with ``keep_trusted=True`` trusted VPs
  are pinned past the cutoff (``RetentionPolicy(pin_trusted=True)`` —
  an eviction pass must never drop an investigation's seeds).

The contract includes thread safety: every backend tolerates
concurrent calls from many threads, and ``write`` is atomic per
backend — two racing batches containing the same VP id agree on one
winner, and the indices each write returns name exactly what it stored.
The log meets this with one lock; see ``docs/stores.md``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from repro.core.viewprofile import ViewProfile
from repro.geo.geometry import Point, Rect
from repro.obs.metrics import stage_timer
from repro.store.codec import Batch, decode_vp_batch, frame_count
from repro.store.serving import QueryResult, QuerySpec


@dataclass(frozen=True)
class StoreStats:
    """Aggregate health/occupancy numbers reported by every backend.

    ``backend`` is the reporting store's ``kind``; ``vps``/``trusted``/
    ``minutes`` count stored VPs, trusted VPs and distinct minute
    indices.  ``detail`` carries backend-specific gauges: for the
    segment log its path and metric registry.
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
    def write(self, batch: Batch, strict: bool = False) -> list[int]:
        """Land one batch atomically; returns the stored records' indices.

        The backend's only write path and only duplicate rule: records
        already stored or earlier in the batch are skipped, or with
        ``strict`` raise ``ValidationError`` before any record lands.
        The indices, in batch order, are what an upload ack reports.
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
        return len(self.write(Batch.from_vps(vps)))

    def insert_encoded(self, batch: bytes | memoryview, strict: bool = False) -> int:
        """Batch-ingest a codec frame; returns how many records landed.

        ``batch`` is a :func:`repro.store.codec.encode_vp_batch` buffer
        or a read-only ``memoryview`` of one (the streaming front-end's
        receive buffer).  No backend decodes a body or copies a span on
        the way in.
        """
        return len(self.write(Batch.from_frame(batch), strict))

    def existing_ids(self, vp_ids: Iterable[bytes]) -> set[bytes]:
        """Which of these identifiers are already stored.

        A read-only probe, one membership test per id; it decides
        nothing — duplicates are skipped by :meth:`write` alone.
        """
        return {vp_id for vp_id in vp_ids if vp_id in self}

    @abstractmethod
    def iter_id_minutes(self) -> Iterable[tuple[bytes, int]]:
        """(vp_id, minute) pairs of every stored VP — no body is decoded.

        A metadata-only scan: what a caller checks a stored population
        against without reading a record.
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
        The whole read is one ``store.query`` stage observation.
        """
        with stage_timer(getattr(self, "metrics", None), "store.query"):
            if spec.encoded:
                frame = self.query_encoded(spec)
                return QueryResult(spec=spec, n=frame_count(frame), frame=frame)
            if spec.count:
                return QueryResult(spec=spec, n=self._count_query(spec))
            vps = decode_vp_batch(self.query_encoded(spec))
            if spec.nearest is not None:
                site = spec.nearest
                vps.sort(key=lambda vp: min_squared_distance(vp, site))
                vps = vps[: spec.k]
            return QueryResult(spec=spec, n=len(vps), vps=vps)

    @abstractmethod
    def query_encoded(self, spec: QuerySpec) -> memoryview:
        """The one read primitive: the stored frame of a selection.

        Returns a :func:`repro.store.codec.encode_vp_batch` frame of
        the records the minute, area and trusted axes select, in
        insertion order — byte-identical to re-encoding the VPs, since
        records are stored as framed.  The frame is a read-only view of
        one anonymous reply mapping, with
        :data:`~repro.store.serving.REPLY_HEAD_ROOM` free bytes before
        it (:func:`~repro.store.serving.reply_with_head`); the mapping
        is unmapped with its last view.  :meth:`query` decodes it.
        """

    @abstractmethod
    def _count_query(self, spec: QuerySpec) -> int:
        """The count axis: exactly how many VPs ``spec`` selects.

        With an area it is the selection frame's count header; a
        whole-minute count reads the backend's index, no record.
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

    @abstractmethod
    def stats(self) -> StoreStats:
        """Occupancy snapshot for dashboards and benchmarks."""

    def close(self) -> None:
        """Release backend resources (segment descriptors)."""

    def __enter__(self) -> "VPStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
