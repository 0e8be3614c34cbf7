"""The system's VP database: anonymous storage with minute/area queries.

Stores anonymized VPs exactly as uploaded — actual and guard VPs are
indistinguishable and are treated identically.  Trusted VPs arrive through
a separate authenticated path (police fleet) and carry the trusted flag.
Every write is a codec frame (:meth:`VPDatabase.insert_encoded`); the
objects a caller holds become frames at
:class:`~repro.core.system.ViewMapSystem`, never here.

This class is a thin facade over a
:class:`~repro.store.segments.SegmentStore` — by default on anonymous
segments (volatile), or on named ones for persistence
(``SegmentStore(path)``).  Reads return fresh VPs decoded from the stored
bytes, equal in content to what was inserted, never the same object.
Reads go through ONE entry point —
:meth:`VPDatabase.query` with a :class:`~repro.store.serving.QuerySpec`
(minute, area, trusted, count, encoded) — plus
:meth:`VPDatabase.query_encoded` for a caller that wants the frame
bytes alone; there is no per-shape read method to pick between.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.viewprofile import ViewProfile
from repro.store.base import StoreStats
from repro.store.codec import Batch
from repro.store.segments import SegmentStore
from repro.store.serving import QueryResult, QuerySpec


@dataclass
class VPDatabase:
    """Minute-indexed store of anonymized view profiles."""

    store: SegmentStore = field(default_factory=SegmentStore)

    def insert_encoded(self, batch: Batch) -> list[int]:
        """Write a validated upload batch; no VP body is decoded.

        Duplicates are skipped; returns the indices of the records that
        landed, in batch order (``SegmentStore.write``).
        """
        return self.store.write(batch)

    def existing_ids(self, vp_ids: Iterable[bytes]) -> set[bytes]:
        """Which of these identifiers are already stored (a read-only probe)."""
        return self.store.existing_ids(vp_ids)

    def __len__(self) -> int:
        return len(self.store)

    def __contains__(self, vp_id: bytes) -> bool:
        return vp_id in self.store

    def get(self, vp_id: bytes) -> ViewProfile | None:
        """Fetch one VP by identifier."""
        return self.store.get(vp_id)

    def minutes(self) -> list[int]:
        """All minute indices with at least one stored VP."""
        return self.store.minutes()

    def query(self, spec: QuerySpec) -> QueryResult:
        """Run one read against the store — THE read entry point.

        Every axis combination (minute, area, trusted, count, encoded)
        goes through here; see
        :class:`~repro.store.serving.QuerySpec`.
        """
        return self.store.query(spec)

    def query_encoded(self, spec: QuerySpec) -> memoryview:
        """Matching records as a ready codec frame (decode-free read)."""
        return self.store.query_encoded(spec)

    def evict_before(self, minute: int, keep_trusted: bool = False) -> int:
        """Retire every VP below the retention cutoff; returns the count.

        ``keep_trusted`` pins trusted VPs past the cutoff
        (``RetentionPolicy(pin_trusted=True)`` semantics).
        """
        return self.store.evict_before(minute, keep_trusted=keep_trusted)

    def stats(self) -> StoreStats:
        """Store occupancy snapshot (see :class:`StoreStats`)."""
        return self.store.stats()

    def close(self) -> None:
        """Release store resources (segment descriptors)."""
        self.store.close()
