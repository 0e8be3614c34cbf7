"""Read-path serving tier: unified query specs and coverage tile cache.

The read-side counterpart of the zero-decode ingest work:

* :class:`QuerySpec` / :class:`QueryResult` — the one query surface of
  the store layer.  Every read is a spec over orthogonal axes (minute,
  area, trusted, k-nearest, count, encoded) handed to
  ``VPStore.query``; there are no per-shape read methods.
  ``encoded=True`` asks for the stored frame representation
  (:mod:`repro.store.codec`) instead of decoded objects — the client
  owns the codec, so the authority can serve raw spans.  A decoded
  read is the same frame decoded (or, on the memory store, the frame
  is the selected objects encoded): one selection primitive a backend.
* :class:`MinuteTiles` — materialized per-cell coverage/confidence of
  one minute: for every grid cell a VP's bounding box overlaps, how
  many VPs (and how many trusted) cover it, plus exact minute totals.
  The wifi-coverage computation done offline in the exemplar scripts,
  maintained online.  Tiles are built from record *metadata* (the
  bounding boxes that already ride outside the body blobs), so both
  the object and the zero-decode ingest paths can maintain them
  without touching a body.
* :class:`TileCache` — a bounded LRU of ``minute -> MinuteTiles`` with
  epoch invalidation and *incremental* maintenance: ingest applies
  per-record deltas to cached entries inside a write bracket, eviction
  bumps a global epoch.

Tile soundness: a tile map answers "could any VP of this minute claim a
position inside this area?" with no false negatives — every claimed
position lies inside its VP's bounding box, hence inside an occupied
cell.  An area query whose rectangle overlaps no occupied cell returns
empty without scanning; the minute totals serve count queries exactly.

Concurrency discipline: a tile build scans store state while ingest may
be landing rows, so a stored entry could miss a racing row, or a delta
could double-count a row the scan already saw.  The write bracket kills
both races:

* ``write(minutes)`` bumps each minute's *generation* on entry **and**
  exit and holds an in-flight marker in between;
* a build captures ``begin(minute)`` (epoch + generation) before its
  scan, and ``store`` rejects the entry if the epoch changed, the
  generation changed, or a bracket is still in flight — any build whose
  scan could have overlapped a write is discarded (it simply rebuilds
  on the next miss);
* deltas recorded inside the bracket are applied to surviving cached
  entries on exit, so hot minutes stay cached across ingest instead of
  thrashing;
* a writer that cannot enumerate exactly which rows landed (a partial
  duplicate batch) calls ``mark_dirty`` and the minute drops from the
  cache — rebuild-on-demand stays exact.

``evict_before`` calls :meth:`TileCache.invalidate_below`: the global
epoch advances (pending builds of any minute are discarded) and cached
minutes below the cutoff drop.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Collection, Iterable, Iterator

from repro.errors import ValidationError
from repro.geo.geometry import Point, Rect

if TYPE_CHECKING:  # import cycle: base imports serving
    from repro.core.viewprofile import ViewProfile

#: default LRU capacity — minutes of tiles kept hot; a retention window
#: is tens of minutes, so the default never evicts under normal load
DEFAULT_TILE_MINUTES = 128


@dataclass(frozen=True)
class QuerySpec:
    """One read request against a VP store, axes composable.

    ``minute`` scopes every query (the store partitions by minute).
    ``area`` restricts to VPs claiming a position inside the closed
    rectangle; ``trusted_only`` to authority-ingested VPs; ``nearest``
    + ``k`` selects the ``k`` VPs closest (point-to-trajectory) to a
    site, ties keeping insertion order.  ``count=True`` returns only
    the matching cardinality; ``encoded=True`` returns the stored
    frame representation instead of decoded objects.  ``count`` and
    ``encoded`` are exclusive, and neither composes with ``nearest``
    (ranking needs decoded trajectories).
    """

    minute: int
    area: Rect | None = None
    trusted_only: bool = False
    nearest: Point | None = None
    k: int = 1
    count: bool = False
    encoded: bool = False

    def __post_init__(self) -> None:
        if self.minute < 0:
            raise ValidationError(f"cannot query negative minute {self.minute}")
        if self.k < 1:
            raise ValidationError("k-nearest queries need k >= 1")
        if self.count and self.encoded:
            raise ValidationError("a query is counted or encoded, not both")
        if self.nearest is not None and (self.count or self.encoded):
            raise ValidationError("k-nearest queries return decoded VPs only")


@dataclass(frozen=True)
class QueryResult:
    """What one :class:`QuerySpec` matched.

    ``n`` is always the match cardinality.  Decoded queries carry the
    VPs in ``vps`` (insertion order, or distance order for k-nearest);
    ``encoded`` queries carry the codec batch frame in ``frame`` and
    leave ``vps`` ``None``; count queries carry neither.
    """

    spec: QuerySpec
    n: int
    vps: list["ViewProfile"] | None = None
    frame: bytes | None = None


# -- coverage tiles --------------------------------------------------------


def tile_cells_of_box(
    x_min: float, y_min: float, x_max: float, y_max: float, cell_m: float
) -> Iterator[tuple[int, int]]:
    """Every grid cell a bounding box overlaps (codec-validated finite)."""
    cx_max = int(x_max // cell_m)
    cy_max = int(y_max // cell_m)
    for cx in range(int(x_min // cell_m), cx_max + 1):
        for cy in range(int(y_min // cell_m), cy_max + 1):
            yield (cx, cy)


def occupied_cells_in(
    cells: Collection[tuple[int, int]], area: Rect, cell_m: float
) -> Iterator[tuple[int, int]]:
    """The members of ``cells`` inside the cell range of ``area``.

    Iterates the smaller of (the rectangle's cell range, ``cells``): a
    query rectangle comes off the wire unguarded, and one wider than
    the index must cost the index's size, not its own.
    """
    cx_min = int(area.x_min // cell_m)
    cx_max = int(area.x_max // cell_m)
    cy_min = int(area.y_min // cell_m)
    cy_max = int(area.y_max // cell_m)
    if (cx_max - cx_min + 1) * (cy_max - cy_min + 1) <= len(cells):
        for cx in range(cx_min, cx_max + 1):
            for cy in range(cy_min, cy_max + 1):
                if (cx, cy) in cells:
                    yield (cx, cy)
    else:
        for cx, cy in cells:
            if cx_min <= cx <= cx_max and cy_min <= cy <= cy_max:
                yield (cx, cy)


@dataclass
class MinuteTiles:
    """Per-cell coverage/confidence of one minute, plus exact totals.

    ``cells`` maps a grid cell to ``[vps, trusted]`` — how many VPs'
    bounding boxes overlap the cell and how many of those are trusted
    (the confidence axis: a cell covered by trusted witnesses).  A VP
    spans several cells, so per-cell counts do not sum to the minute
    population; ``n_vps``/``n_trusted`` carry the exact totals and
    serve count queries from the cache.
    """

    cell_m: float
    n_vps: int = 0
    n_trusted: int = 0
    cells: dict[tuple[int, int], list[int]] = field(default_factory=dict)

    def add_box(
        self, trusted: int, x_min: float, y_min: float, x_max: float, y_max: float
    ) -> None:
        """Fold one VP's bounding box into the tile map."""
        self.n_vps += 1
        self.n_trusted += 1 if trusted else 0
        for cell in tile_cells_of_box(x_min, y_min, x_max, y_max, self.cell_m):
            counts = self.cells.get(cell)
            if counts is None:
                self.cells[cell] = [1, 1 if trusted else 0]
            else:
                counts[0] += 1
                if trusted:
                    counts[1] += 1

    def overlaps(self, area: Rect) -> bool:
        """Could any VP of the minute claim a position inside ``area``?

        No false negatives: positions lie inside their VP's bounding
        box, so an uncovered area cannot hide a match.
        """
        return next(occupied_cells_in(self.cells, area, self.cell_m), None) is not None

    def copy(self) -> "MinuteTiles":
        """Independent deep copy (cache entries mutate under deltas)."""
        return MinuteTiles(
            cell_m=self.cell_m,
            n_vps=self.n_vps,
            n_trusted=self.n_trusted,
            cells={cell: list(counts) for cell, counts in self.cells.items()},
        )

    def merge(self, other: "MinuteTiles") -> "MinuteTiles":
        """Fold another shard's tiles in (shards partition VPs, so
        totals and per-cell counts add exactly)."""
        self.n_vps += other.n_vps
        self.n_trusted += other.n_trusted
        for cell, counts in other.cells.items():
            mine = self.cells.get(cell)
            if mine is None:
                self.cells[cell] = list(counts)
            else:
                mine[0] += counts[0]
                mine[1] += counts[1]
        return self

    def to_dict(self) -> dict:
        """JSON/pipe-safe snapshot (cells keyed by "cx,cy")."""
        return {
            "cell_m": self.cell_m,
            "n_vps": self.n_vps,
            "n_trusted": self.n_trusted,
            "cells": {
                f"{cx},{cy}": list(counts) for (cx, cy), counts in self.cells.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MinuteTiles":
        tiles = cls(
            cell_m=float(data["cell_m"]),
            n_vps=int(data["n_vps"]),
            n_trusted=int(data["n_trusted"]),
        )
        for key, counts in data["cells"].items():
            cx, cy = key.split(",")
            tiles.cells[(int(cx), int(cy))] = [int(counts[0]), int(counts[1])]
        return tiles


def build_minute_tiles(
    boxes: Iterable[tuple[int, float, float, float, float]], cell_m: float
) -> MinuteTiles:
    """Build a minute's tiles from ``(trusted, x_min, y_min, x_max,
    y_max)`` metadata rows — never a decoded body."""
    tiles = MinuteTiles(cell_m=cell_m)
    for trusted, x_min, y_min, x_max, y_max in boxes:
        tiles.add_box(trusted, x_min, y_min, x_max, y_max)
    return tiles


class TileWriteBatch:
    """Per-record tile deltas collected inside one write bracket."""

    __slots__ = ("records", "dirty")

    def __init__(self) -> None:
        #: (minute, trusted, x_min, y_min, x_max, y_max) per landed row
        self.records: list[tuple[int, int, float, float, float, float]] = []
        self.dirty: set[int] = set()

    def add(
        self,
        minute: int,
        trusted: int,
        x_min: float,
        y_min: float,
        x_max: float,
        y_max: float,
    ) -> None:
        """Record one row that definitely landed."""
        self.records.append((minute, trusted, x_min, y_min, x_max, y_max))

    def mark_dirty(self, *minutes: int) -> None:
        """The writer cannot enumerate what landed — drop these minutes."""
        self.dirty.update(minutes)


class TileCache:
    """Bounded LRU of per-minute coverage tiles with epoch invalidation.

    ``lookup``-style reads count hits/misses (``store.query.tile_hit`` / ``.tile_miss``
    when a registry is attached), eviction bumps a global epoch, and a
    build is only admitted if nothing invalidated it since ``begin``.
    See the module docstring for the write-bracket race analysis.
    """

    def __init__(
        self,
        max_minutes: int = DEFAULT_TILE_MINUTES,
        cell_m: float = 250.0,
        metrics=None,
    ) -> None:
        if max_minutes < 1:
            raise ValidationError("a tile cache needs room for at least one minute")
        self.max_minutes = max_minutes
        self.cell_m = cell_m
        #: optional MetricsRegistry; hit/miss counters land here
        self.metrics = metrics
        self._lock = threading.Lock()
        self._entries: OrderedDict[int, MinuteTiles] = OrderedDict()
        self._epoch = 0
        self._gen: dict[int, int] = {}
        self._inflight: dict[int, int] = {}
        self._hits = 0
        self._misses = 0

    # -- reads ---------------------------------------------------------------

    def _get_locked(self, minute: int) -> MinuteTiles | None:
        entry = self._entries.get(minute)
        if entry is None:
            self._misses += 1
            if self.metrics is not None:
                self.metrics.inc("store.query.tile_miss")
            return None
        self._entries.move_to_end(minute)
        self._hits += 1
        if self.metrics is not None:
            self.metrics.inc("store.query.tile_hit")
        return entry

    def overlaps(self, minute: int, area: Rect) -> bool | None:
        """Cached area-overlap verdict, or ``None`` on a miss."""
        with self._lock:
            entry = self._get_locked(minute)
            return None if entry is None else entry.overlaps(area)

    def counts(self, minute: int) -> tuple[int, int] | None:
        """Cached exact ``(vps, trusted)`` totals, or ``None`` on a miss."""
        with self._lock:
            entry = self._get_locked(minute)
            return None if entry is None else (entry.n_vps, entry.n_trusted)

    def snapshot(self, minute: int) -> MinuteTiles | None:
        """Cached entry as an independent copy, or ``None`` on a miss."""
        with self._lock:
            entry = self._get_locked(minute)
            return None if entry is None else entry.copy()

    # -- build admission -----------------------------------------------------

    def begin(self, minute: int) -> tuple[int, int]:
        """Capture the invalidation state a build must survive."""
        with self._lock:
            return (self._epoch, self._gen.get(minute, 0))

    def store(self, minute: int, tiles: MinuteTiles, token: tuple[int, int]) -> bool:
        """Admit a built entry unless anything invalidated it since
        ``begin`` (epoch advanced, a write bracket ran or is running)."""
        epoch, gen = token
        with self._lock:
            if (
                epoch != self._epoch
                or gen != self._gen.get(minute, 0)
                or self._inflight.get(minute, 0)
            ):
                return False
            self._entries[minute] = tiles
            self._entries.move_to_end(minute)
            while len(self._entries) > self.max_minutes:
                self._entries.popitem(last=False)
            return True

    # -- writes --------------------------------------------------------------

    @contextmanager
    def write(self, minutes: Iterable[int]) -> Iterator[TileWriteBatch]:
        """Bracket an ingest touching ``minutes``; yields the delta batch.

        Generations bump on entry *and* exit so no build whose scan
        overlapped the bracket is ever admitted; deltas for rows that
        landed are applied to surviving cached entries on exit.
        """
        bracket = sorted(set(minutes))
        with self._lock:
            for minute in bracket:
                self._gen[minute] = self._gen.get(minute, 0) + 1
                self._inflight[minute] = self._inflight.get(minute, 0) + 1
        batch = TileWriteBatch()
        try:
            yield batch
        finally:
            with self._lock:
                for minute in bracket:
                    self._gen[minute] += 1
                    left = self._inflight[minute] - 1
                    if left:
                        self._inflight[minute] = left
                    else:
                        del self._inflight[minute]
                for minute in batch.dirty:
                    self._entries.pop(minute, None)
                for minute, trusted, x_min, y_min, x_max, y_max in batch.records:
                    entry = self._entries.get(minute)
                    if entry is not None and minute not in batch.dirty:
                        entry.add_box(trusted, x_min, y_min, x_max, y_max)

    def invalidate_below(self, cutoff: int) -> None:
        """Eviction hook: advance the epoch, drop minutes below cutoff.

        The epoch bump discards every pending build (an eviction pass
        may touch any minute's rows — ``keep_trusted`` rewrites buckets
        above the cutoff too on some backends, hence the conservative
        global epoch).
        """
        with self._lock:
            self._epoch += 1
            for minute in [m for m in self._entries if m < cutoff]:
                del self._entries[minute]
            for minute in [m for m in self._gen if m < cutoff]:
                if minute not in self._inflight:
                    del self._gen[minute]

    def invalidate_all(self) -> None:
        """Drop every entry and discard pending builds."""
        with self._lock:
            self._epoch += 1
            self._entries.clear()
            for minute in [m for m in self._gen if m not in self._inflight]:
                del self._gen[minute]

    # -- introspection -------------------------------------------------------

    def info(self) -> dict:
        """Occupancy/effectiveness gauges for ``stats().detail``."""
        with self._lock:
            return {
                "minutes": len(self._entries),
                "max_minutes": self.max_minutes,
                "cell_m": self.cell_m,
                "epoch": self._epoch,
                "hits": self._hits,
                "misses": self._misses,
            }
