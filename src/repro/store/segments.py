"""Persistent VP store as a minute-segment log.

A VP is immutable, keyed by its minute and retired by its minute — the
easy case for a log.  One append-only file per minute holds codec frame
records (:mod:`repro.store.codec`) verbatim, each behind a header::

    length (u32 LE) | crc32 of the record (u32 LE) | record

so a stored VP costs its wire record plus 8 bytes.  With a ``path`` the
segments are flat sibling files ``{path}.{minute:08d}.seg`` (nothing is
created at ``path`` itself); with an empty path they are anonymous
``tempfile.TemporaryFile`` objects — the same engine, volatile.  The
index lives in memory and is rebuilt by one scan at open: the
``id -> (minute, row)`` map that rejects duplicates, and per minute the
``(offset, length, trusted, bbox)`` columns and the ids in insertion
order.  ``docs/stores.md`` has the contract in prose; in short:

* **write** appends the fresh record spans of the caller's buffer with
  one ``os.writev`` per touched minute and only then publishes ids,
  columns and tile deltas, all under the one store lock — an ack means
  *handed to the kernel* (survives process death, not power loss);
  there is no pending buffer and nothing to flush.  A batch is atomic
  per minute: a failed append is truncated away, earlier minutes stay.
* **read** takes the minute's columns and a duplicate of its descriptor
  under the lock, then selects and reads (``os.pread``) outside it —
  not ``mmap``: a file mapping would be resident memory.
* **evict** closes and unlinks whole segments; a reader's duplicate
  still reads the complete old file.  ``compact()`` is the inherited
  no-op.  One descriptor stays open per live minute; retention bounds it.
"""

from __future__ import annotations

import os
import re
import struct
import tempfile
import threading
import zlib

import numpy as np

from repro.core.viewprofile import ViewProfile
from repro.errors import StorageError, WireFormatError
from repro.obs.metrics import MetricsRegistry, stage_timer
from repro.store.base import StoreStats, VPStore
from repro.store.codec import (
    RECORD_OVERHEAD_BYTES,
    Batch,
    decode_vp,
    encoded_body_claims_area,
    join_encoded_spans,
    unpack_record_meta,
)
from repro.store.serving import MinuteTiles, QuerySpec, TileCache, build_minute_tiles

#: per-record header: record length, CRC-32 of the record
_HEADER = struct.Struct("<II")

#: what follows ``{path}.`` in a segment's file name (``.tmp``: a
#: keep_trusted rewrite that has not been renamed over its segment yet)
_SEGMENT_NAME = re.compile(r"(\d{8,})\.seg(\.tmp)?")

#: one published record: where its bytes are, and what selection needs
_ROW = np.dtype([("offset", "i8"), ("length", "i8"), ("trusted", "?"), ("box", "f8", (4,))])

#: records per ``writev`` — two buffers each, under every platform's IOV_MAX
_WRITEV_RECORDS = 256


class _Segment:
    """One minute: its file, and the columns published for its records.

    A published row never changes, so a reader may keep ``rows[:n]`` past
    the lock: growth moves to a new array and leaves the old to its holders.
    """

    __slots__ = ("file", "path", "size", "ids", "rows", "n")

    def __init__(self, file, path: str) -> None:
        self.file = file
        self.path = path
        self.size = 0  # bytes appended and published
        self.ids: list[bytes] = []
        self.rows = np.empty(64, _ROW)
        self.n = 0


class SegmentStore(VPStore):
    """Durable minute-segment log (see the module docstring)."""

    kind = "segments"

    def __init__(self, path: str = "", metrics: MetricsRegistry | None = None) -> None:
        self.path = path
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tiles = TileCache(metrics=self.metrics)
        self._lock = threading.Lock()
        #: minute -> segment; a registered segment holds at least one record
        self._segments: dict[int, _Segment] = {}
        self._ids: dict[bytes, tuple[int, int]] = {}  # id -> (minute, row)
        self._closed = False
        if path:
            try:
                self._recover()
            except (OSError, WireFormatError) as exc:
                self.close()
                raise StorageError(f"cannot open VP store at {path!r}: {exc}") from exc

    # -- files ---------------------------------------------------------------

    def _open(self, minute: int, suffix: str = "") -> _Segment:
        """A segment on the minute's append handle (unbuffered)."""
        try:
            if not self.path:
                return _Segment(tempfile.TemporaryFile(buffering=0), "")
            path = f"{self.path}.{minute:08d}.seg{suffix}"
            # "a+b" creates without truncating; a rewrite target starts empty
            return _Segment(open(path, "w+b" if suffix else "a+b", buffering=0), path)
        except OSError as exc:
            raise StorageError(f"cannot open a segment of {self.path!r}: {exc}") from exc

    def _recover(self) -> None:
        """Rebuild map, columns and id lists from the files at ``path``."""
        if os.path.isfile(self.path):
            with open(self.path, "rb") as fh:
                if fh.read(16).startswith(b"SQLite format 3"):
                    raise StorageError(
                        f"{self.path!r} is a SQLite VP database; the segment log "
                        "does not read it and there is no migration"
                    )
        directory, base = os.path.split(self.path)
        for name in sorted(os.listdir(directory or ".")):
            match = _SEGMENT_NAME.fullmatch(name[len(base) + 1 :])
            if not name.startswith(base + ".") or match is None:
                continue
            if match[2]:  # the rewrite died before its rename: the segment is whole
                os.unlink(os.path.join(directory, name))
            else:
                self._scan(int(match[1]))

    def _scan(self, minute: int) -> None:
        """Publish one existing segment's records; cut a torn tail off.

        The first record whose header, length or CRC fails ends the
        segment: everything before it was acked, nothing after it was.
        """
        segment = self._open(minute)
        records: list[tuple] = []
        good = 0
        with open(segment.path, "rb") as reader:
            while len(header := reader.read(_HEADER.size)) == _HEADER.size:
                length, crc = _HEADER.unpack(header)
                record = reader.read(length)
                if length < RECORD_OVERHEAD_BYTES or len(record) < length:
                    break
                if zlib.crc32(record) != crc:
                    break
                (vp_id, *rest), _end = unpack_record_meta(record)
                records.append(((bytes(vp_id), *rest), length))
                good += _HEADER.size + length
        os.ftruncate(segment.file.fileno(), good)  # a no-op unless the tail was torn
        if records:
            self._publish(segment, minute, records)
        else:
            segment.file.close()
            os.unlink(segment.path)

    def _publish(self, segment: _Segment, minute: int, records: list[tuple]) -> None:
        """Make ``(meta, length)`` records visible — their bytes are in the file."""
        n = segment.n + len(records)
        if n > len(segment.rows):
            grown = np.empty(max(n, 2 * len(segment.rows)), _ROW)
            grown[: segment.n] = segment.rows[: segment.n]
            segment.rows = grown
        end = segment.size
        for row, ((vp_id, _minute, trusted, *box), length) in enumerate(records, segment.n):
            segment.rows[row] = (end + _HEADER.size, length, bool(trusted), tuple(box))
            segment.ids.append(vp_id)
            self._ids[vp_id] = (minute, row)
            end += _HEADER.size + length
        segment.n = n
        segment.size = end
        self._segments[minute] = segment

    def _append(self, segment: _Segment, minute: int, records: list[tuple]) -> None:
        """Write ``(meta, span)`` records to the segment, then publish them.

        One ``writev`` (per 256 records); a failed or short write is
        truncated away before the error surfaces, so the file never
        holds a record nothing names.
        """
        fd = segment.file.fileno()
        parts: list = []
        for _meta, span in records:
            parts += (_HEADER.pack(len(span), zlib.crc32(span)), span)
        try:
            for start in range(0, len(parts), 2 * _WRITEV_RECORDS):
                chunk = parts[start : start + 2 * _WRITEV_RECORDS]
                if os.writev(fd, chunk) != sum(len(part) for part in chunk):
                    raise OSError("short write")
        except OSError as exc:
            os.ftruncate(fd, segment.size)
            os.lseek(fd, segment.size, os.SEEK_SET)
            raise StorageError(f"cannot append to VP store at {self.path!r}: {exc}") from exc
        self._publish(segment, minute, [(meta, len(span)) for meta, span in records])

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(f"VP store at {self.path!r} is closed")

    # -- writes ------------------------------------------------------------

    def write(self, batch: Batch, strict: bool = False) -> int:
        """Append the batch's fresh records, one ``writev`` per minute."""
        with stage_timer(self.metrics, "store.insert"):
            spans = batch.record_spans()
            meta = batch.meta
            with self._lock:
                self._check_open()
                by_minute: dict[int, list[int]] = {}
                for i in batch.fresh_indices(strict, self._ids):
                    by_minute.setdefault(meta[i][1], []).append(i)
                with self.tiles.write(by_minute) as tile_writes:
                    for minute, indices in by_minute.items():
                        segment = self._segments.get(minute) or self._open(minute)
                        self._append(segment, minute, [(meta[i], spans[i]) for i in indices])
                        for i in indices:
                            tile_writes.add(*meta[i][1:])
                return sum(map(len, by_minute.values()))

    def iter_id_minutes(self) -> list[tuple[bytes, int]]:
        """(vp_id, minute) pairs, each minute in insertion order."""
        with self._lock:
            return [
                (vp_id, minute)
                for minute, segment in sorted(self._segments.items())
                for vp_id in segment.ids
            ]

    # -- reads ---------------------------------------------------------------

    @staticmethod
    def _pread(fd: int, offset: int, length: int) -> bytes:
        record = os.pread(fd, length, offset)
        if len(record) != length:
            raise StorageError("VP store segment is shorter than its published records")
        return record

    def get(self, vp_id: bytes) -> ViewProfile | None:
        """Fetch one VP by identifier (a fresh wire-backed VP per call)."""
        with self._lock:
            self._check_open()
            where = self._ids.get(vp_id)
            if where is None:
                return None
            segment = self._segments[where[0]]
            offset, length, trusted, _box = segment.rows[where[1]].tolist()
            # under the lock: one record, and no descriptor to duplicate
            record = self._pread(segment.file.fileno(), offset, length)
        return decode_vp(memoryview(record)[RECORD_OVERHEAD_BYTES:], trusted=trusted)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ids)

    def __contains__(self, vp_id: bytes) -> bool:
        with self._lock:
            return vp_id in self._ids

    def minutes(self) -> list[int]:
        """Sorted minute indices with at least one stored VP."""
        with self._lock:
            return sorted(self._segments)

    def query_encoded(self, spec: QuerySpec) -> bytes:
        """The one read primitive: stored records framed straight through.

        Under the lock only the minute's published columns are taken
        and its descriptor duplicated (the duplicate outlives an
        eviction).  Selection runs on the columns; each candidate is
        read in place and, on an area query, kept iff a packed digest
        location lies inside the area — the same float32 values the
        decoded path checks.  Records are stored as framed, so the
        reply is byte-identical to re-encoding the decoded selection.
        """
        area = spec.area
        if area is not None and not self._tiles_allow(spec.minute, area):
            return join_encoded_spans([])
        with self._lock:
            self._check_open()
            segment = self._segments.get(spec.minute)
            if segment is None:
                return join_encoded_spans([])
            rows = segment.rows[: segment.n]
            fd = os.dup(segment.file.fileno())
        try:
            if spec.trusted_only:
                rows = rows[rows["trusted"]]
            if area is not None:
                box = rows["box"]
                rows = rows[
                    (box[:, 2] >= area.x_min)
                    & (box[:, 0] <= area.x_max)
                    & (box[:, 3] >= area.y_min)
                    & (box[:, 1] <= area.y_max)
                ]
            records = []
            for offset, length in zip(rows["offset"].tolist(), rows["length"].tolist()):
                record = self._pread(fd, offset, length)
                if area is None or encoded_body_claims_area(
                    record, area, RECORD_OVERHEAD_BYTES
                ):
                    records.append(record)
        finally:
            os.close(fd)
        return join_encoded_spans([(record, 0, len(record)) for record in records])

    def _build_tiles(self, minute: int) -> MinuteTiles:
        """Tile build from the published columns — no record is read."""
        with self._lock:
            segment = self._segments.get(minute)
            rows = segment.rows[: segment.n] if segment is not None else np.empty(0, _ROW)
        boxes = zip(rows["trusted"].tolist(), *rows["box"].T.tolist())
        return build_minute_tiles(boxes, self.tiles.cell_m)

    # -- lifecycle ---------------------------------------------------------

    def evict_before(self, minute: int, keep_trusted: bool = False) -> int:
        """Unlink every segment below the cutoff; cost is per segment.

        With ``keep_trusted`` a minute's trusted records are rewritten,
        in order, to a temp file that is renamed over the segment (an
        anonymous segment is simply replaced).  Old descriptors are
        closed here; a reader holds its own duplicate.
        """
        with stage_timer(self.metrics, "store.evict"), self._lock:
            self._check_open()
            evicted = 0
            for m in [m for m in self._segments if m < minute]:
                old = self._segments[m]
                rows = old.rows[: old.n]
                keep = np.flatnonzero(rows["trusted"]).tolist() if keep_trusted else []
                if len(keep) == old.n:
                    continue
                evicted += old.n - len(keep)
                for vp_id in old.ids:
                    del self._ids[vp_id]
                del self._segments[m]
                try:
                    if keep:
                        fd = old.file.fileno()
                        kept = [
                            ((old.ids[i], m, True, *box), self._pread(fd, offset, length))
                            for i, (offset, length, _t, box) in zip(keep, rows[keep].tolist())
                        ]
                        survivor = self._open(m, ".tmp")
                        self._append(survivor, m, kept)
                        if old.path:
                            os.replace(survivor.path, old.path)
                            survivor.path = old.path
                    elif old.path:
                        os.unlink(old.path)
                except OSError as exc:
                    raise StorageError(
                        f"cannot evict from VP store at {self.path!r}: {exc}"
                    ) from exc
                finally:
                    old.file.close()
            if evicted:
                # pending tile builds are discarded, evicted minutes drop
                self.tiles.invalidate_below(minute)
            return evicted

    def stats(self) -> StoreStats:
        """Occupancy snapshot (detail: path, tiles, metrics)."""
        with self._lock:
            segments = list(self._segments.values())
            return StoreStats(
                backend=self.kind,
                vps=len(self._ids),
                trusted=sum(int(s.rows["trusted"][: s.n].sum()) for s in segments),
                minutes=len(segments),
                detail={
                    "path": self.path,
                    "tile_cache": self.tiles.info(),
                    "metrics": self.metrics.snapshot(),
                },
            )

    def close(self) -> None:
        """Close every segment (anonymous ones vanish); nothing is pending,
        so nothing is flushed.  Callers quiesce traffic first."""
        with self._lock:
            self._closed = True
            for segment in self._segments.values():
                segment.file.close()
            self._segments.clear()
