"""The VP store: a minute-segment log, the only storage engine.

A VP is immutable, keyed by its minute and retired by its minute — the
easy case for a log.  One append-only file per minute holds codec frame
records (:mod:`repro.store.codec`) verbatim, each behind a header::

    length (u32 LE) | crc32 of the record (u32 LE) | record

so a stored VP costs its wire record plus 8 bytes.  With a ``path`` the
segments are flat sibling files ``{path}.{minute:08d}.seg`` (nothing is
created at ``path`` itself); with an empty path they are anonymous
``tempfile.TemporaryFile`` objects, unlinked from birth — the same
engine, volatile: the placement is the path and nothing else.  Either
way the record bytes live in the kernel's page cache, not in this
process's heap; the heap holds the index alone (bounded per VP by
``STORED_VP_BYTES_MAX`` in ``tests/store/test_memory_footprint.py``).  The
index lives in memory and is rebuilt by one scan at open: the
``id -> (minute, row)`` map that rejects duplicates, and per minute
the ``(offset, length, trusted, bbox)`` columns and the ids in
insertion order.
``docs/stores.md#the-segment-log`` has the contract in prose; in short:

* **write** appends the fresh record spans of the caller's buffer with
  one ``os.writev`` per 256 records of a touched minute (an object batch
  is framed chunk by chunk) and only then publishes ids and columns,
  all under the one store lock, and returns the landed records'
  indices — an ack built from them means
  *handed to the kernel* (survives process death, not power loss);
  there is no pending buffer and nothing to flush.  A batch is atomic
  per minute: a failed append is truncated away (a minute it opened is
  closed, its new file unlinked), earlier minutes stay.
* **read** takes the minute's columns and a duplicate of its descriptor
  under the lock, then selects and reads outside it.  Segments are read
  (``os.preadv``), never file-mapped: a file mapping would be resident
  memory.  The selection's ``length`` column sizes the reply, and every
  record is read straight into its slot of one anonymous mapping — the
  whole reply, not the malloc heap — which is unmapped with its last
  view.  The columns are the only index: a whole-minute count is the
  minute's row count, and an area's bounding-box test runs before any
  record is read.
* **evict** closes and unlinks whole segments; a reader's duplicate
  still reads the complete old file, and there is nothing left to
  compact.  One descriptor stays open per live minute; retention bounds it.
  The highest cutoff ever applied is the store's ``cutoff``; with a path
  it is durable as an empty ``{path}.{cutoff:08d}.cut`` marker, renamed
  forward by each higher cutoff, so a restarted authority anchors its
  retention watermark on it rather than on whatever minute an upload
  claimed.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import re
import struct
import tempfile
import threading
import zlib
from typing import Iterable, Iterator

import numpy as np

from repro.core.viewprofile import ViewProfile
from repro.errors import StorageError, WireFormatError
from repro.obs.metrics import MetricsRegistry, stage_timer
from repro.store.base import StoreStats
from repro.store.codec import (
    FRAME_HEADER_BYTES,
    RECORD_OVERHEAD_BYTES,
    Batch,
    decode_vp,
    decode_vp_batch,
    encoded_body_claims_area,
    frame_count,
    frame_header,
    unpack_record_meta,
)
from repro.store.serving import REPLY_HEAD_ROOM, QueryResult, QuerySpec, reply_mapping

#: per-record header: record length, CRC-32 of the record
_HEADER = struct.Struct("<II")

#: what follows ``{path}.`` in a file of the log: a segment (``.tmp``: a
#: keep_trusted rewrite that has not been renamed over its segment yet),
#: or the empty marker naming the eviction cutoff (which may be negative)
_FILE_NAME = re.compile(r"(\d{8,})\.seg(\.tmp)?|(-?\d+)\.cut")

#: one published record: where its bytes are, and what selection needs
_ROW = np.dtype([("offset", "i8"), ("length", "i8"), ("trusted", "?"), ("box", "f8", (4,))])

#: a minute with no segment: no rows to select
_NO_ROWS = np.empty(0, _ROW)

#: records per ``writev`` or ``preadv`` — two buffers each, under every
#: platform's IOV_MAX
_IOV_RECORDS = 256


def _runs(rows: np.ndarray) -> Iterator[tuple[int, list[int]]]:
    """``(file offset, record lengths)`` per run of rows adjacent in the
    file: one ``preadv`` each, of at most ``_IOV_RECORDS`` records."""
    offsets, lengths = rows["offset"], rows["length"]
    apart = offsets[1:] != offsets[:-1] + lengths[:-1] + _HEADER.size
    cuts = [0, *(np.flatnonzero(apart) + 1).tolist(), len(rows)]
    offsets, lengths = offsets.tolist(), lengths.tolist()
    for lo, hi in zip(cuts, cuts[1:]):
        for first in range(lo, hi, _IOV_RECORDS):
            yield offsets[first], lengths[first : min(hi, first + _IOV_RECORDS)]


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


class SegmentStore:
    """The VP store: a minute-segment log, named or anonymous.

    ``SegmentStore(path)`` keeps its segments as files named from
    ``path``; ``SegmentStore()`` keeps them anonymous.  The contract
    every caller relies on:

    * every write is one :meth:`write` over a
      :class:`~repro.store.codec.Batch`: duplicate ids are skipped and
      the indices of the landed records returned, or with ``strict``
      ``ValidationError`` is raised before any record lands.  The four
      ``insert*`` entry points are built on it;
    * every read goes through :meth:`query` with a
      :class:`~repro.store.serving.QuerySpec` (minute, area, trusted,
      count, encoded).  The one read primitive is
      :meth:`query_encoded`; decoded reads are
      ``decode_vp_batch(query_encoded(spec))`` — fresh wire-backed VPs
      per call, equal in content, never the inserted instance;
    * minute-scoped selections return VPs in insertion order, and an
      area selects a VP iff any claimed position lies inside the closed
      rectangle — identical to a full linear scan;
    * :meth:`evict_before` removes every VP of a minute below the
      cutoff (with ``keep_trusted`` trusted VPs are pinned past it);
    * it is thread-safe: one lock, and ``write`` is atomic — two racing
      batches holding the same id agree on one winner, and the indices
      each write returns name exactly what it stored.
    """

    def __init__(self, path: str = "", metrics: MetricsRegistry | None = None) -> None:
        self.path = path
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        #: minute -> segment; a registered segment holds at least one record
        self._segments: dict[int, _Segment] = {}
        self._ids: dict[bytes, tuple[int, int]] = {}  # id -> (minute, row)
        #: the highest eviction cutoff applied (None: never evicted)
        self.cutoff: int | None = None
        self._closed = False
        if path:
            try:
                self._recover()
            except (OSError, WireFormatError) as exc:
                self.close()
                raise StorageError(f"cannot open VP store at {path!r}: {exc}") from exc

    # -- files ---------------------------------------------------------------

    def _file(self, minute: int, suffix: str = "") -> str:
        """The name of a minute's segment file under ``path``."""
        return f"{self.path}.{minute:08d}.seg{suffix}"

    def _open(self, minute: int, suffix: str = "") -> _Segment:
        """A segment on the minute's append handle (unbuffered)."""
        try:
            if not self.path:
                return _Segment(tempfile.TemporaryFile(buffering=0), "")
            path = self._file(minute, suffix)
            # "a+b" creates without truncating; a rewrite target starts empty
            return _Segment(open(path, "w+b" if suffix else "a+b", buffering=0), path)
        except OSError as exc:
            where = repr(self.path) if self.path else "anonymous segments"
            raise StorageError(
                f"cannot open the minute-{minute} segment of {where}: {exc} (one "
                "descriptor stays open per live minute; a retention window bounds them)"
            ) from exc

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
            match = _FILE_NAME.fullmatch(name[len(base) + 1 :])
            if not name.startswith(base + ".") or match is None:
                continue
            if match[3] is not None:
                self.cutoff = int(match[3])
            elif match[2]:  # the rewrite died before its rename: the segment is whole
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

    def _append(self, segment: _Segment, minute: int, records: Iterable[tuple]) -> None:
        """Write ``(meta, span)`` records to the segment, then publish them.

        Records are drawn 256 at a time, one ``writev`` each, so an
        object batch is framed one chunk at a time; the minute is
        published only after its last chunk.  A failed or short write
        is truncated away before the error surfaces, so the file never
        holds a record nothing names.
        """
        fd = segment.file.fileno()
        records = iter(records)
        written: list[tuple] = []
        try:
            while chunk := list(itertools.islice(records, _IOV_RECORDS)):
                parts: list = []
                for meta, span in chunk:
                    parts += (_HEADER.pack(len(span), zlib.crc32(span)), span)
                    written.append((meta, len(span)))
                if os.writev(fd, parts) != sum(len(part) for part in parts):
                    raise OSError("short write")
        except BaseException as exc:
            os.ftruncate(fd, segment.size)
            os.lseek(fd, segment.size, os.SEEK_SET)
            if not isinstance(exc, OSError):
                raise
            raise StorageError(f"cannot append to VP store at {self.path!r}: {exc}") from exc
        self._publish(segment, minute, written)

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(f"VP store at {self.path!r} is closed")

    def _mark_cutoff(self, minute: int) -> None:
        """Raise ``cutoff`` to ``minute``; with a path, durably: the empty
        marker is created whole or renamed forward, never rewritten."""
        if self.cutoff is not None and minute <= self.cutoff:
            return
        try:
            if self.path:
                marker = f"{self.path}.{minute:08d}.cut"
                if self.cutoff is None:
                    open(marker, "xb").close()
                else:
                    os.replace(f"{self.path}.{self.cutoff:08d}.cut", marker)
        except OSError as exc:
            raise StorageError(f"cannot record the cutoff of {self.path!r}: {exc}") from exc
        self.cutoff = minute

    # -- writes ------------------------------------------------------------

    def write(self, batch: Batch, strict: bool = False) -> list[int]:
        """Append the batch's fresh records, minute by minute; returns
        their indices, decided and landed under the one lock."""
        with stage_timer(self.metrics, "store.insert"):
            meta = batch.meta
            with self._lock:
                self._check_open()
                by_minute: dict[int, list[int]] = {}
                for i in batch.fresh_indices(strict, self._ids):
                    by_minute.setdefault(meta[i][1], []).append(i)
                for minute, indices in by_minute.items():
                    records = ((meta[i], batch.record_span(i)) for i in indices)
                    segment = self._segments.get(minute)
                    fresh = segment is None
                    created = fresh and bool(self.path) and not os.path.exists(self._file(minute))
                    segment = segment or self._open(minute)
                    try:
                        self._append(segment, minute, records)
                    except BaseException:
                        if fresh:  # registered by its first append only: nobody else closes it
                            segment.file.close()
                            if created:
                                with contextlib.suppress(OSError):
                                    os.unlink(segment.path)
                        raise
                # collected after the appends: holding the fresh list across
                # them kept ≈ 1 MiB more heap resident (pipeline investigate)
                return sorted(itertools.chain.from_iterable(by_minute.values()))

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
        receive buffer); no body is decoded and no span copied on the
        way in.
        """
        return len(self.write(Batch.from_frame(batch), strict))

    def existing_ids(self, vp_ids: Iterable[bytes]) -> set[bytes]:
        """Which of these identifiers are already stored.

        A read-only probe, one membership test per id; it decides
        nothing — duplicates are skipped by :meth:`write` alone.
        """
        return {vp_id for vp_id in vp_ids if vp_id in self}

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

    def query(self, spec: QuerySpec) -> QueryResult:
        """Run one read request; the single entry point for every read.

        Axes compose (see :class:`~repro.store.serving.QuerySpec`):
        selection = minute, restricted by area and/or trusted flag;
        ``count`` returns cardinality only; ``encoded`` returns the
        stored frame via :meth:`query_encoded`, anything else decodes it.  The whole read is
        one ``store.query`` stage observation.
        """
        with stage_timer(self.metrics, "store.query"):
            if spec.encoded:
                frame = self.query_encoded(spec)
                return QueryResult(spec=spec, n=frame_count(frame), frame=frame)
            if spec.count:
                return QueryResult(spec=spec, n=self._count_query(spec))
            vps = decode_vp_batch(self.query_encoded(spec))
            return QueryResult(spec=spec, n=len(vps), vps=vps)

    def query_encoded(self, spec: QuerySpec) -> memoryview:
        """The one read primitive: stored records read into one mapping.

        Under the lock only the minute's published columns are taken
        and its descriptor duplicated (the duplicate outlives an
        eviction).  Selection runs on the columns, and their ``length``
        sizes the reply before any read: one anonymous mapping
        (:func:`~repro.store.serving.reply_mapping`) that the candidates
        are ``preadv``'d straight into, slot after slot — one call per
        run of records adjacent in the file.  On an area query a
        candidate is kept iff a packed digest location lies inside the
        area — the same float32 values the decoded path checks — and
        one that is not is overwritten by the next kept one.
        Records are stored as framed, so the reply is byte-identical to
        re-encoding the decoded selection.  It is a read-only view of
        the mapping, with :data:`~repro.store.serving.REPLY_HEAD_ROOM`
        free bytes before it for an envelope head.
        """
        area = spec.area
        with self._lock:
            self._check_open()
            segment = self._segments.get(spec.minute)
            rows = segment.rows[: segment.n] if segment is not None else _NO_ROWS
            try:
                fd = os.dup(segment.file.fileno()) if segment is not None else -1
            except OSError as exc:
                raise StorageError(f"cannot read VP store at {self.path!r}: {exc}") from exc
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
            reply = reply_mapping(FRAME_HEADER_BYTES + int(rows["length"].sum()))
            end = REPLY_HEAD_ROOM + FRAME_HEADER_BYTES
            count = 0
            gap = bytearray(_HEADER.size)  # takes the headers between a run's records
            for offset, lengths in _runs(rows):
                buffers, slot = [], end
                for length in lengths:
                    buffers += (reply[slot : slot + length], gap)
                    slot += length
                want = slot - end + _HEADER.size * (len(lengths) - 1)
                if os.preadv(fd, buffers[:-1], offset) != want:
                    raise StorageError("VP store segment is shorter than its published records")
                slot = end
                for length in lengths:
                    if area is None or encoded_body_claims_area(
                        reply, area, slot + RECORD_OVERHEAD_BYTES
                    ):
                        if slot != end:  # the area dropped a record before this one
                            reply[end : end + length] = reply[slot : slot + length]
                        end += length
                        count += 1
                    slot += length
        finally:
            if fd >= 0:
                os.close(fd)
        reply[REPLY_HEAD_ROOM : REPLY_HEAD_ROOM + FRAME_HEADER_BYTES] = frame_header(count)
        return reply.toreadonly()[REPLY_HEAD_ROOM:end]

    def _count_query(self, spec: QuerySpec) -> int:
        """A whole minute's count is its published row count (trusted
        rows under ``trusted_only``); an area's is its frame's header."""
        if spec.area is not None:
            return frame_count(self.query_encoded(spec))
        with self._lock:
            self._check_open()
            segment = self._segments.get(spec.minute)
            if segment is None:
                return 0
            if spec.trusted_only:
                return int(segment.rows["trusted"][: segment.n].sum())
            return segment.n

    # -- lifecycle ---------------------------------------------------------

    def evict_before(self, minute: int, keep_trusted: bool = False) -> int:
        """Remove every VP with ``vp.minute < minute``; returns the count.

        The retention primitive (:mod:`repro.store.lifecycle`): whole
        segments below the cutoff are unlinked, cost per segment, and
        the cutoff is recorded (:attr:`cutoff`).  Safe beside ingest — a
        VP racing into an evicted minute is stored and removed by the
        next pass.  With ``keep_trusted`` a minute's trusted records are
        rewritten, in order, to a temp file that is renamed over the
        segment (an anonymous segment is simply replaced), so an
        investigation's seeds survive.  Old descriptors are closed here;
        a reader holds its own duplicate.
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
            self._mark_cutoff(minute)
            return evicted

    def stats(self) -> StoreStats:
        """Occupancy snapshot (detail: path, metrics)."""
        with self._lock:
            segments = list(self._segments.values())
            return StoreStats(
                backend="segments",
                vps=len(self._ids),
                trusted=sum(int(s.rows["trusted"][: s.n].sum()) for s in segments),
                minutes=len(segments),
                detail={"path": self.path, "metrics": self.metrics.snapshot()},
            )

    def close(self) -> None:
        """Close every segment (anonymous ones vanish); nothing is pending,
        so nothing is flushed.  Callers quiesce traffic first."""
        with self._lock:
            self._closed = True
            for segment in self._segments.values():
                segment.file.close()
            self._segments.clear()

    def __enter__(self) -> "SegmentStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
