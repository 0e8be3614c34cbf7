"""Persistent VP store on SQLite.

Survives authority restarts and scales past RAM: VPs live as storage
blobs (:mod:`repro.store.codec`) in a single table keyed by the VP
identifier, with a ``(minute, bbox)`` index so area queries prune on the
trajectory bounding box before the exact per-point check.  Insertion
order is preserved via rowid, so query results are byte-for-byte
interchangeable with :class:`~repro.store.memory.MemoryStore`.

``path=":memory:"`` gives a private throwaway database (useful in tests
and benchmarks); any filesystem path gives durability.

Thread safety and performance (the concurrency-control contract of
``docs/stores.md``):

* **per-thread connections** — sqlite3 connections are not safely
  shareable across threads mid-statement, so each thread lazily opens
  its own connection to the same database (a named shared-cache database
  when ``path=":memory:"``, so all threads still see one dataset).
  File databases use WAL, so readers run concurrently with the writer
  on snapshot isolation; shared-cache ``:memory:`` databases have no
  WAL, so their reads additionally serialize behind the writer lock —
  a reader never observes a half-applied batch on either flavor.
* **single-writer lock** — all mutations serialize behind one re-entrant
  lock, making ``write`` atomic (duplicate-skipping counts never
  double-count under concurrent batches).
* **prepared-statement reuse** — every SQL string is a module constant
  and connections are opened with a generous ``cached_statements`` pool,
  so the C layer reuses compiled statements across calls; the batched
  id probe pads its ``IN (...)`` list to fixed bucket sizes for the same
  reason.
* **one read statement family** — selections are served as stored
  rows framed straight through (:meth:`SQLiteStore.query_encoded`);
  a decoded read is that frame decoded, one fresh wire-backed
  :class:`ViewProfile` per row (it wraps the row's digest block —
  about 6 kB and tens of microseconds, no digest unpacked), so there
  is no id -> VP cache to size, purge or keep coherent with eviction.
* **group commit** — with ``group_commit_rows > 0`` writes accumulate
  encoded rows in a pending buffer instead of committing per call: one
  ``executemany`` + commit lands a whole group, bounded by rows
  (``group_commit_rows``), bytes (``group_commit_bytes``) and age
  (``group_commit_latency_s``, enforced at the next write or an
  explicit :meth:`flush_if_due`).  A hot-shard ingest stream of many
  small batches stops paying one fsync'd transaction per batch — the
  single largest serial cost measured in
  ``benchmarks/test_concurrent_ingest.py``.  Semantics are preserved:
  duplicate checks consult the pending buffer (its rows are already
  deduplicated against the table), every *query* flushes first
  (read-your-writes), and ``evict_before``/``compact``/``close`` flush
  unconditionally.  Durability narrows to the group: a crash loses at
  most the unflushed rows, the same window WAL's
  ``synchronous=NORMAL`` already trades away.
* **adaptive group commit** — with ``group_commit_target_s > 0`` the
  rows/bytes bounds stop being constants: every flush reports its
  observed commit latency to a
  :class:`~repro.store.adaptive.GroupCommitController`, whose EWMA
  grows the group when commits land well under the target and shrinks
  it when they overrun — so a store deployed on page-cache-fast local
  disk and one paying a modeled production fsync
  (``commit_latency_s``) both converge near their optimal group size
  without hand-picked constants.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import sqlite3
import threading
import time
from typing import Iterable

from repro.core.viewprofile import ViewProfile
from repro.errors import StorageError, ValidationError
from repro.obs.metrics import MetricsRegistry, stage_timer
from repro.store.adaptive import (
    DEFAULT_MAX_BYTES,
    DEFAULT_MAX_ROWS,
    DEFAULT_MIN_BYTES,
    DEFAULT_MIN_ROWS,
    GroupCommitController,
)
from repro.store.base import StoreStats, VPStore
from repro.store.codec import (
    DUPLICATE_ID_MESSAGE,
    Batch,
    decode_vp,
    encode_row_batch,
    encoded_body_claims_area,
)
from repro.store.serving import MinuteTiles, QuerySpec, TileCache, build_minute_tiles

_SCHEMA = """
CREATE TABLE IF NOT EXISTS vps (
    vp_id   BLOB PRIMARY KEY,
    minute  INTEGER NOT NULL,
    trusted INTEGER NOT NULL DEFAULT 0,
    x_min   REAL NOT NULL,
    y_min   REAL NOT NULL,
    x_max   REAL NOT NULL,
    y_max   REAL NOT NULL,
    body    BLOB NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_vps_minute ON vps (minute);
CREATE INDEX IF NOT EXISTS idx_vps_minute_bbox
    ON vps (minute, x_min, x_max, y_min, y_max);
CREATE INDEX IF NOT EXISTS idx_vps_minute_trusted ON vps (minute, trusted);
"""

# every statement is a module constant so each connection's compiled-
# statement cache is hit on reuse instead of re-parsing SQL text
_INSERT = "INSERT INTO vps VALUES (?, ?, ?, ?, ?, ?, ?, ?)"
_INSERT_OR_IGNORE = "INSERT OR IGNORE INTO vps VALUES (?, ?, ?, ?, ?, ?, ?, ?)"
_GET = "SELECT body, trusted FROM vps WHERE vp_id = ?"
_EXISTS = "SELECT 1 FROM vps WHERE vp_id = ?"
_COUNT = "SELECT COUNT(*) FROM vps"
_COUNT_TRUSTED = "SELECT COUNT(*) FROM vps WHERE trusted = 1"
_COUNT_MINUTES = "SELECT COUNT(DISTINCT minute) FROM vps"
_MINUTES = "SELECT DISTINCT minute FROM vps ORDER BY minute"
_EVICT = "DELETE FROM vps WHERE minute < ?"
_EVICT_UNTRUSTED = "DELETE FROM vps WHERE minute < ? AND trusted = 0"
_ID_MINUTES = "SELECT vp_id, minute FROM vps ORDER BY rowid"
# the selection statements: full row shape, pure pass-through into
# codec frames — column order matches ``encode_row_batch`` exactly
_ENCODED_BY_MINUTE = (
    "SELECT vp_id, minute, trusted, x_min, y_min, x_max, y_max, body"
    " FROM vps WHERE minute = ? ORDER BY rowid"
)
_ENCODED_TRUSTED_BY_MINUTE = (
    "SELECT vp_id, minute, trusted, x_min, y_min, x_max, y_max, body"
    " FROM vps WHERE minute = ? AND trusted = 1 ORDER BY rowid"
)
_ENCODED_BY_MINUTE_IN_AREA = (
    "SELECT vp_id, minute, trusted, x_min, y_min, x_max, y_max, body"
    " FROM vps WHERE minute = ? AND x_max >= ? AND x_min <= ?"
    " AND y_max >= ? AND y_min <= ? ORDER BY rowid"
)
_ENCODED_TRUSTED_BY_MINUTE_IN_AREA = (
    "SELECT vp_id, minute, trusted, x_min, y_min, x_max, y_max, body"
    " FROM vps WHERE minute = ? AND x_max >= ? AND x_min <= ?"
    " AND y_max >= ? AND y_min <= ? AND trusted = 1 ORDER BY rowid"
)
# coverage-tile build: metadata only, never a body (order irrelevant)
_TILE_ROWS = "SELECT trusted, x_min, y_min, x_max, y_max FROM vps WHERE minute = ?"

#: ``IN (...)`` lists are padded up to the nearest bucket so the id probe
#: compiles a handful of statement shapes instead of one per batch size
_IN_BUCKETS = (1, 8, 64, 500)

#: distinct shared-cache database names for concurrent ``:memory:`` stores
_MEMDB_SEQ = itertools.count()

#: compaction vacuums only when at least this much is reclaimable —
#: roughly a few hundred evicted VPs' worth of freed pages
DEFAULT_COMPACT_BYTES = 1 << 20

#: group-commit byte bound — a few thousand 4.5 kB VP blobs per commit
DEFAULT_GROUP_COMMIT_BYTES = 8 << 20

#: group-commit age bound in seconds; enforced at the next write (or an
#: explicit ``flush_if_due``, which the shard worker loop calls when idle)
DEFAULT_GROUP_COMMIT_LATENCY_S = 0.05

#: row-bound seed when ``group_commit_target_s`` enables adaptive sizing
#: without an explicit ``group_commit_rows`` — a target implies grouping
DEFAULT_ADAPTIVE_GROUP_ROWS = 512


class SQLiteStore(VPStore):
    """Durable minute- and bbox-indexed backend on the stdlib sqlite3."""

    kind = "sqlite"

    def __init__(
        self,
        path: str = ":memory:",
        cached_statements: int = 256,
        group_commit_rows: int = 0,
        group_commit_bytes: int = DEFAULT_GROUP_COMMIT_BYTES,
        group_commit_latency_s: float = DEFAULT_GROUP_COMMIT_LATENCY_S,
        group_commit_target_s: float = 0.0,
        commit_latency_s: float = 0.0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if group_commit_rows < 0 or group_commit_bytes < 1 or group_commit_latency_s < 0:
            raise ValidationError(
                "group_commit_rows/latency must be >= 0 and group_commit_bytes >= 1"
            )
        if group_commit_target_s < 0:
            raise ValidationError("group_commit_target_s must be >= 0")
        if commit_latency_s < 0:
            raise ValidationError("commit_latency_s must be >= 0")
        self.path = path
        self.cached_statements = cached_statements
        #: per-stage latency instrumentation (see ``docs/observability.md``);
        #: pass a disabled registry to price the store without it
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: rows per group commit; 0 disables grouping (commit per call)
        self.group_commit_rows = group_commit_rows
        self.group_commit_bytes = group_commit_bytes
        self.group_commit_latency_s = group_commit_latency_s
        # adaptive sizing: the controller owns the live rows/bytes
        # bounds once enabled; the constructor arguments seed it.  All
        # reads/mutations run under the writer lock (flush path).
        self._adaptive: GroupCommitController | None = None
        if group_commit_target_s > 0:
            # a latency target implies grouping: silently tuning a
            # commit-per-batch store toward nothing would betray the
            # module contract, so an unset row bound is seeded instead
            if self.group_commit_rows == 0:
                self.group_commit_rows = group_commit_rows = DEFAULT_ADAPTIVE_GROUP_ROWS
            self._adaptive = GroupCommitController(
                target_latency_s=group_commit_target_s,
                rows=group_commit_rows,
                group_bytes=group_commit_bytes,
                # an operator who seeds the group outside the stock
                # bounds meant it: the clamps widen to include the seed
                # (in both directions) instead of silently moving it
                min_rows=min(group_commit_rows, DEFAULT_MIN_ROWS),
                min_bytes=min(group_commit_bytes, DEFAULT_MIN_BYTES),
                max_rows=max(group_commit_rows, DEFAULT_MAX_ROWS),
                max_bytes=max(group_commit_bytes, DEFAULT_MAX_BYTES),
            )
            self.group_commit_rows = self._adaptive.rows
            self.group_commit_bytes = self._adaptive.group_bytes
        #: modeled per-commit durability cost, the same modeling idiom as
        #: ``latency_s`` on the network fabrics: a production authority
        #: pays a real fsync (``synchronous=FULL``, networked storage)
        #: per write transaction that the dev container's page cache
        #: hides.  The sleep holds this store's writer lock — commits on
        #: one store serialize, commits on different stores (shards,
        #: worker processes) overlap — making the cost group commit
        #: amortizes visible on any machine.  0 disables.
        self.commit_latency_s = commit_latency_s
        if path == ":memory:":
            # a *named* shared-cache database: per-thread connections all
            # attach to the same in-memory dataset; the keepalive
            # connection below pins it alive for the store's lifetime
            name = f"repro-vpstore-{os.getpid()}-{next(_MEMDB_SEQ)}"
            self._target = f"file:{name}?mode=memory&cache=shared"
            self._uri = True
        else:
            self._target = path
            self._uri = False
        #: materialized coverage tiles, maintained incrementally at ingest
        #: (admitted pending group-commit rows count as landed — every
        #: tile build flushes first, read-your-writes)
        self.tiles = TileCache(metrics=self.metrics)
        self._local = threading.local()
        self._write_lock = threading.RLock()
        # WAL gives file databases snapshot reads under a live writer;
        # shared-cache memory databases have no WAL, so reads take the
        # writer lock instead of ever seeing a half-applied transaction
        self._read_guard = self._write_lock if self._uri else contextlib.nullcontext()
        self._registry: list[sqlite3.Connection] = []
        self._registry_lock = threading.Lock()
        # group-commit pending buffer: vp_id -> encoded row, insertion
        # -ordered and already deduplicated against the table.  All
        # access runs under the writer lock; the bare truthiness check
        # on the read paths is a benign race (rechecked under the lock).
        self._pending: dict[bytes, tuple] = {}
        self._pending_bytes = 0
        self._pending_since: float | None = None
        self._group_commits = 0
        self._grouped_rows = 0
        self._closed = False
        try:
            self._keepalive = self._connect()
            self._keepalive.executescript(_SCHEMA)
            self._keepalive.commit()
            # the opener thread reuses the keepalive as its connection
            self._local.conn = self._keepalive
        except sqlite3.Error as exc:
            raise StorageError(f"cannot open VP store at {path!r}: {exc}") from exc

    # -- connections -------------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        """Open one connection with the store's pragmas applied.

        ``check_same_thread=False`` is safe here: each connection is used
        by exactly one thread (its opener), except for ``close`` which
        runs once traffic has drained.
        """
        conn = sqlite3.connect(
            self._target,
            uri=self._uri,
            check_same_thread=False,
            cached_statements=self.cached_statements,
        )
        if not self._uri:
            # set before the schema lands so fresh databases track freed
            # pages; compact() then reclaims them incrementally instead
            # of rewriting the whole file (no-op on pre-existing files)
            conn.execute("PRAGMA auto_vacuum=INCREMENTAL")
            # WAL lets per-thread readers proceed while the writer commits
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=5000")
        with self._registry_lock:
            self._registry.append(conn)
        return conn

    @property
    def _conn(self) -> sqlite3.Connection:
        """This thread's connection, opened lazily on first use."""
        if self._closed:
            raise StorageError(f"VP store at {self.path!r} is closed")
        conn = getattr(self._local, "conn", None)
        if conn is None:
            try:
                conn = self._connect()
            except sqlite3.Error as exc:
                raise StorageError(
                    f"cannot open VP store at {self.path!r}: {exc}"
                ) from exc
            self._local.conn = conn
        return conn

    # -- group commit ------------------------------------------------------

    def _charge_commit(self) -> None:
        """Pay the modeled per-commit durability cost (no-op by default)."""
        if self.commit_latency_s > 0:
            time.sleep(self.commit_latency_s)

    def _flush_locked(self) -> None:
        """Commit the pending row group (writer lock held); no-op if empty.

        One transaction — and one modeled durability charge — lands the
        whole group, however many ``insert_many`` calls fed it.
        """
        if not self._pending:
            return
        conn = self._conn
        with stage_timer(self.metrics, "store.commit", modeled_s=self.commit_latency_s):
            t0 = time.perf_counter()
            with conn:
                conn.executemany(_INSERT_OR_IGNORE, self._pending.values())
            self._charge_commit()
            commit_latency = time.perf_counter() - t0
        if self._adaptive is not None:
            # the controller sees the full durability cost (modeled
            # fsync included) and re-sizes the live bounds in place
            self._adaptive.observe(commit_latency)
            self.group_commit_rows = self._adaptive.rows
            self.group_commit_bytes = self._adaptive.group_bytes
        self._grouped_rows += len(self._pending)
        self._group_commits += 1
        self._pending.clear()
        self._pending_bytes = 0
        self._pending_since = None

    def flush(self) -> None:
        """Commit any pending group-commit rows now — every read calls
        this first, so a query sees the writes before it."""
        if self._pending:
            with self._write_lock:
                self._flush_locked()

    def flush_if_due(self) -> bool:
        """Flush iff the pending group has exceeded the latency bound.

        The idle hook for callers that own the write cadence (the shard
        worker loop calls it whenever its command pipe goes quiet), so
        the latency bound holds even when no further write arrives.
        Returns whether a flush ran.
        """
        if not self._pending:
            return False
        with self._write_lock:
            since = self._pending_since
            if since is None or time.monotonic() - since < self.group_commit_latency_s:
                return False
            self._flush_locked()
            return True

    # -- writes ------------------------------------------------------------

    def write(self, batch: Batch, strict: bool = False) -> int:
        """Land the batch's rows in one transaction or one pending group.

        Rows are built outside the writer lock (encoding objects is the
        CPU-heavy part; a frame's bodies are bound as spans of the
        caller's buffer, never copied).  Under the lock the batch is
        deduplicated against the table (one batched probe), the pending
        group and itself, then its fresh rows either commit at once or
        — with group commit enabled — join the pending group, which
        flushes when it crosses any bound (rows/bytes/age).
        """
        with stage_timer(self.metrics, "store.insert") as timing:
            rows = batch.rows()
            with self._write_lock:
                pending = self._pending
                stored = self._probe_ids(
                    [row[0] for row in rows if row[0] not in pending]
                )
                fresh = batch.fresh_indices(strict, pending, stored)
                if len(fresh) != len(rows):
                    rows = [rows[i] for i in fresh]
                grouped = self.group_commit_rows > 0
                # an admitted pending row counts as landed for the tile
                # cache: tile builds flush first, so they observe it
                with self.tiles.write({row[1] for row in rows}) as tile_writes:
                    if grouped:
                        for row in rows:
                            pending[row[0]] = row
                            self._pending_bytes += len(row[7])
                    elif rows:
                        try:
                            with self._conn:
                                self._conn.executemany(_INSERT, rows)
                        except sqlite3.IntegrityError as exc:
                            raise ValidationError(DUPLICATE_ID_MESSAGE) from exc
                    for row in rows:
                        tile_writes.add(*row[1:7])
                if not grouped:
                    if rows:
                        self._charge_commit()
                        if self.commit_latency_s:
                            timing.add_modeled(self.commit_latency_s)
                elif pending:
                    if self._pending_since is None:
                        self._pending_since = time.monotonic()
                    if (
                        len(pending) >= self.group_commit_rows
                        or self._pending_bytes >= self.group_commit_bytes
                        or time.monotonic() - self._pending_since
                        >= self.group_commit_latency_s
                    ):
                        self._flush_locked()
                return len(rows)

    def _probe_ids(self, vp_ids: list[bytes]) -> set[bytes]:
        """Which of these ids have table rows (pending buffer NOT consulted)."""
        found: set[bytes] = set()
        chunk = _IN_BUCKETS[-1]  # stay under SQLite's bound-parameter limit
        for start in range(0, len(vp_ids), chunk):
            part = vp_ids[start : start + chunk]
            size = next(b for b in _IN_BUCKETS if b >= len(part))
            part = part + part[:1] * (size - len(part))  # pad: reuse statement
            marks = ",".join("?" * size)
            with self._read_guard:
                rows = self._conn.execute(
                    f"SELECT vp_id FROM vps WHERE vp_id IN ({marks})", part
                ).fetchall()
            found.update(bytes(vp_id) for (vp_id,) in rows)
        return found

    def existing_ids(self, vp_ids: Iterable[bytes]) -> set[bytes]:
        """Which of these identifiers are already stored (batched probes).

        Consults the pending group-commit buffer alongside the table, so
        the batch-upload duplicate probe never forces a premature flush.
        """
        ids = list(vp_ids)
        found = self._probe_ids(ids)
        if self._pending:
            with self._write_lock:
                found.update(vp_id for vp_id in ids if bytes(vp_id) in self._pending)
        return found

    def iter_id_minutes(self) -> list[tuple[bytes, int]]:
        """(vp_id, minute) pairs of every stored VP — no blob decode."""
        self.flush()
        with self._read_guard:
            rows = self._conn.execute(_ID_MINUTES).fetchall()
        return [(bytes(vp_id), minute) for vp_id, minute in rows]

    # -- point reads -------------------------------------------------------

    def get(self, vp_id: bytes) -> ViewProfile | None:
        """Fetch one VP by identifier (a fresh wire-backed VP per call)."""
        self.flush()
        with self._read_guard:
            row = self._conn.execute(_GET, (vp_id,)).fetchone()
        if row is None:
            return None
        return decode_vp(row[0], trusted=bool(row[1]))

    def __len__(self) -> int:
        """Total stored VPs (pending group-commit rows included)."""
        self.flush()
        with self._read_guard:
            return self._conn.execute(_COUNT).fetchone()[0]

    def __contains__(self, vp_id: bytes) -> bool:
        """True when a VP with this identifier is stored.

        Answers from the pending group-commit buffer first, so the
        duplicate-probe hot path never forces a flush.
        """
        if self._pending:
            with self._write_lock:
                if bytes(vp_id) in self._pending:
                    return True
        with self._read_guard:
            return self._conn.execute(_EXISTS, (vp_id,)).fetchone() is not None

    # -- minute/area reads ---------------------------------------------------

    def minutes(self) -> list[int]:
        """Sorted minute indices with at least one stored VP."""
        self.flush()
        with self._read_guard:
            return [m for (m,) in self._conn.execute(_MINUTES).fetchall()]

    def query_encoded(self, spec: QuerySpec) -> bytes:
        """The one read primitive: stored rows framed straight through.

        The SELECT returns rows in the exact column order of
        :func:`repro.store.codec.encode_row_batch`; the only per-row
        work on an area query is the decode-free exact membership test
        over the packed digest locations
        (:func:`repro.store.codec.encoded_body_claims_area`), which
        reads the same float32-rounded values the decoded path checks
        — so the result frame is byte-identical to re-encoding the
        decoded selection, which is this frame decoded (the inherited
        ``_select``).  No :class:`ViewProfile` exists on this path.
        """
        self.flush()
        area = spec.area
        if area is not None:
            if not self._tiles_allow(spec.minute, area):
                return encode_row_batch([])
            statement = (
                _ENCODED_TRUSTED_BY_MINUTE_IN_AREA
                if spec.trusted_only
                else _ENCODED_BY_MINUTE_IN_AREA
            )
            params = (spec.minute, area.x_min, area.x_max, area.y_min, area.y_max)
        else:
            statement = (
                _ENCODED_TRUSTED_BY_MINUTE if spec.trusted_only else _ENCODED_BY_MINUTE
            )
            params = (spec.minute,)
        with self._read_guard:
            rows = self._conn.execute(statement, params).fetchall()
        if area is not None:
            rows = [row for row in rows if encoded_body_claims_area(row[7], area)]
        return encode_row_batch(rows)

    def _build_tiles(self, minute: int) -> MinuteTiles:
        """Tile build from the metadata columns — bodies never selected."""
        self.flush()
        with self._read_guard:
            rows = self._conn.execute(_TILE_ROWS, (minute,)).fetchall()
        return build_minute_tiles(rows, self.tiles.cell_m)

    # -- lifecycle ---------------------------------------------------------

    def evict_before(self, minute: int, keep_trusted: bool = False) -> int:
        """Delete every VP below the cutoff via the minute index.

        Runs inside the single-writer lock as one transaction, counted
        from the DELETE cursor — evicting millions of rows never
        materializes their ids.  Freed pages go on SQLite's freelist;
        ``compact()`` returns them to the filesystem.  ``keep_trusted``
        pins trusted rows (investigation seeds) past the cutoff — the
        retention contract of ``RetentionPolicy(pin_trusted=True)``.
        """
        with stage_timer(self.metrics, "store.evict"), self._write_lock:
            self._flush_locked()
            conn = self._conn
            with conn:
                statement = _EVICT_UNTRUSTED if keep_trusted else _EVICT
                evicted = conn.execute(statement, (minute,)).rowcount
            if evicted:
                # pending tile builds are discarded and evicted minutes
                # drop from the cache (a pinned minute's entry drops
                # too — its population changed)
                self.tiles.invalidate_below(minute)
            return evicted

    def compact(self, min_reclaim_bytes: int = DEFAULT_COMPACT_BYTES) -> dict:
        """Reclaim space freed by eviction and refresh planner stats.

        Vacuums only when the freelist holds at least
        ``min_reclaim_bytes`` — incrementally on databases created by
        this class (``auto_vacuum=INCREMENTAL``), via a full ``VACUUM``
        otherwise — then runs ``ANALYZE`` so the query planner sees the
        post-eviction minute distribution.  File databases additionally
        truncate the WAL so the on-disk footprint matches the data.
        """
        with self._write_lock:
            self._flush_locked()
            conn = self._conn
            page_size = conn.execute("PRAGMA page_size").fetchone()[0]
            freelist = conn.execute("PRAGMA freelist_count").fetchone()[0]
            reclaimable = page_size * freelist
            vacuumed = False
            if reclaimable >= min_reclaim_bytes:
                if conn.execute("PRAGMA auto_vacuum").fetchone()[0] == 2:
                    # one execute() of the pragma is not stepped to
                    # completion by sqlite3 and frees only a page or
                    # two — loop until the freelist stops shrinking
                    remaining = freelist
                    while remaining:
                        conn.execute("PRAGMA incremental_vacuum").fetchall()
                        now = conn.execute("PRAGMA freelist_count").fetchone()[0]
                        if now >= remaining:
                            break
                        remaining = now
                else:
                    conn.execute("VACUUM")
                vacuumed = True
            conn.execute("ANALYZE")
            if not self._uri:
                conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            pages = conn.execute("PRAGMA page_count").fetchone()[0]
            return {
                "vacuumed": vacuumed,
                "reclaimable_bytes": reclaimable,
                "db_bytes": page_size * pages,
            }

    def file_bytes(self) -> int:
        """On-disk footprint (main file + WAL); 0 for in-memory stores."""
        if self._uri:
            return 0
        total = 0
        for suffix in ("", "-wal"):
            try:
                total += os.path.getsize(self.path + suffix)
            except OSError:
                pass
        return total

    # -- introspection -----------------------------------------------------

    def stats(self) -> StoreStats:
        """Occupancy snapshot (detail: path, connections, tiles, groups).

        Deliberately does NOT flush the pending group — a monitoring
        loop polling stats must not cap every group at the poll
        interval.  Pending rows are counted in from their snapshot
        instead (they are already deduplicated against the table, so
        the sums are exact).
        """
        with self._write_lock:
            pending_rows = list(self._pending.values())
            group = {
                "rows": self.group_commit_rows,
                "commits": self._group_commits,
                "grouped_rows": self._grouped_rows,
                "pending": len(pending_rows),
            }
            if self._adaptive is not None:
                group["adaptive"] = self._adaptive.snapshot()
        with self._read_guard:
            total = self._conn.execute(_COUNT).fetchone()[0]
            trusted = self._conn.execute(_COUNT_TRUSTED).fetchone()[0]
            if pending_rows:
                table_minutes = {m for (m,) in self._conn.execute(_MINUTES).fetchall()}
            else:
                n_minutes = self._conn.execute(_COUNT_MINUTES).fetchone()[0]
        if pending_rows:
            total += len(pending_rows)
            trusted += sum(1 for row in pending_rows if row[2])
            n_minutes = len(table_minutes | {row[1] for row in pending_rows})
        with self._registry_lock:
            n_conns = len(self._registry)
        return StoreStats(
            backend=self.kind,
            vps=total,
            trusted=trusted,
            minutes=n_minutes,
            detail={
                "path": self.path,
                "connections": n_conns,
                "tile_cache": self.tiles.info(),
                "group_commit": group,
                "metrics": self.metrics.snapshot(),
            },
        )

    def close(self) -> None:
        """Flush pending writes and close every connection.

        Callers must quiesce traffic first (e.g. shut the fronting
        network down) — close is not safe concurrently with queries.
        The store is unusable afterwards.
        """
        if self._closed:
            return
        with self._write_lock:
            self._flush_locked()
        self._closed = True
        with self._registry_lock:
            conns, self._registry = self._registry, []
        for conn in conns:
            conn.close()
