"""Process shard workers: every shard's log in its own OS process.

This module moves each shard into its **own worker OS process** — its
own GIL, its own segment files, its own failure domain.  It does not
make ingest faster: a segment append costs less than the pipe hop that
ships it, so a four-worker fleet ingests a hot minute at ~0.2-0.3x of
one in-process log (``benchmarks/test_concurrent_ingest.py``).

* :class:`ProcessShardedStore` — a :class:`~repro.store.sharded.ShardedStore`
  whose shards are :class:`WorkerShard` proxies.  All the routing-tier
  machinery (composite ``(minute, cell)`` keys, the fleet-wide id
  directory, the per-minute order merge, snapshotted eviction) is
  inherited unchanged; only the shard boundary moved from an object
  call to a pipe.
* :class:`WorkerShard` — the parent-side proxy implementing the full
  ``VPStore`` contract over one ``multiprocessing`` pipe.  Requests are
  strictly request/response under a per-proxy lock; the fan-out pool of
  the sharded wrapper provides cross-worker parallelism.
* :func:`_worker_main` — the per-worker command loop: builds the
  worker's segment log from a small spec dict (``{"kind": "segments",
  "path": ""}`` is a volatile worker on anonymous segments), then
  serves ops until ``close`` or the pipe drops.

The coordination plane stays thin (route, frame, forward — the KISS
principle); the heavy lifting (decode, checksums, appends) runs in
parallel simple workers.  IPC framing is the columnar batch codec
(:func:`~repro.store.codec.encode_vp_batch`): one length-prefixed
buffer per batch instead of N pickled objects, and a segment-log
worker appends the records *without ever decoding a body*.

Failure model: a worker that dies or stops answering within
``op_timeout_s`` is abandoned — the proxy raises ``StorageError``, the
process is terminated, and ``close()`` always returns (a hung worker
cannot wedge a test run or CI).  Workers default to the ``fork`` start
method on Linux (cheap, no re-import) and ``spawn`` elsewhere.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
from multiprocessing.connection import Connection
from typing import Iterable, Sequence

import repro.errors as errors
from repro.core.viewprofile import ViewProfile
from repro.errors import ReproError, StorageError
from repro.store.base import StoreStats, VPStore
from repro.store.codec import Batch, decode_vp_batch, encode_vp_batch
from repro.obs.metrics import MetricsRegistry
from repro.store.serving import MinuteTiles, QuerySpec
from repro.store.segments import SegmentStore
from repro.store.sharded import DEFAULT_ROUTE_CELL_M, ShardedStore

#: how long the parent waits for one worker reply before declaring the
#: worker hung and abandoning it (construction handshake included)
DEFAULT_OP_TIMEOUT_S = 60.0

#: how long ``close()`` waits for a worker to acknowledge and exit —
#: deliberately short so a wedged worker never blocks shutdown (or CI)
CLOSE_TIMEOUT_S = 10.0


def _default_context() -> multiprocessing.context.BaseContext:
    """``fork`` on Linux (cheap start, no re-import), ``spawn`` elsewhere."""
    if sys.platform.startswith("linux"):
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


def _build_worker_store(spec: dict) -> VPStore:
    """Instantiate the worker's segment log from its spec dict.

    ``spec["path"]`` is the segment-file prefix (empty: anonymous
    segments).  ``spec["metrics"]`` (default True) toggles the
    worker-local :class:`~repro.obs.metrics.MetricsRegistry` — each
    worker records its own per-stage histograms and ships snapshots
    back over the command loop (the ``metrics`` op, and piggybacked on
    ``stats``).
    """
    if spec.get("kind") != "segments":
        raise StorageError(f"unknown worker backend kind {spec.get('kind')!r}")
    metrics = MetricsRegistry(enabled=bool(spec.get("metrics", True)))
    return SegmentStore(spec.get("path", ""), metrics=metrics)


def _dispatch(store: VPStore, request: tuple) -> object:
    """Execute one command against the worker's backend."""
    op = request[0]
    if op == "write":
        # the segment log appends the records without decoding bodies
        return store.insert_encoded(request[2], strict=request[1])
    if op == "get":
        vp = store.get(request[1])
        return None if vp is None else encode_vp_batch([vp])
    if op == "contains":
        return request[1] in store
    if op == "len":
        return len(store)
    if op == "existing":
        return store.existing_ids(request[1])
    if op == "minutes":
        return store.minutes()
    if op == "query_enc":
        # decode-free span query: the worker's backend assembles the
        # codec frame (tile-pruned, record pass-through on the log) and the
        # raw bytes travel the pipe untouched
        return store.query_encoded(request[1])
    if op == "tiles":
        # coverage tiles ship as their plain-dict form (cheap, picklable)
        return store.coverage_tiles(request[1]).to_dict()
    if op == "id_minutes":
        return list(store.iter_id_minutes())
    if op == "evict":
        return store.evict_before(request[1], keep_trusted=request[2])
    if op == "stats":
        return store.stats()
    if op == "metrics":
        # light-weight metric poll: the snapshot alone, without the
        # occupancy scan a full ``stats`` performs
        registry = getattr(store, "metrics", None)
        return registry.snapshot() if registry is not None else {}
    if op == "ping":
        return "pong"
    raise StorageError(f"unknown worker op {op!r}")


def _worker_main(conn: Connection, spec: dict) -> None:
    """One worker's whole life: build the backend, serve ops, shut down.

    Runs in the worker process.  The first message out is the readiness
    handshake (an error here — bad path, bad spec — reaches the parent
    as a construction failure).
    """
    try:
        store = _build_worker_store(spec)
    except Exception as exc:  # surfaced as the construction handshake
        try:
            conn.send(("err", type(exc).__name__, str(exc)))
        finally:
            conn.close()
        return
    conn.send(("ok", "ready"))
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            break  # parent vanished: fall through to the store close
        try:
            if request[0] == "close":
                store.close()  # nothing is pending: the ack follows the close
                conn.send(("ok", None))
                break
            if request[0] == "write" and request[2] is None:
                # the frame travels out-of-band as one raw pipe write —
                # no pickling, and on the parent side no copy of the
                # receive-buffer span it was handed (memoryviews go
                # straight to ``send_bytes``)
                request = ("write", request[1], conn.recv_bytes())
            conn.send(("ok", _dispatch(store, request)))
        except Exception as exc:
            try:
                conn.send(("err", type(exc).__name__, str(exc)))
            except (EOFError, OSError):
                break
    store.close()  # idempotent on the double-close paths
    conn.close()


def _exception_for(name: str, text: str) -> Exception:
    """Map a worker-side error back onto the matching repro exception."""
    cls = getattr(errors, name, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        return cls(text)
    return StorageError(f"shard worker failed: {name}: {text}")


class WorkerShard(VPStore):
    """Parent-side ``VPStore`` proxy for one worker process.

    Every call is one request/response exchange on the worker's pipe,
    serialized by a per-proxy lock (concurrency comes from fanning out
    *across* proxies, exactly like a client fleet across storage
    nodes).  VP payloads travel as columnar batch buffers; everything
    else as small picklable primitives.  A worker that breaks protocol,
    dies, or exceeds ``op_timeout_s`` is abandoned: the process is
    terminated and every subsequent call raises ``StorageError``.
    """

    kind = "worker"

    def __init__(
        self,
        spec: dict,
        ctx: multiprocessing.context.BaseContext | None = None,
        op_timeout_s: float = DEFAULT_OP_TIMEOUT_S,
    ) -> None:
        self.spec = dict(spec)
        self.op_timeout_s = op_timeout_s
        ctx = ctx or _default_context()
        self._lock = threading.Lock()
        self._conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(
            target=_worker_main, args=(child_conn, self.spec), daemon=True
        )
        self._proc.start()
        self._pid = self._proc.pid
        child_conn.close()
        self._broken = False
        self._closed = False
        try:
            self._receive()  # readiness handshake (store built worker-side)
        except BaseException:
            self.close()
            raise

    # -- plumbing ----------------------------------------------------------

    def _abandon(self) -> None:
        """Give up on the worker: kill the process, poison the proxy."""
        self._broken = True
        if self._proc.is_alive():
            self._proc.terminate()

    def _receive(self) -> object:
        """One reply off the pipe; maps worker-side errors, bounds waits."""
        if not self._conn.poll(self.op_timeout_s):
            self._abandon()
            raise StorageError(
                f"shard worker (pid {self._pid}) gave no reply within "
                f"{self.op_timeout_s:.0f}s; worker abandoned"
            )
        reply = self._conn.recv()
        if reply[0] == "err":
            raise _exception_for(reply[1], reply[2])
        return reply[1]

    def _request(
        self, *message: object, payload: bytes | memoryview | None = None
    ) -> object:
        """Send one command and return its result (or raise its error).

        ``payload`` rides out-of-band after the pickled command tuple as
        one raw ``send_bytes`` write — the zero-copy lane for framed
        batch buffers (a :class:`memoryview` is written straight from
        the caller's receive buffer; pickling would both copy it and
        fail, since memoryviews are not picklable).
        """
        with self._lock:
            if self._closed or self._broken:
                raise StorageError("shard worker is closed or abandoned")
            try:
                self._conn.send(message)
                if payload is not None:
                    self._conn.send_bytes(payload)
                return self._receive()
            except (EOFError, OSError) as exc:
                self._abandon()
                raise StorageError(f"shard worker died mid-request: {exc}") from exc

    @property
    def worker_pid(self) -> int | None:
        """The worker process id (for health checks and dashboards)."""
        return self._pid

    def alive(self) -> bool:
        """True while the worker process runs and the proxy is usable."""
        return not (self._closed or self._broken) and self._proc.is_alive()

    # -- writes ------------------------------------------------------------

    def write(self, batch: Batch, strict: bool = False) -> int:
        """Pipe the batch's frame to the worker as-is.

        The buffer a wire frame (or a sharded router's slice of one)
        arrives in IS the worker IPC framing, so ingest is a pure pipe
        write — no decode, no re-encode, no object materialization on
        the parent's GIL; an object batch is framed here, once.  A
        ``memoryview`` span (the streaming front-end's receive buffer)
        rides out-of-band via ``send_bytes`` without ever materializing
        ``bytes`` on this side of the pipe; ``bytes`` buffers ride
        inside the pickled command (one pipe round-trip beats two — the
        out-of-band hand-off exists for zero-copy, not speed).
        """
        frame = batch.frame()
        if isinstance(frame, memoryview):
            return self._request("write", strict, None, payload=frame)
        return self._request("write", strict, frame)

    def existing_ids(self, vp_ids: Iterable[bytes]) -> set[bytes]:
        """Which of these identifiers the worker already stores."""
        return self._request("existing", list(vp_ids))

    def iter_id_minutes(self) -> list[tuple[bytes, int]]:
        """(vp_id, minute) pairs of every stored VP (one round-trip)."""
        return self._request("id_minutes")

    # -- point reads -------------------------------------------------------

    def get(self, vp_id: bytes) -> ViewProfile | None:
        """Fetch one VP by identifier."""
        buf = self._request("get", bytes(vp_id))
        return None if buf is None else decode_vp_batch(buf)[0]

    def __len__(self) -> int:
        """Total stored VPs."""
        return self._request("len")

    def __contains__(self, vp_id: bytes) -> bool:
        """True when the worker stores a VP with this identifier."""
        return self._request("contains", bytes(vp_id))

    # -- minute/area queries -----------------------------------------------

    # the worker-side store owns the minute tiles; the proxy keeps none,
    # so every read plan falls through to the two pipe ops below
    tiles = None

    def minutes(self) -> list[int]:
        """Sorted minute indices with at least one stored VP."""
        return self._request("minutes")

    def query_encoded(self, spec: QuerySpec) -> bytes:
        """The proxy's one read primitive: the worker's frame crosses as-is.

        Nothing is decoded on either side of the pipe — the worker's
        backend assembles the codec frame from stored spans and the
        proxy hands the raw buffer straight to its caller (the sharded
        router, or the serving tier's wire reply).
        """
        return self._request("query_enc", spec)

    def _build_tiles(self, minute: int) -> MinuteTiles:
        """Fetch the worker's coverage tiles (one dict round-trip)."""
        return MinuteTiles.from_dict(self._request("tiles", minute))

    # -- lifecycle / introspection -----------------------------------------

    def evict_before(self, minute: int, keep_trusted: bool = False) -> int:
        """Remove the worker's VPs below the cutoff (trusted pinnable)."""
        return self._request("evict", minute, keep_trusted)

    def metrics_snapshot(self) -> dict:
        """The worker's metric registry snapshot (one light round-trip)."""
        return self._request("metrics")

    def stats(self) -> StoreStats:
        """The backend's own snapshot, annotated with the worker pid."""
        inner: StoreStats = self._request("stats")
        detail = dict(inner.detail)
        detail["worker_pid"] = self._pid
        return StoreStats(
            backend=inner.backend,
            vps=inner.vps,
            trusted=inner.trusted,
            minutes=inner.minutes,
            detail=detail,
        )

    def close(self) -> None:
        """Stop the worker, waiting briefly; escalate if it hangs.

        The ack is sent only after the worker closed its segment log.
        A worker that fails to ack within ``CLOSE_TIMEOUT_S`` is
        terminated, then killed — shutdown always returns, and the
        process handle's own descriptor goes with it.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if not self._broken:
                try:
                    self._conn.send(("close",))
                    if self._conn.poll(CLOSE_TIMEOUT_S):
                        self._conn.recv()
                except (EOFError, OSError):
                    pass
            self._conn.close()
        self._proc.join(timeout=CLOSE_TIMEOUT_S)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=CLOSE_TIMEOUT_S)
            if self._proc.is_alive():
                self._proc.kill()
                self._proc.join()
        self._proc.close()


class ProcessShardedStore(ShardedStore):
    """A sharded fleet whose every shard runs in its own OS process.

    Same contract, same routing semantics as
    :class:`~repro.store.sharded.ShardedStore` — composite
    ``(minute, cell)`` keys, fleet-wide id directory, order-preserving
    minute merges, snapshot-consistent eviction — but segment appends
    and reads execute in the workers, behind one pipe hop each.
    Construction starts the worker processes (the supervisor role);
    ``close()`` stops them, escalating to ``terminate``/``kill`` if a
    worker hangs.
    """

    kind = "procs"

    def __init__(
        self,
        specs: Sequence[dict],
        fanout_workers: int | None = None,
        shard_cells: int = 1,
        route_cell_m: float = DEFAULT_ROUTE_CELL_M,
        mp_context: str = "",
        op_timeout_s: float = DEFAULT_OP_TIMEOUT_S,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        """Start one worker per spec dict and wrap them as a fleet.

        ``specs`` entries are ``{"kind": "segments", "path": prefix}`` as
        accepted by the worker loop (a ``"metrics": False`` entry turns
        that worker's registry off); ``mp_context`` forces a start
        method (default: ``fork`` on Linux, ``spawn`` elsewhere);
        ``op_timeout_s`` bounds every worker round-trip.  Remaining
        parameters are the sharded wrapper's.
        """
        ctx = (
            multiprocessing.get_context(mp_context)
            if mp_context
            else _default_context()
        )
        workers: list[WorkerShard] = []
        try:
            for spec in specs:
                workers.append(WorkerShard(spec, ctx, op_timeout_s=op_timeout_s))
            super().__init__(
                workers,
                fanout_workers=fanout_workers,
                shard_cells=shard_cells,
                route_cell_m=route_cell_m,
                metrics=metrics,
            )
        except BaseException:
            for worker in workers:
                worker.close()
            raise

    @classmethod
    def memory(
        cls,
        n_workers: int = 4,
        shard_cells: int = 1,
        route_cell_m: float = DEFAULT_ROUTE_CELL_M,
        metrics_enabled: bool = True,
        **kwargs: object,
    ) -> "ProcessShardedStore":
        """A volatile fleet: every worker on anonymous segments."""
        specs = [
            {"kind": "segments", "path": "", "metrics": metrics_enabled}
            for _ in range(n_workers)
        ]
        return cls(
            specs,
            shard_cells=shard_cells,
            route_cell_m=route_cell_m,
            **kwargs,
        )

    def worker_pids(self) -> list[int | None]:
        """The worker process ids, in shard order."""
        return [shard.worker_pid for shard in self.shards]  # type: ignore[attr-defined]

    def worker_metrics(self) -> list[dict]:
        """Every worker's registry snapshot, in shard order.

        Lighter than ``stats()``: each snapshot is one ``metrics`` op
        round-trip, no occupancy scan.  Merge them with
        :func:`~repro.obs.metrics.merge_snapshots` for a fleet view.
        """
        return [
            shard.metrics_snapshot()  # type: ignore[attr-defined]
            for shard in self.shards
        ]
