"""Async zero-copy streaming ingest front-end with backpressure.

The threaded fabric (:mod:`repro.net.concurrency`) receives every
request as one whole buffered message before the handler runs — an
extra full copy per upload and no flow control.  This module is the
streaming execution model on the same authority: vehicles hold one
connection open, frames are parsed *incrementally* as bytes arrive off
the socket (:class:`~repro.net.messages.FrameParser`), and a completed
``FRAME`` record is handed to
:meth:`~repro.net.server.ViewMapServer.ingest_frame_stream` as a
read-only :class:`memoryview` of the connection's receive buffer —
vehicle socket → worker ``executemany`` with zero decode *and* zero
intermediate copy on the authority.

Execution model
===============

One ``asyncio`` event loop runs on a background thread and owns every
connection: parsing, admission and reply writing are loop-side;
handlers (SQLite binds, modeled commit sleeps, control envelopes)
run on a bounded thread pool exactly as wide as the threaded fabric's
worker pool, so the two transports are comparable arm-for-arm.  Two
connection flavors share all of that machinery:

* **real TCP** (:meth:`StreamingNetwork.listen`) — ``asyncio`` stream
  server, used by the tier-1 smoke test and real deployments;
* **in-memory** (:meth:`StreamingNetwork.connect`) — a modeled vehicle
  connection whose bytes are fed to the same parser in configurable
  chunks, which is how the streaming benchmark models thousands of
  concurrent vehicles without thousands of file descriptors.

The front door for untrusted bytes is a small explicit state machine
with hard resource bounds (the KISS principle): a header declaring an
oversized payload, a bad handshake magic, an over-cap backlog, or a
peer that starts a record and never finishes it (slow-loris) each shed
the connection with a clean error and a ``server.upload.shed`` count —
nothing is ever partially ingested.

Backpressure is explicit (:mod:`repro.obs.admission`): bounded
per-shard admission queues, shed uploads answered with a ``busy`` reply
carrying ``retry_after`` seconds, and the queue bound halves while the
commit-p99 SLO signal is breached, so the authority degrades by
shedding early instead of collapsing late.
"""

from __future__ import annotations

import asyncio
import logging
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Coroutine

from repro.errors import NetworkError, ReproError, ValidationError, WireFormatError
from repro.net.messages import (
    MAX_STREAM_PAYLOAD_BYTES,
    STREAM_KIND_FRAME,
    STREAM_KIND_MSG,
    STREAM_MAGIC,
    FrameParser,
    decode_message,
    encode_message,
    pack_stream_record,
    peek_frame_minute,
)
from repro.net.server import ViewMapServer
from repro.net.transport import Endpoint, Handler
from repro.obs.admission import DEFAULT_MAX_DEPTH, AdmissionController
from repro.obs.metrics import MetricsRegistry, stage_timer

_log = logging.getLogger(__name__)

#: handler-pool width, matching the threaded fabric's default
DEFAULT_WORKERS = 8

#: a record (handshake included) must complete within this many seconds
#: of its first byte, or the connection is shed (slow-loris guard)
DEFAULT_READ_DEADLINE_S = 30.0

#: per-connection cap on buffered-but-unprocessed payload bytes
#: (CLI ``--max-pending-bytes``)
DEFAULT_MAX_PENDING_BYTES = 8 * 1024 * 1024

#: default chunk size for modeled in-memory connections — smaller than
#: one VP record, so every modeled upload genuinely exercises the
#: incremental parser rather than arriving whole
DEFAULT_CHUNK_BYTES = 2048

#: admission shard queues (one per active minute bucket)
DEFAULT_ADMISSION_SHARDS = 4


class _Session:
    """Server-side state of one streaming connection (loop thread only)."""

    def __init__(
        self,
        net: "StreamingNetwork",
        address: str,
        write: Callable[[bytes], Coroutine[Any, Any, None]],
        on_close: Callable[[str], None],
    ) -> None:
        self.net = net
        self.address = address
        self.write = write
        self.on_close = on_close
        self.parser = FrameParser(max_payload_bytes=net.max_record_bytes)
        self.queue: asyncio.Queue[tuple[int, memoryview]] = asyncio.Queue()
        self.queued_bytes = 0
        self.record_started_at: float | None = None
        self.closed = False
        self.shedding = False
        self.task: asyncio.Task | None = None

    def feed(self, data: bytes | memoryview) -> None:
        """Consume one chunk off the wire; enforce the resource bounds."""
        if self.closed or self.shedding:
            return
        self.net.metrics.inc("stream.bytes.in", len(data))
        try:
            records = self.parser.feed(data)
        except ValidationError as exc:
            self.net._shed(self, str(exc))
            return
        if not self.parser.mid_record:
            self.record_started_at = None
        elif records or self.record_started_at is None:
            # a fresh partial record began in this chunk: its read
            # deadline starts now
            self.record_started_at = self.net._loop.time()
        for _kind, payload in records:
            self.queued_bytes += len(payload)
        if self.parser.pending_bytes + self.queued_bytes > self.net.max_pending_bytes:
            self.net._shed(
                self,
                f"connection backlog exceeds the {self.net.max_pending_bytes}-byte "
                "max-pending bound",
            )
            return
        for record in records:
            self.queue.put_nowait(record)


class StreamConnection:
    """Client half of one modeled in-memory streaming connection.

    Thread-safe: any thread may push uploads; replies resolve in
    request order (records on one connection are processed strictly
    sequentially, exactly like bytes on a real socket).
    """

    def __init__(self, net: "StreamingNetwork", address: str, chunk_bytes: int) -> None:
        self._net = net
        self._chunk = max(1, chunk_bytes)
        self._parser = FrameParser(max_payload_bytes=net.max_record_bytes)
        self._pending: deque[Future] = deque()
        self._lock = threading.Lock()
        self.closed = False
        self._session = net._open_memory_session(address, self._deliver, self._on_close)
        self._send_bytes(STREAM_MAGIC)

    # -- client -> server --------------------------------------------------

    def _send_bytes(self, data: bytes) -> None:
        loop = self._net._loop
        session = self._session
        for start in range(0, len(data), self._chunk):
            chunk = data[start : start + self._chunk]
            loop.call_soon_threadsafe(session.feed, chunk)

    def _submit(self, kind: int, payload: bytes) -> Future:
        if self.closed:
            raise NetworkError("streaming connection is closed")
        future: Future = Future()
        with self._lock:
            self._pending.append(future)
        self._send_bytes(pack_stream_record(kind, payload))
        return future

    def upload_frame_async(self, frame: bytes) -> Future:
        """Stream one codec batch frame; future resolves to raw reply bytes."""
        return self._submit(STREAM_KIND_FRAME, frame)

    def upload_frame(self, frame: bytes, timeout: float | None = 60.0) -> dict:
        """Stream one codec batch frame and block for its decoded reply."""
        return decode_message(self.upload_frame_async(frame).result(timeout))

    def request(self, kind: str, timeout: float | None = 60.0, **fields: Any) -> dict:
        """One control round-trip (the threaded fabric's envelope)."""
        future = self._submit(STREAM_KIND_MSG, encode_message(kind, **fields))
        return decode_message(future.result(timeout))

    def request_raw(self, payload: bytes, timeout: float | None = 60.0) -> bytes:
        """Send pre-encoded envelope bytes; returns raw reply bytes."""
        return self._submit(STREAM_KIND_MSG, payload).result(timeout)

    # -- server -> client --------------------------------------------------

    def _deliver(self, data: bytes) -> None:
        """Reply bytes from the server side (runs on the loop thread)."""
        try:
            records = self._parser.feed(data)
        except ValidationError as exc:
            self._on_close(f"reply stream corrupt: {exc}")
            return
        for _kind, payload in records:
            with self._lock:
                future = self._pending.popleft() if self._pending else None
            if future is not None and not future.done():
                future.set_result(bytes(payload))

    def _on_close(self, reason: str) -> None:
        self.closed = True
        while True:
            with self._lock:
                future = self._pending.popleft() if self._pending else None
            if future is None:
                break
            if not future.done():
                future.set_exception(NetworkError(f"streaming connection shed: {reason}"))

    def close(self) -> None:
        """Close the connection; unanswered uploads fail with NetworkError."""
        if self.closed:
            return
        self.closed = True
        self._net._close_session_threadsafe(self._session, "client closed")


class StreamingNetwork:
    """Asyncio streaming fabric, contract-compatible with the others.

    ``register``/``send`` keep the fabric contract (a
    :class:`~repro.net.server.ViewMapServer` constructs against it
    unchanged; ``send`` runs one envelope round-trip over a transient
    connection), and registration of a server's bound ``handle``
    automatically binds the zero-copy ``FRAME`` lane to that server's
    :meth:`~repro.net.server.ViewMapServer.ingest_frame_stream`.

    ``slo_p99_s`` arms SLO-steered shedding: the admission bound halves
    while the bound store's observed ``store.commit`` p99 exceeds it.
    """

    def __init__(
        self,
        workers: int = DEFAULT_WORKERS,
        *,
        metrics: MetricsRegistry | None = None,
        max_record_bytes: int = MAX_STREAM_PAYLOAD_BYTES,
        max_pending_bytes: int = DEFAULT_MAX_PENDING_BYTES,
        read_deadline_s: float = DEFAULT_READ_DEADLINE_S,
        admission_shards: int = DEFAULT_ADMISSION_SHARDS,
        admission_depth: int = DEFAULT_MAX_DEPTH,
        slo_p99_s: float = 0.0,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    ) -> None:
        if workers < 1:
            raise NetworkError("a streaming network needs at least one worker")
        self.workers = workers
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.max_record_bytes = max_record_bytes
        self.max_pending_bytes = max_pending_bytes
        self.read_deadline_s = read_deadline_s
        self.chunk_bytes = chunk_bytes
        self.slo_p99_s = slo_p99_s
        self.admission = AdmissionController(
            n_shards=admission_shards,
            max_depth=admission_depth,
            slo_p99_s=slo_p99_s,
            metrics=self.metrics,
        )
        self._endpoints: dict[str, Endpoint] = {}
        self._servers: dict[str, ViewMapServer] = {}
        self._sessions: set[_Session] = set()
        self._tcp_servers: list[asyncio.AbstractServer] = []
        self._lock = threading.RLock()
        self._closed = False
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-stream"
        )
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-stream-loop", daemon=True
        )
        self._thread.start()
        self._call_on_loop(self._start_watchdog)

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def _call_on_loop(self, fn: Callable, *args: Any) -> Any:
        """Run a sync callable on the loop thread and wait for it."""
        done: Future = Future()

        def runner() -> None:
            try:
                done.set_result(fn(*args))
            except BaseException as exc:
                done.set_exception(exc)

        self._loop.call_soon_threadsafe(runner)
        return done.result(60.0)

    # -- endpoint table ----------------------------------------------------

    def register(self, address: str, handler: Handler) -> Endpoint:
        """Attach a handler; a ViewMap server also binds the FRAME lane."""
        with self._lock:
            if address in self._endpoints:
                raise NetworkError(f"address already registered: {address}")
            endpoint = Endpoint(address=address, handler=handler)
            self._endpoints[address] = endpoint
            owner = getattr(handler, "__self__", None)
            if isinstance(owner, ViewMapServer):
                self.bind(address, owner)
            return endpoint

    def unregister(self, address: str) -> None:
        """Detach an endpoint (and its FRAME binding)."""
        with self._lock:
            self._endpoints.pop(address, None)
            self._servers.pop(address, None)

    def addresses(self) -> list[str]:
        """All registered addresses."""
        with self._lock:
            return sorted(self._endpoints)

    def bind(self, address: str, server: ViewMapServer) -> None:
        """Bind the zero-copy FRAME ingest lane at ``address``.

        Implicit when the server's own ``handle`` was registered; call
        explicitly only for wrapped handlers.  Arms SLO steering by
        wiring the admission controller to the bound store's observed
        commit p99.
        """
        with self._lock:
            self._servers[address] = server
        if self.slo_p99_s and self.admission.commit_p99 is None:
            registry = getattr(server.system.database, "metrics", None)
            if isinstance(registry, MetricsRegistry):
                hist = registry.histogram("store.commit.modeled_s")
                self.admission.commit_p99 = hist.p99

    # -- contract-compat delivery -----------------------------------------

    def send(self, source: str, destination: str, payload: bytes) -> bytes:
        """One buffered envelope round-trip (fabric-contract compatibility).

        Equivalent to a vehicle opening a connection, sending one MSG
        record, and hanging up — so serial-fabric callers (privacy
        probes, control-plane scripts) work against the streaming
        front-end unchanged.
        """
        conn = self.connect(destination)
        try:
            return conn.request_raw(payload)
        finally:
            conn.close()

    # -- in-memory connections ---------------------------------------------

    def connect(self, address: str, chunk_bytes: int | None = None) -> StreamConnection:
        """Open one modeled vehicle connection to ``address``."""
        if self._closed:
            raise NetworkError("network is closed")
        with self._lock:
            if address not in self._endpoints:
                raise NetworkError(f"no endpoint at {address}")
        return StreamConnection(
            self, address, chunk_bytes if chunk_bytes is not None else self.chunk_bytes
        )

    def _open_memory_session(
        self,
        address: str,
        deliver: Callable[[bytes], None],
        on_close: Callable[[str], None],
    ) -> _Session:
        async def write(data: bytes) -> None:
            deliver(data)

        def make() -> _Session:
            session = _Session(self, address, write, on_close)
            self._start_session(session)
            deliver(STREAM_MAGIC)  # the server's half of the handshake
            return session

        return self._call_on_loop(make)

    # -- TCP ---------------------------------------------------------------

    def listen(
        self, address: str, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Serve ``address`` over real TCP; returns the bound (host, port)."""
        if self._closed:
            raise NetworkError("network is closed")
        future = asyncio.run_coroutine_threadsafe(
            self._start_tcp(address, host, port), self._loop
        )
        return future.result(60.0)

    async def _start_tcp(self, address: str, host: str, port: int) -> tuple[str, int]:
        async def on_conn(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
            await self._serve_tcp_conn(address, reader, writer)

        server = await asyncio.start_server(on_conn, host, port)
        self._tcp_servers.append(server)
        sockname = server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def _serve_tcp_conn(
        self, address: str, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        async def write(data: bytes) -> None:
            writer.write(data)
            await writer.drain()

        def on_close(_reason: str) -> None:
            try:
                writer.close()
            except Exception:
                pass

        session = _Session(self, address, write, on_close)
        self._start_session(session)
        try:
            await write(STREAM_MAGIC)
            while not session.closed:
                data = await reader.read(65536)
                if not data:
                    break
                session.feed(data)
        except (ConnectionError, OSError):
            pass
        finally:
            self._close_session(session, "peer disconnected")

    # -- session lifecycle (loop thread) ------------------------------------

    def _start_session(self, session: _Session) -> None:
        self._sessions.add(session)
        self.metrics.inc("stream.conn.opened")
        self.metrics.set_gauge("stream.conn.open", float(len(self._sessions)))
        session.task = self._loop.create_task(self._process(session))

    def _close_session(self, session: _Session, reason: str) -> None:
        if session.closed:
            return
        session.closed = True
        self._sessions.discard(session)
        self.metrics.set_gauge("stream.conn.open", float(len(self._sessions)))
        if session.task is not None:
            session.task.cancel()
        session.on_close(reason)

    def _close_session_threadsafe(self, session: _Session, reason: str) -> None:
        self._loop.call_soon_threadsafe(self._close_session, session, reason)

    def _shed(self, session: _Session, reason: str) -> None:
        """Violation or overload: error the peer, count it, hang up."""
        if session.closed or session.shedding:
            return
        session.shedding = True
        self.metrics.inc("server.upload.shed")
        reply = pack_stream_record(
            STREAM_KIND_MSG, encode_message("error", reason=reason)
        )
        self._loop.create_task(self._finish_shed(session, reply, reason))

    async def _finish_shed(self, session: _Session, reply: bytes, reason: str) -> None:
        try:
            await session.write(reply)
        except Exception:
            pass
        self._close_session(session, reason)

    def _start_watchdog(self) -> None:
        self._watchdog = self._loop.create_task(self._watch_deadlines())

    async def _watch_deadlines(self) -> None:
        """Shed connections whose in-flight record outlived the deadline."""
        interval = max(0.01, min(0.5, self.read_deadline_s / 4))
        while True:
            await asyncio.sleep(interval)
            now = self._loop.time()
            for session in list(self._sessions):
                started = session.record_started_at
                if started is not None and now - started > self.read_deadline_s:
                    self._shed(
                        session,
                        f"read deadline: record incomplete after "
                        f"{self.read_deadline_s:g}s",
                    )

    # -- record processing ---------------------------------------------------

    async def _process(self, session: _Session) -> None:
        """Drain one connection's records strictly in order."""
        while True:
            kind, payload = await session.queue.get()
            try:
                if kind == STREAM_KIND_FRAME:
                    reply = await self._ingest(session, payload)
                else:
                    reply = await self._dispatch_msg(session, payload)
            except ReproError as exc:
                reply = encode_message("error", reason=str(exc))
            except Exception:
                # a crashed handler is answered in its slot: replies are
                # matched by position, so a missing one would strand
                # this request and every later one on the connection
                _log.exception("handler crashed on a stream record")
                self.metrics.inc("stream.handler.crashed")
                reply = encode_message("error", reason="internal error")
            session.queued_bytes -= len(payload)
            try:
                record = pack_stream_record(STREAM_KIND_MSG, reply)
            except WireFormatError as exc:
                # a reply over the record bound (a wide query_view) is
                # answered in its slot; the connection stays in order
                self.metrics.inc("stream.reply.oversize")
                record = pack_stream_record(
                    STREAM_KIND_MSG, encode_message("error", reason=str(exc))
                )
            try:
                await session.write(record)
            except (ConnectionError, OSError):
                self._close_session(session, "peer write failed")
                return

    async def _dispatch_msg(self, session: _Session, payload: memoryview) -> bytes:
        with self._lock:
            endpoint = self._endpoints.get(session.address)
        if endpoint is None:
            return encode_message("error", reason=f"no endpoint at {session.address}")
        # control envelopes are small; the zero-copy lane is FRAME's
        return await self._loop.run_in_executor(
            self._pool, endpoint.handler, bytes(payload)
        )

    async def _ingest(self, session: _Session, payload: memoryview) -> bytes:
        """Admit and ingest one FRAME record (the zero-copy hot lane)."""
        with self._lock:
            server = self._servers.get(session.address)
        if server is None:
            return encode_message(
                "error", reason=f"no streaming ingest bound at {session.address}"
            )
        shard = self.admission.shard_of(peek_frame_minute(payload))
        ticket = self.admission.try_admit(shard, len(payload))
        if ticket is None:
            return encode_message(
                "busy", retry_after=self.admission.retry_after(shard)
            )
        try:
            with stage_timer(self.metrics, "stream.ingest"):
                return await self._loop.run_in_executor(
                    self._pool, server.ingest_frame_stream, payload
                )
        finally:
            self.admission.release(ticket)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shed every connection, stop the loop, drain the handler pool."""
        if self._closed:
            return
        self._closed = True

        def shutdown() -> None:
            self._watchdog.cancel()
            for server in self._tcp_servers:
                server.close()
            for session in list(self._sessions):
                self._close_session(session, "network closed")

        try:
            self._call_on_loop(shutdown)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(10.0)
            self._pool.shutdown(wait=True)
            self._loop.close()

    def __enter__(self) -> "StreamingNetwork":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
