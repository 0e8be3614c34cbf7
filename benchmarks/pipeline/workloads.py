"""The four named workloads.

Each workload builds the system under test through its public
constructors only, from inputs that are a pure function of the seed,
and exposes the same five steps to the harness: ``setup`` (corpus,
construction, preload, one untimed warm-up), ``measure`` (tracing off),
``traced`` (a short serial pass, once untraced and once traced),
``finish`` (quiescent output checks, close, exact byte counts) and
``teardown`` (idempotent; reaps worker processes and event loops on
every exit path).  ``README.md`` says why each exists.
"""

from __future__ import annotations

import hashlib
import os
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from contextlib import nullcontext

import repro.core.system as core_system
from repro.core.system import ViewMapSystem
from repro.core.vehicle import VehicleAgent
from repro.errors import ReproError
from repro.geo.geometry import Point, Rect
from repro.net.client import VehicleClient
from repro.net.concurrency import ConcurrentViewMapServer, ThreadedNetwork
from repro.net.messages import (
    STREAM_HEADER_BYTES,
    STREAM_KIND_FRAME,
    STREAM_MAGIC,
    FrameParser,
    decode_message,
    encode_message,
    pack_stream_record,
    pack_vp_batch_frame,
    unpack_vp_batch_frame,
)
from repro.net.onion import OnionNetwork
from repro.net.streaming import DEFAULT_CHUNK_BYTES, StreamingNetwork
from repro.sim.stream import iter_minute_frames, stream_convoy_vps, stream_vp
from repro.store import RetentionPolicy, make_store
from repro.store.base import vp_claims_in_area
from repro.store.codec import (
    decode_vp_batch,
    encode_vp_batch,
    iter_encoded_meta,
    span_copy_count,
)
from repro.store.serving import QuerySpec
from repro.util.rng import derive_seed

from . import spec
from .trace import Tracer

#: how long a client waits for one reply before the op counts as failed
OP_TIMEOUT_S = 30.0
#: untimed warm-up ops of the closed single-client loops
WARMUP_OPS = 3
#: repetitions of each standalone layer timing (median kept)
STANDALONE_REPS = 5
#: closed single-client loops probe the machine's speed this often
PROBE_EVERY_OPS = 10
#: the open loop probes in idle gaps, at most this often
PROBE_GAP_S = 0.25
#: a corpus-bound loop gives up after this many times ``--seconds``
CLOCK_STOP = 1.5


def _median_time(fn, reps: int = STANDALONE_REPS) -> float:
    """Median wall seconds of ``fn()`` over ``reps`` calls."""
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2]


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _operation(tracer: Tracer | None, op: str):
    return tracer.operation(op) if tracer is not None else nullcontext()


def _frame_count(frame: bytes) -> int:
    """Record count in a codec batch frame's header."""
    return int.from_bytes(frame[1:5], "big")


def _frame_ids(frame: bytes) -> list[tuple[bytes, int]]:
    return [(bytes(meta[0]), meta[1]) for meta, _s, _e in iter_encoded_meta(frame)]


class Workload:
    """State and bookkeeping shared by the four workloads."""

    name = ""

    def __init__(
        self,
        seed: int,
        seconds: float,
        scale: spec.Scale,
        workdir: str,
        trace: bool = False,
        backend: str | None = None,
        transport: str | None = None,
    ) -> None:
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.workdir = workdir
        self.trace = trace
        self.backend = backend
        self.transport = transport
        #: measured-phase ops: [class, latency_s, ok, t_end, VPs moved]
        self.ops: list[list] = []
        #: serial untraced / traced pass ops, same shape
        self.serial_ops: dict[str, list[list]] = {"untraced": [], "traced": []}
        #: exact counts (bytes, VPs) and harness-side gauges
        self.counts: dict[str, float] = {}
        #: standalone layer timings, seconds
        self.standalone: dict[str, float] = {}
        #: registry snapshots of the program's own metrics plane
        self.registries: dict[str, dict] = {}
        #: output-check failures; any entry fails the run
        self.failures: list[str] = []
        #: machine-speed probes of the measured phase, seconds each
        self.probes: list[float] = []
        self._inputs = hashlib.sha256()
        #: digest of the generated inputs, sealed by the end of set-up
        self.inputs_sha256 = ""
        self.gen_s = 0.0
        self.gen_vps = 0

    # -- shared helpers ----------------------------------------------------

    def _store(self, default_kind: str, name: str):
        """The workload's store, or the ``--backend`` override."""
        kind = self.backend or default_kind
        path = "" if kind in ("memory", "sharded") else os.path.join(self.workdir, name)
        return make_store(
            kind,
            path=path,
            n_shards=spec.NPROC,
            ingest_workers=spec.STREAM_INGEST_WORKERS,
            shard_cells=spec.STREAM_SHARD_CELLS,
        )

    def _stored_bytes(self, name: str) -> int:
        """Bytes of every file the named store left behind (db + WAL)."""
        total = 0
        for entry in os.listdir(self.workdir):
            if entry.startswith(name):
                total += os.path.getsize(os.path.join(self.workdir, entry))
        return total

    def _gen(self, minute: int, vehicle: int, city_m: float):
        """One seed-derived VP; its id feeds the inputs digest."""
        start = time.perf_counter()
        vp = stream_vp(self.seed, minute, vehicle, city_m)
        self.gen_s += time.perf_counter() - start
        self.gen_vps += 1
        self._inputs.update(vp.vp_id)
        return vp

    def probe(self) -> None:
        """Time a fixed CPU kernel between ops (``loadgen.speed_factor``).

        The container shares its cores: for minutes at a time every
        instruction runs up to ~1.9x slower.  The probe says whether a
        run's wall clock is the program's or the neighbour's; no
        metric is scaled by it.
        """
        start = time.perf_counter()
        digest = b"probe"
        for _ in range(spec.PROBE_HASHES):
            digest = hashlib.sha256(digest).digest()
        self.probes.append(time.perf_counter() - start)

    def seal_inputs(self) -> None:
        """Fix ``inputs_sha256``; what is generated later is not in it."""
        if not self.inputs_sha256:
            self.inputs_sha256 = self._inputs.hexdigest()

    def fail(self, message: str) -> None:
        self.failures.append(message)

    # -- steps (overridden) --------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self) -> None:
        raise NotImplementedError

    def traced(self, tracer: Tracer) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError


def _rewrap_handler(tracer: Tracer, net, server) -> None:
    """Time ``server.handle`` where the fabric actually calls it.

    The fabric captured the bound method at registration, so the
    endpoint is re-registered (public API) with the timed handler and
    put back on restore.  A streaming fabric loses its FRAME binding
    when the handler is no longer a bound server method; ``bind``
    restores it.
    """
    timed = tracer.timed("net.server.handle", server.handle)

    def swap(handler) -> None:
        net.unregister(server.address)
        net.register(server.address, handler)
        if isinstance(net, StreamingNetwork):
            net.bind(server.address, server)

    swap(timed)
    tracer.on_restore(lambda: swap(server.handle))


def _wrap_write_path(tracer: Tracer, system: ViewMapSystem) -> None:
    """Spans on the ingest calls below the server handler."""
    tracer.wrap(system, "ingest_encoded", "core.system.ingest_encoded")
    tracer.wrap(system, "advance_retention", "core.system.advance_retention")
    tracer.wrap(system.database, "existing_ids", "store.write.existing_ids")
    tracer.wrap(system.database, "insert_encoded", "store.write.insert_encoded")


# -- onion_upload ------------------------------------------------------------


class OnionUpload(Workload):
    """Closed loop, one vehicle: 4-VP frame batches over fresh 3-hop circuits."""

    name = "onion_upload"
    BATCH_VPS = 4
    CITY_M = 6000.0

    def setup(self) -> None:
        measured = max(4, int(self.seconds * spec.ONION_UPLOADS_PER_S))
        self.measured_end = WARMUP_OPS + measured
        # the serial passes of a traced run upload further batches; the
        # digest names the inputs both kinds of run share
        extra = 2 * self.scale.onion_traced_ops + 1 if self.trace else 0
        self.batches = []
        for u in range(self.measured_end + extra):
            if u == self.measured_end:
                self.seal_inputs()
            self.batches.append(
                [
                    self._gen(u % 4, self.BATCH_VPS * u + k, self.CITY_M)
                    for k in range(self.BATCH_VPS)
                ]
            )
        self.cursor = 0
        self.uploaded: list[list] = []
        self.net = ThreadedNetwork(workers=spec.NPROC)
        self.system = ViewMapSystem(
            key_bits=spec.KEY_BITS, seed=self.seed, store=self._store("memory", "onion")
        )
        self.server = ConcurrentViewMapServer(system=self.system, network=self.net)
        self.onion = OnionNetwork(network=self.net, seed=self.seed)
        self.client = VehicleClient(
            agent=VehicleAgent(vehicle_id=0, seed=self.seed),
            onion=self.onion,
            wire_codec="frame",
        )
        # warm-up; a full-accept ack is the same bytes every time, so
        # its size is read once here and the measured phase runs bare
        ack_sizes: list[int] = []
        send = self.onion.anonymous_send

        def sized_send(*args, **kwargs):
            reply = send(*args, **kwargs)
            ack_sizes.append(len(reply))
            return reply

        self.onion.anonymous_send = sized_send
        try:
            for _ in range(WARMUP_OPS):
                if not self._upload(None)[2]:
                    self.fail("warm-up upload was not fully accepted")
        finally:
            del self.onion.anonymous_send
        self.ack_bytes = ack_sizes[-1] if ack_sizes else 0

    def _upload(self, tracer: Tracer | None) -> list:
        batch = self.batches[self.cursor]
        self.cursor += 1
        self.client.queue_minute_output(batch[0], batch[1:])
        start = time.perf_counter()
        try:
            with _span(tracer, "net.client.upload"):
                landed = self.client.upload_pending_batch()
        except ReproError:
            landed = -1
        end = time.perf_counter()
        ok = landed == len(batch)
        if ok:
            self.uploaded.append(batch)
        return ["upload", end - start, ok, end, len(batch) if ok else 0]

    def measure(self) -> None:
        log_start = len(self.net.delivery_log)
        # the corpus ends the loop, so memory and exact counts do not follow
        # the machine's speed; the clock only stops a run on a stalled host
        deadline = time.perf_counter() + CLOCK_STOP * self.seconds
        while self.cursor < self.measured_end and time.perf_counter() < deadline:
            if len(self.ops) % PROBE_EVERY_OPS == 0:
                self.probe()
            self.ops.append(self._upload(None))
        sent = self.net.delivery_log[log_start:]
        accepted = sum(1 for op in self.ops if op[2])
        self.counts["wire_bytes"] = (
            sum(size for source, _dest, size in sent if source == "client")
            + accepted * self.ack_bytes
        )
        self.counts["fabric_bytes"] = sum(size for _s, _d, size in sent)
        self.counts["accepted_vps"] = accepted * self.BATCH_VPS

    def traced(self, tracer: Tracer) -> None:
        n = self.scale.onion_traced_ops
        for _ in range(n):
            self.serial_ops["untraced"].append(self._upload(None))
        tracer.wrap(self.onion, "build_circuit", "net.onion.build_circuit")
        tracer.wrap(self.onion, "anonymous_send", "net.onion.anonymous_send")
        _rewrap_handler(tracer, self.net, self.server)
        _wrap_write_path(tracer, self.system)
        try:
            for i in range(n):
                with _operation(tracer, f"upload:{i}"):
                    self.serial_ops["traced"].append(self._upload(tracer))
        finally:
            tracer.restore()
        # standalone: the same functions on the same bytes
        fresh = self.batches[self.cursor]
        self.cursor += 1
        start = time.perf_counter()
        frame = pack_vp_batch_frame(fresh)  # first encode of these VPs: unmemoized
        self.standalone["net.client.pack_frame"] = time.perf_counter() - start
        circuit = self.onion.build_circuit()
        payload = encode_message("upload_vp_batch", session=circuit.session_id, frame=frame)
        ack = encode_message("batch_ack", accepted=[True] * len(fresh), inserted=len(fresh))
        wrapped = circuit.wrap(self.server.address, payload)
        self.standalone.update(
            {
                "net.messages.encode_envelope": _median_time(
                    lambda: encode_message(
                        "upload_vp_batch", session=circuit.session_id, frame=frame
                    )
                ),
                "net.messages.decode_envelope": _median_time(lambda: decode_message(payload)),
                "net.client.reply_decode": _median_time(lambda: decode_message(ack)),
                "net.messages.frame_validate": _median_time(
                    lambda: unpack_vp_batch_frame(frame)
                ),
                "net.onion.wrap": _median_time(
                    lambda: circuit.wrap(self.server.address, payload)
                ),
                "net.onion.unwrap": _median_time(lambda: circuit.unwrap_reply(wrapped)),
                "net.onion.unwrap_ack": _median_time(lambda: circuit.unwrap_reply(ack)),
            }
        )
        self.counts["frame_vps"] = len(fresh)

    def finish(self) -> None:
        store = self.system.database.store
        stored = {vp_id for vp_id, _minute in store.iter_id_minutes()}
        expected = {vp.vp_id for batch in self.uploaded for vp in batch}
        if stored != expected:
            self.fail(
                f"stored ids differ from uploaded ids "
                f"({len(stored)} stored, {len(expected)} uploaded)"
            )
        # a replayed batch must be rejected VP by VP, not accepted or errored
        replay = self.uploaded[0] if self.uploaded else self.batches[0]
        self.client.queue_minute_output(replay[0], replay[1:])
        try:
            if self.client.upload_pending_batch() != 0:
                self.fail("a replayed batch was accepted")
        except ReproError as exc:
            self.fail(f"a replayed batch errored instead of a per-VP reject: {exc}")
        self.counts["stored_vps"] = len(stored)
        self.registries = {
            "net": self.net.metrics.snapshot(),
            "server": self.server.metrics.snapshot(),
            "client": self.client.metrics.snapshot(),
            "store": store.stats().detail.get("metrics") or {},
        }
        self.teardown()
        # 0 on the memory store; an ad-hoc --backend leaves files
        self.counts["stored_bytes"] = self._stored_bytes("onion")

    def teardown(self) -> None:
        net = getattr(self, "net", None)
        if net is not None:
            net.close()
        system = getattr(self, "system", None)
        if system is not None:
            system.close()


# -- ingest_stream -----------------------------------------------------------


class IngestStream(Workload):
    """Closed loop, NPROC held connections: fleet bursts, fresh store per round."""

    name = "ingest_stream"

    def setup(self) -> None:
        start = time.perf_counter()
        frames = list(
            iter_minute_frames(
                self.scale.stream_vehicles,
                spec.STREAM_MINUTES,
                seed=self.seed,
                area_m=spec.SERVE_CITY_M,
                batch_vps=spec.STREAM_BATCH_VPS,
            )
        )
        self.gen_s = time.perf_counter() - start
        self.frames = [mf.frame for mf in frames]
        self.gen_vps = sum(mf.n_vps for mf in frames)
        for frame in self.frames:
            self._inputs.update(frame)
        first_kept = spec.STREAM_MINUTES - spec.STREAM_WINDOW_MINUTES
        #: what every round must end up storing: the retained window
        self.retained = {
            vp_id
            for mf in frames
            if mf.minute >= first_kept
            for vp_id, _minute in _frame_ids(mf.frame)
        }
        self.round_no = 0
        self.rounds: list[dict] = []
        self._live: list = []  # store and network of a round in progress
        self._round(None, spec.NPROC)  # warm-up, discarded

    def _send_fn(self, net, server):
        """One client's blocking ``frame -> (request bytes, raw reply)``."""
        if isinstance(net, StreamingNetwork):
            conn = net.connect(server.address)

            def send(frame: bytes) -> tuple[int, bytes]:
                raw = conn.upload_frame_async(frame).result(OP_TIMEOUT_S)
                return STREAM_HEADER_BYTES + len(frame), raw

            return send, len(STREAM_MAGIC)

        def send_threaded(frame: bytes) -> tuple[int, bytes]:
            payload = encode_message("upload_vp_batch", session="stream", frame=frame)
            return len(payload), net.send("vehicle", server.address, payload)

        return send_threaded, 0

    def _round(self, tracer: Tracer | None, clients: int) -> dict:
        """One fleet burst through a fresh store and network."""
        tag = f"round{self.round_no}"
        self.round_no += 1
        with _span(tracer, "store.workers.spawn"):
            store = self._store("procs", tag)
        system = ViewMapSystem(
            key_bits=spec.KEY_BITS,
            seed=self.seed,
            store=store,
            retention=RetentionPolicy(window_minutes=spec.STREAM_WINDOW_MINUTES),
        )
        self._live.append(store)
        if self.transport == "threaded":
            net = ThreadedNetwork(workers=spec.NPROC)
        else:
            net = StreamingNetwork(workers=spec.NPROC)
        self._live.append(net)
        server = ConcurrentViewMapServer(system=system, network=net)
        peak = {"depth": 0, "pending_bytes": 0}
        if self.trace and isinstance(net, StreamingNetwork):
            # the program's admission gauges keep the last value only; a
            # traced run reads the controller's public state at each admit
            admission, admit = net.admission, net.admission.try_admit

            def watched_admit(shard: int, nbytes: int):
                ticket = admit(shard, nbytes)
                if ticket is not None:
                    peak["depth"] = max(peak["depth"], admission.depth(shard))
                    peak["pending_bytes"] = max(
                        peak["pending_bytes"], admission.pending_bytes()
                    )
                return ticket

            admission.try_admit = watched_admit
        if tracer is not None:
            if isinstance(net, StreamingNetwork):
                tracer.wrap(net.admission, "try_admit", "obs.admission.try_admit")
                tracer.wrap(net.admission, "release", "obs.admission.release")
                tracer.wrap(server, "ingest_frame_stream", "net.server.handle")
            else:
                _rewrap_handler(tracer, net, server)
            _wrap_write_path(tracer, system)
        copies_before = span_copy_count()
        ops: list[list] = []
        wire = [0]
        vps = [0]
        lock = threading.Lock()
        cursor = [0]

        def pump(send) -> None:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(self.frames):
                    return
                frame = self.frames[index]
                with _operation(tracer, f"upload:{index}"):
                    start = time.perf_counter()
                    try:
                        with _span(tracer, "net.streaming.upload"):
                            sent, raw = send(frame)
                        with _span(tracer, "net.client.reply_decode"):
                            reply = decode_message(raw)
                        ok = reply.get("kind") == "batch_ack" and reply["accepted"] == [
                            True
                        ] * _frame_count(frame)
                    except (ReproError, FutureTimeout):
                        sent, raw, ok = 0, b"", False
                    end = time.perf_counter()
                moved = _frame_count(frame) if ok else 0
                with lock:
                    ops.append(["upload", end - start, ok, end, moved])
                    wire[0] += sent + len(raw) + STREAM_HEADER_BYTES
                    vps[0] += moved

        try:
            started = time.perf_counter()
            senders = []
            for _ in range(clients):
                with _span(tracer, "net.streaming.connect"):
                    send, handshake = self._send_fn(net, server)
                senders.append(send)
                wire[0] += 2 * handshake
            with ThreadPoolExecutor(max_workers=clients) as pool:
                for future in [pool.submit(pump, send) for send in senders]:
                    future.result()
            acked = time.perf_counter()
            stored = {vp_id for vp_id, _minute in store.iter_id_minutes()}
            stats = store.stats()
            net_snapshot = net.metrics.snapshot()
            server_snapshot = server.metrics.snapshot()
            closing = time.perf_counter()
            with _span(tracer, "store.write.flush_close"):
                net.close()
                system.close()
            closed = time.perf_counter()
        finally:
            if tracer is not None:
                tracer.restore()
            net.close()
            system.close()
            self._live.clear()
        stored_bytes = self._stored_bytes(tag)
        for entry in os.listdir(self.workdir):
            if entry.startswith(tag):
                os.remove(os.path.join(self.workdir, entry))
        accepted = vps[0]
        copies = span_copy_count() - copies_before
        if stored != self.retained:
            self.fail(
                f"{tag}: stored ids are not the retained window "
                f"({len(stored)} stored, {len(self.retained)} expected)"
            )
        shed = (net_snapshot.get("server.upload.shed") or {}).get("value", 0)
        if shed:
            self.fail(f"{tag}: {shed} uploads were shed")
        if copies > accepted:
            # the router may regroup a frame that straddles shards (one
            # declared copy per VP); anything beyond that is a transport copy
            self.fail(f"{tag}: {copies} span copies for {accepted} VPs")
        return {
            "ops": ops,
            "vps": accepted,
            "wall_s": (acked - started) + (closed - closing),
            "flush_close_s": closed - closing,
            "wire_bytes": wire[0],
            "stored_vps": len(stored),
            "stored_bytes": stored_bytes,
            "span_copies": copies,
            "shed": shed,
            "admission_peak": peak,
            "shard_load": stats.detail.get("shard_load") or {},
            "backend": stats.backend,
            "registries": {
                "net": net_snapshot,
                "server": server_snapshot,
                "store": stats.detail.get("metrics") or {},
            },
        }

    def measure(self) -> None:
        deadline = time.perf_counter() + self.seconds
        while len(self.rounds) < spec.STREAM_MIN_ROUNDS or (
            len(self.rounds) < spec.STREAM_MAX_ROUNDS and time.perf_counter() < deadline
        ):
            self.probe()
            self.rounds.append(self._round(None, spec.NPROC))
        for rnd in self.rounds:
            self.ops.extend(rnd.pop("ops"))
        last = self.rounds[-1]
        self.registries = last["registries"]
        self.counts["wire_bytes"] = sum(r["wire_bytes"] for r in self.rounds)
        self.counts["accepted_vps"] = sum(r["vps"] for r in self.rounds)
        self.counts["stored_vps"] = sum(r["stored_vps"] for r in self.rounds)
        self.counts["stored_bytes"] = sum(r["stored_bytes"] for r in self.rounds)
        self.counts["file_bytes"] = last["stored_bytes"]
        self.counts["span_copies"] = sum(r["span_copies"] for r in self.rounds)
        self.counts["shed"] = sum(r["shed"] for r in self.rounds)
        for key in ("depth", "pending_bytes"):
            self.counts[f"admission_{key}_max"] = max(
                r["admission_peak"][key] for r in self.rounds
            )
        self.counts["shard_load_skew"] = last["shard_load"].get("imbalance", 0.0)

    def traced(self, tracer: Tracer) -> None:
        self.serial_ops["untraced"] = self._round(None, 1).pop("ops")
        rnd = self._round(tracer, 1)
        self.serial_ops["traced"] = rnd.pop("ops")
        self.traced_registries = rnd["registries"]
        # standalone: parser and wire validation on the same bytes
        records = [pack_stream_record(STREAM_KIND_FRAME, frame) for frame in self.frames]
        chunk = DEFAULT_CHUNK_BYTES

        def feed_all() -> None:
            parser = FrameParser(require_handshake=False)
            for record in records:
                for offset in range(0, len(record), chunk):
                    parser.feed(record[offset : offset + chunk])

        def validate_all() -> None:
            for frame in self.frames:
                unpack_vp_batch_frame(frame)

        n = len(self.frames)
        self.standalone["net.messages.parser_feed"] = _median_time(feed_all, 3) / n
        self.standalone["net.messages.frame_validate"] = _median_time(validate_all, 3) / n
        self.counts["chunks_per_frame"] = sum(-(-len(r) // chunk) for r in records) / n
        self.counts["frame_vps"] = _frame_count(self.frames[0])

    def finish(self) -> None:
        self.teardown()

    def teardown(self) -> None:
        for resource in reversed(getattr(self, "_live", [])):
            resource.close()
        self._live = []


# -- serve_mixed -------------------------------------------------------------


class ServeMixed(Workload):
    """Open loop: Poisson uploads and three query classes on one SQLite store."""

    name = "serve_mixed"

    def _upload_payload(self, index: int) -> tuple[bytes, list]:
        """The ``index``-th upload envelope and the VPs it carries."""
        per = self.scale.serve_upload_vps
        base = self.scale.serve_preload_per_minute + index * per
        minute = index % spec.SERVE_MINUTES
        vps = [self._gen(minute, base + k, spec.SERVE_CITY_M) for k in range(per)]
        payload = encode_message(
            "upload_vp_batch", session=f"v{index}", frame=pack_vp_batch_frame(vps)
        )
        return payload, vps

    def _query_payload(self, cls: str, rng: random.Random) -> tuple[bytes, int, Rect | None]:
        minute = rng.randrange(spec.SERVE_MINUTES)
        if cls == "hot":
            x = rng.uniform(0.0, spec.SERVE_CITY_M - spec.SERVE_HOT_CELL_M)
            y = rng.uniform(0.0, spec.SERVE_CITY_M - spec.SERVE_HOT_CELL_M)
            area = Rect(x, y, x + spec.SERVE_HOT_CELL_M, y + spec.SERVE_HOT_CELL_M)
        elif cls == "cold":
            area = Rect(*spec.SERVE_COLD_AREA)
        else:
            area = None
        fields = {"minute": minute, "encoded": True}
        if area is not None:
            fields["area"] = [area.x_min, area.y_min, area.x_max, area.y_max]
        return encode_message("query_view", session="analyst", **fields), minute, area

    def _events(self, rates, seconds: float, rng: random.Random, uploads_from: int) -> list:
        """A seeded open-loop schedule: ``[due_s, class, payload, vps]`` by due time.

        Each class gets exactly ``rate * seconds`` arrivals at uniform
        random instants — a Poisson process conditioned on its count —
        so the op mix is the same on every seed and only the instants
        and the payloads vary.
        """
        times = [
            (rng.uniform(0.0, seconds), cls)
            for cls, rate in rates
            for _ in range(max(1, round(rate * seconds)))
        ]
        times.sort()
        events = []
        uploads = uploads_from
        for due, cls in times:
            if cls == "upload":
                payload, vps = self._upload_payload(uploads)
                uploads += 1
            else:
                payload, vps = self._query_payload(cls, rng)[0], None
            events.append([due, cls, payload, vps])
        self.next_upload = uploads
        return events

    def setup(self) -> None:
        rng = random.Random(derive_seed(self.seed, "serve-schedule"))
        self.rng = rng
        #: every VP the store should hold at quiescence, by id
        self.reference: dict[bytes, object] = {}
        preload = [
            [
                self._gen(minute, v, spec.SERVE_CITY_M)
                for v in range(self.scale.serve_preload_per_minute)
            ]
            for minute in range(spec.SERVE_MINUTES)
        ]
        self.events = self._events(self.scale.serve_rates, self.seconds, rng, uploads_from=1)
        self.net = ThreadedNetwork(workers=spec.NPROC)
        self.system = ViewMapSystem(
            key_bits=spec.KEY_BITS, seed=self.seed, store=self._store("sqlite", "serve")
        )
        self.server = ConcurrentViewMapServer(system=self.system, network=self.net)
        for vps in preload:
            self.system.ingest_vps(vps)
            self.reference.update((vp.vp_id, vp) for vp in vps)
        # warm-up: one op of every class (upload 0 is reserved for it)
        payload, vps = self._upload_payload(0)
        for cls in ("upload", "hot", "cold", "sweep"):
            if cls != "upload":
                payload, vps = self._query_payload(cls, rng)[0], None
            if not self._serial_op(None, cls, payload, vps)[2]:
                self.fail(f"warm-up {cls} op failed")

    def _judge(self, cls: str, reply: dict, vps) -> bool:
        """Is this decoded reply the right answer to its request?"""
        if cls == "upload":
            return reply.get("kind") == "batch_ack" and reply["accepted"] == [True] * len(vps)
        return reply.get("kind") == "view" and reply["n"] == _frame_count(reply["frame"])

    def _serial_op(self, tracer: Tracer | None, cls: str, payload: bytes, vps) -> list:
        start = time.perf_counter()
        try:
            with _span(tracer, "net.concurrency.deliver"):
                raw = self.net.send("client", self.server.address, payload)
            with _span(tracer, "net.messages.decode_envelope"):
                reply = decode_message(raw)
            ok = self._judge(cls, reply, vps)
        except ReproError:
            raw, ok = b"", False
        end = time.perf_counter()
        if ok and vps:
            self.reference.update((vp.vp_id, vp) for vp in vps)
        return [cls, end - start, ok, end, len(vps or ()), len(payload), len(raw)]

    def measure(self) -> None:
        results: list[list] = []
        lags: list[float] = []

        def complete(future, cls, due, vps, sent_bytes) -> None:
            # runs on the fabric worker that produced the reply; the
            # future (and its reply bytes) is dropped when this returns
            try:
                raw = future.result()
                ok = self._judge(cls, decode_message(raw), vps)
            except ReproError:
                raw, ok = b"", False
            end = time.perf_counter()
            moved = len(vps) if ok and vps else 0
            results.append([cls, end - due, ok, end, moved, sent_bytes, len(raw), vps])

        self.probe()
        probed = origin = time.perf_counter() + 0.01
        for due_s, cls, payload, vps in self.events:
            due = origin + due_s
            # the generator is idle between arrivals: probe then, never late
            now = time.perf_counter()
            if due - now > 4 * self.probes[-1] and now - probed > PROBE_GAP_S:
                self.probe()
                probed = now
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lags.append(time.perf_counter() - due)
            self.net.send_async("client", self.server.address, payload).add_done_callback(
                lambda f, cls=cls, due=due, vps=vps, n=len(payload): complete(
                    f, cls, due, vps, n
                )
            )
        deadline = time.perf_counter() + OP_TIMEOUT_S
        while len(results) < len(self.events) and time.perf_counter() < deadline:
            time.sleep(0.001)
        lost = len(self.events) - len(results)
        if lost:
            self.fail(f"{lost} ops never completed")
        wire = accepted = 0
        for cls, latency, ok, end, moved, sent_bytes, reply_bytes, vps in results:
            self.ops.append([cls, latency, ok, end, moved])
            if cls == "upload" and ok:
                wire += sent_bytes + reply_bytes
                accepted += moved
                self.reference.update((vp.vp_id, vp) for vp in vps)
        self.ops.extend(["upload", OP_TIMEOUT_S, False, deadline, 0] for _ in range(lost))
        self.lags = lags
        self.counts["wire_bytes"] = wire
        self.counts["accepted_vps"] = accepted

    def traced(self, tracer: Tracer) -> None:
        rng = self.rng
        plans = {}
        for phase in ("untraced", "traced"):
            ops = []
            for cls, count in self.scale.serve_traced_ops:
                for _ in range(count):
                    if cls == "upload":
                        ops.append((cls, *self._upload_payload(self.next_upload)))
                        self.next_upload += 1
                    else:
                        ops.append((cls, self._query_payload(cls, rng)[0], None))
            rng.shuffle(ops)
            plans[phase] = ops
        for cls, payload, vps in plans["untraced"]:
            self.serial_ops["untraced"].append(self._serial_op(None, cls, payload, vps)[:5])
        _rewrap_handler(tracer, self.net, self.server)
        _wrap_write_path(tracer, self.system)
        tracer.wrap(self.system.database, "query", "store.serving.query")
        reply_bytes = []
        reply_encode_s = 0.0
        try:
            for i, (cls, payload, vps) in enumerate(plans["traced"]):
                with _operation(tracer, f"{cls}:{i}"):
                    op = self._serial_op(tracer, cls, payload, vps)
                self.serial_ops["traced"].append(op[:5])
                if cls != "upload":
                    reply_bytes.append(op[6])
                    reply_encode_s += self._reply_encode_s(payload)
        finally:
            tracer.restore()
        self.counts["reply_bytes_per_query"] = sum(reply_bytes) / max(1, len(reply_bytes))
        self.standalone["net.messages.encode_replies_total"] = reply_encode_s
        frame = pack_vp_batch_frame(next(vps for _c, _p, vps in plans["traced"] if vps))
        payload = encode_message("upload_vp_batch", session="s", frame=frame)
        self.standalone.update(
            {
                "net.messages.encode_envelope": _median_time(
                    lambda: encode_message("upload_vp_batch", session="s", frame=frame)
                ),
                "net.messages.decode_envelope": _median_time(lambda: decode_message(payload)),
                "net.messages.frame_validate": _median_time(
                    lambda: unpack_vp_batch_frame(frame)
                ),
            }
        )
        self.counts["frame_vps"] = _frame_count(frame)

    def _reply_encode_s(self, payload: bytes) -> float:
        """Standalone: what hex-enveloping this query's reply costs the handler."""
        reply = decode_message(self.net.send("client", self.server.address, payload))
        start = time.perf_counter()
        encode_message("view", frame=reply["frame"], n=reply["n"])
        return time.perf_counter() - start

    def _check_query(self, cls: str) -> None:
        """At quiescence a query must equal the reference selection."""
        payload, minute, area = self._query_payload(cls, self.rng)
        reply = decode_message(self.net.send("client", self.server.address, payload))
        got = {vp.vp_id for vp in decode_vp_batch(reply["frame"])}
        want = {
            vp_id
            for vp_id, vp in self.reference.items()
            if vp.minute == minute and (area is None or vp_claims_in_area(vp, area))
        }
        if got != want:
            self.fail(
                f"quiescent {cls} query returned {len(got)} VPs, reference has {len(want)}"
            )

    def finish(self) -> None:
        for cls in spec.QUERY_CLASSES:
            self._check_query(cls)
        store = self.system.database.store
        stats = store.stats()
        self.counts["stored_vps"] = stats.vps
        if stats.vps != len(self.reference):
            self.fail(f"{stats.vps} VPs stored, {len(self.reference)} accepted")
        tiles = stats.detail.get("tile_cache") or {}
        self.counts["tile_hits"] = tiles.get("hits", 0)
        self.counts["tile_misses"] = tiles.get("misses", 0)
        self.registries = {
            "net": self.net.metrics.snapshot(),
            "server": self.server.metrics.snapshot(),
            "store": stats.detail.get("metrics") or {},
        }
        start = time.perf_counter()
        self.teardown()
        self.counts["flush_close_s"] = time.perf_counter() - start
        self.counts["stored_bytes"] = self._stored_bytes("serve")

    def teardown(self) -> None:
        net = getattr(self, "net", None)
        if net is not None:
            net.close()
        system = getattr(self, "system", None)
        if system is not None:
            system.close()


# -- investigate -------------------------------------------------------------


class Investigate(Workload):
    """Closed loop, one investigator: verified viewmaps, no network."""

    name = "investigate"

    def setup(self) -> None:
        sc = self.scale
        city = sc.inv_city_m
        # sites on a grid, each far enough from the edge for its convoy
        per_side = max(1, int(sc.inv_sites**0.5 + 0.999))
        step = city / per_side
        self.sites = [
            (step * (i % per_side + 0.5), step * (i // per_side + 0.5) - 200.0)
            for i in range(sc.inv_sites)
        ]
        self.system = ViewMapSystem(
            key_bits=spec.KEY_BITS, seed=self.seed, store=self._store("sqlite", "investigate")
        )
        #: (site index, minute) -> ids of that site's convoy that minute
        self.convoys: dict[tuple[int, int], set[bytes]] = {}
        for minute in range(spec.INV_MINUTES):
            self.system.ingest_vps(
                [self._gen(minute, v, city) for v in range(sc.inv_background_per_minute)]
            )
            for index, site in enumerate(self.sites):
                start = time.perf_counter()
                trusted, witnesses = stream_convoy_vps(
                    derive_seed(self.seed, "site", index), minute, sc.inv_witnesses, site
                )
                self.gen_s += time.perf_counter() - start
                self.gen_vps += 1 + len(witnesses)
                self.system.ingest_trusted_vp(trusted)
                self.system.ingest_vps(witnesses)
                members = {vp.vp_id for vp in witnesses} | {trusted.vp_id}
                for vp_id in sorted(members):
                    self._inputs.update(vp_id)
                self.convoys[(index, minute)] = members
        self.cycle = [
            (index, minute)
            for index in range(len(self.sites))
            for minute in range(spec.INV_MINUTES)
        ]
        self.cursor = 0
        #: first answer per (site, minute); every later cycle must repeat it
        self.answers: dict[tuple[int, int], list[bytes]] = {}
        self.graph_sizes: list[tuple[int, int, int]] = []
        if not self._investigate(None)[2]:
            self.fail("warm-up investigation failed")

    def _investigate(self, tracer: Tracer | None) -> list:
        key = self.cycle[self.cursor % len(self.cycle)]
        self.cursor += 1
        site = Point(*self.sites[key[0]])
        start = time.perf_counter()
        try:
            with _span(tracer, "core.system.investigate"):
                found = self.system.investigate_period(site, [key[1]])
        except ReproError:
            found = []
        end = time.perf_counter()
        ok = len(found) == 1 and bool(found[0].solicited)
        nodes = found[0].viewmap.node_count if found else 0
        if ok:
            solicited = found[0].solicited
            ok = set(solicited) <= self.convoys[key] and solicited == self.answers.setdefault(
                key, solicited
            )
            self.graph_sizes.append(
                (
                    found[0].viewmap.node_count,
                    found[0].viewmap.edge_count,
                    len(found[0].verification.legitimate),
                )
            )
        return ["investigate", end - start, ok, end, nodes]

    def measure(self) -> None:
        deadline = time.perf_counter() + self.seconds
        while len(self.ops) < 3 or time.perf_counter() < deadline:
            self.probe()
            self.ops.append(self._investigate(None))

    def traced(self, tracer: Tracer) -> None:
        n = len(self.cycle)
        self.cursor = 0
        for _ in range(n):
            self.serial_ops["untraced"].append(self._investigate(None))
        self.cursor = 0
        tracer.wrap(self.system.database, "query", "store.sqlite.query_objects")
        tracer.wrap(core_system, "build_viewmap", "core.viewmap.build")
        tracer.wrap(core_system, "verify_viewmap", "core.verification.verify")
        try:
            for i in range(n):
                with _operation(tracer, f"investigate:{i}"):
                    self.serial_ops["traced"].append(self._investigate(tracer))
        finally:
            tracer.restore()
        # standalone: the codec on one minute's stored bytes
        frame = self.system.database.query_encoded(QuerySpec(minute=0))
        vps = decode_vp_batch(frame)
        self.standalone["store.codec.decode_vp"] = _median_time(
            lambda: decode_vp_batch(frame), 3
        ) / len(vps)
        start = time.perf_counter()
        encode_vp_batch(vps)  # freshly decoded VPs: blobs not memoized
        self.standalone["store.codec.encode_vp"] = (time.perf_counter() - start) / len(vps)

    def finish(self) -> None:
        store = self.system.database.store
        stats = store.stats()
        self.counts["stored_vps"] = stats.vps
        cache = stats.detail.get("decode_cache") or {}
        self.counts["decode_cache_hits"] = cache.get("hits", 0)
        self.counts["decode_cache_misses"] = cache.get("misses", 0)
        if len(self.answers) < min(len(self.cycle), len(self.ops) + 1):
            self.fail("some (site, minute) pairs never produced a solicitation list")
        self.registries = {"store": stats.detail.get("metrics") or {}}
        start = time.perf_counter()
        self.teardown()
        self.counts["flush_close_s"] = time.perf_counter() - start
        self.counts["stored_bytes"] = self._stored_bytes("investigate")
        self.counts["accepted_vps"] = 0
        self.counts["wire_bytes"] = 0

    def teardown(self) -> None:
        system = getattr(self, "system", None)
        if system is not None:
            system.close()


WORKLOADS = {
    cls.name: cls for cls in (OnionUpload, IngestStream, ServeMixed, Investigate)
}
