"""The system's network endpoint: dispatches protocol messages.

Wraps a :class:`~repro.core.system.ViewMapSystem` behind the message
formats of :mod:`repro.net.messages`.  The server sees only the exit
relay's address and a rotating session id — it cannot attribute uploads
to users.  Sessions are logged so privacy tests can verify unlinkability.

Dispatch goes through an explicit handler registry built at startup:
the request ``kind`` is looked up in a closed table, so crafted kind
strings can never resolve to arbitrary attributes of the server object.

One server serves every fabric.  Its session log, retention pass and
control-plane handlers are lock-guarded, which a serial fabric never
contends and a concurrent one needs; the upload and ``query_view``
paths take no server-level lock because every ``repro.store`` backend
is thread-safe.

When the system carries a retention policy, the upload stream doubles
as the server's clock — but a *clamped* one: a client-claimed minute
may advance the retention watermark by at most
``MAX_WATERMARK_STEP`` per accepted upload.  Without the clamp a
single upload claiming a far-future minute would evict the entire
retained window (and poison the monotonic watermark forever); with it,
honest clock skew is absorbed and a flood attack must sustain many
accepted uploads to move the window at all, each step costing at most
``MAX_WATERMARK_STEP`` minutes of the oldest data.  Deployments with a
trustworthy clock should drive ``system.advance_retention`` from the
investigation/solicitation side instead.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.system import ViewMapSystem
from repro.errors import ReproError, ValidationError
from repro.net.messages import (
    decode_message,
    encode_message,
    message_field,
    unpack_query_view,
    unpack_vp_batch_frame,
)
from repro.net.transport import InMemoryNetwork
from repro.obs.metrics import MetricsRegistry, stage_timer
from repro.store.codec import join_encoded_records

Handler = Callable[[dict[str, Any]], bytes]

#: max minutes the upload-driven retention watermark may advance per
#: accepted upload (see module docstring) — bounds the eviction blast
#: radius of a bogus far-future minute claim to this many minutes
MAX_WATERMARK_STEP = 2


def _locked(lock: threading.RLock, handler: Handler) -> Handler:
    """Serialize one message handler behind a lock."""

    def guarded(message: dict[str, Any]) -> bytes:
        with lock:
            return handler(message)

    return guarded


@dataclass
class ViewMapServer:
    """Network front-end for the ViewMap service.

    ``network`` is any fabric exposing the ``register``/``send`` contract
    — the serial :class:`~repro.net.transport.InMemoryNetwork`, a
    :class:`~repro.net.concurrency.ThreadedNetwork` worker pool or a
    :class:`~repro.net.streaming.StreamingNetwork`.

    Concurrency model (see ``docs/architecture.md``):

    * the session log is appended under a dedicated lock, so
      unlinkability probes read a consistent log during load;
    * ``upload_vp_batch`` / ``query_view`` run without
      server-level locks — duplicate suppression and insert atomicity
      are the storage backend's job;
    * the retention watermark (``system.retention``) advances under
      :attr:`control_lock`: the upload that first observes a newer
      minute takes the lock and runs the eviction pass, every other
      upload stays lock-free;
    * the remaining control-plane handlers (``GUARDED_KINDS``) share
      that one re-entrant lock because the system objects they touch
      are plain dict/set state.  Operator code driving the system
      directly (``system.investigate(...)``) while this server is live
      must hold it too.

    Under concurrent duplicate submissions of the *same* VP the per-VP
    ``accepted`` flags of a batch ack are best-effort (both racing
    requests may claim acceptance) while the store itself keeps exactly
    one copy; ``inserted`` counts are always authoritative.
    """

    #: handler kinds serialized behind the control-plane state lock
    GUARDED_KINDS = (
        "list_solicitations",
        "upload_video",
        "list_rewards",
        "claim_reward",
        "sign_blinded",
    )

    system: ViewMapSystem
    network: InMemoryNetwork
    address: str = "viewmap-system"
    #: session ids observed per request kind (for unlinkability tests)
    session_log: list[tuple[str, str]] = field(default_factory=list)
    #: per-kind handler latency histograms (``server.handle.<kind>``)
    #: and upload accept/reject counters.  The handler declares no
    #: modeled contributions of its own, so the modeled axis equals
    #: wall time — which already folds in every modeled sleep (network
    #: delivery, commit charges) taken within the handler's extent
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    _handlers: dict[str, Handler] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._log_lock = threading.Lock()
        self._state_lock = threading.RLock()
        self._handlers = {
            "upload_vp_batch": self._on_upload_vp_batch,
            "query_view": self._on_query_view,
            "list_solicitations": self._on_list_solicitations,
            "upload_video": self._on_upload_video,
            "list_rewards": self._on_list_rewards,
            "claim_reward": self._on_claim_reward,
            "sign_blinded": self._on_sign_blinded,
            "public_key": self._on_public_key,
        }
        for kind in self.GUARDED_KINDS:
            self._handlers[kind] = _locked(self._state_lock, self._handlers[kind])
        self.network.register(self.address, self.handle)

    @property
    def control_lock(self) -> threading.RLock:
        """The control-plane lock; hold it for direct system mutations.

        Guards the solicitation board, review queue and reward state
        against the guarded handlers — e.g.
        ``with server.control_lock: system.investigate(site, minute)``
        while upload traffic is in flight.
        """
        return self._state_lock

    def handle(self, payload: bytes) -> bytes:
        """Decode, dispatch, and encode one request/response exchange.

        Every dispatched request lands in the ``server.handle.<kind>``
        latency histogram — the per-stage breakdown an SLO dashboard
        reads next to the client-side RTTs.
        """
        try:
            message = decode_message(payload)
            kind = message["kind"]
            self._log_session(kind, message.get("session", ""))
            handler = self._handlers.get(kind)
            if handler is None:
                return encode_message("error", reason=f"unknown kind: {kind}")
            with stage_timer(self.metrics, f"server.handle.{kind}"):
                return handler(message)
        except ReproError as exc:
            return encode_message("error", reason=str(exc))

    def _log_session(self, kind: str, session: str) -> None:
        """Record one (kind, session id) observation for unlinkability tests."""
        with self._log_lock:
            self.session_log.append((kind, session))

    def _observe_minute(self, minute: int) -> None:
        """Advance the retention watermark from an upload's minute.

        The upload stream is the server's clock: when VPs for a newer
        minute start arriving, the solicitation window has moved and
        minutes that fell out of it become evictable.  No-op unless the
        system carries a retention policy.

        The unlocked first check keeps the upload fast path lock-free
        for the overwhelmingly common case (another upload of the same
        minute); only the request that first sees a newer minute pays
        for ``control_lock`` and the eviction pass.  The watermark is
        re-read under the lock, so racing observers of the same new
        minute run the pass once, and ``advance_retention`` itself
        keeps it monotonic.

        Two guards apply, both based on ``system.retention_watermark``
        (the single source of truth — a system restarted over a
        persistent store seeds it from the stored minutes, and
        operator-driven ``advance_retention`` calls move it too, so the
        clamp base can never silently diverge).  The claimed minute
        advances the watermark by at most ``MAX_WATERMARK_STEP`` once
        one is established — a far-future claim from a skewed (or
        malicious) clock must not evict the whole retained window in
        one shot; sustained honest traffic converges on the true minute
        step by step.  And retention is housekeeping riding on an
        upload that already succeeded: a transient storage error during
        the pass must not turn the stored VP's ack into an error reply.
        The error is swallowed and the watermark left behind, so the
        next upload that observes this (or a newer) minute retries the
        pass.
        """
        if self.system.retention is None or minute <= self.system.retention_watermark:
            return
        with self._state_lock:
            watermark = self.system.retention_watermark
            if minute <= watermark:
                return
            if watermark >= 0 and minute > watermark + MAX_WATERMARK_STEP:
                # the clamp engaging is a security signal, not just a
                # guard: honest clock skew trips it rarely, a poisoning
                # campaign trips it on every far-future claim — so
                # count engagements (under the lock: campaign monitors
                # read an exact count) where SLO dashboards see them
                self.metrics.inc("server.watermark.clamped")
                minute = watermark + MAX_WATERMARK_STEP
            try:
                self.system.advance_retention(minute)
            except ReproError:
                return

    # -- handlers ------------------------------------------------------------

    def _on_upload_vp_batch(self, message: dict[str, Any]) -> bytes:
        """Batch upload: one round-trip for a vehicle's pending VPs.

        Replies with a per-VP accepted flag (duplicates — against the
        store or within the batch — are rejected individually, never the
        whole batch).  The batch travels as one ``frame``, the columnar
        codec buffer; a request without one, or carrying the retired
        ``vps`` block list, is refused with nothing ingested.
        """
        if "vps" in message:
            raise ValidationError("upload_vp_batch carries one frame, not a vps list")
        return self._ingest_frame(message_field(message, "frame", bytes))

    def _ingest_frame(self, frame: bytes | memoryview) -> bytes:
        """Ingest one zero-decode batch frame (metadata-only path).

        Validation (framing, batch bound, complete-VP body sizes, no
        trusted claims) and the duplicate probe both read only the
        record metadata; the accepted sub-batch is carved out of the
        incoming buffer as raw byte spans.  When every record is fresh
        — the overwhelmingly common case for an honest vehicle's first
        upload — the original frame is forwarded untouched.
        """
        rows, spans = unpack_vp_batch_frame(frame)
        taken = self.system.database.existing_ids([bytes(row[0]) for row in rows])
        accepted: list[bool] = []
        fresh: list[int] = []
        for index, row in enumerate(rows):
            vp_id = bytes(row[0])
            ok = vp_id not in taken
            accepted.append(ok)
            if ok:
                taken.add(vp_id)
                fresh.append(index)
        if len(fresh) == len(rows):
            inserted = self.system.ingest_encoded(frame)
        elif fresh:
            inserted = self.system.ingest_encoded(
                join_encoded_records(frame, [spans[i] for i in fresh])
            )
        else:
            inserted = 0
        if fresh:
            self._observe_minute(max(rows[i][1] for i in fresh))
        self.metrics.inc("server.upload.accepted", len(fresh))
        self.metrics.inc("server.upload.rejected", len(rows) - len(fresh))
        return encode_message("batch_ack", accepted=accepted, inserted=inserted)

    def ingest_frame_stream(self, frame: bytes | memoryview) -> bytes:
        """Streaming twin of the ``upload_vp_batch`` frame handler.

        The entry point :class:`~repro.net.streaming.StreamingNetwork`
        calls for every ``FRAME`` record a connection's parser
        completes: no envelope to parse, no attachment copy — ``frame``
        is a read-only span of the connection's receive buffer, validated
        from the metadata sidecar in place and handed to the storage
        tier still as that span.  Reply bytes are the same
        ``batch_ack``/``error`` envelopes as the threaded path, so
        clients decode both transports identically.  Uploads are
        lock-free by design and the watermark pass goes through the
        lock-guarded ``_observe_minute``.  Streamed frames carry no
        session id; they are logged under their own kind for the
        privacy probes.
        """
        try:
            self._log_session("upload_stream", "")
            with stage_timer(self.metrics, "server.handle.upload_stream"):
                return self._ingest_frame(frame)
        except ReproError as exc:
            return encode_message("error", reason=str(exc))

    def _on_query_view(self, message: dict[str, Any]) -> bytes:
        """Serve one minute/area view query as a codec batch frame.

        The read-side twin of the zero-decode upload path: the storage
        tier assembles the reply straight from stored frame spans — no
        VP body is decoded anywhere on the authority, the *client*
        decodes.  Replies are safe to serve lock-free on a concurrent
        fabric because the store backends are thread-safe, so this kind
        is deliberately NOT in ``GUARDED_KINDS``.
        """
        result = self.system.database.query(unpack_query_view(message))
        self.metrics.observe("serve.encoded_bytes", float(len(result.frame)))
        return encode_message("view", frame=result.frame, n=result.n)

    def _on_list_solicitations(self, message: dict[str, Any]) -> bytes:
        ids = self.system.solicitations.requested_ids()
        return encode_message("solicitations", vp_ids=list(ids))

    def _on_upload_video(self, message: dict[str, Any]) -> bytes:
        accepted = self.system.receive_video(
            message_field(message, "vp_id", bytes),
            message_field(message, "chunks", list, item=bytes),
        )
        return encode_message("ack", accepted=accepted)

    def _on_list_rewards(self, message: dict[str, Any]) -> bytes:
        ids = self.system.rewards.pending_ids()
        return encode_message("rewards", vp_ids=list(ids))

    def _on_claim_reward(self, message: dict[str, Any]) -> bytes:
        units = self.system.rewards.offered_units(
            message_field(message, "vp_id", bytes),
            message_field(message, "secret", bytes),
        )
        return encode_message("reward_offer", units=units)

    def _on_sign_blinded(self, message: dict[str, Any]) -> bytes:
        try:
            blinded = [int(b) for b in message_field(message, "blinded", list, item=str)]
        except ValueError as exc:
            raise ValidationError("sign_blinded needs decimal blinded values") from exc
        signatures = self.system.rewards.sign_blinded_batch(
            message_field(message, "vp_id", bytes),
            message_field(message, "secret", bytes),
            blinded,
        )
        return encode_message("signatures", signatures=[str(s) for s in signatures])

    def _on_public_key(self, message: dict[str, Any]) -> bytes:
        public = self.system.rewards.public_key
        return encode_message("public_key", n=str(public.n), e=str(public.e))
