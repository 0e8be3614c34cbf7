"""The system's network endpoint: dispatches protocol messages.

Wraps a :class:`~repro.core.system.ViewMapSystem` behind the message
formats of :mod:`repro.net.messages`.  The server sees only the exit
relay's address and a rotating session id — it cannot attribute uploads
to users.  Sessions are logged so privacy tests can verify unlinkability.

Dispatch goes through an explicit handler registry: the request
``kind`` is looked up in a closed table of plain functions, so crafted
kind strings can never resolve to arbitrary attributes of the server
object, and the table holds no reference back to any server.

One server serves every fabric.  Its session log, retention pass and
control-plane handlers are lock-guarded, which a serial fabric never
contends and a concurrent one needs; the upload and ``query_view``
paths take no server-level lock because the ``repro.store`` store is
thread-safe.

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
from typing import Any, Callable, ClassVar

from repro.core.system import ViewMapSystem
from repro.errors import ReproError, ValidationError
from repro.net.messages import (
    decode_message,
    encode_message,
    envelope_head,
    message_field,
    unpack_query_view,
    unpack_vp_batch_frame,
)
from repro.net.transport import InMemoryNetwork
from repro.obs.metrics import MetricsRegistry, stage_timer
from repro.store.serving import reply_with_head

Handler = Callable[["ViewMapServer", dict[str, Any]], bytes | memoryview]

#: max minutes the upload-driven retention watermark may advance per
#: accepted upload (see module docstring) — bounds the eviction blast
#: radius of a bogus far-future minute claim to this many minutes
MAX_WATERMARK_STEP = 2


def _locked(handler: Handler) -> Handler:
    """Serialize one message handler behind its server's control lock."""

    def guarded(server: "ViewMapServer", message: dict[str, Any]) -> bytes | memoryview:
        with server._state_lock:
            return handler(server, message)

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
      are the store's job, in its one ``write``;
    * the retention watermark (``system.retention``) advances under
      :attr:`control_lock`: the upload that first observes a newer
      minute takes the lock and runs the eviction pass, every other
      upload stays lock-free;
    * the remaining control-plane handlers (``GUARDED_KINDS``) share
      that one re-entrant lock because the system objects they touch
      are plain dict/set state.  Operator code driving the system
      directly (``system.investigate(...)``) while this server is live
      must hold it too.

    A batch ack is built from what the store's write landed:
    ``accepted[i]`` is true iff this request stored record *i*, and
    ``sum(accepted) == inserted`` — also when racing requests submit
    the same VP, of which the store keeps exactly one copy and exactly
    one ack claims it.
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
    #: and upload accept/reject counters
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: kind -> handler, called as ``handler(self, message)``; filled in
    #: below the class, shared by every server
    _handlers: ClassVar[dict[str, Handler]]

    def __post_init__(self) -> None:
        self._log_lock = threading.Lock()
        self._state_lock = threading.RLock()
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

    def handle(self, payload: bytes) -> bytes | memoryview:
        """Decode, dispatch, and encode one request/response exchange.

        A ``view`` reply is a read-only view of the store's reply
        mapping; every other reply is ``bytes``.

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
                return handler(self, message)
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
    # Attachments arrive as read-only views of the request buffer: a
    # handler copies (``bytes(...)``) what the system keeps or looks up
    # by, since a view pins the request and may not hash.

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
        """Validate one frame into a ``Batch``, write it, ack what landed.

        No VP body is decoded.  Duplicates (against the store or within
        the batch) are decided by the store's write, once, under its
        lock; the ack reports the indices it landed.
        """
        batch = unpack_vp_batch_frame(frame)
        landed = self.system.ingest_encoded(batch)
        if landed:
            self._observe_minute(max(batch.meta[i][1] for i in landed))
        self.metrics.inc("server.upload.accepted", len(landed))
        self.metrics.inc("server.upload.rejected", len(batch) - len(landed))
        stored = set(landed)
        accepted = [i in stored for i in range(len(batch))]
        return encode_message("batch_ack", accepted=accepted, inserted=len(landed))

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

    def _on_query_view(self, message: dict[str, Any]) -> memoryview:
        """Serve one minute/area view query as a codec batch frame.

        The read-side twin of the zero-decode upload path: the storage
        tier reads the stored records straight into one reply mapping —
        no VP body is decoded anywhere on the authority, the *client*
        decodes — and the envelope head is written into the room the
        mapping keeps before the frame, so the reply is that one buffer,
        byte-identical to ``encode_message("view", frame=..., n=...)``.
        Replies are safe to serve lock-free on a concurrent fabric
        because the store is thread-safe, so this kind is
        deliberately NOT in ``GUARDED_KINDS``.
        """
        result = self.system.database.query(unpack_query_view(message))
        self.metrics.observe("serve.encoded_bytes", float(len(result.frame)))
        head = envelope_head("view", frame=result.frame, n=result.n)
        return reply_with_head(result.frame, head)

    def _on_list_solicitations(self, message: dict[str, Any]) -> bytes:
        ids = self.system.solicitations.requested_ids()
        return encode_message("solicitations", vp_ids=list(ids))

    def _on_upload_video(self, message: dict[str, Any]) -> bytes:
        accepted = self.system.receive_video(
            bytes(message_field(message, "vp_id", bytes)),
            [bytes(chunk) for chunk in message_field(message, "chunks", list, item=bytes)],
        )
        return encode_message("ack", accepted=accepted)

    def _on_list_rewards(self, message: dict[str, Any]) -> bytes:
        ids = self.system.rewards.pending_ids()
        return encode_message("rewards", vp_ids=list(ids))

    def _on_claim_reward(self, message: dict[str, Any]) -> bytes:
        units = self.system.rewards.offered_units(
            bytes(message_field(message, "vp_id", bytes)),
            bytes(message_field(message, "secret", bytes)),
        )
        return encode_message("reward_offer", units=units)

    def _on_sign_blinded(self, message: dict[str, Any]) -> bytes:
        try:
            blinded = [int(b) for b in message_field(message, "blinded", list, item=str)]
        except ValueError as exc:
            raise ValidationError("sign_blinded needs decimal blinded values") from exc
        signatures = self.system.rewards.sign_blinded_batch(
            bytes(message_field(message, "vp_id", bytes)),
            bytes(message_field(message, "secret", bytes)),
            blinded,
        )
        return encode_message("signatures", signatures=[str(s) for s in signatures])

    def _on_public_key(self, message: dict[str, Any]) -> bytes:
        public = self.system.rewards.public_key
        return encode_message("public_key", n=str(public.n), e=str(public.e))


ViewMapServer._handlers = {
    kind: _locked(handler) if kind in ViewMapServer.GUARDED_KINDS else handler
    for kind, handler in {
        "upload_vp_batch": ViewMapServer._on_upload_vp_batch,
        "query_view": ViewMapServer._on_query_view,
        "list_solicitations": ViewMapServer._on_list_solicitations,
        "upload_video": ViewMapServer._on_upload_video,
        "list_rewards": ViewMapServer._on_list_rewards,
        "claim_reward": ViewMapServer._on_claim_reward,
        "sign_blinded": ViewMapServer._on_sign_blinded,
        "public_key": ViewMapServer._on_public_key,
    }.items()
}
