"""The vehicle-side client: anonymous uploads, polling, reward claims.

Every request travels through a fresh onion circuit with a fresh session
id, "preventing the system from distinguishing among users by session
ids" (Section 5.1.2).  After a successful upload the client deletes guard
VPs from local storage, exactly as the protocol requires — a later
solicitation of a guard VP therefore finds no owner.

A client instance models ONE vehicle and is not itself thread-safe (its
pending queue and cash wallet are plain lists).  Concurrency in the
fleet-vs-authority sense means many clients on their own threads sharing
one :class:`~repro.net.concurrency.ThreadedNetwork`; each client's
requests still serialize within itself, like a real on-board unit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.vehicle import VehicleAgent
from repro.core.viewprofile import ViewProfile
from repro.crypto.blind import blind, make_blinding_secret, unblind
from repro.crypto.cash import VirtualCash
from repro.crypto.rsa import RSAPublicKey
from repro.errors import CryptoError, NetworkError
from repro.geo.geometry import Rect
from repro.net.messages import (
    MAX_VP_BATCH,
    decode_message,
    encode_message,
    pack_query_view,
    pack_vp_batch_frame,
)
from repro.net.onion import OnionNetwork
from repro.obs.metrics import MetricsRegistry, stage_timer
from repro.store.codec import decode_vp_batch
from repro.store.serving import QuerySpec
from repro.util.rng import make_rng


@dataclass
class VehicleClient:
    """Connects one vehicle's agent to the system over onion circuits."""

    agent: VehicleAgent
    onion: OnionNetwork
    server_address: str = "viewmap-system"
    rng: random.Random = field(default_factory=random.Random)
    #: per-request RTT histograms, one stage per message kind
    #: (``client.rtt.<kind>``); share one registry across a fleet to
    #: aggregate, or pass ``MetricsRegistry(enabled=False)`` to opt out
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: the one batch encoding; nothing reads this after construction —
    #: the keyword outlives its axis only because the pipeline benchmark
    #: still passes it (ROADMAP housekeeping)
    wire_codec: str = "frame"
    #: VPs recorded locally but not yet uploaded
    pending_vps: list[ViewProfile] = field(default_factory=list)
    uploaded: int = 0
    cash: list[VirtualCash] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.wire_codec != "frame":
            raise NetworkError(f"unknown wire codec {self.wire_codec!r}")

    def queue_minute_output(self, actual_vp: ViewProfile, guard_vps: list[ViewProfile]) -> None:
        """Stage a finished minute's VPs for the next upload opportunity."""
        self.pending_vps.append(actual_vp)
        self.pending_vps.extend(guard_vps)

    def _request(self, kind: str, **fields) -> dict:
        """One anonymous request over a fresh circuit (rotated session).

        The single timing point of the client: every request's RTT —
        circuit build, fabric delivery (including any modeled network
        latency, which the sleeps fold into wall time), server handling
        and the reply — lands in the ``client.rtt.<kind>`` histogram.
        """
        with stage_timer(self.metrics, f"client.rtt.{kind}"):
            circuit = self.onion.build_circuit()
            payload = encode_message(kind, session=circuit.session_id, **fields)
            reply = self.onion.anonymous_send(self.server_address, payload, circuit)
            message = decode_message(reply)
        if message["kind"] == "error":
            raise NetworkError(f"server rejected {kind}: {message.get('reason')}")
        return message

    def upload_pending(self) -> int:
        """Upload all staged VPs (e.g. on WiFi); returns how many landed.

        One VP per request — a frame of one — so every VP rides its own
        fresh circuit and never-reused session id and the authority
        cannot link a vehicle's actual VP to its guards.  Guard VPs are
        deleted locally after submission — only actual videos remain in
        the agent's archive.
        """
        return self._upload_pending_in_frames(1)

    def upload_pending_batch(self) -> int:
        """Upload all staged VPs in batched requests; returns how many landed.

        The batch path sends up to ``MAX_VP_BATCH`` VPs per circuit
        instead of one, cutting onion round-trips by ~two orders of
        magnitude on a full minute's output.  Guard VPs are deleted
        locally after submission, exactly as in :meth:`upload_pending`.
        """
        return self._upload_pending_in_frames(MAX_VP_BATCH)

    def _upload_pending_in_frames(self, frame_vps: int) -> int:
        """Send the staged VPs ``frame_vps`` per ``upload_vp_batch`` request.

        Each request carries one columnar batch buffer the authority
        ingests without decoding a body.
        """
        landed = 0
        for start in range(0, len(self.pending_vps), frame_vps):
            batch = self.pending_vps[start : start + frame_vps]
            reply = self._request("upload_vp_batch", frame=pack_vp_batch_frame(batch))
            landed += sum(1 for ok in reply["accepted"] if ok)
        self.pending_vps.clear()
        self.uploaded += landed
        return landed

    def query_view(
        self,
        minute: int,
        area: Rect | None = None,
        trusted_only: bool = False,
    ) -> list[ViewProfile]:
        """Fetch one minute's (optionally area-scoped) VPs as objects.

        The read half of the zero-decode wire: the reply is one codec
        batch frame of stored spans, and THIS side decodes it — the
        authority never materializes a VP.
        """
        spec = QuerySpec(minute=minute, area=area, trusted_only=trusted_only)
        reply = self._request("query_view", **pack_query_view(spec))
        return decode_vp_batch(reply["frame"])

    def check_solicitations(self) -> list[bytes]:
        """Identifiers of our archived videos the system is soliciting."""
        reply = self._request("list_solicitations")
        requested = set(reply["vp_ids"])
        return [vp_id for vp_id in self.agent.videos if vp_id in requested]

    def upload_solicited_videos(self) -> int:
        """Upload every matched video anonymously; returns accepted count."""
        accepted = 0
        for vp_id in self.check_solicitations():
            video = self.agent.video_for(vp_id)
            if video is None:
                continue
            reply = self._request("upload_video", vp_id=vp_id, chunks=video.chunks)
            if reply.get("accepted"):
                accepted += 1
        return accepted

    def fetch_public_key(self) -> RSAPublicKey:
        """The system's cash-verification key."""
        reply = self._request("public_key")
        return RSAPublicKey(n=int(reply["n"]), e=int(reply["e"]))

    def claim_rewards(self) -> int:
        """Claim every posted reward for our videos; returns units minted."""
        reply = self._request("list_rewards")
        offered = set(reply["vp_ids"])
        minted = 0
        public = None
        for vp_id, video in self.agent.videos.items():
            if vp_id not in offered:
                continue
            if public is None:
                public = self.fetch_public_key()
            offer = self._request("claim_reward", vp_id=vp_id, secret=video.secret)
            units = int(offer["units"])
            rng = make_rng(self.rng)
            messages = [VirtualCash.random_message(rng) for _ in range(units)]
            secrets = [make_blinding_secret(public, rng) for _ in range(units)]
            blinded = [
                blind(public, public.hash_to_int(m), r)
                for m, r in zip(messages, secrets)
            ]
            signed = self._request(
                "sign_blinded",
                vp_id=vp_id,
                secret=video.secret,
                blinded=[str(b) for b in blinded],
            )
            for message, r, sig in zip(messages, secrets, signed["signatures"]):
                unit = VirtualCash(message=message, signature=unblind(public, int(sig), r))
                if not unit.verify(public):
                    raise CryptoError("system issued an invalid blind signature")
                self.cash.append(unit)
                minted += 1
        return minted
