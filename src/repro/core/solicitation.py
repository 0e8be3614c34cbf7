"""Video solicitation and upload validation (Section 5.2.3).

Verified VPs are requested *by identifier*: the system posts R values
marked "request for video" without publicising the incident's location or
time.  Owners who recognise an R in the list upload the matching video
anonymously.  The upload is validated by replaying the cascaded hash
chain over the provided content and comparing every head against the
VDs the system already holds — a fabricated or edited video cannot match.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.core.viewdigest import packed_chain_heads, packed_columns
from repro.core.viewprofile import ViewProfile
from repro.errors import ValidationError


class SolicitationState(Enum):
    """Lifecycle of one solicited VP identifier."""

    REQUESTED = "request for video"
    RECEIVED = "video received"
    REVIEWED = "reviewed"


@dataclass
class SolicitationEntry:
    """One posted VP identifier and its review progress."""

    vp_id: bytes
    state: SolicitationState = SolicitationState.REQUESTED


@dataclass
class SolicitationBoard:
    """The public list of solicited VP identifiers."""

    _entries: dict[bytes, SolicitationEntry] = field(default_factory=dict)

    def post(self, vp_id: bytes) -> None:
        """Post an R value marked 'request for video' (idempotent)."""
        self._entries.setdefault(vp_id, SolicitationEntry(vp_id=vp_id))

    def is_requested(self, vp_id: bytes) -> bool:
        """Owners poll this: is my video solicited and still wanted?"""
        entry = self._entries.get(vp_id)
        return entry is not None and entry.state == SolicitationState.REQUESTED

    def requested_ids(self) -> list[bytes]:
        """All identifiers currently awaiting upload."""
        return [
            e.vp_id
            for e in self._entries.values()
            if e.state == SolicitationState.REQUESTED
        ]

    def mark_received(self, vp_id: bytes) -> None:
        """Record that a valid video arrived for this identifier."""
        entry = self._entries.get(vp_id)
        if entry is None:
            raise ValidationError("identifier was never solicited")
        entry.state = SolicitationState.RECEIVED

    def mark_reviewed(self, vp_id: bytes) -> None:
        """Record that human review finished for this identifier."""
        entry = self._entries.get(vp_id)
        if entry is None:
            raise ValidationError("identifier was never solicited")
        entry.state = SolicitationState.REVIEWED

    def state_of(self, vp_id: bytes) -> SolicitationState | None:
        """Current lifecycle state, or None if never posted."""
        entry = self._entries.get(vp_id)
        return entry.state if entry else None


def validate_video_upload(system_vp: ViewProfile, chunks: list[bytes]) -> bool:
    """Replay the cascaded hash chain of an uploaded video.

    ``system_vp`` is the VP already in the database (metadata + hash heads
    per second); ``chunks`` is the claimed per-second content.  Every
    replayed head must equal the stored VD hash; the replay stops at
    the first that does not, and reads the stored VP as packed columns
    (no digest is unpacked, so the VP does not grow).  Guard VPs fail
    here by construction (their hash fields are random), as do edited
    videos.
    """
    if len(chunks) != system_vp.n_digests:
        return False
    fields = packed_columns(system_vp.digest_block())
    heads = packed_chain_heads(fields, system_vp.vp_id, chunks)
    return all(
        head == stored.tobytes() for head, stored in zip(heads, fields["chain_hash"])
    )
