"""The ViewMap public-service facade (Fig. 2 of the paper).

`ViewMapSystem` glues the pieces into the workflows an authority runs:

* **ingestion** — anonymous VP uploads land in the VP database; trusted
  VPs arrive via the authority path;
* **investigation** — given an incident (location, minutes), build one
  viewmap per minute, verify members with TrustRank, and post the
  legitimate in-site VP identifiers for solicitation;
* **upload** — validate solicited videos against stored VPs by cascaded
  hash replay, then queue them for human review;
* **reward** — post reward offers for reviewed videos and issue
  untraceable cash via blind signatures.

Concurrency: the ingestion methods are safe to call from many threads —
they validate their arguments without touching shared state and write
codec frames to the (thread-safe) VP store, each frame one atomic store
write (two racing :meth:`~ViewMapSystem.ingest_vps` calls may interleave
frame by frame).  The investigation/upload/reward methods
mutate plain dict/set state and must be externally serialized.  The
front-end (:class:`~repro.net.server.ViewMapServer`) serializes its own
control-plane *handlers* behind ``control_lock``; operator code calling
these methods directly while such a server is live must hold that same
lock (``with server.control_lock: ...``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.constants import DSRC_RANGE_M
from repro.core.database import VPDatabase
from repro.core.rewarding import RewardService
from repro.core.solicitation import (
    SolicitationBoard,
    validate_video_upload,
)
from repro.core.verification import VerificationResult, verify_viewmap
from repro.core.viewmap import ViewMapGraph, build_viewmap, coverage_area
from repro.core.viewprofile import ViewProfile
from repro.crypto.blind import BlindSigner
from repro.crypto.cash import CashRegistry
from repro.crypto.rsa import RSAKeyPair
from repro.errors import ValidationError
from repro.geo.geometry import Point
from repro.store.codec import Batch, RecordColumns, encode_vp_batch, encode_vp_frames
from repro.store.serving import QuerySpec
from repro.store.lifecycle import LifecycleReport, RetentionPolicy, apply_retention
from repro.store.segments import SegmentStore


@dataclass
class Investigation:
    """Results of investigating one incident minute."""

    minute: int
    viewmap: ViewMapGraph
    verification: VerificationResult
    solicited: list[bytes]


@dataclass
class ViewMapSystem:
    """The authority-operated ViewMap service."""

    key_bits: int = 1024
    seed: int = 0
    reward_units: int = 5           #: default payout per reviewed video
    #: optional store; when given, the VP database wraps it
    #: (e.g. ``SegmentStore(path)`` for a restart-surviving authority)
    store: SegmentStore | None = None
    #: the VP database over ``store`` (anonymous segments by default)
    database: VPDatabase = field(init=False)
    solicitations: SolicitationBoard = field(default_factory=SolicitationBoard, init=False)
    #: optional storage retention policy; ``advance_retention`` applies
    #: it as the observed minute watermark moves (None = keep forever)
    retention: RetentionPolicy | None = None
    rewards: RewardService = field(init=False)
    registry: CashRegistry = field(init=False)
    pending_review: dict[bytes, list[bytes]] = field(default_factory=dict, init=False)
    reviewed: set[bytes] = field(default_factory=set, init=False)
    #: newest minute a retention pass has run at (-1 = never)
    retention_watermark: int = field(default=-1, init=False)

    def __post_init__(self) -> None:
        self.database = VPDatabase(store=self.store) if self.store is not None else VPDatabase()
        keypair = RSAKeyPair.generate(self.key_bits, rng=random.Random(self.seed))
        self.rewards = RewardService(signer=BlindSigner(keypair=keypair))
        self.registry = CashRegistry(public=keypair.public)
        if self.retention is not None:
            # anchor the watermark so upload-driven advancement is ALWAYS
            # clamped relative to something.  Without an anchor, the
            # first packet a fresh server accepts could claim a
            # far-future minute and poison the monotonic watermark,
            # permanently disabling retention.  A restart over a store
            # that ran retention resumes at the watermark its last pass
            # ran at — not at the newest stored minute, which may be a
            # far-future claim the clamp absorbed but the store kept.
            # A store that never evicted anchors at its newest minute,
            # a fresh one at minute 0 (every timeline in this
            # reproduction starts there; a production deployment would
            # anchor on a trusted clock).
            cutoff = self.database.store.cutoff
            if cutoff is not None:
                self.retention_watermark = cutoff + self.retention.retained_minutes - 1
            else:
                minutes = self.database.minutes()
                self.retention_watermark = minutes[-1] if minutes else 0

    # -- ingestion ---------------------------------------------------------

    def ingest_vps(self, vps: list[ViewProfile]) -> int:
        """Accept anonymously uploaded VPs (actual or guard alike;
        duplicates skipped); returns how many were newly stored.

        The entry point for callers that hold objects (replays, tests;
        the wire delivers frames to :meth:`ingest_encoded`).  Every VP
        is checked before anything is written — its trusted claim, then
        the record rules :func:`~repro.store.codec.encode_vp_frames`
        applies — so a VP refused anywhere stores none of them; the list
        is then written through :meth:`ingest_encoded` one bounded frame
        at a time.
        """
        for vp in vps:
            if vp.trusted:
                raise ValidationError("anonymous uploads cannot claim trusted status")
        frames = encode_vp_frames(vps)
        return sum(len(self.ingest_encoded(Batch.from_frame(frame))) for frame in frames)

    def ingest_encoded(self, batch: Batch) -> list[int]:
        """Batch-accept an encoded upload without decoding bodies.

        The zero-decode twin of :meth:`ingest_vps`: ``batch`` is what
        :func:`repro.net.messages.unpack_vp_batch_frame` returned.  The
        trusted-claim check is re-run over ``batch.meta`` (this is a
        public entry point: anonymous ingestion never mints trusted
        VPs, however the bytes arrive) and the batch goes to the store
        as it is.  Returns the indices of the records it stored.
        """
        for meta in batch.meta:
            if meta[2]:
                raise ValidationError("anonymous uploads cannot claim trusted status")
        return self.database.insert_encoded(batch)

    def ingest_trusted_vp(self, vp: ViewProfile) -> None:
        """Accept a VP through the authenticated authority path.

        One trusted record, written strictly: a duplicate id raises
        ``ValidationError``.  The caller's object is flagged trusted
        only once the write has returned, so a refused write never
        leaves it claiming trust.
        """
        self.database.store.insert_encoded(encode_vp_batch([vp], trusted=True), strict=True)
        vp.trusted = True

    # -- retention ---------------------------------------------------------

    def advance_retention(self, newest_minute: int) -> LifecycleReport | None:
        """Move the retention watermark and evict minutes that fell out.

        Called by whoever observes time advancing — the upload front-end
        as batches for newer minutes arrive, a simulation replay at each
        minute boundary, or operator cron.  The watermark is monotonic
        (a stale observation never un-evicts) and the pass is idempotent.
        Returns the :class:`~repro.store.lifecycle.LifecycleReport` of
        the pass, or None when no policy is configured or the watermark
        did not move.

        NOT internally synchronized: like the investigation methods,
        concurrent callers must serialize externally — the concurrent
        front-end runs this under its ``control_lock``.  (Eviction
        itself is safe against racing ingest; the lock only keeps the
        watermark monotonic and the passes ordered.)
        """
        if self.retention is None or newest_minute <= self.retention_watermark:
            return None
        report = apply_retention(self.database.store, self.retention, newest_minute)
        # the watermark moves only after the pass succeeded: a transient
        # storage error leaves it behind, so the next observation of the
        # same (or a newer) minute retries the eviction
        self.retention_watermark = newest_minute
        return report

    # -- investigation -----------------------------------------------------

    def investigate(
        self,
        site: Point,
        minute: int,
        site_radius_m: float = 200.0,
        link_radius_m: float = DSRC_RANGE_M,
        solicit: bool = True,
    ) -> Investigation:
        """Build and verify the viewmap of one incident minute.

        Seeds on the trusted VP claiming the position nearest the site
        (the earlier stored on a tie), spans the coverage area over site
        + seed, builds the viewmap from the frame the area query read,
        runs Algorithm 1, and (optionally) posts the legitimate in-site
        identifiers.
        """
        seeds = QuerySpec(minute=minute, trusted_only=True, encoded=True)
        trusted = RecordColumns.from_frame(self.database.query(seeds).frame)
        if not len(trusted):
            raise ValidationError(f"no trusted VP available for minute {minute}")
        d = trusted.xy - (site.x, site.y)
        reach = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
        reach[~trusted.held] = float("inf")
        area = coverage_area(site, trusted.take(reach.min(axis=1).argmin(keepdims=True)))
        candidates = self.database.query(QuerySpec(minute=minute, area=area, encoded=True))
        vmap = build_viewmap(candidates.frame, minute, area=area, radius_m=link_radius_m)
        verification = verify_viewmap(vmap, site, site_radius_m)
        solicited = sorted(verification.legitimate)
        if solicit:
            for vp_id in solicited:
                self.solicitations.post(vp_id)
        return Investigation(
            minute=minute,
            viewmap=vmap,
            verification=verification,
            solicited=solicited,
        )

    def investigate_period(
        self,
        site: Point,
        minutes: list[int],
        site_radius_m: float = 200.0,
        link_radius_m: float = DSRC_RANGE_M,
        solicit: bool = True,
    ) -> list[Investigation]:
        """Investigate an incident spanning several minutes.

        Section 5.2.1: "the system builds a series of viewmaps each
        corresponding to a single unit-time (e.g., 1 min) during the
        incident period".  Minutes without a trusted VP are skipped
        rather than failing the whole investigation.
        """
        investigations = []
        for minute in minutes:
            # a column count: the gate sums the minute's in-memory trusted
            # column, reading no record, instead of materializing the
            # trusted VPs it then discards
            gate = QuerySpec(minute=minute, trusted_only=True, count=True)
            if not self.database.query(gate).n:
                continue
            investigations.append(
                self.investigate(
                    site,
                    minute,
                    site_radius_m=site_radius_m,
                    link_radius_m=link_radius_m,
                    solicit=solicit,
                )
            )
        return investigations

    # -- video upload ------------------------------------------------------

    def receive_video(self, vp_id: bytes, chunks: list[bytes]) -> bool:
        """Validate an anonymously uploaded video for a solicited VP.

        Returns True when accepted (queued for human review).  Rejects
        uploads for identifiers that were never solicited — the board is
        the only channel that reveals which VPs matter.
        """
        if not self.solicitations.is_requested(vp_id):
            return False
        vp = self.database.get(vp_id)
        if vp is None:
            return False
        if not validate_video_upload(vp, chunks):
            return False
        self.solicitations.mark_received(vp_id)
        self.pending_review[vp_id] = chunks
        return True

    def human_review(self, vp_id: bytes, units: int | None = None) -> None:
        """Simulated investigator sign-off: posts the reward offer."""
        if vp_id not in self.pending_review:
            raise ValidationError("no received video awaiting review")
        self.solicitations.mark_reviewed(vp_id)
        self.reviewed.add(vp_id)
        del self.pending_review[vp_id]
        self.rewards.post_reward(vp_id, units or self.reward_units)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release storage resources (segment descriptors).

        Quiesce the fronting network first; a persistent store keeps its
        data, an in-memory one is gone.
        """
        self.database.close()

    def __enter__(self) -> "ViewMapSystem":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
