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
they validate their arguments without touching shared state and delegate
to the (thread-safe) VP store.  The investigation/upload/reward methods
mutate plain dict/set state and must be externally serialized.  The
concurrent front-end (:class:`~repro.net.concurrency.ConcurrentViewMapServer`)
serializes its own control-plane *handlers* behind ``control_lock``;
operator code calling these methods directly while such a server is
live must hold that same lock (``with server.control_lock: ...``).
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
from repro.store.base import VPStore
from repro.store.codec import iter_encoded_meta
from repro.store.serving import QuerySpec
from repro.store.lifecycle import LifecycleReport, RetentionPolicy, apply_retention


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
    #: optional storage backend; when given, the VP database wraps it
    #: (e.g. ``make_store("sqlite", path)`` for a restart-surviving authority)
    store: VPStore | None = None
    #: the VP database; built from ``store`` (or an in-memory default)
    #: when not supplied.  Passing both is a configuration error.
    database: VPDatabase | None = None
    solicitations: SolicitationBoard = field(default_factory=SolicitationBoard)
    #: optional storage retention policy; ``advance_retention`` applies
    #: it as the observed minute watermark moves (None = keep forever)
    retention: RetentionPolicy | None = None
    rewards: RewardService = field(init=False)
    registry: CashRegistry = field(init=False)
    pending_review: dict[bytes, list[bytes]] = field(default_factory=dict)
    reviewed: set[bytes] = field(default_factory=set)
    #: newest minute a retention pass has run at (-1 = never)
    retention_watermark: int = field(default=-1, init=False)
    #: watermark of the last compaction (paced by ``retention.compact_every``)
    _last_compact_minute: int = field(default=-1, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.store is not None and self.database is not None:
            raise ValidationError(
                "pass either store= or database=, not both: a supplied "
                "database would silently shadow the requested backend"
            )
        if self.database is None:
            self.database = (
                VPDatabase(store=self.store) if self.store is not None else VPDatabase()
            )
        keypair = RSAKeyPair.generate(self.key_bits, rng=random.Random(self.seed))
        self.rewards = RewardService(signer=BlindSigner(keypair=keypair))
        self.registry = CashRegistry(public=keypair.public)
        if self.retention is not None:
            # anchor the watermark so upload-driven advancement is ALWAYS
            # clamped relative to something: a restart over a persistent
            # store anchors at the newest stored minute, a fresh system
            # at minute 0 (every timeline in this reproduction starts
            # there; a production deployment would anchor on a trusted
            # clock).  Without an anchor, the first packet a fresh
            # server accepts could claim a far-future minute and poison
            # the monotonic watermark, permanently disabling retention.
            minutes = self.database.minutes()
            self.retention_watermark = minutes[-1] if minutes else 0

    # -- ingestion ---------------------------------------------------------

    def ingest_vp(self, vp: ViewProfile) -> None:
        """Accept one anonymously uploaded VP (actual or guard alike)."""
        if vp.trusted:
            raise ValidationError("anonymous uploads cannot claim trusted status")
        self.database.insert(vp)

    def ingest_vps(self, vps: list[ViewProfile]) -> int:
        """Batch-accept anonymously uploaded VPs (duplicates skipped).

        The batch path for callers that hold objects (replays, tests;
        the wire delivers frames to :meth:`ingest_encoded`): one backend
        round-trip instead of one per VP.  Returns how many VPs were
        newly stored.
        """
        for vp in vps:
            if vp.trusted:
                raise ValidationError("anonymous uploads cannot claim trusted status")
        return self.database.insert_many(vps)

    def ingest_encoded(self, frame: bytes) -> int:
        """Batch-accept an encoded upload frame without decoding bodies.

        The zero-decode twin of :meth:`ingest_vps`: ``frame`` is a
        :func:`repro.store.codec.encode_vp_batch` buffer whose record
        metadata has already passed wire validation
        (:func:`repro.net.messages.unpack_vp_batch_frame`).  The
        trusted-claim check is re-run here from the metadata — this is
        a public entry point, and the rule that anonymous ingestion can
        never mint trusted VPs must hold however the bytes arrive —
        as a pure metadata walk (bodies are never sliced, let alone
        decoded); then the buffer goes to the store as-is.  Returns how
        many VPs were newly stored.
        """
        for meta, _start, _end in iter_encoded_meta(frame):
            if meta[2]:
                raise ValidationError("anonymous uploads cannot claim trusted status")
        return self.database.insert_encoded(frame)

    def ingest_trusted_vp(self, vp: ViewProfile) -> None:
        """Accept a VP through the authenticated authority path."""
        self.database.insert_trusted(vp)

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
        # eviction runs every pass; compaction (vacuum/ANALYZE) is real
        # maintenance work and is paced by the policy so it never lands
        # on every minute rollover of a live upload stream
        compact = (
            self.retention.compact_every > 0
            and newest_minute - self._last_compact_minute
            >= self.retention.compact_every
        )
        report = apply_retention(
            self.database.store, self.retention, newest_minute, compact=compact
        )
        # the watermark moves only after the pass succeeded: a transient
        # storage error leaves it behind, so the next observation of the
        # same (or a newer) minute retries the eviction
        self.retention_watermark = newest_minute
        if compact:
            self._last_compact_minute = newest_minute
        return report

    # -- investigation -----------------------------------------------------

    def investigate(
        self,
        site: Point,
        minute: int,
        site_radius_m: float = 200.0,
        link_radius_m: float = DSRC_RANGE_M,
        n_trusted: int = 1,
        solicit: bool = True,
    ) -> Investigation:
        """Build and verify the viewmap of one incident minute.

        Selects the trusted VPs closest to the site, spans the coverage
        area over site + seeds, constructs the viewmap, runs Algorithm 1,
        and (optionally) posts the legitimate in-site identifiers.
        """
        trusted = self.database.query(
            QuerySpec(minute=minute, trusted_only=True, nearest=site, k=n_trusted)
        ).vps
        if not trusted:
            raise ValidationError(f"no trusted VP available for minute {minute}")
        area = coverage_area(site, trusted)
        candidates = self.database.query(QuerySpec(minute=minute, area=area)).vps
        vmap = build_viewmap(candidates, minute, area=area, radius_m=link_radius_m)
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
            # tile-backed trusted count: the gate costs O(1) per minute
            # instead of materializing the trusted VPs it then discards
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
        """Release storage resources (connections, shard pools).

        Quiesce the fronting network first; a persistent store keeps its
        data, an in-memory one is gone.
        """
        self.database.close()

    def __enter__(self) -> "ViewMapSystem":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
