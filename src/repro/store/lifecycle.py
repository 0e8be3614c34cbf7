"""Store lifecycle: retention policy, eviction watermarks, compaction.

The authority only ever investigates minutes inside the current
solicitation window, yet a store ingesting a city's upload stream grows
without bound unless something retires the past.  This module pushes
that retention decision into the storage layer behind one small object:

* :class:`RetentionPolicy` — *what* to keep: a sliding window of
  ``window_minutes`` plus ``grace`` extra minutes, and an advisory
  per-minute population cap (``max_vps_per_minute``) that flags
  suspicious concentration floods without silently discarding evidence;
* :func:`apply_retention` — *how* to enforce it: computes the eviction
  cutoff for the newest observed minute, calls the backend's
  ``evict_before`` (every :class:`~repro.store.base.VPStore` implements
  it), optionally triggers ``compact()``, and returns a
  :class:`LifecycleReport` the caller can log or assert on.

The policy object is deliberately dumb — no clocks, no threads.  The
*watermark* (the newest minute the system has seen) is owned by whoever
drives the store: the concurrent front-end advances it under its
control lock as uploads arrive, simulation replays advance it minute by
minute, and operator scripts may call :func:`apply_retention` directly.
Eviction is idempotent and monotonic: re-applying the same watermark is
a no-op, and a watermark never moves backwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ValidationError
from repro.store.base import VPStore
from repro.store.serving import QuerySpec


@dataclass(frozen=True)
class RetentionPolicy:
    """Sliding-window retention contract for a VP store.

    ``window_minutes`` is the solicitation window the authority still
    investigates; ``grace`` keeps that many additional minutes beyond it
    (absorbing late uploads and in-flight investigations at the window
    edge).  ``max_vps_per_minute`` (0 = unlimited) is an *advisory* cap:
    minutes exceeding it are reported as overloaded — VPs are potential
    evidence, so the policy flags concentration floods (see
    ``repro.attacks.concentration``) for operator review instead of
    silently discarding uploads.  ``compact_every`` paces how often a
    watermark-driven caller triggers ``compact()`` (every N minutes of
    watermark progress; 0 = never automatically): eviction itself is
    cheap and runs every pass, while compaction does real maintenance
    work (SQLite vacuum/ANALYZE/WAL truncation) and must not run on
    every minute rollover of a live upload stream.

    ``pin_trusted`` exempts trusted VPs from eviction entirely: an
    investigation seeded from police-fleet VPs must never lose its
    seeds to a retention pass racing the investigation window.  All
    backends honor it (``evict_before(..., keep_trusted=True)``);
    trusted VPs are a tiny, authority-controlled population, so the
    pinned footprint stays bounded by the fleet, not the city.
    """

    window_minutes: int
    grace: int = 0
    max_vps_per_minute: int = 0
    compact_every: int = 10
    pin_trusted: bool = False

    def __post_init__(self) -> None:
        if self.window_minutes < 1:
            raise ValidationError("retention window must cover at least one minute")
        if self.grace < 0 or self.max_vps_per_minute < 0 or self.compact_every < 0:
            raise ValidationError(
                "grace, max_vps_per_minute and compact_every must be >= 0"
            )

    @property
    def retained_minutes(self) -> int:
        """Total minutes a store keeps under this policy (window + grace)."""
        return self.window_minutes + self.grace

    def cutoff(self, newest_minute: int) -> int:
        """First minute kept when ``newest_minute`` is the watermark.

        Everything strictly below the cutoff is evictable; the retained
        range is ``[cutoff, newest_minute]`` — exactly
        :attr:`retained_minutes` minutes.
        """
        return newest_minute - self.retained_minutes + 1

    def retains(self, minute: int, newest_minute: int) -> bool:
        """True when a VP of ``minute`` survives at this watermark."""
        return minute >= self.cutoff(newest_minute)


@dataclass(frozen=True)
class LifecycleReport:
    """What one retention pass did (returned by :func:`apply_retention`)."""

    #: the watermark the pass ran at
    newest_minute: int
    #: first retained minute (``policy.cutoff(newest_minute)``)
    cutoff: int
    #: VPs removed by ``evict_before``
    evicted: int
    #: minute -> population, for retained minutes above the advisory cap
    overloaded: dict[int, int] = field(default_factory=dict)
    #: backend gauges from ``compact()`` (empty when compaction skipped)
    compaction: dict[str, Any] = field(default_factory=dict)


def survey_overloaded(store: VPStore, max_vps_per_minute: int) -> dict[int, int]:
    """Minutes whose population exceeds an advisory per-minute cap.

    The concentration-flood detector (see
    ``repro.attacks.concentration`` and the campaign grid in
    ``repro.analysis.campaigns``): a metadata-only sweep over the
    store's retained minutes flagging suspicious population spikes for
    operator review.  VPs are potential evidence, so nothing is ever
    dropped here — the survey only *reports*.  A cap of 0 disables the
    check.  ``apply_retention`` runs this same survey as part of every
    policy pass; campaign monitors call it directly so detection works
    identically on stores that carry no retention policy at all.
    """
    if max_vps_per_minute <= 0:
        return {}
    overloaded: dict[int, int] = {}
    for minute in store.minutes():
        population = store.query(QuerySpec(minute=minute, count=True)).n
        if population > max_vps_per_minute:
            overloaded[minute] = population
    return overloaded


def apply_retention(
    store: VPStore,
    policy: RetentionPolicy,
    newest_minute: int,
    compact: bool = False,
) -> LifecycleReport:
    """Run one retention pass against a store at a given watermark.

    Evicts everything below ``policy.cutoff(newest_minute)`` — trusted
    VPs excepted when the policy pins them — surveys retained minutes
    against the advisory population cap, and (when ``compact=True``)
    asks the backend to reclaim the space just freed.  Safe to call
    concurrently with ingest: ``evict_before`` is part of the
    thread-safe store contract, and an upload racing into an
    already-evicted minute simply lands again until the next pass.
    """
    cutoff = policy.cutoff(newest_minute)
    evicted = store.evict_before(cutoff, keep_trusted=policy.pin_trusted)
    overloaded = survey_overloaded(store, policy.max_vps_per_minute)
    compaction = store.compact() if compact else {}
    return LifecycleReport(
        newest_minute=newest_minute,
        cutoff=cutoff,
        evicted=evicted,
        overloaded=overloaded,
        compaction=compaction,
    )
