"""The on-board ViewMap agent: recording, VD exchange, VP finalization.

Drives one vehicle's protocol state machine:

* every second: record a content chunk, extend the cascaded hash, emit a
  view digest for DSRC broadcast, and validate/store digests received from
  neighbours (first/last per neighbour);
* every minute boundary: compile the actual VP, fabricate guard VPs for a
  random ceil(alpha*m) subset of neighbours, archive the video + secret
  locally, and hand both VP kinds to the caller for anonymous upload.

The agent never embeds its vehicle identity in anything it emits —
``vehicle_id`` exists only so simulations can keep ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.constants import DSRC_RANGE_M, VIDEO_UNIT_SECONDS
from repro.core.guard import GuardVPFactory, RouteFn, straight_route
from repro.core.neighbors import NeighborTable
from repro.core.viewdigest import (
    PackedDigests,
    VDGenerator,
    ViewDigest,
    make_secret,
    validate_incoming_vd,
)
from repro.core.viewprofile import ViewProfile, build_view_profile
from repro.errors import ValidationError
from repro.geo.geometry import Point
from repro.util.rng import derive_seed, make_rng

#: Synthesizes the content chunk recorded during one second.
ChunkFn = Callable[[int, int], bytes]


def make_default_chunk_fn(vehicle_id: int) -> ChunkFn:
    """Per-vehicle stand-in content: distinct vehicles record distinct scenes.

    Real dashcams obviously produce different footage per vehicle; the
    vehicle id in the synthetic chunk preserves that property so hash
    validation can tell videos apart.
    """

    def chunk_fn(minute: int, second_index: int) -> bytes:
        return f"frame:{vehicle_id}:{minute}:{second_index}".encode()

    return chunk_fn


@dataclass
class RecordedVideo:
    """A finished 1-minute video kept in the vehicle's local storage."""

    secret: bytes                 #: Q_u — proves ownership at reward time
    vp: ViewProfile               #: the actual VP compiled for this video
    chunks: list[bytes]           #: per-second content (the "video file")

    @property
    def vp_id(self) -> bytes:
        return self.vp.vp_id


@dataclass
class MinuteResult:
    """Everything a vehicle produces at one minute boundary."""

    actual_vp: ViewProfile
    guard_vps: list[ViewProfile]
    video: RecordedVideo
    neighbor_count: int


class VehicleAgent:
    """One vehicle's ViewMap protocol engine."""

    def __init__(
        self,
        vehicle_id: int,
        route_fn: RouteFn = straight_route,
        alpha: float | None = None,
        chunk_fn: ChunkFn | None = None,
        max_range_m: float = DSRC_RANGE_M,
        seed: int = 0,
    ) -> None:
        self.vehicle_id = vehicle_id
        self.chunk_fn = chunk_fn or make_default_chunk_fn(vehicle_id)
        self.max_range_m = max_range_m
        self._rng = make_rng(derive_seed(seed, "agent", vehicle_id))
        guard_kwargs = {} if alpha is None else {"alpha": alpha}
        self.guard_factory = GuardVPFactory(
            route_fn=route_fn,
            rng=make_rng(derive_seed(seed, "guard", vehicle_id)),
            **guard_kwargs,
        )
        self.neighbors = NeighborTable()
        self._generator: VDGenerator | None = None
        self._chunks: list[bytes] = []
        self._minute: int | None = None
        #: local archive: actual videos stay, guards are never stored
        self.videos: dict[bytes, RecordedVideo] = {}

    @property
    def recording(self) -> bool:
        """True while a minute is in progress."""
        return self._generator is not None

    @property
    def current_vp_id(self) -> bytes | None:
        """R value of the video currently being recorded, if any."""
        return self._generator.vp_id if self._generator else None

    def _recording(self, minute: int | None) -> VDGenerator:
        """The generator of the minute in progress (a new video if none is)."""
        if self._generator is None:
            self._generator = VDGenerator(make_secret(self._rng))
            self._chunks = []
            self._minute = minute
        return self._generator

    def emit(self, t: float, position: Point, minute: int | None = None) -> ViewDigest:
        """Record one second and return the view digest to broadcast."""
        gen = self._recording(minute)
        chunk = self.chunk_fn(self._minute or 0, gen.seconds_recorded + 1)
        self._chunks.append(chunk)
        return gen.tick(t, position, chunk)

    def record(
        self, start_t: float, positions: list[Point], minute: int | None = None
    ) -> PackedDigests:
        """Record ``len(positions)`` seconds in one pass, the k-th at
        ``start_t + k + 1``; returns the minute's digests so far."""
        gen = self._recording(minute)
        first = gen.seconds_recorded + 1
        chunks = [self.chunk_fn(self._minute or 0, first + k) for k in range(len(positions))]
        self._chunks.extend(chunks)
        gen.record(
            [start_t + k + 1 for k in range(len(positions))],
            [position.to_tuple() for position in positions],
            chunks,
        )
        return gen.digests

    def receive(self, vd: ViewDigest, now: float, own_position: Point) -> bool:
        """Validate and store a neighbour's broadcast digest."""
        if self._generator is not None and vd.vp_id == self._generator.vp_id:
            return False  # our own broadcast echoed back
        if not validate_incoming_vd(vd, now, own_position, self.max_range_m):
            return False
        return self.neighbors.accept(vd)

    def finalize_minute(self) -> MinuteResult:
        """Close the current minute: build actual VP, guards, archive video."""
        if self._generator is None:
            raise ValidationError("no recording in progress")
        gen = self._generator
        if gen.seconds_recorded == 0:
            raise ValidationError("cannot finalize an empty minute")
        records = self.neighbors.records()
        actual_vp = build_view_profile(gen.digests, self.neighbors)
        guards = self.guard_factory.create_guards(actual_vp, records)
        video = RecordedVideo(secret=gen.secret, vp=actual_vp, chunks=list(self._chunks))
        self.videos[actual_vp.vp_id] = video
        result = MinuteResult(
            actual_vp=actual_vp,
            guard_vps=guards,
            video=video,
            neighbor_count=len(records),
        )
        # clear all temporary state for the next recording round
        self._generator = None
        self._chunks = []
        self._minute = None
        self.neighbors.clear()
        return result

    def run_minute(
        self,
        start_t: float,
        positions: list[Point],
        incoming: dict[int, list[ViewDigest]] | None = None,
        minute: int | None = None,
    ) -> MinuteResult:
        """Convenience: run one full 60-second minute in a single call.

        ``positions`` holds one position per second; ``incoming`` maps the
        0-based second to digests arriving at that second.  Useful in
        tests and examples that do not need an external event loop.
        """
        if len(positions) != VIDEO_UNIT_SECONDS:
            raise ValidationError(
                f"need {VIDEO_UNIT_SECONDS} positions, got {len(positions)}"
            )
        incoming = incoming or {}
        self.record(start_t, positions, minute=minute)
        for i, position in enumerate(positions):
            for vd in incoming.get(i, []):
                self.receive(vd, now=start_t + i + 1, own_position=position)
        return self.finalize_minute()

    def video_for(self, vp_id: bytes) -> RecordedVideo | None:
        """Look up an archived actual video by VP identifier."""
        return self.videos.get(vp_id)
