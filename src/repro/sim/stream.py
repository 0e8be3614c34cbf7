"""Constant-memory streaming load generator for ingest experiments.

The full-fidelity runner (:mod:`repro.sim.runner`) materializes the
whole simulation before anything is ingested: every VP of every minute
lives in ``SimulationResult.vps_by_minute`` at once, because linkage
experiments need ground truth attached to the complete corpus.  That is
the wrong shape for *load* experiments — driving a million-vehicle
upload burst through the authority should not require a million VPs in
RAM first.

This module streams instead.  :func:`iter_minute_vps` lazily yields one
complete, wire-eligible VP per (vehicle, minute) — each materialized on
demand from a seed-derived :class:`~repro.core.viewdigest.VDGenerator`
and dropped as soon as the consumer moves on.  :func:`iter_minute_frames`
chunks that stream into zero-decode upload frames
(:func:`~repro.net.messages.pack_vp_batch_frame`), ready to send as
``upload_vp_batch`` requests or raw stream records.  Peak memory is one
frame's worth of VPs (``batch_vps``), independent of
``n_vehicles * minutes`` — the knob a load test scales into the
millions.

Determinism: every VP is a pure function of ``(seed, minute, vehicle)``
via :func:`~repro.util.rng.derive_seed`, so two streams with the same
arguments produce byte-identical frames and disjoint seeds produce
disjoint VP ids — runs are reproducible and populations never collide
across tags.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.constants import VIDEO_UNIT_SECONDS
from repro.core.neighbors import NeighborTable
from repro.core.vehicle import VehicleAgent
from repro.core.viewdigest import (
    PackedDigests,
    VDGenerator,
    make_secret,
    validate_incoming_vd,
)
from repro.core.viewprofile import ViewProfile, build_view_profile
from repro.errors import SimulationError
from repro.geo.geometry import Point
from repro.net.messages import MAX_VP_BATCH, pack_vp_batch_frame
from repro.util.rng import derive_seed

#: default city edge length the streamed fleet drives inside, metres
DEFAULT_AREA_M = 10_000.0

#: default VPs per upload frame — a vehicle's typical pending backlog,
#: well under the protocol's MAX_VP_BATCH bound
DEFAULT_BATCH_VPS = 16

#: 0-based seconds of one recording minute (a complete, wire-eligible VP)
_SECONDS = np.arange(VIDEO_UNIT_SECONDS, dtype=np.float64)


@dataclass(frozen=True)
class MinuteFrame:
    """One streamed upload frame: a minute's slice of the fleet."""

    minute: int
    n_vps: int
    frame: bytes


def stream_vp(seed: int, minute: int, vehicle: int, area_m: float) -> ViewProfile:
    """One complete 60-digest VP for a (vehicle, minute) of the stream.

    The vehicle starts each minute at a seed-derived city position and
    drives a short straight segment, one position a second, recorded
    in one pass — the cheapest trajectory that still produces genuine
    hash chains, Bloom filters and bounding boxes (the parts ingest
    cost depends on).
    """
    rng = random.Random(derive_seed(seed, "stream-pos", minute, vehicle))
    x0 = rng.uniform(0.0, area_m)
    y0 = rng.uniform(0.0, area_m)
    gen = VDGenerator(make_secret(derive_seed(seed, "stream-vp", minute, vehicle)))
    positions = np.empty((VIDEO_UNIT_SECONDS, 2))
    positions[:, 0] = x0 + 2.0 * _SECONDS
    positions[:, 1] = y0
    times = minute * float(VIDEO_UNIT_SECONDS) + _SECONDS + 1
    gen.record(times, positions, [b"chunk"] * VIDEO_UNIT_SECONDS)
    return build_view_profile(gen.digests, NeighborTable())


def _first_and_last_heard(
    digests: PackedDigests, times: list[float], track: list[Point], max_range_m: float
) -> set[int]:
    """Seconds of the first and the last of a peer's broadcasts that a
    receiver driving ``track`` accepts — all a neighbour table keeps.
    Scanned from either end of the minute, so a peer that stays in
    range costs two unpacked digests, not sixty."""

    def heard(s: int) -> bool:
        return validate_incoming_vd(digests[s], times[s], track[s], max_range_m)

    seconds = range(len(digests))
    first = next((s for s in seconds if heard(s)), None)
    if first is None:
        return set()
    return {first, next(s for s in reversed(seconds) if heard(s))}


def stream_convoy_vps(
    seed: int,
    minute: int,
    n_witnesses: int,
    site_xy: tuple[float, float],
    lateral_gap_m: float = 30.0,
    speed_mps: float = 5.0,
) -> tuple[ViewProfile, list[ViewProfile]]:
    """One trusted VP plus mutually-linked witness VPs crossing a site.

    The linked counterpart of :func:`stream_vp`: streamed VPs carry
    empty neighbour tables (load experiments only price ingest), but
    verification-level scenarios — the adversarial campaign grid above
    all — need a small population whose two-way Bloom linkage is real,
    so investigations have a trusted seed and legitimate witnesses to
    solicit.  This drives ``1 + n_witnesses`` :class:`VehicleAgent`\\ s
    in convoy formation through ``site_xy`` for one minute with full
    mutual VD reception, and returns ``(trusted_vp, witness_vps)`` —
    the first agent's VP is the authority's (police) vehicle, to be
    ingested through the trusted path.

    Determinism matches the rest of the module: every VP is a pure
    function of ``(seed, minute)``, distinct minutes produce disjoint
    VP ids, and the convoy's trajectory spans ``±30 * speed_mps``
    metres around the site so all members are site candidates.
    """
    if n_witnesses < 1:
        raise SimulationError("a convoy needs at least one witness")
    agents = [
        VehicleAgent(vehicle_id=i, seed=derive_seed(seed, "convoy", minute))
        for i in range(n_witnesses + 1)
    ]
    x0 = site_xy[0] - 30.0 * speed_mps
    base = minute * float(VIDEO_UNIT_SECONDS)
    seconds = range(VIDEO_UNIT_SECONDS)
    tracks = [
        [Point(x0 + speed_mps * s, site_xy[1] + lateral_gap_m * i) for s in seconds]
        for i in range(len(agents))
    ]
    heard = [
        agent.record(base, track, minute=minute) for agent, track in zip(agents, tracks)
    ]
    times = [base + s + 1.0 for s in seconds]
    for i, agent in enumerate(agents):
        arrivals = [
            (s, j)
            for j, digests in enumerate(heard)
            if j != i
            for s in _first_and_last_heard(digests, times, tracks[i], agent.max_range_m)
        ]
        for s, j in sorted(arrivals):  # the order the broadcasts arrive in
            agent.receive(heard[j][s], times[s], tracks[i][s])
    results = [agent.finalize_minute() for agent in agents]
    return results[0].actual_vp, [r.actual_vp for r in results[1:]]


def iter_minute_vps(
    n_vehicles: int,
    minutes: int,
    seed: int = 0,
    area_m: float = DEFAULT_AREA_M,
) -> Iterator[tuple[int, ViewProfile]]:
    """Lazily yield ``(minute, vp)`` for every vehicle of every minute.

    Minute-major order (all of minute 0, then minute 1, ...), matching
    the arrival order an authority sees from a fleet uploading at each
    minute boundary.  Nothing is retained between yields.
    """
    if n_vehicles < 1 or minutes < 1:
        raise SimulationError("streaming needs n_vehicles >= 1 and minutes >= 1")
    for minute in range(minutes):
        for vehicle in range(n_vehicles):
            yield minute, stream_vp(seed, minute, vehicle, area_m)


def iter_minute_frames(
    n_vehicles: int,
    minutes: int,
    seed: int = 0,
    area_m: float = DEFAULT_AREA_M,
    batch_vps: int = DEFAULT_BATCH_VPS,
) -> Iterator[MinuteFrame]:
    """Stream a fleet's upload burst as zero-decode wire frames.

    Each yielded :class:`MinuteFrame` packs up to ``batch_vps`` VPs of
    one minute through :func:`~repro.net.messages.pack_vp_batch_frame`
    — the exact bytes an upgraded client puts on the wire, which the
    authority routes and stores without decoding a body.  Frames never
    span minutes, so per-minute ingest assertions stay exact.
    """
    if not 1 <= batch_vps <= MAX_VP_BATCH:
        raise SimulationError(f"batch_vps must be in [1, {MAX_VP_BATCH}]")
    pending: list[ViewProfile] = []
    current = 0
    for minute, vp in iter_minute_vps(n_vehicles, minutes, seed=seed, area_m=area_m):
        if minute != current and pending:
            yield MinuteFrame(current, len(pending), pack_vp_batch_frame(pending))
            pending = []
        current = minute
        pending.append(vp)
        if len(pending) == batch_vps:
            yield MinuteFrame(current, len(pending), pack_vp_batch_frame(pending))
            pending = []
    if pending:
        yield MinuteFrame(current, len(pending), pack_vp_batch_frame(pending))

