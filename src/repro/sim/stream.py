"""Constant-memory streaming load generator for ingest experiments.

The full-fidelity runner (:mod:`repro.sim.runner`) materializes the
whole simulation before anything is ingested: every VP of every minute
lives in ``SimulationResult.vps_by_minute`` at once, because linkage
experiments need ground truth attached to the complete corpus.  That is
the wrong shape for *load* experiments — driving a million-vehicle
upload burst through the authority should not require a million VPs in
RAM first.

This module streams instead.  :func:`iter_minute_frames` yields a
fleet's upload burst as zero-decode ``upload_vp_batch`` frames, each
written by :func:`stream_frame` straight into one array of
:data:`~repro.store.codec.RECORD_DTYPE` records: one pass
fills every digest column of the frame, one loop runs every VP's
cascaded chain, and the rule table runs once over the frame — no
:class:`ViewProfile` exists on that path.  :func:`iter_minute_vps`
lazily yields the same VPs as objects, one :func:`stream_vp` each.
Peak memory is one frame's records (``batch_vps`` of them),
independent of ``n_vehicles * minutes`` — the knob a load test scales
into the millions.

Determinism: every VP is a pure function of ``(seed, minute, vehicle)``
via :func:`~repro.util.rng.derive_seed`, drawn and filled by the one
routine both paths share, so a frame is byte-equal to encoding the
:func:`stream_vp` VPs it carries, two streams with the same arguments
produce byte-identical frames and disjoint seeds produce disjoint VP
ids — runs are reproducible and populations never collide across tags.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.constants import VD_MESSAGE_BYTES, VIDEO_UNIT_SECONDS
from repro.core.vehicle import VehicleAgent
from repro.core.viewdigest import (
    PACKED_DIGEST_DTYPE,
    PackedDigests,
    digest_in_reach,
    first_defect,
    make_secret,
    packed_block_defect,
    packed_chain_heads,
    packed_columns,
    vp_id_from_secret,
    write_packed_rows,
)
from repro.core.viewprofile import ViewProfile
from repro.crypto.bloom import BloomFilter
from repro.errors import SimulationError, ValidationError
from repro.geo.geometry import Point
from repro.net.messages import MAX_VP_BATCH
from repro.store.codec import (
    FRAME_BODY_BYTES,
    RECORD_DTYPE,
    VP_BLOB_VERSION,
    frame_header,
    record_minute,
)
from repro.util.rng import derive_seed

#: default city edge length the streamed fleet drives inside, metres
DEFAULT_AREA_M = 10_000.0

#: default VPs per upload frame — a vehicle's typical pending backlog,
#: well under the protocol's MAX_VP_BATCH bound
DEFAULT_BATCH_VPS = 16

#: 0-based seconds of one recording minute (a complete, wire-eligible VP)
_SECONDS = np.arange(VIDEO_UNIT_SECONDS, dtype=np.float64)

#: a streamed vehicle's offset from its start, second by second: 2 m/s
#: along x (a start is never -0.0, so adding 0.0 keeps y bit for bit)
_DRIFT = np.stack([2.0 * _SECONDS, np.zeros(VIDEO_UNIT_SECONDS)], axis=-1)

#: a streamed minute's video: one content chunk a second, and the file
#: size after each
_CHUNKS = [b"chunk"] * VIDEO_UNIT_SECONDS
_FILE_SIZES = np.cumsum([len(chunk) for chunk in _CHUNKS])


@dataclass(frozen=True)
class MinuteFrame:
    """One streamed upload frame: a minute's slice of the fleet."""

    minute: int
    n_vps: int
    frame: bytes


def _record(
    digests: np.ndarray, seed: int, minute: int, vehicles: Sequence[int], area_m: float
) -> None:
    """Record each vehicle's minute into its row of ``digests``, a
    ``(len(vehicles), 60)`` array of packed digests, every column.

    A vehicle starts each minute at a seed-derived city position and
    drives a short straight segment, one position a second — the
    cheapest trajectory that still produces genuine hash chains and
    bounding boxes (the parts ingest cost depends on).  The draws are
    per vehicle; the columns are filled and the chains run once for
    all of them.
    """
    origins, ids = [], []
    for vehicle in vehicles:
        rng = random.Random(derive_seed(seed, "stream-pos", minute, vehicle))
        origins.append((rng.uniform(0.0, area_m), rng.uniform(0.0, area_m)))
        secret = make_secret(derive_seed(seed, "stream-vp", minute, vehicle))
        ids.append(vp_id_from_secret(secret))
    positions = np.array(origins).reshape(-1, 1, 2) + _DRIFT
    times = minute * float(VIDEO_UNIT_SECONDS) + _SECONDS + 1
    write_packed_rows(digests, 0, b"".join(ids), times, positions, _FILE_SIZES)
    heads = b"".join(packed_chain_heads(digests, ids, _CHUNKS))
    digests["chain_hash"] = np.frombuffer(heads, dtype=np.uint8).reshape(digests.shape + (-1,))


def stream_vp(seed: int, minute: int, vehicle: int, area_m: float) -> ViewProfile:
    """One complete 60-digest VP for a (vehicle, minute) of the stream,
    with an empty Bloom filter (streamed VPs hear no neighbours)."""
    digests = np.empty((1, VIDEO_UNIT_SECONDS), dtype=PACKED_DIGEST_DTYPE)
    _record(digests, seed, minute, (vehicle,), area_m)
    return ViewProfile(PackedDigests(digests.tobytes()), BloomFilter())


def stream_frame(seed: int, minute: int, vehicles: Sequence[int], area_m: float) -> bytes:
    """The ``upload_vp_batch`` frame of ``vehicles``' VPs of ``minute``.

    Byte-equal to encoding their :func:`stream_vp` VPs as one batch,
    and refused as that would be: a VP breaking a digest rule is the
    :class:`ValidationError` its construction raises, and a minute past
    the record's 4-byte field the :class:`WireFormatError` of
    :func:`~repro.store.codec.record_minute` — raised whole, so no
    partial frame is ever returned.
    """
    records = np.zeros(len(vehicles), dtype=RECORD_DTYPE)
    digests = records["digests"]
    _record(digests, seed, minute, vehicles, area_m)
    defect = first_defect(packed_block_defect(digests))
    if defect is not None:
        raise ValidationError(defect[1])
    records["minute"] = [record_minute(t0) for t0 in digests["t"][:, 0].tolist()]
    x, y = digests["location"][..., 0], digests["location"][..., 1]
    records["bbox"] = np.stack([x.min(-1), y.min(-1), x.max(-1), y.max(-1)], axis=-1)
    records["vp_id"] = digests["vp_id"][:, 0]
    records["body_len"] = FRAME_BODY_BYTES
    records["version"] = VP_BLOB_VERSION
    records["bloom_k"] = BloomFilter.k
    records["block_len"] = VIDEO_UNIT_SECONDS * VD_MESSAGE_BYTES
    return frame_header(len(records)) + records.tobytes()


def _first_and_last_heard(
    digests: PackedDigests, times: list[float], track: list[Point], max_range_m: float
) -> set[int]:
    """Seconds of the first and the last of a peer's broadcasts that a
    receiver driving ``track`` accepts — all a neighbour table keeps.
    Scanned from either end of the minute, each probe reading the
    peer's time and location columns: no digest is unpacked."""
    fields = packed_columns(digests.block)
    peer_t, peer_xy = fields["t"].tolist(), fields["location"].tolist()

    def heard(s: int) -> bool:
        return digest_in_reach(peer_t[s], *peer_xy[s], times[s], track[s], max_range_m)

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
    _check_fleet(n_vehicles, minutes)
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

    Each yielded :class:`MinuteFrame` carries up to ``batch_vps``
    vehicles of one minute, in :func:`iter_minute_vps` order, as the
    :func:`stream_frame` bytes an upgraded client puts on the wire,
    which the authority routes and stores without decoding a body.
    Frames never span minutes, so per-minute ingest assertions stay
    exact.
    """
    if not 1 <= batch_vps <= MAX_VP_BATCH:
        raise SimulationError(f"batch_vps must be in [1, {MAX_VP_BATCH}]")
    _check_fleet(n_vehicles, minutes)
    for minute in range(minutes):
        for first in range(0, n_vehicles, batch_vps):
            vehicles = range(first, min(first + batch_vps, n_vehicles))
            yield MinuteFrame(minute, len(vehicles), stream_frame(seed, minute, vehicles, area_m))


def _check_fleet(n_vehicles: int, minutes: int) -> None:
    if n_vehicles < 1 or minutes < 1:
        raise SimulationError("streaming needs n_vehicles >= 1 and minutes >= 1")
