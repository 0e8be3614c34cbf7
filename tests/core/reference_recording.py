"""The per-second, object-by-object recording, kept as the oracle.

Until ``VDGenerator`` recorded straight into its packed block this was
the vehicle side: every second a frozen :class:`ViewDigest` was built
from float32-rounded fields, the cascaded hash was extended over a
freshly concatenated ``T | L | F``, and a VP's block was the join of
60 ``pack()`` calls.  Nothing here calls the code that replaced it
(``VDGenerator``, ``chain_step``, ``packed_chain_heads``),
so the block-born path is compared against an independent definition.
"""

from __future__ import annotations

import hashlib

from repro.constants import HASH_BYTES, VIDEO_UNIT_SECONDS, VP_SECRET_BYTES
from repro.core.vehicle import VehicleAgent
from repro.core.viewdigest import ViewDigest
from repro.core.viewprofile import ViewProfile
from repro.errors import ValidationError
from repro.geo.geometry import Point
from repro.util.encoding import f32round, pack_float, pack_uint
from repro.util.rng import derive_seed


def reference_chain_step(
    t: float, location: tuple[float, float], file_size: int, head: bytes, chunk: bytes
) -> bytes:
    """``H(T | L | F | H_prev | chunk)[:16]``, fields packed one by one."""
    h = hashlib.sha256()
    h.update(
        pack_float(t)
        + pack_float(location[0])
        + pack_float(location[1])
        + pack_uint(file_size, 8)
    )
    h.update(head)
    h.update(chunk)
    return h.digest()[:HASH_BYTES]


class ReferenceGenerator:
    """``VDGenerator`` as it was: one ``ViewDigest`` object per tick."""

    def __init__(self, secret: bytes) -> None:
        if len(secret) != VP_SECRET_BYTES:
            raise ValidationError(f"secret must be {VP_SECRET_BYTES} bytes")
        self.secret = secret
        self.vp_id = hashlib.sha256(secret).digest()[:HASH_BYTES]
        self._head = self.vp_id
        self._initial_location: tuple[float, float] | None = None
        self._file_size = 0
        self.digests: list[ViewDigest] = []

    def tick(self, t: float, location: tuple[float, float], chunk: bytes) -> ViewDigest:
        if len(self.digests) >= VIDEO_UNIT_SECONDS:
            raise ValidationError("video already complete: 60 digests emitted")
        loc = (f32round(location[0]), f32round(location[1]))
        if self._initial_location is None:
            self._initial_location = loc
        self._file_size += len(chunk)
        self._head = reference_chain_step(t, loc, self._file_size, self._head, chunk)
        vd = ViewDigest(
            second_index=len(self.digests) + 1,
            t=t,
            location=loc,
            file_size=self._file_size,
            initial_location=self._initial_location,
            vp_id=self.vp_id,
            chain_hash=self._head,
        )
        self.digests.append(vd)
        return vd

    def block(self) -> bytes:
        """The minute as a VP stores it: every digest packed, joined."""
        return b"".join(vd.pack() for vd in self.digests)


def reference_validate_video_upload(digests: list[ViewDigest], chunks: list[bytes]) -> bool:
    """The upload check over unpacked digests, head by head."""
    if len(chunks) != len(digests):
        return False
    head = digests[0].vp_id
    for vd, chunk in zip(digests, chunks):
        head = reference_chain_step(vd.t, vd.location, vd.file_size, head, chunk)
        if head != vd.chain_hash:
            return False
    return True


def reference_convoy_vps(
    seed: int,
    minute: int,
    n_witnesses: int,
    site_xy: tuple[float, float],
    lateral_gap_m: float = 30.0,
    speed_mps: float = 5.0,
) -> tuple[ViewProfile, list[ViewProfile], dict[tuple[int, int], list[int]]]:
    """``stream_convoy_vps`` as it was: every agent emits every second and
    every other agent is offered every digest.

    Also returns, per ``(receiver, sender)``, the seconds whose digest
    the receiver accepted — so a test can tell a pair that was in range
    for part of the minute from one that always or never was.
    """
    agents = [
        VehicleAgent(vehicle_id=i, seed=derive_seed(seed, "convoy", minute))
        for i in range(n_witnesses + 1)
    ]
    x0 = site_xy[0] - 30.0 * speed_mps
    base = minute * 60.0
    accepted: dict[tuple[int, int], list[int]] = {}
    for second in range(60):
        t = base + second + 1.0
        positions = [
            Point(x0 + speed_mps * second, site_xy[1] + lateral_gap_m * i)
            for i in range(len(agents))
        ]
        digests = [agent.emit(t, pos, minute=minute) for agent, pos in zip(agents, positions)]
        for i, agent in enumerate(agents):
            for j, vd in enumerate(digests):
                if i != j and agent.receive(vd, t, positions[i]):
                    accepted.setdefault((i, j), []).append(second)
    results = [agent.finalize_minute() for agent in agents]
    return results[0].actual_vp, [r.actual_vp for r in results[1:]], accepted
