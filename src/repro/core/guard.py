"""Guard VPs: decoy profiles that obfuscate trajectories (Section 5.1.2).

At the end of each recording minute a vehicle picks ceil(alpha * m) of its
m neighbours and fabricates, for each, a guard VP whose trajectory starts
at that neighbour's minute-start position (L_x1, logged in its VDs) and
ends at the vehicle's own final position, following a plausible driving
route.  Guard VDs are variably spaced along the route and carry random
hash fields; guard and actual VPs insert each other's VDs into their
Bloom filters so guards join viewmaps like any legitimate VP.

From the system's perspective guard and actual VPs are indistinguishable;
vehicles delete guards from local storage after upload, so a solicited
guard VP can never produce a video.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.constants import GUARD_ALPHA, HASH_BYTES
from repro.core.neighbors import NeighborRecord
from repro.core.viewdigest import (
    PACKED_DIGEST_DTYPE,
    PackedDigests,
    make_secret,
    vp_id_from_secret,
    write_packed_rows,
)
from repro.core.viewprofile import ViewProfile
from repro.crypto.bloom import BloomFilter
from repro.geo.geometry import Point
from repro.geo.routing import route_polyline
from repro.util.rng import make_rng

#: A routing callable: (start, end) -> polyline of Points along roads.
RouteFn = Callable[[Point, Point], list[Point]]


def straight_route(start: Point, end: Point) -> list[Point]:
    """Fallback route when no road network is available: a straight line."""
    return [start, end]


def _variable_fractions(n: int, rng: random.Random, margin: float = 0.5) -> list[float]:
    """Monotone arc-length fractions with variable spacing.

    Weights are drawn uniformly from [1-margin, 1+margin] so consecutive
    VDs are "variably spaced (within the predefined margin)" as the paper
    requires — perfectly even spacing would fingerprint guards.
    """
    weights = [rng.uniform(1.0 - margin, 1.0 + margin) for _ in range(n)]
    total = sum(weights)
    acc = 0.0
    fractions = []
    for w in weights:
        acc += w
        fractions.append(acc / total)
    return fractions


@dataclass
class GuardVPFactory:
    """Creates guard VPs for an actual VP and its neighbour records."""

    route_fn: RouteFn = straight_route
    alpha: float = GUARD_ALPHA
    bytes_per_second: int = 870_000   #: plausible dashcam bitrate (~50 MB/min)
    rng: random.Random = field(default_factory=random.Random)

    @classmethod
    def with_seed(cls, seed: int, **kwargs) -> "GuardVPFactory":
        """Construct with a deterministic random stream."""
        return cls(rng=make_rng(seed), **kwargs)

    def pick_count(self, n_neighbors: int) -> int:
        """How many guards to create: ceil(alpha * m), 0 when no neighbours."""
        if n_neighbors <= 0:
            return 0
        return math.ceil(self.alpha * n_neighbors)

    def create_guards(
        self,
        actual_vp: ViewProfile,
        neighbor_records: list[NeighborRecord],
    ) -> list[ViewProfile]:
        """Produce guard VPs and cross-link them with the actual VP.

        Mutates ``actual_vp.bloom`` to insert the guards' first/last VDs,
        mirroring "A makes neighborship between guard and actual VPs by
        inserting their VDs into each other's Bloom filter bit-arrays".
        """
        m = len(neighbor_records)
        count = self.pick_count(m)
        if count == 0:
            return []
        chosen = self.rng.sample(neighbor_records, min(count, m))
        guards = []
        for record in chosen:
            guard = self._build_guard(actual_vp, Point(*record.initial_location))
            guards.append(guard)
            # two-way neighbourship between guard and actual VP
            keys = guard.bloom_keys()
            actual_vp.bloom.add(keys[0])
            actual_vp.bloom.add(keys[-1])
        return guards

    def _build_guard(self, actual_vp: ViewProfile, start: Point) -> ViewProfile:
        """Fabricate one guard VP from ``start`` to the actual VP's end."""
        end = actual_vp.end_point
        polyline = self.route_fn(start, end)
        n_samples = actual_vp.n_digests
        fractions = _variable_fractions(n_samples, self.rng)
        points = route_polyline(polyline, fractions)
        # anchor the first VD at the neighbour's logged initial location
        points[0] = start

        vp_id = vp_id_from_secret(make_secret(self.rng))
        file_size = 0
        file_sizes = []
        hashes = bytearray()
        for _ in range(n_samples):
            file_size += int(self.bytes_per_second * self.rng.uniform(0.9, 1.1))
            file_sizes.append(file_size)
            hashes += self.rng.getrandbits(HASH_BYTES * 8).to_bytes(HASH_BYTES, "big")
        block = np.zeros(n_samples, dtype=PACKED_DIGEST_DTYPE)
        positions = [p.to_tuple() for p in points]
        write_packed_rows(block, 0, vp_id, actual_vp.times_array, positions, file_sizes)
        block["chain_hash"] = np.frombuffer(hashes, dtype=np.uint8).reshape(-1, HASH_BYTES)
        bloom = BloomFilter()
        keys = actual_vp.bloom_keys()
        bloom.add(keys[0])
        bloom.add(keys[-1])
        return ViewProfile(PackedDigests(block.tobytes()), bloom)


def guard_coverage_probability(alpha: float, m: int, t_minutes: int) -> float:
    """P_t from Section 6.2.2: chance some vehicle is never covered by time t.

    P_t = [1 - {1 - (1-alpha)^m}^m]^t.  The paper picks alpha=0.1 because it
    pushes P_t below 0.01 within 5 minutes of driving.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    if m <= 0:
        return 1.0
    uncovered_by_one = (1.0 - alpha) ** m
    covered_by_any = (1.0 - uncovered_by_one) ** m
    return (1.0 - covered_by_any) ** t_minutes
