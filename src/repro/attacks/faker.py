"""Forging standalone fake view profiles.

A fake VP cheats location and/or time: its 60 VDs carry fabricated
trajectories and random hash fields.  Fakes forged in isolation are
excluded from viewmaps immediately — they cannot pass the *two-way* Bloom
test against any honest VP because honest vehicles never heard their VDs.
These forgeries feed the system-level rejection tests.
"""

from __future__ import annotations

import random

from repro.constants import HASH_BYTES
from repro.core.viewdigest import ViewDigest, make_secret, vp_id_from_secret
from repro.core.viewprofile import ViewProfile
from repro.crypto.bloom import BloomFilter
from repro.geo.geometry import Point
from repro.util.encoding import f32round
from repro.util.rng import derive_seed, make_rng
from repro.util.timeline import minute_start


def forge_fake_vp(
    minute: int,
    claimed_path: list[Point],
    claim_neighbors: list[ViewProfile] | None = None,
    seed: int | random.Random = 0,
) -> ViewProfile:
    """Forge a VP claiming the given trajectory during ``minute``.

    ``claim_neighbors`` optionally poisons the forged Bloom filter with
    honest VPs' digests — the *one-way* half of a linkage claim.  The
    two-way check still fails because the honest side never heard the
    forged VDs, which is exactly what the tests assert.

    Seeding follows the ``repro.attacks`` convention (collusion,
    concentration, poisoning): an int ``seed`` is stretched through
    :func:`~repro.util.rng.derive_seed` with the module label and the
    claimed minute, so campaign grids mixing attack modules stay
    reproducible from one master seed.  Pass a ``random.Random`` to
    drive several forgeries from a single stream.
    """
    if isinstance(seed, random.Random):
        rng = seed
    else:
        rng = make_rng(derive_seed(seed, "faker", minute))
    secret = make_secret(rng)
    vp_id = vp_id_from_secret(secret)
    base_t = minute_start(minute)
    n = 60
    start = claimed_path[0]
    initial = (f32round(start.x), f32round(start.y))
    digests = []
    file_size = 0
    for i in range(1, n + 1):
        frac = (i - 1) / max(n - 1, 1)
        idx = min(int(frac * (len(claimed_path) - 1)), len(claimed_path) - 2)
        local = frac * (len(claimed_path) - 1) - idx if len(claimed_path) > 1 else 0.0
        if len(claimed_path) == 1:
            p = claimed_path[0]
        else:
            a, b = claimed_path[idx], claimed_path[idx + 1]
            p = Point(a.x + local * (b.x - a.x), a.y + local * (b.y - a.y))
        file_size += rng.randint(700_000, 1_000_000)
        digests.append(
            ViewDigest(
                second_index=i,
                t=float(base_t + i),
                location=(f32round(p.x), f32round(p.y)),
                file_size=file_size,
                initial_location=initial,
                vp_id=vp_id,
                chain_hash=rng.getrandbits(HASH_BYTES * 8).to_bytes(HASH_BYTES, "big"),
            )
        )
    bloom = BloomFilter()
    for neighbor in claim_neighbors or []:
        keys = neighbor.bloom_keys()
        bloom.add(keys[0])
        bloom.add(keys[-1])
    return ViewProfile(digests=digests, bloom=bloom)
