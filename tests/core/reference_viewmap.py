"""The per-pair, object-by-object viewmap construction, kept as the oracle.

Until ``build_viewmap`` ran on the members' stacked digest columns this
was it: a ``Trajectory`` per member interpolated in Python at every
probe second, a set of candidate index pairs, an ``np.intersect1d`` per
candidate, and per-key Bloom bit positions tested bit by bit.  Nothing
here calls the code that replaced it (the helpers of
``repro.core.viewmap``, ``key_positions``, ``unpacked_bits``), so the
columnar path is compared against an independent definition.

One deliberate difference from what ``src/`` held: a key's bit
positions are derived under the geometry of the filter they are tested
against, where the old code used the key owner's own (wrong whenever
two members' filters differ, see ``test_viewmap_columns.py``).
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.constants import DSRC_RANGE_M
from repro.core.viewmap import ViewMapGraph
from repro.core.viewprofile import ViewProfile
from repro.crypto.bloom import BloomFilter, _bit_positions
from repro.geo.geometry import Point, Rect
from repro.geo.trajectory import Trajectory


def reference_trajectory(vp: ViewProfile) -> Trajectory:
    return Trajectory(
        times=vp.times_array.tolist(),
        points=[Point(x, y) for x, y in vp.positions_array.tolist()],
    )


def reference_aligned_within_range(a: ViewProfile, b: ViewProfile, radius_m: float) -> bool:
    """Any time-aligned pair of claimed locations within ``radius_m``?"""
    ta = a.times_array.astype(np.int64)
    tb = b.times_array.astype(np.int64)
    common, ia, ib = np.intersect1d(ta, tb, return_indices=True)
    if common.size == 0:
        return False
    pa = a.positions_array[ia]
    pb = b.positions_array[ib]
    d2 = np.sum((pa - pb) ** 2, axis=1)
    return bool(np.any(d2 <= radius_m * radius_m))


def reference_candidate_pairs(members: list[ViewProfile], radius_m: float) -> set[tuple[int, int]]:
    """Pairs with some time-aligned sample within range (KD-tree sweep)."""
    all_seconds = sorted({int(t) for vp in members for t in vp.times_array.astype(np.int64)})
    probe_step = max(1, len(all_seconds) // 12)
    probe_seconds = all_seconds[::probe_step]
    slack_m = 2 * 20.0 * probe_step
    trajectories: dict[int, Trajectory] = {}
    pairs: set[tuple[int, int]] = set()
    for sec in probe_seconds:
        pts = []
        idxs = []
        for index, vp in enumerate(members):
            ts = vp.times_array
            if ts[0] <= sec <= ts[-1]:
                if index not in trajectories:
                    trajectories[index] = reference_trajectory(vp)
                pts.append(tuple(trajectories[index].at(float(sec))))
                idxs.append(index)
        if len(pts) < 2:
            continue
        tree = cKDTree(np.asarray(pts))
        for ii, jj in tree.query_pairs(radius_m + slack_m):
            a, b = idxs[ii], idxs[jj]
            pairs.add((min(a, b), max(a, b)))
    return pairs


def _contains_positions(bloom: BloomFilter, positions: list[int]) -> bool:
    bits = bloom._bits
    return all(bits[pos >> 3] & (1 << (pos & 7)) for pos in positions)


def _holds_any_key(tested: ViewProfile, keyed: ViewProfile) -> bool:
    bloom = tested.bloom
    return any(
        _contains_positions(bloom, _bit_positions(key, bloom.k, bloom.m_bits))
        for key in keyed.bloom_keys()
    )


def reference_build_viewmap(
    profiles: list[ViewProfile],
    minute: int,
    area: Rect | None = None,
    radius_m: float = DSRC_RANGE_M,
    skip_bloom_check: bool = False,
) -> ViewMapGraph:
    vmap = ViewMapGraph(minute=minute)
    members = []
    for vp in profiles:
        if vp.minute != minute:
            continue
        if area is not None:
            pos = vp.positions_array
            inside = (
                (pos[:, 0] >= area.x_min)
                & (pos[:, 0] <= area.x_max)
                & (pos[:, 1] >= area.y_min)
                & (pos[:, 1] <= area.y_max)
            )
            if not bool(np.any(inside)):
                continue
        members.append(vp)
        vmap.add_profile(vp)
    if len(members) < 2:
        return vmap

    for i, j in reference_candidate_pairs(members, radius_m):
        a, b = members[i], members[j]
        if not reference_aligned_within_range(a, b, radius_m):
            continue
        if skip_bloom_check or (_holds_any_key(a, b) and _holds_any_key(b, a)):
            vmap.add_viewlink(a.vp_id, b.vp_id)
    return vmap
