"""Viewmap construction (Section 5.2.1).

A viewmap for minute ``t`` is an undirected graph over the VPs whose
claimed locations fall inside a coverage area spanning the investigation
site and the nearest trusted VPs.  Edges (*viewlinks*) join pairs that

1. have time-aligned claimed locations within DSRC radius of each other
   (location proximity — precludes long-distance edges), and
2. pass the *two-way* Bloom membership test: some VD of each VP appears
   in the other's Bloom filter (mutual linkage — precludes edges forged
   by only one side).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

import networkx as nx

from repro.constants import DSRC_RANGE_M
from repro.core.viewprofile import ViewProfile
from repro.crypto.bloom import bloom_positions
from repro.errors import ValidationError
from repro.geo.geometry import Point, Rect


def mutual_linkage(a: ViewProfile, b: ViewProfile) -> bool:
    """Two-way neighbourship test between two VPs (Section 5.2.1).

    "If none of the element VDs (of either VPs) passes the Bloom filter
    test, they are not mutual neighbor VPs" — both directions must pass.
    """
    return a.may_link_to(b) and b.may_link_to(a)


def _aligned_within_range(
    a: ViewProfile, b: ViewProfile, radius_m: float
) -> bool:
    """Any time-aligned pair of claimed locations within ``radius_m``?

    VDs are time-stamped on a shared GPS clock; we align on integer
    seconds and compare positions where both VPs have samples.
    """
    ta = a.times_array.astype(np.int64)
    tb = b.times_array.astype(np.int64)
    common, ia, ib = np.intersect1d(ta, tb, return_indices=True)
    if common.size == 0:
        return False
    pa = a.positions_array[ia]
    pb = b.positions_array[ib]
    d2 = np.sum((pa - pb) ** 2, axis=1)
    return bool(np.any(d2 <= radius_m * radius_m))


@dataclass
class ViewMapGraph:
    """A constructed viewmap: VPs as nodes, viewlinks as edges."""

    minute: int
    graph: nx.Graph = field(default_factory=nx.Graph)
    profiles: dict[bytes, ViewProfile] = field(default_factory=dict)

    def add_profile(self, vp: ViewProfile) -> None:
        """Add a member VP as an (initially isolated) node."""
        self.profiles[vp.vp_id] = vp
        self.graph.add_node(vp.vp_id, trusted=vp.trusted)

    def add_viewlink(self, a: bytes, b: bytes) -> None:
        """Create the undirected viewlink between two member VPs."""
        if a not in self.profiles or b not in self.profiles:
            raise ValidationError("both endpoints must be viewmap members")
        self.graph.add_edge(a, b)

    @property
    def node_count(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def edge_count(self) -> int:
        return self.graph.number_of_edges()

    def trusted_ids(self) -> list[bytes]:
        """VP ids of the trusted seeds present in this viewmap."""
        return [n for n, data in self.graph.nodes(data=True) if data.get("trusted")]

    def members_near(self, center: Point, radius_m: float) -> list[bytes]:
        """VP ids claiming any location within ``radius_m`` of ``center``."""
        return [
            vp_id
            for vp_id, vp in self.profiles.items()
            if vp.claims_location_near(center, radius_m)
        ]

    def isolated_ids(self) -> list[bytes]:
        """Members without a single viewlink (paper: <3% in practice)."""
        return [n for n in self.graph.nodes if self.graph.degree(n) == 0]

    def member_ratio(self) -> float:
        """Fraction of members that are connected to the viewmap (Fig 22f)."""
        if self.node_count == 0:
            return 0.0
        return 1.0 - len(self.isolated_ids()) / self.node_count

    def degree_stats(self) -> dict[str, float]:
        """Simple structural summary used by the Fig 21 bench."""
        degrees = [d for _, d in self.graph.degree()]
        if not degrees:
            return {"nodes": 0, "edges": 0, "avg_degree": 0.0, "components": 0}
        return {
            "nodes": self.node_count,
            "edges": self.edge_count,
            "avg_degree": sum(degrees) / len(degrees),
            "components": nx.number_connected_components(self.graph),
        }


def coverage_area(
    site: Point, trusted_vps: list[ViewProfile], margin_m: float = 500.0
) -> Rect:
    """The viewmap coverage area C: spans the site and the trusted VPs.

    The paper notes C is "normally much larger than the investigation
    site" because police cars are rarely adjacent to the incident.
    """
    xs = [site.x]
    ys = [site.y]
    for vp in trusted_vps:
        x_min, y_min, x_max, y_max = vp.bounding_box
        xs.extend([x_min, x_max])
        ys.extend([y_min, y_max])
    return Rect(
        x_min=min(xs) - margin_m,
        y_min=min(ys) - margin_m,
        x_max=max(xs) + margin_m,
        y_max=max(ys) + margin_m,
    )


def build_viewmap(
    profiles: list[ViewProfile],
    minute: int,
    area: Rect | None = None,
    radius_m: float = DSRC_RANGE_M,
    skip_bloom_check: bool = False,
) -> ViewMapGraph:
    """Construct the viewmap for one minute from candidate VPs.

    ``profiles`` should already be filtered to the target minute (the VP
    database does that); ``area`` optionally restricts membership to the
    coverage area C.  Edge discovery runs one KD-tree query per second so
    only genuinely time-aligned proximate pairs reach the (more expensive)
    mutual Bloom validation.  ``skip_bloom_check`` exists for synthetic
    graph experiments where profiles carry no real Blooms.
    """
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

    candidate_pairs = _candidate_pairs(members, radius_m)
    key_positions: dict[bytes, list[tuple[int, ...]]] = {}
    if not skip_bloom_check:
        for vp in members:
            key_positions[vp.vp_id] = [
                bloom_positions(key, vp.bloom.k, vp.bloom.m_bits)
                for key in vp.bloom_keys()
            ]

    for i, j in candidate_pairs:
        a, b = members[i], members[j]
        if not _aligned_within_range(a, b, radius_m):
            continue
        if skip_bloom_check:
            vmap.add_viewlink(a.vp_id, b.vp_id)
            continue
        a_has_b = any(
            a.bloom.contains_positions(pos) for pos in key_positions[b.vp_id]
        )
        if not a_has_b:
            continue
        b_has_a = any(
            b.bloom.contains_positions(pos) for pos in key_positions[a.vp_id]
        )
        if b_has_a:
            vmap.add_viewlink(a.vp_id, b.vp_id)
    return vmap


def _candidate_pairs(
    members: list[ViewProfile], radius_m: float
) -> set[tuple[int, int]]:
    """Pairs with some time-aligned sample within range (KD-tree sweep)."""
    times = sorted(
        {int(t) for vp in members for t in (vp.times_array[0], vp.times_array[-1])}
    )
    # sample a handful of aligned seconds: start, quarter points, end
    all_seconds = sorted(
        {int(t) for vp in members for t in vp.times_array.astype(np.int64)}
    )
    probe_step = max(1, len(all_seconds) // 12)
    probe_seconds = all_seconds[::probe_step] or times
    # Inflate the probe radius so pairs that dip into range between probe
    # instants still become candidates (~20 m/s * probe gap each, 2 cars).
    slack_m = 2 * 20.0 * probe_step
    pairs: set[tuple[int, int]] = set()
    for sec in probe_seconds:
        pts = []
        idxs = []
        for index, vp in enumerate(members):
            ts = vp.times_array
            if ts[0] <= sec <= ts[-1]:
                pts.append(tuple(vp.trajectory.at(float(sec))))
                idxs.append(index)
        if len(pts) < 2:
            continue
        tree = cKDTree(np.asarray(pts))
        for ii, jj in tree.query_pairs(radius_m + slack_m):
            a, b = idxs[ii], idxs[jj]
            pairs.add((min(a, b), max(a, b)))
    return pairs
