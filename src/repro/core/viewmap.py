"""Viewmap construction (Section 5.2.1).

A viewmap for minute ``t`` is an undirected graph over the VPs whose
claimed locations fall inside a coverage area spanning the investigation
site and the nearest trusted VPs.  Edges (*viewlinks*) join pairs that

1. have time-aligned claimed locations within DSRC radius of each other
   (location proximity — precludes long-distance edges), and
2. pass the *two-way* Bloom membership test: some VD of each VP appears
   in the other's Bloom filter (mutual linkage — precludes edges forged
   by only one side).

Construction reads a frame's ``(members, 60)`` record columns
(:class:`~repro.store.codec.RecordColumns`): membership, the proximity
sweep, the time-aligned range test and the Bloom test are array
operations over all members or all surviving pairs, in passes of bounded
size.  No :class:`ViewProfile` is built, nothing is cached in a module,
and numpy is all it needs: a grid pair search, a plain :class:`ViewLinks`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable

import numpy as np

from repro.constants import BLOOM_BITS, DSRC_RANGE_M, VD_MESSAGE_BYTES, VIDEO_UNIT_SECONDS
from repro.core.viewprofile import ViewProfile
from repro.crypto.bloom import key_positions
from repro.errors import ValidationError
from repro.geo.geometry import Point, Rect
from repro.store.codec import RecordColumns


def mutual_linkage(a: ViewProfile, b: ViewProfile) -> bool:
    """Two-way neighbourship test between two VPs (Section 5.2.1).

    "If none of the element VDs (of either VPs) passes the Bloom filter
    test, they are not mutual neighbor VPs" — both directions must pass.
    """
    return a.may_link_to(b) and b.may_link_to(a)


class ViewLinks:
    """An undirected graph as insertion-ordered adjacency.

    The slice of ``networkx.Graph`` that viewmaps, TrustRank and the
    attack models use, with its orders (nodes as first added, a node's
    neighbours as linked) and its self-loop degree of two, so either
    type can stand in for the other.
    """

    def __init__(self) -> None:
        self._adj: dict[Hashable, dict[Hashable, None]] = {}

    def add_node(self, node: Hashable) -> None:
        self._adj.setdefault(node, {})

    def add_edge(self, a: Hashable, b: Hashable) -> None:
        self.add_node(a)
        self.add_node(b)
        self._adj[a][b] = self._adj[b][a] = None

    @property
    def nodes(self):
        return self._adj.keys()

    @property
    def edges(self) -> list[tuple[Hashable, Hashable]]:
        """Every link once, from its earlier-added end."""
        rank = {node: i for i, node in enumerate(self._adj)}
        return [(a, b) for a, nbrs in self._adj.items() for b in nbrs if rank[a] <= rank[b]]

    def neighbors(self, node: Hashable) -> Iterable[Hashable]:
        return self._adj[node].keys()

    def degree(self, node: Hashable) -> int:
        return len(self._adj[node]) + (node in self._adj[node])

    def has_edge(self, a: Hashable, b: Hashable) -> bool:
        return b in self._adj.get(a, ())

    def number_of_nodes(self) -> int:
        return len(self._adj)

    def number_of_edges(self) -> int:
        return sum(map(self.degree, self._adj)) // 2

    def number_connected_components(self) -> int:
        reached: set[Hashable] = set()
        components = 0
        for start in self._adj:
            components += start not in reached
            frontier = [start]
            while frontier:
                node = frontier.pop()
                if node not in reached:
                    reached.add(node)
                    frontier.extend(self._adj[node])
        return components


@dataclass
class ViewMapGraph:
    """A constructed viewmap (by :func:`build_viewmap`): VPs as nodes, viewlinks as edges."""

    minute: int
    graph: ViewLinks
    #: the members' record columns, row ``i`` the ``i``-th node
    members: RecordColumns = field(repr=False)

    @property
    def node_count(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def edge_count(self) -> int:
        return self.graph.number_of_edges()

    def trusted_ids(self) -> list[bytes]:
        """VP ids of the trusted seeds present in this viewmap."""
        return [vp_id for vp_id, seed in zip(self.members.ids, self.members.trusted) if seed]

    def members_near(self, center: Point, radius_m: float) -> list[bytes]:
        """VP ids claiming any location within ``radius_m`` of ``center``."""
        dx = self.members.xy[..., 0] - center.x
        dy = self.members.xy[..., 1] - center.y
        near = ((dx * dx + dy * dy <= radius_m * radius_m) & self.members.held).any(axis=1)
        return [vp_id for vp_id, hit in zip(self.members.ids, near.tolist()) if hit]

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
        degrees = [self.graph.degree(n) for n in self.graph.nodes]
        if not degrees:
            return {"nodes": 0, "edges": 0, "avg_degree": 0.0, "components": 0}
        return {
            "nodes": self.node_count,
            "edges": self.edge_count,
            "avg_degree": sum(degrees) / len(degrees),
            "components": self.graph.number_connected_components(),
        }


def coverage_area(site: Point, trusted: RecordColumns, margin_m: float = 500.0) -> Rect:
    """The viewmap coverage area C: spans the site and the trusted VPs.

    The paper notes C is "normally much larger than the investigation
    site" because police cars are rarely adjacent to the incident.
    """
    xy = np.vstack([[site.x, site.y], trusted.xy[trusted.held]])
    return Rect(*(xy.min(axis=0) - margin_m).tolist(), *(xy.max(axis=0) + margin_m).tolist())


def build_viewmap(
    frame: bytes | memoryview,
    minute: int,
    area: Rect | None = None,
    radius_m: float = DSRC_RANGE_M,
    skip_bloom_check: bool = False,
) -> ViewMapGraph:
    """Construct the viewmap for one minute from a codec frame of candidates.

    ``frame`` is what the VP database read (a ``QuerySpec(encoded=True)``
    result, normally already the target minute); ``area`` optionally
    restricts membership to the coverage area C.  Nodes keep the frame's
    record order (an id's first record, if one repeats), viewlinks are
    added in ascending member order.  ``skip_bloom_check`` exists for
    synthetic graph experiments where profiles carry no real Blooms.
    """
    cols = RecordColumns.from_frame(frame)
    keep = cols.minute == minute
    if area is not None:
        x, y = cols.xy[..., 0], cols.xy[..., 1]
        inside = (x >= area.x_min) & (x <= area.x_max) & (y >= area.y_min) & (y <= area.y_max)
        keep &= (inside & cols.held).any(axis=1)
    if not keep.all():
        cols = cols.take(np.flatnonzero(keep))
    graph = ViewLinks()
    for vp_id in cols.ids:
        graph.add_node(vp_id)
    vmap = ViewMapGraph(minute=minute, graph=graph, members=cols)
    if len(cols) < 2:
        return vmap

    seconds = np.unique(cols.t[cols.held].astype(np.int64))
    a, b = np.divmod(_candidate_codes(cols, seconds, radius_m), len(cols))
    linked = _aligned_within_range(cols, seconds, a, b, radius_m)
    a, b = a[linked], b[linked]
    if not skip_bloom_check:
        tests = _bloom_tests(cols, np.concatenate([a, b]), np.concatenate([b, a]))
        linked = tests[: len(a)] & tests[len(a) :]
        a, b = a[linked], b[linked]
    for i, j in zip(a.tolist(), b.tolist()):
        graph.add_edge(cols.ids[i], cols.ids[j])
    if len(cols) > graph.number_of_nodes():  # an id twice: its first row is its node
        first = {vp_id: row for row, vp_id in reversed(list(enumerate(cols.ids)))}
        vmap.members = cols.take(np.sort(list(first.values())))
    return vmap


#: pairs per pass of the time-alignment and Bloom stages: their
#: temporaries stay at this many pairs x 60 digests however many
#: candidates a dense population yields
_PAIR_CHUNK = 1024


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the first of every run of equal values."""
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return first


def _candidate_codes(cols: RecordColumns, seconds: np.ndarray, radius_m: float) -> np.ndarray:
    """Pairs close at some probe second, as sorted codes ``a * members + b``, a < b.

    One pair search per probe second (a dozen across the seconds the
    members cover) over the positions interpolated at that second, clamped and
    in the float64 expression of ``Trajectory.at``; the radius is
    inflated so that pairs which dip into range between probes still
    become candidates (~20 m/s * probe gap each, 2 cars).
    """
    held, t, xy = cols.held, cols.t, cols.xy
    first_t, last_t = t[:, 0], t[np.arange(len(t)), held.sum(axis=1) - 1]
    unordered = (held[:, 1:] & (t[:, 1:] <= t[:, :-1])).any(axis=1)
    probe_step = max(1, len(seconds) // 12)
    reach = radius_m + 2 * 20.0 * probe_step
    codes = np.empty(0, dtype=np.intp)
    for sec in seconds[::probe_step].tolist():
        s = float(sec)
        live = np.flatnonzero((first_t <= s) & (s <= last_t))
        if unordered[live].any():
            raise ValidationError("trajectory times must be strictly increasing")
        if live.size < 2:
            continue
        # last sample at or before s: exact there, interpolated past it
        at = (held[live] & (t[live] <= s)).sum(axis=1) - 1
        points = xy[live, at]
        between = t[live, at] < s
        m, r = live[between], at[between]
        frac = (s - t[m, r]) / (t[m, r + 1] - t[m, r])
        points[between] = xy[m, r] + frac[:, None] * (xy[m, r + 1] - xy[m, r])
        lower, upper = _pairs_within(points, reach)
        # merged probe by probe, so a dense population holds its pairs once
        # (sort + run starts: np.union1d hashes, 12x slower at these sizes)
        codes = np.concatenate([codes, live[lower] * len(t) + live[upper]])
        codes.sort()
        codes = codes[_run_starts(codes)]
    return codes


def _pairs_within(points: np.ndarray, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``i < j`` of ``(n, 2)`` points no further apart than ``reach``.

    A sorted-cell grid: points are keyed by their cell (``k = column *
    W + row``, ``W`` two more than the top row so that a neighbour key
    never wraps into another column), sorted once, and each point meets
    the forward half of its 3 x 3 neighbourhood — what follows it in
    cells ``[k, k + 1]`` and all of ``[k + W - 1, k + W + 1]`` — so every
    near pair is expanded once, then kept on its squared distance.
    """
    # cells a hair wider than reach: no rounding on the way to a cell
    # number can put a pair within reach two cells apart
    cell = np.floor((points - points.min(axis=0, initial=np.inf)) / (reach * (1 + 2.0**-16)))
    if cell.max(initial=0.0) >= 2.0**31:
        raise ValidationError("positions span more cells than one viewmap can key")
    cell = cell.astype(np.int64)
    width = int(cell[:, 1].max(initial=0)) + 2
    key = cell[:, 0] * width + cell[:, 1]
    order = np.argsort(key, kind="stable")
    key = key[order]
    x, y = points[order, 0], points[order, 1]
    rank = np.arange(len(key))
    start = np.concatenate([rank + 1, np.searchsorted(key, key + (width - 1))])
    count = np.searchsorted(key, np.concatenate([key + 2, key + (width + 2)])) - start
    first = np.repeat(np.concatenate([rank, rank]), count)
    # every range start, start + 1, ... laid end to end
    second = np.repeat(start - (np.cumsum(count) - count), count)
    second += np.arange(len(second))
    dx, dy = x[first] - x[second], y[first] - y[second]
    near = dx * dx + dy * dy <= reach * reach
    i, j = order[first[near]], order[second[near]]
    return np.minimum(i, j), np.maximum(i, j)


def _aligned_within_range(
    cols: RecordColumns, seconds: np.ndarray, a: np.ndarray, b: np.ndarray, radius_m: float
) -> np.ndarray:
    """Per pair: any time-aligned pair of claimed locations within ``radius_m``?

    VDs are time-stamped on a shared GPS clock; we align on integer
    seconds and compare positions where both VPs have samples, a second
    a VP repeats counting once, at its first digest.  Time values are
    the uploader's choice, so the lookup is a binary search in one
    sorted (member, second) index, never a table over the seconds.
    """
    stride = len(seconds)
    rank = np.searchsorted(seconds, cols.t.astype(np.int64))
    key = np.where(cols.held, np.arange(len(rank))[:, None] * stride + rank, -1).ravel()
    order = np.argsort(key, kind="stable")
    order = order[_run_starts(key[order]) & (key[order] >= 0)]
    index, index_xy = key[order], cols.xy.reshape(-1, 2)[order]
    own = np.full(key.shape, -1)
    own[order] = index
    own = own.reshape(cols.t.shape)  # a row's key where it is in the index, else -1
    aligned = np.zeros(len(a), dtype=bool)
    for lo in range(0, len(a), _PAIR_CHUNK):
        ca, cb = a[lo : lo + _PAIR_CHUNK], b[lo : lo + _PAIR_CHUNK]
        wanted = own[ca] + ((cb - ca) * stride)[:, None]  # the same second, at b
        at = np.minimum(np.searchsorted(index, wanted), len(index) - 1)
        d = cols.xy[ca] - index_xy[at]
        close = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1] <= radius_m * radius_m
        both = (own[ca] >= 0) & (index[at] == wanted)
        aligned[lo : lo + _PAIR_CHUNK] = (both & close).any(axis=1)
    return aligned


def bloom_keys(digests: np.ndarray) -> list[bytes]:
    """The Bloom key of each packed digest — its 72 wire bytes — sliced
    out of one copy of them all."""
    block = digests.tobytes()
    return [block[at : at + VD_MESSAGE_BYTES] for at in range(0, len(block), VD_MESSAGE_BYTES)]


def _bloom_tests(cols: RecordColumns, tester: np.ndarray, keyed: np.ndarray) -> np.ndarray:
    """Per test: does ``tester``'s Bloom hold any of ``keyed``'s digests?

    Bit positions are derived under the *tested* filter's hash count,
    as :func:`mutual_linkage` does, once per keyed member and only for
    those that got this far, and read out of the testers' unpacked bit
    arrays.  Every record holds one Bloom size, so tests are grouped by
    ``k`` alone; an upload declares one, so normally there is one group.
    """
    passed = np.zeros(len(tester), dtype=bool)
    for k in np.unique(cols.bloom_k[np.unique(tester)]).tolist():
        tests = np.flatnonzero(cols.bloom_k[tester] == k)
        tester_ids, tester_slot = np.unique(tester[tests], return_inverse=True)
        bits = np.unpackbits(cols.bloom[tester_ids], axis=1, bitorder="little")
        keyed_ids, keyed_slot = np.unique(keyed[tests], return_inverse=True)
        held = cols.held[keyed_ids]
        positions = np.zeros((len(keyed_ids), VIDEO_UNIT_SECONDS, k), dtype=np.intp)
        positions[held] = key_positions(bloom_keys(cols.digests[keyed_ids][held]), k, BLOOM_BITS)
        for lo in range(0, len(tests), _PAIR_CHUNK):
            chunk = tests[lo : lo + _PAIR_CHUNK]
            test, row = np.nonzero(cols.held[keyed[chunk]])
            for column in range(k):  # all k bits set: bit by bit, over the keys still in
                key_bit = positions[keyed_slot[lo + test], row, column]
                found = bits[tester_slot[lo + test], key_bit] == 1
                test, row = test[found], row[found]
            passed[chunk[test]] = True
    return passed
