"""View profile verification: TrustRank over viewmaps (Section 5.2.2).

Trusted VPs act as trust seeds.  Scores propagate over the undirected
viewlink structure via the damped power iteration

    P = delta * M * P + (1 - delta) * d

where ``M`` is the column-stochastic transition matrix (a node's score is
split equally among its edges) and ``d`` puts all static mass on the
seeds.  Algorithm 1 then marks the highest-scored VP inside the
investigation site as legitimate, together with every site VP reachable
from it strictly through site VPs.

The module also exposes the analytic bounds of Section 6.3.1:
``lemma1_bound`` (score ceiling at link-distance L from the seeds) and
``lemma2_bound`` (ceiling on the *total* score of colluders' fake VPs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable

import numpy as np

from repro.constants import TRUSTRANK_DAMPING, TRUSTRANK_MAX_ITER, TRUSTRANK_TOL
from repro.core.viewmap import ViewLinks, ViewMapGraph
from repro.errors import ValidationError
from repro.geo.geometry import Point


def trustrank(
    graph: ViewLinks,
    seeds: Iterable[Hashable],
    damping: float = TRUSTRANK_DAMPING,
    tol: float = TRUSTRANK_TOL,
    max_iter: int = TRUSTRANK_MAX_ITER,
) -> dict[Hashable, float]:
    """Compute TrustRank scores for every node of an undirected graph.

    Seeds share the static distribution ``d`` equally (one listed twice
    counts once).  Unlike the web TrustRank, mass flows along *undirected*
    viewlinks, "divided equally among all adjacent edges".  Returns a dict
    node -> score; ``graph`` needs ``nodes`` / ``degree`` / ``neighbors``.
    """
    seeds = list(dict.fromkeys(seeds))
    if not seeds:
        raise ValidationError("trustrank needs at least one trusted seed")
    nodes = list(graph.nodes)
    if not nodes:
        return {}
    index = {node: i for i, node in enumerate(nodes)}
    for seed in seeds:
        if seed not in index:
            raise ValidationError("trusted seed is not a member of the graph")

    n = len(nodes)
    entries = []  # M as (row, column, value); M @ p sums a row's terms in this order
    for j, node in enumerate(nodes):
        deg = graph.degree(node)
        # a dangling node keeps its mass (self-loop), so an isolated
        # trusted VP retains trust instead of leaking it
        targets = [index[nbr] for nbr in graph.neighbors(node)] if deg else [j]
        entries.extend((i, j, 1.0 / max(deg, 1)) for i in targets)
    rows, cols, vals = map(np.array, zip(*entries))

    d = np.zeros(n)
    d[[index[seed] for seed in seeds]] = 1.0 / len(seeds)

    p = d.copy()
    for _ in range(max_iter):
        flow = np.bincount(rows, weights=vals * p[cols], minlength=n)
        p_next = damping * flow + (1.0 - damping) * d
        if np.abs(p_next - p).sum() < tol:
            p = p_next
            break
        p = p_next
    return {node: float(p[index[node]]) for node in nodes}


@dataclass
class VerificationResult:
    """Outcome of Algorithm 1 on one viewmap."""

    scores: dict[Hashable, float]
    site_members: list[Hashable]
    legitimate: set[Hashable] = field(default_factory=set)

    @property
    def top_site_vp(self) -> Hashable | None:
        """The highest-scored VP inside the investigation site."""
        if not self.site_members:
            return None
        return max(self.site_members, key=lambda n: self.scores.get(n, 0.0))

    def is_legitimate(self, node: Hashable) -> bool:
        """Whether Algorithm 1 marked the VP as legitimate."""
        return node in self.legitimate


def verify_site_members(
    graph: ViewLinks,
    seeds: list[Hashable],
    site_members: list[Hashable],
    damping: float = TRUSTRANK_DAMPING,
) -> VerificationResult:
    """Run Algorithm 1 on an arbitrary graph + site membership list.

    Marks the top-scored site VP legitimate, then floods legitimacy to
    every site VP reachable from it using only site VPs as intermediate
    hops ("reachable from u strictly via VPs in X").
    """
    scores = trustrank(graph, seeds, damping=damping)
    result = VerificationResult(scores=scores, site_members=list(site_members))
    top = result.top_site_vp
    if top is None:
        return result
    site_set = set(site_members)
    legit = {top}
    frontier = [top]
    while frontier:
        node = frontier.pop()
        for nbr in graph.neighbors(node):
            if nbr in site_set and nbr not in legit:
                legit.add(nbr)
                frontier.append(nbr)
    result.legitimate = legit
    return result


def verify_viewmap(
    vmap: ViewMapGraph,
    site_center: Point,
    site_radius_m: float,
    damping: float = TRUSTRANK_DAMPING,
) -> VerificationResult:
    """Run Algorithm 1 on a constructed viewmap around an incident site."""
    seeds = vmap.trusted_ids()
    if not seeds:
        raise ValidationError("viewmap contains no trusted VP to seed trust")
    site_members = vmap.members_near(site_center, site_radius_m)
    return verify_site_members(vmap.graph, seeds, site_members, damping=damping)


def lemma1_bound(damping: float, link_distance: int) -> float:
    """Lemma 1: total trust score beyond L links from the seeds <= alpha^L."""
    if link_distance < 0:
        raise ValidationError("link distance must be non-negative")
    return damping**link_distance


def lemma2_bound(
    graph: ViewLinks,
    scores: dict[Hashable, float],
    attacker_nodes: set[Hashable],
    fake_nodes: set[Hashable],
    damping: float = TRUSTRANK_DAMPING,
) -> float:
    """Lemma 2: upper bound on the summed trust score of all fake VPs.

        sum_{v in FA} P_v <= alpha/(1-alpha) * sum_{v in A} |O_v ∩ FA|/|O_v| * P_v

    where A are attacker (legitimate) nodes and FA their fake VPs.
    """
    total = 0.0
    for v in attacker_nodes:
        deg = graph.degree(v)
        if deg == 0:
            continue
        fake_neighbors = sum(1 for nbr in graph.neighbors(v) if nbr in fake_nodes)
        total += (fake_neighbors / deg) * scores.get(v, 0.0)
    return (damping / (1.0 - damping)) * total


def link_distances(graph: ViewLinks, seeds: list[Hashable]) -> dict[Hashable, int]:
    """Minimum link distance from any seed to every node (BFS)."""
    dist: dict[Hashable, int] = {}
    frontier = list(seeds)
    for seed in seeds:
        dist[seed] = 0
    depth = 0
    while frontier:
        depth += 1
        next_frontier = []
        for node in frontier:
            for nbr in graph.neighbors(node):
                if nbr not in dist:
                    dist[nbr] = depth
                    next_frontier.append(nbr)
        frontier = next_frontier
    return dist
