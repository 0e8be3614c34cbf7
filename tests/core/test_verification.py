"""Tests for TrustRank verification (Algorithm 1) and its bounds."""

import networkx as nx
import numpy as np
import pytest
from scipy import sparse

from repro.constants import TRUSTRANK_DAMPING, TRUSTRANK_MAX_ITER, TRUSTRANK_TOL
from repro.core.verification import (
    lemma1_bound,
    lemma2_bound,
    link_distances,
    trustrank,
    verify_site_members,
)
from repro.core.viewmap import ViewLinks
from repro.errors import ValidationError


def path_graph(n=6):
    g = nx.path_graph(n)
    return g


def as_view_links(g: nx.Graph) -> ViewLinks:
    links = ViewLinks()
    for node in g.nodes:
        links.add_node(node)
    for a, b in g.edges:
        links.add_edge(a, b)
    return links


def sparse_trustrank(g: nx.Graph, seeds: list) -> dict:
    """The power iteration on a ``scipy.sparse`` matrix, as ``trustrank`` ran it."""
    nodes = list(g.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    rows, cols, vals = [], [], []
    for node in nodes:
        if g.degree(node) == 0:
            rows.append(index[node])
            cols.append(index[node])
            vals.append(1.0)
        for nbr in g.neighbors(node):
            rows.append(index[nbr])
            cols.append(index[node])
            vals.append(1.0 / g.degree(node))
    matrix = sparse.csr_matrix((vals, (rows, cols)), shape=(len(nodes), len(nodes)))
    d = np.zeros(len(nodes))
    d[[index[seed] for seed in seeds]] = 1.0 / len(seeds)
    p = d.copy()
    for _ in range(TRUSTRANK_MAX_ITER):
        p, previous = TRUSTRANK_DAMPING * matrix.dot(p) + (1.0 - TRUSTRANK_DAMPING) * d, p
        if np.abs(p - previous).sum() < TRUSTRANK_TOL:
            break
    return {node: float(p[index[node]]) for node in nodes}


def loops_and_loners() -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(8))  # 6 and 7 stay isolated
    g.add_edges_from([(0, 1), (1, 1), (2, 3), (3, 3), (0, 3), (4, 5), (5, 2)])
    return g


class TestTrustRank:
    def test_scores_sum_at_most_one(self):
        g = nx.erdos_renyi_graph(50, 0.1, seed=1)
        scores = trustrank(g, seeds=[0])
        assert 0.0 < sum(scores.values()) <= 1.0 + 1e-9

    def test_seed_region_has_highest_scores_on_path(self):
        # a degree-1 seed forwards all its mass to its only neighbour, so
        # nodes 0 and 1 tie at the top; beyond that scores must decay
        scores = trustrank(path_graph(), seeds=[0])
        top_two = sorted(scores, key=scores.get, reverse=True)[:2]
        assert set(top_two) == {0, 1}

    def test_scores_decay_with_distance(self):
        scores = trustrank(path_graph(8), seeds=[0])
        values = [scores[i] for i in range(1, 8)]
        assert values == sorted(values, reverse=True)

    def test_requires_seed(self):
        with pytest.raises(ValidationError):
            trustrank(path_graph(), seeds=[])

    def test_seed_must_be_member(self):
        with pytest.raises(ValidationError):
            trustrank(path_graph(), seeds=[99])

    def test_empty_graph(self):
        g = nx.Graph()
        g.add_node(0)
        scores = trustrank(g, seeds=[0])
        assert scores[0] == pytest.approx(1.0)

    def test_isolated_node_gets_no_trust(self):
        g = path_graph(4)
        g.add_node(99)
        scores = trustrank(g, seeds=[0])
        assert scores[99] == 0.0

    def test_multiple_seeds_share_static_mass(self):
        g = path_graph(6)
        scores = trustrank(g, seeds=[0, 5])
        assert scores[0] == pytest.approx(scores[5], rel=1e-6)

    @pytest.mark.parametrize("seeds", [[0, 1, 1], [0, 1, 0, 1]])
    def test_a_repeated_seed_counts_once(self, seeds):
        # d[seed] was *assigned* 1 / len(seeds): [0, 1, 1] summed to 0.667,
        # [0, 1, 0, 1] to 0.5, and every score shrank with the static mass
        g = path_graph(4)
        want = trustrank(g, seeds=[0, 1])
        scores = trustrank(g, seeds=seeds)
        assert scores == want
        assert sum(scores.values()) == pytest.approx(1.0)
        verified = verify_site_members(g, seeds=seeds, site_members=[2, 3])
        assert verified.scores == want and verified.legitimate == {2, 3}

    @pytest.mark.parametrize(
        "g",
        [nx.random_geometric_graph(200, 0.15, seed=3), nx.path_graph(9), loops_and_loners()],
        ids=["geometric", "path", "loops_and_loners"],
    )
    def test_equals_the_sparse_matrix_iteration_bit_for_bit(self, g):
        # np.bincount adds each row's terms in the order csr_matrix.dot did
        want = sparse_trustrank(g, [0, 2])
        assert trustrank(g, seeds=[0, 2]) == want
        assert trustrank(as_view_links(g), seeds=[0, 2]) == want
        assert list(trustrank(as_view_links(g), seeds=[0, 2])) == list(want)

    def test_damping_zero_keeps_all_mass_on_seed(self):
        scores = trustrank(path_graph(), seeds=[0], damping=0.0)
        assert scores[0] == pytest.approx(1.0)
        assert scores[3] == pytest.approx(0.0)

    def test_symmetric_graph_symmetric_scores(self):
        g = nx.cycle_graph(8)
        scores = trustrank(g, seeds=[0])
        assert scores[1] == pytest.approx(scores[7], rel=1e-9)
        assert scores[2] == pytest.approx(scores[6], rel=1e-9)


class TestAlgorithm1:
    def test_top_site_vp_marked_legitimate(self):
        g = path_graph(6)
        result = verify_site_members(g, seeds=[0], site_members=[3, 4, 5])
        assert result.top_site_vp == 3
        assert result.is_legitimate(3)

    def test_legitimacy_floods_within_site(self):
        g = path_graph(6)
        result = verify_site_members(g, seeds=[0], site_members=[3, 4, 5])
        assert result.legitimate == {3, 4, 5}

    def test_flooding_stops_outside_site(self):
        # site = {3, 5}: node 5 is reachable from 3 only through 4 (not in
        # the site), so it must NOT be marked legitimate
        g = path_graph(6)
        result = verify_site_members(g, seeds=[0], site_members=[3, 5])
        assert result.legitimate == {3}

    def test_disconnected_fake_cluster_excluded(self):
        g = path_graph(4)
        g.add_edge(10, 11)  # a fake island claiming in-site locations
        result = verify_site_members(g, seeds=[0], site_members=[2, 3, 10, 11])
        assert result.legitimate == {2, 3}

    def test_empty_site(self):
        g = path_graph(4)
        result = verify_site_members(g, seeds=[0], site_members=[])
        assert result.top_site_vp is None
        assert result.legitimate == set()


class TestBounds:
    def test_lemma1_bound_values(self):
        assert lemma1_bound(0.8, 0) == 1.0
        assert lemma1_bound(0.8, 3) == pytest.approx(0.512)
        with pytest.raises(ValidationError):
            lemma1_bound(0.8, -1)

    def test_lemma1_holds_empirically(self):
        g = nx.random_geometric_graph(200, 0.15, seed=3)
        scores = trustrank(g, seeds=[0])
        dist = link_distances(g, [0])
        for distance in (1, 2, 3, 4):
            far_sum = sum(
                s for n, s in scores.items() if dist.get(n, 10**9) >= distance
            )
            assert far_sum <= lemma1_bound(0.8, distance) + 1e-9

    def test_lemma2_bounds_fake_scores(self):
        # attacker node 3 anchors a fake chain 10-11-12
        g = path_graph(4)
        g.add_edges_from([(3, 10), (10, 11), (11, 12)])
        scores = trustrank(g, seeds=[0])
        fakes = {10, 11, 12}
        bound = lemma2_bound(g, scores, attacker_nodes={3}, fake_nodes=fakes)
        fake_sum = sum(scores[f] for f in fakes)
        assert fake_sum <= bound + 1e-9

    def test_link_distances_bfs(self):
        g = path_graph(5)
        dist = link_distances(g, [0])
        assert dist == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_link_distances_multi_seed(self):
        g = path_graph(5)
        dist = link_distances(g, [0, 4])
        assert dist[2] == 2
        assert dist[1] == 1 and dist[3] == 1
