"""Property-based tests for TrustRank invariants."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.verification import lemma1_bound, link_distances, trustrank
from repro.core.viewmap import ViewLinks


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    g = nx.random_labeled_tree(n, seed=draw(st.integers(0, 10**6)))
    extra = draw(st.integers(min_value=0, max_value=n))
    rng_seed = draw(st.integers(0, 10**6))
    import random

    rng = random.Random(rng_seed)
    for _ in range(extra):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            g.add_edge(a, b)
    return g


class TestTrustRankProperties:
    @given(connected_graphs())
    @settings(max_examples=30, deadline=None)
    def test_scores_nonnegative_and_bounded(self, g):
        scores = trustrank(g, seeds=[0])
        assert all(s >= 0 for s in scores.values())
        assert sum(scores.values()) <= 1.0 + 1e-9

    @given(connected_graphs())
    @settings(max_examples=30, deadline=None)
    def test_connected_nodes_receive_trust(self, g):
        scores = trustrank(g, seeds=[0])
        # every node connected to the seed gets strictly positive score
        for node in nx.node_connected_component(g, 0):
            assert scores[node] > 0

    @given(connected_graphs())
    @settings(max_examples=25, deadline=None)
    def test_lemma1_bound_holds(self, g):
        scores = trustrank(g, seeds=[0])
        dist = link_distances(g, [0])
        for distance in (1, 2, 3):
            far_sum = sum(
                s for n, s in scores.items() if dist.get(n, 10**9) >= distance
            )
            assert far_sum <= lemma1_bound(0.8, distance) + 1e-9

    @given(connected_graphs(), st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=20, deadline=None)
    def test_any_damping_converges(self, g, damping):
        scores = trustrank(g, seeds=[0], damping=damping)
        assert abs(sum(scores.values()) - 1.0) < 0.05 or sum(scores.values()) < 1.0


#: ("node", a, _) adds a node, ("edge", a, b) a link — self-loops,
#: repeats and links that bring their own endpoints included
insertions = st.lists(
    st.tuples(st.sampled_from(["node", "edge"]), st.integers(0, 11), st.integers(0, 11)),
    max_size=60,
)


class TestViewLinksAgainstNetworkx:
    @given(insertions)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_same_graph_in_the_same_order(self, steps):
        links, g = ViewLinks(), nx.Graph()
        for kind, a, b in steps:
            for graph in (links, g):
                graph.add_node(a) if kind == "node" else graph.add_edge(a, b)
        assert list(links.nodes) == list(g.nodes)
        assert list(links.edges) == list(g.edges)
        assert links.number_of_nodes() == g.number_of_nodes()
        assert links.number_of_edges() == g.number_of_edges()
        assert links.number_connected_components() == nx.number_connected_components(g)
        for a in range(12):
            if a in g:
                assert a in links.nodes
                assert links.degree(a) == g.degree(a)
                assert list(links.neighbors(a)) == list(g.neighbors(a))
            for b in range(12):
                assert links.has_edge(a, b) == g.has_edge(a, b)
        if steps:
            seed = steps[0][1]
            assert trustrank(links, [seed]) == trustrank(g, [seed])
