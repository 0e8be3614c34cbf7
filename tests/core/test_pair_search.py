"""The viewmap's proximity kernel: the sorted-cell grid pair search.

``_pairs_within`` replaced one ``cKDTree.query_pairs`` per probe second.
Its contract is the pair set of the O(n^2) loop below, with the same
``dx*dx + dy*dy <= reach*reach`` predicate, each pair once as ``i < j``;
the tree stays here as a second, independent oracle.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from repro.core.viewmap import _pairs_within
from repro.errors import ValidationError

REACHES = [0.5, 260.0, 400.0, 1040.0]


def brute_force(points: np.ndarray, reach: float) -> set[tuple[int, int]]:
    pairs = set()
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            dx, dy = points[i, 0] - points[j, 0], points[i, 1] - points[j, 1]
            if dx * dx + dy * dy <= reach * reach:
                pairs.add((i, j))
    return pairs


def found(points: np.ndarray, reach: float) -> set[tuple[int, int]]:
    lower, upper = _pairs_within(points, reach)
    pairs = list(zip(lower.tolist(), upper.tolist()))
    assert len(pairs) == len(set(pairs)), "a pair was reported twice"
    assert all(i < j for i, j in pairs)
    return set(pairs)


@st.composite
def populations(draw) -> tuple[np.ndarray, float]:
    """0-300 points in one of the layouts the grid could get wrong."""
    reach = draw(st.sampled_from(REACHES))
    n = draw(st.integers(0, 300))
    layout = draw(
        st.sampled_from(["uniform", "lattice", "one_cell", "one_per_cell", "collinear", "far"])
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if layout == "uniform":  # both signs, a few points per cell
        points = rng.uniform(-6 * reach, 6 * reach, (n, 2))
    elif layout == "lattice":  # neighbours at exactly reach, and duplicates
        points = rng.integers(-4, 5, (n, 2)) * reach
    elif layout == "one_cell":
        points = rng.uniform(0.0, 0.9 * reach, (n, 2))
    elif layout == "one_per_cell":
        points = (np.arange(n)[:, None] * [3.0, -2.0] + rng.uniform(0.1, 0.9, (n, 2))) * reach
    elif layout == "collinear":  # a road: one row of cells, either axis
        points = np.zeros((n, 2))
        points[:, draw(st.integers(0, 1))] = rng.uniform(-40 * reach, 40 * reach, n)
    else:  # > 1e6 m from the origin, both signs
        points = rng.uniform(-3 * reach, 3 * reach, (n, 2)) + rng.choice([-4.0e6, 2.5e6], 2)
    return points, reach


@given(populations())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_pair_set_equals_brute_force(population):
    points, reach = population
    assert found(points, reach) == brute_force(points, reach)


def test_a_pair_at_exactly_reach_is_a_pair():
    reach = 260.0
    points = np.array([[0.0, 0.0], [reach, 0.0], [reach, reach], [-156.0, -208.0], [521.0, 0.0]])
    # 0-1 and 1-2 along an axis, 0-3 on a 3-4-5 triangle (156^2 + 208^2 = 260^2)
    assert found(points, reach) == {(0, 1), (1, 2), (0, 3)} == brute_force(points, reach)


def test_equals_the_kd_tree_on_a_uniform_population():
    rng = np.random.default_rng(20241004)
    points = rng.uniform(0.0, 9_500.0, (2000, 2))
    want = cKDTree(points).query_pairs(260.0, output_type="ndarray")
    assert len(want) > 4000
    assert found(points, 260.0) == set(map(tuple, want.tolist()))


def test_fewer_than_two_points_and_unkeyable_spans():
    for n in (0, 1):
        lower, upper = _pairs_within(np.zeros((n, 2)), 260.0)
        assert len(lower) == len(upper) == 0
    with pytest.raises(ValidationError):  # 2^31 cells along one axis: refused, not wrapped
        _pairs_within(np.array([[0.0, 0.0], [1e15, 0.0]]), 260.0)


#: what one expanded pair may cost at the peak, in units of its 16 B
#: result (two 8 B indices): the expansion holds first / second, dx / dy
#: and their squares at once (measured 4.1)
PEAK_PER_PAIR = 5


def test_a_crowded_cell_costs_its_pairs_not_more():
    n = 512
    rng = np.random.default_rng(5)
    points = rng.uniform(0.0, 100.0, (n, 2))  # every pair is near
    pairs = n * (n - 1) // 2
    _pairs_within(points[:8], 260.0)  # imports and caches out of the measurement
    tracemalloc.start()
    try:
        lower, upper = _pairs_within(points, 260.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lower) == pairs
    assert peak <= PEAK_PER_PAIR * pairs * 16, peak / (pairs * 16)
