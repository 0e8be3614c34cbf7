"""``build_viewmap`` on a frame's record columns against the per-pair oracle.

``tests/core/reference_viewmap.py`` is the implementation ``src/`` held
until viewmap construction moved onto the members' 60 x 72 B blocks as
columns.  Every case below builds the same population through both —
``build_viewmap`` from its codec frame, the oracle from the objects —
and asks for the same node *list* (TrustRank indexes its matrix by it),
the same edge *set*, or the same exception class.  The last test is the one
the oracle cannot give: digest times are the uploader's choice, and no
choice of them may make the construction's memory grow faster than
members x 60 + candidate pairs x 60.
"""

from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import DSRC_RANGE_M, VIDEO_UNIT_SECONDS
from repro.core.viewdigest import PACKED_DIGEST_DTYPE
from repro.core.viewmap import bloom_keys, build_viewmap, mutual_linkage
from repro.core.viewprofile import ViewProfile
from repro.crypto.bloom import BloomFilter
from repro.errors import ValidationError, WireFormatError
from repro.geo.geometry import Rect
from repro.sim.stream import stream_convoy_vps, stream_vp
from repro.store.codec import RecordColumns, encode_vp_batch
from tests.core.reference_viewmap import reference_build_viewmap
from tests.core.test_record_minute import GRAZING_GAP, GRAZING_SITE, GRAZING_SPEED

RADII = [DSRC_RANGE_M, 40.0, 150.0, float(np.nextafter(np.float32(30.0), np.float32(0.0))), 2_000.0]


def built(profiles, minute, **kwargs):
    vmap = build_viewmap(encode_vp_batch(profiles), minute, **kwargs)
    assert vmap.members.ids == list(vmap.graph.nodes)  # row i is node i
    return list(vmap.graph.nodes), vmap.graph


def outcome(build, profiles, minute, **kwargs):
    try:
        nodes, graph = build(profiles, minute, **kwargs)
    except Exception as exc:  # the comparison is the exception's class
        return type(exc)
    assert nodes == list(graph.nodes)
    return nodes, {frozenset(edge) for edge in graph.edges}


def assert_same_viewmap(profiles, minute, **kwargs):
    got = outcome(built, profiles, minute, **kwargs)
    want = outcome(reference_build_viewmap, profiles, minute, **kwargs)
    assert got == want
    return got


# -- populations ---------------------------------------------------------------


def block_vp(vp_id: int, seconds, times, positions) -> ViewProfile:
    """A VP around a hand-written digest block (positions round to float32)."""
    rows = np.zeros(len(seconds), dtype=PACKED_DIGEST_DTYPE)
    rows["second_index"] = seconds
    rows["t"] = times
    rows["location"] = positions
    rows["initial_location"] = rows["location"][0]
    rows["file_size"] = np.arange(1, len(seconds) + 1)
    rows["vp_id"] = np.frombuffer(vp_id.to_bytes(16, "big"), dtype=np.uint8)
    rows["chain_hash"] = np.frombuffer(
        np.random.default_rng(vp_id).bytes(16 * len(seconds)), dtype=np.uint8
    ).reshape(-1, 16)
    return ViewProfile.from_wire(rows.tobytes(), BloomFilter().to_bytes())


@functools.lru_cache(maxsize=None)
def convoy(seed: int, n_witnesses: int, grazing: bool) -> tuple[ViewProfile, ...]:
    if grazing:
        kwargs = {"lateral_gap_m": GRAZING_GAP[n_witnesses], "speed_mps": GRAZING_SPEED}
        trusted, witnesses = stream_convoy_vps(seed, 1, n_witnesses, GRAZING_SITE, **kwargs)
    else:
        trusted, witnesses = stream_convoy_vps(seed, 1, n_witnesses, (1000.0, 1000.0))
    return (trusted, *witnesses)


@functools.lru_cache(maxsize=None)
def background(seed: int, vehicle: int) -> ViewProfile:
    return stream_vp(seed, 1, vehicle, 2_000.0)


TIME_KINDS = ["whole", "fractional", "crowded", "offset"]


def synthetic_population(rnd, n_members: int, time_kind: str, disorder: bool) -> list[ViewProfile]:
    """Partial VPs on a 1.2 km square with hand-made two-way, one-way and
    saturated Blooms.

    ``whole``: a digest's time is its second of minute 0; ``fractional``:
    plus a per-digest fraction; ``crowded``: a third of a second apart, so
    several digests of a VP truncate to one second; ``offset``: each VP
    runs on its own fractional clock offset and pace.
    """
    shapes = []
    for _ in range(n_members):
        n = rnd.choice([1, 2, 3, rnd.randint(4, 59), 60])
        seconds = sorted(rnd.sample(range(1, VIDEO_UNIT_SECONDS + 1), n))
        if time_kind == "whole":
            times = [float(s) for s in seconds]
        elif time_kind == "fractional":
            times = [s + rnd.choice([0.0, 0.25, 0.5, 0.999]) for s in seconds]
        elif time_kind == "crowded":
            start = rnd.randint(0, 40)
            times = [start + (s - seconds[0]) / 3.0 for s in seconds]
        else:
            start, pace = rnd.uniform(0.0, 30.0), rnd.choice([0.5, 1.0, 1.7, 90.0])
            times = [start + (s - seconds[0]) * pace for s in seconds]
        x0, y0 = rnd.uniform(0.0, 1200.0), rnd.uniform(0.0, 1200.0)
        vx, vy = rnd.uniform(-20.0, 20.0), rnd.uniform(-20.0, 20.0)
        positions = [(x0 + vx * (s - seconds[0]), y0 + vy * (s - seconds[0])) for s in seconds]
        shapes.append((seconds, times, positions))
    if disorder and shapes:
        # one member's clock runs backwards somewhere: a trajectory the
        # oracle refuses to interpolate, when a probe second reaches it
        seconds, times, positions = shapes[rnd.randrange(len(shapes))]
        if len(times) > 1:
            at = rnd.randrange(1, len(times))
            times[at] = times[at - 1] - rnd.choice([0.0, 0.5, 7.0])
    vps = [block_vp(i + 1, *shape) for i, shape in enumerate(shapes)]
    for i, vp in enumerate(vps):
        link = rnd.choice(["none", "mutual", "mutual", "one_sided", "saturated"])
        if link == "saturated":  # the Section 6.3.2 attacker: claims everyone
            vp.bloom = BloomFilter.all_ones()
        elif link != "none" and len(vps) > 1:
            peer = vps[rnd.choice([j for j in range(len(vps)) if j != i])]
            vp.bloom.add(rnd.choice(peer.bloom_keys()))
            if link == "mutual":
                peer.bloom.add(rnd.choice(vp.bloom_keys()))
    return vps


def drawn_area(rnd, profiles: list[ViewProfile]) -> Rect | None:
    """No area, or a rectangle grown from one claimed sample of one
    profile: at margin 0 that VP is a member by this sample alone."""
    if not profiles or rnd.random() < 0.3:
        return None
    x, y = rnd.choice(rnd.choice(profiles).positions_array.tolist())
    left, right, down, up = (rnd.choice([0.0, 0.0, 60.0, 500.0]) for _ in range(4))
    return Rect(x - left, y - down, x + right, y + up)


# -- the oracle ------------------------------------------------------------------


@given(
    rnd=st.randoms(use_true_random=False),
    n_witnesses=st.integers(1, 16),
    n_background=st.integers(0, 24),
    radius_m=st.sampled_from(RADII),
    skip_bloom_check=st.booleans(),
)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_convoys_among_background_traffic(
    rnd, n_witnesses, n_background, radius_m, skip_bloom_check
):
    profiles = list(convoy(rnd.randint(1, 3), n_witnesses, grazing=False))
    profiles += [background(5, rnd.randrange(4096)) for _ in range(n_background)]
    rnd.shuffle(profiles)
    nodes, edges = assert_same_viewmap(
        profiles,
        1,
        area=drawn_area(rnd, profiles),
        radius_m=radius_m,
        skip_bloom_check=skip_bloom_check,
    )
    assert len(nodes) <= len({vp.vp_id for vp in profiles})


@pytest.mark.parametrize("n_witnesses", [1, 2, 16])
@pytest.mark.parametrize("skip_bloom_check", [False, True])
def test_convoy_grazing_dsrc_range(n_witnesses, skip_bloom_check):
    # the outermost pair is one ulp inside 400 m on every fifth second only
    profiles = list(convoy(7, n_witnesses, grazing=True))
    nodes, edges = assert_same_viewmap(profiles, 1, skip_bloom_check=skip_bloom_check)
    outer = frozenset({profiles[0].vp_id, profiles[-1].vp_id})
    assert len(nodes) == n_witnesses + 1 and outer in edges
    closer = float(np.nextafter(DSRC_RANGE_M, 0.0))
    _, edges = assert_same_viewmap(profiles, 1, radius_m=closer, skip_bloom_check=skip_bloom_check)
    assert outer not in edges


@given(
    rnd=st.randoms(use_true_random=False),
    n_members=st.integers(0, 14),
    time_kind=st.sampled_from(TIME_KINDS),
    disorder=st.booleans(),
    radius_m=st.sampled_from(RADII),
    skip_bloom_check=st.booleans(),
)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_partial_vps_on_any_clock(rnd, n_members, time_kind, disorder, radius_m, skip_bloom_check):
    profiles = synthetic_population(rnd, n_members, time_kind, disorder)
    assert_same_viewmap(
        profiles,
        0,
        area=drawn_area(rnd, profiles),
        radius_m=radius_m,
        skip_bloom_check=skip_bloom_check,
    )


def test_one_sided_and_saturated_blooms_link_nobody_alone():
    seconds = list(range(1, 61))
    times = [float(s) for s in seconds]
    honest = block_vp(1, seconds, times, [(10.0 * s, 0.0) for s in seconds])
    faker = block_vp(2, seconds, times, [(10.0 * s, 50.0) for s in seconds])
    greedy = block_vp(3, seconds, times, [(10.0 * s, 90.0) for s in seconds])
    faker.bloom.add(honest.bloom_keys()[0])  # claims honest; honest never heard it
    greedy.bloom = BloomFilter.all_ones()  # claims everyone
    nodes, edges = assert_same_viewmap([honest, faker, greedy], 0)
    assert len(nodes) == 3 and edges == set()
    faker.bloom.add(greedy.bloom_keys()[-1])
    _, edges = assert_same_viewmap([honest, faker, greedy], 0)
    assert edges == {frozenset({faker.vp_id, greedy.vp_id})}
    _, edges = assert_same_viewmap([honest, faker, greedy], 0, skip_bloom_check=True)
    assert len(edges) == 3


def test_a_backwards_clock_is_refused_only_where_a_probe_reaches_it():
    seconds = list(range(1, 61))
    straight = [(5.0 * s, 0.0) for s in seconds]
    good = block_vp(1, seconds, [float(s) for s in seconds], straight)
    backwards = [float(s) for s in seconds]
    backwards[30] = backwards[29]
    stalled = block_vp(2, seconds, backwards, straight)
    assert assert_same_viewmap([good, stalled], 0) is ValidationError
    # last digest before the first: no second lies inside, nothing to interpolate
    inverted = [float(s) for s in reversed(seconds)]
    inverted[0] = 59.0
    nodes, edges = assert_same_viewmap([good, block_vp(3, seconds, inverted, straight)], 0)
    assert len(nodes) == 2


# -- mixed Bloom geometry ----------------------------------------------------------


def test_filters_of_different_sizes_are_refused_at_encode():
    # a record holds one Bloom size: a VP summarised into another cannot
    # be framed, so no viewmap meets two sizes
    trusted, witness = convoy(3, 1, grazing=False)
    resized = ViewProfile(witness.digests, BloomFilter(m_bits=4096, k=6))
    with pytest.raises(WireFormatError, match="cannot encode a 4096-bit Bloom filter"):
        encode_vp_batch([trusted, resized])


@pytest.mark.parametrize("order", ["default_k_first", "other_k_first"])
def test_filters_of_different_k_link_as_mutual_linkage_says(order):
    # Bit positions are derived under the tested filter's hash count and
    # read from its bits, whichever filter's member comes first.
    trusted, witness = convoy(3, 1, grazing=False)
    other_k = BloomFilter(k=6)
    other_k.add(trusted.bloom_keys()[0])
    other_k.add(trusted.bloom_keys()[-1])
    resummarised = ViewProfile(witness.digests, other_k)
    stranger = ViewProfile(background(5, 1).digests, BloomFilter(k=6))
    assert mutual_linkage(trusted, resummarised)
    profiles = [trusted, resummarised, stranger]
    if order == "other_k_first":
        profiles.reverse()
    nodes, edges = assert_same_viewmap(profiles, 1, radius_m=5_000.0)
    assert edges == {frozenset({trusted.vp_id, resummarised.vp_id})}
    for a in profiles:
        for b in profiles:
            linked = frozenset({a.vp_id, b.vp_id}) in edges
            assert a is b or linked == mutual_linkage(a, b)


def test_bloom_keys_sliced_from_one_copy_are_each_digests_wire_bytes():
    # the keyed block is copied once and sliced at 72 B: the keys are
    # what one ``tobytes()`` per digest, and each VP's own keys, say
    seconds = [3, 9, 40, 41, 60]
    partial = block_vp(9, seconds, [60.0 + s for s in seconds], [(5.0 * s, 1.0) for s in seconds])
    vps = [background(4, 1), partial, background(4, 2)]
    cols = RecordColumns.from_frame(encode_vp_batch(vps))
    rows = np.array([2, 1, 0])
    digests = cols.digests[rows][cols.held[rows]]
    keys = bloom_keys(digests)
    assert keys == [digest.tobytes() for digest in digests]
    assert keys == [key for row in rows.tolist() for key in vps[row].bloom_keys()]


# -- hostile times -------------------------------------------------------------------

HOSTILE_MEMBERS = 512

#: tracemalloc ceiling for the hostile builds below (measured: 11 MiB
#: without the Bloom stage, 15 MiB with it).  The 131k candidate pairs
#: cost ~1 MiB as codes and each 1024-pair pass a few MiB; a table over
#: the 30 720 distinct seconds would be 512 x 30 720 x 2 float64
#: = 240 MiB, a pairs x 60 x 60 cube 450 MiB.
HOSTILE_PEAK_BYTES_MAX = 32 << 20


def hostile_population(n_members: int) -> list[ViewProfile]:
    """Every digest of every member on its own second, a thousand
    seconds from the next: only the first must lie in the minute."""
    seconds = np.arange(1, VIDEO_UNIT_SECONDS + 1)
    vps = []
    for m in range(n_members):
        times = 60.0 + 1000.0 * ((seconds - 1) * n_members + m)
        times[0] = 1.0 + m % 10  # the one second a member shares, with every tenth
        positions = np.column_stack([3.0 * m + 0.5 * seconds, np.full(60, 7.0 * (m % 5))])
        vps.append(block_vp(m + 1, seconds, times, positions))
    return vps


def test_far_apart_seconds_agree_with_the_oracle():
    vps = hostile_population(48)
    nodes, edges = assert_same_viewmap(vps, 0, skip_bloom_check=True)
    assert len(nodes) == 48 and edges  # members sharing a first second, in range


def test_far_apart_seconds_cost_no_more_than_pairs_times_sixty():
    frame = encode_vp_batch(hostile_population(HOSTILE_MEMBERS))
    tracemalloc.start()
    try:
        by_geometry = build_viewmap(frame, 0, skip_bloom_check=True)
        with_blooms = build_viewmap(frame, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert by_geometry.node_count == HOSTILE_MEMBERS and by_geometry.edge_count > 5_000
    assert with_blooms.node_count == HOSTILE_MEMBERS and with_blooms.edge_count == 0
    assert peak <= HOSTILE_PEAK_BYTES_MAX, peak
