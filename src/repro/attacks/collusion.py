"""Colluding fake-VP injection on geometric viewmaps (Section 6.3.1).

The experiment mirrors the paper's synthetic setup: a viewmap of ~1000
legitimate VPs as a random geometric graph, one trusted seed, an
investigation site, and a set of colluding "human" attackers whose own
*legitimate* VPs sit at a controlled link distance from the seed.

Attackers inject a parallel **fake layer**: fake VPs spread over the whole
area (the site location is unknown in advance, so fakes must blanket it),
linked to each other and to the attackers' legitimate VPs — never to other
users' VPs, because two-way linkage cannot be forged unilaterally.  The
result is exactly the multi-layer structure of Fig. 7: only one layer
contains the trusted VP.

A trial *fails* when Algorithm 1's top-scored VP inside the site is fake.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from repro.constants import TRUSTRANK_DAMPING
from repro.core.verification import link_distances, verify_site_members
from repro.core.viewmap import ViewLinks
from repro.errors import SimulationError
from repro.util.rng import derive_seed, make_rng


@dataclass(frozen=True)
class SyntheticViewmapConfig:
    """Geometry of the synthetic legitimate viewmap."""

    n_legit: int = 1000
    area_length_m: float = 12_000.0
    area_width_m: float = 3_000.0
    link_radius_m: float = 400.0
    p_link: float = 0.85             #: chance an in-range pair really linked
    seed_xy: tuple[float, float] = (600.0, 1_500.0)
    #: ~2.4 km / 6-8 link-hops from the seed, matching Fig. 6's sketch of a
    #: site a few kilometres from the nearest trusted VP
    site_xy: tuple[float, float] = (3_000.0, 1_500.0)
    site_radius_m: float = 200.0


@dataclass
class SyntheticViewmap:
    """A generated viewmap with node kinds and positions."""

    graph: ViewLinks
    positions: dict[int, tuple[float, float]]
    trusted: int
    legit: set[int]
    attackers: set[int] = field(default_factory=set)
    fakes: set[int] = field(default_factory=set)
    config: SyntheticViewmapConfig = field(default_factory=SyntheticViewmapConfig)

    def site_members(self) -> list[int]:
        """Nodes whose claimed position lies inside the investigation site."""
        cx, cy = self.config.site_xy
        r2 = self.config.site_radius_m**2
        return [
            n
            for n, (x, y) in self.positions.items()
            if (x - cx) ** 2 + (y - cy) ** 2 <= r2
        ]


def _geometric_edges(
    points: np.ndarray,
    radius: float,
    p_link: float,
    rng: random.Random,
    offset: int = 0,
) -> list[tuple[int, int]]:
    """Random-geometric-graph edges with per-pair retention ``p_link``."""
    tree = cKDTree(points)
    edges = []
    for i, j in tree.query_pairs(radius):
        if rng.random() < p_link:
            edges.append((i + offset, j + offset))
    return edges


def build_synthetic_viewmap(
    config: SyntheticViewmapConfig = SyntheticViewmapConfig(),
    seed: int = 0,
) -> SyntheticViewmap:
    """Generate the legitimate layer plus trusted seed."""
    rng = make_rng(seed)
    n = config.n_legit
    pts = np.column_stack(
        [
            np.array([rng.uniform(0, config.area_length_m) for _ in range(n)]),
            np.array([rng.uniform(0, config.area_width_m) for _ in range(n)]),
        ]
    )
    # node 0 is the trusted VP, pinned at the seed position
    pts[0] = config.seed_xy
    graph = ViewLinks()
    for node in range(n):
        graph.add_node(node)
    for a, b in _geometric_edges(pts, config.link_radius_m, config.p_link, rng):
        graph.add_edge(a, b)
    positions = {i: (float(pts[i, 0]), float(pts[i, 1])) for i in range(n)}
    return SyntheticViewmap(
        graph=graph,
        positions=positions,
        trusted=0,
        legit=set(range(n)),
        config=config,
    )


def place_attackers(
    vmap: SyntheticViewmap,
    hop_band: tuple[int, int],
    attacker_fraction: tuple[float, float] = (0.05, 0.15),
    seed: int = 0,
) -> None:
    """Add attacker-owned legitimate VPs at a hop distance band from the seed.

    Each attacker was physically present, so its VP links to every
    in-range legitimate VP with the usual retention probability.
    """
    rng = make_rng(derive_seed(seed, "attackers"))
    cfg = vmap.config
    dist = link_distances(vmap.graph, [vmap.trusted])
    band_nodes = [
        n
        for n in vmap.legit
        if hop_band[0] <= dist.get(n, 10**9) <= hop_band[1]
    ]
    if not band_nodes:
        raise SimulationError(f"no legitimate VPs in hop band {hop_band}")
    frac = rng.uniform(*attacker_fraction)
    n_att = max(1, round(frac * cfg.n_legit))
    legit_pts = np.array([vmap.positions[n] for n in sorted(vmap.legit)])
    legit_ids = sorted(vmap.legit)
    tree = cKDTree(legit_pts)
    next_id = max(vmap.graph.nodes) + 1
    for _ in range(n_att):
        anchor = vmap.positions[rng.choice(band_nodes)]
        x = anchor[0] + rng.uniform(-150.0, 150.0)
        y = anchor[1] + rng.uniform(-150.0, 150.0)
        node = next_id
        next_id += 1
        vmap.graph.add_node(node)
        vmap.positions[node] = (x, y)
        vmap.attackers.add(node)
        for idx in tree.query_ball_point((x, y), cfg.link_radius_m):
            if rng.random() < cfg.p_link:
                vmap.graph.add_edge(node, legit_ids[idx])


def inject_fake_layer(
    vmap: SyntheticViewmap,
    n_fakes: int,
    seed: int = 0,
    p_cross: float = 0.2,
) -> None:
    """Inject the colluders' fake layer as chains radiating from attackers.

    Location-proximity validation "forces attackers to create their own
    chain of fake VPs" (Section 5.2.2, Fig. 7): a fake can only link to
    attacker-controlled VPs within DSRC radius, so reaching the (publicly
    unknown) investigation site means building chains of fakes outward
    from the attackers' legitimate positions, blanketing the area in many
    directions.  Chains interlink where they cross (``p_cross``), and the
    whole layer never touches other users' legitimate VPs.

    More fakes buy more chains — wider blanket coverage — but dilute the
    attackers' inflow across more nodes, which is Corollary 1's effect.
    """
    if not vmap.attackers:
        raise SimulationError("inject_fake_layer requires attackers to be placed")
    rng = make_rng(derive_seed(seed, "fakes"))
    cfg = vmap.config
    next_id = max(vmap.graph.nodes) + 1
    att_ids = sorted(vmap.attackers)
    pts: list[tuple[float, float]] = []
    fake_ids: list[int] = []
    budget = n_fakes
    # Chains radiate at low-discrepancy (golden-angle) directions so the
    # blanket covers all bearings as evenly as the budget allows — the
    # site location is unknown, so rational colluders spread uniformly.
    golden = math.pi * (3.0 - math.sqrt(5.0))
    chain_idx = 0
    while budget > 0:
        if chain_idx < len(att_ids):
            # each attacker's legitimate VP anchors one chain; a VP whose
            # Bloom claims unbounded neighbours would be flaggable
            origin = att_ids[chain_idx]
        elif fake_ids:
            # extra budget branches off existing fakes, at greater depth
            origin = fake_ids[rng.randrange(len(fake_ids))]
        else:
            origin = att_ids[chain_idx % len(att_ids)]
        x, y = vmap.positions[origin]
        theta = (chain_idx * golden) % (2.0 * math.pi)
        chain_idx += 1
        prev = origin
        # one chain: march outward until the area boundary or budget ends
        while budget > 0:
            step = rng.uniform(0.5, 0.95) * cfg.link_radius_m
            x += step * math.cos(theta)
            y += step * math.sin(theta)
            if not (0 <= x <= cfg.area_length_m and 0 <= y <= cfg.area_width_m):
                break
            node = next_id
            next_id += 1
            budget -= 1
            vmap.graph.add_node(node)
            vmap.positions[node] = (x, y)
            vmap.fakes.add(node)
            vmap.graph.add_edge(prev, node)
            pts.append((x, y))
            fake_ids.append(node)
            prev = node
            # slight meander so chains are road-plausible, not ruler lines
            theta += rng.uniform(-0.15, 0.15)
    if not pts:
        return
    # interlink crossing chains (attacker-controlled on both ends)
    arr = np.asarray(pts)
    tree = cKDTree(arr)
    for i, j in tree.query_pairs(cfg.link_radius_m):
        if abs(i - j) > 1 and rng.random() < p_cross:
            vmap.graph.add_edge(fake_ids[i], fake_ids[j])


def run_verification_trial(
    hop_band: tuple[int, int],
    fake_ratio: float,
    config: SyntheticViewmapConfig = SyntheticViewmapConfig(),
    damping: float = TRUSTRANK_DAMPING,
    seed: int = 0,
) -> bool:
    """One full trial; True when verification resists the attack.

    Success: the top-scored VP inside the investigation site is not fake
    (Algorithm 1 then solicits only legitimately-created VPs).  Maps whose
    site happens to contain no legitimate VP are resampled — the paper's
    accuracy measures identification *of* legitimate VPs, which requires
    some to exist.
    """
    for salt in range(16):
        vmap = build_synthetic_viewmap(config, seed=derive_seed(seed, "map", salt))
        site = vmap.site_members()
        if any(n in vmap.legit for n in site):
            break
    place_attackers(vmap, hop_band, seed=seed)
    inject_fake_layer(vmap, n_fakes=round(fake_ratio * config.n_legit), seed=seed)
    site = vmap.site_members()
    result = verify_site_members(vmap.graph, [vmap.trusted], site, damping=damping)
    top = result.top_site_vp
    return top not in vmap.fakes


def verification_accuracy(
    hop_band: tuple[int, int],
    fake_ratio: float,
    runs: int = 50,
    config: SyntheticViewmapConfig = SyntheticViewmapConfig(),
    damping: float = TRUSTRANK_DAMPING,
    seed: int = 0,
) -> float:
    """Fraction of trials where verification resisted the attack (Fig 12)."""
    wins = sum(
        run_verification_trial(
            hop_band, fake_ratio, config=config, damping=damping,
            seed=derive_seed(seed, "trial", i),
        )
        for i in range(runs)
    )
    return wins / runs
