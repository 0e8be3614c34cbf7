"""Ablation: two-way vs one-way linkage validation.

The two-way Bloom test is what stops unilateral linkage forgery: with a
one-way check, an attacker who merely *claims* honest VPs in its Bloom
joins the viewmap.  This bench quantifies the difference.
"""

from repro.attacks.faker import forge_fake_vp
from repro.core.vehicle import VehicleAgent
from repro.core.viewmap import build_viewmap
from repro.geo.geometry import Point
from repro.store.codec import encode_vp_batch

from benchmarks.conftest import bench_runs


def _linked_minute(seed):
    a = VehicleAgent(vehicle_id=1, seed=seed)
    b = VehicleAgent(vehicle_id=2, seed=seed + 1)
    for i in range(60):
        t = i + 1.0
        pa, pb = Point(10.0 * i, 0.0), Point(10.0 * i, 50.0)
        vda, vdb = a.emit(t, pa, minute=0), b.emit(t, pb, minute=0)
        b.receive(vda, t, pb)
        a.receive(vdb, t, pa)
    return a.finalize_minute(), b.finalize_minute()


def test_ablation_two_way_vs_one_way(benchmark, show):
    trials = bench_runs(20)

    def run():
        two_way_joined = one_way_joined = 0
        for trial in range(trials):
            res_a, res_b = _linked_minute(100 + 2 * trial)
            fake = forge_fake_vp(
                minute=0,
                claimed_path=[Point(300, 25), Point(400, 25)],
                claim_neighbors=[res_a.actual_vp, res_b.actual_vp],
                seed=trial,
            )
            profiles = [res_a.actual_vp, res_b.actual_vp, fake]
            vmap = build_viewmap(encode_vp_batch(profiles), minute=0)
            if vmap.graph.degree(fake.vp_id) > 0:
                two_way_joined += 1
            # one-way variant: accept if either side's Bloom matches
            one_way = any(
                fake.may_link_to(vp) or vp.may_link_to(fake)
                for vp in (res_a.actual_vp, res_b.actual_vp)
            )
            if one_way:
                one_way_joined += 1
        return two_way_joined, one_way_joined

    two_way, one_way = benchmark.pedantic(run, rounds=1, iterations=1)
    show(
        f"Ablation — linkage validation over {trials} forged VPs:",
        f"  two-way check:  {two_way}/{trials} forgeries joined the viewmap",
        f"  one-way check:  {one_way}/{trials} forgeries would have joined",
        "the two-way test is the forgery barrier (Section 5.2.1).",
    )

    assert two_way == 0
    assert one_way == trials
