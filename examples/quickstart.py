"""Quickstart: the complete ViewMap flow with three vehicles.

A police car and two civilian vehicles share one minute of road.  Every
second each dashcam records a chunk, extends its cascaded hash and
broadcasts a view digest; neighbours validate and store them.  At the
minute boundary each vehicle compiles its view profile and guard VPs.
The system then investigates an incident: builds the viewmap, verifies
with TrustRank, solicits videos by anonymous identifier, validates the
upload by hash replay, and pays untraceable virtual cash.

Run:  python examples/quickstart.py
"""

from repro import Point, VehicleAgent, ViewMapSystem
from repro.core.rewarding import claim_reward


def drive_shared_minute(agents, lateral_gaps):
    """Drive the agents in parallel lanes with full VD exchange."""
    for i in range(60):
        t = i + 1.0
        positions = {
            agent.vehicle_id: Point(12.0 * i, gap)
            for agent, gap in zip(agents, lateral_gaps)
        }
        digests = {
            agent.vehicle_id: agent.emit(t, positions[agent.vehicle_id], minute=0)
            for agent in agents
        }
        for receiver in agents:
            for sender in agents:
                if sender is receiver:
                    continue
                receiver.receive(
                    digests[sender.vehicle_id], t, positions[receiver.vehicle_id]
                )
    return [agent.finalize_minute() for agent in agents]


def main():
    police = VehicleAgent(vehicle_id=0, seed=1)
    witness = VehicleAgent(vehicle_id=1, seed=2)
    bystander = VehicleAgent(vehicle_id=2, seed=3)

    print("== 1. Recording: one shared minute on the road ==")
    results = drive_shared_minute([police, witness, bystander], [0.0, 40.0, 80.0])
    res_police, res_witness, res_bystander = results
    for name, res in zip(("police", "witness", "bystander"), results):
        print(
            f"  {name}: VP {res.actual_vp.vp_id_hex[:12]}..., "
            f"{res.neighbor_count} neighbours, {len(res.guard_vps)} guard VPs"
        )

    print("\n== 2. Anonymous upload into the VP database ==")
    system = ViewMapSystem(key_bits=512, seed=9)
    system.ingest_trusted_vp(res_police.actual_vp)
    for res in (res_witness, res_bystander):
        system.ingest_vps([res.actual_vp, *res.guard_vps])
    print(f"  VP database holds {len(system.database)} profiles "
          f"(actual and guard VPs indistinguishable)")

    print("\n== 3. Investigation: viewmap + TrustRank verification ==")
    incident = Point(360.0, 40.0)
    inv = system.investigate(incident, minute=0, site_radius_m=500.0)
    print(f"  viewmap: {inv.viewmap.node_count} VPs, {inv.viewmap.edge_count} viewlinks")
    print(f"  solicited identifiers: {[v.hex()[:12] + '...' for v in inv.solicited]}")

    print("\n== 4. Video upload, validation, human review ==")
    vp_id = res_witness.actual_vp.vp_id
    accepted = system.receive_video(vp_id, res_witness.video.chunks)
    print(f"  witness video accepted (hash-chain replay): {accepted}")
    forged = [b"forged-%d" % i for i in range(60)]
    print(f"  forged upload accepted: "
          f"{system.receive_video(res_bystander.actual_vp.vp_id, forged)}")
    system.human_review(vp_id)

    print("\n== 5. Untraceable reward ==")
    cash = claim_reward(system.rewards, vp_id, res_witness.video.secret, rng=5)
    print(f"  minted {len(cash)} units of blind-signed virtual cash")
    for unit in cash:
        system.registry.redeem(unit)
    print(f"  all redeemed; double-spend ledger holds {system.registry.redeemed} units")
    try:
        system.registry.redeem(cash[0])
    except Exception as exc:
        print(f"  double spend rejected: {type(exc).__name__}")


if __name__ == "__main__":
    main()
