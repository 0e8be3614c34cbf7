"""Incident investigation at city scale, over the anonymous network stack.

A 25-vehicle fleet (including one police car) drives a Manhattan grid for
two minutes with full DSRC view-digest exchange.  Vehicles upload their
VPs through onion circuits with rotating sessions.  An attacker injects a
fake VP claiming to have been at the incident.  The authority then
investigates: the viewmap excludes the fake, legitimate witnesses are
solicited by identifier, their videos validate by hash replay, and
rewards are claimed anonymously.

Run:  python examples/incident_investigation.py
"""

from repro.attacks.faker import forge_fake_vp
from repro.core.system import ViewMapSystem
from repro.geo.geometry import Point
from repro.geo.routing import make_grid_route_fn
from repro.mobility.scenarios import city_scenario
from repro.net.client import VehicleClient
from repro.net.onion import OnionNetwork
from repro.net.server import ViewMapServer
from repro.net.transport import InMemoryNetwork
from repro.radio.channel import DsrcChannel
from repro.sim.runner import run_viewmap_simulation

POLICE_ID = 0


def main():
    print("== 1. Simulate city traffic with DSRC exchange ==")
    scn = city_scenario(area_km=2.0, n_vehicles=25, duration_s=120, seed=42)
    channel = DsrcChannel(corridor_block_m=scn.block_m, seed=42)
    result = run_viewmap_simulation(
        scn.traces, channel, route_fn=make_grid_route_fn(scn.block_m), seed=42
    )
    minute = 0
    print(f"  minute {minute}: {len(result.actual_vps(minute))} actual VPs, "
          f"{len(result.guard_vps(minute))} guard VPs")

    print("\n== 2. Anonymous uploads over onion circuits ==")
    net = InMemoryNetwork()
    onion = OnionNetwork(network=net, n_relays=6, hops=3, seed=7)
    system = ViewMapSystem(key_bits=512, seed=7)
    server = ViewMapServer(system=system, network=net)

    police_vp = result.actual_vps(minute)[POLICE_ID]
    system.ingest_trusted_vp(police_vp)

    clients = {}
    for vp in result.vps_by_minute[minute]:
        owner = result.actual_owner.get(vp.vp_id)
        creator = owner if owner is not None else result.guard_creator[vp.vp_id]
        if creator == POLICE_ID and owner is not None:
            continue  # the police VP went through the authority path
        client = clients.get(creator)
        if client is None:
            client = VehicleClient(agent=result.agents[creator], onion=onion)
            clients[creator] = client
        client.pending_vps.append(vp)
    uploaded = sum(client.upload_pending() for client in clients.values())
    sessions = {s for _, s in server.session_log if s}
    print(f"  {uploaded} VPs uploaded through {len(sessions)} unlinkable sessions")

    print("\n== 3. An attacker injects a fake VP at the incident ==")
    incident = police_vp.trajectory.at(police_vp.end_time - 30)
    fake = forge_fake_vp(
        minute=minute,
        claimed_path=[incident, Point(incident.x + 200, incident.y)],
        seed=13,
    )
    system.ingest_vps([fake])
    print(f"  fake VP {fake.vp_id.hex()[:12]}... claims the incident location")

    print("\n== 4. Investigation ==")
    inv = system.investigate(incident, minute=minute, site_radius_m=500.0)
    print(f"  viewmap: {inv.viewmap.node_count} members, {inv.viewmap.edge_count} viewlinks")
    print(f"  solicited: {len(inv.solicited)} identifiers")
    assert fake.vp_id not in inv.solicited
    print("  fake VP excluded (no two-way viewlinks into the legitimate mesh)")

    print("\n== 5. Witnesses answer the solicitation ==")
    accepted = sum(c.upload_solicited_videos() for c in clients.values())
    print(f"  {accepted} videos validated by cascaded-hash replay")
    for vp_id in list(system.pending_review):
        system.human_review(vp_id)

    print("\n== 6. Anonymous rewards ==")
    minted = sum(c.claim_rewards() for c in clients.values())
    for client in clients.values():
        for unit in client.cash:
            system.registry.redeem(unit)
    print(f"  {minted} cash units minted and redeemed; "
          f"none linkable to a VP or vehicle")


if __name__ == "__main__":
    main()
