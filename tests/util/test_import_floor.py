"""What an authority process pays before it does anything: the import floor."""

from __future__ import annotations

import subprocess
import sys

#: the experiment side's scientific stack, and the event loop's stack:
#: asyncio (and the ssl it imports) load with the first StreamingNetwork
LOADED = (
    "print(sorted(m for m in ('scipy', 'networkx', 'asyncio', 'ssl') if m in sys.modules))"
)


def run_python(code: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_store_imports_without_scipy_or_networkx():
    # package __init__ files re-export lazily (repro.util.lazy), so the
    # store layer does not import the experiment side's scientific stack
    assert run_python("import sys, repro.store; " + LOADED) == "[]"


def test_upload_serving_and_investigation_run_on_numpy_alone():
    # the always-on front-end, the store and a complete investigation:
    # viewmap construction is a numpy grid search over a plain
    # adjacency, TrustRank a bincount, and importing the streaming
    # front-end opens no event loop (84 -> 34.5 MiB RSS at import)
    code = """
import sys
import repro.core.system, repro.core.vehicle, repro.net.client, repro.net.concurrency
import repro.net.streaming, repro.net.onion, repro.sim.stream, repro.store
from repro.core.system import ViewMapSystem
from repro.geo.geometry import Point
from repro.sim.stream import stream_convoy_vps

system = ViewMapSystem(key_bits=512, seed=1)
trusted, witnesses = stream_convoy_vps(5, 0, 4, (1000.0, 1000.0))
system.ingest_trusted_vp(trusted)
for vp in witnesses:
    system.ingest_vp(vp)
found = system.investigate_period(Point(1000.0, 1000.0), [0])
assert len(found) == 1 and found[0].solicited, found
assert found[0].viewmap.edge_count > 0
""" + LOADED
    assert run_python(code) == "[]"


def test_asyncio_loads_when_a_stream_opens_and_the_stream_still_uploads():
    code = """
import sys
from repro.core.system import ViewMapSystem
from repro.net.concurrency import ConcurrentViewMapServer
from repro.net.messages import pack_vp_batch_frame
from repro.net.streaming import StreamingNetwork
from repro.sim.stream import stream_vp

before = 'asyncio' in sys.modules
with ViewMapSystem(key_bits=512, seed=1) as system:
    with StreamingNetwork(workers=1) as net:
        after = 'asyncio' in sys.modules
        server = ConcurrentViewMapServer(system=system, network=net)
        conn = net.connect(server.address)
        vp = stream_vp(7, 0, 0, 2e3)
        reply = conn.upload_frame(pack_vp_batch_frame([vp]))
        conn.close()
    stored = system.database.store.get(vp.vp_id) == vp
    print(before, after, reply["kind"], reply["inserted"], stored)
"""
    assert run_python(code) == "False True batch_ack 1 True"


def test_polyline_helpers_import_without_networkx_and_the_router_still_routes():
    code = """
import sys, repro.geo.routing, repro.core.guard
""" + LOADED + """
from repro.geo.geometry import Point
from repro.geo.roadnet import grid_city
from repro.geo.routing import Router
route = Router(grid_city(400.0, 400.0, 100.0)).route_points(Point(5.0, 0.0), Point(200.0, 195.0))
print(route[0] == Point(5.0, 0.0), route[-1] == Point(200.0, 195.0), len(route) > 2)
"""
    assert run_python(code).splitlines() == ["[]", "True True True"]


def test_lazy_packages_still_export_their_names():
    import repro
    import repro.core
    import repro.geo
    import repro.sim

    for package in (repro, repro.core, repro.geo, repro.sim):
        for name in package.__all__:
            assert getattr(package, name) is not None, (package.__name__, name)
        assert set(package.__all__) <= set(dir(package))
    from repro import ViewMapSystem  # noqa: F401  (the documented import)

