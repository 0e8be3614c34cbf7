"""Read-path serving: decode-free span queries racing an upload burst.

The acceptance harness of the serving tier: analysts fire a hot-cell
``query_view`` storm at the concurrent front-end *while* a hot-minute
upload burst is still landing in the named segment log.  The log
frames stored spans byte-exactly and the server forwards the frame;
nobody on the authority decodes a digest.

Gates (the reported per-query latency is the ``server.handle.query_view``
histogram — pure serve cost, excluding the modeled last-mile RTT):

* every storm query is answered with a real frame;
* the tile cache took hits (cold-area short-circuits and the
  authority-internal count gate are served without a scan);
* after quiescence the served hot-area frame is byte-identical to
  re-encoding the decoded selection — the wire-level restatement of
  the backend-parity property.
"""

from __future__ import annotations

import time

from repro.core.system import ViewMapSystem
from repro.net.concurrency import ConcurrentViewMapServer, ThreadedNetwork
from repro.net.messages import decode_message, encode_message
from repro.obs.metrics import MetricsRegistry, snapshot_percentiles
from repro.sim.stream import iter_upload_payloads
from repro.geo.geometry import Rect
from repro.store import QuerySpec, make_store
from repro.store.codec import encode_vp_batch

from benchmarks.conftest import fmt_row

N_VEHICLES = 256          #: hot-minute fleet size (one streamed burst)
BATCH_VPS = 8             #: VPs per streamed upload frame
WORKERS = 8               #: fabric worker threads
WIRE_LATENCY_S = 0.005    #: modeled last-mile RTT per request

#: the hot cell: the whole 10 km city the streamed fleet drives inside,
#: so every hot query selects the full minute — the exact shape of an
#: investigation sweep
HOT_AREA = [0.0, 0.0, 10_200.0, 10_000.0]
#: a cold cell far outside the city — tile prune answers without a scan
COLD_AREA = [60_000.0, 60_000.0, 61_000.0, 61_000.0]

N_HOT = 20                #: hot-cell queries per storm
N_COLD = 6                #: cold-cell queries per storm


def query_payload(area: list[float]) -> bytes:
    return encode_message("query_view", session="analyst", minute=0, area=area)


def run_read_storm(tmp_path, payloads, tag: str):
    """Half the burst pre-lands, then the storm races the second half.

    Returns ``(serve_mean_s, storm_wall_s, server_snapshot, stats)`` —
    the mean ``server.handle.query_view`` modeled latency, the storm's
    wall clock, the server registry and the store's ``stats()`` (whose
    detail carries the tile-cache occupancy).
    """
    store = make_store("sqlite", str(tmp_path / f"read-{tag}"))
    with ThreadedNetwork(
        workers=WORKERS, latency_s=WIRE_LATENCY_S, metrics=MetricsRegistry()
    ) as net:
        system = ViewMapSystem(key_bits=512, seed=1, store=store)
        server = ConcurrentViewMapServer(
            system=system, network=net, metrics=MetricsRegistry()
        )
        half = len(payloads) // 2
        for f in [
            net.send_async("vehicle", server.address, p) for p in payloads[:half]
        ]:
            f.result()

        storm = [query_payload(HOT_AREA)] * N_HOT
        storm += [query_payload(COLD_AREA)] * N_COLD
        t0 = time.perf_counter()
        ingest = [
            net.send_async("vehicle", server.address, p) for p in payloads[half:]
        ]
        queries = [net.send_async("analyst", server.address, q) for q in storm]
        replies = [decode_message(f.result()) for f in queries]
        for f in ingest:
            f.result()
        storm_wall = time.perf_counter() - t0
        assert len(store) == N_VEHICLES
        assert all(reply["kind"] == "view" for reply in replies)
        # the measured histogram covers the storm only — the parity
        # probe below would dilute its mean
        snap = server.metrics.snapshot()

        # quiesced: parity against this run's store — re-encoding the
        # decoded selection reproduces the stored spans the wire
        # served, byte for byte (insertion order varies across runs,
        # so parity is a within-run property) — plus tile-served reads
        # (repeated cold-cell prunes and the investigate-period gate)
        final = decode_message(
            net.send_async("analyst", server.address, query_payload(HOT_AREA)).result()
        )
        assert final["kind"] == "view" and final["n"] == N_VEHICLES
        spec = QuerySpec(minute=0, area=Rect(*HOT_AREA))
        assert final["frame"] == system.database.query_encoded(spec)
        assert encode_vp_batch(system.database.query(spec).vps) == final["frame"]
        for _ in range(2):
            net.send_async("analyst", server.address, query_payload(COLD_AREA)).result()
            assert system.database.query(QuerySpec(minute=0, count=True)).n == N_VEHICLES
        stats = store.stats()
    store.close()
    hist = snap["server.handle.query_view.modeled_s"]
    return hist["sum"] / hist["count"], storm_wall, snap, stats


def test_read_serving_gates(show, tmp_path):
    """Acceptance: real frames, tile hits, frame parity."""
    payloads = list(
        iter_upload_payloads(N_VEHICLES, 1, seed=11, batch_vps=BATCH_VPS)
    )
    serve, wall, snap, stats = run_read_storm(tmp_path, payloads, "gates")
    served = snap["serve.encoded_bytes"]
    tile = stats.detail["tile_cache"]

    show(
        f"Read serving — {N_HOT} hot + {N_COLD} cold queries racing a "
        f"{N_VEHICLES}-VP burst into one named log, "
        f"{1e3 * WIRE_LATENCY_S:.0f} ms RTT modeled",
        fmt_row("serve mean ms", [1e3 * serve], "{:>10.2f}"),
        fmt_row("storm wall s", [wall], "{:>10.3f}"),
        fmt_row("encoded MB served", [served["sum"] / 1e6], "{:>10.1f}"),
        fmt_row("tile hits / misses", [tile["hits"], tile["misses"]], "{:>10.0f}"),
    )

    # tile-served reads: cold-cell prunes and count gates took hits
    # (frame byte-identity is asserted inside the run)
    assert tile["hits"] > 0
    # every storm query was answered with a real frame
    assert served["count"] >= N_HOT + N_COLD


def test_benchmark_read_serving(benchmark, tmp_path):
    """Timed (regression-gated in CI): the decode-free serving storm.

    The benchmark's ``extra_info`` carries the ``query_view`` percentile
    rows so the CI summary reports serve latency next to the medians.
    """
    payloads = list(
        iter_upload_payloads(N_VEHICLES, 1, seed=13, batch_vps=BATCH_VPS)
    )
    state = {"round": 0, "snap": {}}

    def storm():
        state["round"] += 1
        _, _, snap, _ = run_read_storm(tmp_path, payloads, f"bench{state['round']}")
        state["snap"] = snap

    benchmark.pedantic(storm, rounds=3, iterations=1)

    rows = snapshot_percentiles(state["snap"])
    benchmark.extra_info["percentiles"] = {
        stage: rows[stage]
        for stage in (
            "server.handle.query_view.modeled_s",
            "serve.encoded_bytes",
        )
        if stage in rows
    }
