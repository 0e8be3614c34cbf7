"""End-to-end SLO observability on the streamed hot-minute burst.

The acceptance harness of the metrics plane: a hot-minute upload burst,
generated by the constant-memory streaming load generator
(:mod:`repro.sim.stream`), flows through the concurrent front-end into
one named segment log, and the per-stage histograms recorded along the
way answer the SLO questions directly:

* the store's insert histogram holds exactly one observation per
  upload;
* the p99 *modeled* ingest latency at the server boundary stays within
  the end-to-end ingest SLO.  The modeled last-mile RTT runs as a real
  sleep, so the percentile is machine independent up to scheduling
  noise;
* recording every histogram costs a bounded fraction of ingest
  throughput vs the same burst with every registry disabled
  (``MetricsRegistry(enabled=False)`` on the fabric, the server and the
  store) — observability must not tax the ingest path it
  observes (``MAX_OVERHEAD``; the bound absorbs shared-vCPU scheduler
  noise, the real cost is micro-seconds per request).

The timed benchmark additionally ships the measured per-stage
percentiles into the pytest-benchmark report via ``extra_info`` (the
payload ``tools/check_bench.py`` renders as p50/p99/p999 columns) and,
when ``REPRO_METRICS_JSON`` names a path, dumps the combined front-end
and store registry there for the CI artifact upload.
"""

from __future__ import annotations

import json
import os
import time

from repro.core.system import ViewMapSystem
from repro.net.concurrency import ConcurrentViewMapServer, ThreadedNetwork
from repro.obs.metrics import Histogram, MetricsRegistry, snapshot_percentiles
from repro.sim.stream import iter_upload_payloads
from repro.store import SegmentStore

from benchmarks.conftest import fmt_row

N_VEHICLES = 768           #: fleet size of the streamed burst (one minute)
BATCH_VPS = 8              #: VPs per streamed upload frame
WORKERS = 8                #: fabric worker threads
WIRE_LATENCY_S = 0.01      #: modeled last-mile RTT per upload request

INGEST_SLO_S = 0.250       #: end-to-end modeled ingest p99 SLO at the server
#: metrics may cost at most this throughput fraction.  Generous on
#: purpose: the timed region is ~0.3 s on a shared single vCPU, where
#: scheduler jitter alone shows up as a 5-15% on/off asymmetry even
#: between two *identical* arms — the gate exists to catch an O(work)
#: instrumentation tax, and best-of-N converges far below the bound on
#: a quiet machine.
MAX_OVERHEAD = 0.20


def stream_payloads(seed: int) -> list[bytes]:
    """One hot-minute burst off the streaming generator (client work)."""
    return list(
        iter_upload_payloads(N_VEHICLES, 1, seed=seed, batch_vps=BATCH_VPS)
    )


def combined(*snapshots: dict) -> dict:
    """One snapshot of several registries (counters add, histograms merge)."""
    registry = MetricsRegistry()
    for snap in snapshots:
        registry.merge_snapshot(snap)
    return registry.snapshot()


def run_slo_ingest(tmp_path, payloads, tag: str, enabled: bool):
    """Drive one burst through the instrumented stack.

    Returns ``(elapsed_s, front_snapshot, store_stats)`` — the server's
    and the fabric's registries combined, plus the store's ``stats()``
    (whose detail carries the store's metrics).  The store is what
    ``SegmentStore(path)`` builds, with the arm's registry.
    """
    store = SegmentStore(str(tmp_path / f"slo-{tag}"), metrics=MetricsRegistry(enabled=enabled))
    with ThreadedNetwork(
        workers=WORKERS,
        latency_s=WIRE_LATENCY_S,
        metrics=MetricsRegistry(enabled=enabled),
    ) as net:
        system = ViewMapSystem(key_bits=512, seed=1, store=store)
        server = ConcurrentViewMapServer(
            system=system, network=net, metrics=MetricsRegistry(enabled=enabled)
        )
        t0 = time.perf_counter()
        futures = [
            net.send_async("vehicle", server.address, payload) for payload in payloads
        ]
        for f in futures:
            f.result()
        assert len(store) == N_VEHICLES
        elapsed = time.perf_counter() - t0
        server_snap = server.metrics.snapshot()
        net_snap = net.metrics.snapshot()
        stats = store.stats()
    store.close()
    return elapsed, combined(server_snap, net_snap), stats


def test_slo_observability_gates(show, tmp_path):
    """Acceptance: SLOs hold, every insert is observed, overhead bounded.

    Both arms ingest the *identical* payload bytes (fresh stores per
    round, so nothing is a duplicate), alternating on/off each round
    and scoring the best round per arm — the instrumentation cost is
    micro-seconds per request against a modeled 10 ms RTT, so anything
    beyond noise-cancelling best-of-N would measure the scheduler, not
    the histograms.  Rounds are adaptive: at least four, and up to
    twelve while the overhead bound would
    fail — both minima only sharpen with more samples, so on a busy
    CPU the extra rounds converge the estimate toward the true
    instrumentation cost instead of flaking on one noisy window.
    """
    payloads = stream_payloads(1)
    # one untimed warmup per arm: page cache and import state warm up
    # outside the measurement
    run_slo_ingest(tmp_path, payloads, "warm-on", enabled=True)
    run_slo_ingest(tmp_path, payloads, "warm-off", enabled=False)
    t_on = t_off = float("inf")
    front = stats = off_stats = None
    for round_ in range(12):
        if round_ >= 4 and 1.0 - t_off / t_on < MAX_OVERHEAD:
            break
        # alternate arm order every round so a load drift across the
        # run penalizes both arms symmetrically
        for arm in (("on", "off"), ("off", "on"))[round_ % 2]:
            enabled = arm == "on"
            t, f, s = run_slo_ingest(tmp_path, payloads, f"{arm}{round_}", enabled=enabled)
            if enabled and t < t_on:
                t_on, front, stats = t, f, s
            elif not enabled and t < t_off:
                t_off, off_stats = t, s

    # -- the store saw every upload ---------------------------------------
    inserts = Histogram.from_dict(stats.detail["metrics"]["store.insert.wall_s"])
    assert inserts.count == len(payloads)
    # the disabled arm recorded nothing
    assert off_stats.detail["metrics"] == {}

    # -- the SLO gate ---------------------------------------------------
    ingest = Histogram.from_dict(front["server.handle.upload_vp_batch.modeled_s"])
    assert ingest.count == len(payloads)
    ingest_p99 = ingest.p99

    # -- observability overhead -----------------------------------------
    tp_on = N_VEHICLES / t_on
    tp_off = N_VEHICLES / t_off
    overhead = 1.0 - tp_on / tp_off

    show(
        f"SLO observability — streamed burst of {N_VEHICLES} VPs x 1 minute, "
        f"one named log, {1e3 * WIRE_LATENCY_S:.0f} ms RTT modeled",
        fmt_row("insert p99 ms", [1e3 * inserts.p99], "{:>10.1f}"),
        fmt_row("ingest p99 / SLO ms", [1e3 * ingest_p99, 1e3 * INGEST_SLO_S], "{:>10.1f}"),
        fmt_row("throughput on/off kVP/s", [tp_on / 1e3, tp_off / 1e3], "{:>10.2f}"),
        fmt_row("metrics overhead %", [100.0 * overhead], "{:>10.1f}"),
    )

    assert ingest_p99 <= INGEST_SLO_S
    assert overhead < MAX_OVERHEAD


def test_benchmark_slo_observability(benchmark, tmp_path):
    """Timed (regression-gated in CI): instrumented streamed ingest.

    The benchmark's ``extra_info`` carries the per-stage percentile
    rows, so the CI summary table reports p50/p99/p999 next to the
    throughput medians; ``REPRO_METRICS_JSON`` additionally dumps the
    full combined registry for the artifact upload.
    """
    payloads = stream_payloads(9)
    state = {"round": 0, "merged": {}}

    def ingest():
        state["round"] += 1
        _, front, stats = run_slo_ingest(
            tmp_path, payloads, f"bench{state['round']}", enabled=True
        )
        state["merged"] = combined(front, stats.detail["metrics"])

    benchmark.pedantic(ingest, rounds=3, iterations=1)

    rows = snapshot_percentiles(state["merged"])
    benchmark.extra_info["percentiles"] = {
        stage: rows[stage]
        for stage in (
            "server.handle.upload_vp_batch.modeled_s",
            "store.insert.wall_s",
            "net.queue_wait_s",
        )
        if stage in rows
    }
    out = os.environ.get("REPRO_METRICS_JSON", "")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(
                {"snapshot": state["merged"], "percentiles": rows},
                fh, indent=2, sort_keys=True,
            )
