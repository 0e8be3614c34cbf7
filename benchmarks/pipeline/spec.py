"""What the benchmark is: names, limits and sizes, in one place.

``BENCHMARK.json`` at the repository root is the authority for metric
names, units, directions and regression bounds; this module reads it
and adds what its fixed schema has no key for — ISSUE 11's frozen
per-class latency limits and the input sizes of each workload.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from . import REPO_ROOT

BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

#: frozen latency limits (ms) per workload and op class; an op over its
#: limit, or failed, counts in ``slo_miss_share``
SLO_LIMIT_MS = {
    "onion_upload": {"upload": 150.0},
    "ingest_stream": {"upload": 50.0},
    "serve_mixed": {"upload": 100.0, "hot": 100.0, "cold": 100.0, "sweep": 500.0},
    "investigate": {"investigate": 1000.0},
}

WORKLOADS = tuple(SLO_LIMIT_MS)

#: op classes that are queries (pooled into ``query_p50_ms``)
QUERY_CLASSES = ("hot", "cold", "sweep")

#: ISSUE 11's eleven end-to-end metrics with its bounds (relative,
#: except the two shares: absolute).  ``BENCHMARK.json`` gates the ones
#: that repeat within their bound on this container; the others are
#: printed as ``loadgen.<name>`` and ``compare`` lists them ungated.
ISSUE_BOUNDS = {
    "setup_s": 0.25,
    "upload_ack_p50_ms": 0.10,
    "ingest_vps_per_s": 0.10,
    "query_p50_ms": 0.10,
    "investigate_minute_p50_ms": 0.10,
    "cpu_ms_per_op": 0.10,
    "failed_share": 0.01,
    "slo_miss_share": 0.01,
    "wire_bytes_per_vp": 0.02,
    "stored_bytes_per_vp": 0.02,
    "peak_rss_mb": 0.10,
}
HIGHER_IS_BETTER = ("ingest_vps_per_s",)

#: the contract wants every end-to-end metric on every workload and
#: never 0; a workload without the path a metric measures prints this
NOT_APPLICABLE = 1.0

#: load is generated by one process using at most this many client
#: threads / connections, and the fabrics get as many workers
NPROC = max(1, min(2, os.cpu_count() or 1))


def load_benchmark() -> dict:
    """The parsed ``BENCHMARK.json``."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


@dataclass(frozen=True)
class Scale:
    """Input sizes of every workload at one scale.

    ``full`` is what ``BENCHMARK.json`` measures; ``tiny`` is the
    tier-1 smoke test's (same code paths, seconds not tens of seconds).
    """

    # onion_upload: closed loop, 1 client, 4-VP frame batches
    onion_traced_ops: int
    # ingest_stream: NPROC held connections, 16-VP frames, 8 minutes
    stream_vehicles: int
    # serve_mixed: open loop, arrivals per second
    serve_preload_per_minute: int
    serve_rates: tuple[tuple[str, float], ...]
    serve_upload_vps: int
    serve_traced_ops: tuple[tuple[str, int], ...]
    # investigate: closed loop, 1 client
    inv_background_per_minute: int
    inv_witnesses: int
    inv_sites: int
    inv_city_m: float


SCALES = {
    "full": Scale(
        onion_traced_ops=16,
        stream_vehicles=1024,
        serve_preload_per_minute=512,
        serve_rates=(("upload", 20.0), ("hot", 40.0), ("cold", 10.0), ("sweep", 2.0)),
        serve_upload_vps=8,
        serve_traced_ops=(("upload", 16), ("hot", 32), ("cold", 8), ("sweep", 4)),
        inv_background_per_minute=2000,
        inv_witnesses=16,
        inv_sites=4,
        inv_city_m=6000.0,
    ),
    "tiny": Scale(
        onion_traced_ops=3,
        stream_vehicles=16,
        serve_preload_per_minute=32,
        serve_rates=(("upload", 8.0), ("hot", 16.0), ("cold", 4.0), ("sweep", 2.0)),
        serve_upload_vps=4,
        serve_traced_ops=(("upload", 3), ("hot", 4), ("cold", 2), ("sweep", 1)),
        inv_background_per_minute=60,
        inv_witnesses=6,
        inv_sites=2,
        inv_city_m=2000.0,
    ),
}

#: onion_upload: corpus size per ``--seconds`` second (600 uploads at
#: 20 s, about 20 s of work at ~33 ms an upload).  The corpus, not the
#: clock, ends the loop, so memory and counts do not follow machine speed.
ONION_UPLOADS_PER_S = 30

#: ingest_stream: minutes a corpus spans, the retention window riding
#: the upload path (so eviction is on the measured path), VPs per frame,
#: measured rounds (no new one after ``--seconds``), and the ``procs``
#: store's shape
STREAM_MINUTES = 8
STREAM_WINDOW_MINUTES = 4
STREAM_BATCH_VPS = 16
STREAM_MIN_ROUNDS = 3
STREAM_MAX_ROUNDS = 9
STREAM_INGEST_WORKERS = 2
STREAM_SHARD_CELLS = 2

#: serve_mixed geometry
SERVE_CITY_M = 6000.0
SERVE_MINUTES = 4
SERVE_HOT_CELL_M = 2000.0
SERVE_COLD_AREA = (60_000.0, 60_000.0, 61_000.0, 61_000.0)
INV_MINUTES = 3

#: the authority's RSA key size: rewards are off every measured path,
#: so the benchmark does not pay for a production-sized key in set-up
KEY_BITS = 512

#: the machine-speed probe, an ungated diagnostic: a sha256 chain of
#: this many links takes about the reference time on this container's
#: cores when nothing else runs on the host.  ``loadgen.speed_factor``
#: is the run's median probe over the reference; above the limit the
#: run is marked disturbed — its wall clock is the neighbour's doing.
PROBE_HASHES = 2500
PROBE_REFERENCE_S = 0.001
DISTURBED_SPEED_FACTOR = 1.25
