"""``run``: drive one workload once and return its raw record.

The raw record holds samples, spans, exact counts and registry
snapshots — no derived metric; :mod:`reduce` turns it into the named
metrics.  Everything the run creates (SQLite files, worker processes,
event loops) lives under one ``TemporaryDirectory`` inside the
benchmark's own ``.work/`` and is gone on every exit path.
"""

from __future__ import annotations

import resource
import tempfile
import time

from . import PACKAGE_DIR, spec
from .trace import Tracer, link_parents

WORK_DIR = PACKAGE_DIR / ".work"


def cpu_seconds() -> float:
    """User+sys CPU seconds of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_kb() -> int:
    """Peak resident set: this process plus its largest reaped child."""
    return sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )


def _stage_timer_ns() -> float:
    """Cost of one ``stage_timer`` block on a scratch registry."""
    from repro.obs.metrics import MetricsRegistry, stage_timer

    registry = MetricsRegistry()
    n = 2000
    start = time.perf_counter()
    for _ in range(n):
        with stage_timer(registry, "bench.stage"):
            pass
    return (time.perf_counter() - start) / n * 1e9


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "full",
    backend: str | None = None,
    transport: str | None = None,
) -> dict:
    """One run of one workload; returns the raw record."""
    from .workloads import WORKLOADS

    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; expected one of {spec.WORKLOADS}")
    if transport and workload != "ingest_stream":
        raise SystemExit("--transport only applies to ingest_stream")
    sizes = spec.SCALES[scale]
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR, prefix=f"{workload}-") as workdir:
        start = time.perf_counter()
        work = WORKLOADS[workload](seed, seconds, sizes, workdir, trace, backend, transport)
        try:
            work.setup()
            setup_s = time.perf_counter() - start
            work.seal_inputs()
            cpu_before, wall_before = cpu_seconds(), time.perf_counter()
            work.measure()
            measured_wall = time.perf_counter() - wall_before
            measured_cpu = cpu_seconds() - cpu_before
            tracer = Tracer()
            if trace:
                work.traced(tracer)
            work.finish()
        finally:
            work.teardown()
    link_parents(tracer.spans)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "scale": scale,
        "adhoc": bool(backend or transport or scale != "full"),
        "backend": backend,
        "transport": transport,
        "setup_s": setup_s,
        "inputs_sha256": work.inputs_sha256,
        "gen_s": work.gen_s,
        "gen_vps": work.gen_vps,
        "measured_wall_s": measured_wall,
        "measured_cpu_s": measured_cpu,
        "probes": work.probes,
        "peak_rss_kb": _peak_rss_kb(),
        "stage_timer_ns": _stage_timer_ns() if trace else 0.0,
        "ops": work.ops,
        "serial_ops": work.serial_ops,
        "lags_s": getattr(work, "lags", []),
        "rounds": [
            {k: v for k, v in rnd.items() if k != "registries"}
            for rnd in getattr(work, "rounds", [])
        ],
        "graph_sizes": getattr(work, "graph_sizes", []),
        "counts": work.counts,
        "standalone_s": work.standalone,
        "registries": work.registries,
        "traced_registries": getattr(work, "traced_registries", {}),
        "spans": tracer.spans,
        "failures": work.failures,
    }
