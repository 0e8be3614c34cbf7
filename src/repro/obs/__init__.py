"""repro.obs — the SLO observability plane (see ``docs/observability.md``).

Per-stage latency histograms with bounded-error percentiles, counters
and gauges in a thread-safe :class:`MetricsRegistry`, and the
:func:`stage_timer` wall-clock timing idiom.  Every layer of the
stack — client, server, network fabric, the store — keeps a registry
and exposes it through ``stats()`` or a ``metrics`` attribute.
"""

from repro.obs.metrics import (
    HISTOGRAM_GROWTH,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter_value,
    snapshot_percentiles,
    stage_timer,
)

__all__ = [
    "HISTOGRAM_GROWTH",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter_value",
    "snapshot_percentiles",
    "stage_timer",
]
