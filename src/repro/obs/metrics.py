"""Per-stage SLO observability: counters, gauges, latency histograms.

Five PRs of write-path optimization left the authority fast but only
*mean*-observable: ``stats()`` exposes counters, so tail latency across
client -> server -> store -> commit was invisible.  This module is the
percentile-aware instrumentation plane — deliberately simple, in the
measurement-first spirit the systems literature argues for:

* :class:`Histogram` — log-bucketed latency distribution.  Buckets grow
  geometrically (``HISTOGRAM_GROWTH`` per bucket), so quantile estimates
  are exact *within bucket resolution*: the estimate for any quantile
  lands in the same bucket as the true order statistic, bounding the
  relative error by one bucket's width.  Histograms merge associatively
  and commutatively (bucket counts add) and round-trip through JSON —
  the properties that let saved snapshots be combined and let CI diff
  percentile baselines.
* :class:`Counter` / :class:`Gauge` — monotonic event counts and
  last-written levels.  Counters add under merge; gauges keep the
  maximum (a merged gauge answers "how bad did it get anywhere").
* :class:`MetricsRegistry` — a thread-safe name -> instrument map with
  whole-registry ``snapshot()`` (JSON-safe) and ``merge_snapshot()``.
  A registry constructed with ``enabled=False`` turns every record
  into a no-op, so benchmarks can price the instrumentation itself.
* :func:`stage_timer` — the one instrumentation idiom used everywhere:
  wraps a stage, records wall time into ``<stage>.wall_s`` and
  *modeled* time into ``<stage>.modeled_s``.  Modeled time is the sum
  of declared contributions (a fabric's ``latency_s``) — the costs
  the single-CPU container simulates with real sleeps — falling back
  to wall time when a stage declares none.  Percentiles over modeled
  time are machine-independent; percentiles over wall time price the
  implementation.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from typing import Iterator

from repro.errors import ValidationError

#: geometric bucket growth factor — each bucket's upper bound is this
#: multiple of its lower bound, so quantile estimates carry at most one
#: bucket width (~9%) of relative error
HISTOGRAM_GROWTH = 2.0 ** 0.125


class Counter:
    """A monotonic event counter (merges by addition)."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        self.value = int(value)

    def inc(self, n: int = 1) -> None:
        self.value += n

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value}

    def merge(self, other: "Counter") -> "Counter":
        self.value += other.value
        return self

    @classmethod
    def from_dict(cls, data: dict) -> "Counter":
        return cls(int(data.get("value", 0)))


class Gauge:
    """A last-written level (merges by maximum — worst level anywhere)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = float(value)

    def set(self, value: float) -> None:
        self.value = float(value)

    def to_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}

    def merge(self, other: "Gauge") -> "Gauge":
        self.value = max(self.value, other.value)
        return self

    @classmethod
    def from_dict(cls, data: dict) -> "Gauge":
        return cls(float(data.get("value", 0.0)))


class Histogram:
    """Log-bucketed value distribution with bounded-error quantiles.

    A positive value ``v`` lands in bucket ``floor(log(v) / log(growth))``
    — bucket ``i`` covers ``[growth**i, growth**(i+1))``.  Non-positive
    values (a zero-length modeled stage) are counted in a dedicated zero
    bucket.  The quantile estimator walks cumulative bucket counts to
    the requested order statistic's bucket and answers with the bucket's
    geometric midpoint, clamped to the observed ``[min, max]`` — so the
    estimate and the true order statistic always share a bucket, and
    the relative error is bounded by one bucket's width.

    Merging adds bucket counts (associative, commutative); ``to_dict``
    / ``from_dict`` round-trip through JSON exactly.
    """

    __slots__ = ("growth", "_log_growth", "buckets", "zero", "count", "sum",
                 "min", "max")

    def __init__(self, growth: float = HISTOGRAM_GROWTH) -> None:
        if growth <= 1.0:
            raise ValidationError("histogram bucket growth must be > 1")
        self.growth = float(growth)
        self._log_growth = math.log(self.growth)
        self.buckets: dict[int, int] = {}
        self.zero = 0
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def _index(self, value: float) -> int:
        return math.floor(math.log(value) / self._log_growth)

    def record(self, value: float) -> None:
        """Fold one observation in."""
        value = float(value)
        if not math.isfinite(value):
            raise ValidationError("histogram values must be finite")
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self.zero += 1
            return
        index = self._index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def quantile(self, q: float) -> float:
        """The q-quantile estimate (exact within one bucket's width).

        Picks the bucket holding the order statistic of rank
        ``ceil(q * count)`` and answers its geometric midpoint, clamped
        to the observed extremes.  Returns ``nan`` while empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValidationError("quantile q must be in [0, 1]")
        if self.count == 0:
            return math.nan
        rank = max(1, math.ceil(q * self.count))
        if rank <= self.zero:
            return max(0.0, min(self.min, 0.0)) if self.min < 0 else 0.0
        seen = self.zero
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                mid = self.growth ** (index + 0.5)
                return max(self.min, min(self.max, mid))
        return self.max  # rank == count, floating-point belt and braces

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def p999(self) -> float:
        return self.quantile(0.999)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold another histogram's population in (in place)."""
        if not math.isclose(other.growth, self.growth, rel_tol=1e-12):
            raise ValidationError(
                "cannot merge histograms with different bucket growth"
            )
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        self.zero += other.zero
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    def copy(self) -> "Histogram":
        out = Histogram(self.growth)
        out.merge(self)
        return out

    def to_dict(self) -> dict:
        """JSON-safe snapshot (bucket indices as string keys)."""
        return {
            "type": "histogram",
            "growth": self.growth,
            "count": self.count,
            "sum": self.sum,
            "zero": self.zero,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
            "buckets": {str(index): n for index, n in self.buckets.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        out = cls(float(data.get("growth", HISTOGRAM_GROWTH)))
        out.count = int(data.get("count", 0))
        out.sum = float(data.get("sum", 0.0))
        out.zero = int(data.get("zero", 0))
        out.min = math.inf if data.get("min") is None else float(data["min"])
        out.max = -math.inf if data.get("max") is None else float(data["max"])
        out.buckets = {
            int(index): int(n) for index, n in (data.get("buckets") or {}).items()
        }
        return out

    def percentiles(self) -> dict:
        """The summary row dashboards want: count, mean and the p-levels.

        Empty histograms report ``None`` (not NaN) so the row stays
        strict-JSON-serializable.
        """
        if self.count == 0:
            return {"count": 0, "mean": None, "p50": None, "p99": None, "p999": None}
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p99": self.p99,
            "p999": self.p999,
        }


_INSTRUMENTS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def _instrument_from_dict(data: dict):
    kind = data.get("type")
    cls = _INSTRUMENTS.get(kind)
    if cls is None:
        raise ValidationError(f"unknown metric instrument type {kind!r}")
    return cls.from_dict(data)


class MetricsRegistry:
    """Thread-safe name -> instrument map with mergeable snapshots.

    One lock guards the whole registry: every instrument operation is a
    few dict/float updates, far below the modeled latencies the stages
    measure, so finer striping would buy nothing.  ``enabled=False``
    turns every mutation into a no-op (the benchmark's control arm).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = cls()
        elif not isinstance(instrument, cls):
            raise ValidationError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {cls.__name__}"
            )
        return instrument

    def inc(self, name: str, n: int = 1) -> None:
        """Bump a counter (created on first use)."""
        if not self.enabled:
            return
        with self._lock:
            self._get(name, Counter).inc(n)

    def set_gauge(self, name: str, value: float) -> None:
        """Set a gauge level (created on first use)."""
        if not self.enabled:
            return
        with self._lock:
            self._get(name, Gauge).set(value)

    def observe(self, name: str, value: float) -> None:
        """Record one histogram observation (created on first use)."""
        if not self.enabled:
            return
        with self._lock:
            self._get(name, Histogram).record(value)

    def histogram(self, name: str) -> Histogram:
        """The named histogram (created on first use), for direct reads."""
        with self._lock:
            return self._get(name, Histogram)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self) -> dict:
        """JSON-safe copy of every instrument (the IPC/export form)."""
        with self._lock:
            return {
                name: instrument.to_dict()
                for name, instrument in self._instruments.items()
            }

    def merge_snapshot(self, snap: dict) -> None:
        """Fold one snapshot in: counters add, gauges max, histograms merge."""
        if not snap:
            return
        with self._lock:
            for name, data in snap.items():
                incoming = _instrument_from_dict(data)
                mine = self._instruments.get(name)
                if mine is None:
                    self._instruments[name] = incoming
                else:
                    mine.merge(incoming)


def counter_value(snap: dict, name: str) -> int:
    """One counter's value out of a registry snapshot (0 when absent).

    The read-side convenience for acceptance harnesses that gate on
    event counts (uploads accepted/rejected, watermark clamps): a
    snapshot is a plain dict, and an instrument that never fired has no
    entry at all — callers should not have to spell that case out.
    """
    entry = snap.get(name)
    if not entry:
        return 0
    return int(entry.get("value", 0))


def snapshot_percentiles(snap: dict) -> dict:
    """Per-stage percentile rows of a snapshot's histograms.

    The rendering helper shared by the CLI dump, the bench payloads and
    the CI summary table: histogram entries reduce to their
    count/mean/p50/p99/p999 row; counters and gauges pass through as
    bare values.
    """
    out: dict = {}
    for name, data in sorted(snap.items()):
        if data.get("type") == "histogram":
            out[name] = Histogram.from_dict(data).percentiles()
        else:
            out[name] = data.get("value")
    return out


class StageTimer:
    """The handle a ``stage_timer`` block uses to declare modeled time."""

    __slots__ = ("modeled_s", "declared")

    def __init__(self) -> None:
        self.modeled_s = 0.0
        self.declared = False

    def add_modeled(self, seconds: float) -> None:
        """Declare a modeled contribution (a fabric's ``latency_s``)."""
        self.modeled_s += seconds
        self.declared = True


@contextmanager
def stage_timer(
    registry: MetricsRegistry | None,
    stage: str,
    modeled_s: float | None = None,
) -> Iterator[StageTimer]:
    """Time one stage into ``<stage>.wall_s`` and ``<stage>.modeled_s``.

    Wall time is the block's ``perf_counter`` span.  Modeled time is the
    sum of declared contributions — ``modeled_s`` up front and/or
    ``timer.add_modeled(...)`` inside the block — the latencies the
    deployment simulates with real sleeps.  A stage that declares no
    modeled cost records its wall time as modeled too (on a single-CPU
    container wall already *includes* the sleeps, so the fallback is
    the honest upper bound).  ``registry=None`` or a disabled registry
    records nothing.
    """
    timer = StageTimer()
    if modeled_s:
        timer.add_modeled(modeled_s)
    enabled = registry is not None and registry.enabled
    start = time.perf_counter() if enabled else 0.0
    try:
        yield timer
    finally:
        if enabled:
            wall = time.perf_counter() - start
            registry.observe(f"{stage}.wall_s", wall)
            registry.observe(
                f"{stage}.modeled_s", timer.modeled_s if timer.declared else wall
            )
