"""Unit tests for the per-stage metrics plane (repro.obs.metrics)."""

import json
import math

import pytest

from repro.errors import ValidationError
from repro.obs.metrics import (
    HISTOGRAM_GROWTH,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    snapshot_percentiles,
    stage_timer,
)


class TestInstruments:
    def test_counter_inc_and_merge_add(self):
        a, b = Counter(), Counter()
        a.inc()
        a.inc(4)
        b.inc(2)
        assert a.merge(b).value == 7

    def test_gauge_merge_keeps_maximum(self):
        a, b = Gauge(), Gauge()
        a.set(3.0)
        b.set(9.0)
        assert a.merge(b).value == 9.0
        b.set(1.0)
        assert a.merge(b).value == 9.0

    def test_histogram_exact_quantiles_within_bucket(self):
        h = Histogram()
        samples = [0.001 * (i + 1) for i in range(200)]
        for s in samples:
            h.record(s)
        ordered = sorted(samples)
        for q in (0.5, 0.9, 0.99, 0.999):
            true = ordered[max(1, math.ceil(q * len(samples))) - 1]
            est = h.quantile(q)
            # the estimate shares the true statistic's bucket, so it is
            # within one bucket's growth factor of the exact value
            assert true / HISTOGRAM_GROWTH <= est <= true * HISTOGRAM_GROWTH

    def test_histogram_zero_bucket_and_extremes(self):
        h = Histogram()
        h.record(0.0)
        h.record(0.0)
        h.record(5.0)
        assert h.count == 3
        assert h.quantile(0.1) == 0.0
        assert 5.0 / HISTOGRAM_GROWTH <= h.quantile(1.0) <= 5.0
        assert h.min == 0.0 and h.max == 5.0

    def test_histogram_empty_is_json_safe(self):
        h = Histogram()
        assert math.isnan(h.quantile(0.5))
        row = h.percentiles()
        assert row == {"count": 0, "mean": None, "p50": None, "p99": None, "p999": None}
        json.dumps(h.to_dict())  # must not raise

    def test_histogram_merge_requires_same_growth(self):
        with pytest.raises(ValidationError):
            Histogram().merge(Histogram(growth=2.0))

    def test_histogram_json_roundtrip(self):
        h = Histogram()
        for v in (0.0, 0.004, 0.2, 31.0):
            h.record(v)
        restored = Histogram.from_dict(json.loads(json.dumps(h.to_dict())))
        assert restored.count == h.count
        assert restored.buckets == h.buckets
        assert restored.quantile(0.5) == h.quantile(0.5)
        assert restored.min == h.min and restored.max == h.max


class TestRegistry:
    def test_instruments_created_on_first_use(self):
        reg = MetricsRegistry()
        reg.inc("uploads")
        reg.set_gauge("depth", 3)
        reg.observe("lat", 0.01)
        assert reg.names() == ["depth", "lat", "uploads"]

    def test_type_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.inc("x")
        with pytest.raises(ValidationError):
            reg.observe("x", 1.0)

    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        reg.inc("a")
        reg.set_gauge("b", 1)
        reg.observe("c", 1.0)
        with stage_timer(reg, "stage"):
            pass
        assert reg.names() == []
        assert reg.snapshot() == {}

    def test_snapshot_merge_combines_all_kinds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 2)
        b.inc("n", 3)
        a.set_gauge("g", 5)
        b.set_gauge("g", 2)
        a.observe("h", 0.01)
        b.observe("h", 0.04)
        a.merge_snapshot(b.snapshot())
        merged = a.snapshot()
        assert merged["n"]["value"] == 5
        assert merged["g"]["value"] == 5
        assert merged["h"]["count"] == 2

    def test_snapshot_percentiles_rows(self):
        reg = MetricsRegistry()
        reg.inc("events", 7)
        for _ in range(10):
            reg.observe("lat", 0.02)
        rows = snapshot_percentiles(reg.snapshot())
        assert rows["events"] == 7
        assert rows["lat"]["count"] == 10
        assert rows["lat"]["p99"] == pytest.approx(0.02, rel=0.1)


class TestStageTimer:
    def test_wall_and_modeled_fallback(self):
        reg = MetricsRegistry()
        with stage_timer(reg, "s"):
            pass
        snap = reg.snapshot()
        assert snap["s.wall_s"]["count"] == 1
        # no declared contribution: modeled falls back to wall
        assert snap["s.modeled_s"]["sum"] == pytest.approx(snap["s.wall_s"]["sum"])

    def test_declared_modeled_contributions_add(self):
        reg = MetricsRegistry()
        with stage_timer(reg, "s", modeled_s=0.010) as timing:
            timing.add_modeled(0.005)
        snap = reg.snapshot()
        assert snap["s.modeled_s"]["sum"] == pytest.approx(0.015)

    def test_none_registry_is_a_noop(self):
        with stage_timer(None, "s") as timing:
            timing.add_modeled(1.0)  # must not raise
