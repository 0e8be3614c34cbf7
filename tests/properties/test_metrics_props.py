"""Property-based tests for the mergeable latency histogram."""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import HISTOGRAM_GROWTH, Histogram, MetricsRegistry

# latency-like samples spanning microseconds to minutes, plus exact zeros
values = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=100.0, allow_nan=False, allow_infinity=False),
)
sample_lists = st.lists(values, max_size=120)
quantiles = st.sampled_from([0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0])


def hist_of(samples):
    h = Histogram()
    for s in samples:
        h.record(s)
    return h


def assert_same_distribution(a, b):
    """Identical populations: everything exact except the float ``sum``.

    Addition order differs between merge groupings, so ``sum`` may
    drift by rounding ulps — the distribution (buckets, count, zero,
    extremes) and therefore every quantile must match exactly.
    """
    da, db = a.to_dict(), b.to_dict()
    sa, sb = da.pop("sum"), db.pop("sum")
    assert da == db
    assert math.isclose(sa, sb, rel_tol=1e-9, abs_tol=1e-12)


class TestHistogramProperties:
    @given(sample_lists, sample_lists, sample_lists)
    @settings(max_examples=40)
    def test_merge_associative(self, xs, ys, zs):
        left = hist_of(xs).merge(hist_of(ys)).merge(hist_of(zs))
        right = hist_of(xs).merge(hist_of(ys).merge(hist_of(zs)))
        assert_same_distribution(left, right)

    @given(sample_lists, sample_lists)
    @settings(max_examples=40)
    def test_merge_commutative(self, xs, ys):
        assert_same_distribution(
            hist_of(xs).merge(hist_of(ys)), hist_of(ys).merge(hist_of(xs))
        )

    @given(sample_lists, sample_lists)
    @settings(max_examples=40)
    def test_merge_equals_combined_population(self, xs, ys):
        assert_same_distribution(hist_of(xs).merge(hist_of(ys)), hist_of(xs + ys))

    @given(st.lists(values, min_size=1, max_size=120), quantiles)
    @settings(max_examples=60)
    def test_quantile_error_bounded_by_bucket_width(self, samples, q):
        h = hist_of(samples)
        est = h.quantile(q)
        true = sorted(samples)[max(1, math.ceil(q * len(samples))) - 1]
        # the estimator picks the bucket holding the true order
        # statistic, so the estimate is within one bucket's growth
        # factor (zeros land in the exact zero bucket)
        if true == 0.0:
            assert est == 0.0
        else:
            assert true / HISTOGRAM_GROWTH <= est <= true * HISTOGRAM_GROWTH
        assert 0.0 <= est <= h.max

    @given(sample_lists)
    @settings(max_examples=40)
    def test_json_roundtrip_exact(self, samples):
        h = hist_of(samples)
        restored = Histogram.from_dict(json.loads(json.dumps(h.to_dict())))
        assert restored.to_dict() == h.to_dict()

    @given(st.lists(st.lists(values, min_size=1, max_size=60), min_size=1, max_size=5))
    @settings(max_examples=30)
    def test_snapshot_merge_order_invariant(self, populations):
        snaps = [{"lat": hist_of(p).to_dict()} for p in populations]
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for a, b in zip(snaps, reversed(snaps)):
            forward.merge_snapshot(a)
            backward.merge_snapshot(b)
        assert_same_distribution(
            forward.histogram("lat"), backward.histogram("lat")
        )
