"""Tests for the store lifecycle subsystem (retention + eviction).

Covers the policy object itself, ``apply_retention`` reports, and — as
a hypothesis property — that for *any* interleaving of inserts and
evictions, both placements answer area queries over the retained window
with exactly the non-evicted matching VPs.
"""

from __future__ import annotations

import glob
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.geo.geometry import Rect
from repro.store import RetentionPolicy, SegmentStore, apply_retention
from repro.store.serving import QuerySpec
from tests.store.conftest import (
    PLACEMENTS,
    build_placement,
    build_store,
    fingerprints,
    insert_trusted_vp,
    insert_vp,
    insert_vps,
    make_vp,
)


def segment_bytes(store: SegmentStore) -> int:
    """Bytes of every file a named log keeps under its prefix."""
    return sum(os.path.getsize(name) for name in glob.glob(f"{glob.escape(store.path)}.*"))


class TestRetentionPolicy:
    def test_cutoff_and_retains(self):
        policy = RetentionPolicy(window_minutes=3, grace=1)
        assert policy.retained_minutes == 4
        assert policy.cutoff(newest_minute=10) == 7
        assert policy.retains(7, newest_minute=10)
        assert not policy.retains(6, newest_minute=10)

    def test_validation(self):
        with pytest.raises(ValidationError):
            RetentionPolicy(window_minutes=0)
        with pytest.raises(ValidationError):
            RetentionPolicy(window_minutes=1, grace=-1)
        with pytest.raises(ValidationError):
            RetentionPolicy(window_minutes=1, max_vps_per_minute=-1)


class TestApplyRetention:
    def test_evicts_below_cutoff_and_reports(self):
        store = SegmentStore()
        for minute in range(5):
            insert_vp(store, make_vp(seed=minute + 1, minute=minute))
        report = apply_retention(
            store, RetentionPolicy(window_minutes=2), newest_minute=4
        )
        assert report.cutoff == 3
        assert report.evicted == 3
        assert store.minutes() == [3, 4]

    def test_overload_flagged_not_discarded(self):
        # the per-minute cap is advisory: VPs are potential evidence, so
        # a concentration flood is reported, never silently dropped
        store = SegmentStore()
        for i in range(4):
            insert_vp(store, make_vp(seed=i + 1, minute=0, x0=40.0 * i))
        policy = RetentionPolicy(window_minutes=5, max_vps_per_minute=3)
        report = apply_retention(store, policy, newest_minute=0)
        assert report.overloaded == {0: 4}
        assert len(store) == 4

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_a_long_run_keeps_exactly_the_last_window(self, placement):
        # retention advancing with ingest, on every way a caller gets
        # the log: a run eight windows long leaves one window live, and
        # a named log's files track that window, not the history
        # (eviction unlinks whole segments)
        window, per_minute, minutes = 5, 6, 40
        policy = RetentionPolicy(window_minutes=window)
        store = build_placement(placement)
        evicted = peak = 0
        for minute in range(minutes):
            insert_vps(
                store,
                [
                    make_vp(seed=minute * per_minute + i + 1, minute=minute, x0=300.0 * i)
                    for i in range(per_minute)
                ],
            )
            evicted += apply_retention(store, policy, minute).evicted
            peak = max(peak, len(store))
        assert store.minutes() == list(range(minutes - window, minutes))
        assert len(store) == window * per_minute
        assert peak <= 2 * window * per_minute
        assert evicted == (minutes - window) * per_minute
        if placement == "named":
            with build_store("named") as one_window:
                for minute in store.minutes():
                    insert_vps(one_window, store.query(QuerySpec(minute=minute)).vps)
                assert segment_bytes(store) <= 2 * segment_bytes(one_window)
        store.close()

    def test_count_by_minute_matches_population(self):
        for store in (SegmentStore(), build_store("named")):
            for i in range(5):
                insert_vp(store, make_vp(seed=i + 1, minute=i % 2, x0=500.0 * i))
            assert store.query(QuerySpec(minute=0, count=True)).n == 3
            assert len(store.query(QuerySpec(minute=0)).vps) == 3
            assert store.query(QuerySpec(minute=1, count=True)).n == 2
            assert store.query(QuerySpec(minute=7, count=True)).n == 0
            store.close()


class TestEvictionSemantics:
    @pytest.mark.parametrize("kind", list(PLACEMENTS))
    def test_evicted_vps_fully_gone(self, kind):
        store = build_placement(kind)
        vps = [
            make_vp(seed=10 * m + i + 1, minute=m, x0=300.0 * i)
            for m in range(4)
            for i in range(3)
        ]
        insert_vps(store, vps)
        assert store.evict_before(2) == 6
        assert store.minutes() == [2, 3]
        for vp in vps:
            if vp.minute < 2:
                assert vp.vp_id not in store
                assert store.get(vp.vp_id) is None
            else:
                assert vp.vp_id in store
        # evicted ids are free again: the same R value can be reused
        # (the duplicate check must not remember ghosts)
        readd = make_vp(seed=1, minute=0)
        insert_vp(store, readd)
        assert fingerprints(store.query(QuerySpec(minute=0)).vps) == fingerprints([readd])
        assert store.evict_before(10) == 7
        assert len(store) == 0
        store.close()


class TestTrustedPinning:
    """``pin_trusted``: a retention pass never drops investigation seeds."""

    @pytest.mark.parametrize("kind", list(PLACEMENTS))
    def test_pinned_trusted_survive_eviction(self, kind):
        store = build_placement(kind)
        try:
            anon = [
                make_vp(seed=10 * m + i + 1, minute=m, x0=500.0 * i)
                for m in range(3)
                for i in range(3)
            ]
            seeds = [make_vp(seed=100 + m, minute=m, x0=40.0) for m in range(3)]
            insert_vps(store, anon)
            for vp in seeds:
                insert_trusted_vp(store, vp)

            assert store.evict_before(2, keep_trusted=True) == 6
            # seeds of the evicted minutes survive, in order, queryable
            for m in range(2):
                for spec in (QuerySpec(minute=m), QuerySpec(minute=m, trusted_only=True)):
                    assert fingerprints(store.query(spec).vps) == fingerprints([seeds[m]])
                assert store.get(seeds[m].vp_id) is not None
                assert seeds[m].vp_id in store
            # minute 2 untouched: full population, original order
            assert fingerprints(store.query(QuerySpec(minute=2)).vps) == fingerprints(
                anon[6:9] + [seeds[2]]
            )
            # pinned ids stay claimed; evicted anonymous ids free up
            with pytest.raises(ValidationError):
                insert_vp(store, make_vp(seed=100, minute=0, x0=40.0))
            insert_vp(store, make_vp(seed=1, minute=0, x0=0.0))
            # a later unpinned pass reclaims everything below the cutoff:
            # 2 at minute 0 (seed + re-add), 1 at minute 1, 4 at minute 2
            assert store.evict_before(3) == 7
            assert len(store) == 0
        finally:
            store.close()

    def test_apply_retention_honors_pin_trusted(self):
        store = SegmentStore()
        insert_vp(store, make_vp(seed=1, minute=0))
        insert_trusted_vp(store, make_vp(seed=2, minute=0, x0=40.0))
        policy = RetentionPolicy(window_minutes=1, pin_trusted=True)
        report = apply_retention(store, policy, newest_minute=9)
        assert report.evicted == 1
        assert len(store) == 1 and store.query(QuerySpec(minute=0, trusted_only=True)).vps
        store.close()

    def test_unpinned_policy_still_evicts_trusted(self):
        store = SegmentStore()
        insert_trusted_vp(store, make_vp(seed=2, minute=0, x0=40.0))
        report = apply_retention(
            store, RetentionPolicy(window_minutes=1), newest_minute=9
        )
        assert report.evicted == 1 and len(store) == 0
        store.close()


# -- property: any insert/evict interleaving, exact retained answers -------

#: an op is insert (False, seed-ish, minute, x_cell, y_cell) or evict
#: (True, cutoff, _, _, _)
lifecycle_ops = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(0, 6),
        st.integers(0, 3),
        st.integers(-2, 4),
        st.integers(-2, 4),
    ),
    min_size=1,
    max_size=16,
)
areas = st.tuples(
    st.floats(-700, 1400), st.floats(-700, 1400), st.floats(0, 900), st.floats(0, 900)
)


def lifecycle_backends():
    return [SegmentStore(), build_store("named")]


@given(ops=lifecycle_ops, area=areas)
@settings(max_examples=25, deadline=None)
def test_any_interleaving_retains_exactly_the_survivors(ops, area):
    backends = lifecycle_backends()
    #: reference model: minute -> VPs in insertion order, evict = del
    alive: dict[int, list] = {}

    for index, (is_evict, a, minute, xc, yc) in enumerate(ops):
        if is_evict:
            cutoff = a  # evict everything below minute `a`
            expected = sum(len(vps) for m, vps in alive.items() if m < cutoff)
            for m in [m for m in alive if m < cutoff]:
                del alive[m]
            for store in backends:
                assert store.evict_before(cutoff) == expected
        else:
            # unique per op so inserts never collide across interleavings
            seed = 1 + index + 100 * (a + 10 * (minute + 4 * ((xc + 2) + 7 * (yc + 2))))
            copies = [
                make_vp(seed=seed, n=2, minute=minute, x0=300.0 * xc, y0=300.0 * yc)
                for _ in range(len(backends) + 1)
            ]
            alive.setdefault(minute, []).append(copies[-1])
            for store, vp in zip(backends, copies):
                insert_vp(store, vp)

    x0, y0, w, h = area
    rect = Rect(x0, y0, x0 + w, y0 + h)
    for store in backends:
        assert len(store) == sum(len(vps) for vps in alive.values())
        assert store.minutes() == sorted(alive)
        for minute in range(4):
            survivors = alive.get(minute, [])
            found = store.query(QuerySpec(minute=minute)).vps
            assert fingerprints(found) == fingerprints(survivors)
            expected_area = [
                vp
                for vp in survivors
                if any(
                    rect.x_min <= p.x <= rect.x_max and rect.y_min <= p.y <= rect.y_max
                    for p in vp.trajectory.points
                )
            ]
            found = store.query(QuerySpec(minute=minute, area=rect)).vps
            assert fingerprints(found) == fingerprints(expected_area)
        store.close()
