"""Tests for the read path: QuerySpec, and selection on the log's columns.

The log's per-minute columns are its only index: a whole-minute count
is the minute's published row count, and an area query tests each row's
bounding box before it reads a record.  These tests hold both answers to
a naive scan of the inserted VPs on every placement, including the
rectangles a coarser index would have short-circuited, and drive racing
ingest/evict/count traffic through the one store lock.
"""

from __future__ import annotations

import dataclasses
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.geo.geometry import Rect
from repro.store import encode_vp_batch
from repro.store.base import vp_claims_in_area
from repro.store.serving import QuerySpec
from tests.store.conftest import (
    PLACEMENTS,
    build_placement,
    insert_trusted_vp,
    insert_vp,
    insert_vps,
    make_vp,
)


class TestQuerySpec:
    def test_defaults(self):
        spec = QuerySpec(minute=3)
        assert spec.area is None and not spec.trusted_only
        assert not spec.count and not spec.encoded

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"minute": -1},
            {"minute": 0, "count": True, "encoded": True},
        ],
    )
    def test_invalid_axes_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            QuerySpec(**kwargs)

    def test_a_read_selects_and_shapes_it_never_ranks(self):
        # investigation seeds on the trusted frame's columns, not on a store ranking
        axes = {field.name for field in dataclasses.fields(QuerySpec)}
        assert axes == {"minute", "area", "trusted_only", "count", "encoded"}


@pytest.mark.parametrize("kind", list(PLACEMENTS))
class TestMinuteSelection:
    def test_whole_minute_counts(self, kind):
        with build_placement(kind) as store:
            insert_vps(store, [make_vp(seed=i, minute=1) for i in range(4)])
            insert_trusted_vp(store, make_vp(seed=99, minute=1))
            assert store.query(QuerySpec(minute=1, count=True)).n == 5
            assert store.query(QuerySpec(minute=1, trusted_only=True, count=True)).n == 1
            assert store.query(QuerySpec(minute=2, count=True)).n == 0

    def test_far_area_returns_an_empty_frame(self, kind):
        with build_placement(kind) as store:
            insert_vps(store, [make_vp(seed=i, minute=0, x0=0.0) for i in range(3)])
            far = Rect(50_000.0, 50_000.0, 51_000.0, 51_000.0)
            assert store.query(QuerySpec(minute=0, area=far)).vps == []
            frame = store.query_encoded(QuerySpec(minute=0, area=far, encoded=True))
            assert frame == encode_vp_batch([])
            assert store.query(QuerySpec(minute=0, area=far, count=True)).n == 0

    def test_counts_after_eviction(self, kind):
        with build_placement(kind) as store:
            insert_vps(store, [make_vp(seed=i, minute=0) for i in range(3)])
            insert_trusted_vp(store, make_vp(seed=9, minute=0))
            insert_vps(store, [make_vp(seed=10 + i, minute=5) for i in range(2)])
            assert store.query(QuerySpec(minute=0, count=True)).n == 4
            store.evict_before(3, keep_trusted=True)
            assert store.query(QuerySpec(minute=0, count=True)).n == 1
            assert store.query(QuerySpec(minute=0, trusted_only=True, count=True)).n == 1
            store.evict_before(3)
            assert store.query(QuerySpec(minute=0, count=True)).n == 0
            assert store.query(QuerySpec(minute=5, count=True)).n == 2


# -- the rectangles a coarse index used to short-circuit ------------------------

#: a population of one minute: (seed, x0, y0, step between positions, trusted)
populations = st.lists(
    st.tuples(
        st.integers(0, 10_000),
        st.floats(0.0, 2_000.0),
        st.floats(0.0, 2_000.0),
        st.floats(20.0, 120.0),
        st.booleans(),
    ),
    min_size=1,
    max_size=6,
    unique_by=lambda row: row[0],
)


def _cold(vps, data) -> Rect:
    """Outside the city: no VP comes within tens of kilometres."""
    x = data.draw(st.floats(50_000.0, 1e6))
    return Rect(x, -x, x + data.draw(st.floats(0.0, 1e4)), -x + 10.0)


def _degenerate(vps, data) -> Rect:
    """Zero width, lying on one VP's bounding-box edge."""
    x_min, y_min, x_max, y_max = data.draw(st.sampled_from(vps)).bounding_box
    x = data.draw(st.sampled_from([x_min, x_max]))
    return Rect(x, y_min - data.draw(st.floats(0.0, 5.0)), x, y_max)


def _wider_than_city(vps, data) -> Rect:
    half = data.draw(st.floats(1e5, 1e7))
    return Rect(-half, -half, half, half)


def _between_positions(vps, data) -> Rect:
    """Inside one VP's bounding box (so inside a cell it touches) while
    none of that VP's positions lies in the rectangle."""
    vp = data.draw(st.sampled_from(vps))
    pos = vp.positions_array
    i = data.draw(st.integers(0, len(pos) - 2))
    (x_lo, y), (x_hi, _) = pos[i].tolist(), pos[i + 1].tolist()
    gap = x_hi - x_lo
    left = x_lo + gap * data.draw(st.floats(0.05, 0.45))
    right = x_hi - gap * data.draw(st.floats(0.05, 0.45))
    rect = Rect(left, y - 5.0, right, y + 5.0)
    assert not vp_claims_in_area(vp, rect)
    return rect


RECTANGLES = {
    "cold": _cold,
    "degenerate": _degenerate,
    "wider-than-city": _wider_than_city,
    "between-positions": _between_positions,
}


@pytest.mark.parametrize("shape", list(RECTANGLES))
@pytest.mark.parametrize("kind", list(PLACEMENTS))
@settings(max_examples=15, deadline=None)
@given(population=populations, data=st.data())
def test_area_selection_matches_a_naive_scan(kind, shape, population, data):
    """``query_encoded`` is byte-identical to re-encoding a naive
    ``vp_claims_in_area`` scan, and both count axes match its counts."""
    vps = [
        make_vp(seed=seed, minute=0, x0=x0, y0=y0, step=step)
        for seed, x0, y0, step, _trusted in population
    ]
    with build_placement(kind) as store:
        for vp, (*_, trusted) in zip(vps, population):
            (insert_trusted_vp if trusted else insert_vp)(store, vp)
        area = RECTANGLES[shape](vps, data)
        for trusted_only in (False, True):
            naive = [
                vp
                for vp in vps
                if vp_claims_in_area(vp, area) and (vp.trusted or not trusted_only)
            ]
            spec = QuerySpec(minute=0, area=area, trusted_only=trusted_only)
            assert store.query_encoded(spec) == encode_vp_batch(naive)
            counted = QuerySpec(minute=0, area=area, trusted_only=trusted_only, count=True)
            assert store.query(counted).n == len(naive)
            whole = QuerySpec(minute=0, trusted_only=trusted_only, count=True)
            assert store.query(whole).n == sum(vp.trusted or not trusted_only for vp in vps)


@pytest.mark.parametrize("kind", list(PLACEMENTS))
def test_minute_counts_exact_under_concurrent_ingest_and_evict(kind):
    """Racing writers, a count reader and an evictor never desync counts.

    The reader polls whole-minute counts while writers land rows and an
    evictor advances the watermark; afterwards every minute's count must
    equal the number of VPs a decoded read of the minute returns.
    """
    store = build_placement(kind)
    errors: list[Exception] = []
    stop = threading.Event()

    def writer(base: int) -> None:
        try:
            for i in range(40):
                insert_vp(store, make_vp(seed=base + i, minute=(base + i) % 4))
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    def reader() -> None:
        try:
            while not stop.is_set():
                for minute in range(4):
                    n = store.query(QuerySpec(minute=minute, count=True)).n
                    assert n >= 0
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    def evictor() -> None:
        try:
            for cutoff in (1, 2):
                store.evict_before(cutoff)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(1000 * t,)) for t in range(3)]
    threads.append(threading.Thread(target=reader))
    threads.append(threading.Thread(target=evictor))
    for t in threads[:3] + threads[4:]:
        t.start()
    threads[3].start()
    for t in threads[:3] + threads[4:]:
        t.join(timeout=60)
    stop.set()
    threads[3].join(timeout=60)
    assert not any(t.is_alive() for t in threads), "a store call wedged"
    assert not errors
    # quiesced: every count must match the rows a decoded read returns
    for minute in range(4):
        expected = len(store.query(QuerySpec(minute=minute)).vps)
        assert store.query(QuerySpec(minute=minute, count=True)).n == expected
    store.close()
