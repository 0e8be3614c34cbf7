"""Tests for the full-fidelity simulation runner."""

import pytest

from repro.core.viewmap import build_viewmap
from repro.errors import SimulationError
from repro.mobility.scenarios import city_scenario, two_vehicle_passes
from repro.radio.channel import DsrcChannel
from repro.sim.runner import run_viewmap_simulation
from repro.store.serving import QuerySpec
from repro.store.codec import encode_vp_batch


@pytest.fixture(scope="module")
def small_run():
    scn = city_scenario(area_km=1.5, n_vehicles=15, duration_s=120, seed=5)
    channel = DsrcChannel(corridor_block_m=scn.block_m, seed=5)
    return run_viewmap_simulation(scn.traces, channel, seed=5)


class TestSimulationResult:
    def test_one_actual_vp_per_vehicle_minute(self, small_run):
        assert len(small_run.actual_vps(0)) == 15
        assert len(small_run.actual_vps(1)) == 15

    def test_ground_truth_complete(self, small_run):
        for vp in small_run.actual_vps(0):
            assert vp.vp_id in small_run.actual_owner
        for vp in small_run.guard_vps(0):
            assert vp.vp_id in small_run.guard_creator

    def test_vehicle_sequences_ordered(self, small_run):
        for vid, seq in small_run.vehicle_sequence.items():
            assert len(seq) == 2  # two minutes simulated

    def test_neighbor_counts_present(self, small_run):
        assert set(small_run.neighbor_counts[0]) == set(range(15))

    def test_guards_created_when_neighbors_exist(self, small_run):
        total_neighbors = sum(small_run.neighbor_counts[0].values())
        if total_neighbors > 0:
            assert len(small_run.guard_vps(0)) > 0

    def test_all_vps_collects_everything(self, small_run):
        expected = sum(len(v) for v in small_run.vps_by_minute.values())
        assert len(small_run.all_vps()) == expected

    def test_short_trace_rejected(self):
        scn = city_scenario(area_km=1.0, n_vehicles=2, duration_s=60, seed=1)
        channel = DsrcChannel(seed=1)
        scn.traces.duration_s = 30  # force an invalid duration
        with pytest.raises(SimulationError):
            run_viewmap_simulation(scn.traces, channel)


class TestLinkageRealism:
    def test_close_pair_links_in_viewmap(self):
        traces = two_vehicle_passes([80.0], dwell_s=60)
        channel = DsrcChannel(seed=2)
        result = run_viewmap_simulation(traces, channel, seed=2)
        vmap = build_viewmap(encode_vp_batch(result.vps_by_minute[0]), minute=0)
        a, b = result.actual_vps(0)
        assert vmap.graph.has_edge(a.vp_id, b.vp_id)

    def test_distant_pair_does_not_link(self):
        traces = two_vehicle_passes([500.0], dwell_s=60)
        channel = DsrcChannel(seed=3)
        result = run_viewmap_simulation(traces, channel, seed=3)
        vmap = build_viewmap(encode_vp_batch(result.vps_by_minute[0]), minute=0)
        a, b = result.actual_vps(0)
        assert not vmap.graph.has_edge(a.vp_id, b.vp_id)

    def test_full_radio_mode_also_links(self):
        traces = two_vehicle_passes([80.0], dwell_s=60)
        channel = DsrcChannel(seed=4)
        result = run_viewmap_simulation(traces, channel, seed=4, fast_links=False)
        vmap = build_viewmap(encode_vp_batch(result.vps_by_minute[0]), minute=0)
        a, b = result.actual_vps(0)
        assert vmap.graph.has_edge(a.vp_id, b.vp_id)


class TestIngestInto:
    def _fabricated_result(self, n_minutes=2, per_minute=6):
        from repro.sim.runner import SimulationResult
        from tests.store.conftest import make_vp

        result = SimulationResult()
        seed = 1
        for minute in range(n_minutes):
            for i in range(per_minute):
                result.vps_by_minute[minute].append(
                    make_vp(seed=seed, minute=minute, x0=30.0 * i)
                )
                seed += 1
        return result

    def test_empty_minute_from_defaultdict_read_is_harmless(self):
        from repro.store import SegmentStore

        result = self._fabricated_result(n_minutes=1, per_minute=3)
        result.vps_by_minute[7]  # defaultdict read leaves an empty minute
        store = SegmentStore()
        assert result.ingest_into(store) == 3
        assert len(store) == 3

    def test_no_vps_at_all(self):
        from repro.sim.runner import SimulationResult
        from repro.store import RetentionPolicy, SegmentStore

        assert SimulationResult().ingest_into(SegmentStore()) == 0
        policy = RetentionPolicy(window_minutes=2)
        assert SimulationResult().ingest_into(SegmentStore(), retention=policy) == 0

    def test_retention_replay_keeps_only_the_window(self):
        from repro.store import RetentionPolicy, SegmentStore

        result = self._fabricated_result(n_minutes=4, per_minute=5)
        store = SegmentStore()
        inserted = result.ingest_into(store, retention=RetentionPolicy(window_minutes=2))
        assert inserted == 20  # every VP passed through the store...
        assert store.minutes() == [2, 3]  # ...but only the window remains
        assert len(store) == 10
        for minute in (2, 3):
            assert {vp.vp_id for vp in store.query(QuerySpec(minute=minute)).vps} == {
                vp.vp_id for vp in result.vps_by_minute[minute]
            }

    def test_retention_replay_with_a_one_minute_window(self):
        from repro.store import RetentionPolicy, SegmentStore

        result = self._fabricated_result(n_minutes=3, per_minute=4)
        store = SegmentStore()
        inserted = result.ingest_into(store, retention=RetentionPolicy(window_minutes=1))
        assert inserted == 12
        assert store.minutes() == [2]
