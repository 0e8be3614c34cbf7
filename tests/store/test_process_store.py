"""Tests for the process shard workers (``repro.store.workers``).

The smoke test doubles as the CI tier-1 gate for the worker machinery:
it exercises the full ``VPStore`` contract through real worker OS
processes with a short per-op timeout, so a wedged worker surfaces as a
clean ``StorageError`` within seconds instead of hanging the suite.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.errors import StorageError, ValidationError
from repro.geo.geometry import Point, Rect
from repro.store import ProcessShardedStore, RetentionPolicy, apply_retention
from repro.store.serving import QuerySpec
from tests.store.conftest import fingerprints, make_vp

#: every worker round-trip in this file must answer well within this
OP_TIMEOUT_S = 30.0


def make_fleet(tmp_path=None, n=2):
    """``n`` workers on anonymous segments, or on named ones under ``tmp_path``."""
    prefix = str(tmp_path / "fleet") if tmp_path is not None else ""
    return ProcessShardedStore(
        [{"kind": "segments", "path": f"{prefix}.worker{i}" if prefix else ""}
         for i in range(n)],
        shard_cells=n,
        op_timeout_s=OP_TIMEOUT_S,
    )


class TestContractSmoke:
    def test_full_contract_through_worker_processes(self):
        store = make_fleet()
        try:
            assert store.worker_pids() and all(
                pid and pid != os.getpid() for pid in store.worker_pids()
            )
            vps = [
                make_vp(seed=i + 1, minute=i % 2, x0=700.0 * i, y0=350.0 * (i % 3))
                for i in range(10)
            ]
            store.insert(vps[0])
            assert store.insert_many(vps) == 9
            with pytest.raises(ValidationError):
                store.insert(make_vp(seed=1, minute=0))
            assert len(store) == 10
            assert store.minutes() == [0, 1]
            assert store.query(QuerySpec(minute=0, count=True)).n == 5
            expected0 = [vp for vp in vps if vp.minute == 0]
            assert fingerprints(store.query(QuerySpec(minute=0)).vps) == fingerprints(expected0)
            assert vps[3].vp_id in store
            assert fingerprints([store.get(vps[3].vp_id)]) == fingerprints([vps[3]])
            assert store.get(b"\x00" * 16) is None
            area = Rect(-10.0, -10.0, 1500.0, 1500.0)
            expected_area = [
                vp
                for vp in expected0
                if any(
                    -10.0 <= p.x <= 1500.0 and -10.0 <= p.y <= 1500.0
                    for p in vp.trajectory.points
                )
            ]
            found = store.query(QuerySpec(minute=0, area=area)).vps
            assert fingerprints(found) == fingerprints(expected_area)
            trusted = make_vp(seed=90, minute=0, x0=10.0)
            store.insert_trusted(trusted)
            for spec in (
                QuerySpec(minute=0, trusted_only=True),
                QuerySpec(minute=0, trusted_only=True, nearest=Point(0.0, 0.0), k=1),
            ):
                assert fingerprints(store.query(spec).vps) == fingerprints([trusted])
            assert sorted(store.iter_id_minutes()) == sorted(
                (vp.vp_id, vp.minute) for vp in vps + [trusted]
            )
            stats = store.stats()
            assert stats.backend == "procs" and stats.vps == 11 and stats.trusted == 1
            assert store.shards[0].stats().detail["worker_pid"] == store.worker_pids()[0]
            assert store.evict_before(1) == 6
            assert store.minutes() == [1]
        finally:
            store.close()
        # close reaped the fleet: the workers are gone
        for shard in store.shards:
            assert not shard.alive()
            assert not os.path.exists(f"/proc/{shard.worker_pid}")

    def test_duplicate_id_across_minutes_rejected(self):
        # same R value at two different minutes routes to two different
        # workers; the routing tier must still reject the duplicate
        store = make_fleet()
        try:
            gen_a = make_vp(seed=5, minute=0)
            gen_b = make_vp(seed=5, minute=1)
            assert gen_a.vp_id == gen_b.vp_id
            store.insert(gen_a)
            with pytest.raises(ValidationError):
                store.insert(gen_b)
            assert store.insert_many([gen_b]) == 0
        finally:
            store.close()

    def test_sqlite_fleet_persists_across_restart(self, tmp_path):
        vps = [make_vp(seed=i + 1, minute=0, x0=900.0 * i) for i in range(6)]
        store = make_fleet(tmp_path)
        store.insert_many(vps)
        store.close()

        reopened = make_fleet(tmp_path)
        try:
            assert len(reopened) == 6
            with pytest.raises(ValidationError):
                reopened.insert(make_vp(seed=1, minute=0))
            assert {f for f in fingerprints(reopened.query(QuerySpec(minute=0)).vps)} == {
                f for f in fingerprints(vps)
            }
        finally:
            reopened.close()


class TestFailureModel:
    def test_dead_worker_raises_storage_error_and_close_returns(self):
        store = make_fleet()
        victim = store.shards[0]
        os.kill(victim.worker_pid, signal.SIGKILL)
        victim._proc.join(timeout=OP_TIMEOUT_S)
        with pytest.raises(StorageError):
            victim.insert_many([make_vp(seed=1, minute=0)])
        assert not victim.alive()
        # the fleet still shuts down cleanly around the corpse
        store.close()

    def test_broken_worker_poisons_subsequent_ops(self):
        store = make_fleet()
        victim = store.shards[1]
        os.kill(victim.worker_pid, signal.SIGKILL)
        victim._proc.join(timeout=OP_TIMEOUT_S)
        with pytest.raises(StorageError):
            len(victim)
        with pytest.raises(StorageError):
            len(victim)  # still poisoned, still loud, never hangs
        store.close()

    def test_worker_construction_failure_surfaces(self, tmp_path):
        bad = str(tmp_path / "no-such-dir" / "worker")
        with pytest.raises(StorageError):
            ProcessShardedStore(
                [{"kind": "segments", "path": bad}], op_timeout_s=OP_TIMEOUT_S
            )


class TestRetentionOnWorkers:
    def test_pin_trusted_survives_eviction(self):
        store = make_fleet()
        try:
            anon = [make_vp(seed=i + 1, minute=0, x0=600.0 * i) for i in range(4)]
            seed_vp = make_vp(seed=50, minute=0, x0=5.0)
            store.insert_many(anon)
            store.insert_trusted(seed_vp)
            policy = RetentionPolicy(window_minutes=1, pin_trusted=True)
            report = apply_retention(store, policy, newest_minute=5)
            assert report.evicted == 4
            assert fingerprints(store.query(QuerySpec(minute=0)).vps) == fingerprints([seed_vp])
            assert store.get(seed_vp.vp_id) is not None
            # the pinned id stays claimed; evicted anonymous ids free up
            with pytest.raises(ValidationError):
                store.insert(make_vp(seed=50, minute=0, x0=5.0))
            store.insert(make_vp(seed=1, minute=0, x0=0.0))
        finally:
            store.close()
