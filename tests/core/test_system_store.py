"""End-to-end tests for ViewMapSystem over configurable storage backends."""

import pytest

from repro.core.system import ViewMapSystem
from repro.core.vehicle import VehicleAgent
from repro.errors import ValidationError
from repro.geo.geometry import Point
from repro.store import SegmentStore
from tests.conftest import run_linked_minute
from tests.store.conftest import build_store


def drive_minute():
    police = VehicleAgent(vehicle_id=100, seed=10)
    civilian = VehicleAgent(vehicle_id=1, seed=11)
    return run_linked_minute(police, civilian)


@pytest.mark.parametrize("kind", ["anonymous", "named"])
def test_investigation_over_any_backend(kind):
    system = ViewMapSystem(key_bits=512, seed=1, store=build_store(kind))
    res_police, res_civ = drive_minute()
    system.ingest_trusted_vp(res_police.actual_vp)
    system.ingest_vps([res_civ.actual_vp] + res_civ.guard_vps + res_police.guard_vps)
    inv = system.investigate(Point(300, 25), minute=0, site_radius_m=1000)
    assert res_civ.actual_vp.vp_id in inv.solicited


def test_store_and_database_together_rejected():
    from repro.core.database import VPDatabase

    with pytest.raises(ValidationError):
        ViewMapSystem(
            key_bits=512, store=SegmentStore(), database=VPDatabase()
        )


def test_batch_ingest_rejects_trusted_claims():
    system = ViewMapSystem(key_bits=512, seed=2)
    _, res_civ = drive_minute()
    res_civ.actual_vp.trusted = True
    with pytest.raises(ValidationError):
        system.ingest_vps([res_civ.actual_vp])


def test_batch_ingest_skips_duplicates():
    system = ViewMapSystem(key_bits=512, seed=3)
    _, res_civ = drive_minute()
    vps = [res_civ.actual_vp] + res_civ.guard_vps
    assert system.ingest_vps(vps) == len(vps)
    assert system.ingest_vps(vps) == 0


def test_sqlite_authority_survives_restart(tmp_path):
    path = str(tmp_path / "authority")
    system = ViewMapSystem(key_bits=512, seed=4, store=SegmentStore(path))
    res_police, res_civ = drive_minute()
    system.ingest_trusted_vp(res_police.actual_vp)
    system.ingest_vps([res_civ.actual_vp] + res_civ.guard_vps)
    stored = len(system.database)
    system.database.close()

    # a fresh authority process over the same database file
    reborn = ViewMapSystem(key_bits=512, seed=5, store=SegmentStore(path))
    assert len(reborn.database) == stored
    inv = reborn.investigate(Point(300, 25), minute=0, site_radius_m=1000)
    assert res_civ.actual_vp.vp_id in inv.solicited
    reborn.database.close()
