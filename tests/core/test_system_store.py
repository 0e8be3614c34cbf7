"""End-to-end tests for ViewMapSystem over configurable storage backends."""

import pytest

from repro.core.system import ViewMapSystem
from repro.core.vehicle import VehicleAgent
from repro.errors import ValidationError, WireFormatError
from repro.geo.geometry import Point
from repro.store import SegmentStore
from tests.conftest import run_linked_minute
from tests.store.conftest import build_store, make_vp


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


def _refused_late(refusal):
    """160 VPs (three 64-record frames) whose 141st is refused; the
    class and message the refusal raises."""
    vps = [make_vp(seed=i + 1, minute=i % 3, x0=50.0 * i) for i in range(160)]
    if refusal == "trusted":
        vps[140].trusted = True
        return vps, ValidationError, "anonymous uploads cannot claim trusted status"
    vps[140] = make_vp(seed=999, minute=2**32)
    t0 = vps[140].digests[0].t
    message = (
        f"cannot batch-encode a VP starting at t={t0!r}: its minute "
        "does not fit the 4-byte minute field"
    )
    return vps, WireFormatError, message


@pytest.mark.parametrize("refusal", ["trusted", "minute"])
@pytest.mark.parametrize("kind", ["anonymous", "named"])
def test_a_late_refusal_stores_none_of_the_list(kind, refusal):
    # the list spans three frames and the refused VP is in the third:
    # every VP is checked before the first frame is written
    vps, error, message = _refused_late(refusal)
    system = ViewMapSystem(key_bits=512, seed=6, store=build_store(kind))
    try:
        with pytest.raises(error) as raised:
            system.ingest_vps(vps)
        assert type(raised.value) is error and str(raised.value) == message
        assert len(system.database) == 0 and system.database.minutes() == []
    finally:
        system.close()


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
