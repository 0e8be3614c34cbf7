"""Tests for viewmap export and rendering."""

import json

from repro.core.export import render_ascii, save_viewmap, viewmap_to_dict
from repro.core.viewmap import build_viewmap
from repro.store.codec import encode_vp_batch


class TestViewmapExport:
    def test_dict_structure(self, linked_pair):
        _, _, res_a, res_b = linked_pair
        vmap = build_viewmap(encode_vp_batch([res_a.actual_vp, res_b.actual_vp]), minute=0)
        data = viewmap_to_dict(vmap)
        assert data["minute"] == 0
        assert len(data["nodes"]) == 2
        assert len(data["edges"]) == 1
        assert data["stats"]["edges"] == 1

    def test_node_fields(self, linked_pair):
        _, _, res_a, res_b = linked_pair
        res_a.actual_vp.trusted = True
        vmap = build_viewmap(encode_vp_batch([res_a.actual_vp, res_b.actual_vp]), minute=0)
        data = viewmap_to_dict(vmap)
        trusted = [n for n in data["nodes"] if n["trusted"]]
        assert len(trusted) == 1
        assert trusted[0]["id"] == res_a.actual_vp.vp_id.hex()
        assert trusted[0]["degree"] == 1

    def test_save_roundtrips_as_json(self, linked_pair, tmp_path):
        _, _, res_a, res_b = linked_pair
        vmap = build_viewmap(encode_vp_batch([res_a.actual_vp, res_b.actual_vp]), minute=0)
        path = tmp_path / "viewmap.json"
        save_viewmap(vmap, path)
        loaded = json.loads(path.read_text())
        assert loaded == viewmap_to_dict(vmap)

    def test_ascii_render(self, linked_pair):
        _, _, res_a, res_b = linked_pair
        vmap = build_viewmap(encode_vp_batch([res_a.actual_vp, res_b.actual_vp]), minute=0)
        art = render_ascii(vmap, width=30, height=8)
        lines = art.splitlines()
        assert len(lines) == 8
        assert all(len(line) == 30 for line in lines)
        assert any(c != " " for line in lines for c in line)

    def test_empty_viewmap_render(self):
        assert "empty" in render_ascii(build_viewmap(encode_vp_batch([]), minute=0))


class TestInvestigatePeriod:
    def test_multi_minute_investigation(self):
        from repro.core.system import ViewMapSystem
        from repro.core.vehicle import VehicleAgent
        from repro.geo.geometry import Point
        from tests.conftest import run_linked_minute

        system = ViewMapSystem(key_bits=512, seed=41)
        police = VehicleAgent(vehicle_id=100, seed=41)
        civ = VehicleAgent(vehicle_id=1, seed=42)
        for minute in (0, 1):
            res_pol, res_civ = run_linked_minute(police, civ, minute=minute)
            system.ingest_trusted_vp(res_pol.actual_vp)
            system.ingest_vp(res_civ.actual_vp)
        invs = system.investigate_period(
            Point(300, 25), minutes=[0, 1, 2], site_radius_m=1000
        )
        # minute 2 has no trusted VP and is skipped, not fatal
        assert [inv.minute for inv in invs] == [0, 1]
        for inv in invs:
            assert inv.solicited
