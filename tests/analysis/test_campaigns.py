"""Unit tests for the campaign-grid subsystem (config, rows, invariants)."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.analysis.campaigns import (
    CAMPAIGNS,
    ROW_SCHEMA,
    CampaignGridConfig,
    CampaignRow,
    row_invariant_violations,
    rows_to_json,
    run_campaign_cell,
    run_campaign_grid,
)
from repro.attacks.poisoning import all_ones_attack_detected
from repro.errors import ValidationError


def tiny_config(**overrides) -> CampaignGridConfig:
    """A single-cell-sized grid config the unit tests can afford."""
    defaults = dict(
        campaigns=("clean", "faker"),
        restarts=("none",),
        retentions=("window",),
        n_vehicles=4,
        witnesses=1,
        # one VP per request keeps the honest request volume high enough
        # that four attack batches stay inside the goodput floor, like
        # the full-size default workload
        batch_vps=1,
        n_fakes=2,
        n_chain=3,
        n_dummies=8,
        max_vps_per_minute=7,
    )
    defaults.update(overrides)
    return CampaignGridConfig(**defaults)


class TestConfigValidation:
    def test_rejects_unknown_axis_values(self):
        with pytest.raises(ValidationError):
            CampaignGridConfig(campaigns=("clean", "ddos"))
        with pytest.raises(ValidationError):
            CampaignGridConfig(restarts=("crash",))
        with pytest.raises(ValidationError):
            CampaignGridConfig(retentions=("forever",))

    def test_rejects_empty_axes_and_bad_timeline(self):
        with pytest.raises(ValidationError):
            CampaignGridConfig(restarts=())
        with pytest.raises(ValidationError):
            CampaignGridConfig(minutes=1)
        with pytest.raises(ValidationError):
            CampaignGridConfig(minutes=3, attack_minute=3)
        with pytest.raises(ValidationError):
            CampaignGridConfig(window_minutes=0)

    def test_rejects_unknown_cell_axes(self):
        cfg = tiny_config()
        with pytest.raises(ValidationError):
            run_campaign_cell("ddos", "none", "window", cfg)
        with pytest.raises(ValidationError):
            run_campaign_cell("clean", "crash", "window", cfg)
        with pytest.raises(ValidationError):
            run_campaign_cell("clean", "none", "forever", cfg)


class TestRowShape:
    def test_rows_serialize_stably(self):
        cfg = tiny_config()
        rows = run_campaign_grid(cfg)
        assert [row.campaign for row in rows] == ["clean", "faker"]
        text = rows_to_json(rows)
        parsed = json.loads(text)
        assert [r["schema"] for r in parsed] == [ROW_SCHEMA, ROW_SCHEMA]
        # canonical form: reserializing the parsed JSON is a fixed point
        assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == text

    def test_clean_cell_sanity(self):
        cfg = tiny_config()
        row = run_campaign_cell("clean", "none", "window", cfg)
        per_minute = cfg.n_vehicles + cfg.witnesses
        assert row.honest_uploaded == per_minute * cfg.minutes
        assert row.accepted == row.honest_uploaded
        assert row.rejected == 0 and row.attack_vps == 0
        # window of 2 minutes at watermark 2 retains minutes 1 and 2
        assert row.honest_retained == per_minute * cfg.window_minutes
        assert row.throughput_ratio == 1.0
        assert row_invariant_violations(row) == []

    def test_kitchen_sink_combines_all_components(self):
        cfg = tiny_config()
        control = run_campaign_cell("clean", "none", "none", cfg)
        row = run_campaign_cell("kitchen_sink", "none", "none", cfg, control=control)
        expected = cfg.n_fakes + cfg.n_chain + cfg.n_dummies + cfg.n_saturated + 1
        assert row.attack_vps == expected
        assert row.attack_success_rate == 0.0
        assert "far_future_minute" in row.detected_signals
        assert "overload" in row.detected_signals
        assert row_invariant_violations(row) == []

    def test_saturated_poison_vps_are_detectable(self):
        from repro.analysis.campaigns import _forge_component

        cfg = tiny_config()
        forged = _forge_component("poisoning", cfg, [])
        assert sum(all_ones_attack_detected(vp) for vp in forged) == cfg.n_saturated
        assert max(vp.minute for vp in forged) > cfg.minutes


class TestInvariantChecks:
    def _clean_row(self) -> CampaignRow:
        cfg = tiny_config()
        return run_campaign_cell("clean", "none", "window", cfg)

    def test_detects_solicited_fakes(self):
        row = dataclasses.replace(
            self._clean_row(), campaign="faker", attack_vps=2, attack_solicited=1,
            attack_success_rate=0.5, detected_signals=("verification_reject",),
            detection_latency_min=0, throughput_ratio=0.9,
        )
        assert any("solicited" in v for v in row_invariant_violations(row))

    def test_detects_watermark_overrun_and_missed_detection(self):
        row = dataclasses.replace(
            self._clean_row(), campaign="poisoning", attack_vps=3,
            watermark_final=99, clamp_engagements=1, throughput_ratio=0.9,
            detection_latency_min=-1, honest_vp_loss=0.5,
        )
        violations = row_invariant_violations(row)
        assert any("overran the clamp" in v for v in violations)
        assert any("never detected" in v for v in violations)

    def test_detects_stale_schema_and_false_positives(self):
        stale = dataclasses.replace(self._clean_row(), schema="campaign-row/v0")
        assert row_invariant_violations(stale)
        noisy = dataclasses.replace(
            self._clean_row(), detected_signals=("overload",), detection_latency_min=0
        )
        assert any("false positive" in v for v in row_invariant_violations(noisy))

    def test_grid_always_measures_against_a_control(self):
        # the clean control runs even when not requested: loss/throughput
        # of every attack row must reference it, not the attack cell itself
        cfg = tiny_config(campaigns=("faker",))
        (row,) = run_campaign_grid(cfg)
        assert row.campaign == "faker"
        assert row.throughput_ratio < 1.0
        assert row.control_honest_retained == row.honest_retained

    def test_campaign_list_is_closed(self):
        assert set(CAMPAIGNS) == {
            "clean", "faker", "poisoning", "collusion", "concentration",
            "kitchen_sink",
        }
