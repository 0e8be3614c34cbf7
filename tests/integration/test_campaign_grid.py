"""Integration: the adversarial campaign grid's per-cell acceptance claims.

The grid runner's own invariant list (shared with the CI gate) is
asserted over a real multi-retention grid, plus the individual security
claims spelled out cell by cell: fake-VP solicitation stays at zero on
every store backend, far-future poisoning cannot push the retention
watermark past the clamp bound, honest-VP loss under the worst campaign
stays within the documented budget, and modeled goodput under attack
keeps at least 70% of the clean control's.  A hypothesis property then
pins full-grid determinism: the same seed and config produce
byte-identical serialized rows.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.campaigns import (
    MAX_HONEST_VP_LOSS,
    MIN_THROUGHPUT_RATIO,
    CampaignGridConfig,
    row_invariant_violations,
    rows_to_json,
    run_campaign_cell,
    run_campaign_grid,
)
from repro.net.server import MAX_WATERMARK_STEP
from repro.store import STORE_KINDS


@pytest.fixture(scope="module")
def retention_grid():
    """Every campaign against every retention policy on one backend."""
    cfg = CampaignGridConfig(backends=("memory",))
    return cfg, run_campaign_grid(cfg)


@pytest.fixture(scope="module")
def backend_rows():
    """The faker campaign against all four store backends."""
    cfg = CampaignGridConfig(backends=STORE_KINDS, retentions=("window",))
    rows = {}
    for backend in STORE_KINDS:
        control = run_campaign_cell("clean", backend, "window", cfg)
        rows[backend] = run_campaign_cell("faker", backend, "window", cfg, control=control)
    return rows


class TestPerCellInvariants:
    def test_every_cell_satisfies_the_shared_invariants(self, retention_grid):
        _, rows = retention_grid
        assert len(rows) == 6 * 3  # campaigns x retentions
        violations = [v for row in rows for v in row_invariant_violations(row)]
        assert violations == []

    def test_no_fake_vp_is_ever_solicited(self, retention_grid, backend_rows):
        _, rows = retention_grid
        for row in list(rows) + list(backend_rows.values()):
            assert row.attack_solicited == 0, row.campaign
            assert row.attack_success_rate == 0.0

    def test_fake_rejection_holds_on_every_backend(self, backend_rows):
        assert set(backend_rows) == set(STORE_KINDS)
        for backend, row in backend_rows.items():
            assert row.attack_vps > 0
            assert "verification_reject" in row.detected_signals, backend
            assert row.detection_latency_min == 0

    def test_poisoning_cannot_outrun_the_watermark_clamp(self, retention_grid):
        cfg, rows = retention_grid
        honest_top = cfg.minutes - 1
        for row in rows:
            if row.campaign not in ("poisoning", "kitchen_sink"):
                continue
            if row.retention == "none":
                # no policy: nothing to poison, but the bogus minute is
                # still flagged by the stored-minute monitor
                assert row.watermark_final == -1
                assert "far_future_minute" in row.detected_signals
            else:
                assert row.watermark_final <= honest_top + MAX_WATERMARK_STEP
                assert row.clamp_engagements >= 1
                assert "watermark_clamp" in row.detected_signals

    def test_honest_loss_bounded_and_zero_without_poisoning(self, retention_grid):
        _, rows = retention_grid
        for row in rows:
            assert row.honest_vp_loss <= MAX_HONEST_VP_LOSS
            if row.campaign in ("clean", "faker", "collusion", "concentration"):
                assert row.honest_vp_loss == 0.0
            if row.retention == "pin_trusted":
                assert row.trusted_retained == row.minutes

    def test_throughput_under_attack_keeps_the_floor(self, retention_grid):
        _, rows = retention_grid
        for row in rows:
            if row.campaign == "clean":
                assert row.throughput_ratio == 1.0
            else:
                assert row.throughput_ratio >= MIN_THROUGHPUT_RATIO

    def test_concentration_flood_trips_the_population_monitor(self, retention_grid):
        _, rows = retention_grid
        for row in rows:
            if row.campaign == "concentration":
                assert "overload" in row.detected_signals
                assert row.detection_latency_min == 0


class TestGridDeterminism:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=3, deadline=None)
    def test_same_seed_and_config_give_byte_identical_rows(self, seed):
        cfg = CampaignGridConfig(
            seed=seed,
            campaigns=("clean", "faker"),
            backends=("memory",),
            retentions=("window",),
            n_vehicles=4,
            witnesses=1,
            batch_vps=1,
            n_fakes=2,
        )
        assert rows_to_json(run_campaign_grid(cfg)) == rows_to_json(
            run_campaign_grid(cfg)
        )
