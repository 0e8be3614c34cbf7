"""Seeded adversarial campaign grid: attacks × restarts × retention.

The attack modules (:mod:`repro.attacks`) and the scale-out machinery
(stores, retention, the concurrent front-end, zero-decode frames) each
carry their own tests, but nothing exercised them *against each other*:
does fake-VP rejection still hold when the forgeries arrive mid-ingest
over the threaded fabric into a file-backed store?  Does a
far-future poisoning claim interact with windowed retention the way the
watermark clamp promises, and does that survive an authority restart?
This module is that acceptance layer — a deterministic grid runner that
drives each attack campaign end to end through the wire protocol
against a matrix of deployment configurations, and reduces every cell
to one machine-readable :class:`CampaignRow` with a stable JSON schema
(``campaign-row/v3``) that CI diffs against a committed baseline
(``tools/check_campaigns.py``).

One **cell** = (campaign, restart, retention policy, seed).  Each cell
boots a fresh authority over named segments in its own scratch
directory, behind a
:class:`~repro.net.concurrency.ConcurrentViewMapServer` on a
:class:`~repro.net.concurrency.ThreadedNetwork`, and replays
``cfg.minutes`` minutes of traffic in minute-synchronous waves:

1. **convoy** — one trusted (police) VP plus mutually-linked witness
   VPs from :func:`~repro.sim.stream.stream_convoy_vps` cross the
   investigation site; the trusted VP enters through the authority
   path, witnesses plus :func:`~repro.sim.stream.stream_vp` background
   traffic upload anonymously in concurrent ``upload_vp_batch`` frames;
2. **attack wave** — at ``cfg.attack_minute`` the campaign's forged
   batches land *after* the honest wave settled — as frames, like the
   honest ones — one component batch at a time in a fixed order with
   poisoning last (a far-future claim advances the retention watermark
   and may evict the attack minute itself — sequencing keeps which
   uploads raced the eviction, and therefore the final store content,
   deterministic);
3. **monitor sweep** — the operator-side detectors run: the
   ``server.watermark.clamped`` counter, the
   :func:`~repro.store.lifecycle.survey_overloaded` concentration
   check, a far-future stored-minute scan, and the
   :func:`~repro.attacks.poisoning.all_ones_attack_detected`
   saturation scan;
4. **investigation** — at the attack minute the authority investigates
   the site (candidates sorted by VP id so TrustRank sees an identical
   graph regardless of upload order) and the solicitation outcome is
   compared against the attack population;
5. **restart** (``mid`` only) — right after the attack minute's sweep
   and investigation the network and the system are closed, and a
   fresh system (same seed and retention policy) boots over
   ``SegmentStore(path)`` behind a fresh network and server to finish
   the remaining minutes.  The row's counters and request count are
   the merge of both incarnations', so a ``mid`` row must equal its
   ``none`` row field for field (:func:`restart_violations`).

Every row is a pure function of ``(cell axes, seed, config)``: VP
generation, RSA keys and forgeries are all
:func:`~repro.util.rng.derive_seed`-derived, waves are awaited before
the next begins, and network time is priced by count — each delivered
request costs :data:`WIRE_S_PER_REQUEST` of modeled wire time, never a
sleep or a clock read — so ``rows_to_json`` output is byte-identical
across runs and machines, which is what lets the baseline diff gate on
exact equality.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass

from repro.attacks.faker import forge_fake_vp
from repro.attacks.poisoning import all_ones_attack_detected
from repro.core.system import ViewMapSystem
from repro.core.verification import verify_viewmap
from repro.core.viewmap import build_viewmap, coverage_area
from repro.core.viewprofile import ViewProfile
from repro.crypto.bloom import BloomFilter
from repro.errors import SimulationError, ValidationError
from repro.geo.geometry import Point
from repro.net.concurrency import ConcurrentViewMapServer, ThreadedNetwork
from repro.net.messages import (
    MAX_VP_BATCH,
    decode_message,
    encode_message,
    pack_vp_batch_frame,
)
from repro.net.server import MAX_WATERMARK_STEP
from repro.obs.metrics import Histogram, MetricsRegistry, counter_value
from repro.sim.stream import stream_convoy_vps, stream_vp
from repro.store import RetentionPolicy, SegmentStore, survey_overloaded
from repro.store.serving import QuerySpec
from repro.util.rng import derive_seed

#: the campaigns a grid can run; ``clean`` is the no-attack control
#: every other campaign's throughput and eviction numbers are measured
#: against, and ``kitchen_sink`` combines all four attack components
CAMPAIGNS = (
    "clean",
    "faker",
    "poisoning",
    "collusion",
    "concentration",
    "kitchen_sink",
)

#: retention axis: no policy at all, a sliding window, or the window
#: with trusted VPs pinned past eviction
RETENTIONS = ("none", "window", "pin_trusted")

#: restart axis: one authority for the whole run, or a full restart over
#: the same segments right after the attack minute
RESTARTS = ("none", "mid")

#: schema tag stamped into every row; bump on any field change so a
#: stale baseline fails loudly instead of diffing garbage
ROW_SCHEMA = "campaign-row/v3"

#: offset past the timeline end a poisoning campaign claims, far beyond
#: any honest clock skew the watermark clamp absorbs
FAR_FUTURE_MINUTES = 10_000

#: operator-side detection signals a monitor sweep can raise
DETECTION_SIGNALS = (
    "bloom_saturation",
    "far_future_minute",
    "overload",
    "verification_reject",
    "watermark_clamp",
)

#: acceptance bound: worst tolerated fraction of the control's retained
#: honest VPs an attack may cost (poisoning legitimately evicts up to
#: MAX_WATERMARK_STEP minutes of the window)
MAX_HONEST_VP_LOSS = 0.6

#: modeled wire time one delivered request costs: the row's
#: ``modeled_wire_s`` is ``requests`` times this, the denominator of
#: every goodput figure
WIRE_S_PER_REQUEST = 0.005

#: acceptance bound: minimum modeled goodput under attack, as a
#: fraction of the clean control's
MIN_THROUGHPUT_RATIO = 0.7

#: fixed attack-component order; poisoning is LAST because its clamped
#: watermark advance may evict the attack minute — later components
#: would race that eviction and the final store content would depend
#: on scheduling (see the module docstring)
_KITCHEN_SINK = ("faker", "collusion", "concentration", "poisoning")


@dataclass(frozen=True)
class CampaignGridConfig:
    """Axes and workload knobs of one campaign grid run.

    The defaults are the committed-baseline grid: 6 campaigns × 2
    restarts × 3 retention policies at seed 0.  Honest
    traffic per minute is ``n_vehicles`` streamed background VPs plus
    ``witnesses`` convoy VPs plus one trusted VP, sized so honest
    minutes stay under ``max_vps_per_minute`` while a concentration
    flood overshoots it.
    """

    seed: int = 0
    campaigns: tuple[str, ...] = CAMPAIGNS
    restarts: tuple[str, ...] = RESTARTS
    retentions: tuple[str, ...] = RETENTIONS
    n_vehicles: int = 12
    minutes: int = 3
    batch_vps: int = 4
    witnesses: int = 2
    attack_minute: int = 1
    n_fakes: int = 4
    n_chain: int = 6
    n_dummies: int = 24
    n_saturated: int = 2
    window_minutes: int = 2
    max_vps_per_minute: int = 28
    net_workers: int = 4
    site_x: float = 5_000.0
    site_y: float = 5_000.0
    site_radius_m: float = 250.0
    area_m: float = 10_000.0
    key_bits: int = 512

    def __post_init__(self) -> None:
        for axis, values, allowed in (
            ("campaigns", self.campaigns, CAMPAIGNS),
            ("restarts", self.restarts, RESTARTS),
            ("retentions", self.retentions, RETENTIONS),
        ):
            if not values:
                raise ValidationError(f"grid axis {axis!r} must not be empty")
            unknown = [v for v in values if v not in allowed]
            if unknown:
                raise ValidationError(
                    f"unknown {axis} {unknown!r}; expected a subset of {allowed}"
                )
        if self.minutes < 2:
            raise ValidationError("a campaign needs at least 2 minutes of traffic")
        if not 0 <= self.attack_minute < self.minutes:
            raise ValidationError("attack_minute must fall inside the timeline")
        if not 1 <= self.batch_vps <= MAX_VP_BATCH:
            raise ValidationError(f"batch_vps must be in [1, {MAX_VP_BATCH}]")
        if self.n_vehicles < 1 or self.witnesses < 1:
            raise ValidationError("honest traffic needs vehicles and witnesses")
        if self.window_minutes < 1:
            raise ValidationError("window_minutes must be >= 1")

    @property
    def site(self) -> Point:
        """The investigation site every campaign targets."""
        return Point(self.site_x, self.site_y)


@dataclass(frozen=True)
class CampaignRow:
    """One cell's machine-readable outcome (schema ``campaign-row/v3``)."""

    schema: str
    campaign: str
    restart: str
    retention: str
    seed: int
    minutes: int
    #: wire traffic: requests delivered, per-VP accept/reject acks
    requests: int
    accepted: int
    rejected: int
    #: honest anonymous population: uploaded, surviving at the end, and
    #: the clean control's surviving count the loss is measured against
    honest_uploaded: int
    honest_retained: int
    control_honest_retained: int
    honest_vp_loss: float
    trusted_retained: int
    #: attack population and the solicitation outcome at the attack minute
    attack_vps: int
    attack_solicited: int
    attack_success_rate: float
    #: operator-side detection: which monitors fired, and how many
    #: minutes after the attack wave the first one did (-1 = never)
    detected_signals: tuple[str, ...]
    detection_latency_min: int
    #: retention watermark state after the run
    watermark_final: int
    clamp_engagements: int
    #: modeled network time (``requests`` x WIRE_S_PER_REQUEST) and the
    #: goodput it prices (honest VPs per modeled wire second), relative
    #: to the clean control
    modeled_wire_s: float
    goodput_vps_per_s: float
    throughput_ratio: float

    def to_dict(self) -> dict:
        """JSON-safe form (tuples become lists; field order is fixed)."""
        out = {name: getattr(self, name) for name in self.__dataclass_fields__}
        out["detected_signals"] = list(self.detected_signals)
        return out


def _make_retention(name: str, cfg: CampaignGridConfig) -> RetentionPolicy | None:
    """The retention axis as a policy object (``none`` disables it)."""
    if name == "none":
        return None
    return RetentionPolicy(
        window_minutes=cfg.window_minutes,
        max_vps_per_minute=cfg.max_vps_per_minute,
        pin_trusted=(name == "pin_trusted"),
    )


def _attack_components(campaign: str) -> tuple[str, ...]:
    if campaign == "clean":
        return ()
    if campaign == "kitchen_sink":
        return _KITCHEN_SINK
    return (campaign,)


def _mutual_fake_link(a: ViewProfile, b: ViewProfile) -> None:
    """Forge the two-way Bloom linkage between two colluding fakes."""
    for vp, peer in ((a, b), (b, a)):
        keys = peer.bloom_keys()
        vp.bloom.add(keys[0])
        vp.bloom.add(keys[-1])


def _forge_component(
    component: str, cfg: CampaignGridConfig, witnesses: list[ViewProfile]
) -> list[ViewProfile]:
    """The forged VPs of one attack component, all seed-derived.

    * ``faker`` — isolated in-site forgeries claiming the convoy
      witnesses one-way (the classic Bloom-poisoned fake);
    * ``collusion`` — a chain of fakes marching into the site with the
      two-way linkage forged *between the fakes* (attackers control
      both ends of their own links, never an honest VP's);
    * ``concentration`` — a ring of unlinked dummies flooding the
      site's minute past the advisory population cap;
    * ``poisoning`` — saturated all-ones-Bloom fakes plus one VP
      claiming a far-future minute, the claim the watermark clamp must
      absorb.
    """
    minute = cfg.attack_minute
    site = cfg.site

    def fake_seed(index: int) -> int:
        return derive_seed(cfg.seed, "attack", component, index)

    if component == "faker":
        return [
            forge_fake_vp(
                minute=minute,
                claimed_path=[
                    Point(site.x - 80.0 + 12.0 * i, site.y + 6.0 * i),
                    Point(site.x + 80.0, site.y + 6.0 * i),
                ],
                claim_neighbors=witnesses,
                seed=fake_seed(i),
            )
            for i in range(cfg.n_fakes)
        ]
    if component == "collusion":
        chain = [
            forge_fake_vp(
                minute=minute,
                claimed_path=[
                    Point(site.x - 150.0 * (cfg.n_chain - i), site.y - 40.0),
                    Point(site.x - 150.0 * (cfg.n_chain - 1 - i), site.y - 40.0),
                ],
                seed=fake_seed(i),
            )
            for i in range(cfg.n_chain)
        ]
        for a, b in zip(chain, chain[1:]):
            _mutual_fake_link(a, b)
        return chain
    if component == "concentration":
        dummies = []
        for i in range(cfg.n_dummies):
            # a deterministic ring well inside the site: every dummy is
            # an investigation candidate and the minute's population
            # overshoots the advisory cap
            angle = 2.0 * math.pi * i / cfg.n_dummies
            radius = 0.6 * cfg.site_radius_m
            x = site.x + radius * math.cos(angle)
            y = site.y + radius * math.sin(angle)
            dummies.append(
                forge_fake_vp(
                    minute=minute,
                    claimed_path=[Point(x, y), Point(x + 30.0, y)],
                    seed=fake_seed(i),
                )
            )
        return dummies
    if component == "poisoning":
        saturated = []
        for i in range(cfg.n_saturated):
            fake = forge_fake_vp(
                minute=minute,
                claimed_path=[Point(site.x, site.y), Point(site.x + 50.0, site.y)],
                seed=fake_seed(i),
            )
            saturated.append(
                ViewProfile(digests=fake.digests, bloom=BloomFilter.all_ones())
            )
        far_future = forge_fake_vp(
            minute=cfg.minutes + FAR_FUTURE_MINUTES,
            claimed_path=[Point(site.x, site.y)],
            seed=fake_seed(cfg.n_saturated),
        )
        return saturated + [far_future]
    raise ValidationError(f"unknown attack component {component!r}")


def _upload_payload(session: str, vps: list[ViewProfile]) -> bytes:
    return encode_message("upload_vp_batch", session=session, frame=pack_vp_batch_frame(vps))


def _require_batch_ack(response: bytes) -> None:
    """Fail the cell loudly when an upload did not come back acked."""
    message = decode_message(response)
    if message.get("kind") != "batch_ack":
        raise SimulationError(
            f"upload batch rejected by server: {message.get('reason', message)}"
        )


def _monitor_sweep(
    server: ConcurrentViewMapServer, cfg: CampaignGridConfig, minute: int
) -> set[str]:
    """One operator monitoring pass; returns the signals that fired.

    Everything here reads observable state only — metric counters and
    store metadata/content — never the campaign's ground truth, so the
    detection-latency numbers mean what a deployment's would.
    """
    signals: set[str] = set()
    if counter_value(server.metrics.snapshot(), "server.watermark.clamped") > 0:
        signals.add("watermark_clamp")
    database = server.system.database
    if survey_overloaded(database.store, cfg.max_vps_per_minute):
        signals.add("overload")
    for stored_minute in database.minutes():
        if stored_minute > minute + MAX_WATERMARK_STEP:
            # no honest clock is this far ahead of the upload stream
            signals.add("far_future_minute")
        elif any(
            all_ones_attack_detected(vp)
            for vp in database.query(QuerySpec(minute=stored_minute)).vps
        ):
            signals.add("bloom_saturation")
    return signals


def _investigate_site(
    system: ViewMapSystem, cfg: CampaignGridConfig
) -> tuple[list[bytes], set[bytes]]:
    """Investigate the attack minute; (solicited ids, candidate ids).

    Mirrors :meth:`ViewMapSystem.investigate` but sorts the trusted
    seeds and candidates by VP id first: the log's insertion order
    (whichever concurrent upload landed first) must not leak into the
    viewmap's node order, or TrustRank's float summation — and therefore the
    row — would differ between runs.  A minute whose trusted VP was
    evicted (kitchen-sink poisoning against an unpinned window) is not
    investigable and yields no solicitations.
    """
    minute = cfg.attack_minute
    trusted = sorted(
        system.database.query(QuerySpec(minute=minute, trusted_only=True)).vps,
        key=lambda vp: vp.vp_id,
    )
    if not trusted:
        return [], set()
    area = coverage_area(cfg.site, trusted)
    candidates = sorted(
        system.database.query(QuerySpec(minute=minute, area=area)).vps,
        key=lambda vp: vp.vp_id,
    )
    vmap = build_viewmap(candidates, minute, area=area)
    verification = verify_viewmap(vmap, cfg.site, cfg.site_radius_m)
    solicited = sorted(verification.legitimate)
    for vp_id in solicited:
        system.solicitations.post(vp_id)
    return solicited, {vp.vp_id for vp in candidates}


def _boot(
    path: str, retention: str, cfg: CampaignGridConfig
) -> tuple[ViewMapSystem, ThreadedNetwork, ConcurrentViewMapServer]:
    """One authority incarnation over the named segments at ``path``."""
    system = ViewMapSystem(
        key_bits=cfg.key_bits,
        seed=derive_seed(cfg.seed, "authority"),
        store=SegmentStore(path),
        retention=_make_retention(retention, cfg),
    )
    net = ThreadedNetwork(workers=cfg.net_workers)
    return system, net, ConcurrentViewMapServer(system=system, network=net)


def run_campaign_cell(
    campaign: str,
    restart: str,
    retention: str,
    cfg: CampaignGridConfig,
    control: CampaignRow | None = None,
) -> CampaignRow:
    """Run one grid cell end to end and reduce it to its row.

    ``control`` is the clean-traffic row of the same (restart,
    retention, seed) — the reference for honest-VP loss and the
    throughput ratio.  Omitted when computing the control itself.
    """
    if campaign not in CAMPAIGNS:
        raise ValidationError(f"unknown campaign {campaign!r}")
    if restart not in RESTARTS:
        raise ValidationError(f"unknown restart {restart!r}")
    if retention not in RETENTIONS:
        raise ValidationError(f"unknown retention policy {retention!r}")
    scratch = tempfile.TemporaryDirectory(prefix="repro-campaign-")
    path = os.path.join(scratch.name, "authority")
    system, net, server = _boot(path, retention, cfg)
    # both incarnations' server and network counters, merged at close
    totals = MetricsRegistry()

    honest_ids: list[bytes] = []
    trusted_vp_ids: list[bytes] = []
    attack_ids: list[bytes] = []
    solicited: list[bytes] = []
    candidate_ids: set[bytes] = set()
    signals: set[str] = set()
    detection_minute = -1
    try:
        for minute in range(cfg.minutes):
            trusted_vp, witness_vps = stream_convoy_vps(
                cfg.seed, minute, cfg.witnesses, (cfg.site_x, cfg.site_y)
            )
            with server.control_lock:
                system.ingest_trusted_vp(trusted_vp)
            trusted_vp_ids.append(trusted_vp.vp_id)
            honest = witness_vps + [
                stream_vp(derive_seed(cfg.seed, "honest"), minute, v, cfg.area_m)
                for v in range(cfg.n_vehicles)
            ]
            honest_ids.extend(vp.vp_id for vp in honest)
            futures = [
                net.send_async(
                    "campaign-client",
                    server.address,
                    _upload_payload(f"h-{minute}-{i}", honest[i : i + cfg.batch_vps]),
                )
                for i in range(0, len(honest), cfg.batch_vps)
            ]
            for future in futures:
                _require_batch_ack(future.result())
            if minute == cfg.attack_minute:
                for component in _attack_components(campaign):
                    forged = _forge_component(component, cfg, witness_vps)
                    attack_ids.extend(vp.vp_id for vp in forged)
                    _require_batch_ack(
                        net.send(
                            "campaign-client",
                            server.address,
                            _upload_payload(f"a-{component}", forged),
                        )
                    )
            fired = _monitor_sweep(server, cfg, minute)
            if minute == cfg.attack_minute:
                with server.control_lock:
                    solicited, candidate_ids = _investigate_site(system, cfg)
                if candidate_ids & set(attack_ids) and not set(attack_ids) & set(
                    solicited
                ):
                    fired.add("verification_reject")
            if fired and detection_minute < 0:
                detection_minute = minute
            signals |= fired
            if restart == "mid" and minute == cfg.attack_minute:
                net.close()
                system.close()
                totals.merge_snapshot(server.metrics.snapshot())
                totals.merge_snapshot(net.metrics.snapshot())
                system, net, server = _boot(path, retention, cfg)

        watermark_final = system.retention_watermark
        honest_retained = sum(
            1 for vp_id in honest_ids if vp_id in system.database
        )
        trusted_retained = sum(
            1 for vp_id in trusted_vp_ids if vp_id in system.database
        )
    finally:
        net.close()
        system.close()
        scratch.cleanup()
    totals.merge_snapshot(server.metrics.snapshot())
    totals.merge_snapshot(net.metrics.snapshot())
    counts = totals.snapshot()
    requests = Histogram.from_dict(counts.get("net.deliver.wall_s") or {}).count

    honest_uploaded = len(honest_ids)
    modeled_wire_s = requests * WIRE_S_PER_REQUEST
    goodput = honest_uploaded / modeled_wire_s if modeled_wire_s > 0 else 0.0
    control_retained = control.honest_retained if control else honest_retained
    control_goodput = control.goodput_vps_per_s if control else round(goodput, 6)
    loss = (
        max(0.0, (control_retained - honest_retained) / control_retained)
        if control_retained
        else 0.0
    )
    attack_solicited = len(set(attack_ids) & set(solicited))
    return CampaignRow(
        schema=ROW_SCHEMA,
        campaign=campaign,
        restart=restart,
        retention=retention,
        seed=cfg.seed,
        minutes=cfg.minutes,
        requests=requests,
        accepted=counter_value(counts, "server.upload.accepted"),
        rejected=counter_value(counts, "server.upload.rejected"),
        honest_uploaded=honest_uploaded,
        honest_retained=honest_retained,
        control_honest_retained=control_retained,
        honest_vp_loss=round(loss, 6),
        trusted_retained=trusted_retained,
        attack_vps=len(attack_ids),
        attack_solicited=attack_solicited,
        attack_success_rate=round(attack_solicited / max(1, len(attack_ids)), 6),
        detected_signals=tuple(sorted(signals)),
        detection_latency_min=(
            detection_minute - cfg.attack_minute if detection_minute >= 0 else -1
        ),
        watermark_final=watermark_final,
        clamp_engagements=counter_value(counts, "server.watermark.clamped"),
        modeled_wire_s=round(modeled_wire_s, 6),
        goodput_vps_per_s=round(goodput, 6),
        throughput_ratio=(
            round(round(goodput, 6) / control_goodput, 6) if control_goodput else 0.0
        ),
    )


def run_campaign_grid(cfg: CampaignGridConfig = CampaignGridConfig()) -> list[CampaignRow]:
    """Run the whole grid; rows in (restart, retention, campaign) order.

    The clean control of each (restart, retention) combination
    always runs — even when ``cfg.campaigns`` omits ``clean`` — because
    every other cell's loss and throughput figures are measured against
    it; it only appears in the returned rows when requested.
    """
    rows: list[CampaignRow] = []
    for restart in cfg.restarts:
        for retention in cfg.retentions:
            control = run_campaign_cell("clean", restart, retention, cfg)
            for campaign in cfg.campaigns:
                if campaign == "clean":
                    rows.append(control)
                else:
                    rows.append(
                        run_campaign_cell(campaign, restart, retention, cfg, control=control)
                    )
    return rows


def rows_to_json(rows: list[CampaignRow]) -> str:
    """The grid's canonical serialized form (byte-stable for diffing)."""
    return json.dumps([row.to_dict() for row in rows], indent=2, sort_keys=True) + "\n"


def row_invariant_violations(row: CampaignRow) -> list[str]:
    """Security/SLO invariants every cell must satisfy, as violations.

    Shared verbatim by the integration tests and the
    ``tools/check_campaigns.py`` CI gate, so "what must hold in every
    cell" is written down exactly once.  An empty list means the row is
    acceptable; strings describe what broke.
    """
    v: list[str] = []
    where = f"[{row.campaign}/{row.restart}/{row.retention}]"
    if row.schema != ROW_SCHEMA:
        v.append(f"{where} schema {row.schema!r} != {ROW_SCHEMA!r}")
        return v
    if row.attack_success_rate != 0.0 or row.attack_solicited != 0:
        v.append(
            f"{where} forged VPs were solicited "
            f"({row.attack_solicited}/{row.attack_vps})"
        )
    if row.accepted + row.rejected != row.honest_uploaded + row.attack_vps:
        v.append(
            f"{where} ack ledger mismatch: {row.accepted}+{row.rejected} acks "
            f"for {row.honest_uploaded}+{row.attack_vps} uploads"
        )
    if row.honest_vp_loss > MAX_HONEST_VP_LOSS:
        v.append(
            f"{where} honest-VP loss {row.honest_vp_loss} > {MAX_HONEST_VP_LOSS}"
        )
    poisoned = row.campaign in ("poisoning", "kitchen_sink")
    if row.honest_vp_loss != 0.0 and not (poisoned and row.retention != "none"):
        v.append(
            f"{where} honest VPs lost ({row.honest_vp_loss}) by a campaign "
            "that must not evict anything"
        )
    if row.retention == "none":
        if row.watermark_final != -1 or row.clamp_engagements != 0:
            v.append(
                f"{where} retention machinery moved without a policy "
                f"(watermark {row.watermark_final}, clamps {row.clamp_engagements})"
            )
    else:
        honest_top = row.minutes - 1
        if row.watermark_final > honest_top + MAX_WATERMARK_STEP:
            v.append(
                f"{where} watermark {row.watermark_final} overran the clamp "
                f"bound {honest_top + MAX_WATERMARK_STEP}"
            )
        if poisoned and row.clamp_engagements == 0:
            v.append(f"{where} far-future claim never engaged the clamp")
        if not poisoned and (
            row.watermark_final != honest_top or row.clamp_engagements != 0
        ):
            v.append(
                f"{where} honest-paced watermark expected at {honest_top} with "
                f"0 clamps, got {row.watermark_final}/{row.clamp_engagements}"
            )
    if row.retention in ("none", "pin_trusted") and row.trusted_retained != row.minutes:
        v.append(
            f"{where} trusted VPs evicted: {row.trusted_retained}/{row.minutes} "
            "retained under a policy that never drops them"
        )
    if row.campaign == "clean":
        if row.attack_vps or row.detected_signals or row.detection_latency_min != -1:
            v.append(f"{where} clean control raised detection signals (false positive)")
        if row.throughput_ratio != 1.0:
            v.append(f"{where} clean control throughput ratio {row.throughput_ratio} != 1")
    else:
        if row.detection_latency_min < 0:
            v.append(f"{where} attack was never detected by any monitor")
        if row.throughput_ratio < MIN_THROUGHPUT_RATIO:
            v.append(
                f"{where} goodput under attack fell to {row.throughput_ratio} "
                f"of control (< {MIN_THROUGHPUT_RATIO})"
            )
    return v


def restart_violations(rows: list[CampaignRow]) -> list[str]:
    """The restart axis's one invariant, as violations: every ``mid`` row
    equals its ``none`` row (same campaign, retention and seed) field
    for field, ``restart`` aside.  A ``mid`` row whose ``none`` row is
    not in ``rows`` (a reduced grid) is not checked.

    Shared, like :func:`row_invariant_violations`, by the integration
    tests and ``tools/check_campaigns.py``.
    """
    none = {(r.campaign, r.retention, r.seed): r for r in rows if r.restart == "none"}
    v: list[str] = []
    for mid in rows:
        base = none.get((mid.campaign, mid.retention, mid.seed))
        if mid.restart != "mid" or base is None:
            continue
        drift = [
            f"{name} {getattr(base, name)!r} -> {getattr(mid, name)!r}"
            for name in base.__dataclass_fields__
            if name != "restart" and getattr(base, name) != getattr(mid, name)
        ]
        if drift:
            v.append(
                f"[{mid.campaign}/mid/{mid.retention}] a restart changed the row: "
                + ", ".join(drift)
            )
    return v
