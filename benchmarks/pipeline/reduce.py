"""``reduce``: a raw run record in, the named metrics out.

End-to-end metrics come from the untraced measured phase only; the
per-layer metrics come from the traced serial pass, the standalone
layer timings and the program's own registries.  Which names a run
prints, and their units, is read from ``BENCHMARK.json``; a layer that
a workload does not touch reports 0.
"""

from __future__ import annotations

import math
import statistics

from repro.obs.metrics import Histogram

from . import spec
from .trace import self_times


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _hist(snapshot: dict, name: str) -> dict:
    entry = snapshot.get(name) or {}
    return entry if entry.get("type") == "histogram" else {}


def _hist_quantile(entry: dict, q: float) -> float:
    """Quantile of a registry histogram snapshot (0 when empty)."""
    if not entry or not entry.get("count"):
        return 0.0
    return Histogram.from_dict(entry).quantile(q)


def _value(snapshot: dict, name: str) -> float:
    return float((snapshot.get(name) or {}).get("value", 0))


def measured(raw: dict) -> dict[str, float | None]:
    """ISSUE 11's eleven end-to-end metrics, plain wall clock.

    From the untraced measured phase; ``None`` where the workload has
    no such path.  Medians are over the ops that succeeded.
    """
    ops = raw["ops"]
    limits = spec.SLO_LIMIT_MS[raw["workload"]]
    by_class: dict[str, list[float]] = {}
    for op in ops:
        if op[2]:
            by_class.setdefault(op[0], []).append(1e3 * op[1])
    queries = [v for cls in spec.QUERY_CLASSES for v in by_class.get(cls, [])]
    failed = sum(1 for op in ops if not op[2])
    missed = sum(1 for op in ops if not op[2] or op[1] * 1e3 > limits[op[0]])
    counts = raw["counts"]
    round_rates = [_ratio(rnd["vps"], rnd["wall_s"]) for rnd in raw["rounds"]]

    def median(sample: list[float]) -> float | None:
        return statistics.median(sample) if sample else None

    return {
        "setup_s": raw["setup_s"],
        "upload_ack_p50_ms": median(by_class.get("upload", [])),
        "ingest_vps_per_s": median(round_rates),
        "query_p50_ms": median(queries),
        "investigate_minute_p50_ms": median(by_class.get("investigate", [])),
        "cpu_ms_per_op": 1e3 * _ratio(raw["measured_cpu_s"], len(ops) - failed),
        "failed_share": _ratio(failed, len(ops)),
        "slo_miss_share": _ratio(missed, len(ops)),
        "wire_bytes_per_vp": _ratio(counts["wire_bytes"], counts["accepted_vps"])
        if counts.get("accepted_vps")
        else None,
        "stored_bytes_per_vp": _ratio(counts["stored_bytes"], counts["stored_vps"])
        if counts.get("stored_bytes")
        else None,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def end_to_end(raw: dict) -> dict[str, float]:
    """Every value ``BENCHMARK.json`` may gate, never 0.

    The two shares are gated as their complements — the bound is a
    share of the parent's median, and a healthy run's ``failed_share``
    is 0 — and a metric the workload has no path for reads
    ``spec.NOT_APPLICABLE``.
    """
    issue = measured(raw)
    out = {
        name: spec.NOT_APPLICABLE if value is None else value for name, value in issue.items()
    }
    out["succeeded_share"] = 1.0 - issue["failed_share"]
    out["slo_met_share"] = 1.0 - issue["slo_miss_share"]
    return out


def speed_factor(raw: dict) -> float:
    """The run's median machine-speed probe over its reference time."""
    return _ratio(percentile(raw["probes"], 0.50), spec.PROBE_REFERENCE_S)


class _Spans:
    """Per-name views over a linked span list."""

    def __init__(self, spans: list) -> None:
        self.spans = spans
        self.selfs = self_times(spans)

    def pick(self, name: str, cls: str | None = None, own: bool = False) -> list[float]:
        out = []
        for span, own_time in zip(self.spans, self.selfs):
            if span[0] != name:
                continue
            if cls is not None and not str(span[4]).startswith(cls + ":"):
                continue
            out.append(own_time if own else span[2] - span[1])
        return out

    def mean_ms(self, name: str, cls: str | None = None, own: bool = False) -> float:
        picked = self.pick(name, cls, own)
        return 1e3 * statistics.fmean(picked) if picked else 0.0


def layer_shares(raw: dict) -> dict[str, float]:
    """Share of traced op latency per layer (module), summing to ~1.

    Self time is grouped by the module prefix of the span name; the
    op's own self time is ``unattributed``.  Work that a span cannot
    separate — wire validation and envelope codec inside the handler,
    the parser inside the transport — is moved to ``net.messages`` by
    its standalone timing on the same bytes, capped at what its host
    span has.
    """
    view = _Spans(raw["spans"])
    total = sum(view.pick("loadgen.op"))
    if not total:
        return {}
    layers: dict[str, float] = {}
    for span, own_time in zip(view.spans, view.selfs):
        if span[4] is None:
            continue  # construction and close: outside every op
        layer = "unattributed" if span[0] == "loadgen.op" else span[0].rsplit(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + own_time
    alone = raw["standalone_s"]
    uploads = len(view.pick("loadgen.op", "upload"))

    def per_upload(*parts: str) -> float:
        return uploads * sum(alone.get("net.messages." + part, 0.0) for part in parts)

    moves = {
        "onion_upload": (
            ("net.server", per_upload("decode_envelope", "frame_validate")),
            ("net.client", per_upload("encode_envelope")),
        ),
        "ingest_stream": (
            ("net.server", per_upload("frame_validate")),
            ("net.streaming", per_upload("parser_feed")),
        ),
        "serve_mixed": (
            # the handler also hex-envelopes every query reply it sends
            (
                "net.server",
                per_upload("decode_envelope", "frame_validate")
                + alone.get("net.messages.encode_replies_total", 0.0),
            ),
        ),
    }.get(raw["workload"], ())
    for host, wanted in moves:
        moved = min(layers.get(host, 0.0), wanted)
        layers[host] = layers.get(host, 0.0) - moved
        layers["net.messages"] = layers.get("net.messages", 0.0) + moved
    return {layer: value / total for layer, value in sorted(layers.items())}


def per_layer(raw: dict) -> dict[str, float]:
    """Every per-layer metric; 0 where the workload has no such layer."""
    ops = raw["ops"]
    by_class: dict[str, list[float]] = {}
    for op in ops:
        if op[2]:
            by_class.setdefault(op[0], []).append(1e3 * op[1])
    uploads = by_class.get("upload", [])
    queries = [v for cls in spec.QUERY_CLASSES for v in by_class.get(cls, [])]
    counts, alone = raw["counts"], raw["standalone_s"]
    regs = raw["registries"]
    net, server, store = (regs.get(key) or {} for key in ("net", "server", "store"))
    round_rates = [_ratio(rnd["vps"], rnd["wall_s"]) for rnd in raw["rounds"]]
    view = _Spans(raw["spans"])
    frame_vps = counts.get("frame_vps", 0)

    # ISSUE 11's end-to-end names, for the ones BENCHMARK.json does not gate
    out = {f"loadgen.{name}": value or 0.0 for name, value in measured(raw).items()}
    out.update(
        {
            "loadgen.ops_attempted": len(ops),
            "loadgen.speed_factor": speed_factor(raw),
            "loadgen.lag_p95_ms": 1e3 * percentile(raw["lags_s"], 0.95),
            "loadgen.upload_ack_p95_ms": percentile(uploads, 0.95),
            # a p99 needs ten samples beyond it to mean anything
            "loadgen.upload_ack_p99_ms": percentile(uploads, 0.99)
            if len(uploads) >= 1000
            else 0.0,
            "loadgen.query_p95_ms": percentile(queries, 0.95),
            "loadgen.query_hot_p50_ms": percentile(by_class.get("hot", []), 0.50),
            "loadgen.query_cold_p50_ms": percentile(by_class.get("cold", []), 0.50),
            "loadgen.query_sweep_p50_ms": percentile(by_class.get("sweep", []), 0.50),
            "loadgen.investigate_minute_p95_ms": percentile(
                by_class.get("investigate", []), 0.95
            ),
            "loadgen.round_vps_per_s_iqr": percentile(round_rates, 0.75)
            - percentile(round_rates, 0.25),
            "sim.stream.gen_ms_per_vp": 1e3 * _ratio(raw["gen_s"], raw["gen_vps"]),
            # the result line carries numbers: the digest's leading 48 bits
            "sim.stream.inputs_sha256": int(raw["inputs_sha256"][:12], 16),
        }
    )
    out.update(
        {
            "net.client.pack_frame_ms": 1e3 * alone.get("net.client.pack_frame", 0.0),
            "net.client.reply_decode_ms": 1e3 * alone.get("net.client.reply_decode", 0.0)
            or view.mean_ms("net.client.reply_decode"),
            "net.onion.self_ms": view.mean_ms("net.onion.anonymous_send", own=True),
            "net.onion.wrap_ms": 1e3 * alone.get("net.onion.wrap", 0.0),
            "net.onion.unwrap_ms": 1e3 * alone.get("net.onion.unwrap_ack", 0.0),
            "net.onion.build_circuit_us": 1e3 * view.mean_ms("net.onion.build_circuit"),
            "net.onion.fabric_bytes_per_upload": _ratio(
                counts.get("fabric_bytes", 0), sum(1 for op in ops if op[2])
            ),
            "net.messages.encode_envelope_ms": 1e3
            * alone.get("net.messages.encode_envelope", 0.0),
            "net.messages.decode_envelope_ms": 1e3
            * alone.get("net.messages.decode_envelope", 0.0)
            or view.mean_ms("net.messages.decode_envelope"),
            "net.messages.frame_validate_ms_per_vp": 1e3
            * _ratio(alone.get("net.messages.frame_validate", 0.0), frame_vps),
            "net.messages.parser_feed_ms_per_frame": 1e3
            * alone.get("net.messages.parser_feed", 0.0),
            "net.messages.chunks_per_frame": counts.get("chunks_per_frame", 0.0),
        }
    )
    out.update(
        {
            "net.streaming.connect_ms": view.mean_ms("net.streaming.connect"),
            "net.streaming.transport_ms_per_frame": view.mean_ms(
                "net.streaming.upload", own=True
            ),
            "net.streaming.bytes_in": _value(net, "stream.bytes.in"),
            "net.streaming.shed": counts.get("shed", 0),
            "net.streaming.span_copies": counts.get("span_copies", 0),
            "obs.admission.admit_us": 1e3 * view.mean_ms("obs.admission.try_admit"),
            "obs.admission.busy_replies": _hist(net, "server.upload.retry_after_s").get(
                "count", 0
            ),
            "obs.admission.depth_max": counts.get("admission_depth_max", 0),
            "obs.admission.pending_bytes_max": counts.get("admission_pending_bytes_max", 0),
            "net.concurrency.queue_wait_p50_ms": 1e3
            * _hist_quantile(_hist(net, "net.queue_wait_s"), 0.50),
            "net.concurrency.queue_wait_p95_ms": 1e3
            * _hist_quantile(_hist(net, "net.queue_wait_s"), 0.95),
            "net.concurrency.deliver_self_ms": view.mean_ms(
                "net.concurrency.deliver", own=True
            ),
            "net.server.upload_self_ms": view.mean_ms("net.server.handle", "upload", own=True),
            "net.server.query_self_ms": statistics.fmean(
                view.pick("net.server.handle", "hot", own=True)
                + view.pick("net.server.handle", "cold", own=True)
                + view.pick("net.server.handle", "sweep", own=True)
                or [0.0]
            )
            * 1e3,
            "net.server.accepted": _value(server, "server.upload.accepted"),
            "net.server.rejected": _value(server, "server.upload.rejected"),
            "net.server.watermark_clamped": _value(server, "server.watermark.clamped"),
        }
    )
    # the server only calls advance_retention when the watermark moves
    passes = view.pick("core.system.advance_retention")
    commits = _hist(store, "store.commit.wall_s") or _hist(store, "store.insert.wall_s")
    rows = _value(server, "server.upload.accepted")
    out.update(
        {
            "core.system.ingest_encoded_self_us": 1e3
            * view.mean_ms("core.system.ingest_encoded", own=True),
            "core.system.investigate_self_ms": view.mean_ms(
                "core.system.investigate", own=True
            ),
            "core.system.retention_pass_ms": 1e3 * statistics.fmean(passes) if passes else 0.0,
            "core.system.retention_passes": len(passes),
            "store.write.existing_ids_ms_per_frame": view.mean_ms("store.write.existing_ids"),
            "store.write.insert_encoded_ms_per_frame": view.mean_ms(
                "store.write.insert_encoded"
            ),
            "store.write.rows": rows,
            "store.write.commits": commits.get("count", 0),
            "store.write.commit_p50_ms": 1e3 * _hist_quantile(commits, 0.50),
            "store.write.group_rows_mean": _ratio(rows, commits.get("count", 0)),
            "store.write.flush_close_ms": 1e3
            * (
                statistics.median(rnd["flush_close_s"] for rnd in raw["rounds"])
                if raw["rounds"]
                else counts.get("flush_close_s", 0.0)
            ),
            # registries are the last round's, so is this
            "store.write.evicted_vps": max(0.0, rows - raw["rounds"][-1]["stored_vps"])
            if raw["rounds"]
            else 0.0,
            "store.write.evict_ms_p50": 1e3
            * _hist_quantile(_hist(store, "store.evict.wall_s"), 0.50),
            "store.sharded.route_ms_per_frame": 1e3
            * _ratio(
                _hist(store, "route.insert.wall_s").get("sum", 0.0),
                _hist(store, "route.insert.wall_s").get("count", 0),
            ),
            "store.sharded.shard_load_skew": counts.get("shard_load_skew", 0.0),
            "store.workers.spawn_ms": view.mean_ms("store.workers.spawn"),
            "store.workers.insert_busy_s": _hist(store, "store.insert.wall_s").get("sum", 0.0)
            if raw["workload"] == "ingest_stream"
            else 0.0,
            "store.workers.commit_busy_s": _hist(store, "store.commit.wall_s").get("sum", 0.0)
            if raw["workload"] == "ingest_stream"
            else 0.0,
        }
    )
    graph = raw["graph_sizes"]
    out.update(
        {
            "store.serving.query_encoded_hot_ms": view.mean_ms("store.serving.query", "hot"),
            "store.serving.query_encoded_sweep_ms": view.mean_ms(
                "store.serving.query", "sweep"
            ),
            "store.serving.query_encoded_cold_us": 1e3
            * view.mean_ms("store.serving.query", "cold"),
            "store.serving.tile_hit_ratio": _ratio(
                counts.get("tile_hits", 0),
                counts.get("tile_hits", 0) + counts.get("tile_misses", 0),
            ),
            "store.serving.reply_bytes_per_query": counts.get("reply_bytes_per_query", 0.0),
            "store.sqlite.query_objects_ms": 1e3
            * _ratio(
                sum(view.pick("store.sqlite.query_objects")),
                len(view.pick("loadgen.op", "investigate")),
            ),
            "store.sqlite.decode_cache_hit_ratio": _ratio(
                counts.get("decode_cache_hits", 0),
                counts.get("decode_cache_hits", 0) + counts.get("decode_cache_misses", 0),
            ),
            "store.sqlite.file_bytes": counts.get("file_bytes", counts.get("stored_bytes", 0)),
            "store.codec.decode_ms_per_vp": 1e3 * alone.get("store.codec.decode_vp", 0.0),
            "store.codec.encode_ms_per_vp": 1e3 * alone.get("store.codec.encode_vp", 0.0),
            "core.viewmap.build_ms": view.mean_ms("core.viewmap.build"),
            "core.viewmap.nodes": statistics.fmean(g[0] for g in graph) if graph else 0.0,
            "core.viewmap.edges": statistics.fmean(g[1] for g in graph) if graph else 0.0,
            "core.verification.verify_ms": view.mean_ms("core.verification.verify"),
            "core.verification.legitimate": statistics.fmean(g[2] for g in graph)
            if graph
            else 0.0,
        }
    )
    # ingest_stream keeps the registries of its last round only
    observations = max(1, len(raw["rounds"])) * sum(
        entry.get("count", 0)
        for snapshot in regs.values()
        for entry in (snapshot or {}).values()
        if entry.get("type") == "histogram"
    )
    serial = raw["serial_ops"]
    untraced = sum(op[1] for op in serial["untraced"])
    traced = sum(op[1] for op in serial["traced"])
    op_total = sum(view.pick("loadgen.op"))
    out.update(
        {
            "obs.metrics.stage_timer_ns": raw["stage_timer_ns"],
            "obs.metrics.observations": observations,
            # a stage_timer block makes two observations
            "obs.metrics.est_cost_share": _ratio(
                observations / 2 * raw["stage_timer_ns"] * 1e-9, raw["measured_cpu_s"]
            ),
            "trace.overhead_share": _ratio(traced, untraced) - 1.0 if untraced else 0.0,
            "trace.unattributed_share": _ratio(
                sum(view.pick("loadgen.op", own=True)), op_total
            ),
        }
    )
    return {name: float(value) for name, value in out.items()}


def reduce(raw: dict) -> dict:
    """The run's record: result line plus everything a reader wants."""
    ops = raw["ops"]
    failed = sum(1 for op in ops if not op[2])
    declared = spec.load_benchmark()["per_layer" if raw["trace"] else "end_to_end"]
    values = per_layer(raw) if raw["trace"] else end_to_end(raw)
    return {
        "workload": raw["workload"],
        "seed": raw["seed"],
        "seconds": raw["seconds"],
        "trace": raw["trace"],
        "adhoc": raw["adhoc"],
        "backend": raw["backend"],
        "transport": raw["transport"],
        "inputs_sha256": raw["inputs_sha256"],
        "failures": raw["failures"],
        "speed_factor": speed_factor(raw),
        "disturbed": speed_factor(raw) > spec.DISTURBED_SPEED_FACTOR,
        "layers": layer_shares(raw) if raw["trace"] else {},
        "issue": measured(raw),
        "result": {
            "correct": not raw["failures"] and failed == 0,
            "attempted": max(1, len(ops)),
            "failed": failed,
            "metrics": {
                entry["name"]: {"value": float(values[entry["name"]]), "unit": entry["unit"]}
                for entry in declared
            },
        },
    }
