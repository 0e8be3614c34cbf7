"""Command-line interface: run paper experiments from the terminal.

Usage::

    python -m repro.cli list                 # available experiments
    python -m repro.cli fig15                # VLR vs distance curves
    python -m repro.cli table2 --windows 50
    python -m repro.cli fig21 --out viewmap.json

Each command wraps the corresponding :mod:`repro.analysis` driver with
modest default workloads; benches remain the canonical reproduction.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError
from repro.store import STORE_KINDS


def _cmd_fig15(args: argparse.Namespace) -> None:
    from repro.analysis.fieldtrial import ENVIRONMENTS, vlr_curve

    distances = [50, 100, 150, 200, 250, 300, 350, 400]
    print("environment        " + "".join(f"{d:>7d}" for d in distances))
    for env in ENVIRONMENTS.values():
        curve = vlr_curve(env, distances, windows=args.windows, seed=args.seed)
        print(f"{env.name:<19s}" + "".join(f"{v:>7.2f}" for v in curve))


def _cmd_table2(args: argparse.Namespace) -> None:
    from repro.analysis.scenarios import TABLE2_SCENARIOS, run_scenario

    print(f"{'scenario':<20s} {'condition':<10s} {'link%':>6s} {'paper':>6s} "
          f"{'video%':>7s} {'paper':>6s}")
    for scenario in TABLE2_SCENARIOS:
        link, video = run_scenario(scenario, windows=args.windows, seed=args.seed)
        print(f"{scenario.name:<20s} {scenario.condition:<10s} {link:>6.0f} "
              f"{scenario.paper_linkage:>6.0f} {video:>7.0f} {scenario.paper_video:>6.0f}")


def _cmd_fig8(args: argparse.Namespace) -> None:
    from repro.analysis.hashexp import hash_time_series

    series = hash_time_series(seconds=60, repeats=2)
    print("second   cascaded(s)   whole-file(s)")
    for mark in (10, 20, 30, 40, 50, 60):
        print(f"{mark:>6d} {series.cascaded_s[mark-1]:>12.5f} "
              f"{series.normal_s[mark-1]:>14.5f}")


def _cmd_privacy(args: argparse.Namespace) -> None:
    from repro.analysis.privacyexp import privacy_experiment

    curves = privacy_experiment(
        n_vehicles=args.vehicles,
        area_km=args.area_km,
        minutes=args.minutes,
        n_targets=8,
        seed=args.seed,
    )
    print("minute  entropy(bits)  success")
    for m, (e, s) in enumerate(zip(curves.entropy_bits, curves.success_ratio)):
        print(f"{m:>6d} {e:>14.2f} {s:>8.3f}")


def _cmd_fig12(args: argparse.Namespace) -> None:
    from repro.analysis.verifyexp import fig12_grid

    grid = fig12_grid(runs=args.runs, fake_ratios=[1.0, 5.0], seed=args.seed)
    for band, row in grid.items():
        cells = "  ".join(f"{int(r*100)}% fakes: {100*a:.0f}%" for r, a in row.items())
        print(f"hops {band[0]:>2d}-{band[1]:<2d}  {cells}")


def _dump_metrics(path: str, occupancy) -> None:
    """Write the run's merged metric registry (and percentiles) as JSON.

    The snapshot comes out of the store's ``stats().detail["metrics"]``
    — for a sharded/procs backend that is already the fleet-wide merge
    of every shard's (and worker process's) registry.  The file carries
    both the raw mergeable snapshot and a pre-digested percentile view,
    so dashboards need no repro import to read p50/p99/p999.
    """
    import json

    from repro.obs.metrics import snapshot_percentiles

    snap = occupancy.detail.get("metrics") or {}
    payload = {
        "backend": occupancy.backend,
        "vps": occupancy.vps,
        "snapshot": snap,
        "percentiles": snapshot_percentiles(snap),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"metrics written to {path}")


def _cmd_fig21(args: argparse.Namespace) -> None:
    from repro.analysis.cityexp import city_viewmap_stats
    from repro.core.export import render_ascii, save_viewmap
    from repro.store import RetentionPolicy, make_store

    store = make_store(
        args.store,
        path=args.store_path,
        n_shards=args.shards,
        shard_cells=args.shard_cells,
        ingest_workers=args.ingest_workers,
    )
    retention = (
        RetentionPolicy(window_minutes=args.retention_minutes)
        if args.retention_minutes > 0
        else None
    )
    try:
        stats, vmap = city_viewmap_stats(
            args.speed, n_vehicles=args.vehicles, area_km=args.area_km, seed=args.seed,
            store=store, workers=args.workers, retention=retention,
        )
        occupancy = store.stats()
    finally:
        store.close()  # stops worker processes, closes segment files
    # the backend as selected: ``sqlite`` names the persistent store
    print(f"store: {args.store} ({occupancy.vps} VPs, "
          f"{occupancy.minutes} minutes)")
    tile = occupancy.detail.get("tile_cache")
    if tile:
        print(f"tile cache: {tile['minutes']}/{tile['max_minutes']} minutes, "
              f"{tile['hits']} hits / {tile['misses']} misses "
              f"(epoch {tile['epoch']})")
    print(f"{stats.label}: {stats.nodes} VPs, {stats.edges} viewlinks, "
          f"member ratio {stats.member_ratio:.3f}")
    print(render_ascii(vmap))
    if args.out:
        save_viewmap(vmap, args.out)
        print(f"viewmap exported to {args.out}")
    if args.metrics_json:
        _dump_metrics(args.metrics_json, occupancy)


def _cmd_campaigns(args: argparse.Namespace) -> None:
    from repro.analysis.campaigns import (
        CampaignGridConfig,
        row_invariant_violations,
        rows_to_json,
        run_campaign_grid,
    )

    overrides = {
        "campaigns": args.grid_campaigns,
        "backends": args.grid_backends,
        "retentions": args.grid_retentions,
    }
    cfg = CampaignGridConfig(
        seed=args.seed,
        **{
            axis: tuple(value.split(","))
            for axis, value in overrides.items()
            if value
        },
    )
    rows = run_campaign_grid(cfg)
    print(
        f"{'campaign':<14s} {'backend':<8s} {'retention':<12s} "
        f"{'success':>7s} {'loss':>6s} {'detect':>6s} {'ratio':>6s}"
    )
    violations: list[str] = []
    for row in rows:
        violations.extend(row_invariant_violations(row))
        print(
            f"{row.campaign:<14s} {row.backend:<8s} {row.retention:<12s} "
            f"{row.attack_success_rate:>7.2f} {row.honest_vp_loss:>6.2f} "
            f"{row.detection_latency_min:>6d} {row.throughput_ratio:>6.2f}"
        )
    if args.campaigns_json:
        with open(args.campaigns_json, "w", encoding="utf-8") as fh:
            fh.write(rows_to_json(rows))
        print(f"campaign rows written to {args.campaigns_json}")
    if violations:
        raise ReproError(
            f"{len(violations)} campaign invariant violation(s): "
            + "; ".join(violations)
        )
    print(f"{len(rows)} cells, all invariants hold")


def _cmd_stream(args: argparse.Namespace) -> None:
    """Replay a fleet upload burst through a real transport front-end."""
    import time

    from repro.core.system import ViewMapSystem
    from repro.net.concurrency import ConcurrentViewMapServer, ThreadedNetwork
    from repro.net.messages import decode_message, encode_message
    from repro.net.streaming import StreamingNetwork
    from repro.obs.metrics import counter_value
    from repro.sim.stream import iter_minute_frames
    from repro.store import make_store

    store = make_store(
        args.store,
        path=args.store_path,
        n_shards=args.shards,
        shard_cells=args.shard_cells,
        ingest_workers=args.ingest_workers,
    )
    system = ViewMapSystem(store=store)
    frames = list(
        iter_minute_frames(args.vehicles, args.minutes, seed=args.seed)
    )
    inserted = shed = 0
    started = time.perf_counter()
    try:
        if args.transport == "streaming":
            with StreamingNetwork(max_pending_bytes=args.max_pending_bytes) as net:
                ConcurrentViewMapServer(system=system, network=net, address="authority")
                lanes = [net.connect("authority") for _ in range(min(args.workers, 64))]
                futures = [
                    lanes[i % len(lanes)].upload_frame_async(mf.frame)
                    for i, mf in enumerate(frames)
                ]
                for future in futures:
                    reply = decode_message(future.result(120.0))
                    if reply["kind"] == "batch_ack":
                        inserted += reply["inserted"]
                    elif reply["kind"] == "busy":
                        shed += 1
                for lane in lanes:
                    lane.close()
                snap = net.metrics.snapshot()
                shed = max(shed, counter_value(snap, "server.upload.shed"))
        else:
            with ThreadedNetwork(workers=max(args.workers, 1)) as net:
                ConcurrentViewMapServer(system=system, network=net, address="authority")
                futures = [
                    net.send_async(
                        f"vehicle-{i}",
                        "authority",
                        encode_message(
                            "upload_vp_batch", session=f"s{i}", frame=mf.frame
                        ),
                    )
                    for i, mf in enumerate(frames)
                ]
                for future in futures:
                    reply = decode_message(future.result())
                    if reply["kind"] == "batch_ack":
                        inserted += reply["inserted"]
        total = len(store)
    finally:
        store.close()
    elapsed = time.perf_counter() - started
    n_vps = sum(mf.n_vps for mf in frames)
    print(
        f"{args.transport}: {len(frames)} frames / {n_vps} VPs in "
        f"{elapsed:.2f}s — {inserted} inserted, {shed} shed, "
        f"{total} stored"
    )


COMMANDS = {
    "campaigns": (_cmd_campaigns, "adversarial campaign grid: attacks x deployments"),
    "fig8": (_cmd_fig8, "hash generation: cascaded vs whole-file"),
    "fig12": (_cmd_fig12, "verification accuracy vs attacker position"),
    "fig15": (_cmd_fig15, "VP linkage ratio vs distance per environment"),
    "fig21": (_cmd_fig21, "build and render a traffic-derived viewmap"),
    "privacy": (_cmd_privacy, "tracking entropy/success over time (figs 10/11/22ab)"),
    "stream": (_cmd_stream, "replay a fleet upload burst through a transport"),
    "table2": (_cmd_table2, "the 14 field measurement scenarios"),
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="ViewMap (NSDI 2017) reproduction experiments"
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")
    for name, (_, help_text) in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--windows", type=int, default=40)
        cmd.add_argument("--runs", type=int, default=10)
        cmd.add_argument("--vehicles", type=int, default=100)
        cmd.add_argument("--area-km", type=float, default=4.0)
        cmd.add_argument("--minutes", type=int, default=10)
        cmd.add_argument("--speed", type=float, default=50.0)
        cmd.add_argument("--out", type=str, default="")
        cmd.add_argument(
            "--store",
            choices=STORE_KINDS,
            default="memory",
            help="VP storage backend (sqlite: the persistent segment log)",
        )
        cmd.add_argument(
            "--store-path",
            type=str,
            default="",
            help="segment-file prefix for --store sqlite/procs "
            "(default: anonymous temporary files / in-memory workers)",
        )
        cmd.add_argument(
            "--shards", type=int, default=4, help="shard count for --store sharded"
        )
        cmd.add_argument(
            "--shard-cells",
            type=int,
            default=1,
            help="spatial routing cells per minute for --store sharded/procs "
            "(>1 spreads a hot minute across shards)",
        )
        cmd.add_argument(
            "--ingest-workers",
            type=int,
            default=4,
            help="worker OS processes for --store procs (each shard gets "
            "its own GIL and its own segment files)",
        )
        cmd.add_argument(
            "--metrics-json",
            type=str,
            default="",
            help="write the run's merged per-stage metric registry "
            "(counters, gauges, latency histograms + percentiles) to "
            "this JSON file at exit",
        )
        cmd.add_argument(
            "--retention-minutes",
            type=int,
            default=0,
            help="evict VPs older than this many minutes as ingest "
            "advances (0 = keep everything)",
        )
        cmd.add_argument(
            "--workers",
            type=int,
            default=1,
            help="concurrent uploader threads driving ingest (1 = serial)",
        )
        cmd.add_argument(
            "--campaigns-json",
            type=str,
            default="",
            help="write the campaign grid's rows (campaign-row/v2) to "
            "this JSON file — the input of tools/check_campaigns.py",
        )
        cmd.add_argument(
            "--grid-campaigns",
            type=str,
            default="",
            help="comma-separated campaigns for the campaigns grid "
            "(default: all, including the clean control)",
        )
        cmd.add_argument(
            "--grid-backends",
            type=str,
            default="",
            help="comma-separated store backends for the campaigns grid "
            "(default: memory,sqlite)",
        )
        cmd.add_argument(
            "--grid-retentions",
            type=str,
            default="",
            help="comma-separated retention policies for the campaigns "
            "grid: none, window, pin_trusted (default: all)",
        )
        cmd.add_argument(
            "--transport",
            choices=("threaded", "streaming"),
            default="threaded",
            help="front-end for the stream command: threaded = buffered "
            "worker-pool fabric, streaming = async zero-copy ingest "
            "(frames parsed incrementally off the connection)",
        )
        cmd.add_argument(
            "--max-pending-bytes",
            type=int,
            default=8 * 1024 * 1024,
            help="per-connection cap on buffered-but-unprocessed upload "
            "bytes for --transport streaming; a peer exceeding it is "
            "shed with a clean error",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in (None, "list"):
            print("available experiments:")
            for name, (_, help_text) in COMMANDS.items():
                print(f"  {name:<10s} {help_text}")
            return 0
        handler, _ = COMMANDS[args.command]
        handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # output piped into a pager/head that closed early — not an error
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
