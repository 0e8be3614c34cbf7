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
    """Write the run's store metric registry (and percentiles) as JSON.

    The snapshot comes out of the store's ``stats().detail["metrics"]``.
    The file carries both the raw mergeable snapshot and a pre-digested
    percentile view, so dashboards need no repro import to read p50/p99/p999.
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
    from repro.store import RetentionPolicy, SegmentStore

    store = SegmentStore(args.store_path)
    retention = (
        RetentionPolicy(window_minutes=args.retention_minutes)
        if args.retention_minutes > 0
        else None
    )
    try:
        stats, vmap = city_viewmap_stats(
            args.speed, n_vehicles=args.vehicles, area_km=args.area_km, seed=args.seed,
            store=store, retention=retention,
        )
        occupancy = store.stats()
    finally:
        store.close()  # closes segment files
    print(f"store: {args.store_path or 'anonymous segments'} ({occupancy.vps} VPs, "
          f"{occupancy.minutes} minutes)")
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
        restart_violations,
        row_invariant_violations,
        rows_to_json,
        run_campaign_grid,
    )

    overrides = {
        "campaigns": args.grid_campaigns,
        "restarts": args.grid_restarts,
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
        f"{'campaign':<14s} {'restart':<8s} {'retention':<12s} "
        f"{'success':>7s} {'loss':>6s} {'detect':>6s} {'ratio':>6s}"
    )
    violations: list[str] = []
    for row in rows:
        violations.extend(row_invariant_violations(row))
        print(
            f"{row.campaign:<14s} {row.restart:<8s} {row.retention:<12s} "
            f"{row.attack_success_rate:>7.2f} {row.honest_vp_loss:>6.2f} "
            f"{row.detection_latency_min:>6d} {row.throughput_ratio:>6.2f}"
        )
    violations.extend(restart_violations(rows))
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
    from repro.store import SegmentStore

    store = SegmentStore(args.store_path)
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
            with ThreadedNetwork(workers=args.workers) as net:
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
        f"{total} stored in {args.store_path or 'anonymous segments'}"
    )


def _positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


#: every flag a command may declare, by name: its argparse keywords
FLAGS: dict[str, dict] = {
    "--seed": dict(type=int, default=0),
    "--windows": dict(type=int, default=40),
    "--runs": dict(type=int, default=10),
    "--vehicles": dict(type=int, default=100),
    "--area-km": dict(type=float, default=4.0),
    "--minutes": dict(type=int, default=10),
    "--speed": dict(type=float, default=50.0),
    "--out": dict(type=str, default=""),
    "--store-path": dict(
        type=str,
        default="",
        help="segment-file prefix of a VP store that survives the run "
        "(default: anonymous segments, nothing named on disk). The store "
        "holds one open descriptor per live minute: without "
        "--retention-minutes a run past `ulimit -n` live minutes fails",
    ),
    "--metrics-json": dict(
        type=str,
        default="",
        help="write the run's merged per-stage metric registry "
        "(counters, gauges, latency histograms + percentiles) to "
        "this JSON file at exit",
    ),
    "--retention-minutes": dict(
        type=int,
        default=0,
        help="evict VPs older than this many minutes as ingest "
        "advances (0 = keep everything)",
    ),
    "--workers": dict(
        type=_positive_int,
        default=1,
        help="threaded: fabric worker threads; streaming: held "
        "connections (at most 64)",
    ),
    "--campaigns-json": dict(
        type=str,
        default="",
        help="write the campaign grid's rows (campaign-row/v3) to "
        "this JSON file — the input of tools/check_campaigns.py",
    ),
    "--grid-campaigns": dict(
        type=str,
        default="",
        help="comma-separated campaigns for the campaigns grid "
        "(default: all, including the clean control)",
    ),
    "--grid-restarts": dict(
        type=str,
        default="",
        help="comma-separated restart modes for the campaigns grid: "
        "none, mid (default: both)",
    ),
    "--grid-retentions": dict(
        type=str,
        default="",
        help="comma-separated retention policies for the campaigns "
        "grid: none, window, pin_trusted (default: all)",
    ),
    "--transport": dict(
        choices=("threaded", "streaming"),
        default="threaded",
        help="front-end for the stream command: threaded = buffered "
        "worker-pool fabric, streaming = async zero-copy ingest "
        "(frames parsed incrementally off the connection)",
    ),
    "--max-pending-bytes": dict(
        type=int,
        default=8 * 1024 * 1024,
        help="per-connection cap on buffered-but-unprocessed upload "
        "bytes for --transport streaming; a peer exceeding it is "
        "shed with a clean error",
    ),
}

#: name -> (handler, help, the flags the handler reads)
COMMANDS = {
    "campaigns": (
        _cmd_campaigns,
        "adversarial campaign grid: attacks x deployments",
        "--seed --campaigns-json --grid-campaigns --grid-restarts --grid-retentions",
    ),
    "fig8": (_cmd_fig8, "hash generation: cascaded vs whole-file", ""),
    "fig12": (_cmd_fig12, "verification accuracy vs attacker position", "--seed --runs"),
    "fig15": (_cmd_fig15, "VP linkage ratio vs distance per environment", "--seed --windows"),
    "fig21": (
        _cmd_fig21,
        "build and render a traffic-derived viewmap",
        "--seed --vehicles --area-km --speed --out --store-path --metrics-json "
        "--retention-minutes",
    ),
    "privacy": (
        _cmd_privacy,
        "tracking entropy/success over time (figs 10/11/22ab)",
        "--seed --vehicles --area-km --minutes",
    ),
    "stream": (
        _cmd_stream,
        "replay a fleet upload burst through a transport",
        "--seed --vehicles --minutes --store-path --workers --transport --max-pending-bytes",
    ),
    "table2": (_cmd_table2, "the 14 field measurement scenarios", "--seed --windows"),
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser: each command declares only the
    flags its handler reads."""
    parser = argparse.ArgumentParser(
        prog="repro", description="ViewMap (NSDI 2017) reproduction experiments"
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")
    for name, (_, help_text, flags) in COMMANDS.items():
        # no abbreviations: the retired ``--store`` must not parse as ``--store-path``
        cmd = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags.split():
            cmd.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in (None, "list"):
            print("available experiments:")
            for name, (_, help_text, _) in COMMANDS.items():
                print(f"  {name:<10s} {help_text}")
            return 0
        handler, _, _ = COMMANDS[args.command]
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
