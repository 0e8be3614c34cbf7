"""Command line of the pipeline benchmark.

``python3 -m benchmarks.pipeline --workload W --seed N --seconds S
--trace 0|1`` runs and reduces in one go and prints the result object
as the last line of stdout (the ``BENCHMARK.json`` contract).  The two
halves are also separate commands — ``run`` writes the raw samples and
spans, ``reduce`` turns a raw file into the named metrics — and
``compare A B`` checks two sets of reduced runs against the bounds.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bootstrap


def _run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument(
        "--backend",
        choices=("memory", "sqlite", "sharded", "procs"),
        help="ad-hoc store override; output is stamped adhoc",
    )
    parser.add_argument(
        "--transport",
        choices=("threaded", "streaming"),
        help="ad-hoc ingest_stream transport override; output is stamped adhoc",
    )
    parser.add_argument("--out", help="write the record here (reduced records append)")


def _print_record(record: dict) -> None:
    """Every metric by name with its unit, then the result line."""
    stamp = " adhoc" if record["adhoc"] else ""
    print(
        f"# {record['workload']} seed={record['seed']} seconds={record['seconds']:g} "
        f"trace={int(record['trace'])}{stamp} inputs_sha256={record['inputs_sha256']}"
    )
    if record["disturbed"]:
        print(
            f"# disturbed run: the host ran at speed_factor {record['speed_factor']:.2f}; "
            "its wall clock is not the program's alone"
        )
    for name, value in record["issue"].items():
        shown = "n/a" if value is None else f"{value:.4f}"
        print(f"{name:<44s} {shown:>16s}  (ISSUE 11 name, measured phase)")
    for name, metric in record["result"]["metrics"].items():
        print(f"{name:<44s} {metric['value']:>16.4f} {metric['unit']}")
    for layer, share in sorted(record["layers"].items(), key=lambda kv: -kv[1]):
        print(f"layer {layer:<38s} {100 * share:>15.1f}% of traced op latency")
    for failure in record["failures"]:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps(record["result"]))


def _finish(record: dict, out: str | None) -> int:
    if out:
        with open(out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    _print_record(record)
    return 0 if record["result"]["correct"] else 1


def main(argv: list[str]) -> int:
    bootstrap()
    from .compare import compare
    from .harness import run
    from .reduce import reduce

    command = argv[0] if argv and argv[0] in ("run", "reduce", "compare") else ""
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.pipeline " + command)
    if command == "reduce":
        parser.add_argument("raw")
        parser.add_argument("--out")
        args = parser.parse_args(argv[1:])
        with open(args.raw, encoding="utf-8") as handle:
            return _finish(reduce(json.load(handle)), args.out)
    if command == "compare":
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b)
    _run_args(parser)
    args = parser.parse_args(argv[1:] if command else argv)
    raw = run(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        scale=args.scale,
        backend=args.backend,
        transport=args.transport,
    )
    if command == "run":
        text = json.dumps(raw)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            print(text)
        return 1 if raw["failures"] else 0
    return _finish(reduce(raw), args.out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
