"""Campaign-grid acceptance gate for the CI campaigns job.

Validates a campaign-grid rows file (``python -m repro.cli campaigns
--campaigns-json ...`` output, schema ``campaign-row/v2``) in two
layers:

1. every row must satisfy the per-cell security/SLO invariants
   (:func:`repro.analysis.campaigns.row_invariant_violations` — zero
   fake-VP solicitations, bounded honest-VP loss, clamped watermark,
   attack detection, goodput floor);
2. every row present in the committed baseline must match the run's
   row **exactly** — rows are deterministic functions of (axes, seed,
   config), so any drift is a behavior change, not noise.

    python tools/check_campaigns.py CAMPAIGNS_pr.json
    python tools/check_campaigns.py CAMPAIGNS_pr.json --update
    python tools/check_campaigns.py CAMPAIGNS_pr.json --require-all
    python tools/check_campaigns.py CAMPAIGNS_pr.json --summary "$GITHUB_STEP_SUMMARY"

Cells in the run but absent from the baseline (a PR widening the grid)
WARN instead of failing; ``--require-all`` turns those into failures
once the baseline has been refreshed with ``--update``.  Baseline cells
missing from the run warn only, so a reduced grid (one backend, one
campaign) can still be checked while developing.

Exit codes: 0 = acceptable, 1 = invariant violation or baseline
mismatch, 2 = usage/input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "CAMPAIGNS_baseline.json"

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.campaigns import (  # noqa: E402
    ROW_SCHEMA,
    CampaignRow,
    row_invariant_violations,
)


def cell_key(row: dict) -> str:
    """The grid coordinates identifying one cell across files."""
    return "/".join(
        str(row.get(axis)) for axis in ("campaign", "backend", "retention", "seed")
    )


def load_rows(path: Path) -> dict[str, dict]:
    """Read a rows file into {cell key: row dict}, schema-checked."""
    rows = json.loads(path.read_text())
    if not isinstance(rows, list) or not rows:
        raise ValueError("expected a non-empty JSON list of campaign rows")
    out: dict[str, dict] = {}
    for row in rows:
        if row.get("schema") != ROW_SCHEMA:
            raise ValueError(
                f"row {cell_key(row)} has schema {row.get('schema')!r}, "
                f"expected {ROW_SCHEMA!r} — regenerate with the current code"
            )
        out[cell_key(row)] = row
    return out


def as_row(data: dict) -> CampaignRow:
    """Rehydrate one row dict for the shared invariant checks."""
    data = dict(data)
    data["detected_signals"] = tuple(data.get("detected_signals") or ())
    return CampaignRow(**data)


def diff_fields(base: dict, got: dict) -> list[str]:
    """Field-level differences between a baseline row and a run row."""
    return [
        f"{name}: baseline {base.get(name)!r} != run {got.get(name)!r}"
        for name in sorted(set(base) | set(got))
        if base.get(name) != got.get(name)
    ]


def summary_table(baseline: dict, current: dict, require_all: bool) -> list[str]:
    """Markdown per-cell status table for $GITHUB_STEP_SUMMARY."""
    lines = [
        "### Campaign grid (run vs committed baseline)",
        "",
        "| cell | success | loss | detect | ratio | status |",
        "|---|---:|---:|---:|---:|---|",
    ]
    for key in sorted(set(baseline) | set(current)):
        got = current.get(key)
        base = baseline.get(key)
        if got is None:
            status, row = "not run", base
        elif base is None:
            status, row = ("NEW (no baseline)" if require_all else "warn: no baseline"), got
        elif diff_fields(base, got):
            status, row = "MISMATCH", got
        else:
            status, row = "ok", got
        if row is None:
            continue
        lines.append(
            f"| `{key}` | {row.get('attack_success_rate')} "
            f"| {row.get('honest_vp_loss')} | {row.get('detection_latency_min')} "
            f"| {row.get('throughput_ratio')} | {status} |"
        )
    lines.append("")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rows", help="campaign rows JSON from this run")
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE))
    parser.add_argument(
        "--update",
        action="store_true",
        help="write this run's rows over the committed baseline and exit "
        "(rows still must pass the per-cell invariants)",
    )
    parser.add_argument(
        "--require-all",
        action="store_true",
        help="fail when the run contains cells absent from the baseline "
        "(default: warn, so a PR widening the grid does not gate on "
        "cells that have no reference yet)",
    )
    parser.add_argument(
        "--summary",
        default="",
        metavar="FILE",
        help="append a markdown per-cell status table to FILE "
        "(e.g. $GITHUB_STEP_SUMMARY); empty disables",
    )
    args = parser.parse_args(argv)

    try:
        current = load_rows(Path(args.rows))
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"cannot read campaign rows {args.rows!r}: {exc}", file=sys.stderr)
        return 2

    failures: list[str] = []
    for key, row in sorted(current.items()):
        try:
            violations = row_invariant_violations(as_row(row))
        except TypeError as exc:
            print(f"malformed row {key}: {exc}", file=sys.stderr)
            return 2
        failures.extend(violations)

    if args.update:
        if failures:
            print("refusing to baseline rows that violate invariants:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        ordered = [current[key] for key in sorted(current)]
        Path(args.baseline).write_text(
            json.dumps(ordered, indent=2, sort_keys=True) + "\n"
        )
        print(f"baseline updated: {len(ordered)} cells -> {args.baseline}")
        return 0

    try:
        baseline = load_rows(Path(args.baseline))
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"cannot read baseline {args.baseline!r}: {exc}", file=sys.stderr)
        return 2

    if args.summary:
        try:
            with open(args.summary, "a") as fh:
                fh.write("\n".join(summary_table(baseline, current, args.require_all)))
                fh.write("\n")
        except OSError as exc:
            # the table is reporting sugar; never fail the gate over it
            print(f"cannot write summary {args.summary!r}: {exc}", file=sys.stderr)

    matched = 0
    for key in sorted(current):
        base = baseline.get(key)
        if base is None:
            if args.require_all:
                failures.append(f"NEW {key}: not in baseline (regenerate with --update)")
                print(f"NEW      {key} — failing under --require-all", file=sys.stderr)
            else:
                print(f"WARN: no baseline row for {key}; not gating", file=sys.stderr)
            continue
        drift = diff_fields(base, current[key])
        if drift:
            failures.append(f"MISMATCH {key}: " + "; ".join(drift))
            print(f"MISMATCH {key}", file=sys.stderr)
        else:
            matched += 1
            print(f"OK       {key}")
    for key in sorted(set(baseline) - set(current)):
        # a reduced grid legitimately skips part of the baseline
        print(f"not run  {key}")

    if failures:
        print(f"\n{len(failures)} campaign-grid failure(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nall invariants hold; {matched} cell(s) match the baseline exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
