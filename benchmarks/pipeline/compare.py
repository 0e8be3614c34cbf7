"""``compare A B``: two sets of reduced runs against the bounds.

``A`` and ``B`` are JSON-lines files of reduced records (what
``--out`` appends).  Per workload and end-to-end metric the medians are
compared in the metric's direction; B worse than A by more than the
bound in ``BENCHMARK.json`` fails, and so does a run-to-run spread
(IQR / median) wider than the bound: that pair is unresolved, not
unchanged.  ISSUE 11's metrics that
``BENCHMARK.json`` does not gate are listed below them against the
ISSUE's bound, marked ``ungated``: they inform and never fail.  Also
used on two sets of runs of one commit, where a failure means the
benchmark does not repeat.
"""

from __future__ import annotations

import json
import statistics

from . import spec

Values = dict[tuple[str, str], list[float]]

#: gated as their complements (a bound is a share of the parent's
#: median, and a healthy run's failed_share is 0)
COMPLEMENTS = {"succeeded_share": "failed_share", "slo_met_share": "slo_miss_share"}
ABSOLUTE = tuple(COMPLEMENTS.values())


def _load(path: str) -> tuple[Values, Values, dict[str, list[int]]]:
    """Gated and ISSUE-named values of a set's untraced named runs.

    Both ``(workload, metric) -> values``; a metric the workload has no
    path for is left out.  Last: ``workload -> [runs, disturbed runs]``.
    """
    gated: Values = {}
    issue: Values = {}
    runs: dict[str, list[int]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"] or record["adhoc"]:
                continue
            workload = record["workload"]
            tally = runs.setdefault(workload, [0, 0])
            tally[0] += 1
            tally[1] += bool(record.get("disturbed"))
            applies = record.get("issue") or {}
            for name, metric in record["result"]["metrics"].items():
                if applies.get(name, 0.0) is not None:
                    gated.setdefault((workload, name), []).append(metric["value"])
            for name, value in applies.items():
                if value is not None:
                    issue.setdefault((workload, name), []).append(value)
    return gated, issue, runs


def spread(values: list[float], absolute: bool = False) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / (1.0 if absolute else median or 1.0)


def _row(key: tuple[str, str], a: list[float], b: list[float], higher: bool, bound: float):
    """One printed line and its verdict ('' when B agrees with A).

    B's median worse than A's by more than the bound is a regression; a
    run-to-run spread wider than the bound leaves the pair unresolved.
    ISSUE 11 bounds its two shares absolutely, everything else as a
    share of A's median.
    """
    absolute = key[1] in ABSOLUTE
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = (med_a - med_b if higher else med_b - med_a) / (1.0 if absolute else med_a or 1.0)
    spreads = spread(a, absolute), spread(b, absolute)
    line = (
        f"{key[0]:<14s} {key[1]:<26s} {med_a:>12.4f} {med_b:>12.4f} "
        f"{100 * worse:>8.1f}% {100 * bound:>5.0f}% "
        f"{100 * spreads[0]:>5.1f}% {100 * spreads[1]:>5.1f}%"
    )
    if worse > bound:
        return line, "REGRESSION"
    if max(spreads) > bound:
        return line, "UNRESOLVED"
    return line, ""


def compare(path_a: str, path_b: str) -> int:
    """Print per-metric deltas; return 1 unless every gated metric agrees."""
    bounds = {m["name"]: m for m in spec.load_benchmark()["end_to_end"]}
    (a, issue_a, runs_a), (b, issue_b, runs_b) = _load(path_a), _load(path_b)
    worst = 0
    print(
        f"{'workload':<14s} {'metric':<26s} {'A median':>12s} {'B median':>12s} "
        f"{'worse by':>9s} {'bound':>6s} {'IQR A':>6s} {'IQR B':>6s}"
    )
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b or key[1] not in bounds:
            print(f"{key[0]:<14s} {key[1]:<26s} in only one set or not in BENCHMARK.json")
            worst = 1
            continue
        entry = bounds[key[1]]
        line, verdict = _row(key, a[key], b[key], entry["better"] == "higher", entry["bound"])
        # the contract exempts the spread of setup_s, not its median
        if key[1] == "setup_s" and verdict == "UNRESOLVED":
            verdict = ""
        print(f"{line}  {verdict}".rstrip())
        worst |= bool(verdict)
    covered = set(bounds) | {COMPLEMENTS[name] for name in bounds if name in COMPLEMENTS}
    for key in sorted(set(issue_a) & set(issue_b)):
        if key[1] in covered:
            continue
        line, verdict = _row(
            key,
            issue_a[key],
            issue_b[key],
            key[1] in spec.HIGHER_IS_BETTER,
            spec.ISSUE_BOUNDS[key[1]],
        )
        note = f", {verdict.lower()} at ISSUE 11's bound" if verdict else ""
        print(f"{line}  ungated{note}")
    for workload in sorted(set(runs_a) | set(runs_b)):
        n_a, bad_a = runs_a.get(workload, (0, 0))
        n_b, bad_b = runs_b.get(workload, (0, 0))
        print(f"{workload:<14s} disturbed runs: A {bad_a} of {n_a}, B {bad_b} of {n_b}")
    return worst
