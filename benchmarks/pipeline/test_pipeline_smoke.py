"""Tier-1 smoke test of the pipeline benchmark (tiny scale, seconds).

Runs every workload through the real harness and reducer and checks
the contract later issues rely on: every metric ``BENCHMARK.json``
names is printed, finite and in its declared unit; inputs and exact
counts are a function of the seed; and an output check that does not
hold fails the run.
"""

from __future__ import annotations

import json
import math

import pytest

from . import bootstrap, spec

bootstrap()

from .compare import compare  # noqa: E402
from .harness import run  # noqa: E402
from .reduce import end_to_end, measured, reduce  # noqa: E402
from .trace import link_parents, self_times  # noqa: E402
from .workloads import WORKLOADS  # noqa: E402

SECONDS = 0.5


@pytest.fixture(scope="module")
def traced():
    """One traced tiny run per workload: raw record and reduced record."""
    out = {}
    for name in spec.WORKLOADS:
        raw = run(name, seed=7, seconds=SECONDS, trace=True, scale="tiny")
        out[name] = (raw, reduce(raw))
    return out


def test_benchmark_json_names_the_workloads_and_every_issue_metric():
    declared = spec.load_benchmark()
    assert [w["name"] for w in declared["workloads"]] == list(spec.WORKLOADS)
    assert set(spec.SLO_LIMIT_MS) == set(spec.WORKLOADS)
    gated = {m["name"]: m for m in declared["end_to_end"]}
    layers = {m["name"] for m in declared["per_layer"]}
    complements = {"failed_share": "succeeded_share", "slo_miss_share": "slo_met_share"}
    for name, bound in spec.ISSUE_BOUNDS.items():
        # gated at the ISSUE's bound (a share as its complement), or demoted by name
        held = gated.get(name) or gated.get(complements.get(name, ""))
        if held:
            assert held["bound"] == bound, name
        else:
            assert f"loadgen.{name}" in layers, name


@pytest.mark.parametrize("name", spec.WORKLOADS)
def test_every_named_metric_is_reported(traced, name):
    raw, record = traced[name]
    declared = spec.load_benchmark()
    assert record["failures"] == []
    assert record["result"]["correct"] and record["result"]["failed"] == 0
    assert record["adhoc"]  # tiny scale is never a named result
    for key, untraced in (("per_layer", False), ("end_to_end", True)):
        # the measured phase of a traced run is an untraced run's
        metrics = (reduce({**raw, "trace": False}) if untraced else record)["result"]["metrics"]
        assert list(metrics) == [entry["name"] for entry in declared[key]]
        for entry in declared[key]:
            assert metrics[entry["name"]]["unit"] == entry["unit"]
            assert math.isfinite(metrics[entry["name"]]["value"]), entry["name"]
            assert untraced is False or metrics[entry["name"]]["value"] > 0, entry["name"]
    # a metric reads "not applicable" exactly where the workload lacks its path
    absent = {metric for metric, value in record["issue"].items() if value is None}
    assert absent == {
        "onion_upload": {
            "ingest_vps_per_s",
            "query_p50_ms",
            "investigate_minute_p50_ms",
            "stored_bytes_per_vp",
        },
        "ingest_stream": {"query_p50_ms", "investigate_minute_p50_ms"},
        "serve_mixed": {"ingest_vps_per_s", "investigate_minute_p50_ms"},
        "investigate": {
            "upload_ack_p50_ms",
            "ingest_vps_per_s",
            "query_p50_ms",
            "wire_bytes_per_vp",
        },
    }[name]
    assert all(end_to_end(raw)[metric] == spec.NOT_APPLICABLE for metric in absent)
    # the traced pass covers its ops with layer spans
    assert record["result"]["metrics"]["trace.unattributed_share"]["value"] <= 0.15
    assert abs(sum(record["layers"].values()) - 1.0) < 1e-6
    if name == "ingest_stream":
        assert record["result"]["metrics"]["obs.admission.depth_max"]["value"] >= 1
    json.dumps(raw)  # the raw record is plain data


@pytest.mark.parametrize("name", spec.WORKLOADS)
def test_inputs_and_exact_counts_follow_the_seed(traced, name):
    first = traced[name][0]
    again = run(name, seed=7, seconds=SECONDS, trace=False, scale="tiny")
    other = run(name, seed=8, seconds=SECONDS, trace=False, scale="tiny")
    assert again["inputs_sha256"] == first["inputs_sha256"]
    assert other["inputs_sha256"] != first["inputs_sha256"]
    # wire bytes are an exact count (file sizes follow commit timing, so
    # stored_bytes_per_vp is checked as a VP count below)
    assert measured(again)["wire_bytes_per_vp"] == measured(first)["wire_bytes_per_vp"]
    if name == "ingest_stream":
        # loops are time-bound, so exact counts repeat per round
        per_round = {(r["stored_vps"], r["span_copies"]) for r in first["rounds"]}
        assert per_round == {(r["stored_vps"], r["span_copies"]) for r in again["rounds"]}
        assert len(per_round) == 1
    elif name == "onion_upload":
        good = sum(1 for op in again["ops"] if op[2])
        assert again["counts"]["stored_vps"] == 4 * (good + 3)  # + the warm-up ops
    elif name == "serve_mixed":
        # the schedule is fixed by the seed; a traced run uploads more after it
        assert again["counts"]["accepted_vps"] == first["counts"]["accepted_vps"]
        tiny = spec.SCALES["tiny"]
        preloaded = spec.SERVE_MINUTES * tiny.serve_preload_per_minute
        assert again["counts"]["stored_vps"] == (
            preloaded + tiny.serve_upload_vps + again["counts"]["accepted_vps"]
        )
    else:
        assert again["counts"]["stored_vps"] == first["counts"]["stored_vps"]


def test_a_corrupted_expected_id_set_fails_the_run(tmp_path):
    work = WORKLOADS["ingest_stream"](7, 0.1, spec.SCALES["tiny"], str(tmp_path))
    try:
        work.setup()
        assert work.failures == []
        work.retained.pop()
        work.measure()
        work.finish()
    finally:
        work.teardown()
    assert work.failures and "retained window" in work.failures[0]


def test_self_time_is_duration_minus_children():
    spans = [
        ["loadgen.op", 0.0, 10.0, -1, "a:0"],
        ["net.server.handle", 2.0, 8.0, -1, "a:0"],
        ["store.write.insert_encoded", 3.0, 5.0, -1, "a:0"],
        ["store.write.existing_ids", 5.5, 6.0, -1, "a:0"],
        ["loadgen.op", 20.0, 21.0, -1, "a:1"],
    ]
    link_parents(spans)
    assert [span[3] for span in spans] == [-1, 0, 1, 1, -1]
    assert self_times(spans) == pytest.approx([4.0, 3.5, 2.0, 0.5, 1.0])


def test_compare_flags_a_regression_beyond_the_bound(tmp_path, capsys):
    def record(rss, ack):
        return {
            "workload": "onion_upload",
            "trace": False,
            "adhoc": False,
            "disturbed": "",
            "issue": {"peak_rss_mb": rss, "upload_ack_p50_ms": ack, "query_p50_ms": None},
            "result": {"metrics": {"peak_rss_mb": {"value": rss, "unit": "MiB"}}},
        }

    paths = {}
    sets = {
        "a": [(100.0, 30.0), (101.0, 31.0), (99.0, 29.0)],
        "b": [(104.0, 60.0)],  # the ungated wall clock doubled: listed, not failed
        "c": [(140.0, 30.0)],
    }
    for tag, values in sets.items():
        paths[tag] = tmp_path / f"{tag}.jsonl"
        paths[tag].write_text("".join(json.dumps(record(*v)) + "\n" for v in values))
    assert compare(str(paths["a"]), str(paths["b"])) == 0
    assert "ungated, regression at ISSUE 11's bound" in capsys.readouterr().out
    assert compare(str(paths["a"]), str(paths["c"])) == 1
    assert "REGRESSION" in capsys.readouterr().out
