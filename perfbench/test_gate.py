"""Tests for the benchmark's report gate and layer-metric reduction.

    python3 -m pytest perfbench
"""

import json
from pathlib import Path

import pytest

import run
from gate import GateError, SAMPLE_COUNTS, check_report, expected_claims, sample_count, values_digest
from tracer import TRACED_NAMES, Tracer, layer_metrics


def claim(cid, value=0.0, detail="", passed=True, **extra):
    return {"claim_id": cid, "suite": cid.split(".")[0], "value": value, "passed": passed,
            "runtime_ms": 1.0, "detail": detail, **extra}


def report(d=3):
    details = {
        "channel.central_identity": "pairs=3",
        "zero_error.equivalence": "pairs=250",
        "theorem2.no_valid_code_pair": "candidates=500 near_misses=326",
        "ppt.search_floor": "accepted=1000 skipped=0",
    }
    claims = [claim(cid, 1e-16 * i, details.get(cid, "")) for i, cid in enumerate(expected_claims(d))]
    return {"overall_pass": True, "claims": claims}


@pytest.mark.parametrize("detail, key, want", [
    ("pairs=3", "pairs", 3),
    ("candidates=500 near_misses=326", "candidates", 500),
    ("accepted=1000 skipped=0", "accepted", 1000),
    ("accepted=1000 skipped=0", "skipped", 0),
])
def test_sample_count_reads_detail(detail, key, want):
    assert sample_count(claim("x.y", detail=detail), key) == want


def test_sample_count_prefers_metrics_dict():
    c = claim("x.y", detail="pairs=3", metrics={"pairs": 25})
    assert sample_count(c, "pairs") == 25
    # a metrics dict without the key falls back to the detail string
    assert sample_count(claim("x.y", detail="pairs=3", metrics={}), "pairs") == 3


@pytest.mark.parametrize("detail, metrics", [
    ("", None),                        # absent
    ("near_misses=4", None),           # only a longer key ends in the name
    ("misses=4.5", None),              # not an integer
    ("misses=1 misses=2", None),       # ambiguous
    ("", {"misses": -1}),              # negative
    ("", {"misses": True}),            # not a count
    ("", {"misses": 2.0}),             # float, not a count
])
def test_missing_or_bad_count_fails_instead_of_reading_zero(detail, metrics):
    extra = {} if metrics is None else {"metrics": metrics}
    with pytest.raises(GateError):
        sample_count(claim("x.y", detail=detail, **extra), "misses")


def test_check_report_returns_counts_and_digest():
    counts, digest = check_report(report(), 3)
    assert counts == {
        "samples.central_identity": 3,
        "samples.equivalence": 250,
        "samples.code_sweep": 500,
        "samples.ppt_accepted": 1000,
    }
    assert set(counts) == set(SAMPLE_COUNTS)
    assert len(digest) == 64


def test_check_report_rejects_failure_missing_and_duplicate_claims():
    r = report()
    r["overall_pass"] = False
    with pytest.raises(GateError, match="overall_pass"):
        check_report(r, 3)
    with pytest.raises(GateError, match="missing"):
        check_report(report(3), 2)  # d=2 also expects the sub-design claims
    r = report()
    r["claims"].append(dict(r["claims"][0]))
    with pytest.raises(GateError, match="twice"):
        check_report(r, 3)
    r = report()
    next(c for c in r["claims"] if c["claim_id"] == "ppt.search_floor")["detail"] = "skipped=0"
    with pytest.raises(GateError, match="accepted"):
        check_report(r, 3)


def test_values_digest_ignores_order_and_runtime_but_not_last_bit():
    claims = report()["claims"]
    base = values_digest(claims)
    shuffled = [dict(c, runtime_ms=99.0) for c in reversed(claims)]
    assert values_digest(shuffled) == base
    bumped = [dict(c) for c in claims]
    bumped[1]["value"] = bumped[1]["value"] + 1e-31  # 1e-16 + 1e-31 differs in the last bits
    assert bumped[1]["value"] != claims[1]["value"]
    assert values_digest(bumped) != base


def test_layer_metrics_self_time_subtracts_direct_children():
    names = list(TRACED_NAMES)
    search, project = names.index("ppt.ppt_search"), names.index("ppt.project_to_ppt")
    span = names.index("ncgraph.operator_span")
    trace = {
        "names": names,
        # ppt_search [0, 10] calls project_to_ppt twice; one operator_span call at top level
        "spans": [[search, 0.0, 10.0, -1], [project, 1.0, 4.0, 0], [project, 5.0, 6.0, 0],
                  [span, 11.0, 11.5, -1]],
        "counters": {"branches": 4, "branch_bytes": 2**21, "ppt_accepted": 3,
                     "ppt_attempts": 4, "ppt_unconverged": 1},
        "missing": [],
    }
    m = layer_metrics(trace)
    assert m["ppt.ppt_search.calls"] == 1 and m["ppt.ppt_search.self_s"] == 6.0
    assert m["ppt.project_to_ppt.calls"] == 2 and m["ppt.project_to_ppt.self_s"] == 4.0
    assert m["ncgraph.operator_span.max_call_s"] == 0.5
    assert m["channel.branch_mb"] == 2.0
    assert m["ppt.ppt_search.accept_ratio"] == 0.75
    assert m["ppt.project_to_ppt.unconverged"] == 1
    assert m["designs.multiplication_table.calls"] == 0


def test_results_carry_exactly_the_benchmark_file_metrics_and_units():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    child = run.Child(wall_s=2.0, cpu_s=2.5, rss_mb=40.0, returncode=0)
    traced = (run.VerifyRun(traced=True, child=child), report(), Tracer().to_dict())
    layer = run.layer_result(traced, [child])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in layer.items()
    }
    e2e = run.end_to_end_result([child], [child], 1.0, dict.fromkeys(SAMPLE_COUNTS, 1))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in e2e.items()
    }
