import argparse
import ast
import dataclasses
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zecheck
from zecheck.cli import _build_parser, main, parse_config
from zecheck.report import (
    SUITE_NAMES,
    SUPPORTED_D,
    SUPPORTED_N,
    RunConfig,
    VerificationReport,
    emit_report,
)
from zecheck.suites import case_rng, execute


def normalized(report):
    data = report.to_dict()
    for claim in data["claims"]:
        claim["runtime_ms"] = 0.0
    return json.dumps(data, sort_keys=True)


def test_parse_basic_flags():
    cfg = parse_config(["verify", "--d", "2", "--n", "2", "--suite", "theorem2"], env={})
    assert (cfg.d, cfg.n) == (2, 2)
    assert cfg.suites == ("theorem2",)


def test_parse_rejects_unsupported_d():
    with pytest.raises(SystemExit) as err:
        parse_config(["verify", "--d", "4"], env={})
    assert err.value.code == 2


def test_parse_rejects_unknown_flag():
    with pytest.raises(SystemExit) as err:
        parse_config(["verify", "--bogus", "1"], env={})
    assert err.value.code == 2


def test_every_verify_option_has_help():
    subparsers = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    verify = subparsers.choices["verify"]
    missing = [
        a.option_strings for a in verify._actions if a.option_strings and not a.help
    ]
    assert missing == []
    # every setting states RunConfig's default, so help and behavior cannot drift
    stated = {"suites": "all", "output": "stdout"}
    for f in dataclasses.fields(RunConfig):
        action = next(a for a in verify._actions if a.dest == f.name)
        assert f"(default {stated.get(f.name, f.default)})" in action.help, action.help
    assert str(SUPPORTED_D) in next(a for a in verify._actions if a.dest == "d").help
    assert str(SUPPORTED_N) in next(a for a in verify._actions if a.dest == "n").help


def test_env_seed_fallback():
    cfg = parse_config(["verify"], env={"ZEC_SEED": "42"})
    assert cfg.seed == 42


def test_flag_overrides_env():
    cfg = parse_config(["verify", "--seed", "7"], env={"ZEC_SEED": "42"})
    assert cfg.seed == 7


def test_env_suite_list():
    cfg = parse_config(["verify"], env={"ZEC_SUITE": "privacy,ppt"})
    assert cfg.suites == ("privacy", "ppt")


@pytest.mark.parametrize("raw", ["", " , ", ","])
def test_env_suite_naming_no_suite_is_usage_error(raw, monkeypatch, capsys):
    # an empty list would run no claim and pass vacuously
    with pytest.raises(SystemExit) as err:
        parse_config(["verify"], env={"ZEC_SUITE": raw})
    assert err.value.code == 2
    assert "ZEC_SUITE" in capsys.readouterr().err
    monkeypatch.setenv("ZEC_SUITE", raw)
    assert main(["verify"]) == 2


def test_settings_default_to_run_config():
    cfg = parse_config(["verify"], env={})
    assert cfg == RunConfig()


@pytest.mark.parametrize("key,raw,attr,expected", [
    ("D", "3", "d", 3),
    ("N", "2", "n", 2),
    ("SUITE", "ppt", "suites", ("ppt",)),
    ("TRIALS", "7", "trials", 7),
    ("SEED", "42", "seed", 42),
    ("OUTPUT", "report.json", "output", "report.json"),
    ("FORMAT", "text", "fmt", "text"),
])
def test_env_fallback(key, raw, attr, expected):
    assert getattr(parse_config(["verify"], env={}), attr) != expected
    assert getattr(parse_config(["verify"], env={"ZEC_" + key: raw}), attr) == expected


@pytest.mark.parametrize("argv", [["--tol", "1e-6"], ["--cache-dir", "x"]])
def test_removed_flags_are_usage_errors(argv):
    with pytest.raises(SystemExit) as err:
        parse_config(["verify", *argv], env={})
    assert err.value.code == 2
    assert main(["verify", *argv]) == 2


@pytest.mark.parametrize("key", ["ZEC_TOL", "ZEC_CACHE_DIR"])
def test_removed_env_is_usage_error(key, monkeypatch, capsys):
    with pytest.raises(SystemExit) as err:
        parse_config(["verify"], env={key: "1e-6"})
    assert err.value.code == 2
    assert f"{key} was removed" in capsys.readouterr().err
    monkeypatch.setenv(key, "x")
    assert main(["verify", "--suite", "privacy"]) == 2


def test_env_bad_value_is_usage_error():
    with pytest.raises(SystemExit) as err:
        parse_config(["verify"], env={"ZEC_TRIALS": "many"})
    assert err.value.code == 2


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(trials=0)
    with pytest.raises(ValueError):
        RunConfig(seed=2**64)
    with pytest.raises(ValueError):
        RunConfig(suites=("nope",))


def test_suite_filtering():
    report = execute(RunConfig(d=3, suites=("privacy",), trials=10, seed=3))
    assert {c.suite for c in report.claims} == {"privacy"}
    assert report.overall_pass


def test_empty_suites_vacuous():
    report = execute(RunConfig(suites=()))
    assert report.overall_pass
    assert report.claims == []
    assert report.warnings


def test_determinism_same_config():
    cfg = RunConfig(d=2, n=1, trials=20, seed=11)
    assert normalized(execute(cfg)) == normalized(execute(cfg))


@pytest.mark.parametrize("d,n", [(2, 2), (3, 1)])
def test_report_does_not_depend_on_the_cpu_count(d, n, cpus):
    # the suites whose loops are spread over the CPUs, each with 2 items or more
    cfg = RunConfig(d=d, n=n, trials=20, seed=11, suites=("channel", "ppt"))
    cpus(1)
    alone = normalized(execute(cfg))
    cpus(3)
    assert normalized(execute(cfg)) == alone


# (suite, claim_id, tolerance) in report order, the same at every d
PINNED_CLAIMS = [
    ("design", "design.members", 1e-9),
    ("design", "design.closure", None),
    ("design", "design.frame_potential", 1e-9),
    ("design", "design.twirl_clock_form", 1e-9),
    ("design", "design.twirl_projection", 1e-9),
    ("design", "design.twirl_invariance", 1e-9),
    ("channel", "channel.phase_gate_form", 1e-12),
    ("channel", "channel.basis_messages", 1e-12),
    ("channel", "channel.conservation", 1e-9),
    ("channel", "channel.central_identity", 1e-8),
    ("channel", "channel.alt_design_identity", 1e-8),
    ("zero-error", "zero_error.closed_form", 1e-9),
    ("zero-error", "zero_error.psd", 1e-9),
    ("zero-error", "zero_error.support_projector", 1e-9),
    ("zero-error", "zero_error.null_dimension", None),
    ("zero-error", "zero_error.null_vectors", 1e-10),
    ("zero-error", "zero_error.dominance", 1e-9),
    ("zero-error", "zero_error.equivalence", None),
    ("zero-error", "zero_error.form_properties", 1e-10),
    ("theorem2", "theorem2.no_valid_code_pair", None),
    ("privacy", "privacy.transpose_trick", 1e-12),
    ("privacy", "privacy.correctness", 1e-12),
    ("privacy", "privacy.decoding", None),
    ("privacy", "privacy.secrecy", 1e-12),
    ("privacy", "privacy.secrecy_control", None),
    ("ppt", "ppt.witness", 1e-12),
    ("ppt", "ppt.uniform_score", 1e-12),
    ("ppt", "ppt.search_floor", None),
    ("ppt", "ppt.twirl_preserves", 1e-9),
    ("ppt", "ppt.twirl_invariance", 1e-9),
    ("ppt", "ppt.constraint_unreachable", None),
    ("ppt", "ppt.recursion_zero", None),
    ("ppt", "ppt.recursion_refutes", 1e-9),
    ("ncgraph", "ncgraph.block_dims", None),
    ("ncgraph", "ncgraph.total_dim", None),
    ("ncgraph", "ncgraph.membership", None),
    ("ncgraph", "ncgraph.conditions", None),
    ("ncgraph", "ncgraph.control", None),
    ("ncgraph", "ncgraph.adjoint_closed", None),
    ("ncgraph", "ncgraph.twirl_units", 1e-9),
    ("ncgraph", "ncgraph.design_independence", None),
]


@functools.lru_cache(maxsize=None)
def full_run(d, n, trials):
    return execute(RunConfig(d=d, n=n, trials=trials, seed=11))


@pytest.mark.parametrize("d,n", [(2, 2), (3, 1)])
def test_claim_list_is_pinned(d, n):
    report = full_run(d, n, 5)
    assert [(c.suite, c.claim_id, c.tolerance) for c in report.claims] == PINNED_CLAIMS
    assert len(report.claims) == len(zecheck.suites._CLAIMS)
    statements = [c.statement for c in report.claims]
    assert all(s.strip() for s in statements)
    assert len(set(statements)) == len(statements)
    assert report.overall_pass and not report.warnings


@pytest.mark.parametrize(
    "d,n,trials,suite",
    [(2, 1, 20, "theorem2"), *((2, 2, 5, s) for s in SUITE_NAMES),
     (3, 1, 5, "channel"), (3, 1, 5, "ncgraph")],
)
def test_suite_subset_matches_full_run(d, n, trials, suite):
    full_claims = [c for c in full_run(d, n, trials).claims if c.suite == suite]
    sub = execute(RunConfig(d=d, n=n, trials=trials, seed=11, suites=(suite,)))
    assert len(full_claims) == len(sub.claims) > 0
    for a, b in zip(full_claims, sub.claims):
        a, b = a.to_dict(), b.to_dict()
        a.pop("runtime_ms")
        b.pop("runtime_ms")
        assert a == b


def test_case_rng_streams_are_stable():
    a = case_rng(5, "channel", 3).standard_normal(4)
    b = case_rng(5, "channel", 3).standard_normal(4)
    c = case_rng(5, "channel", 4).standard_normal(4)
    assert (a == b).all()
    assert (a != c).any()


def seeding_calls(node, where):
    """(enclosing function, callee) of every generator construction below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            callee = getattr(child.func, "attr", getattr(child.func, "id", None))
            if callee in ("SeedSequence", "Generator", "default_rng", "RandomState"):
                yield where, callee
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        yield from seeding_calls(child, inner)


def test_case_rng_is_the_only_seeding():
    found = sorted(
        (path.name, where, callee)
        for path in Path(zecheck.__file__).parent.glob("*.py")
        for where, callee in seeding_calls(ast.parse(path.read_text()), "<module>")
    )
    assert found == [("linalg.py", "case_rng", "Generator"), ("linalg.py", "case_rng", "SeedSequence")]


def test_json_roundtrip():
    report = execute(RunConfig(d=2, suites=("privacy",), trials=5, seed=2))
    back = VerificationReport.from_dict(json.loads(emit_report(report, "json")))
    assert back == report


def test_schema1_report_still_loads():
    report = execute(RunConfig(d=2, suites=("privacy",), trials=5, seed=2))
    data = json.loads(emit_report(report, "json"))
    data["schema_version"] = 1
    data["config"].update(tol=1e-9, cache_dir="designs")
    assert VerificationReport.from_dict(data) == report


def test_text_format_lines():
    report = execute(RunConfig(d=2, suites=("privacy",), trials=5, seed=2))
    text = emit_report(report, "text")
    assert "privacy.secrecy" in text
    assert "overall: PASS" in text
    for claim in report.claims:
        assert claim.statement in text


def test_main_writes_output(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--d", "2", "--suite", "privacy", "--trials", "5",
                 "--output", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["overall_pass"] is True


def test_main_usage_error_code():
    assert main(["verify", "--d", "9"]) == 2


def test_main_internal_error_on_unwritable_output(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "report.json"
    code = main(["verify", "--d", "2", "--suite", "privacy", "--trials", "5",
                 "--output", str(missing)])
    assert code == 3


def test_failed_write_keeps_the_old_report(tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    out.write_text("old report", encoding="utf-8")
    # a lone surrogate cannot be encoded, so the write raises midway
    monkeypatch.setattr("zecheck.cli.emit_report", lambda report, fmt: '{"a": "\ud800"}')
    code = main(["verify", "--d", "2", "--suite", "privacy", "--trials", "5",
                 "--output", str(out)])
    assert code == 3
    assert out.read_text(encoding="utf-8") == "old report"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_main_replaces_the_old_report(tmp_path):
    out = tmp_path / "report.json"
    out.write_text("old report", encoding="utf-8")
    link = tmp_path / "link.json"
    link.symlink_to(out)
    code = main(["verify", "--d", "2", "--suite", "privacy", "--trials", "5",
                 "--output", str(link)])
    assert code == 0
    assert link.is_symlink()
    assert json.loads(out.read_text())["overall_pass"] is True
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "report.json"]


def test_main_writes_a_device_in_place():
    code = main(["verify", "--d", "2", "--suite", "privacy", "--trials", "5",
                 "--output", os.devnull])
    assert code == 0


def test_failing_claim_exit_code_and_anchor(monkeypatch, capsys):
    # a raising kernel must surface as one failed claim, not a crash
    def broken(family):
        raise RuntimeError("multiplication table unavailable")

    monkeypatch.setattr("zecheck.suites.multiplication_table", broken)
    code = main(["verify", "--d", "2", "--suite", "design", "--trials", "5", "--format", "text"])
    captured = capsys.readouterr()
    assert code == 1
    assert "[FAIL] design.closure" in captured.out
    assert "multiplication table unavailable" in captured.out


def test_subprocess_entrypoint(tmp_path):
    run = subprocess.run(
        [sys.executable, "-m", "zecheck", "verify", "--d", "2", "--suite", "privacy",
         "--trials", "5", "--format", "text"],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0
    assert "overall: PASS" in run.stdout
    usage = subprocess.run(
        [sys.executable, "-m", "zecheck", "verify", "--d", "4"],
        capture_output=True,
        text=True,
    )
    assert usage.returncode == 2
