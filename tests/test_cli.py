import json
import subprocess
import sys

import pytest

from zecheck.cli import main, parse_config
from zecheck.report import RunConfig, VerificationReport, emit_report
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


def test_env_seed_fallback():
    cfg = parse_config(["verify"], env={"ZEC_SEED": "42"})
    assert cfg.seed == 42


def test_flag_overrides_env():
    cfg = parse_config(["verify", "--seed", "7"], env={"ZEC_SEED": "42"})
    assert cfg.seed == 7


def test_env_suite_list():
    cfg = parse_config(["verify"], env={"ZEC_SUITE": "privacy,ppt"})
    assert cfg.suites == ("privacy", "ppt")


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


def test_suite_subset_matches_full_run():
    full = execute(RunConfig(d=2, n=1, trials=20, seed=11))
    sub = execute(RunConfig(d=2, n=1, trials=20, seed=11, suites=("theorem2",)))
    full_claims = [c for c in full.claims if c.suite == "theorem2"]
    assert len(full_claims) == len(sub.claims)
    for a, b in zip(full_claims, sub.claims):
        assert (a.claim_id, a.value, a.passed, a.detail) == (b.claim_id, b.value, b.passed, b.detail)


def test_case_rng_streams_are_stable():
    a = case_rng(5, "channel", 3).standard_normal(4)
    b = case_rng(5, "channel", 3).standard_normal(4)
    c = case_rng(5, "channel", 4).standard_normal(4)
    assert (a == b).all()
    assert (a != c).any()


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
