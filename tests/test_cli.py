import argparse
import ast
import dataclasses
import functools
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import zecheck
import zecheck.sampling
import zecheck.suites
from zecheck.cli import _build_parser, main, parse_config
from zecheck.report import (
    MAX_TRIALS,
    SCHEMA_VERSION,
    SUITE_NAMES,
    SUPPORTED_D,
    SUPPORTED_N,
    RunConfig,
    VerificationReport,
    emit_report,
)
from zecheck.suites import execute

from conftest import case_rng


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


@pytest.fixture(autouse=True)
def no_zec_variable(monkeypatch):
    """Keep a ZEC_ variable of the calling shell, a usage error, out of the in-process runs."""
    for key in [key for key in os.environ if key.startswith("ZEC_")]:
        monkeypatch.delenv(key)


def spawn(*args, **env):
    """`python -m zecheck *args` in this environment without its ZEC_ variables, plus env."""
    clean = {k: v for k, v in os.environ.items() if not k.startswith("ZEC_")}
    return subprocess.run([sys.executable, "-m", "zecheck", *args], capture_output=True,
                          text=True, env={**clean, **env})


# per setting, flags that set it and the value they set, not RunConfig's default
FLAG_SAMPLES = {"d": (["--d", "3"], 3), "n": (["--n", "2"], 2),
                "suites": (["--suite", "ppt", "--suite", "privacy"], ("privacy", "ppt")),
                "trials": (["--trials", "7"], 7), "seed": (["--seed", "9"], 9),
                "output": (["--output", "r.json"], "r.json"),
                "format": (["--format", "text"], "text")}


def test_every_verify_option_has_help():
    subparsers = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    verify = subparsers.choices["verify"]
    missing = [
        a.option_strings for a in verify._actions if a.option_strings and not a.help
    ]
    assert missing == []
    # every setting states RunConfig's default, and its flag sets it, so help and behavior
    # cannot drift
    flags = {a.dest: a.help for a in verify._actions if a.option_strings and a.dest != "help"}
    assert sorted(flags) == sorted(FLAG_SAMPLES)
    stated = {"suites": "all", "output": "stdout"}
    for f in dataclasses.fields(RunConfig):
        default = str(stated.get(f.name, f.default))
        assert flags[f.name].endswith(f"(default: {default})"), flags[f.name]
        argv, value = FLAG_SAMPLES[f.name]
        assert getattr(parse_config(["verify", *argv], env={}), f.name) == value
        assert getattr(RunConfig(), f.name) != value
    assert str(SUPPORTED_D) in flags["d"]
    assert str(SUPPORTED_N) in flags["n"]


def test_settings_default_to_run_config():
    cfg = parse_config(["verify"], env={})
    assert cfg == RunConfig()


@pytest.mark.parametrize("argv", [["--tol", "1e-6"], ["--cache-dir", "x"]])
def test_removed_flags_are_usage_errors(argv):
    with pytest.raises(SystemExit) as err:
        parse_config(["verify", *argv], env={})
    assert err.value.code == 2
    assert main(["verify", *argv]) == 2


# a run reads no environment variable: every ZEC_ one, once a fallback, removed or never
# read, is a usage error instead of a run of the defaults
@pytest.mark.parametrize("key", ["ZEC_D", "ZEC_N", "ZEC_SUITE", "ZEC_TRIALS", "ZEC_SEED",
                                 "ZEC_OUTPUT", "ZEC_FORMAT", "ZEC_TOL", "ZEC_CACHE_DIR", "ZEC_X"])
def test_removed_env_is_usage_error(key, capsys):
    with pytest.raises(SystemExit) as err:
        parse_config(["verify", "--suite", "privacy"], env={key: "3", "ZEC_ALSO": ""})
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert key in stderr and "ZEC_ALSO" in stderr and "flags" in stderr
    run = spawn("verify", "--d", "2", "--suite", "privacy", "--trials", "5", **{key: "3"})
    assert run.returncode == 2
    assert key in run.stderr and run.stdout == ""


@pytest.mark.parametrize("raw", ["", " , ", ","])
def test_env_suite_naming_no_suite_is_usage_error(raw, monkeypatch, capsys):
    # ZEC_SUITE naming no suite, once a vacuous run of no claim, is a usage error like any
    # other ZEC_SUITE value
    with pytest.raises(SystemExit) as err:
        parse_config(["verify"], env={"ZEC_SUITE": raw})
    assert err.value.code == 2
    assert "ZEC_SUITE" in capsys.readouterr().err
    monkeypatch.setenv("ZEC_SUITE", raw)
    assert main(["verify"]) == 2


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(trials=0)
    with pytest.raises(ValueError):
        RunConfig(seed=2**64)
    with pytest.raises(ValueError):
        RunConfig(suites=("nope",))


# none an integer; but for "2", each passes a `SUPPORTED_D`/`SUPPORTED_N` or range check
@pytest.mark.parametrize("setting,value", [("d", 2.0), ("n", 1.0), ("n", np.bool_(True)),
                                           ("trials", True), ("seed", True), ("seed", 7.5),
                                           ("d", "2")])
def test_settings_must_be_integers(setting, value):
    with pytest.raises(ValueError, match=f"^{setting} must be an integer"):
        RunConfig(**{setting: value})


def test_numpy_integer_settings_are_stored_as_int():
    cfg = RunConfig(d=np.int64(3), n=np.int32(2), trials=np.int64(7), seed=np.uint64(2**63))
    assert [type(v) for v in (cfg.d, cfg.n, cfg.trials, cfg.seed)] == [int] * 4
    assert json.loads(json.dumps(cfg.to_dict()))["seed"] == 2**63


def test_trials_stop_where_the_case_ranges_would_meet(capsys):
    assert RunConfig(trials=5000).trials == 5000
    with pytest.raises(ValueError, match="at most 5000"):
        RunConfig(trials=5001)
    with pytest.raises(SystemExit) as err:
        parse_config(["verify", "--trials", "5001"], env={})
    assert err.value.code == 2
    assert "trials must be at most 5000" in capsys.readouterr().err


def table_cases(trials):
    """(claim, suite, first case, last case + 1) of every range of sampling._SAMPLES."""
    return [(claim, r.suite, r.first, r.first + r.count(trials))
            for claim, ranges in zecheck.sampling._SAMPLES.items() for r in ranges]


def meeting_ranges(trials):
    """The pairs of table ranges of one suite that share a case at this trials."""
    ranges = table_cases(trials)
    return [(a, b) for i, a in enumerate(ranges) for b in ranges[i + 1:]
            if a[1] == b[1] and a[2] < b[3] and b[2] < a[3]]


def test_the_case_ranges_meet_just_above_the_trials_limit():
    assert len(table_cases(1)) == 11
    for trials in (1, 100, MAX_TRIALS):
        assert meeting_ranges(trials) == [], trials
    assert [(a[0], b[0]) for a, b in meeting_ranges(MAX_TRIALS + 1)] == [
        ("zero_error.equivalence", "zero_error.equivalence")]


@pytest.mark.parametrize("trials", [1, 100])
@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1)])
def test_no_stream_is_read_twice(d, n, trials, monkeypatch, cpus):
    cpus(1)  # the search's windows run in this process, where their reads are recorded
    # a read before the first claim, such as one while the search starts, is charged to None
    claim = [None]
    readers = defaultdict(list)  # (suite, case) -> the claim of each read of its stream
    case_key, run = zecheck.sampling._case_key, zecheck.suites._run

    def recording_key(seed, suite, case):
        readers[suite, case].append(claim[0])
        return case_key(seed, suite, case)

    def recording_run(spec, ctx):
        claim[0] = spec.claim_id
        return run(spec, ctx)

    monkeypatch.setattr(zecheck.sampling, "_case_key", recording_key)
    monkeypatch.setattr(zecheck.suites, "_run", recording_run)
    assert execute(RunConfig(d=d, n=n, trials=trials, seed=7)).overall_pass
    assert set().union(*readers.values()) == set(zecheck.sampling._SAMPLES)
    assert {stream: claims for stream, claims in readers.items() if len(claims) != 1} == {}
    # each claim reads exactly the cases of its table ranges, each once
    expected = {(suite, case): [claim] for claim, suite, first, stop in table_cases(trials)
                for case in range(first, stop)}
    assert dict(readers) == expected


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
    # the PPT search is spread over the CPUs while the channel suite's loops run in this process
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
    drawn = [rng.standard_normal(4)
             for rng in zecheck.sampling.case_rngs(5, "channel", [3, 4, 3])]
    assert (drawn[0] == a).all() and (drawn[1] == c).all() and (drawn[2] == a).all()


def seeding_calls(node, where):
    """(enclosing function, callee) of every generator construction below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            callee = getattr(child.func, "attr", getattr(child.func, "id", None))
            if callee in ("SeedSequence", "Philox", "Generator", "default_rng", "RandomState"):
                yield where, callee
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        yield from seeding_calls(child, inner)


def test_case_rng_is_the_only_seeding():
    found = sorted(
        (path.name, where, callee)
        for path in Path(zecheck.__file__).parent.glob("*.py")
        for where, callee in seeding_calls(ast.parse(path.read_text()), "<module>")
    )
    # the one generator of each process, which case_rngs re-keys to each case's stream
    assert found == [("sampling.py", "_process_generator", "Generator"),
                     ("sampling.py", "_process_generator", "Philox")]


def names_in_functions(node, name, where):
    """The enclosing function of every read of `name` below node, as a name or an attribute."""
    for child in ast.iter_child_nodes(node):
        if getattr(child, "id", getattr(child, "attr", None)) == name:
            yield where
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        yield from names_in_functions(child, name, inner)


def test_claims_draw_only_through_the_case_table():
    found = sorted(
        (path.name, where)
        for path in Path(zecheck.__file__).parent.glob("*.py")
        for where in names_in_functions(ast.parse(path.read_text()), "case_rngs", "<module>")
    )
    # sampling.draws serves every claim and the PPT search from _SAMPLES
    assert found == [("sampling.py", "draws")]


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


def test_report_keys_are_field_names():
    # one key per field: no rename table stands between a record and its report
    report = execute(RunConfig(d=2, suites=("privacy",), trials=5, seed=2))
    data = report.to_dict()
    assert data.pop("schema_version") == SCHEMA_VERSION
    walked = set()

    def walk(record, data):
        walked.add(type(record).__name__)
        names = [f.name for f in dataclasses.fields(record)]
        assert sorted(data) == sorted(names), type(record).__name__
        for name in names:
            value = getattr(record, name)
            if dataclasses.is_dataclass(value):
                walk(value, data[name])
            elif isinstance(value, list):
                for item, item_data in zip(value, data[name], strict=True):
                    if dataclasses.is_dataclass(item):
                        walk(item, item_data)

    walk(report, data)
    assert walked == {"VerificationReport", "RunConfig", "ClaimResult"}


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
    monkeypatch.setattr("zecheck.cli.emit_report", lambda report, format: '{"a": "\ud800"}')
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
        raise RuntimeError("closure certificate unavailable")

    monkeypatch.setattr("zecheck.suites.closure_defect", broken)
    code = main(["verify", "--d", "2", "--suite", "design", "--trials", "5", "--format", "text"])
    captured = capsys.readouterr()
    assert code == 1
    assert "[FAIL] design.closure" in captured.out
    assert "closure certificate unavailable" in captured.out


def test_subprocess_entrypoint():
    run = spawn("verify", "--d", "2", "--suite", "privacy", "--trials", "5", "--format", "text")
    assert run.returncode == 0
    assert "overall: PASS" in run.stdout
    assert spawn("verify", "--d", "4").returncode == 2


# OpenBLAS's thread count before and after `import zecheck`, with numpy imported first
THREADS_AROUND_IMPORT = """
import ctypes, numpy
get = ctypes.CDLL(numpy._core._multiarray_umath.__file__).scipy_openblas_get_num_threads64_
before = get()
import zecheck
print(before, get())
"""


@pytest.mark.parametrize("preset", [None, "2"])
def test_openblas_runs_one_thread_whatever_the_import_order(preset):
    import ctypes

    import numpy as np

    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        for name in ("get", "set"):
            getattr(lib, f"scipy_openblas_{name}_num_threads64_")
    except (AttributeError, OSError):
        pytest.skip("numpy's OpenBLAS exports no thread-count getter and setter")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(zecheck.__file__).parents[1])
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    run = subprocess.run([sys.executable, "-c", THREADS_AROUND_IMPORT], capture_output=True,
                         text=True, env=env, check=True)
    before, after = map(int, run.stdout.split())
    # unset, numpy starts its default pool, which zecheck sets to one thread; a value the
    # user set is left as numpy read it
    assert after == (1 if preset is None else before)
