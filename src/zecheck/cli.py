"""Command-line interface: flag/env parsing and report emission.

    zecheck verify [--d D] [--n N] [--suite NAME ...] [--trials T]
                   [--seed S] [--output PATH] [--format json|text]

Exit codes: 0 all claims pass, 1 at least one claim fails, 2 usage
error, 3 internal error.  Every flag has a ZEC_-prefixed environment
fallback (ZEC_D, ZEC_N, ZEC_SUITE, ZEC_TRIALS, ZEC_SEED, ZEC_OUTPUT,
ZEC_FORMAT); explicit flags win over the environment, which wins over
RunConfig's defaults.  A ZEC_SUITE that names no suite is a usage error,
not a run that checks nothing.  Claim tolerances are fixed per claim, and the Clifford
family is enumerated in-process on every run; the removed --tol and
--cache-dir flags and their ZEC_TOL and ZEC_CACHE_DIR variables are
usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

from .report import (
    FORMATS,
    SUITE_NAMES,
    SUPPORTED_D,
    SUPPORTED_N,
    TOOLKIT_VERSION,
    RunConfig,
    emit_report,
)
from .suites import execute

EXIT_PASS = 0
EXIT_CLAIM_FAILURE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

ENV_PREFIX = "ZEC_"
# removed settings, so that a script still setting one gets a usage error
REMOVED_ENV = {
    "TOL": "each claim carries its own fixed tolerance",
    "CACHE_DIR": "the design is enumerated in-process on every run",
}


def _suite_names(raw):
    """ZEC_SUITE's comma-separated suite names; naming none is an error, not a vacuous run."""
    names = tuple(s for s in (part.strip() for part in raw.split(",")) if s)
    if not names or not set(names) <= set(SUITE_NAMES):
        raise ValueError(f"expected comma-separated names from {SUITE_NAMES}")
    return names


# (RunConfig field, ZEC_ variable, cast of the variable's text)
_SETTINGS = (
    ("d", "D", int),
    ("n", "N", int),
    ("suites", "SUITE", _suite_names),
    ("trials", "TRIALS", int),
    ("seed", "SEED", int),
    ("output", "OUTPUT", str),
    ("fmt", "FORMAT", str),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zecheck",
        description="Certify the flagged-phase channel family claims numerically.",
    )
    parser.add_argument("--version", action="version", version=f"zecheck {TOOLKIT_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run verification suites and emit a report",
                            epilog="ZEC_SUITE takes comma-separated suite names.")
    default = {f.name: f.default for f in fields(RunConfig)}
    default.update(suites="all", output="stdout")
    fallback = {name: f"(default: ${ENV_PREFIX}{key}, else {default[name]})"
                for name, key, _ in _SETTINGS}
    verify.add_argument("--d", type=int,
                        help=f"qudit dimension, one of {SUPPORTED_D} {fallback['d']}")
    verify.add_argument("--n", type=int, help=f"channel uses, one of {SUPPORTED_N} {fallback['n']}")
    verify.add_argument(
        "--suite",
        action="append",
        choices=SUITE_NAMES,
        dest="suites",
        help=f"suite to run, repeatable {fallback['suites']}",
    )
    verify.add_argument("--trials", type=int,
                        help=f"sample-count base, 1 to 5000 {fallback['trials']}")
    verify.add_argument("--seed", type=int, help=f"unsigned 64-bit master seed {fallback['seed']}")
    verify.add_argument("--output", help=f"report path {fallback['output']}")
    verify.add_argument("--format", choices=FORMATS, dest="fmt",
                        help=f"report format {fallback['fmt']}")
    return parser


def parse_config(argv, env=None) -> RunConfig:
    """Resolve each setting as flag, then ZEC_ variable, then RunConfig's default."""
    env = os.environ if env is None else env
    parser = _build_parser()
    ns = parser.parse_args(list(argv))
    for key, why in REMOVED_ENV.items():
        if ENV_PREFIX + key in env:
            parser.error(f"{ENV_PREFIX + key} was removed: {why}")
    given = {}
    for name, key, cast in _SETTINGS:
        value, raw = getattr(ns, name), env.get(ENV_PREFIX + key)
        if value is None and raw is not None:
            try:
                value = cast(raw)
            except ValueError as exc:
                parser.error(f"invalid value {raw!r} for {ENV_PREFIX + key}: {exc}")
        if value is not None:
            given[name] = value
    try:
        return RunConfig(**given)
    except ValueError as exc:
        parser.error(str(exc))
        raise AssertionError("unreachable")  # parser.error raises SystemExit


def _write_report(path, payload: str) -> None:
    """Replace the file at path with payload, leaving it intact if the write fails.

    The payload goes to a temporary file next to the target, which then
    replaces it in one rename.  A target that exists but is not a regular
    file (a device such as /dev/stdout, or a FIFO) is written in place.
    """
    target = Path(path)
    if target.exists() and not target.is_file():
        target.write_text(payload, encoding="utf-8")
        return
    target = Path(os.path.realpath(target))  # a symlink keeps pointing at the report
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(payload, encoding="utf-8")
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_config(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        report = execute(config)
        payload = emit_report(report, config.fmt)
        if config.output:
            _write_report(config.output, payload)
        else:
            sys.stdout.write(payload)
    except Exception as exc:
        print(f"zecheck: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_PASS if report.overall_pass else EXIT_CLAIM_FAILURE


if __name__ == "__main__":
    sys.exit(main())
