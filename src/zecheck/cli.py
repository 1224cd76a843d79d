"""Command-line interface: flag parsing and report emission.

    zecheck verify [--d D] [--n N] [--suite NAME ...] [--trials T]
                   [--seed S] [--output PATH] [--format json|text]

Exit codes: 0 all claims pass, 1 at least one claim fails, 2 usage
error, 3 internal error.  A run is configured by its flags alone: a
setting without its flag takes RunConfig's default, and any ZEC_-prefixed
environment variable is a usage error that names it, so a script that
still sets one fails instead of quietly running the defaults.  The
removed --tol and --cache-dir flags are usage errors too.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

from .report import (
    FORMATS,
    MAX_TRIALS,
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zecheck",
        description="Certify the flagged-phase channel family claims numerically.",
    )
    parser.add_argument("--version", action="version", version=f"zecheck {TOOLKIT_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run verification suites and emit a report")
    default = {f.name: f"(default: {f.default})" for f in fields(RunConfig)}
    default.update(suites="(default: all)", output="(default: stdout)")
    verify.add_argument("--d", type=int,
                        help=f"qudit dimension, one of {SUPPORTED_D} {default['d']}")
    verify.add_argument("--n", type=int, help=f"channel uses, one of {SUPPORTED_N} {default['n']}")
    verify.add_argument(
        "--suite",
        action="append",
        choices=SUITE_NAMES,
        dest="suites",
        help=f"suite to run, repeatable {default['suites']}",
    )
    verify.add_argument("--trials", type=int,
                        help=f"sample-count base, 1 to {MAX_TRIALS} {default['trials']}")
    verify.add_argument("--seed", type=int, help=f"unsigned 64-bit master seed {default['seed']}")
    verify.add_argument("--output", help=f"report path {default['output']}")
    verify.add_argument("--format", choices=FORMATS, dest="fmt",
                        help=f"report format {default['fmt']}")
    return parser


def parse_config(argv, env=None) -> RunConfig:
    """Each setting from its flag, else RunConfig's default; a ZEC_ variable is a usage error."""
    env = os.environ if env is None else env
    parser = _build_parser()
    ns = parser.parse_args(list(argv))
    stray = sorted(key for key in env if key.startswith(ENV_PREFIX))
    if stray:
        parser.error(f"{', '.join(stray)} set: zecheck is configured by its flags alone, "
                     "not the environment (see 'zecheck verify --help')")
    given = {f.name: getattr(ns, f.name) for f in fields(RunConfig)}
    try:
        return RunConfig(**{name: value for name, value in given.items() if value is not None})
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
