"""Run configuration, per-claim records, and report serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

TOOLKIT_VERSION = "0.1.0"
SCHEMA_VERSION = 2

SUITE_NAMES = ("design", "channel", "zero-error", "theorem2", "privacy", "ppt", "ncgraph")
SUPPORTED_D = (2, 3)
SUPPORTED_N = (1, 2)
FORMATS = ("json", "text")


@dataclass
class RunConfig:
    d: int = 2
    n: int = 1
    suites: tuple[str, ...] = SUITE_NAMES
    trials: int = 100
    seed: int = 1
    output: str | None = None
    fmt: str = "json"

    def __post_init__(self):
        if self.d not in SUPPORTED_D:
            raise ValueError(f"unsupported d={self.d}; expected one of {SUPPORTED_D}")
        if self.n not in SUPPORTED_N:
            raise ValueError(f"unsupported n={self.n}; expected one of {SUPPORTED_N}")
        unknown = [s for s in self.suites if s not in SUITE_NAMES]
        if unknown:
            raise ValueError(f"unknown suites {unknown}; expected subset of {SUITE_NAMES}")
        # canonical order, duplicates dropped
        requested = set(self.suites)
        self.suites = tuple(s for s in SUITE_NAMES if s in requested)
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.fmt not in FORMATS:
            raise ValueError(f"unknown format {self.fmt!r}; expected one of {FORMATS}")

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "suites": list(self.suites),
            "trials": self.trials,
            "seed": self.seed,
            "output": self.output,
            "format": self.fmt,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        return cls(
            d=data["d"],
            n=data["n"],
            suites=tuple(data["suites"]),
            trials=data["trials"],
            seed=data["seed"],
            output=data.get("output"),
            fmt=data.get("format", "json"),
        )


@dataclass
class ClaimResult:
    """One verified claim: id, self-contained statement, and the measurement."""

    suite: str
    claim_id: str
    statement: str
    passed: bool
    value: float | None
    tolerance: float | None
    runtime_ms: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "claim_id": self.claim_id,
            "statement": self.statement,
            "passed": self.passed,
            "value": self.value,
            "tolerance": self.tolerance,
            "runtime_ms": self.runtime_ms,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClaimResult":
        return cls(
            suite=data["suite"],
            claim_id=data["claim_id"],
            statement=data["statement"],
            passed=data["passed"],
            value=data["value"],
            tolerance=data["tolerance"],
            runtime_ms=data["runtime_ms"],
            detail=data.get("detail", ""),
        )


@dataclass
class VerificationReport:
    version: str
    config: RunConfig
    claims: list[ClaimResult]
    overall_pass: bool
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "schema_version": SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "claims": [c.to_dict() for c in self.claims],
            "overall_pass": self.overall_pass,
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationReport":
        return cls(
            version=data["version"],
            config=RunConfig.from_dict(data["config"]),
            claims=[ClaimResult.from_dict(c) for c in data["claims"]],
            overall_pass=data["overall_pass"],
            warnings=list(data.get("warnings", [])),
        )


def _fmt_value(v: float | None) -> str:
    return "-" if v is None else f"{v:.6e}"


def emit_report(report: VerificationReport, fmt: str = "json") -> str:
    """Serialize a report; json is the stable sorted-key schema."""
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    cfg = report.config
    lines = [
        f"zecheck {report.version}  d={cfg.d} n={cfg.n} seed={cfg.seed} "
        f"trials={cfg.trials} suites={','.join(cfg.suites) or '(none)'}"
    ]
    for c in report.claims:
        mark = "PASS" if c.passed else "FAIL"
        line = (
            f"[{mark}] {c.claim_id:<36} value={_fmt_value(c.value):<13} "
            f"tol={_fmt_value(c.tolerance):<13} {c.statement}"
        )
        if not c.passed and c.detail:
            line += f"  ({c.detail})"
        lines.append(line)
    for w in report.warnings:
        lines.append(f"[NOTE] {w}")
    failed = sum(1 for c in report.claims if not c.passed)
    verdict = "PASS" if report.overall_pass else "FAIL"
    lines.append(f"overall: {verdict} ({len(report.claims)} claims, {failed} failed)")
    return "\n".join(lines) + "\n"
