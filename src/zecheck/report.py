"""Run configuration, per-claim records, and report serialization."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

TOOLKIT_VERSION = "0.1.0"
SCHEMA_VERSION = 2

SUITE_NAMES = ("design", "channel", "zero-error", "theorem2", "privacy", "ppt", "ncgraph")
SUPPORTED_D = (2, 3)
SUPPORTED_N = (1, 2)
FORMATS = ("json", "text")
# the most trials a run takes: above it the case ranges of sampling._SAMPLES would meet
MAX_TRIALS = 5000


class _Record:
    """to_dict/from_dict of a report dataclass, one key per field."""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict):
        """Build from a report dict; unknown keys (such as schema 1's tol) are ignored."""
        return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})


@dataclass
class RunConfig(_Record):
    d: int = 2
    n: int = 1
    suites: tuple[str, ...] = SUITE_NAMES
    trials: int = 100
    seed: int = 1
    output: str | None = None
    format: str = "json"

    def __post_init__(self):
        for name in ("d", "n", "trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(value, "__index__"):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))  # a numpy integer becomes int
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
        if self.trials > MAX_TRIALS:
            raise ValueError(f"trials must be at most {MAX_TRIALS}, got {self.trials}: the "
                             "2*trials random equivalence pairs would read zero-error cases "
                             f"{2 * MAX_TRIALS} and up, the structured pairs' streams")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}; expected one of {FORMATS}")


@dataclass
class ClaimResult(_Record):
    """One verified claim: id, self-contained statement, and the measurement."""

    suite: str
    claim_id: str
    statement: str
    passed: bool
    value: float | None
    tolerance: float | None
    runtime_ms: float
    detail: str = ""


@dataclass
class VerificationReport(_Record):
    version: str
    config: RunConfig
    claims: list[ClaimResult]
    overall_pass: bool
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {**super().to_dict(), "schema_version": SCHEMA_VERSION}

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationReport":
        return super().from_dict({
            **data,
            "config": RunConfig.from_dict(data["config"]),
            "claims": [ClaimResult.from_dict(c) for c in data["claims"]],
        })


def _fmt_value(v: float | None) -> str:
    return "-" if v is None else f"{v:.6e}"


def emit_report(report: VerificationReport, format: str = "json") -> str:
    """Serialize a report; json is the stable sorted-key schema."""
    if format == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"
    if format != "text":
        raise ValueError(f"unknown format {format!r}")
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
