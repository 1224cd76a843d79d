"""Correctness gate for one `zecheck verify` JSON report.

A report passes when the run exited 0, `overall_pass` is true, every
expected claim id for the configuration appears exactly once, and every
sample count the benchmark reports can be read.  The values digest
hashes the sorted (claim_id, value) pairs, so two reports with the same
configuration and seed must share it bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import re

BASE_CLAIMS = (
    "design.members",
    "design.closure",
    "design.frame_potential",
    "design.twirl_clock_form",
    "design.twirl_projection",
    "design.twirl_invariance",
    "channel.phase_gate_form",
    "channel.basis_messages",
    "channel.conservation",
    "channel.central_identity",
    "zero_error.closed_form",
    "zero_error.psd",
    "zero_error.support_projector",
    "zero_error.null_dimension",
    "zero_error.null_vectors",
    "zero_error.dominance",
    "zero_error.equivalence",
    "zero_error.form_properties",
    "theorem2.no_valid_code_pair",
    "privacy.transpose_trick",
    "privacy.correctness",
    "privacy.decoding",
    "privacy.secrecy",
    "privacy.secrecy_control",
    "ppt.witness",
    "ppt.uniform_score",
    "ppt.search_floor",
    "ppt.twirl_preserves",
    "ppt.twirl_invariance",
    "ppt.constraint_unreachable",
    "ppt.recursion_zero",
    "ppt.recursion_refutes",
    "ncgraph.block_dims",
    "ncgraph.total_dim",
    "ncgraph.membership",
    "ncgraph.conditions",
    "ncgraph.control",
    "ncgraph.adjoint_closed",
    "ncgraph.twirl_units",
)
# d=2 is the only dimension with a proper exact 2-sub-design
D2_CLAIMS = ("channel.alt_design_identity", "ncgraph.design_independence")

# metric name -> (claim id, count key in claim metrics or `key=` in detail)
SAMPLE_COUNTS = {
    "samples.central_identity": ("channel.central_identity", "pairs"),
    "samples.equivalence": ("zero_error.equivalence", "pairs"),
    "samples.code_sweep": ("theorem2.no_valid_code_pair", "candidates"),
    "samples.ppt_accepted": ("ppt.search_floor", "accepted"),
}


class GateError(ValueError):
    """The report fails the correctness gate."""


def expected_claims(d: int) -> tuple[str, ...]:
    return BASE_CLAIMS + (D2_CLAIMS if d == 2 else ())


def sample_count(claim: dict, key: str) -> int:
    """Read one sample count, preferring a structured `metrics` dict over `detail`.

    A count that is absent or not a non-negative integer raises GateError;
    it is never read as 0.
    """
    metrics = claim.get("metrics")
    if isinstance(metrics, dict) and key in metrics:
        value = metrics[key]
    else:
        found = re.findall(rf"(?:^|[\s,;(]){re.escape(key)}=(\d+)(?![\w.])", claim.get("detail") or "")
        if len(found) != 1:
            raise GateError(f"{claim.get('claim_id')}: no unique count {key!r} in metrics or detail")
        value = int(found[0])
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise GateError(f"{claim.get('claim_id')}: count {key!r} is {value!r}, not a count")
    return value


def values_digest(claims: list[dict]) -> str:
    """sha256 over the (claim_id, value) pairs sorted by id; floats keep every bit."""
    pairs = sorted(((c["claim_id"], c["value"]) for c in claims), key=lambda p: p[0])
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()


def check_report(report: dict, d: int) -> tuple[dict[str, int], str]:
    """Gate one parsed report; return its sample counts and values digest."""
    if report.get("overall_pass") is not True:
        failing = [c.get("claim_id") for c in report.get("claims", []) if not c.get("passed")]
        raise GateError(f"overall_pass is not true; failing claims {failing}")
    claims = report["claims"]
    by_id = {}
    for claim in claims:
        if claim["claim_id"] in by_id:
            raise GateError(f"claim id {claim['claim_id']} appears twice")
        by_id[claim["claim_id"]] = claim
    # later claims (for example timed set-up claims) are allowed; none may go missing
    missing = sorted(set(expected_claims(d)) - set(by_id))
    if missing:
        raise GateError(f"expected claims missing: {missing}")
    counts = {
        name: sample_count(by_id[cid], key) for name, (cid, key) in SAMPLE_COUNTS.items()
    }
    return counts, values_digest(claims)
