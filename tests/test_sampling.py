"""The sampling module as the claims see it: the counts a sweep reports are the cases it drew."""

import re

import zecheck.sampling
import zecheck.suites
from zecheck.report import RunConfig
from zecheck.suites import execute

# claim id -> the key of the count its detail reports
COUNTED = {"channel.conservation": "cases", "channel.central_identity": "pairs",
           "zero_error.equivalence": "pairs", "theorem2.no_valid_code_pair": "candidates"}


def reported_counts(report):
    claims = {c.claim_id: c for c in report.claims}
    return {cid: int(re.search(rf"\b{key}=(\d+)", claims[cid].detail)[1])
            for cid, key in COUNTED.items()}


def test_reported_counts_are_the_cases_drawn(monkeypatch):
    config = RunConfig(d=2, n=1, trials=20, seed=7, suites=("channel", "zero-error", "theorem2"))
    # the table's counts at 20 trials: 20 // 10, 20, 2 * 20 + 50 and 5 * 20
    assert reported_counts(execute(config)) == {
        "channel.conservation": 2, "channel.central_identity": 20,
        "zero_error.equivalence": 90, "theorem2.no_valid_code_pair": 100}
    real = zecheck.suites.draws

    def one_case_short(claim_id, seed, stop, start=0, part=0):
        """The claim's draws, but its last range stops one case early."""
        last = part == len(zecheck.sampling._SAMPLES[claim_id]) - 1
        return real(claim_id, seed, stop - last, start, part)

    monkeypatch.setattr(zecheck.suites, "draws", one_case_short)
    assert reported_counts(execute(config)) == {
        "channel.conservation": 1, "channel.central_identity": 19,
        "zero_error.equivalence": 89, "theorem2.no_valid_code_pair": 99}
