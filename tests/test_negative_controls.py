"""Negative controls: claims fail on a 1-design, on NaN values, without a sub-design, on bad twirls.

The d=2 Pauli group {X^a Z^b} is a unitary 1-design with frame potential
4, not 2.  With the verification flag forced on, every check that relies
on the 2-design property must miss by a clear margin.  A helper that
returns NaN must fail every claim that reduces its values, and every
claim that counts decisions must count a NaN as a failed one.  A run
whose sub-design search finds nothing must fail both alternative-design
claims by name, not drop them.  A phase gate with one entry negated must
fail `channel.phase_gate_form`, and a witness with |00><00| added
`ppt.witness`: neither builder checks these itself.  A PPT search result
whose twirl coefficients are PSD but not PPT must fail
`ppt.twirl_preserves`, and one with a zero all-complement coefficient
`ppt.constraint_unreachable`; so must a transposed-eigenvalue map with a
wrong entry in T, which the dense spectrum contradicts.  A code-pair
function that returns the pair forms in both rows, or a disjointness
function that reads the larger row norm, must fail its claim and its
acceptance-gate helper alike, since both call it.
"""

import json
from functools import reduce
from itertools import count

import numpy as np
import pytest

import zecheck.ppt
import zecheck.privacy
import zecheck.suites
import zecheck.zero_error
from zecheck.channel import build_channel, overlap_kernel, random_block_state
from zecheck.designs import (
    UnitaryFamily,
    _canonical_phases,
    clock,
    enumerate_clifford,
    frame_potential,
    shift,
    verify_two_design,
)
from zecheck.ppt import PPTSearchResult, PPTWitness, build_ppt_witness, ppt_search
from zecheck.privacy import run_protocol, verify_secrecy
from zecheck.report import RunConfig, emit_report
from zecheck.suites import execute
from zecheck.zero_error import (
    BLOCK_ZERO_TOL,
    averaged_output_overlap,
    code_pair_conditions,
    design_average_overlap_operator,
    disjoint_support,
    overlap_forms,
    overlap_operator,
)

from conftest import case_rng


def pauli_family() -> UnitaryFamily:
    x, z = shift(2), clock(2)
    members = _canonical_phases(np.stack([
        np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
        for a in range(2)
        for b in range(2)
    ]))
    return UnitaryFamily(d=2, members=members, weights=np.full(4, 0.25))


def bypassed() -> UnitaryFamily:
    fam = pauli_family()
    fam.verified = True
    return fam


def test_pauli_group_is_not_a_two_design():
    fam = pauli_family()
    assert frame_potential(fam) == pytest.approx(4.0)
    assert not verify_two_design(fam)
    assert not fam.verified
    with pytest.raises(ValueError):
        build_channel(2, fam)


def test_pauli_group_breaks_closed_form_operator():
    gap = float(np.abs(design_average_overlap_operator(bypassed()) - overlap_operator(2)).max())
    assert gap > 0.1


@pytest.mark.parametrize("n", [1, 2])
def test_pauli_group_breaks_central_identity(n):
    fam = bypassed()
    ch = build_channel(2, fam)
    worst = 0.0
    for case in range(10):
        rng = case_rng(1, "channel", case)
        p1 = random_block_state(2, n, rng)
        p2 = random_block_state(2, n, rng)
        lhs = (len(fam) ** n) * overlap_kernel(ch)(p1, p2)
        worst = max(worst, abs(lhs - averaged_output_overlap(p1, p2)))
    assert worst > 0.05


def test_pauli_group_fails_the_twirl_claims(monkeypatch):
    monkeypatch.setattr(zecheck.suites, "enumerate_clifford", lambda d: bypassed())
    report = execute(RunConfig(d=2, n=1, trials=5, suites=("design", "ncgraph")))
    claims = {c.claim_id: c for c in report.claims}
    for claim_id in ("design.frame_potential", "design.twirl_clock_form",
                     "design.twirl_projection", "ncgraph.twirl_units"):
        assert not claims[claim_id].passed and claims[claim_id].value > 0.1
    # the four Paulis conjugate |l><k| to only d^2 = 4 operators, some of them alike
    assert not claims["ncgraph.block_dims"].passed and claims["ncgraph.block_dims"].value > 0
    # a group's twirl commutes with its own conjugations, so the Pauli twirl does too
    assert claims["design.twirl_invariance"].passed


def test_an_identity_twirl_fails_twirl_invariance(monkeypatch):
    # m itself commutes with no g (x) conj(g) but the identity: the stacked commutator sees it
    monkeypatch.setattr(zecheck.suites, "conjugate_twirl", lambda family, m: m)
    claim = execute(RunConfig(d=3, n=1, trials=5, suites=("design",))).claims
    claim = {c.claim_id: c for c in claim}["design.twirl_invariance"]
    assert not claim.passed and claim.value > 0.01


def test_a_negated_phase_gate_entry_fails_phase_gate_form(monkeypatch):
    def negated(d, family):
        channel = build_channel(d, family)
        channel.phase_gate[-1, -1] *= -1  # w^((d-1)^2) -> -w^((d-1)^2)
        return channel

    monkeypatch.setattr(zecheck.suites, "build_channel", negated)
    report = execute(RunConfig(d=3, n=1, trials=5, suites=("channel",)))
    claim = {c.claim_id: c for c in report.claims}["channel.phase_gate_form"]
    assert not claim.passed and claim.value == pytest.approx(2.0, abs=1e-12)


def test_a_witness_overlapping_phi_gamma_fails_the_witness_claim(monkeypatch):
    def overlapping(d):
        # |00><00| has overlap 1/d with Phi^Gamma = SWAP/d, and adds 1 to the trace
        witness = build_ppt_witness(d)
        return PPTWitness(witness.matrix + np.diag(np.eye(d * d)[0]), witness.trace_value)

    monkeypatch.setattr(zecheck.suites, "build_ppt_witness", overlapping)
    report = execute(RunConfig(d=2, n=1, trials=5, suites=("ppt",)))
    claim = {c.claim_id: c for c in report.claims}["ppt.witness"]
    assert not claim.passed and claim.value == pytest.approx(1.0, abs=1e-12)


def test_missing_subdesign_fails_both_alt_claims(monkeypatch):
    monkeypatch.setattr(zecheck.suites, "find_minimal_subdesign", lambda family: None)
    report = execute(RunConfig(d=2, n=1, trials=5))
    alt = {c.claim_id: c for c in report.claims if c.claim_id in
           ("channel.alt_design_identity", "ncgraph.design_independence")}
    assert len(alt) == 2
    for claim in alt.values():
        assert not claim.passed
        assert "no proper sub-design" in claim.detail
    assert report.warnings == []


# claims whose value reduces the helpers' values: NaN, written as null
NAN_VALUED_CLAIMS = (
    "channel.conservation",
    "channel.central_identity",
    "channel.alt_design_identity",
    "zero_error.form_properties",
    "zero_error.psd",
    "zero_error.dominance",
    "design.twirl_clock_form",
    "design.twirl_projection",
    "design.twirl_invariance",
    "ncgraph.twirl_units",
    "ppt.witness",
    "ppt.twirl_preserves",
)
# claims that count failed decisions: every NaN overlap form is one (n=1, trials=10)
NAN_COUNTED_CLAIMS = {
    "theorem2.no_valid_code_pair": 5 * 10,
    "zero_error.equivalence": 2 * 10 + 50,
}
NAN_CLAIMS = NAN_VALUED_CLAIMS + tuple(NAN_COUNTED_CLAIMS)


def nan_report(monkeypatch):
    """A run whose overlap, residual, eigenvalue and twirl helpers return NaN."""
    nan = float("nan")
    patches = {
        "overlap_kernel": lambda channel: lambda x, y: nan,
        "conservation_residual": lambda *args: nan,
        "averaged_output_overlap": lambda *args: nan,
        "overlap_forms": lambda blocks1, blocks2, d, n: np.full(len(blocks1), nan),
        "min_eigenvalue": lambda m: nan,
        "conjugate_twirl": lambda family, m: np.full(np.shape(m), nan),
    }
    for name, fake in patches.items():
        monkeypatch.setattr(zecheck.suites, name, fake)
    # theorem2 reads its forms through zero_error.code_pair_forms
    monkeypatch.setattr(zecheck.zero_error, "overlap_forms", patches["overlap_forms"])
    config = RunConfig(d=2, n=1, trials=10,
                       suites=("design", "channel", "zero-error", "theorem2", "ppt", "ncgraph"))
    return execute(config)


def test_nan_from_a_helper_fails_its_claims(monkeypatch):
    claims = {c.claim_id: c for c in nan_report(monkeypatch).claims}
    passing = [claim_id for claim_id in NAN_CLAIMS if claims[claim_id].passed]
    assert passing == []


def test_nan_report_is_strict_json(monkeypatch):
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    data = json.loads(emit_report(nan_report(monkeypatch)), parse_constant=reject)
    claims = {c["claim_id"]: c for c in data["claims"]}
    for claim_id in NAN_VALUED_CLAIMS:
        assert claims[claim_id]["value"] is None, claim_id
        assert claims[claim_id]["detail"].endswith("non-finite value nan"), claim_id
    for claim_id, cases in NAN_COUNTED_CLAIMS.items():
        assert claims[claim_id]["value"] == cases, claim_id


def test_verify_secrecy_keeps_a_nan_distance(monkeypatch):
    ch = build_channel(2, enumerate_clifford(2))
    transcripts = [run_protocol(ch, msg) for msg in range(2)]
    calls = count()
    monkeypatch.setattr(zecheck.privacy, "trace_distance",
                        lambda a, b: float("nan") if next(calls) == 3 else 0.0)
    assert np.isnan(verify_secrecy(transcripts))


def test_ppt_search_keeps_a_nan_score(monkeypatch):
    twirl = zecheck.ppt._twirl_coefficients

    def poisoned(ms, basis):
        p = twirl(ms, basis)
        p[1, -1] = np.nan  # the second accepted candidate's all-complement coefficient
        return p

    monkeypatch.setattr(zecheck.ppt, "_twirl_coefficients", poisoned)
    result = ppt_search(2, 1, 4, 7)  # one window of 4 candidates
    assert result.accepted == 4 and np.isnan(result.min_value)


class NanDraws:
    """A generator stand-in whose every normal draw is NaN."""

    def standard_normal(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        out.fill(np.nan)
        return out


def test_nan_search_candidate_fails_search_floor(monkeypatch):
    # candidate 5 sits inside the first window of 16 at (2,2)
    real = zecheck.ppt.draws

    def poisoned(*args, **kwargs):
        for t, rng in real(*args, **kwargs):
            yield t, NanDraws() if t == 5 else rng

    monkeypatch.setattr(zecheck.ppt, "draws", poisoned)
    with np.errstate(invalid="ignore"):
        report = execute(RunConfig(d=2, n=2, suites=("ppt",), trials=5))
    claims = {c.claim_id: c for c in report.claims}
    # the three claims that read the search fail with its error
    for claim_id in ("ppt.search_floor", "ppt.twirl_preserves", "ppt.constraint_unreachable"):
        claim = claims.pop(claim_id)
        assert not claim.passed, claim_id
        assert "ValueError: candidate 5 is not finite" in claim.detail, claim_id
    assert len(claims) == 5 and all(c.passed for c in claims.values())


def injected_search_claims(monkeypatch, coefficients):
    """The ppt claims of a (2,1) run whose search accepted candidates with these coefficients."""
    coefficients = np.array(coefficients, dtype=float)
    result = PPTSearchResult(len(coefficients), 0, 0.5, coefficients)
    monkeypatch.setattr(zecheck.suites, "ppt_search", lambda d, n, trials, seed, started: result)
    report = execute(RunConfig(d=2, n=1, suites=("ppt",), trials=5))
    return {c.claim_id: c for c in report.claims}


def test_twirl_preserves_fails_on_a_psd_but_not_ppt_twirl(monkeypatch):
    # p = (1, 0) is Phi alone: PSD with trace one, but T p = (1/2, -1/2) at d=2
    uniform = [0.25, 0.25]  # the maximally mixed state, PPT
    claims = injected_search_claims(monkeypatch, [uniform, [1.0, 0.0], uniform])
    claim = claims["ppt.twirl_preserves"]
    assert not claim.passed and claim.detail == "accepted=3"
    assert claim.value == pytest.approx(0.5, abs=1e-12)


def test_constraint_unreachable_fails_on_a_zero_complement_coefficient(monkeypatch):
    claims = injected_search_claims(monkeypatch, [[0.25, 0.25], [0.1, 0.3], [1.0, 0.0]])
    claim = claims["ppt.constraint_unreachable"]
    assert not claim.passed and claim.detail == "accepted=3"
    assert claim.value == 0.0
    assert claims["ppt.search_floor"].passed  # the injected minimum stays positive


@pytest.mark.parametrize("n", [1, 2])
def test_a_wrong_transpose_matrix_fails_twirl_preserves(n, monkeypatch):
    def mutant(coefficients, d, n):
        t = np.array([[1 / d, 1 + 1 / d], [-1 / d, 1 + 1 / d]])  # 1 - 1/d -> 1 + 1/d
        return coefficients @ reduce(np.kron, [t] * n).T

    # still nonnegative on a PSD twirl, so only the dense spectrum can tell
    monkeypatch.setattr(zecheck.suites, "transposed_eigenvalues", mutant)
    report = execute(RunConfig(d=2, n=n, suites=("ppt",), trials=5))
    claim = {c.claim_id: c for c in report.claims}["ppt.twirl_preserves"]
    assert not claim.passed and claim.value > 0.01


def test_the_claims_call_the_conditions_the_gate_reads():
    for name in ("code_pair_forms", "disjoint_blocks"):
        assert getattr(zecheck.suites, name) is getattr(zecheck.zero_error, name), name


def replace_condition(monkeypatch, name, fake):
    """Put fake in place of a zero_error condition, for the claims and the gate's helpers."""
    for module in (zecheck.zero_error, zecheck.suites):
        monkeypatch.setattr(module, name, fake)


def disjoint_pair():
    rng = np.random.default_rng(23)
    return (random_block_state(2, 1, rng, support=[(0,)]),
            random_block_state(2, 1, rng, support=[(1,)]))


def test_pair_forms_in_both_rows_fail_the_code_pair_claim(monkeypatch):
    def pair_forms_twice(blocks1, blocks2, d, n):
        return np.stack([overlap_forms(blocks1, blocks2, d, n)] * 2)

    replace_condition(monkeypatch, "code_pair_forms", pair_forms_twice)
    claim = execute(RunConfig(d=2, n=1, trials=5, suites=("theorem2",))).claims[0]
    assert claim.claim_id == "theorem2.no_valid_code_pair"
    assert not claim.passed and claim.value > 0
    assert code_pair_conditions(*disjoint_pair()) == (True, True)  # a valid code


def test_a_larger_norm_disjointness_fails_equivalence(monkeypatch):
    def larger(blocks1, blocks2):
        norms = np.maximum(np.linalg.norm(blocks1, axis=-1), np.linalg.norm(blocks2, axis=-1))
        return np.all(norms <= BLOCK_ZERO_TOL, axis=-1)

    replace_condition(monkeypatch, "disjoint_blocks", larger)
    report = execute(RunConfig(d=2, n=1, trials=5, suites=("zero-error",)))
    claim = {c.claim_id: c for c in report.claims}["zero_error.equivalence"]
    assert not claim.passed and claim.value > 0
    assert not disjoint_support(*disjoint_pair())
