import numpy as np
import pytest

from zecheck.designs import fourier
from zecheck.linalg import basis_state, max_entangled, projector, tensor, trace_distance
from zecheck.privacy import run_protocol, transpose_trick_residual, verify_secrecy
from zecheck.report import RunConfig
from zecheck.suites import execute


def test_transpose_trick_identity():
    assert transpose_trick_residual(np.eye(2)) == pytest.approx(0.0, abs=1e-15)


def test_transpose_trick_fourier_d3():
    assert transpose_trick_residual(fourier(3)) <= 1e-12


def test_transpose_trick_whole_family(family_d2):
    assert max(transpose_trick_residual(g) for g in family_d2.members) <= 1e-12


def test_transpose_trick_over_a_stack_matches_the_member_loop(family_d3):
    # the per-member Kronecker products the stacked residual replaces
    phi, eye = max_entangled(3), np.eye(3)
    loop = max(float(np.linalg.norm(tensor(eye, g) @ phi - tensor(g.T, eye) @ phi))
               for g in family_d3.members)
    assert transpose_trick_residual(family_d3.members) == loop == 0.0


def test_transpose_trick_rejects_nonsquare():
    with pytest.raises(ValueError):
        transpose_trick_residual(np.ones((2, 3)))


@pytest.mark.parametrize("d,message", [(2, 0), (2, 1), (3, 0), (3, 2)])
def test_protocol_correctness(d, message, channel_d2, channel_d3):
    ch = channel_d2 if d == 2 else channel_d3
    t = run_protocol(ch, message)
    assert t.decoded == message
    assert trace_distance(t.bob_output, projector(basis_state(d, message))) <= 1e-12


def test_message_out_of_range(channel_d2):
    with pytest.raises(ValueError):
        run_protocol(channel_d2, 2)


def test_eve_branches_are_maximally_mixed(channel_d2):
    d = 2
    for message in range(d):
        t = run_protocol(channel_d2, message)
        eve = t.eve_branches
        for _, _, mat in zip(eve.labels, eve.weights, eve.matrices):
            np.testing.assert_allclose(mat, np.eye(d) / d, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_secrecy_honest_run(d, channel_d2, channel_d3):
    ch = channel_d2 if d == 2 else channel_d3
    transcripts = [run_protocol(ch, m) for m in range(d)]
    assert verify_secrecy(transcripts) <= 1e-12


def test_secrecy_requires_full_coverage(channel_d2):
    with pytest.raises(ValueError):
        verify_secrecy([run_protocol(channel_d2, 0)])


def test_skewed_input_leaks(channel_d2):
    # oracle: with data marginal L = diag(lam), Eve's branch for message i
    # and flag j is Z^i g_j L g_j^dag Z^-i, which is message-dependent
    d = 2
    lam = np.array([0.8, 0.2])
    skew = np.zeros(d * d, dtype=complex)
    skew[:: d + 1] = np.sqrt(lam)
    transcripts = [run_protocol(channel_d2, m, data_register_state=skew) for m in range(d)]
    for t in transcripts:
        eve = t.eve_branches
        for (j,), _, mat in zip(eve.labels, eve.weights, eve.matrices):
            g = channel_d2.design.members[j]
            z = channel_d2.z_powers[t.message]
            expected = z @ g @ np.diag(lam) @ g.conj().T @ z.conj().T
            np.testing.assert_allclose(mat, expected, atol=1e-12)
    leak = verify_secrecy(transcripts)
    assert leak > 1e-6
    # direct worst-case oracle over flags
    worst = 0.0
    for j, g in enumerate(channel_d2.design.members):
        base = g @ np.diag(lam) @ g.conj().T
        z = channel_d2.z_powers[1]
        worst = max(worst, trace_distance(base, z @ base @ z.conj().T))
    assert leak == pytest.approx(worst, abs=1e-12)


def test_bob_still_decodes_under_skew(channel_d3):
    d = 3
    lam = np.array([0.5, 0.3, 0.2])
    skew = np.zeros(d * d, dtype=complex)
    skew[:: d + 1] = np.sqrt(lam)
    for message in range(d):
        t = run_protocol(channel_d3, message, data_register_state=skew)
        assert t.decoded == message


def test_protocol_failure_keeps_transpose_trick(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("protocol aborted")

    monkeypatch.setattr("zecheck.suites.run_protocol", broken)
    report = execute(RunConfig(d=2, suites=("privacy",), trials=5))
    claims = {c.claim_id: c for c in report.claims}
    assert not any(cid.endswith(".panic") for cid in claims)
    assert claims.pop("privacy.transpose_trick").passed
    assert len(claims) == 4
    for claim in claims.values():
        assert not claim.passed
        assert "RuntimeError: protocol aborted" in claim.detail
