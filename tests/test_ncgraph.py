import numpy as np
import pytest

from zecheck.channel import build_channel
from zecheck.designs import clock, conjugate_twirl
from zecheck.linalg import basis_state, max_entangled_projector, projector
from zecheck.ncgraph import (
    condition_checks,
    contains,
    full_matrix_space,
    graph_span,
    operator_span,
)
from zecheck.report import RunConfig
from zecheck.suites import execute


def unit_block_span(family, k, l):
    d = family.d
    unit = np.zeros((d, d), dtype=complex)
    unit[l, k] = 1.0
    return operator_span(np.stack([v.conj().T @ unit @ v for v in family.members]))


@pytest.mark.parametrize("d", [2, 3])
def test_block_dimensions(d, family_d2, family_d3):
    fam = family_d2 if d == 2 else family_d3
    for k in range(d):
        for l in range(d):
            expected = d * d if k == l else d * d - 1
            assert unit_block_span(fam, k, l).dim == expected


def test_offdiagonal_blocks_are_traceless(family_d2):
    span = unit_block_span(family_d2, 0, 1)
    for b in span.basis:
        assert abs(np.trace(b)) <= 1e-10


@pytest.mark.parametrize("d,expected", [(2, 7), (3, 25)])
def test_total_dimension(d, expected, channel_d2, channel_d3):
    ch = channel_d2 if d == 2 else channel_d3
    assert graph_span(ch).dim == expected


@pytest.mark.parametrize("d", [2, 3])
def test_memberships(d, channel_d2, channel_d3):
    ch = channel_d2 if d == 2 else channel_d3
    span = graph_span(ch)
    z = clock(d)
    eye = np.eye(d, dtype=complex)
    assert not contains(span, np.kron(z, eye))
    assert contains(span, np.kron(eye, z))
    assert contains(span, np.kron(z, z.conj().T))
    assert contains(span, np.kron(eye, eye))


def test_contains_dimension_mismatch(channel_d2):
    span = graph_span(channel_d2)
    with pytest.raises(ValueError):
        contains(span, np.eye(9))


@pytest.mark.parametrize("d", [2, 3])
def test_conditions_violated(d, channel_d2, channel_d3):
    ch = channel_d2 if d == 2 else channel_d3
    assert condition_checks(graph_span(ch), d) == (True, True)


@pytest.mark.parametrize("d", [2, 3])
def test_full_space_control(d):
    assert condition_checks(full_matrix_space(d * d), d) == (False, False)


def test_adjoint_closure(channel_d3):
    span = graph_span(channel_d3)
    for b in span.basis:
        assert contains(span, b.conj().T)


@pytest.mark.parametrize("d", [2, 3])
def test_unit_projector_twirl(d, family_d2, family_d3):
    # oracle: raw summation of (V^dag (x) V^T) M (V^dag (x) V^T)^dag
    fam = family_d2 if d == 2 else family_d3
    phi = max_entangled_projector(d)
    comp = np.eye(d * d) - phi
    for k in range(d):
        for l in range(d):
            m = np.kron(projector(basis_state(d, k)), projector(basis_state(d, l)))
            raw = np.zeros_like(m)
            for v, w in zip(fam.members, fam.weights):
                op = np.kron(v.conj().T, v.T)
                raw += w * (op @ m @ op.conj().T)
            delta = 1.0 if k == l else 0.0
            expected = ((1 - delta / d) / (d * d - 1)) * comp + (delta / d) * phi
            np.testing.assert_allclose(raw, expected, atol=1e-9)
            np.testing.assert_allclose(conjugate_twirl(fam, m), expected, atol=1e-9)


def dense_graph_span(channel):
    """One SVD of all m d^2 operators Z^{k-l} (x) V^dag |l><k| V, the build before clock blocks."""
    d = channel.d
    gens = []
    for v in channel.design.members:
        for k in range(d):
            for l in range(d):
                unit = np.zeros((d, d), dtype=complex)
                unit[l, k] = 1.0
                gens.append(np.kron(channel.z_powers[(k - l) % d], v.conj().T @ unit @ v))
    return operator_span(np.stack(gens))


def span_projector(span):
    vecs = span.basis.reshape(span.dim, -1)
    return vecs.T @ vecs.conj()


@pytest.mark.parametrize("alt", [False, True])
@pytest.mark.parametrize("d", [2, 3])
def test_graph_span_matches_dense_reference(d, alt, family_d2, family_d3, subdesign_d2,
                                            subdesign_d3):
    design = {(2, False): family_d2, (3, False): family_d3,
              (2, True): subdesign_d2, (3, True): subdesign_d3}[d, alt]
    ch = build_channel(d, design)
    span, dense = graph_span(ch), dense_graph_span(ch)
    assert span.dim == dense.dim == d**3 - d + 1
    vecs = span.basis.reshape(span.dim, -1)
    assert np.abs(vecs.conj() @ vecs.T - np.eye(span.dim)).max() <= 1e-12
    assert np.abs(span_projector(span) - span_projector(dense)).max() <= 1e-12


def test_graph_span_working_set(channel_d3, traced_peak):
    # one SVD of the 1944 x 81 stack traced about 7.9 MiB
    assert traced_peak(lambda: graph_span(channel_d3)) < 1.0


def test_design_independence(subdesign_d2, channel_d2):
    alt_channel = build_channel(2, subdesign_d2)
    assert graph_span(alt_channel).dim == graph_span(channel_d2).dim


def test_graph_span_failure_fails_only_the_claims_that_read_it(monkeypatch):
    def broken(channel):
        raise RuntimeError("span unavailable")

    monkeypatch.setattr("zecheck.suites.graph_span", broken)
    report = execute(RunConfig(d=2, suites=("ncgraph",), trials=5))
    readers = {
        "ncgraph.total_dim",
        "ncgraph.membership",
        "ncgraph.conditions",
        "ncgraph.adjoint_closed",
        "ncgraph.design_independence",
    }
    assert {c.claim_id for c in report.claims} - readers == {
        "ncgraph.block_dims",
        "ncgraph.control",
        "ncgraph.twirl_units",
    }
    for claim in report.claims:
        if claim.claim_id in readers:
            assert not claim.passed
            assert "RuntimeError: span unavailable" in claim.detail
        else:
            assert claim.passed
