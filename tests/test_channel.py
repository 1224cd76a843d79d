import numpy as np
import pytest

import zecheck.channel
from zecheck.channel import (
    BlockStateVector,
    _branch_factors,
    apply_complementary_n,
    apply_n,
    build_channel,
    conservation_residual,
    cq_overlap,
    overlap_kernel,
    random_block_state,
)
from zecheck.designs import UnitaryFamily, enumerate_clifford
from zecheck.linalg import basis_state, partial_trace, projector, tensor
from zecheck.report import RunConfig
from zecheck.suites import _CLAIMS, _Context, _run
from zecheck.zero_error import averaged_output_overlap

from test_negative_controls import bypassed


def branch_entry_oracle(members, d, n, blocks, jvec, row, col):
    """Independent per-entry evaluation of the output branch formula."""
    w = np.exp(2j * np.pi / d)
    op = np.eye(1, dtype=complex)
    for t in range(n):
        z = np.diag(w ** (((row[t] - col[t]) % d) * np.arange(d)))
        g = members[jvec[t]]
        op = np.kron(op, g.conj().T @ z @ g)
    flat_row = 0
    flat_col = 0
    for t in range(n):
        flat_row = flat_row * d + row[t]
        flat_col = flat_col * d + col[t]
    return blocks[flat_col].conj() @ op @ blocks[flat_row]


def dense_branch(ch, psi, jvec):
    """Receiver and environment branch from the dense per-use unitaries P (I (x) g_j)."""
    d, n, ref = ch.d, psi.n, psi.ref_dim
    uses = [ch.phase_gate @ np.kron(np.eye(d), ch.design.members[j]) for j in jvec]
    # amplitudes from (c_1..c_n, s_1..s_n, r) to use-major (c_1, s_1, .., c_n, s_n, r)
    order = [k for t in range(n) for k in (t, n + t)] + [2 * n]
    vec = psi.blocks.reshape((d,) * (2 * n) + (ref,)).transpose(order).ravel()
    rho = projector(tensor(*uses, np.eye(ref)) @ vec)

    def keep(factors):
        dims, out = [d] * (2 * n) + [ref], rho
        for f in reversed(range(2 * n + 1)):
            if f not in factors:
                out = partial_trace(out, dims, f)
                del dims[f]
        return out

    controls = [2 * t for t in range(n)]
    return keep(controls), keep([f for f in range(2 * n + 1) if f not in controls])


def test_phase_gate_d2(channel_d2):
    np.testing.assert_allclose(channel_d2.phase_gate, np.diag([1, 1, 1, -1]).astype(complex), atol=1e-12)


def test_clock_powers_d3(channel_d3):
    w = np.exp(2j * np.pi / 3)
    np.testing.assert_allclose(channel_d3.z_powers[1], np.diag([1, w, w**2]), atol=1e-12)
    np.testing.assert_allclose(channel_d3.z_powers[0], np.eye(3), atol=1e-12)


def test_build_requires_verified_family(family_d2):
    unverified = UnitaryFamily(2, family_d2.members.copy(), family_d2.weights.copy())
    with pytest.raises(ValueError):
        build_channel(2, unverified)


def test_basis_input_branches(channel_d2):
    psi = BlockStateVector.from_blocks(2, 1, {(0,): basis_state(2, 0)})
    out = apply_n(channel_d2, psi)
    target = projector(basis_state(2, 0))
    for _, _, mat in zip(out.labels, out.weights, out.matrices):
        np.testing.assert_allclose(mat, target, atol=1e-12)


@pytest.mark.parametrize("label", [(1,), (1, -1), (0, 2), (3,), (0, 1, 0)])
def test_control_tuples_outside_the_range_raise(label):
    v = basis_state(2, 0)
    with pytest.raises(ValueError, match=r"control tuple .* is not in range\(2\)\^2"):
        BlockStateVector.from_blocks(2, 2, {label: np.ones(4)})
    with pytest.raises(ValueError, match="control tuple"):
        random_block_state(2, 2, np.random.default_rng(5), support=[(0, 0), label])
    psi = BlockStateVector.from_blocks(2, 1, {(1,): v})
    assert psi.flat_index((1,)) == 1 and np.array_equal(psi.blocks[1], v)
    psi = random_block_state(2, 2, np.random.default_rng(5), support=[(1, 1)])
    assert np.flatnonzero(psi.block_norms()).tolist() == [3]


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1)])
def test_branch_entries_match_oracle(d, n, channel_d2, channel_d3):
    ch = channel_d2 if d == 2 else channel_d3
    rng = np.random.default_rng(17)
    psi = random_block_state(d, n, rng)
    out = apply_n(ch, psi)
    # spot-check a handful of branches entry by entry
    take = [0, len(out.labels) // 2, len(out.labels) - 1]
    tuples = list(np.ndindex(*(d,) * n))
    for b in take:
        jvec = tuple(int(x) for x in out.labels[b])
        for row in tuples:
            for col in tuples:
                expected = branch_entry_oracle(ch.design.members, d, n, psi.blocks, jvec, row, col)
                flat_row = psi.flat_index(row)
                flat_col = psi.flat_index(col)
                assert out.matrices[b][flat_row, flat_col] == pytest.approx(expected, abs=1e-12)


def block_edges(m, d, n, ref):
    """First and last flag of every kernel chunk of whole first-use rows."""
    flags = m ** (n - 1)
    rows = max(1, zecheck.channel._CHUNK_AMPLITUDES // (flags * d ** (2 * n) * ref))
    starts = range(0, m**n, rows * flags)
    return sorted({k for s in starts for k in (s, min(s + rows * flags, m**n) - 1)})


@pytest.mark.parametrize("ref", [1, 2])
@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)])
def test_branches_match_dense_reference(d, n, ref, channel_d2, channel_d3):
    ch = channel_d2 if d == 2 else channel_d3
    m = len(ch.design)
    rng = np.random.default_rng(59)
    psi = random_block_state(d, n, rng, ref_dim=ref)
    bob = apply_n(ch, psi)
    eve = apply_complementary_n(ch, psi)
    edges = block_edges(m, d, n, ref)
    assert edges[0] == 0 and edges[-1] == m**n - 1
    for k in [*edges, *rng.integers(0, m**n, size=3)]:
        jvec = np.unravel_index(k, (m,) * n)
        assert tuple(bob.labels[k]) == tuple(eve.labels[k]) == jvec
        assert bob.weights[k] == pytest.approx(np.prod(ch.design.weights[list(jvec)]), abs=1e-15)
        rho_bob, rho_eve = dense_branch(ch, psi, jvec)
        np.testing.assert_allclose(bob.matrices[k], rho_bob, atol=1e-12)
        np.testing.assert_allclose(eve.matrices[k], rho_eve, atol=1e-12)


def test_mixture_input_reproduces_message(channel_d3):
    d = 3
    for i in range(d):
        acc = np.zeros((d, d), dtype=complex)
        out = None
        for k in range(d):
            psi = BlockStateVector.from_blocks(d, 1, {(i,): basis_state(d, k)})
            out = apply_n(channel_d3, psi)
            acc += out.matrices.sum(axis=0) / (len(channel_d3.design) * d)
        np.testing.assert_allclose(acc, projector(basis_state(d, i)), atol=1e-12)


def test_complementary_basis_input(channel_d2):
    psi = BlockStateVector.from_blocks(2, 1, {(0,): basis_state(2, 0)})
    out = apply_complementary_n(channel_d2, psi)
    for (j,), _, mat in zip(out.labels, out.weights, out.matrices):
        g = channel_d2.design.members[j]
        np.testing.assert_allclose(mat, g @ projector(basis_state(2, 0)) @ g.conj().T, atol=1e-12)


def test_complementary_zero_input(channel_d2):
    out = apply_complementary_n(channel_d2, BlockStateVector.zero(2, 1))
    assert np.abs(out.matrices).max() == 0.0


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1)])
def test_conservation(d, n, channel_d2, channel_d3):
    ch = channel_d2 if d == 2 else channel_d3
    rng = np.random.default_rng(23)
    psi = random_block_state(d, n, rng)
    for out in (apply_n(ch, psi), apply_complementary_n(ch, psi)):
        total = np.einsum("j,jaa->", out.weights, out.matrices)
        assert abs(total - 1.0) <= 1e-9
        assert np.linalg.eigvalsh(out.matrices).min() >= -1e-9
        assert abs(out.weights.sum() - 1.0) <= 1e-12


def gram_rounding_bound(k):
    """gamma_{k+2} = (k+2) u / (1 - (k+2) u), u the unit roundoff."""
    u = np.finfo(float).eps / 2
    return (k + 2) * u / (1 - (k + 2) * u)


@pytest.mark.parametrize(
    "d,n,ref", [(2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2, 1), (2, 1, 2), (3, 1, 2)]
)
def test_conservation_residuals_match_outputs(d, n, ref, channel_d2, channel_d3):
    # the formed Gram stacks: their traces give the residual's trace terms,
    # and every branch keeps lambda_min >= -gamma_{k+2} tr, k = block_len
    ch = channel_d2 if d == 2 else channel_d3
    psi = random_block_state(d, n, np.random.default_rng(61), ref_dim=ref)
    gamma = gram_rounding_bound(psi.block_len)
    terms = []
    for out in (apply_n(ch, psi), apply_complementary_n(ch, psi)):
        traces = np.einsum("jaa->j", out.matrices).real
        terms += [abs(out.weights @ traces - 1.0), np.abs(traces - 1.0).max()]
        assert np.all(np.linalg.eigvalsh(out.matrices).min(axis=1) >= -gamma * traces)
    expected = max(*terms, gamma * traces.max())
    assert abs(conservation_residual(ch, psi) - expected) <= 1e-12


@pytest.mark.parametrize(
    "scales", [(1.01,), (np.sqrt(1.02), np.sqrt(0.98))], ids=["one", "balanced"]
)
def test_conservation_claim_fails_on_a_scaled_member(scales):
    # a member scaled by c makes every branch of its flag carry trace c^2;
    # the balanced pair keeps the weighted trace at 1, so only the
    # per-flag unit-trace term can see it
    clifford = enumerate_clifford(2)
    members = clifford.members.copy()
    for j, c in enumerate(scales):
        members[j] *= c
    family = UnitaryFamily(2, members, clifford.weights, verified=True)
    ctx = _Context(RunConfig(d=2, n=1, suites=("channel",), trials=20))
    ctx.family = family
    spec = next(s for s in _CLAIMS if s.claim_id == "channel.conservation")
    claim = _run(spec, ctx)
    assert not claim.passed
    assert claim.value == pytest.approx(max(c * c for c in scales) - 1.0, rel=1e-9)
    assert claim.detail == "cases=2"


def test_conservation_claim_forms_no_gram_and_takes_no_eigenvalues(monkeypatch):
    ctx = _Context(RunConfig(d=2, n=2, suites=("channel",)))
    ctx.channel  # built before the spies go in

    def spy(name):
        def record(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return record

    for name in ("cholesky", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spy(name))
    spec = next(s for s in _CLAIMS if s.claim_id == "channel.conservation")
    claim = _run(spec, ctx)
    assert claim.passed, claim.detail  # a spy's AssertionError would fail the claim
    assert claim.detail == "cases=10"


def test_permutation_covariance(channel_d2):
    d, n = 2, 2
    rng = np.random.default_rng(29)
    psi = random_block_state(d, n, rng)
    swapped_blocks = np.empty_like(psi.blocks)
    perm = [s2 * d + s1 for s1 in range(d) for s2 in range(d)]  # swap data digits
    for i1 in range(d):
        for i2 in range(d):
            swapped_blocks[i2 * d + i1] = psi.blocks[i1 * d + i2][perm]
    swapped = BlockStateVector(d, n, swapped_blocks)
    out = apply_n(channel_d2, psi)
    out_sw = apply_n(channel_d2, swapped)
    lookup = {tuple(int(x) for x in lab): k for k, lab in enumerate(out_sw.labels)}
    for k, lab in enumerate(out.labels):
        j1, j2 = (int(x) for x in lab)
        mat = out.matrices[k]
        mat_sw = out_sw.matrices[lookup[(j2, j1)]]
        np.testing.assert_allclose(mat_sw, mat[np.ix_(perm, perm)], atol=1e-12)


def test_cq_overlap_values(channel_d2):
    rng = np.random.default_rng(31)
    psi = random_block_state(2, 1, rng)
    out = apply_n(channel_d2, psi)
    assert cq_overlap(out, out) > 0
    p1 = BlockStateVector.from_blocks(2, 1, {(0,): rng.standard_normal(2) + 1j * rng.standard_normal(2)})
    p2 = BlockStateVector.from_blocks(2, 1, {(1,): rng.standard_normal(2) + 1j * rng.standard_normal(2)})
    assert abs(cq_overlap(apply_n(channel_d2, p1), apply_n(channel_d2, p2))) <= 1e-12


def test_cq_overlap_label_mismatch(channel_d2, channel_d3):
    rng = np.random.default_rng(37)
    a = apply_n(channel_d2, random_block_state(2, 1, rng))
    b = apply_n(channel_d3, random_block_state(3, 1, rng))
    with pytest.raises(ValueError):
        cq_overlap(a, b)


@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
def test_central_identity(d, n, channel_d2, channel_d3):
    ch = channel_d2 if d == 2 else channel_d3
    m = len(ch.design)
    rng = np.random.default_rng(41)
    for _ in range(5):
        p1 = random_block_state(d, n, rng)
        p2 = random_block_state(d, n, rng)
        lhs = (m**n) * overlap_kernel(ch)(p1, p2)
        rhs = averaged_output_overlap(p1, p2)
        assert lhs == pytest.approx(rhs, abs=1e-8)


@pytest.mark.parametrize("ref", [1, 2])
@pytest.mark.parametrize("d,n,pairs", [(2, 1, 3), (3, 1, 3), (2, 2, 3), (3, 2, 1), (2, 3, 3)])
def test_output_overlap_matches_cq_overlap(d, n, pairs, ref, channel_d2, channel_d3):
    ch = channel_d2 if d == 2 else channel_d3
    scale = len(ch.design) ** n  # the central identity's normalization
    rng = np.random.default_rng(43)
    for _ in range(pairs):
        p1 = random_block_state(d, n, rng, ref_dim=ref)
        p2 = random_block_state(d, n, rng, ref_dim=ref)
        expected = cq_overlap(apply_n(ch, p1), apply_n(ch, p2))
        assert abs(scale * (overlap_kernel(ch)(p1, p2) - expected)) <= 1e-12


def distinct_weights_channel(family):
    """The family's members under distinct, non-uniform weights.

    The Clifford weights are uniform, which would hide a flag weight paired
    with the wrong first-use row or sub-tuple, and a flag's norm exchanged
    with that of another flag.
    """
    raw = np.random.default_rng(61).uniform(0.5, 1.5, len(family))
    fam = UnitaryFamily(family.d, family.members.copy(), raw / raw.sum())
    fam.verified = True  # not a 2-design; only the overlap bookkeeping is under test
    assert len(np.unique(fam.weights)) == len(fam)
    return build_channel(family.d, fam)


@pytest.mark.parametrize("ref", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_output_overlap_with_distinct_weights(n, ref, family_d2):
    ch = distinct_weights_channel(family_d2)
    fam = ch.design
    rng = np.random.default_rng(67)
    for _ in range(2):
        p1 = random_block_state(2, n, rng, ref_dim=ref)
        p2 = random_block_state(2, n, rng, ref_dim=ref)
        expected = cq_overlap(apply_n(ch, p1), apply_n(ch, p2))
        assert abs(len(fam) ** n * (overlap_kernel(ch)(p1, p2) - expected)) <= 1e-12


def test_output_overlap_alternating_channels(channel_d2, family_d2, subdesign_d2):
    # one process, three designs in turn: a pair Gram kept from the previous
    # call, or a member paired with another design's weight, would show here
    channels = [channel_d2, build_channel(2, subdesign_d2), distinct_weights_channel(family_d2)]
    rng = np.random.default_rng(79)
    for n in (2, 1, 2):
        p1 = random_block_state(2, n, rng)
        p2 = random_block_state(2, n, rng)
        for ch in [*channels, channels[0]]:
            expected = cq_overlap(apply_n(ch, p1), apply_n(ch, p2))
            assert abs(len(ch.design) ** n * (overlap_kernel(ch)(p1, p2) - expected)) <= 1e-12


def flagwise_overlap(ch, x, y):
    """sum_f w_f^2 ||V_x,f^dag V_y,f||_F^2, one flag at a time from _branch_factors."""
    _, weights = zecheck.channel._flag_tuples(ch, x.n)
    total = 0.0
    for (start, vx), (_, vy) in zip(_branch_factors(ch, x), _branch_factors(ch, y)):
        prods = vx.conj().transpose(0, 2, 1) @ vy
        total += weights[start : start + len(vx)] ** 2 @ np.sum(np.abs(prods) ** 2, axis=(1, 2))
    return float(total)


@pytest.mark.parametrize("ref", [1, 2])
@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (2, 3)])
def test_output_overlap_matches_flagwise_reference(d, n, ref, channel_d2, channel_d3):
    clifford = channel_d2 if d == 2 else channel_d3
    rng = np.random.default_rng(71)
    p1 = random_block_state(d, n, rng, ref_dim=ref)
    p2 = random_block_state(d, n, rng, ref_dim=ref)
    for ch in (clifford, distinct_weights_channel(clifford.design)):
        gap = overlap_kernel(ch)(p1, p2) - flagwise_overlap(ch, p1, p2)
        assert abs(len(ch.design) ** n * gap) <= 1e-12


@pytest.mark.parametrize("ref", [1, 2])
@pytest.mark.parametrize("d", [2, 3])
def test_output_overlap_does_not_depend_on_the_blocks(d, ref, channel_d2, channel_d3,
                                                      monkeypatch):
    ch = channel_d2 if d == 2 else channel_d3
    rng = np.random.default_rng(37)
    pairs = [(random_block_state(d, 2, rng, ref_dim=ref), random_block_state(d, 2, rng, ref_dim=ref))
             for _ in range(3)]
    default = [overlap_kernel(ch)(p1, p2) for p1, p2 in pairs]  # 1 block at (2,2), 14 at (3,2)
    for amplitudes in (1, 2**40):  # one sub-tuple J' a block, then all of them in one
        monkeypatch.setattr(zecheck.channel, "_OVERLAP_AMPLITUDES", amplitudes)
        assert [overlap_kernel(ch)(p1, p2) for p1, p2 in pairs] == default


def test_output_overlap_working_set(channel_d3, traced_peak):
    rng = np.random.default_rng(5)
    x, y = random_block_state(3, 2, rng), random_block_state(3, 2, rng)
    # T and G of all 216 sub-tuples at once traced about 6 MiB
    assert traced_peak(lambda: overlap_kernel(channel_d3)(x, y)) < 3.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_flag_weights_equal_the_label_products(n, family_d2):
    ch = distinct_weights_channel(family_d2)
    labels = np.indices((len(family_d2),) * n).reshape(n, -1).T
    expected = np.prod(ch.design.weights[labels], axis=1)
    assert np.array_equal(zecheck.channel._flag_weights(ch, n), expected)
    got_labels, weights = zecheck.channel._flag_tuples(ch, n)
    assert np.array_equal(got_labels, labels) and np.array_equal(weights, expected)


@pytest.mark.parametrize("n", [1, 2])
def test_output_overlap_matches_flagwise_reference_on_a_one_design(n):
    # the Pauli group is no 2-design: agreement shows the Grams use no design identity
    ch = build_channel(2, bypassed())
    rng = np.random.default_rng(83)
    for ref in (1, 2):
        p1 = random_block_state(2, n, rng, ref_dim=ref)
        p2 = random_block_state(2, n, rng, ref_dim=ref)
        assert abs(overlap_kernel(ch)(p1, p2) - flagwise_overlap(ch, p1, p2)) <= 1e-12


@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (2, 3)])
def test_branch_factors_chunk_boundaries(d, n, channel_d2, channel_d3, monkeypatch):
    ch = channel_d2 if d == 2 else channel_d3
    m = len(ch.design)
    psi = random_block_state(d, n, np.random.default_rng(73))
    per_row = m ** (n - 1) * d ** (2 * n)  # amplitudes of one row's factors
    outputs = {
        "residual": lambda: conservation_residual(ch, psi),
        "receiver": lambda: apply_n(ch, psi).matrices,
        "environment": lambda: apply_complementary_n(ch, psi).matrices,
    }
    for name, output in outputs.items():  # one at a time: a (3,2) output is 60 MiB
        default = np.asarray(output())
        for rows in (1, 7, m):  # 7 divides neither 24 nor 216: the last chunk is partial
            monkeypatch.setattr(zecheck.channel, "_CHUNK_AMPLITUDES", rows * per_row)
            chunks = sum(1 for _ in zecheck.channel._branch_factors(ch, psi))
            assert chunks == -(-m // rows)
            got = np.asarray(output())
            got -= default  # in place: no third 60 MiB array
            assert np.abs(got).max() <= 1e-12, (name, rows)
        monkeypatch.undo()


def test_central_identity_uses_trials_pairs_at_d3_n2():
    spec = next(s for s in _CLAIMS if s.claim_id == "channel.central_identity")
    result = _run(spec, _Context(RunConfig(d=3, n=2, suites=("channel",), trials=4)))
    assert result.passed
    assert result.detail == "pairs=4"


def test_output_overlap_special_states(channel_d2):
    d, n = 2, 2
    scale = len(channel_d2.design) ** n
    rng = np.random.default_rng(47)
    psi = random_block_state(d, n, rng)
    zero = BlockStateVector.zero(d, n)
    assert abs(overlap_kernel(channel_d2)(zero, psi)) <= 1e-12
    assert abs(overlap_kernel(channel_d2)(psi, zero)) <= 1e-12

    def single(label):
        vec = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
        return BlockStateVector.from_blocks(d, n, {label: vec})

    for a, b in [((0, 1), (0, 1)), ((0, 1), (1, 0)), ((1, 1), (0, 0))]:
        x, y = single(a), single(b)
        expected = cq_overlap(apply_n(channel_d2, x), apply_n(channel_d2, y))
        assert abs(scale * (overlap_kernel(channel_d2)(x, y) - expected)) <= 1e-12
    x = random_block_state(d, n, rng, support=[(0, 0), (1, 1)])
    y = random_block_state(d, n, rng, support=[(0, 1), (1, 0)])
    assert abs(overlap_kernel(channel_d2)(x, y)) <= 1e-12


def test_output_overlap_rejects_mismatched_inputs(channel_d2):
    rng = np.random.default_rng(53)
    psi = random_block_state(2, 1, rng)
    for other in (
        random_block_state(3, 1, rng),  # d
        random_block_state(2, 2, rng),  # n
        random_block_state(2, 1, rng, ref_dim=2),  # ref_dim
    ):
        with pytest.raises(ValueError):
            overlap_kernel(channel_d2)(psi, other)
        with pytest.raises(ValueError):
            overlap_kernel(channel_d2)(other, psi)


def test_block_state_shape_validation():
    with pytest.raises(ValueError):
        BlockStateVector(2, 1, np.zeros((2, 3)))
