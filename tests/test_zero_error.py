from functools import reduce
from itertools import product

import numpy as np
import pytest

import zecheck.sampling
import zecheck.suites
from zecheck.channel import BlockStateVector, random_block_state
from zecheck.linalg import (
    basis_state,
    max_entangled,
    max_entangled_projector,
    support_null,
)
from zecheck.report import RunConfig
from zecheck.suites import _code_pair_candidates, _structured_pair, execute
from zecheck.zero_error import (
    averaged_output_overlap,
    code_pair_conditions,
    design_average_overlap_operator,
    disjoint_support,
    overlap_forms,
    overlap_operator,
    overlap_support_projector,
)

from conftest import case_rng
from test_negative_controls import bypassed


def raw_average_oracle(family):
    """Fully expanded summation over the family, one kron per (i, k, member)."""
    d = family.d
    w = np.exp(2j * np.pi / d)
    out = np.zeros((d**3, d**3), dtype=complex)
    for i in range(d):
        for k in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, k] = 1.0
            z = np.diag(w ** (((k - i) % d) * np.arange(d)))
            for g, weight in zip(family.members, family.weights):
                m = g.conj().T @ z @ g
                out += weight * np.kron(unit, np.kron(m, m.conj()))
    return out


def member_loop_average(family):
    """The design average as one loop over the members per clock power delta.

    Block (i, k) is sum_j w_j m_j (x) conj(m_j) with m_j = g_j^dag Z^{k-i} g_j,
    built without the conjugate twirl.
    """
    d = family.d
    k = np.arange(d)
    z_powers = [np.diag(np.exp(2j * np.pi * l * k / d)) for l in range(d)]
    twirled = []
    for delta in range(d):
        acc = np.zeros((d * d, d * d), dtype=complex)
        for g, w in zip(family.members, family.weights):
            m = g.conj().T @ z_powers[delta] @ g
            acc += w * np.kron(m, m.conj())
        twirled.append(acc)
    out = np.zeros((d**3, d**3), dtype=complex)
    for i in range(d):
        for kk in range(d):
            unit = np.zeros((d, d))
            unit[i, kk] = 1.0
            out += np.kron(unit, twirled[(kk - i) % d])
    return out


@pytest.mark.parametrize("name", ["clifford_d2", "clifford_d3", "subdesign_d2", "pauli"])
def test_design_average_matches_member_loop(name, family_d2, family_d3, subdesign_d2):
    fam = {"clifford_d2": family_d2, "clifford_d3": family_d3, "subdesign_d2": subdesign_d2,
           "pauli": bypassed()}[name]
    if name == "subdesign_d2":
        assert len(fam) == 12
    gap = np.abs(design_average_overlap_operator(fam) - member_loop_average(fam)).max()
    assert gap <= 1e-14


def test_coupling_matrix_d2():
    op = overlap_operator(2)
    phi = max_entangled_projector(2)
    comp = np.eye(4) - phi
    expected = (
        np.kron(np.array([[1, -1 / 3], [-1 / 3, 1]]), comp)
        + np.kron(np.ones((2, 2)), phi)
    )
    np.testing.assert_allclose(op, expected, atol=1e-12)


def test_overlap_operator_is_built_once_and_read_only():
    op = overlap_operator(2)
    assert overlap_operator(2) is op
    with pytest.raises(ValueError, match="read-only"):
        op[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        op *= 2.0


@pytest.mark.parametrize("d", [2, 3])
def test_design_average_matches_closed_form(d, family_d2, family_d3):
    fam = family_d2 if d == 2 else family_d3
    assert np.abs(overlap_operator(d) - design_average_overlap_operator(fam)).max() <= 1e-9


def test_raw_oracle_matches_closed_form(family_d2):
    assert np.abs(overlap_operator(2) - raw_average_oracle(family_d2)).max() <= 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_operator_is_psd(d):
    assert np.linalg.eigvalsh(overlap_operator(d)).min() >= -1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_support_projector(d):
    op = overlap_operator(d)
    support, null = support_null(op, (d, d, d))
    np.testing.assert_allclose(support.projector(), overlap_support_projector(d), atol=1e-9)
    assert null.dim == d - 1
    proj = overlap_support_projector(d)
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_null_vectors(d):
    op = overlap_operator(d)
    phi = max_entangled(d)
    for k in range(1, d):
        mu = (basis_state(d, 0) - basis_state(d, k)) / np.sqrt(2)
        assert np.linalg.norm(op @ np.kron(mu, phi)) <= 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_dominance_scaled_and_tight(d):
    # the unscaled comparison fails by exactly 1/(d+1); the scaled one is tight
    op = overlap_operator(d)
    phi = max_entangled_projector(d)
    lower = np.kron(np.eye(d), np.eye(d * d) - phi)
    scaled_min = np.linalg.eigvalsh(op - (d / (d + 1)) * lower).min()
    assert scaled_min >= -1e-9
    unscaled_min = np.linalg.eigvalsh(op - lower).min()
    assert unscaled_min == pytest.approx(-1.0 / (d + 1), abs=1e-9)


def test_overlap_disjoint_is_zero():
    rng = np.random.default_rng(5)
    p1 = random_block_state(2, 2, rng, support=[(0, 0), (0, 1)])
    p2 = random_block_state(2, 2, rng, support=[(1, 0), (1, 1)])
    assert abs(averaged_output_overlap(p1, p2)) <= 1e-12


def test_overlap_single_block_self():
    rng = np.random.default_rng(7)
    vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    vec /= np.linalg.norm(vec)
    psi = BlockStateVector.from_blocks(2, 2, {(0, 0): vec})
    assert averaged_output_overlap(psi, psi) == pytest.approx(1.0, abs=1e-12)


def test_overlap_symmetry_and_scaling():
    rng = np.random.default_rng(9)
    p1 = random_block_state(3, 1, rng)
    p2 = random_block_state(3, 1, rng)
    v = averaged_output_overlap(p1, p2)
    assert averaged_output_overlap(p2, p1) == pytest.approx(v, abs=1e-10)
    scaled = BlockStateVector(3, 1, 0.5 * p1.blocks)
    assert averaged_output_overlap(scaled, p2) == pytest.approx(0.25 * v, abs=1e-10)


def test_disjoint_support_basics():
    rng = np.random.default_rng(11)
    p1 = random_block_state(2, 2, rng, support=[(0, 0)])
    p2 = random_block_state(2, 2, rng, support=[(1, 0), (1, 1)])
    assert disjoint_support(p1, p2)
    p3 = random_block_state(2, 2, rng, support=[(0, 0), (1, 1)])
    assert not disjoint_support(p1, p3)


def test_equivalence_on_random_pairs():
    rng = np.random.default_rng(13)
    for _ in range(200):
        tuples = [(i,) for i in range(2)]
        support = [t for t in tuples if rng.random() < 0.5] or None
        p1 = random_block_state(2, 1, rng, support=support)
        p2 = random_block_state(2, 1, rng)
        assert disjoint_support(p1, p2) == (averaged_output_overlap(p1, p2) <= 1e-8)


def test_code_conditions_shared_support():
    rng = np.random.default_rng(17)
    p1 = random_block_state(2, 1, rng)
    p2 = random_block_state(2, 1, rng)
    check = code_pair_conditions(p1, p2)
    assert not check.outputs_orthogonal


def test_code_conditions_disjoint_pair():
    rng = np.random.default_rng(19)
    p1 = random_block_state(2, 1, rng, support=[(0,)])
    p2 = random_block_state(2, 1, rng, support=[(1,)])
    check = code_pair_conditions(p1, p2)
    assert check.outputs_orthogonal
    assert not check.mixed_outputs_orthogonal
    assert min(p1.total_norm(), p2.total_norm()) > 1e-8


def test_code_conditions_zero_pair():
    z1 = BlockStateVector.zero(2, 1)
    z2 = BlockStateVector.zero(2, 1)
    check = code_pair_conditions(z1, z2)
    assert check == (True, True)
    assert z1.total_norm() == z2.total_norm() == 0.0


def dense_overlap_form(psi1, psi2):
    """<x|K^{(x)n}|x> with K^{(x)n} built densely by np.kron."""
    d, n = psi1.d, psi1.n
    # x = sum_i |i>|a_i>|conj(b_i)> on registers (i_1..i_n, a_1..a_n, b_1..b_n)
    x = np.einsum("ia,ib->iab", psi1.blocks, psi2.blocks.conj()).ravel()
    # entry of x at each use-major index (i_1, a_1, b_1, i_2, a_2, b_2, ...)
    digits = np.indices((d,) * (3 * n)).reshape(3 * n, -1)
    source = np.ravel_multi_index([digits[3 * t + k] for k in range(3) for t in range(n)],
                                  (d,) * (3 * n))
    x = x[source]
    dense = reduce(np.kron, [overlap_operator(d)] * n)
    return float(np.vdot(x, dense @ x).real)


@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
def test_overlap_forms_matches_dense_reference(d, n):
    rng = np.random.default_rng(100 * d + n)
    pairs = [(random_block_state(d, n, rng), random_block_state(d, n, rng))
             for _ in range(69)]  # more than the 64 pairs of a (2,2) window
    pairs[3] = (BlockStateVector.zero(d, n), BlockStateVector.zero(d, n))
    pairs[7] = (random_block_state(d, n, rng), BlockStateVector.zero(d, n))
    pairs[8] = (BlockStateVector.zero(d, n), random_block_state(d, n, rng))
    pairs[9] = (pairs[9][0], pairs[9][0])
    forms = overlap_forms(np.stack([p1.blocks for p1, _ in pairs]),
                          np.stack([p2.blocks for _, p2 in pairs]), d, n)
    expected = np.array([dense_overlap_form(p1, p2) for p1, p2 in pairs])
    assert forms.shape == (len(pairs),)
    assert np.abs(forms - expected).max() <= 1e-14
    assert forms[3] == forms[7] == forms[8] == 0.0
    assert forms[9] > 0.1
    single = [averaged_output_overlap(p1, p2) for p1, p2 in pairs[:10]]
    assert np.abs(np.array(single) - expected[:10]).max() <= 1e-14


@pytest.mark.parametrize("d,n", [(2, 1), (3, 2)])
def test_overlap_forms_of_no_pairs(d, n):
    empty = np.zeros((0, d**n, d**n), dtype=complex)
    assert overlap_forms(empty, empty, d, n).shape == (0,)


def test_overlap_forms_rejects_a_reference_register():
    rng = np.random.default_rng(21)
    with_ref = random_block_state(2, 1, rng, ref_dim=2)
    plain = random_block_state(2, 1, rng)
    with pytest.raises(ValueError):
        averaged_output_overlap(with_ref, with_ref)
    with pytest.raises(ValueError):
        code_pair_conditions(plain, with_ref)
    with pytest.raises(ValueError):
        overlap_forms(with_ref.blocks[None], with_ref.blocks[None], 2, 1)
    with pytest.raises(ValueError):
        overlap_forms(plain.blocks[None], plain.blocks[None], 2, 2)


def dense_conditions(p1, p2):
    """The two code-pair conditions of (p1, p2), from dense_overlap_form alone."""
    plus = BlockStateVector(p1.d, p1.n, (p1.blocks + p2.blocks) / np.sqrt(2))
    minus = BlockStateVector(p1.d, p1.n, (p1.blocks - p2.blocks) / np.sqrt(2))
    return dense_overlap_form(p1, p2) <= 1e-8, dense_overlap_form(plus, minus) <= 1e-8


def row_norms(psi):
    return np.array([np.linalg.norm(row) for row in psi.blocks])


def reference_code_pair_claim(d, n, trials, seed):
    """theorem2.no_valid_code_pair, one candidate at a time, decided by no code the claim runs."""
    tol = 1e-8
    violations = near_misses = forcing_failures = 0
    for case in range(5 * trials):
        p1, p2 = _code_pair_candidates(d, n, case, case_rng(seed, "theorem2", case))
        first, second = dense_conditions(p1, p2)
        nonzero = np.linalg.norm(p1.blocks) > tol and np.linalg.norm(p2.blocks) > tol
        if first and second and nonzero:
            violations += 1
        if first and nonzero:
            near_misses += 1
            plus = np.linalg.norm(p1.blocks + p2.blocks, axis=1) / np.sqrt(2)
            minus = np.linalg.norm(p1.blocks - p2.blocks, axis=1) / np.sqrt(2)
            populated = np.maximum(row_norms(p1), row_norms(p2)) > tol
            if not np.all((np.minimum(plus, minus) > tol)[populated]):
                forcing_failures += 1
            if second and np.any(populated):
                forcing_failures += 1
    return violations + forcing_failures, f"candidates={5 * trials} near_misses={near_misses}"


def reference_equivalence_claim(d, n, trials, seed):
    """zero_error.equivalence, one pair at a time, decided by no code the claim runs."""
    pairs = []
    for case in range(2 * trials):
        rng = case_rng(seed, "zero-error", case)
        support = [t for t in product(range(d), repeat=n) if rng.random() < 0.6] or None
        pairs.append((random_block_state(d, n, rng, support=support),
                      random_block_state(d, n, rng)))
    structured = max(50, trials // 2)
    for case in range(structured):
        pairs.append(_structured_pair(d, n, case % 6, case_rng(seed, "zero-error", 10_000 + case)))
    mismatches = sum(bool(np.all(np.minimum(row_norms(p1), row_norms(p2)) <= 1e-8))
                     != (dense_overlap_form(p1, p2) <= 1e-8) for p1, p2 in pairs)
    return mismatches, f"pairs={len(pairs)}"


@pytest.mark.parametrize("window", [7, None])
@pytest.mark.parametrize("d,n,trials", [(2, 2, 20), (3, 1, 15), (3, 2, 4)])
def test_windowed_sweeps_match_per_candidate_loops(d, n, trials, window, monkeypatch):
    if window is not None:  # pairs per window
        monkeypatch.setattr(zecheck.sampling, "_WINDOW_AMPLITUDES", window * d ** (3 * n))
    seed = 5
    report = execute(RunConfig(d=d, n=n, trials=trials, seed=seed,
                               suites=("zero-error", "theorem2")))
    claims = {c.claim_id: c for c in report.claims}
    for claim_id, reference in [("theorem2.no_valid_code_pair", reference_code_pair_claim),
                                ("zero_error.equivalence", reference_equivalence_claim)]:
        value, detail = reference(d, n, trials, seed)
        assert (claims[claim_id].value, claims[claim_id].detail) == (value, detail), claim_id
        assert claims[claim_id].passed


@pytest.mark.parametrize("d,n,pairs", [(2, 1, 512), (3, 1, 151), (2, 2, 64), (3, 2, 5)])
def test_windows_hold_a_fixed_number_of_amplitudes(d, n, pairs):
    sizes = [len(w) for w in zecheck.sampling.windows(range(2 * pairs + 1), d ** (3 * n))]
    assert sizes == [pairs, pairs, 1]


def test_sweep_window_working_set(traced_peak):
    rng = np.random.default_rng(3)
    pairs = ((random_block_state(3, 2, rng), random_block_state(3, 2, rng)) for _ in range(100))
    window = next(zecheck.sampling.windows(pairs, 3 ** 6))
    stacks = zecheck.suites._block_stacks(window)
    # a window of 64 (3,2) pairs traced about 3.7 MiB
    assert traced_peak(lambda: overlap_forms(*stacks, 3, 2)) < 2.0
