import time

import numpy as np
import pytest

import zecheck.designs
from zecheck.designs import (
    UnitaryFamily,
    _canonical_phases,
    _dedup_keys,
    _member_index,
    _product_indices,
    clifford_generators,
    clock,
    closure_defect,
    conjugate_twirl,
    conjugation_blocks,
    enumerate_clifford,
    find_minimal_subdesign,
    fourier,
    frame_potential,
    isotropic_projection,
    shift,
    unitarity_defect,
    verify_two_design,
)
from zecheck.linalg import max_entangled_projector, random_psd
from zecheck.report import RunConfig
from zecheck.suites import execute


def phase_key(u):
    return np.round(_canonical_phases(u[None])[0], 10).tobytes()


def test_enumeration_sizes(family_d2, family_d3):
    assert len(family_d2) == 24
    assert len(family_d3) == 216


def test_generators_present(family_d2):
    keys = {phase_key(g) for g in family_d2.members}
    assert phase_key(np.eye(2, dtype=complex)) in keys
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    assert phase_key(hadamard) in keys


def test_unsupported_dimension():
    with pytest.raises(ValueError):
        enumerate_clifford(4)


def test_frame_potential_single_identity():
    fam = UnitaryFamily(2, np.eye(2, dtype=complex)[None, :, :], np.array([1.0]))
    assert frame_potential(fam) == pytest.approx(16.0)


def test_frame_potential_exact(family_d2, family_d3):
    assert abs(frame_potential(family_d2) - 2.0) <= 1e-9
    assert abs(frame_potential(family_d3) - 2.0) <= 1e-9


def test_verified_flag(family_d2):
    assert family_d2.verified
    broken = UnitaryFamily(2, family_d2.members[:5], np.full(5, 0.2))
    assert not verify_two_design(broken)
    assert not broken.verified


def missing_products(family, right):
    """(m, k) mask of the products g_i r_k modulo phase that are not members."""
    g, d = family.members, family.d
    keys = set(_dedup_keys(_canonical_phases(g)))
    prods = _canonical_phases(np.matmul(g[:, None], right[None]).reshape(-1, d, d))
    return np.reshape([key not in keys for key in _dedup_keys(prods)], (len(g), len(right)))


def all_pairs_missing(family):
    """Products g_i g_j modulo phase that are not members: the m^2 reference check."""
    return int(missing_products(family, family.members).sum())


def missing_generator_products(family):
    return missing_products(family, np.stack(clifford_generators(family.d)))


def without_a_member(full):
    m = len(full)
    keep = np.arange(m) != m // 2  # member 0 is the identity
    return UnitaryFamily(full.d, full.members[keep], np.full(m - 1, 1.0 / (m - 1)), verified=True)


def with_t_coset(family_d2):
    """G u T G with T = diag(1, e^{i pi/4}): closed under the generators, half unreachable."""
    t = np.diag([1.0, np.exp(1j * np.pi / 4)])
    members = np.concatenate([family_d2.members, _canonical_phases(t @ family_d2.members)])
    return UnitaryFamily(2, members, np.full(48, 1.0 / 48))


def test_group_closure(family_d2, family_d3):
    # the generator certificate agrees with the all-pairs check on closed and open families
    for fam, closed in [(family_d2, True), (family_d3, True), (without_a_member(family_d2), False),
                        (without_a_member(family_d3), False), (with_t_coset(family_d2), False)]:
        assert (closure_defect(fam) == 0) == closed
        assert (all_pairs_missing(fam) == 0) == closed


@pytest.mark.parametrize("d", [2, 3])
def test_multiplication_table_matches_pairwise_reference(d, family_d2, family_d3):
    # the product-index table the closure check and the sub-design search read
    fam = family_d2 if d == 2 else family_d3
    g = fam.members
    rows = range(0, len(g), 1 if d == 2 else 6)  # 36 of the 216 rows at d=3
    index = {key: i for i, key in enumerate(_dedup_keys(_canonical_phases(g)))}
    expected = np.array([
        [index.get(_dedup_keys(_canonical_phases((g[i] @ b)[None]))[0], -1) for b in g]
        for i in rows
    ])
    got = _product_indices(g[list(rows)], g, _member_index(g))
    np.testing.assert_array_equal(got, expected)
    assert (got >= 0).all()


@pytest.mark.parametrize("d", [2, 3])
def test_closure_fails_without_a_member(d, family_d2, family_d3, monkeypatch):
    fam = without_a_member(family_d2 if d == 2 else family_d3)
    # g s hits the deleted member for exactly one surviving g per generator s
    assert (missing_generator_products(fam).sum(axis=0) == 1).all()
    assert closure_defect(fam) == 4  # and every surviving member is still reached from I

    monkeypatch.setattr("zecheck.suites.enumerate_clifford", lambda d: fam)
    report = execute(RunConfig(d=d, suites=("design",), trials=5))
    closure = next(c for c in report.claims if c.claim_id == "design.closure")
    assert not closure.passed
    assert closure.value == 4


def test_closure_fails_on_members_unreached_from_the_identity(family_d2, monkeypatch):
    fam = with_t_coset(family_d2)
    assert not missing_generator_products(fam).any()  # only the reachability half can fail it
    monkeypatch.setattr("zecheck.suites.enumerate_clifford", lambda d: fam)
    report = execute(RunConfig(d=2, suites=("design",), trials=5))
    closure = next(c for c in report.claims if c.claim_id == "design.closure")
    assert not closure.passed
    assert closure.value == 24  # the 24 members of T G


def test_canonical_phase_normalizes():
    rng = np.random.default_rng(0)
    u = fourier(3)
    phases = np.exp(2j * np.pi * rng.random(5))
    canon = _canonical_phases(phases[:, None, None] * u)
    np.testing.assert_allclose(canon, np.broadcast_to(_canonical_phases(u[None]), canon.shape),
                               atol=1e-12)
    pivot = canon[0].ravel()[0]
    assert pivot.imag == pytest.approx(0.0) and pivot.real > 0


def test_twirl_identity_invariant(family_d2):
    eye = np.eye(4, dtype=complex)
    np.testing.assert_allclose(conjugate_twirl(family_d2, eye), eye, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_twirl_clock_closed_form(d, family_d2, family_d3):
    fam = family_d2 if d == 2 else family_d3
    phi = max_entangled_projector(d)
    comp = np.eye(d * d) - phi
    w = np.exp(2j * np.pi / d)
    for a in range(1, d):
        za = np.diag(w ** (a * np.arange(d)))
        got = conjugate_twirl(fam, np.kron(za, za.conj()))
        np.testing.assert_allclose(got, phi - comp / (d * d - 1), atol=1e-9)


@pytest.mark.parametrize("d", [2, 3])
def test_twirl_unit_projectors(d, family_d2, family_d3):
    # k != l case of the unit-projector twirl: (I-Phi)/(d^2-1)
    fam = family_d2 if d == 2 else family_d3
    phi = max_entangled_projector(d)
    comp = np.eye(d * d) - phi
    m = np.zeros((d * d, d * d), dtype=complex)
    m[0 * d + 1, 0 * d + 1] = 1.0  # |0><0| (x) |1><1|
    got = conjugate_twirl(fam, m)
    np.testing.assert_allclose(got, comp / (d * d - 1), atol=1e-9)


def test_twirl_matches_closed_form_projection(family_d3):
    rng = np.random.default_rng(4)
    m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    got = conjugate_twirl(family_d3, m)
    np.testing.assert_allclose(got, isotropic_projection(3, m), atol=1e-9)
    np.testing.assert_allclose(conjugate_twirl(family_d3, got), got, atol=1e-9)


def test_twirl_preserves_psd_and_trace(family_d2):
    rng = np.random.default_rng(12)
    m = random_psd(4, rng)
    t = conjugate_twirl(family_d2, m)
    assert np.linalg.eigvalsh(t).min() >= -1e-12
    assert np.trace(t).real == pytest.approx(np.trace(m).real)


def test_twirl_output_commutes_with_family(family_d2):
    rng = np.random.default_rng(13)
    t = conjugate_twirl(family_d2, random_psd(4, rng))
    for g in family_d2.members:
        k = np.kron(g, g.conj())
        assert np.abs(t @ k - k @ t).max() <= 1e-9


def looped_twirl(family, m):
    """conjugate_twirl as a loop over the members."""
    out = np.zeros(m.shape, dtype=complex)
    for g, w in zip(family.members, family.weights):
        k = np.kron(g, g.conj())
        out += w * (k.conj().T @ m @ k)
    return out


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", ["clifford", "subdesign", "weighted"])
def test_stacked_twirl_matches_the_member_loop(d, kind, family_d2, family_d3,
                                               subdesign_d2, subdesign_d3):
    fam = ((subdesign_d2, subdesign_d3) if kind == "subdesign" else (family_d2, family_d3))[d - 2]
    rng = np.random.default_rng(5)
    if kind == "weighted":
        w = rng.random(len(fam))
        fam = UnitaryFamily(d, fam.members, w / w.sum())
    m = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    assert np.abs(conjugate_twirl(fam, m) - looped_twirl(fam, m)).max() <= 1e-12


def test_twirl_blocks_bound_the_stacks(family_d3, monkeypatch):
    # 7 members of 81 entries per block: 30 full blocks and one of 6 at m = 216
    monkeypatch.setattr(zecheck.designs, "_CONJUGATION_BLOCK_ENTRIES", 7 * 81 + 80)
    blocks = list(conjugation_blocks(family_d3))
    assert [k.shape for k, _ in blocks] == [(9, 7, 9)] * 30 + [(9, 6, 9)]
    k = np.concatenate([k for k, _ in blocks], axis=1)
    g = family_d3.members
    assert np.abs(k.transpose(1, 0, 2) - [np.kron(u, u.conj()) for u in g]).max() <= 1e-15
    assert np.array_equal(np.concatenate([w for _, w in blocks]), family_d3.weights)
    m = random_psd(9, np.random.default_rng(6))
    assert np.abs(conjugate_twirl(family_d3, m) - looped_twirl(family_d3, m)).max() <= 1e-12


def test_unitarity_defect_is_the_worst_member(family_d3):
    g = family_d3.members.copy()
    assert unitarity_defect(g) <= 1e-12
    g[100] *= 1 + 1e-6
    looped = max(np.abs(u.conj().T @ u - np.eye(3)).max() for u in g)
    assert unitarity_defect(g) == pytest.approx(looped) and looped > 1e-6


def test_twirl_dimension_mismatch(family_d2):
    with pytest.raises(ValueError):
        conjugate_twirl(family_d2, np.eye(8))


def member_indices(family, sub):
    index = {key: i for i, key in enumerate(_dedup_keys(_canonical_phases(family.members)))}
    return [index[key] for key in _dedup_keys(_canonical_phases(sub.members))]


def test_subdesign_search(family_d2, subdesign_d2):
    assert len(subdesign_d2) == 12
    assert subdesign_d2.verified
    assert abs(frame_potential(subdesign_d2) - 2.0) <= 1e-9
    # the members the all-pairs closure search returned, in the same order
    assert member_indices(family_d2, subdesign_d2) == [0, 3, 4, 5, 8, 12, 14, 15, 16, 19, 20, 21]
    # inside the 12-member design only HW itself and the whole family contain <X, Z>
    assert find_minimal_subdesign(subdesign_d2) is None


def test_subdesign_search_d3(family_d3, subdesign_d3):
    assert len(subdesign_d3) == 72
    assert subdesign_d3.verified
    assert abs(frame_potential(subdesign_d3) - 2.0) <= 1e-9
    assert all_pairs_missing(subdesign_d3) == 0  # closed under products
    idx = member_indices(family_d3, subdesign_d3)
    # the members the all-pairs closure search returned, in the same order
    assert idx == [0, 1, 3, 4, 5, 7, 8, 13, 15, 16, 17, 18, 20, 21, 26, 28, 29, 42, 44, 49, 50, 52,
                   53, 57, 59, 71, 73, 78, 83, 89, 101, 104, 105, 110, 114, 123, 129, 134, 142,
                   144, 154, 155, 156, 158, 160, 162, 163, 167, 169, 171, 175, 177, 184, 186, 193,
                   194, 195, 196, 197, 200, 202, 205, 206, 207, 208, 209, 210, 211, 212, 213, 214,
                   215]
    hw = member_indices(family_d3, UnitaryFamily(3, np.stack([shift(3), clock(3)]), np.ones(2)))
    assert set(hw) <= set(idx)


def test_a_run_searches_the_subdesign_once(monkeypatch):
    calls = []

    def counted(family):
        calls.append(len(family))
        return find_minimal_subdesign(family)

    monkeypatch.setattr("zecheck.suites.find_minimal_subdesign", counted)
    report = execute(RunConfig(d=2, suites=("design", "channel", "ncgraph"), trials=5))
    assert report.overall_pass
    assert calls == [24]


def test_a_failing_subdesign_search_runs_once(monkeypatch):
    calls = []

    def broken(family):
        calls.append(len(family))
        raise RuntimeError("sub-design search unavailable")

    monkeypatch.setattr("zecheck.suites.find_minimal_subdesign", broken)
    report = execute(RunConfig(d=2, suites=("design", "channel", "ncgraph"), trials=5))
    readers = {"channel.alt_design_identity", "ncgraph.design_independence"}
    for claim in report.claims:
        if claim.claim_id in readers:
            assert not claim.passed and claim.value is None, claim.claim_id
            assert claim.detail == "RuntimeError: sub-design search unavailable"
        else:
            assert claim.passed, claim.claim_id
    assert calls == [24]


@pytest.mark.parametrize("d", [2, 3])
def test_subdesign_search_needs_a_closed_family(d, family_d2, family_d3):
    with pytest.raises(ValueError, match="not closed under products"):
        find_minimal_subdesign(without_a_member(family_d2 if d == 2 else family_d3))


def test_closure_size_cap(monkeypatch):
    monkeypatch.setattr("zecheck.designs.SIZE_CAP", 50)
    with pytest.raises(RuntimeError):
        enumerate_clifford(3)


@pytest.mark.parametrize("d", range(1, 7))
def test_enumeration_supports_exactly_the_run_dimensions(d, family_d2, family_d3, monkeypatch):
    try:
        RunConfig(d=d)
    except ValueError:
        # the dimension check comes first: no generator is built for an unsupported d
        monkeypatch.setattr(zecheck.designs, "clifford_generators", None)
        with pytest.raises(ValueError, match="unsupported qudit dimension"):
            enumerate_clifford(d)
    else:
        family = enumerate_clifford(d)
        assert family.verified
        assert np.array_equal(family.members, (family_d2 if d == 2 else family_d3).members)


def test_family_enumeration_is_charged_to_the_first_claim(family_d2, monkeypatch):
    def slow(d):
        time.sleep(0.2)
        return family_d2

    monkeypatch.setattr("zecheck.suites.enumerate_clifford", slow)
    first = execute(RunConfig(d=2, suites=("design",), trials=5)).claims[0]
    assert first.claim_id == "design.members" and first.passed
    assert first.runtime_ms >= 200
