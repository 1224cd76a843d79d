import os

import numpy as np
import pytest

import zecheck.ppt
from zecheck.linalg import (
    case_rng,
    max_entangled_projector,
    partial_transpose,
    random_psd,
    random_unitary,
    tensor,
)
from zecheck.ppt import (
    IsotropicDecomposition,
    PPTSearchResult,
    _project_stack,
    _search_candidates,
    build_ppt_witness,
    constraint_score,
    isotropic_twirl_n,
    label_ranks,
    pairwise_partial_transpose,
    ppt_search,
    recursion_certificate,
    recursion_trace,
    transposed_eigenvalues,
)
from zecheck.report import RunConfig
from zecheck.suites import execute


def project_to_ppt(m, d, n, **kwargs):
    """One matrix through the stacked projector: a trace-one PPT matrix or None."""
    return _project_stack(np.asarray(m)[None], d, n, **kwargs)[0]


def is_ppt(m, d, n, tol):
    """Reference check: m and its pairwise transpose both have eigenvalues >= -tol."""
    m = np.asarray(m, dtype=complex)
    if np.linalg.eigvalsh(m).min() < -tol:
        return False
    return bool(np.linalg.eigvalsh(pairwise_partial_transpose(m, d, n)).min() >= -tol)


def test_witness_d2():
    w = build_ppt_witness(2)
    np.testing.assert_allclose(w.matrix, np.diag([0, 1, 1, 0]).astype(complex), atol=0)
    assert w.trace_value == 2.0


def test_witness_d3():
    w = build_ppt_witness(3)
    assert w.trace_value == 6.0
    assert np.trace(w.matrix).real == pytest.approx(6.0)


@pytest.mark.parametrize("d", [2, 3])
def test_witness_invariants(d):
    w = build_ppt_witness(d)
    phi_g = partial_transpose(max_entangled_projector(d), (d, d), 0)
    assert abs(np.vdot(w.matrix, phi_g)) <= 1e-12
    assert np.linalg.eigvalsh(w.matrix).min() >= 0
    comp_g = np.eye(d * d) - phi_g
    assert np.vdot(w.matrix, comp_g).real == pytest.approx(w.trace_value)


def test_pairwise_transpose_involution():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    np.testing.assert_allclose(
        pairwise_partial_transpose(pairwise_partial_transpose(m, 2, 2), 2, 2), m, atol=1e-12
    )


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_pairwise_transpose_matches_per_pair_reference(d, n):
    rng = np.random.default_rng(2)
    side = d ** (2 * n)
    m = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    want = m
    for t in range(n):
        want = partial_transpose(want, (d, d) * n, 2 * t)
    got = pairwise_partial_transpose(m, d, n)
    assert np.array_equal(got, want) and got.flags.c_contiguous
    with pytest.raises(ValueError):
        pairwise_partial_transpose(m[:, : side // 2], d, n)


def test_entangled_projector_is_not_ppt():
    assert not is_ppt(max_entangled_projector(2), 2, 1, tol=1e-9)
    assert not is_ppt(max_entangled_projector(3), 3, 1, tol=1e-9)


def test_isotropic_twirl_fixed_points():
    phi = max_entangled_projector(2)
    dec = isotropic_twirl_n(phi, 2, 1)
    np.testing.assert_allclose(dec.coefficients, [1.0, 0.0], atol=1e-12)
    dec_mixed = isotropic_twirl_n(np.eye(4) / 4, 2, 1)
    np.testing.assert_allclose(dec_mixed.coefficients, [0.25, 0.25], atol=1e-12)
    np.testing.assert_allclose(dec_mixed.reconstruct(), np.eye(4) / 4, atol=1e-12)


def test_isotropic_twirl_rejects_non_psd():
    with pytest.raises(ValueError):
        isotropic_twirl_n(np.diag([1.0, -1.0, 0.0, 0.0]), 2, 1)
    with pytest.raises(ValueError):
        isotropic_twirl_n(np.eye(8), 2, 1)


def test_twirl_reconstruction_commutes_with_conjugations():
    # oracle: explicit conjugation by sampled per-pair U (x) conj(U)
    rng = np.random.default_rng(3)
    d, n = 2, 2
    dec = isotropic_twirl_n(random_psd(d ** (2 * n), rng), d, n)
    rec = dec.reconstruct()
    for _ in range(5):
        conj = tensor(*(np.kron(u, u.conj()) for u in (random_unitary(d, rng) for _ in range(n))))
        assert np.abs(conj @ rec @ conj.conj().T - rec).max() <= 1e-9


def test_twirl_preserves_trace_and_ppt():
    rng = np.random.default_rng(5)
    d, n = 2, 2
    cand = project_to_ppt(random_psd(d ** (2 * n), rng), d, n)
    assert cand is not None and is_ppt(cand, d, n, tol=1e-8)
    dec = isotropic_twirl_n(cand, d, n)
    rec = dec.reconstruct()
    assert np.trace(rec).real == pytest.approx(1.0, abs=1e-9)
    assert dec.coefficients.min() >= -1e-12
    assert np.linalg.eigvalsh(rec).min() >= -1e-9
    assert np.linalg.eigvalsh(pairwise_partial_transpose(rec, d, n)).min() >= -1e-9


def test_uniform_state_score():
    for d, n in [(2, 1), (3, 1), (2, 2)]:
        side = d ** (2 * n)
        got = constraint_score(np.eye(side) / side, d, n)
        assert got == pytest.approx(((d * d - 1) / (d * d)) ** n, abs=1e-12)


def test_recursion_zero_decomposition():
    w = build_ppt_witness(2)
    dec = IsotropicDecomposition(2, 2, np.zeros((2, 2)))
    assert recursion_certificate(dec, w)


def test_recursion_refutes_single_label_n1():
    w = build_ppt_witness(2)
    dec = IsotropicDecomposition(2, 1, np.array([1.0, 0.0]))
    assert not recursion_certificate(dec, w)
    (rec,) = recursion_trace(dec, w)
    assert rec.implied == pytest.approx(1.0, abs=1e-9)
    # contradiction: contraction has eigenvalue -p/d
    assert rec.min_eigenvalue == pytest.approx(-0.5, abs=1e-9)


def test_recursion_refutes_single_label_n2():
    w = build_ppt_witness(2)
    coeffs = np.zeros((2, 2))
    coeffs[1, 0] = 1.0  # complement (x) entangled projector
    dec = IsotropicDecomposition(2, 2, coeffs)
    assert not recursion_certificate(dec, w)
    rec = next(r for r in recursion_trace(dec, w) if r.label == (1, 0))
    assert rec.implied == pytest.approx(1.0, abs=1e-9)
    # contraction equals trace_value * p * Phi^Gamma: min eigenvalue -2 * 1/2
    assert rec.min_eigenvalue == pytest.approx(-1.0, abs=1e-9)


def test_recursion_implied_matches_planted():
    w = build_ppt_witness(2)
    rng = np.random.default_rng(7)
    coeffs = rng.random((2, 2))
    coeffs[1, 1] = 0.0
    dec = IsotropicDecomposition(2, 2, coeffs)
    for rec in recursion_trace(dec, w):
        assert rec.implied == pytest.approx(dec.coefficients[rec.label], abs=1e-9)


def test_recursion_rejects_unconstrained():
    w = build_ppt_witness(2)
    dec = IsotropicDecomposition(2, 1, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        recursion_certificate(dec, w)


def test_projection_produces_ppt():
    rng = np.random.default_rng(11)
    for _ in range(10):
        cand = project_to_ppt(random_psd(4, rng), 2, 1)
        assert cand is not None
        assert is_ppt(cand, 2, 1, tol=1e-8)
        assert np.trace(cand).real == pytest.approx(1.0, abs=1e-9)


def test_projection_clips_the_direct_side():
    # Phi^Gamma = SWAP/2 is trace one with eigenvalue -1/2 and its partial
    # transpose Phi is PSD, so only the direct-side clip can make it PSD
    swap = partial_transpose(max_entangled_projector(2), (2, 2), 0)
    u = random_unitary(4, np.random.default_rng(13))
    mixed = u @ np.diag([0.6, 0.5, 0.2, -0.3]) @ u.conj().T
    for m in (swap, mixed):
        assert np.trace(m).real == pytest.approx(1.0)
        assert np.linalg.eigvalsh(m).min() < -0.1
        cand = project_to_ppt(m, 2, 1)
        assert cand is not None
        assert np.linalg.eigvalsh(cand).min() >= -1e-8
        # the returned matrix itself passed both checks at project_to_ppt's tol
        assert is_ppt(cand, 2, 1, tol=1e-10)
        assert np.trace(cand).real == pytest.approx(1.0, abs=1e-9)


def two_eigh_project_to_ppt(m, d, n, max_rounds=200, tol=1e-10):
    """project_to_ppt as it was, deciding the transpose side by eigh alone."""
    cur = np.asarray(m, dtype=complex)
    cur = (cur + cur.conj().T) / 2
    cur = cur / np.trace(cur).real
    for _ in range(max_rounds):
        if max(0.0, -np.linalg.eigvalsh(cur).min()) > tol:
            w, v = np.linalg.eigh(cur)
            cur = (v * np.clip(w, 0.0, None)) @ v.conj().T
            cur = cur / np.trace(cur).real
            continue
        g = pairwise_partial_transpose(cur, d, n)
        wg, vg = np.linalg.eigh(g)
        if wg.min() >= -tol:
            return cur
        g = (vg * np.clip(wg, 0.0, None)) @ vg.conj().T
        cur = pairwise_partial_transpose(g, d, n)
        cur = (cur + cur.conj().T) / 2
        cur = cur / np.trace(cur).real
    return None


@pytest.mark.parametrize("d,n,count", [(2, 1, 30), (2, 2, 20), (3, 1, 30), (3, 2, 8)])
def test_projection_matches_two_eigh_rule(d, n, count):
    for t in range(count):
        m = _search_candidates(d, n, 7, t, t + 1)[0]
        got, want = project_to_ppt(m, d, n), two_eigh_project_to_ppt(m, d, n)
        assert (got is None) == (want is None)
        assert got is None or np.array_equal(got, want)


def transpose_edge_input(d, n, lam, rng):
    """Trace-one matrix with PD direct side whose pairwise transpose has least eigenvalue lam.

    An isotropic pair state p Phi + (1-p)(I-Phi)/(d^2-1) has a transpose with
    least eigenvalue (1 - d p) / (d (d-1)); the other n-1 pairs are maximally
    mixed, which scales it by d^(2(1-n)), and a local unitary hides the basis.
    """
    target = lam * d ** (2 * (n - 1))
    p = (1 - target * d * (d - 1)) / d
    phi = max_entangled_projector(d)
    pair = p * phi + (1 - p) * (np.eye(d * d) - phi) / (d * d - 1)
    local = np.kron(random_unitary(d, rng), random_unitary(d, rng))
    pair = local @ pair @ local.conj().T
    return tensor(pair, *[np.eye(d * d) / (d * d)] * (n - 1))


@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (2, 2)])
@pytest.mark.parametrize("scale,certified,clipped,side", [
    # the side under test has lambda_min = -scale * tol, the other is PD
    pytest.param(0.25, True, False, "transpose", id="0.25-True-False"),  # Cholesky accepts
    pytest.param(0.75, False, False, "transpose", id="0.75-False-False"),  # eigh accepts
    pytest.param(2.0, False, True, "transpose", id="2.0-False-True"),  # eigh clips
    pytest.param(0.25, True, False, "direct", id="direct-0.25-True-False"),
    pytest.param(0.75, False, False, "direct", id="direct-0.75-False-False"),
    pytest.param(2.0, False, True, "direct", id="direct-2.0-False-True"),
])
def test_projection_at_the_transpose_tolerance(d, n, scale, certified, clipped, side, monkeypatch):
    tol = 1e-10
    m = transpose_edge_input(d, n, -scale * tol, np.random.default_rng(31))
    if side == "direct":
        m = pairwise_partial_transpose(m, d, n)
    start = (m + m.conj().T) / 2
    start = start / np.trace(start).real
    edge, other = start, pairwise_partial_transpose(start, d, n)
    if side == "transpose":
        edge, other = other, edge
    assert np.linalg.eigvalsh(other).min() > 0.01
    assert np.linalg.eigvalsh(edge).min() == pytest.approx(-scale * tol, rel=1e-3)
    want = two_eigh_project_to_ppt(m, d, n)
    eigh_calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        eigh_calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    one_round = project_to_ppt(m, d, n, max_rounds=1, tol=tol)
    assert len(eigh_calls) == (0 if certified else 1)
    got = project_to_ppt(m, d, n, tol=tol)
    assert got is not None and np.array_equal(got, want)
    if not clipped:
        assert np.array_equal(one_round, start) and np.array_equal(got, start)
    elif side == "direct":
        # the round that clips the direct side goes on to check the transpose
        assert np.array_equal(one_round, got) and not np.array_equal(got, start)
    else:
        assert one_round is None and not np.array_equal(got, start)


def mixed_stack(d, n):
    """Four search candidates and the edge inputs at 0.25, 0.75 and 2.0 tol on either side."""
    rng = np.random.default_rng(37)
    stack = list(_search_candidates(d, n, 7, 0, 4))
    for scale in (0.25, 0.75, 2.0):
        edge = transpose_edge_input(d, n, -scale * 1e-10, rng)
        stack += [edge, pairwise_partial_transpose(edge, d, n)]
    return np.array(stack)


@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (2, 2)])
def test_stack_matches_each_matrix_alone(d, n, monkeypatch):
    stack = mixed_stack(d, n)
    eigh_calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        eigh_calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    want = [project_to_ppt(m, d, n) for m in stack]
    alone = len(eigh_calls)
    eigh_calls.clear()
    got = _project_stack(stack, d, n)
    # two edge inputs fail Cholesky on the direct side: one eigh decides the whole stack
    assert eigh_calls[0] == stack.shape and len(eigh_calls) < alone
    assert len(got) == len(stack)
    for m, a, b in zip(stack, got, want):
        assert a is not None and np.array_equal(a, b)
        assert np.array_equal(a, two_eigh_project_to_ppt(m, d, n))


@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (2, 2)])
def test_stack_at_one_round_mixes_converged_and_none(d, n):
    stack = mixed_stack(d, n)
    got = _project_stack(stack, d, n, max_rounds=1)
    want = [project_to_ppt(m, d, n, max_rounds=1) for m in stack]
    assert [a is None for a in got] == [b is None for b in want]
    assert any(a is None for a in got) and any(a is not None for a in got)
    assert all(a is None or np.array_equal(a, b) for a, b in zip(got, want))


def test_non_finite_matrix_raises_naming_its_candidate():
    stack = _search_candidates(2, 1, 7, 10, 14)
    stack[2, 0, 1] = np.nan
    with pytest.raises(ValueError, match="candidate 12 is not finite"):
        _project_stack(stack, 2, 1, first=10)
    # an infinite entry, and a trace of zero to normalize by
    for m in (np.full((4, 4), np.inf), np.diag([1.0, -1.0, 0.0, 0.0])):
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="candidate 0 is not finite"):
                project_to_ppt(m, 2, 1)


def assert_same_search(got, want):
    """Equal counts and minimum (the dataclass equality), and bit-equal coefficients."""
    assert got == want
    assert np.array_equal(got.coefficients, want.coefficients)


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1)])
def test_search_does_not_depend_on_the_window(d, n, monkeypatch):
    side = d ** (2 * n)
    trials = 40  # a multiple of none of the windows below but 1
    default = ppt_search(d, n, trials, 7)
    assert default.coefficients.shape == (default.accepted, 2**n)
    for window in (1, 7):
        monkeypatch.setattr(zecheck.ppt, "_WINDOW_AMPLITUDES", window * side * side)
        assert_same_search(ppt_search(d, n, trials, 7), default)


@pytest.mark.parametrize("d,n,trials", [(3, 2, 6), (2, 2, 64)])
def test_search_does_not_depend_on_the_cpu_count(d, n, trials, cpus):
    cpus(1)
    alone = ppt_search(d, n, trials, 7)
    cpus(3)
    assert_same_search(ppt_search(d, n, trials, 7), alone)


def test_a_worker_failure_fails_search_floor_as_one_cpu_does(monkeypatch, cpus):
    draw = zecheck.ppt._search_candidates

    def poisoned(d, n, seed, start, stop):
        ms = draw(d, n, seed, start, stop)
        # windows 1 and 2 of 16 candidates: with 2 CPUs a child's and this
        # process's share, with 3 each a child's
        for t in (20, 40):
            if start <= t < stop:
                ms[t - start, 0, 1] = np.nan
        return ms

    monkeypatch.setattr(zecheck.ppt, "_search_candidates", poisoned)
    details = []
    for k in (1, 2, 3):
        cpus(k)
        config = RunConfig(d=2, n=2, suites=("ppt",), trials=5)
        floor = next(c for c in execute(config).claims if c.claim_id == "ppt.search_floor")
        assert not floor.passed and floor.value is None
        details.append(floor.detail)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert details == ["ValueError: candidate 20 is not finite"] * 3


@pytest.mark.parametrize("d,n,trials,windows", [
    (2, 2, 40, [16, 16, 8]),
    (3, 1, 105, [50, 50, 5]),
    (3, 2, 2, [1, 1]),  # an 81x81 candidate is projected alone
])
def test_search_windows(d, n, trials, windows, monkeypatch, cpus):
    cpus(1)  # one worker projects every window, in order
    sizes = []
    project = zecheck.ppt._project_stack

    def recording(ms, *args, **kwargs):
        sizes.append(len(ms))
        return project(ms, *args, **kwargs)

    monkeypatch.setattr(zecheck.ppt, "_project_stack", recording)
    ppt_search(d, n, trials, 7)
    assert sizes == windows


def rechecking_search(d, n, trials, seed):
    """ppt_search as it was with an is_ppt re-check of every accepted candidate.

    The coefficients are each accepted candidate's own `isotropic_twirl_n`.
    """
    skipped = 0
    scores, coefficients = [], []
    for t in range(trials):
        candidate = project_to_ppt(_search_candidates(d, n, seed, t, t + 1)[0], d, n)
        if candidate is None or not is_ppt(candidate, d, n, tol=1e-8):
            skipped += 1
            continue
        scores.append(constraint_score(candidate, d, n))
        coefficients.append(isotropic_twirl_n(candidate, d, n).coefficients.ravel())
    return PPTSearchResult(len(scores), skipped, min(scores) if scores else None,
                           np.array(coefficients).reshape(len(scores), 2**n))


@pytest.mark.parametrize("seed", [7, 123])
@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1)])
def test_search_matches_rechecking_reference(d, n, seed):
    assert_same_search(ppt_search(d, n, 20, seed), rechecking_search(d, n, 20, seed))


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1)])
def test_search_draws_candidate_t_from_case_rng(d, n):
    seed, trials = 7, 20
    scores, coefficients = [], []
    for t in range(trials):
        m = random_psd(d ** (2 * n), case_rng(seed, "ppt", 40_000 + t))
        candidate = project_to_ppt(m, d, n)
        assert candidate is not None
        scores.append(constraint_score(candidate, d, n))
        coefficients.append(isotropic_twirl_n(candidate, d, n).coefficients.ravel())
    assert_same_search(ppt_search(d, n, trials, seed),
                       PPTSearchResult(trials, 0, min(scores), np.array(coefficients)))


def test_search_floor_and_fields():
    res = ppt_search(2, 1, 200, 7)
    assert res.accepted + res.skipped == 200
    assert res.min_value is not None and res.min_value > 0.45


def test_search_reproducible():
    assert_same_search(ppt_search(2, 1, 50, 123), ppt_search(2, 1, 50, 123))


def test_search_rejects_zero_trials():
    with pytest.raises(ValueError):
        ppt_search(2, 1, 0, 1)


# the claims that read the run's one PPT search, and so fail with it
SEARCH_CLAIMS = ("ppt.search_floor", "ppt.twirl_preserves", "ppt.constraint_unreachable")


def test_search_failure_fails_only_search_floor(monkeypatch):
    calls = []

    def broken(d, n, trials, seed):
        calls.append(trials)
        raise RuntimeError("search diverged")

    monkeypatch.setattr("zecheck.suites.ppt_search", broken)
    claims = {c.claim_id: c for c in execute(RunConfig(d=2, suites=("ppt",), trials=5)).claims}
    assert "ppt.panic" not in claims
    for cid in SEARCH_CLAIMS:
        claim = claims.pop(cid)
        assert not claim.passed and claim.value is None, cid
        assert "RuntimeError: search diverged" in claim.detail, cid
    assert calls == [50]  # one search of 10 * trials candidates, whatever reads it
    assert len(claims) == 5 and all(c.passed for c in claims.values())


def test_twirl_checks_fail_when_no_candidate_converges(monkeypatch):
    monkeypatch.setattr(zecheck.ppt, "_project_stack", lambda ms, *args, **kwargs: [None] * len(ms))
    claims = {c.claim_id: c for c in execute(RunConfig(d=2, suites=("ppt",), trials=5)).claims}
    floor = claims.pop("ppt.search_floor")
    assert not floor.passed and floor.value is None
    assert floor.detail == "accepted=0 skipped=50"
    for cid in ("ppt.twirl_preserves", "ppt.constraint_unreachable"):
        claim = claims.pop(cid)
        assert not claim.passed, cid
        assert "RuntimeError: the PPT search accepted no candidate" in claim.detail, cid
    assert len(claims) == 5 and all(c.passed for c in claims.values())


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1)])
def test_three_claims_read_one_sample_set(d, n, monkeypatch):
    calls = []
    search = zecheck.suites.ppt_search

    def counting(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr("zecheck.suites.ppt_search", counting)
    claims = {c.claim_id: c for c in execute(RunConfig(d=d, n=n, suites=("ppt",), trials=5)).claims}
    assert calls == [(d, n, 50, 1)]
    accepted = dict(kv.split("=") for kv in claims["ppt.search_floor"].detail.split())["accepted"]
    assert int(accepted) > 0
    for cid in ("ppt.twirl_preserves", "ppt.constraint_unreachable"):
        assert claims[cid].passed and claims[cid].detail == f"candidates={accepted}", cid


def test_transposed_eigenvalues_match_the_dense_spectrum():
    rng = np.random.default_rng(41)
    for d, n in [(2, 1), (3, 1), (2, 2)]:
        p = rng.standard_normal(2**n)
        rec = IsotropicDecomposition(d, n, p.reshape((2,) * n)).reconstruct()
        # each pair's transpose lives on its symmetric and antisymmetric subspace
        sym, anti = d * (d + 1) // 2, d * (d - 1) // 2
        mult = tensor(*[np.array([sym, anti])] * n).real.astype(int)
        want = np.repeat(transposed_eigenvalues(p[None], d, n)[0], mult)
        got = np.linalg.eigvalsh(pairwise_partial_transpose(rec, d, n))
        np.testing.assert_allclose(got, np.sort(want), atol=1e-12)
        np.testing.assert_allclose(np.linalg.eigvalsh(rec),
                                   np.sort(np.repeat(p, label_ranks(d, n).astype(int))),
                                   atol=1e-12)
