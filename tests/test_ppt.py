import os
import time
import traceback

import numpy as np
import pytest

import zecheck.ppt
import zecheck.sampling
import zecheck.suites
from zecheck.linalg import (
    max_entangled_projector,
    partial_transpose,
    random_psd,
    random_unitary,
    tensor,
)
from zecheck.ppt import (
    IsotropicDecomposition,
    PPTSearch,
    PPTSearchResult,
    _hermitized,
    _normalized,
    _project_stack,
    _psd_clip,
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
from zecheck.report import SUITE_NAMES, SUPPORTED_D, SUPPORTED_N, RunConfig
from zecheck.suites import execute

from conftest import case_rng


def project_stack(ms, d, n, max_rounds=None):
    """_project_stack, with ppt._MAX_ROUNDS set to max_rounds for the call when one is given."""
    with pytest.MonkeyPatch.context() as mp:
        if max_rounds is not None:
            mp.setattr(zecheck.ppt, "_MAX_ROUNDS", max_rounds)
        return _project_stack(ms, d, n)


def project_to_ppt(m, d, n, max_rounds=None):
    """One matrix through the stacked projector: a trace-one PPT matrix or None."""
    return project_stack(np.asarray(m)[None], d, n, max_rounds)[0]


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


# the search candidates (d, n, seed, t) whose alternation clips the direct side after round 0
DIRECT_CLIP_CANDIDATES = [(3, 1, 5, 616), (3, 1, 7, 486), (2, 2, 5, 110)]


def test_projection_clips_the_direct_side():
    tol = zecheck.ppt._PSD_TOL
    for d, n, seed, t in DIRECT_CLIP_CANDIDATES:
        m = _search_candidates(d, n, seed, t, t + 1)[0]
        # round 0 clips the transpose, and the matrix it leaves has a direct side to clip
        w, v = np.linalg.eigh(pairwise_partial_transpose(m, d, n))
        assert w.min() < -tol
        after = pairwise_partial_transpose((v * np.clip(w, 0.0, None)) @ v.conj().T, d, n)
        assert np.linalg.eigvalsh(after).min() < -tol * np.trace(after).real
        cand = project_to_ppt(m, d, n)
        assert cand is not None and np.array_equal(cand, two_eigh_project_to_ppt(m, d, n))
        # the returned matrix itself passed both checks at project_to_ppt's tol
        assert is_ppt(cand, d, n, tol=tol)
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


def counted_calls(monkeypatch, module, name):
    """The argument shapes of every call of module.name from now on, in call order."""
    calls = []
    f = getattr(module, name)

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return f(a, *args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (2, 2)])
@pytest.mark.parametrize("scale,certified,clipped,side", [
    # the edge matrix has lambda_min = -scale * tol; the other side of it is PD
    pytest.param(0.25, True, False, "transpose", id="0.25-True-False"),  # Cholesky accepts
    pytest.param(0.75, False, False, "transpose", id="0.75-False-False"),  # eigh accepts
    pytest.param(2.0, False, True, "transpose", id="2.0-False-True"),  # eigh clips
    pytest.param(0.25, True, False, "direct", id="direct-0.25-True-False"),
    pytest.param(0.75, False, False, "direct", id="direct-0.75-False-False"),
    pytest.param(2.0, False, True, "direct", id="direct-2.0-False-True"),
])
def test_projection_at_the_transpose_tolerance(d, n, scale, certified, clipped, side, monkeypatch):
    """`_psd_clip`, the rule of every check after round 0, at its tolerance edge.

    "transpose" gives it the edge alone, as the pairwise transpose of a PD
    matrix, and projects that matrix, whose round 0 decides the transposed
    side by one eigh; "direct" gives it the edge as the direct side of a
    stack's second matrix, beside a PD one, as a later round's direct check
    sees its active matrices.
    """
    tol = zecheck.ppt._PSD_TOL
    m = transpose_edge_input(d, n, -scale * tol, np.random.default_rng(31))
    start = (m + m.conj().T) / 2
    start = start / np.trace(start).real
    edge = pairwise_partial_transpose(start, d, n)
    assert np.linalg.eigvalsh(start).min() > 0.01
    assert np.linalg.eigvalsh(edge).min() == pytest.approx(-scale * tol, rel=1e-3)
    stack = edge[None] if side == "transpose" else np.array([start, edge])
    eigh_calls = counted_calls(monkeypatch, np.linalg, "eigh")
    clip, fixed = _psd_clip(stack)
    assert len(eigh_calls) == (0 if certified else 1)
    if not clipped:
        assert clip is None and fixed is None
    else:
        assert clip.tolist() == [False] * (len(stack) - 1) + [True]
        w, v = np.linalg.eigh(edge)
        assert np.array_equal(fixed[0], (v * np.clip(w, 0.0, None)) @ v.conj().T)
    if side == "direct":
        return
    want = two_eigh_project_to_ppt(m, d, n)
    eigh_calls.clear()
    one_round = project_to_ppt(m, d, n, max_rounds=1)
    assert eigh_calls == [edge[None].shape]
    got = project_to_ppt(m, d, n)
    assert got is not None and np.array_equal(got, want)
    if not clipped:
        assert np.array_equal(one_round, start) and np.array_equal(got, start)
    else:
        assert one_round is None and not np.array_equal(got, start)


def mixed_stack(d, n):
    """Four search candidates, the edge inputs at 0.25, 0.75 and 2.0 tol, and the direct clips."""
    rng = np.random.default_rng(37)
    stack = list(_search_candidates(d, n, 7, 0, 4))
    stack += [transpose_edge_input(d, n, -scale * 1e-10, rng) for scale in (0.25, 0.75, 2.0)]
    stack += [_search_candidates(d, n, seed, t, t + 1)[0]
              for cd, cn, seed, t in DIRECT_CLIP_CANDIDATES if (cd, cn) == (d, n)]
    return np.array(stack)


@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (2, 2)])
def test_stack_matches_each_matrix_alone(d, n, monkeypatch):
    stack = mixed_stack(d, n)
    eigh_calls = counted_calls(monkeypatch, np.linalg, "eigh")
    want = [project_to_ppt(m, d, n) for m in stack]
    alone = len(eigh_calls)
    eigh_calls.clear()
    got = _project_stack(stack, d, n)
    # round 0 decides the transposes of the whole stack by one eigh
    assert eigh_calls[0] == stack.shape and len(eigh_calls) < alone
    assert len(got) == len(stack)
    for m, a, b in zip(stack, got, want):
        assert a is not None and np.array_equal(a, b)
        assert np.array_equal(a, two_eigh_project_to_ppt(m, d, n))


@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (2, 2)])
def test_stack_at_one_round_mixes_converged_and_none(d, n):
    stack = mixed_stack(d, n)
    got = project_stack(stack, d, n, max_rounds=1)
    want = [project_to_ppt(m, d, n, max_rounds=1) for m in stack]
    assert [a is None for a in got] == [b is None for b in want]
    assert any(a is None for a in got) and any(a is not None for a in got)
    assert all(a is None or np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("d,n,window", [(3, 2, 1), (2, 2, 16)])
def test_a_window_makes_one_eigh_one_cholesky_and_two_transposes(d, n, window, monkeypatch):
    # round 0: a transpose and its eigh, and the clips transposed back; round 1: the
    # direct side's Cholesky, which retires every candidate
    stack = _search_candidates(d, n, 7, 0, window)
    eigh_calls = counted_calls(monkeypatch, np.linalg, "eigh")
    cholesky_calls = counted_calls(monkeypatch, np.linalg, "cholesky")
    transposes = counted_calls(monkeypatch, zecheck.ppt, "pairwise_partial_transpose")
    got = _project_stack(stack, d, n)
    assert all(m is not None for m in got)
    assert eigh_calls == cholesky_calls == [stack.shape] and transposes == [stack.shape] * 2


@pytest.mark.parametrize("d", SUPPORTED_D)
@pytest.mark.parametrize("n", SUPPORTED_N)
def test_the_skipped_round_0_direct_check_would_pass(d, n):
    # _project_stack does not check round 0's direct side: a drawn candidate is a Gram
    for start in range(0, 200, 50):
        stack = _search_candidates(d, n, 7, start, start + 50)
        names = np.arange(start, start + 50)
        assert _psd_clip(_normalized(_hermitized(stack), names)) == (None, None)


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
        monkeypatch.setattr(zecheck.sampling, "_WINDOW_AMPLITUDES", window * side * side)
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
        # windows 1 and 2 of 16 candidates, whichever worker takes them
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


def test_a_search_that_fails_to_start_fails_its_claims_as_one_cpu_does(monkeypatch, cpus):
    calls = []

    def broken(fmap, fn, items):
        calls.append(len(items))
        raise RuntimeError("no window map")

    monkeypatch.setattr(zecheck.sampling.ForkedMap, "__init__", broken)
    for k in (1, 2, 3):
        cpus(k)
        report = execute(RunConfig(d=2, n=2, suites=("ppt",), trials=5))
        claims = {c.claim_id: c for c in report.claims}
        for cid in SEARCH_CLAIMS:
            claim = claims.pop(cid)
            assert not claim.passed and claim.value is None, cid
            assert claim.detail == "RuntimeError: no window map", cid
        assert len(claims) == 5 and all(c.passed for c in claims.values())
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert calls == [4] * 3  # 50 candidates in windows of 16; the claims retry no failed start


def recorded_contexts(monkeypatch):
    """The list of every suites._Context that execute builds from now on."""
    contexts = []

    class Recorded(zecheck.suites._Context):
        def __init__(self, config):
            super().__init__(config)
            contexts.append(self)

    monkeypatch.setattr(zecheck.suites, "_Context", Recorded)
    return contexts


def test_a_fork_that_fails_mid_start_fails_the_search_claims(monkeypatch, cpus):
    cpus(3)  # the search would fork two children; the second fork fails
    contexts = recorded_contexts(monkeypatch)
    fork = os.fork
    forks = []

    def second_fork_fails():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError(11, "fork refused")
        return fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    claims = {c.claim_id: c for c in execute(RunConfig(d=2, n=2, suites=("ppt",), trials=5)).claims}
    for cid in SEARCH_CLAIMS:
        assert claims.pop(cid).detail == "BlockingIOError: [Errno 11] fork refused", cid
    assert len(claims) == 5 and all(c.passed for c in claims.values())
    assert len(forks) == 2 and "started" not in vars(contexts[0])  # no started map was built
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Interrupt(BaseException):
    pass


def test_a_base_exception_before_search_floor_leaves_no_search_worker(monkeypatch, cpus):
    cpus(2)  # the search's child is forked before the first claim
    parent = os.getpid()
    draw = zecheck.ppt._search_candidates

    def slow_in_children(*args):
        if os.getpid() != parent:
            time.sleep(60)
        return draw(*args)

    def interrupt(ctx):
        raise Interrupt

    monkeypatch.setattr(zecheck.ppt, "_search_candidates", slow_in_children)
    contexts = recorded_contexts(monkeypatch)
    monkeypatch.setattr(zecheck.suites, "_CLAIMS", [
        spec._replace(compute=interrupt) if spec.claim_id == "ppt.uniform_score" else spec
        for spec in zecheck.suites._CLAIMS
    ])
    start = time.monotonic()
    with pytest.raises(Interrupt):
        execute(RunConfig(d=2, n=2, suites=("ppt",), trials=5))
    started = contexts[0].started  # execute closed the map its context owns
    assert time.monotonic() - start < 30 and not started.pids and started.queue is None
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_ppt_search_joins_the_started_search(monkeypatch, cpus):
    cpus(2)
    alone = ppt_search(2, 2, 50, 7)
    contexts = recorded_contexts(monkeypatch)
    joined = []
    result = PPTSearch.result

    def recording(search):
        joined.append(search)
        return result(search)

    monkeypatch.setattr(PPTSearch, "result", recording)
    report = execute(RunConfig(d=2, n=2, suites=("ppt",), trials=5, seed=7))
    started = contexts[0].started
    assert joined == [started] and not started.pids and started.queue is None
    assert_same_search(contexts[0].search, alone)
    assert report.overall_pass
    started.close()  # nothing left to end after the join
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_started_search_forks_at_once_and_its_join_matches_ppt_search(cpus):
    cpus(3)
    alone = ppt_search(2, 2, 64, 7)
    started = PPTSearch(2, 2, 64, 7)
    assert len(started.pids) == 2  # the workers search before any join
    assert_same_search(started.result(), alone)
    assert not started.pids and started.queue is None
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("suites,forks", [
    (SUITE_NAMES, 2),
    (tuple(s for s in SUITE_NAMES if s != "ppt"), 0),
], ids=["all-suites", "without-ppt"])
def test_the_search_is_the_only_map_a_run_forks(suites, forks, monkeypatch, cpus):
    cpus(3)  # the search's 4 windows of 16 candidates go to this process and 2 children
    fork = os.fork
    callers = []

    def recording_fork():
        callers.append([(os.path.basename(f.filename), f.name) for f in traceback.extract_stack()])
        return fork()

    monkeypatch.setattr(os, "fork", recording_fork)
    report = execute(RunConfig(d=2, n=2, suites=suites, trials=5, seed=7))
    assert report.overall_pass and len(report.claims) > 20
    assert len(callers) == forks
    assert all(("ppt.py", "__init__") in frames for frames in callers)  # PPTSearch's


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


def twirled(candidate, d, n):
    """The candidate's own `isotropic_twirl_n` coefficients, whose last one times the rank
    of (I-Phi)^(x)n must be its dense `constraint_score` to within 1e-14."""
    p = isotropic_twirl_n(candidate, d, n).coefficients.ravel()
    assert abs(constraint_score(candidate, d, n) - label_ranks(d, n)[-1] * p[-1]) <= 1e-14
    return p


def reference_result(coefficients, skipped, d, n):
    """The PPTSearchResult whose minimum is rank times the least all-complement coefficient."""
    coefficients = np.array(coefficients).reshape(-1, 2**n)
    floor = float(label_ranks(d, n)[-1] * coefficients[:, -1].min()) if len(coefficients) else None
    return PPTSearchResult(len(coefficients), skipped, floor, coefficients)


def rechecking_search(d, n, trials, seed):
    """ppt_search as it was with an is_ppt re-check of every accepted candidate.

    The coefficients are each accepted candidate's own `isotropic_twirl_n`.
    """
    skipped = 0
    coefficients = []
    for t in range(trials):
        candidate = project_to_ppt(_search_candidates(d, n, seed, t, t + 1)[0], d, n)
        if candidate is None or not is_ppt(candidate, d, n, tol=1e-8):
            skipped += 1
            continue
        coefficients.append(twirled(candidate, d, n))
    return reference_result(coefficients, skipped, d, n)


@pytest.mark.parametrize("seed", [7, 123])
@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1)])
def test_search_matches_rechecking_reference(d, n, seed):
    assert_same_search(ppt_search(d, n, 20, seed), rechecking_search(d, n, 20, seed))


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1)])
def test_search_draws_candidate_t_from_case_rng(d, n):
    seed, trials = 7, 20
    coefficients = []
    for t in range(trials):
        m = random_psd(d ** (2 * n), case_rng(seed, "ppt", 40_000 + t))
        candidate = project_to_ppt(m, d, n)
        assert candidate is not None
        coefficients.append(twirled(candidate, d, n))
    assert_same_search(ppt_search(d, n, trials, seed),
                       reference_result(coefficients, 0, d, n))


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

    def broken(search):
        calls.append(search.trials)
        raise RuntimeError("search diverged")

    monkeypatch.setattr(PPTSearch, "result", broken)
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

    class Counting(PPTSearch):
        def __init__(self, *args):
            calls.append(args)
            super().__init__(*args)

        def result(self):
            calls.append("joined")
            return super().result()

    monkeypatch.setattr(zecheck.suites, "PPTSearch", Counting)
    claims = {c.claim_id: c for c in execute(RunConfig(d=d, n=n, suites=("ppt",), trials=5)).claims}
    assert calls == [(d, n, 50, 1), "joined"]  # one search, started and joined once
    accepted = dict(kv.split("=") for kv in claims["ppt.search_floor"].detail.split())["accepted"]
    assert int(accepted) > 0
    for cid in ("ppt.twirl_preserves", "ppt.constraint_unreachable"):
        assert claims[cid].passed and claims[cid].detail == f"accepted={accepted}", cid


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
