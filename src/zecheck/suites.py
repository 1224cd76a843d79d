"""Verification suites and the deterministic execution harness.

Each suite turns one group of mathematical claims into ClaimResult
records.  All randomness comes from counter-based generators keyed by
(seed, suite, case), so running any subset of suites reproduces the
full run's numbers exactly.

The `trials` knob scales sample counts: the channel identity uses
`trials` pairs (max(3, trials // 2) at d=3, n=2, where each pair is
one fused pass over 216^2 flag tuples), the orthogonality equivalence
2*trials random plus trials/2 structured pairs, the code-impossibility
sweep 5*trials candidate pairs, and the PPT search 10*trials
projections.
"""

from __future__ import annotations

import time
from itertools import product

import numpy as np

from .channel import (
    BlockStateVector,
    apply_n,
    build_channel,
    conservation_residuals,
    output_overlap,
    random_block_state,
)
from .designs import (
    clock,
    conjugate_twirl,
    enumerate_clifford,
    find_minimal_subdesign,
    frame_potential,
    isotropic_projection,
    multiplication_table,
)
from .linalg import (
    basis_state,
    max_entangled_projector,
    min_eigenvalue,
    partial_transpose,
    projector,
    random_psd,
    random_unitary,
    support_null,
    tensor,
    trace_distance,
    trace_inner,
)
from .ncgraph import condition_checks, contains, full_matrix_space, graph_span, operator_span
from .ppt import (
    IsotropicDecomposition,
    build_ppt_witness,
    constraint_score,
    isotropic_twirl_n,
    pairwise_partial_transpose,
    ppt_search,
    project_to_ppt,
    recursion_certificate,
    recursion_trace,
)
from .privacy import run_protocol, transpose_trick_residual, verify_secrecy
from .report import (
    ClaimResult,
    RunConfig,
    SUITE_NAMES,
    TOOLKIT_VERSION,
    VerificationReport,
)
from .zero_error import (
    averaged_output_overlap,
    code_pair_conditions,
    design_average_overlap_operator,
    disjoint_support,
    overlap_operator,
    overlap_support_projector,
)

SUITE_IDS = {name: i for i, name in enumerate(SUITE_NAMES)}


def case_rng(seed: int, suite: str, case: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, suite, case)."""
    ss = np.random.SeedSequence([int(seed), SUITE_IDS[suite], int(case)])
    return np.random.Generator(np.random.Philox(ss))


class _Context:
    """Lazily built shared objects; identical for any suite subset."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.warnings: list[str] = []
        self._family = None
        self._channel = None
        self._alt_family = "unset"

    def family(self):
        if self._family is None:
            self._family = enumerate_clifford(self.config.d)
        return self._family

    def channel(self):
        if self._channel is None:
            self._channel = build_channel(self.config.d, self.family())
        return self._channel

    def alt_family(self):
        if self._alt_family == "unset":
            self._alt_family = (
                find_minimal_subdesign(self.family()) if self.config.d == 2 else None
            )
        return self._alt_family


def _claim(claims, suite, cid, statement, compute):
    t0 = time.perf_counter()
    try:
        value, tol, passed, detail = compute()
        value = None if value is None else float(value)
        tol = None if tol is None else float(tol)
    except Exception as exc:  # suite must keep going; the claim records the failure
        value, tol, passed, detail = None, None, False, f"{type(exc).__name__}: {exc}"
    claims.append(
        ClaimResult(
            suite=suite,
            claim_id=cid,
            statement=statement,
            passed=bool(passed),
            value=value,
            tolerance=tol,
            runtime_ms=(time.perf_counter() - t0) * 1000.0,
            detail=detail,
        )
    )


# ---------------------------------------------------------------- design


def _design_suite(ctx: _Context) -> list[ClaimResult]:
    cfg = ctx.config
    d = cfg.d
    fam = ctx.family()
    phi = max_entangled_projector(d)
    comp = np.eye(d * d) - phi
    claims: list[ClaimResult] = []

    def members():
        eye = np.eye(d)
        worst = max(float(np.abs(g.conj().T @ g - eye).max()) for g in fam.members)
        return worst, 1e-9, worst <= 1e-9 and fam.verified, f"members={len(fam)}"

    _claim(claims, "design", "design.members",
           "every family member is unitary and phase-distinct", members)

    def closure():
        table = multiplication_table(fam)
        missing = int((table < 0).sum())
        return missing, None, missing == 0, ""

    _claim(claims, "design", "design.closure",
           "the family is closed under products modulo global phase", closure)

    def fp():
        dev = abs(frame_potential(fam) - 2.0)
        return dev, 1e-9, dev <= 1e-9, ""

    _claim(claims, "design", "design.frame_potential",
           "frame potential equals 2, certifying an exact 2-design", fp)

    def twirl_clock():
        worst = 0.0
        expected = phi - comp / (d * d - 1)
        z = clock(d)
        for a in range(1, d):
            za = np.linalg.matrix_power(z, a)
            got = conjugate_twirl(fam, np.kron(za, za.conj()))
            worst = max(worst, float(np.abs(got - expected).max()))
        return worst, 1e-9, worst <= 1e-9, ""

    _claim(claims, "design", "design.twirl_clock_form",
           "twirl of Z^a (x) conj(Z^a) equals Phi - (I-Phi)/(d^2-1) for a != 0",
           twirl_clock)

    def twirl_projection():
        rng = case_rng(cfg.seed, "design", 0)
        m = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        once = conjugate_twirl(fam, m)
        worst = float(np.abs(conjugate_twirl(fam, once) - once).max())
        worst = max(worst, float(np.abs(once - isotropic_projection(d, m)).max()))
        return worst, 1e-9, worst <= 1e-9, ""

    _claim(claims, "design", "design.twirl_projection",
           "the twirl is idempotent and matches its two-coefficient closed form",
           twirl_projection)

    def twirl_invariance():
        rng = case_rng(cfg.seed, "design", 1)
        m = random_psd(d * d, rng)
        twirled = conjugate_twirl(fam, m)
        worst = max(
            float(np.abs(twirled @ np.kron(g, g.conj()) - np.kron(g, g.conj()) @ twirled).max())
            for g in fam.members
        )
        worst = max(worst, abs(np.trace(twirled).real - np.trace(m).real))
        worst = max(worst, max(0.0, -min_eigenvalue(twirled)))
        return worst, 1e-9, worst <= 1e-9, ""

    _claim(claims, "design", "design.twirl_invariance",
           "twirled PSD operators stay PSD, keep their trace, and commute with every g (x) conj(g)",
           twirl_invariance)
    return claims


# ---------------------------------------------------------------- channel


def _channel_suite(ctx: _Context) -> list[ClaimResult]:
    cfg = ctx.config
    d, n = cfg.d, cfg.n
    ch = ctx.channel()
    m = len(ch.design)
    claims: list[ClaimResult] = []

    def phase_form():
        block = sum(
            np.kron(projector(basis_state(d, i)), ch.z_powers[i]) for i in range(d)
        )
        worst = float(np.abs(ch.phase_gate - block).max())
        return worst, 1e-12, worst <= 1e-12, ""

    _claim(claims, "channel", "channel.phase_gate_form",
           "the controlled phase equals sum_i |i><i| (x) Z^i", phase_form)

    def basis_messages():
        worst = 0.0
        for i in range(d):
            acc = None
            for k in range(d):
                psi = BlockStateVector.from_blocks(d, 1, {(i,): basis_state(d, k)})
                out = apply_n(ch, psi)
                acc = out.matrices / d if acc is None else acc + out.matrices / d
            target = projector(basis_state(d, i))
            worst = max(worst, float(np.abs(acc - target).max()))
        return worst, 1e-12, worst <= 1e-12, ""

    _claim(claims, "channel", "channel.basis_messages",
           "the channel maps |i><i| (x) I/d to |i><i| for every i", basis_messages)

    def conservation():
        worst = 0.0
        for case in range(5):
            rng = case_rng(cfg.seed, "channel", 100_000 + case)
            psi = random_block_state(d, n, rng)
            worst = max(worst, *conservation_residuals(ch, psi))
        return worst, 1e-9, worst <= 1e-9, ""

    _claim(claims, "channel", "channel.conservation",
           "branch weights times traces sum to 1 and every branch is PSD, both outputs",
           conservation)

    def central_identity():
        pairs = cfg.trials
        if (d, n) == (3, 2):
            # 216^2 flag tuples per output, 81 times as many as at (2, 2)
            pairs = max(3, cfg.trials // 2)
        worst = 0.0
        for case in range(pairs):
            rng = case_rng(cfg.seed, "channel", case)
            p1 = random_block_state(d, n, rng)
            p2 = random_block_state(d, n, rng)
            lhs = (m**n) * output_overlap(ch, p1, p2)
            rhs = averaged_output_overlap(p1, p2)
            worst = max(worst, abs(lhs - rhs))
        return worst, 1e-8, worst <= 1e-8, f"pairs={pairs}"

    _claim(claims, "channel", "channel.central_identity",
           "flag-branch output overlap equals the closed-form quadratic form",
           central_identity)

    if d == 2:
        alt = ctx.alt_family()
        if alt is None:
            ctx.warnings.append(
                "no proper sub-family reaches frame potential 2; "
                "design-independence spot check skipped"
            )
        else:
            def alt_identity():
                alt_ch = build_channel(d, alt)
                ma = len(alt)
                worst = 0.0
                for case in range(10):
                    rng = case_rng(cfg.seed, "channel", 200_000 + case)
                    p1 = random_block_state(d, n, rng)
                    p2 = random_block_state(d, n, rng)
                    lhs = (ma**n) * output_overlap(alt_ch, p1, p2)
                    rhs = averaged_output_overlap(p1, p2)
                    worst = max(worst, abs(lhs - rhs))
                return worst, 1e-8, worst <= 1e-8, f"alt size={ma}"

            _claim(claims, "channel", "channel.alt_design_identity",
                   "the overlap identity holds verbatim for a smaller exact 2-design",
                   alt_identity)
    return claims


# ---------------------------------------------------------------- zero-error


def _structured_pair(d, n, kind, rng):
    """Adversarial pair families; every kind keeps both routes decisively apart."""
    tuples = list(product(range(d), repeat=n))
    if kind == 0:  # random disjoint partition
        cut = rng.integers(1, len(tuples))
        order = rng.permutation(len(tuples))
        s1 = [tuples[i] for i in order[:cut]]
        s2 = [tuples[i] for i in order[cut:]]
        return (
            random_block_state(d, n, rng, support=s1),
            random_block_state(d, n, rng, support=s2),
        )
    if kind == 1:  # one shared tuple with heavy blocks
        shared = tuples[int(rng.integers(len(tuples)))]
        return (
            random_block_state(d, n, rng, support=[shared]),
            random_block_state(d, n, rng, support=[shared]),
        )
    if kind == 2:  # identical states
        psi = random_block_state(d, n, rng)
        return psi, BlockStateVector(d, n, psi.blocks.copy())
    if kind == 3:  # second state identically zero
        return random_block_state(d, n, rng), BlockStateVector.zero(d, n)
    if kind == 4:  # disjoint plus sub-tolerance dust on a shared tuple
        cut = max(1, len(tuples) // 2)
        p1 = random_block_state(d, n, rng, support=tuples[:cut])
        p2 = random_block_state(d, n, rng, support=tuples[cut:])
        dust = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
        p2.blocks[p2.flat_index(tuples[0])] = 1e-10 * dust / np.linalg.norm(dust)
        return p1, p2
    # kind 5: single-tuple states on distinct tuples
    a, b = rng.choice(len(tuples), size=2, replace=False)
    return (
        random_block_state(d, n, rng, support=[tuples[a]]),
        random_block_state(d, n, rng, support=[tuples[b]]),
    )


def _zero_error_suite(ctx: _Context) -> list[ClaimResult]:
    cfg = ctx.config
    d, n = cfg.d, cfg.n
    fam = ctx.family()
    claims: list[ClaimResult] = []
    op = overlap_operator(d)
    phi = max_entangled_projector(d)

    def closed_form():
        worst = float(np.abs(op - design_average_overlap_operator(fam)).max())
        return worst, 1e-9, worst <= 1e-9, ""

    _claim(claims, "zero-error", "zero_error.closed_form",
           "the closed-form overlap operator equals its design average", closed_form)

    def psd():
        worst = max(0.0, -min_eigenvalue(op))
        return worst, 1e-9, worst <= 1e-9, ""

    _claim(claims, "zero-error", "zero_error.psd",
           "the overlap operator is positive semidefinite", psd)

    def support_form():
        support, null = support_null(op, (d, d, d))
        worst = float(np.abs(support.projector() - overlap_support_projector(d)).max())
        return worst, 1e-9, worst <= 1e-9, f"null dim={null.dim}"

    _claim(claims, "zero-error", "zero_error.support_projector",
           "the support projector equals I (x) (I-Phi) + |nu><nu| (x) Phi", support_form)

    def null_dim():
        _, null = support_null(op, (d, d, d))
        return null.dim, None, null.dim == d - 1, f"expected {d - 1}"

    _claim(claims, "zero-error", "zero_error.null_dimension",
           "the null space dimension equals d-1", null_dim)

    def null_vectors():
        phi_vec = np.zeros(d * d, dtype=complex)
        phi_vec[:: d + 1] = 1.0 / np.sqrt(d)
        worst = 0.0
        for k in range(1, d):
            mu = (basis_state(d, 0) - basis_state(d, k)) / np.sqrt(2)
            worst = max(worst, float(np.linalg.norm(op @ np.kron(mu, phi_vec))))
        return worst, 1e-10, worst <= 1e-10, ""

    _claim(claims, "zero-error", "zero_error.null_vectors",
           "mu (x) Phi is annihilated for every mu orthogonal to the uniform vector",
           null_vectors)

    def dominance():
        # the unscaled comparison fails by exactly 1/(d+1): the coupling
        # matrix has minimal eigenvalue d/(d+1), which is the largest
        # admissible constant and all the zero-forcing argument needs
        lower = np.kron(np.eye(d), np.eye(d * d) - phi)
        c = d / (d + 1)
        worst = max(0.0, -min_eigenvalue(op - c * lower))
        tight = abs(min_eigenvalue(op - lower) + 1.0 / (d + 1))
        worst = max(worst, tight)
        return worst, 1e-9, worst <= 1e-9, f"largest constant {c:.6f}"

    _claim(claims, "zero-error", "zero_error.dominance",
           "the overlap operator dominates d/(d+1) times I (x) (I-Phi), tightly",
           dominance)

    def equivalence():
        random_pairs = 2 * cfg.trials
        structured_pairs = max(50, cfg.trials // 2)
        mismatches = 0
        for case in range(random_pairs):
            rng = case_rng(cfg.seed, "zero-error", case)
            mask_support = [
                t for t in product(range(d), repeat=n) if rng.random() < 0.6
            ] or None
            p1 = random_block_state(d, n, rng, support=mask_support)
            p2 = random_block_state(d, n, rng)
            if disjoint_support(p1, p2) != (averaged_output_overlap(p1, p2) <= 1e-8):
                mismatches += 1
        for case in range(structured_pairs):
            rng = case_rng(cfg.seed, "zero-error", 10_000 + case)
            p1, p2 = _structured_pair(d, n, case % 6, rng)
            if disjoint_support(p1, p2) != (averaged_output_overlap(p1, p2) <= 1e-8):
                mismatches += 1
        total = random_pairs + structured_pairs
        return mismatches, None, mismatches == 0, f"pairs={total}"

    _claim(claims, "zero-error", "zero_error.equivalence",
           "zero overlap holds exactly when no control tuple carries both states",
           equivalence)

    def form_properties():
        worst = 0.0
        for case in range(10):
            rng = case_rng(cfg.seed, "zero-error", 20_000 + case)
            p1 = random_block_state(d, n, rng)
            p2 = random_block_state(d, n, rng)
            v12 = averaged_output_overlap(p1, p2)
            v21 = averaged_output_overlap(p2, p1)
            worst = max(worst, abs(v12 - v21))
            c = 0.5 + rng.random()
            scaled = BlockStateVector(d, n, c * p1.blocks)
            worst = max(worst, abs(averaged_output_overlap(scaled, p2) - c * c * v12))
        return worst, 1e-10, worst <= 1e-10, ""

    _claim(claims, "zero-error", "zero_error.form_properties",
           "the overlap form is symmetric and quadratic under scaling", form_properties)
    return claims


# ---------------------------------------------------------------- theorem2


def _code_pair_candidates(d, n, case, rng):
    tuples = list(product(range(d), repeat=n))
    if case % 50 == 49:  # degenerate zero pair
        return BlockStateVector.zero(d, n), BlockStateVector.zero(d, n)
    kind = case % 3
    if kind == 0:  # generic random pair
        return random_block_state(d, n, rng), random_block_state(d, n, rng)
    if kind == 1:  # block-disjoint pair: first condition holds by construction
        cut = int(rng.integers(1, len(tuples)))
        order = rng.permutation(len(tuples))
        s1 = [tuples[i] for i in order[:cut]]
        s2 = [tuples[i] for i in order[cut:]]
        return (
            random_block_state(d, n, rng, support=s1),
            random_block_state(d, n, rng, support=s2),
        )
    # kind 2: concentrated single-tuple pair, distinct tuples
    a, b = rng.choice(len(tuples), size=2, replace=False)
    return (
        random_block_state(d, n, rng, support=[tuples[a]]),
        random_block_state(d, n, rng, support=[tuples[b]]),
    )


def _theorem2_suite(ctx: _Context) -> list[ClaimResult]:
    cfg = ctx.config
    d, n = cfg.d, cfg.n
    claims: list[ClaimResult] = []
    candidates = 5 * cfg.trials
    tol = 1e-8

    def sweep():
        violations = 0
        near_misses = 0
        forcing_failures = 0
        for case in range(candidates):
            rng = case_rng(cfg.seed, "theorem2", case)
            p1, p2 = _code_pair_candidates(d, n, case, rng)
            check = code_pair_conditions(p1, p2)
            nonzero = p1.total_norm() > tol and p2.total_norm() > tol
            if check.outputs_orthogonal and check.mixed_outputs_orthogonal and nonzero:
                violations += 1
            if check.outputs_orthogonal and nonzero:
                near_misses += 1
                # per-tuple forcing: any populated tuple must break the
                # sum/difference disjointness, driving both blocks to zero
                n1 = p1.block_norms()
                n2 = p2.block_norms()
                plus = np.linalg.norm(p1.blocks + p2.blocks, axis=1) / np.sqrt(2)
                minus = np.linalg.norm(p1.blocks - p2.blocks, axis=1) / np.sqrt(2)
                populated = np.maximum(n1, n2) > tol
                witnessed = np.minimum(plus, minus) > tol
                if not np.all(witnessed[populated]):
                    forcing_failures += 1
                if check.mixed_outputs_orthogonal and np.any(populated):
                    forcing_failures += 1
        detail = f"candidates={candidates} near_misses={near_misses}"
        return violations + forcing_failures, None, (violations + forcing_failures) == 0, detail

    _claim(claims, "theorem2", "theorem2.no_valid_code_pair",
           "no nonzero pair satisfies both zero-error code conditions; "
           "every near-miss forces all shared blocks to zero", sweep)
    return claims


# ---------------------------------------------------------------- privacy


def _privacy_suite(ctx: _Context) -> list[ClaimResult]:
    cfg = ctx.config
    d = cfg.d
    ch = ctx.channel()
    claims: list[ClaimResult] = []

    def trick():
        worst = max(transpose_trick_residual(g) for g in ch.design.members)
        return worst, 1e-12, worst <= 1e-12, ""

    _claim(claims, "privacy", "privacy.transpose_trick",
           "(I (x) v)|Phi> equals (v^T (x) I)|Phi> for every family member", trick)

    transcripts = [run_protocol(ch, msg) for msg in range(d)]

    def correctness():
        worst = max(
            trace_distance(t.bob_output, projector(basis_state(d, t.message)))
            for t in transcripts
        )
        return worst, 1e-12, worst <= 1e-12, ""

    _claim(claims, "privacy", "privacy.correctness",
           "the averaged receiver output equals |m><m| for every message m", correctness)

    def decoding():
        wrong = sum(1 for t in transcripts if t.decoded != t.message)
        return wrong, None, wrong == 0, ""

    _claim(claims, "privacy", "privacy.decoding",
           "the decoder returns the sent message for every message", decoding)

    def secrecy():
        worst = verify_secrecy(transcripts)
        return worst, 1e-12, worst <= 1e-12, ""

    _claim(claims, "privacy", "privacy.secrecy",
           "per-flag environment states are identical across messages", secrecy)

    def control():
        lam = np.linspace(1.0, 2.0, d)
        lam = lam / lam.sum()
        skew = np.zeros(d * d, dtype=complex)
        skew[:: d + 1] = np.sqrt(lam)
        skewed = [run_protocol(ch, msg, data_register_state=skew) for msg in range(d)]
        value = verify_secrecy(skewed)
        return value, None, value > 1e-6, "skewed data-register input"

    _claim(claims, "privacy", "privacy.secrecy_control",
           "a skewed entangled input makes the environment message-dependent", control)
    return claims


# ---------------------------------------------------------------- ppt


def _ppt_suite(ctx: _Context) -> list[ClaimResult]:
    cfg = ctx.config
    d, n = cfg.d, cfg.n
    claims: list[ClaimResult] = []
    witness = build_ppt_witness(d)
    phi = max_entangled_projector(d)
    phi_g = partial_transpose(phi, (d, d), 0)
    comp_g = np.eye(d * d) - phi_g

    def witness_invariants():
        q = witness.matrix
        worst = max(
            abs(trace_inner(q, phi_g)),
            abs(np.trace(q).real - (d * d - d)),
            max(0.0, -min_eigenvalue(q)),
            abs(trace_inner(q, comp_g).real - witness.trace_value),
        )
        return worst, 1e-12, worst <= 1e-12, ""

    _claim(claims, "ppt", "ppt.witness",
           "the witness is PSD with trace d^2-d, orthogonal to Phi^Gamma and "
           "of full weight on (I-Phi)^Gamma", witness_invariants)

    def uniform_score():
        side = d ** (2 * n)
        got = constraint_score(np.eye(side) / side, d, n)
        expected = ((d * d - 1) / (d * d)) ** n
        dev = abs(got - expected)
        return dev, 1e-12, dev <= 1e-12, ""

    _claim(claims, "ppt", "ppt.uniform_score",
           "the maximally mixed state scores ((d^2-1)/d^2)^n on the complement product",
           uniform_score)

    def search_floor():
        search = ppt_search(d, n, 10 * cfg.trials, cfg.seed)
        value = search.min_value
        detail = f"accepted={search.accepted} skipped={search.skipped}"
        return value, None, value is not None and value > 1e-9, detail

    _claim(claims, "ppt", "ppt.search_floor",
           "randomized PPT candidates keep tr(M (I-Phi)^(x)n) strictly positive",
           search_floor)

    def twirl_preserves():
        worst = 0.0
        for case in range(3):
            rng = case_rng(cfg.seed, "ppt", 30_000 + case)
            candidate = project_to_ppt(random_psd(d ** (2 * n), rng), d, n)
            if candidate is None:
                continue
            dec = isotropic_twirl_n(candidate, d, n)
            rec = dec.reconstruct()
            worst = max(worst, abs(np.trace(rec).real - 1.0))
            worst = max(worst, max(0.0, -min_eigenvalue(rec)))
            worst = max(worst, max(0.0, -min_eigenvalue(pairwise_partial_transpose(rec, d, n))))
            worst = max(worst, max(0.0, -float(dec.coefficients.min())))
        return worst, 1e-9, worst <= 1e-9, ""

    _claim(claims, "ppt", "ppt.twirl_preserves",
           "the isotropic twirl preserves trace, positivity and PPT on sampled candidates",
           twirl_preserves)

    def twirl_invariance():
        rng = case_rng(cfg.seed, "ppt", 31_000)
        dec = isotropic_twirl_n(random_psd(d ** (2 * n), rng), d, n)
        rec = dec.reconstruct()
        worst = 0.0
        for _ in range(3):
            conj = tensor(*(
                np.kron(u, u.conj())
                for u in (random_unitary(d, rng) for _ in range(n))
            ))
            worst = max(worst, float(np.abs(conj @ rec @ conj.conj().T - rec).max()))
        return worst, 1e-9, worst <= 1e-9, ""

    _claim(claims, "ppt", "ppt.twirl_invariance",
           "the twirled reconstruction commutes with sampled per-pair conjugations",
           twirl_invariance)

    def constraint_unreachable():
        lowest = None
        for case in range(3):
            rng = case_rng(cfg.seed, "ppt", 32_000 + case)
            candidate = project_to_ppt(random_psd(d ** (2 * n), rng), d, n)
            if candidate is None:
                continue
            coeff = isotropic_twirl_n(candidate, d, n).coefficient((1,) * n)
            lowest = coeff if lowest is None else min(lowest, coeff)
        return lowest, None, lowest is not None and lowest > 1e-9, ""

    _claim(claims, "ppt", "ppt.constraint_unreachable",
           "no sampled PPT candidate meets the orthogonality constraint", constraint_unreachable)

    def recursion_zero():
        dec = IsotropicDecomposition(d, n, np.zeros((2,) * n))
        ok = recursion_certificate(dec, witness)
        return 0.0, None, ok, ""

    _claim(claims, "ppt", "ppt.recursion_zero",
           "the zero decomposition passes the recursion replay vacuously", recursion_zero)

    def recursion_refutes():
        worst_gap = 0.0
        all_refuted = True
        for label in product((0, 1), repeat=n):
            if label == (1,) * n:
                continue
            coeffs = np.zeros((2,) * n)
            coeffs[label] = 1.0
            dec = IsotropicDecomposition(d, n, coeffs)
            if recursion_certificate(dec, witness):
                all_refuted = False
                continue
            rec = next(r for r in recursion_trace(dec, witness) if r.label == label)
            worst_gap = max(worst_gap, abs(rec.implied - 1.0))
            if rec.min_eigenvalue > -1e-9:
                all_refuted = False
        return worst_gap, 1e-9, all_refuted and worst_gap <= 1e-9, ""

    _claim(claims, "ppt", "ppt.recursion_refutes",
           "every constrained single-label instance is refuted with a negative "
           "eigenvalue in its contraction", recursion_refutes)
    return claims


# ---------------------------------------------------------------- ncgraph


def _ncgraph_suite(ctx: _Context) -> list[ClaimResult]:
    cfg = ctx.config
    d = cfg.d
    ch = ctx.channel()
    fam = ch.design
    claims: list[ClaimResult] = []
    span = graph_span(ch)
    z = clock(d)
    eye = np.eye(d, dtype=complex)

    def _block(k, l):
        mats = []
        for v in fam.members:
            unit = np.zeros((d, d), dtype=complex)
            unit[l, k] = 1.0
            mats.append(v.conj().T @ unit @ v)
        return operator_span(np.stack(mats))

    def block_dims():
        bad = 0
        for k in range(d):
            for l in range(d):
                dim = _block(k, l).dim
                expected = d * d if k == l else d * d - 1
                if dim != expected:
                    bad += 1
        return bad, None, bad == 0, "diagonal blocks d^2, off-diagonal d^2-1"

    _claim(claims, "ncgraph", "ncgraph.block_dims",
           "conjugated unit blocks span the full algebra (k=l) or the traceless "
           "matrices (k!=l)", block_dims)

    def total_dim():
        expected = d**3 - d + 1
        return span.dim, None, span.dim == expected, f"expected {expected}"

    _claim(claims, "ncgraph", "ncgraph.total_dim",
           "the graph span dimension equals d^3 - d + 1", total_dim)

    def membership():
        bad = 0
        if contains(span, np.kron(z, eye)):
            bad += 1
        if not contains(span, np.kron(eye, z)):
            bad += 1
        if not contains(span, np.kron(z, z.conj().T)):
            bad += 1
        if not contains(span, np.kron(eye, eye)):
            bad += 1
        return bad, None, bad == 0, "Z(x)I out; I(x)Z, Z(x)Z^dag, I(x)I in"

    _claim(claims, "ncgraph", "ncgraph.membership",
           "Z (x) I lies outside the span; I (x) Z, Z (x) Z^dag and the identity inside",
           membership)

    def conditions():
        got = condition_checks(span, d)
        return None, None, got == (True, True), f"got {got}"

    _claim(claims, "ncgraph", "ncgraph.conditions",
           "the graph violates both superactivation-blocking conditions", conditions)

    def control():
        got = condition_checks(full_matrix_space(d * d), d)
        return None, None, got == (False, False), f"got {got}"

    _claim(claims, "ncgraph", "ncgraph.control",
           "the full matrix algebra violates neither condition", control)

    def adjoint_closed():
        bad = sum(0 if contains(span, b.conj().T) else 1 for b in span.basis)
        return bad, None, bad == 0, ""

    _claim(claims, "ncgraph", "ncgraph.adjoint_closed",
           "the graph span is closed under adjoints", adjoint_closed)

    def twirl_units():
        phi = max_entangled_projector(d)
        comp = np.eye(d * d) - phi
        worst = 0.0
        for k in range(d):
            for l in range(d):
                m = np.kron(projector(basis_state(d, k)), projector(basis_state(d, l)))
                got = conjugate_twirl(fam, m)
                delta = 1.0 if k == l else 0.0
                expected = ((1 - delta / d) / (d * d - 1)) * comp + (delta / d) * phi
                worst = max(worst, float(np.abs(got - expected).max()))
        return worst, 1e-9, worst <= 1e-9, ""

    _claim(claims, "ncgraph", "ncgraph.twirl_units",
           "the design twirl of |k><k| (x) |l><l| matches its closed form", twirl_units)

    if d == 2:
        alt = ctx.alt_family()
        if alt is not None:
            def design_independence():
                alt_span = graph_span(build_channel(d, alt))
                return alt_span.dim, None, alt_span.dim == span.dim, f"full={span.dim}"

            _claim(claims, "ncgraph", "ncgraph.design_independence",
                   "the span dimension is unchanged under an alternative exact 2-design",
                   design_independence)
    return claims


# ---------------------------------------------------------------- harness

_SUITES = {
    "design": _design_suite,
    "channel": _channel_suite,
    "zero-error": _zero_error_suite,
    "theorem2": _theorem2_suite,
    "privacy": _privacy_suite,
    "ppt": _ppt_suite,
    "ncgraph": _ncgraph_suite,
}


def execute(config: RunConfig) -> VerificationReport:
    """Run the configured suites in fixed order and assemble the report."""
    ctx = _Context(config)
    claims: list[ClaimResult] = []
    for suite in SUITE_NAMES:
        if suite not in config.suites:
            continue
        try:
            claims.extend(_SUITES[suite](ctx))
        except Exception as exc:
            claims.append(
                ClaimResult(
                    suite=suite,
                    claim_id=f"{suite}.panic",
                    statement="the suite runs to completion",
                    passed=False,
                    value=None,
                    tolerance=None,
                    runtime_ms=0.0,
                    detail=f"{type(exc).__name__}: {exc}",
                )
            )
    warnings = list(ctx.warnings)
    if not config.suites:
        warnings.append("no suites selected; the result is vacuously passing")
    return VerificationReport(
        version=TOOLKIT_VERSION,
        config=config,
        claims=claims,
        overall_pass=all(c.passed for c in claims),
        warnings=warnings,
    )
