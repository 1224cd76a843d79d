"""Verification claims and the deterministic execution harness.

Each claim is a function registered with `_claim`; `execute` runs the
claims of the configured suites in definition order.  A claim returns
its value, optionally with a detail.  It passes when the value is <= its
tolerance, or is 0 when it has none; a claim with another rule returns
a `_Verdict`.  Shared objects are cached properties of `_Context`, built
by the first claim that reads them, so that claim's `runtime_ms`
includes building them.  A build that raises is not run again: its
exception is kept and raised to every later reader.  The try around
each claim is the only place an exception is caught: one raised in a
claim, or while building a shared object, fails exactly the claims
that need it, with the exception text in `detail`.  There is no
`<suite>.panic` record.

All randomness comes from `linalg.case_rng`, counter-based generators
keyed by (seed, suite, case); the PPT search draws its candidate t as
case 40_000 + t of the ppt suite.  Running any subset of suites thus
reproduces the full run's numbers exactly.

The `trials` knob scales sample counts: the channel identity uses
`trials` pairs, the conservation check max(1, trials // 10) inputs (every
other one with a reference qubit), the orthogonality equivalence 2*trials
random plus max(50, trials // 2) structured pairs, the code-impossibility
sweep 5*trials candidate pairs, and the PPT search 10*trials projections:
`ppt.search_floor`, `ppt.twirl_preserves` and `ppt.constraint_unreachable`
all read its accepted candidates.  Fixed counts: the alternative-design
identity 10 pairs, `ppt.twirl_invariance` 3 conjugations and
`zero_error.form_properties` 10 cases.
Claims reduce samples with `_worst`, so a NaN sample fails its claim;
`_run` records a non-finite value as null and says so in `detail`.
The equivalence and code-impossibility sweeps draw their cases in order,
in windows of at most `_WINDOW_AMPLITUDES` = 2^12 pairing-vector
amplitudes, d^(3n) per pair (512 pairs at (2,1), 151 at (3,1), 64 at
(2,2), 5 at (3,2)), and evaluate each window's overlap forms in one
`overlap_forms` call (theorem2's pair and sum/difference forms
together); a non-finite form counts as a mismatch or a violation.  A
form is the same arithmetic in any window.

Three loops spread their cases over every CPU of the affinity mask with
`linalg.forked_map`: the PPT search's windows, the conservation cases
and the identity pairs of `channel.central_identity` and
`channel.alt_design_identity`.  Each builds what its cases share (the
channel, the design's overlap Grams, the search's constraint and twirl
basis) before the workers fork, and reduces their values in case
order, so a report does not depend on the CPU count.  The equivalence
and code-impossibility sweeps stay in this process: a fork costs about
as much as one of their 64-pair windows at d=2, so in a prototype on a
2-vCPU host spreading them too moved the wall time of d=2, n=2 at 300
trials only from 0.77 to 0.74 of the serial run's, and its CPU time
from 1.04 to 1.15 of it.
"""

from __future__ import annotations

import time
from functools import cached_property
from itertools import islice, product
from typing import Callable, NamedTuple

import numpy as np

from .channel import (
    BlockStateVector,
    apply_n,
    build_channel,
    conservation_residual,
    overlap_kernel,
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
    case_rng,
    forked_map,
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
    label_ranks,
    pairwise_partial_transpose,
    ppt_search,
    recursion_certificate,
    recursion_trace,
    transposed_eigenvalues,
)
from .privacy import run_protocol, transpose_trick_residual, verify_secrecy
from .report import TOOLKIT_VERSION, ClaimResult, RunConfig, VerificationReport
from .zero_error import (
    BLOCK_ZERO_TOL,
    averaged_output_overlap,
    design_average_overlap_operator,
    disjoint_support,
    overlap_forms,
    overlap_operator,
    overlap_support_projector,
)

# Pairing-vector amplitudes per overlap_forms call in the equivalence and
# code-pair sweeps, d^(3n) per pair: few enough that a window's stacks stay
# small, many enough to amortize the calls at d=2.  A window of 64 pairs at
# (3,2) traced about 3.7 MiB in overlap_forms, twice that for theorem2's
# pair and sum/difference forms together.
_WINDOW_AMPLITUDES = 2**12


class _shared(cached_property):
    """A cached property that also keeps the exception its build raised.

    `functools.cached_property` caches no exception, so a failing build
    would run again for every claim that reads it; here it runs once and
    every reader fails with the same error.
    """

    def __get__(self, ctx, owner=None):
        if ctx is None:
            return self
        if self.attrname in ctx.failed:
            raise ctx.failed[self.attrname]
        try:
            return super().__get__(ctx, owner)
        except Exception as exc:
            ctx.failed[self.attrname] = exc
            raise


class _Context:
    """Shared objects of one run, each built by the first claim that reads it."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.d, self.n = config.d, config.n
        self.failed: dict[str, Exception] = {}  # name -> the error its build raised

    @_shared
    def family(self):
        return enumerate_clifford(self.d)

    @_shared
    def table(self):
        return multiplication_table(self.family)

    @_shared
    def channel(self):
        return build_channel(self.d, self.family)

    @_shared
    def alt_family(self):
        """The smallest proper exact 2-design subgroup containing <X, Z>.

        12 members at d=2; at d=3 the 72-member HW x Q8 group (Gross,
        Audenaert & Eisert 2007).  Raises when the search finds none.
        """
        alt = find_minimal_subdesign(self.family, self.table)
        if alt is None:
            raise RuntimeError("no proper sub-design: no subgroup containing <X, Z> "
                               "reaches frame potential 2")
        return alt

    @_shared
    def alt_channel(self):
        return build_channel(self.d, self.alt_family)

    @_shared
    def overlap_op(self):
        return overlap_operator(self.d)

    @_shared
    def span(self):
        return graph_span(self.channel)

    @_shared
    def transcripts(self):
        return [run_protocol(self.channel, msg) for msg in range(self.d)]

    @_shared
    def witness(self):
        return build_ppt_witness(self.d)

    @_shared
    def search(self):
        return ppt_search(self.d, self.n, 10 * self.config.trials, self.config.seed)


class _Verdict(NamedTuple):
    """A claim's own pass decision, for a rule other than value <= tol."""

    value: float | None
    passed: bool
    detail: str = ""


class _Spec(NamedTuple):
    suite: str
    claim_id: str
    statement: str
    tol: float | None
    compute: Callable[[_Context], object]


_CLAIMS: list[_Spec] = []


def _claim(suite, claim_id, statement, tol=None):
    """Register the decorated function as a claim, run and reported in every run of its suite."""

    def register(compute):
        _CLAIMS.append(_Spec(suite, claim_id, statement, tol, compute))
        return compute

    return register


def _worst(*values) -> float:
    """The largest value, or NaN if any is NaN (the builtin max can drop a NaN)."""
    return float(np.max(values))


def _run(spec: _Spec, ctx: _Context) -> ClaimResult:
    t0 = time.perf_counter()
    tol = spec.tol
    try:
        out = spec.compute(ctx)
        if isinstance(out, _Verdict):
            value, passed, detail = out
        else:
            value, detail = out if isinstance(out, tuple) else (out, "")
            passed = value <= tol if tol is not None else value == 0
        value = None if value is None else float(value)
        if value is not None and not np.isfinite(value):  # JSON has no NaN or inf
            value, passed, detail = None, False, f"{detail} non-finite value {value}".lstrip()
    except Exception as exc:  # the run must keep going; the claim records the failure
        value, tol, passed, detail = None, None, False, f"{type(exc).__name__}: {exc}"
    return ClaimResult(suite=spec.suite, claim_id=spec.claim_id, statement=spec.statement,
                       passed=bool(passed), value=value, tolerance=tol,
                       runtime_ms=(time.perf_counter() - t0) * 1000.0, detail=detail)


# ---------------------------------------------------------------- design


@_claim("design", "design.members", "every family member is unitary and phase-distinct", tol=1e-9)
def _members(ctx):
    fam = ctx.family
    eye = np.eye(ctx.d)
    worst = _worst(*(np.abs(g.conj().T @ g - eye).max() for g in fam.members))
    return _Verdict(worst, worst <= 1e-9 and fam.verified, f"members={len(fam)}")


@_claim("design", "design.closure", "the family is closed under products modulo global phase")
def _closure(ctx):
    return int((ctx.table < 0).sum())


@_claim("design", "design.frame_potential",
        "frame potential equals 2, certifying an exact 2-design", tol=1e-9)
def _frame_potential(ctx):
    return abs(frame_potential(ctx.family) - 2.0)


@_claim("design", "design.twirl_clock_form",
        "twirl of Z^a (x) conj(Z^a) equals Phi - (I-Phi)/(d^2-1) for a != 0", tol=1e-9)
def _twirl_clock_form(ctx):
    d = ctx.d
    phi = max_entangled_projector(d)
    expected = phi - (np.eye(d * d) - phi) / (d * d - 1)
    z = clock(d)
    worst = 0.0
    for a in range(1, d):
        za = np.linalg.matrix_power(z, a)
        got = conjugate_twirl(ctx.family, np.kron(za, za.conj()))
        worst = _worst(worst, np.abs(got - expected).max())
    return worst


@_claim("design", "design.twirl_projection",
        "the twirl is idempotent and matches its two-coefficient closed form", tol=1e-9)
def _twirl_projection(ctx):
    d = ctx.d
    rng = case_rng(ctx.config.seed, "design", 0)
    m = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    once = conjugate_twirl(ctx.family, m)
    return _worst(np.abs(conjugate_twirl(ctx.family, once) - once).max(),
                  np.abs(once - isotropic_projection(d, m)).max())


@_claim("design", "design.twirl_invariance",
        "twirled PSD operators stay PSD, keep their trace, and commute with every g (x) conj(g)",
        tol=1e-9)
def _design_twirl_invariance(ctx):
    fam = ctx.family
    m = random_psd(ctx.d * ctx.d, case_rng(ctx.config.seed, "design", 1))
    twirled = conjugate_twirl(fam, m)
    worst = _worst(*(
        np.abs(twirled @ np.kron(g, g.conj()) - np.kron(g, g.conj()) @ twirled).max()
        for g in fam.members
    ))
    worst = _worst(worst, abs(np.trace(twirled).real - np.trace(m).real))
    return _worst(worst, -min_eigenvalue(twirled))


# ---------------------------------------------------------------- channel


def _identity_gap(ctx, channel, first_case, pairs):
    """Largest |m^n <out(p1), out(p2)> - closed form| over random pairs, spread over the CPUs."""
    d, n = ctx.d, ctx.n
    scale = len(channel.design) ** n
    overlap = overlap_kernel(channel)  # the design's Grams, formed before the workers fork

    def gap(case):
        rng = case_rng(ctx.config.seed, "channel", case)
        p1 = random_block_state(d, n, rng)
        p2 = random_block_state(d, n, rng)
        return abs(scale * overlap(p1, p2) - averaged_output_overlap(p1, p2))

    return _worst(0.0, *forked_map(gap, range(first_case, first_case + pairs)))


@_claim("channel", "channel.phase_gate_form",
        "the controlled phase equals sum_i |i><i| (x) Z^i", tol=1e-12)
def _phase_gate_form(ctx):
    ch = ctx.channel
    block = sum(np.kron(projector(basis_state(ctx.d, i)), ch.z_powers[i]) for i in range(ctx.d))
    return float(np.abs(ch.phase_gate - block).max())


@_claim("channel", "channel.basis_messages",
        "the channel maps |i><i| (x) I/d to |i><i| for every i", tol=1e-12)
def _basis_messages(ctx):
    d = ctx.d
    worst = 0.0
    for i in range(d):
        states = (BlockStateVector.from_blocks(d, 1, {(i,): basis_state(d, k)}) for k in range(d))
        acc = sum(apply_n(ctx.channel, psi).matrices / d for psi in states)
        worst = _worst(worst, np.abs(acc - projector(basis_state(d, i))).max())
    return worst


@_claim("channel", "channel.conservation",
        "branch weights times traces sum to 1 and every branch is PSD, both outputs", tol=1e-9)
def _conservation(ctx):
    # odd cases carry a reference qubit, whose environment Gram is rank-deficient
    cases = max(1, ctx.config.trials // 10)
    channel = ctx.channel  # built before the workers fork

    def residual(case):
        rng = case_rng(ctx.config.seed, "channel", 100_000 + case)
        psi = random_block_state(ctx.d, ctx.n, rng, ref_dim=1 + case % 2)
        return conservation_residual(channel, psi)

    return _worst(0.0, *forked_map(residual, range(cases))), f"cases={cases}"


@_claim("channel", "channel.central_identity",
        "flag-branch output overlap equals the closed-form quadratic form", tol=1e-8)
def _central_identity(ctx):
    pairs = ctx.config.trials
    return _identity_gap(ctx, ctx.channel, 0, pairs), f"pairs={pairs}"


@_claim("channel", "channel.alt_design_identity",
        "the overlap identity holds verbatim for a smaller exact 2-design", tol=1e-8)
def _alt_design_identity(ctx):
    return _identity_gap(ctx, ctx.alt_channel, 200_000, 10), f"alt size={len(ctx.alt_family)}"


# ---------------------------------------------------------------- zero-error


def _disjoint_pair(d, n, rng):
    """Random states on the two sides of a random partition of the control tuples."""
    tuples = list(product(range(d), repeat=n))
    cut = int(rng.integers(1, len(tuples)))
    order = rng.permutation(len(tuples))
    return (
        random_block_state(d, n, rng, support=[tuples[i] for i in order[:cut]]),
        random_block_state(d, n, rng, support=[tuples[i] for i in order[cut:]]),
    )


def _single_tuple_pair(d, n, rng):
    """Random states each on one control tuple, the two tuples distinct."""
    tuples = list(product(range(d), repeat=n))
    a, b = rng.choice(len(tuples), size=2, replace=False)
    return (
        random_block_state(d, n, rng, support=[tuples[a]]),
        random_block_state(d, n, rng, support=[tuples[b]]),
    )


def _structured_pair(d, n, kind, rng):
    """Adversarial pair families; every kind keeps both routes decisively apart."""
    tuples = list(product(range(d), repeat=n))
    if kind == 0:
        return _disjoint_pair(d, n, rng)
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
    return _single_tuple_pair(d, n, rng)


@_claim("zero-error", "zero_error.closed_form",
        "the closed-form overlap operator equals its design average", tol=1e-9)
def _closed_form(ctx):
    return float(np.abs(ctx.overlap_op - design_average_overlap_operator(ctx.family)).max())


@_claim("zero-error", "zero_error.psd", "the overlap operator is positive semidefinite", tol=1e-9)
def _overlap_psd(ctx):
    return _worst(0.0, -min_eigenvalue(ctx.overlap_op))


@_claim("zero-error", "zero_error.support_projector",
        "the support projector equals I (x) (I-Phi) + |nu><nu| (x) Phi", tol=1e-9)
def _support_projector(ctx):
    d = ctx.d
    support, null = support_null(ctx.overlap_op, (d, d, d))
    worst = float(np.abs(support.projector() - overlap_support_projector(d)).max())
    return worst, f"null dim={null.dim}"


@_claim("zero-error", "zero_error.null_dimension", "the null space dimension equals d-1")
def _null_dimension(ctx):
    d = ctx.d
    _, null = support_null(ctx.overlap_op, (d, d, d))
    return _Verdict(null.dim, null.dim == d - 1, f"expected {d - 1}")


@_claim("zero-error", "zero_error.null_vectors",
        "mu (x) Phi is annihilated for every mu orthogonal to the uniform vector", tol=1e-10)
def _null_vectors(ctx):
    d = ctx.d
    phi_vec = np.zeros(d * d, dtype=complex)
    phi_vec[:: d + 1] = 1.0 / np.sqrt(d)
    worst = 0.0
    for k in range(1, d):
        mu = (basis_state(d, 0) - basis_state(d, k)) / np.sqrt(2)
        worst = _worst(worst, np.linalg.norm(ctx.overlap_op @ np.kron(mu, phi_vec)))
    return worst


@_claim("zero-error", "zero_error.dominance",
        "the overlap operator dominates d/(d+1) times I (x) (I-Phi), tightly", tol=1e-9)
def _dominance(ctx):
    # the unscaled comparison fails by exactly 1/(d+1): the coupling
    # matrix has minimal eigenvalue d/(d+1), which is the largest
    # admissible constant and all the zero-forcing argument needs
    d, op = ctx.d, ctx.overlap_op
    lower = np.kron(np.eye(d), np.eye(d * d) - max_entangled_projector(d))
    c = d / (d + 1)
    worst = _worst(0.0, -min_eigenvalue(op - c * lower))
    tight = abs(min_eigenvalue(op - lower) + 1.0 / (d + 1))
    return _worst(worst, tight), f"largest constant {c:.6f}"


def _windows(pairs, d, n):
    """Successive lists of pairs, at most _WINDOW_AMPLITUDES pairing-vector amplitudes each.

    A pair's pairing vector has d^(3n) amplitudes: 64 pairs a window at
    (2,2), 5 at (3,2), and always at least one.
    """
    pairs = iter(pairs)
    while window := list(islice(pairs, max(1, _WINDOW_AMPLITUDES // d ** (3 * n)))):
        yield window


def _block_stacks(window):
    return np.stack([p1.blocks for p1, _ in window]), np.stack([p2.blocks for _, p2 in window])


def _equivalence_pairs(ctx, random_pairs, structured_pairs):
    d, n, seed = ctx.d, ctx.n, ctx.config.seed
    for case in range(random_pairs):
        rng = case_rng(seed, "zero-error", case)
        mask_support = [t for t in product(range(d), repeat=n) if rng.random() < 0.6] or None
        yield random_block_state(d, n, rng, support=mask_support), random_block_state(d, n, rng)
    for case in range(structured_pairs):
        rng = case_rng(seed, "zero-error", 10_000 + case)
        yield _structured_pair(d, n, case % 6, rng)


@_claim("zero-error", "zero_error.equivalence",
        "zero overlap holds exactly when no control tuple carries both states")
def _equivalence(ctx):
    random_pairs = 2 * ctx.config.trials
    structured_pairs = max(50, ctx.config.trials // 2)
    mismatches = 0
    pairs = _equivalence_pairs(ctx, random_pairs, structured_pairs)
    for window in _windows(pairs, ctx.d, ctx.n):
        forms = overlap_forms(*_block_stacks(window), ctx.d, ctx.n)
        disjoint = np.array([disjoint_support(p1, p2) for p1, p2 in window])
        # a non-finite form decides nothing, so it counts as a mismatch
        mismatches += int(np.sum(~np.isfinite(forms) | (disjoint != (forms <= BLOCK_ZERO_TOL))))
    return mismatches, f"pairs={random_pairs + structured_pairs}"


@_claim("zero-error", "zero_error.form_properties",
        "the overlap form is symmetric and quadratic under scaling", tol=1e-10)
def _form_properties(ctx):
    d, n = ctx.d, ctx.n
    worst = 0.0
    for case in range(10):
        rng = case_rng(ctx.config.seed, "zero-error", 20_000 + case)
        p1 = random_block_state(d, n, rng)
        p2 = random_block_state(d, n, rng)
        v12 = averaged_output_overlap(p1, p2)
        v21 = averaged_output_overlap(p2, p1)
        worst = _worst(worst, abs(v12 - v21))
        c = 0.5 + rng.random()
        scaled = BlockStateVector(d, n, c * p1.blocks)
        worst = _worst(worst, abs(averaged_output_overlap(scaled, p2) - c * c * v12))
    return worst


# ---------------------------------------------------------------- theorem2


def _code_pair_candidates(d, n, case, rng):
    if case % 50 == 49:  # degenerate zero pair
        return BlockStateVector.zero(d, n), BlockStateVector.zero(d, n)
    kind = case % 3
    if kind == 0:  # generic random pair
        return random_block_state(d, n, rng), random_block_state(d, n, rng)
    if kind == 1:  # block-disjoint pair: first condition holds by construction
        return _disjoint_pair(d, n, rng)
    return _single_tuple_pair(d, n, rng)


def _code_pair_failures(d, n, window):
    """(violations + forcing failures, near-misses) of one window of candidates.

    A candidate violates when both states are nonzero and both its pair
    and its sum/difference pair have vanishing overlap forms, or when
    either form is not finite.  A near-miss (first condition only, both
    states nonzero) must be forced: every populated control tuple
    breaks the sum/difference disjointness, driving both blocks to zero.
    """
    tol = BLOCK_ZERO_TOL
    b1, b2 = _block_stacks(window)
    total, diff = b1 + b2, b1 - b2
    forms = overlap_forms(np.concatenate([b1, total / np.sqrt(2)]),
                          np.concatenate([b2, diff / np.sqrt(2)]), d, n).reshape(2, len(window))
    first, second = forms <= tol
    nonzero = (np.linalg.norm(b1, axis=(1, 2)) > tol) & (np.linalg.norm(b2, axis=(1, 2)) > tol)
    violations = ~np.all(np.isfinite(forms), axis=0) | (first & second & nonzero)
    near = first & nonzero
    populated = np.maximum(np.linalg.norm(b1, axis=2), np.linalg.norm(b2, axis=2)) > tol
    witnessed = np.minimum(np.linalg.norm(total, axis=2),
                           np.linalg.norm(diff, axis=2)) / np.sqrt(2) > tol
    unforced = near & np.any(populated & ~witnessed, axis=1)
    mixed = near & second & np.any(populated, axis=1)
    return int(violations.sum() + unforced.sum() + mixed.sum()), int(near.sum())


@_claim("theorem2", "theorem2.no_valid_code_pair",
        "no nonzero pair satisfies both zero-error code conditions; "
        "every near-miss forces all shared blocks to zero")
def _no_valid_code_pair(ctx):
    d, n, seed = ctx.d, ctx.n, ctx.config.seed
    candidates = 5 * ctx.config.trials
    pairs = (_code_pair_candidates(d, n, case, case_rng(seed, "theorem2", case))
             for case in range(candidates))
    failures = near_misses = 0
    for window in _windows(pairs, d, n):
        window_failures, window_near = _code_pair_failures(d, n, window)
        failures += window_failures
        near_misses += window_near
    return failures, f"candidates={candidates} near_misses={near_misses}"


# ---------------------------------------------------------------- privacy


@_claim("privacy", "privacy.transpose_trick",
        "(I (x) v)|Phi> equals (v^T (x) I)|Phi> for every family member", tol=1e-12)
def _transpose_trick(ctx):
    return _worst(*(transpose_trick_residual(g) for g in ctx.channel.design.members))


@_claim("privacy", "privacy.correctness",
        "the averaged receiver output equals |m><m| for every message m", tol=1e-12)
def _correctness(ctx):
    return _worst(*(
        trace_distance(t.bob_output, projector(basis_state(ctx.d, t.message)))
        for t in ctx.transcripts
    ))


@_claim("privacy", "privacy.decoding", "the decoder returns the sent message for every message")
def _decoding(ctx):
    return sum(1 for t in ctx.transcripts if t.decoded != t.message)


@_claim("privacy", "privacy.secrecy",
        "per-flag environment states are identical across messages", tol=1e-12)
def _secrecy(ctx):
    return verify_secrecy(ctx.transcripts)


@_claim("privacy", "privacy.secrecy_control",
        "a skewed entangled input makes the environment message-dependent")
def _secrecy_control(ctx):
    d = ctx.d
    lam = np.linspace(1.0, 2.0, d)
    lam = lam / lam.sum()
    skew = np.zeros(d * d, dtype=complex)
    skew[:: d + 1] = np.sqrt(lam)
    skewed = [run_protocol(ctx.channel, msg, data_register_state=skew) for msg in range(d)]
    value = verify_secrecy(skewed)
    return _Verdict(value, value > 1e-6, "skewed data-register input")


# ---------------------------------------------------------------- ppt


def _search_coefficients(ctx):
    """The twirl coefficients of the search's accepted candidates; raises when there are none."""
    if not ctx.search.accepted:
        raise RuntimeError("the PPT search accepted no candidate; nothing was checked")
    return ctx.search.coefficients


@_claim("ppt", "ppt.witness",
        "the witness is PSD with trace d^2-d, orthogonal to Phi^Gamma and "
        "of full weight on (I-Phi)^Gamma", tol=1e-12)
def _witness(ctx):
    d = ctx.d
    q = ctx.witness.matrix
    phi_g = partial_transpose(max_entangled_projector(d), (d, d), 0)
    return _worst(
        abs(trace_inner(q, phi_g)),
        abs(np.trace(q).real - (d * d - d)),
        -min_eigenvalue(q),
        abs(trace_inner(q, np.eye(d * d) - phi_g).real - ctx.witness.trace_value),
    )


@_claim("ppt", "ppt.uniform_score",
        "the maximally mixed state scores ((d^2-1)/d^2)^n on the complement product", tol=1e-12)
def _uniform_score(ctx):
    d, n = ctx.d, ctx.n
    side = d ** (2 * n)
    return abs(constraint_score(np.eye(side) / side, d, n) - ((d * d - 1) / (d * d)) ** n)


@_claim("ppt", "ppt.search_floor",
        "randomized PPT candidates keep tr(M (I-Phi)^(x)n) strictly positive")
def _search_floor(ctx):
    search = ctx.search
    value = search.min_value
    detail = f"accepted={search.accepted} skipped={search.skipped}"
    return _Verdict(value, value is not None and value > 1e-9, detail)


@_claim("ppt", "ppt.twirl_preserves",
        "the isotropic twirl preserves trace, positivity and PPT on sampled candidates", tol=1e-9)
def _twirl_preserves(ctx):
    d, n = ctx.d, ctx.n
    p = _search_coefficients(ctx)
    # the twirl is PSD iff p >= 0 and PPT iff its closed-form transposed eigenvalues are
    margin = np.minimum(p.min(axis=1), transposed_eigenvalues(p, d, n).min(axis=1))
    worst = _worst(0.0, np.abs(p @ label_ranks(d, n) - 1.0).max(), -margin.min())
    for i in np.argsort(margin)[:3]:  # the dense check, on the candidates nearest the boundary
        rec = IsotropicDecomposition(d, n, p[i].reshape((2,) * n)).reconstruct()
        worst = _worst(worst, abs(np.trace(rec).real - 1.0), -min_eigenvalue(rec),
                       -min_eigenvalue(pairwise_partial_transpose(rec, d, n)))
    return worst, f"candidates={len(p)}"


@_claim("ppt", "ppt.twirl_invariance",
        "the twirled reconstruction commutes with sampled per-pair conjugations", tol=1e-9)
def _ppt_twirl_invariance(ctx):
    d, n = ctx.d, ctx.n
    rng = case_rng(ctx.config.seed, "ppt", 31_000)
    rec = isotropic_twirl_n(random_psd(d ** (2 * n), rng), d, n).reconstruct()
    worst = 0.0
    for _ in range(3):
        conj = tensor(*(np.kron(u, u.conj()) for u in [random_unitary(d, rng) for _ in range(n)]))
        worst = _worst(worst, np.abs(conj @ rec @ conj.conj().T - rec).max())
    return worst


@_claim("ppt", "ppt.constraint_unreachable",
        "no sampled PPT candidate meets the orthogonality constraint")
def _constraint_unreachable(ctx):
    p = _search_coefficients(ctx)
    lowest = float(np.min(p[:, -1]))  # the all-complement label
    return _Verdict(lowest, lowest > 1e-9, f"candidates={len(p)}")


@_claim("ppt", "ppt.recursion_zero", "the zero decomposition passes the recursion replay vacuously")
def _recursion_zero(ctx):
    dec = IsotropicDecomposition(ctx.d, ctx.n, np.zeros((2,) * ctx.n))
    return _Verdict(0.0, recursion_certificate(dec, ctx.witness))


@_claim("ppt", "ppt.recursion_refutes",
        "every constrained single-label instance is refuted with a negative "
        "eigenvalue in its contraction", tol=1e-9)
def _recursion_refutes(ctx):
    d, n, witness = ctx.d, ctx.n, ctx.witness
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
        worst_gap = _worst(worst_gap, abs(rec.implied - 1.0))
        if rec.min_eigenvalue > -1e-9:
            all_refuted = False
    return _Verdict(worst_gap, all_refuted and worst_gap <= 1e-9)


# ---------------------------------------------------------------- ncgraph


@_claim("ncgraph", "ncgraph.block_dims",
        "conjugated unit blocks span the full algebra (k=l) or the traceless "
        "matrices (k!=l)")
def _block_dims(ctx):
    d = ctx.d
    bad = 0
    for k in range(d):
        for l in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[l, k] = 1.0
            dim = operator_span(np.stack([v.conj().T @ unit @ v for v in ctx.family.members])).dim
            if dim != (d * d if k == l else d * d - 1):
                bad += 1
    return bad, "diagonal blocks d^2, off-diagonal d^2-1"


@_claim("ncgraph", "ncgraph.total_dim", "the graph span dimension equals d^3 - d + 1")
def _total_dim(ctx):
    expected = ctx.d**3 - ctx.d + 1
    return _Verdict(ctx.span.dim, ctx.span.dim == expected, f"expected {expected}")


@_claim("ncgraph", "ncgraph.membership",
        "Z (x) I lies outside the span; I (x) Z, Z (x) Z^dag and the identity inside")
def _membership(ctx):
    span = ctx.span
    z = clock(ctx.d)
    eye = np.eye(ctx.d, dtype=complex)
    bad = int(contains(span, np.kron(z, eye)))
    for inside in (np.kron(eye, z), np.kron(z, z.conj().T), np.kron(eye, eye)):
        bad += not contains(span, inside)
    return bad, "Z(x)I out; I(x)Z, Z(x)Z^dag, I(x)I in"


@_claim("ncgraph", "ncgraph.conditions",
        "the graph violates both superactivation-blocking conditions")
def _conditions(ctx):
    got = condition_checks(ctx.span, ctx.d)
    return _Verdict(None, got == (True, True), f"got {got}")


@_claim("ncgraph", "ncgraph.control", "the full matrix algebra violates neither condition")
def _full_algebra_control(ctx):
    got = condition_checks(full_matrix_space(ctx.d * ctx.d), ctx.d)
    return _Verdict(None, got == (False, False), f"got {got}")


@_claim("ncgraph", "ncgraph.adjoint_closed", "the graph span is closed under adjoints")
def _adjoint_closed(ctx):
    return sum(0 if contains(ctx.span, b.conj().T) else 1 for b in ctx.span.basis)


@_claim("ncgraph", "ncgraph.twirl_units",
        "the design twirl of |k><k| (x) |l><l| matches its closed form", tol=1e-9)
def _twirl_units(ctx):
    d = ctx.d
    phi = max_entangled_projector(d)
    comp = np.eye(d * d) - phi
    worst = 0.0
    for k in range(d):
        for l in range(d):
            m = np.kron(projector(basis_state(d, k)), projector(basis_state(d, l)))
            got = conjugate_twirl(ctx.family, m)
            delta = 1.0 if k == l else 0.0
            expected = ((1 - delta / d) / (d * d - 1)) * comp + (delta / d) * phi
            worst = _worst(worst, np.abs(got - expected).max())
    return worst


@_claim("ncgraph", "ncgraph.design_independence",
        "the span dimension is unchanged under an alternative exact 2-design")
def _design_independence(ctx):
    alt_dim = graph_span(ctx.alt_channel).dim
    return _Verdict(alt_dim, alt_dim == ctx.span.dim, f"full={ctx.span.dim}")


# ---------------------------------------------------------------- harness


def execute(config: RunConfig) -> VerificationReport:
    """Run the registered claims of the configured suites in order and assemble the report."""
    ctx = _Context(config)
    claims = [_run(spec, ctx) for spec in _CLAIMS if spec.suite in config.suites]
    warnings = [] if config.suites else ["no suites selected; the result is vacuously passing"]
    return VerificationReport(
        version=TOOLKIT_VERSION,
        config=config,
        claims=claims,
        overall_pass=all(c.passed for c in claims),
        warnings=warnings,
    )
