"""PPT certificate machinery: isotropic twirl, recursion replay, search.

Everything acts on n pairs of d-dimensional factors.  The partial
transpose is always taken on the first factor of every pair, under
which the per-pair invariants {Phi, I-Phi} map to SWAP/d and
I - SWAP/d.  The certificate replays, label by label, the argument that
no nonzero PSD+PPT operator can be orthogonal to (I-Phi)^{(x)n}.

The randomized search draws its candidate t from
case_rng(seed, "ppt", 40_000 + t), above every other ppt case key.  It
draws and projects the candidates a window at a time; the windows go to
forked workers, one per CPU (`linalg.forked_map`), and come back in
candidate order, so every value is that of a one-CPU run.  One
window holds _WINDOW_AMPLITUDES = 2^12 matrix entries, so 16 candidates
at 16x16, 50 at 9x9 and 256 at 4x4, and each round of the alternation
makes one Cholesky, eigh and transpose call for the whole window.
Below about 16x16 a candidate's cost is numpy and LAPACK call overhead,
which the stack shares out; at 81x81 the eigh itself dominates, a
stacked one saves nothing and the larger stacks cost time, so there
each window holds one candidate.  A window of 2^13 entries ran no
faster and its 128 KiB stacks raised the peak RSS of a d=2, n=2 run by
about 0.2-0.5 MiB.  Every candidate gets the values it would get alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import product

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    case_rng,
    forked_map,
    max_entangled_projector,
    partial_trace,
    partial_transpose,
    tensor,
    trace_inner,
    trace_one_gram,
)

SEARCH_CASE_BASE = 40_000  # the only other ppt case key, 31_000, sits below it
_WINDOW_AMPLITUDES = 2**12  # matrix entries per window of search candidates


@dataclass
class IsotropicDecomposition:
    """Coefficients over {Phi, I-Phi}^n; label bit 0 = Phi, 1 = I-Phi."""

    d: int
    n: int
    coefficients: np.ndarray  # shape (2,) * n

    def reconstruct(self) -> np.ndarray:
        side = self.d ** (2 * self.n)
        out = np.zeros((side, side), dtype=complex)
        for p, op in zip(self.coefficients.ravel(), _label_operators(self.d, self.n)):
            if p != 0.0:
                out += p * op
        return out


@dataclass
class PPTWitness:
    """PSD diagonal witness orthogonal to the transposed entangled projector."""

    matrix: np.ndarray  # (d^2, d^2)
    trace_value: float  # tr(Q) = tr(Q (I-Phi)^Gamma) = d^2 - d


@dataclass
class PPTSearchResult:
    accepted: int
    skipped: int
    min_value: float | None
    # (accepted, 2^n): each accepted candidate's twirl coefficients, in candidate order
    coefficients: np.ndarray = field(compare=False, repr=False)


@dataclass
class RecursionRecord:
    label: tuple[int, ...]
    implied: float
    min_eigenvalue: float


def _label_operators(d: int, n: int) -> np.ndarray:
    """R_label, the product over the pairs of Phi (bit 0) or I-Phi (bit 1), per label in C order."""
    phi = max_entangled_projector(d)
    ops = (phi, np.eye(d * d) - phi)
    return np.stack([tensor(*(ops[bit] for bit in label)) for label in product((0, 1), repeat=n)])


def label_ranks(d: int, n: int) -> np.ndarray:
    """rank(R_label) for every label in C order: (d^2-1)^(complement factors)."""
    return (d * d - 1.0) ** np.array([sum(label) for label in product((0, 1), repeat=n)])


def transposed_eigenvalues(coefficients: np.ndarray, d: int, n: int) -> np.ndarray:
    """Eigenvalues T^(x)n p of the pairwise transpose of sum p_label R_label, per row: (k, 2^n).

    Per pair, (p0 Phi + p1 (I-Phi))^Gamma = p0 SWAP/d + p1 (I - SWAP/d) is T p on the
    symmetric and antisymmetric subspaces (Vollbrecht & Werner 2001): the twirl is
    PPT iff these are >= 0, as it is PSD iff p >= 0.
    """
    t = np.array([[1 / d, 1 - 1 / d], [-1 / d, 1 + 1 / d]])
    return coefficients @ reduce(np.kron, [t] * n).T


def _twirl_basis(d: int, n: int) -> tuple[np.ndarray, ...]:
    """(entries, values, ranks): the flat matrix entries some R_label touches, and R_label there.

    Each R_label is real and symmetric, so Re tr(R m) sums R_ij Re(m_ij) over
    those entries, (2d^2 - d)^n of them: 36 of 256 at (2,2), 225 of 6561 at (3,2).
    """
    flat = _label_operators(d, n).reshape(2**n, -1).real
    entries = np.flatnonzero(flat.any(axis=0))
    return entries, flat[:, entries], label_ranks(d, n)


def _twirl_coefficients(ms: np.ndarray, basis: tuple[np.ndarray, ...]) -> np.ndarray:
    """p_label = Re tr(R_label m) / rank per matrix of a stack: (k, 2^n), each row reduced alone."""
    entries, values, ranks = basis
    flat = ms.reshape(len(ms), ms.shape[-1] ** 2)
    return (flat[:, entries].real[:, None, :] * values).sum(axis=-1) / ranks


def pairwise_partial_transpose(m: np.ndarray, d: int, n: int) -> np.ndarray:
    """Transpose the first factor of each of the n (d x d) pairs, over any leading stack axes."""
    m = np.asarray(m, dtype=complex)
    k = 2 * n
    if m.shape[-2:] != (d**k, d**k):
        raise ValueError(f"matrix shape {m.shape} does not match {n} pairs of dimension {d}")
    # after the stack axes: row axes 0..k-1, column axes k..2k-1; even axes are first factors
    perm = [i + k if i % 2 == 0 else i for i in range(k)]
    perm += [i if i % 2 == 0 else i + k for i in range(k)]
    lead = m.ndim - 2
    t = m.reshape(m.shape[:lead] + (d,) * (2 * k))
    t = t.transpose([*range(lead), *(lead + p for p in perm)])
    return np.ascontiguousarray(t).reshape(m.shape)


def isotropic_twirl_n(m: np.ndarray, d: int, n: int) -> IsotropicDecomposition:
    """Project onto span{Phi, I-Phi}^{(x)n} via exact overlap coefficients.

    p_label = tr(m R_label) / rank(R_label); this is the Haar average of
    conjugation by products of (U (x) conj(U)) per pair, computed in
    closed form rather than sampled.
    """
    m = np.asarray(m, dtype=complex)
    side = d ** (2 * n)
    if m.shape != (side, side):
        raise ValueError(f"matrix shape {m.shape} does not match {n} pairs of dimension {d}")
    w = np.linalg.eigvalsh((m + m.conj().T) / 2)
    scale = max(1.0, float(np.abs(w).max()))
    if w.min() < -DEFAULT_TOL * scale:
        raise ValueError(f"input is not PSD within tolerance (min eigenvalue {w.min():.3e})")
    coeffs = _twirl_coefficients(m[None], _twirl_basis(d, n))
    return IsotropicDecomposition(d=d, n=n, coefficients=coeffs.reshape((2,) * n))


def build_ppt_witness(d: int) -> PPTWitness:
    """Q = sum_{i != j} |ij><ij|; PSD, orthogonal to the transposed Phi."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    diag = np.ones(d * d)
    diag[:: d + 1] = 0.0
    q = np.diag(diag).astype(complex)
    phi_g = partial_transpose(max_entangled_projector(d), (d, d), 0)
    residual = abs(trace_inner(q, phi_g))
    if residual > 1e-12:
        raise AssertionError(f"witness overlaps the transposed projector: {residual:.3e}")
    return PPTWitness(matrix=q, trace_value=float(d * d - d))


def constraint_score(m: np.ndarray, d: int, n: int) -> float:
    """tr(m (I-Phi)^{(x)n}); the quantity the certificate keeps away from 0."""
    return trace_inner(_label_operators(d, n)[-1], np.asarray(m, dtype=complex)).real


def recursion_trace(
    dec: IsotropicDecomposition, witness: PPTWitness
) -> list[RecursionRecord]:
    """Replay the coefficient-forcing contraction for every non-constraint label.

    For a label with c complement factors, contracting the transposed
    reconstruction with the witness on those c pairs leaves
    trace_value^c * p_label * (Phi^Gamma)^{(x)(n-c)} plus contributions
    of labels with strictly more complement factors.  The implied
    coefficient is read off exactly; a positive one makes the contraction
    non-PSD, which is the recorded contradiction.
    """
    d, n = dec.d, dec.n
    pair = d * d
    ng = pairwise_partial_transpose(dec.reconstruct(), d, n)
    phi_g = partial_transpose(max_entangled_projector(d), (d, d), 0)
    records = []
    # by descending complement count, skipping the first: the all-complement constraint label
    for label in sorted(product((0, 1), repeat=n), key=sum, reverse=True)[1:]:
        slots = [t for t, bit in enumerate(label) if bit == 1]
        c = len(slots)
        contracted = ng
        dims = [pair] * n
        for removed, slot in enumerate(slots):
            pos = slot - removed
            factors = (witness.matrix if t == pos else np.eye(dim) for t, dim in enumerate(dims))
            contracted = partial_trace(tensor(*factors) @ contracted, tuple(dims), pos)
            del dims[pos]
        target = tensor(*([phi_g] * (n - c)))
        implied = trace_inner(target, contracted).real / witness.trace_value**c
        min_eig = float(np.linalg.eigvalsh(contracted).min())
        records.append(RecursionRecord(label=label, implied=implied, min_eigenvalue=min_eig))
    return records


def recursion_certificate(
    dec: IsotropicDecomposition, witness: PPTWitness, tol: float = 1e-9
) -> bool:
    """True iff every implied coefficient is ~0, i.e. the source must vanish.

    Requires the constraint coefficient (the all-complement label) to be
    ~0 already; a decomposition violating that precondition is rejected.
    """
    constraint = float(dec.coefficients.flat[-1])  # the all-complement label
    if abs(constraint) > tol:
        raise ValueError(
            f"constraint coefficient {constraint:.3e} is not ~0; "
            "source does not satisfy the orthogonality constraint"
        )
    records = recursion_trace(dec, witness)
    return all(abs(r.implied) <= tol for r in records)


def _psd_clip(ms: np.ndarray, tol: float) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Mask of the stack's matrices with lambda_min < -tol, and their clips in mask order.

    A clip is the matrix with its negative eigenvalues set to 0; both
    entries are None when no matrix needs one.  One Cholesky
    factorization of the stack ms + (tol/2) I accepts every matrix: its
    success certifies lambda_min >= -tol/2 minus a backward error of
    O(dim * eps * ||m||), with ||m|| <= 1 for a trace-one PSD matrix and
    for its partial transpose, so the eigenvalue test would accept each
    of them too.  Only a failed factorization pays for one stacked
    `eigh`, which decides every matrix; one whose own factorization
    passed is accepted by it as well, so each matrix gets the decision
    it would get alone.
    """
    shifted = ms.copy()
    shifted.reshape(len(ms), -1)[:, :: ms.shape[-1] + 1] += tol / 2  # the diagonals
    try:
        np.linalg.cholesky(shifted)
        return None, None
    except np.linalg.LinAlgError:
        pass
    w, v = np.linalg.eigh(ms)
    clip = ~(w.min(axis=-1) >= -tol)
    if not clip.any():
        return None, None
    if not clip.all():
        w, v = w[clip], v[clip]
    return clip, (v * np.clip(w, 0.0, None)[:, None, :]) @ v.conj().swapaxes(-1, -2)


def _normalized(ms: np.ndarray, names: np.ndarray) -> np.ndarray:
    """ms over their traces; raises naming the first candidate that is not finite."""
    out = ms / np.trace(ms, axis1=-2, axis2=-1).real[:, None, None]
    if not np.isfinite(out.view(np.float64)).all():
        finite = np.isfinite(out).all(axis=(-2, -1))
        raise ValueError(f"candidate {names[np.argmin(finite)]} is not finite")
    return out


def _hermitized(ms: np.ndarray) -> np.ndarray:
    return (ms + ms.conj().swapaxes(-1, -2)) / 2


def _project_stack(
    ms: np.ndarray, d: int, n: int, max_rounds: int = 200, tol: float = 1e-10, first: int = 0
) -> list[np.ndarray | None]:
    """Alternating eigenvalue clipping on each matrix of a stack and on its pairwise transpose.

    Entry i, for candidate first+i, is a trace-one PPT matrix, or None when its
    alternation does not converge within `max_rounds`; the matrix alone would
    get the same.  Each
    round applies `_psd_clip` to the active stack, then to its pairwise
    transpose; a matrix whose transpose passes retires, so callers need not
    check it: it passed at tol too, or is that round's clip, PSD up to
    rounding.  A matrix that is not finite after a normalization raises
    `ValueError` naming it: a Cholesky factorization of NaN can succeed.
    """
    out: list[np.ndarray | None] = [None] * len(ms)
    names = np.arange(first, first + len(ms))
    cur = _normalized(_hermitized(np.asarray(ms, dtype=complex)), names)
    for _ in range(max_rounds):
        clip, psd = _psd_clip(cur, tol)
        if psd is not None and len(psd) == len(cur):
            cur = _normalized(psd, names)
        elif psd is not None:
            cur[clip] = _normalized(psd, names[clip])
        g = pairwise_partial_transpose(cur, d, n)
        clip, ppt = _psd_clip(g, tol)
        if ppt is None or len(ppt) < len(cur):
            for i in range(len(cur)) if ppt is None else np.flatnonzero(~clip):
                out[names[i] - first] = cur[i]
            if ppt is None:
                return out
            names = names[clip]
        cur = _normalized(_hermitized(pairwise_partial_transpose(ppt, d, n)), names)
    return out


def _search_candidates(d: int, n: int, seed: int, start: int, stop: int) -> np.ndarray:
    """The trace-one PSD matrices ppt_search projects as candidates start..stop-1.

    Candidate t is random_psd(d^(2n), case_rng(seed, "ppt", 40_000 + t)):
    the same two draws, with the Wishart product and its trace formed on
    the stack.
    """
    side = d ** (2 * n)
    re = np.empty((stop - start, side, side))
    im = np.empty_like(re)
    for i, t in enumerate(range(start, stop)):
        rng = case_rng(seed, "ppt", SEARCH_CASE_BASE + t)
        rng.standard_normal(out=re[i])
        rng.standard_normal(out=im[i])
    return trace_one_gram(re + 1j * im)


def ppt_search(d: int, n: int, trials: int, seed: int) -> PPTSearchResult:
    """Randomized search for PPT matrices orthogonal to (I-Phi)^{(x)n}.

    Candidates are random PSD matrices pushed into the PPT cone by
    alternating clipping, a window of them at a time, the windows spread
    over forked workers; non-convergent candidates are skipped and
    counted.  The returned minimum staying away from zero is the certified
    prediction.  The result also holds the twirl coefficients of every
    accepted candidate, in candidate order.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    constraint, basis = _label_operators(d, n)[-1], _twirl_basis(d, n)
    side = d ** (2 * n)
    window = max(1, _WINDOW_AMPLITUDES // (side * side))

    def search_window(start):
        """The scores and twirl coefficients of the window's accepted candidates."""
        stop = min(start + window, trials)
        projected = _project_stack(_search_candidates(d, n, seed, start, stop), d, n, first=start)
        accepted = np.array([m for m in projected if m is not None]).reshape(-1, side, side)
        return ([trace_inner(constraint, m).real for m in accepted],
                _twirl_coefficients(accepted, basis))

    windows = forked_map(search_window, range(0, trials, window))
    scores = [score for window_scores, _ in windows for score in window_scores]
    # np.min keeps a NaN score, which a running builtin min can drop
    min_value = float(np.min(scores)) if scores else None
    return PPTSearchResult(accepted=len(scores), skipped=trials - len(scores),
                           min_value=min_value,
                           coefficients=np.concatenate([c for _, c in windows]))
