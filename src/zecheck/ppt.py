"""PPT certificate machinery: isotropic twirl, recursion replay, search.

Everything acts on n pairs of d-dimensional factors.  The partial
transpose is always taken on the first factor of every pair, under
which the per-pair invariants {Phi, I-Phi} map to SWAP/d and
I - SWAP/d.  The certificate replays, label by label, the argument that
no nonzero PSD+PPT operator can be orthogonal to (I-Phi)^{(x)n}.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    max_entangled_projector,
    partial_trace,
    partial_transpose,
    psd_deficit,
    tensor,
    trace_inner,
)


@dataclass
class IsotropicDecomposition:
    """Coefficients over {Phi, I-Phi}^n; label bit 0 = Phi, 1 = I-Phi."""

    d: int
    n: int
    coefficients: np.ndarray  # shape (2,) * n

    def labels(self):
        yield from product((0, 1), repeat=self.n)

    def coefficient(self, label) -> float:
        return float(self.coefficients[tuple(label)])

    def reconstruct(self) -> np.ndarray:
        ops = _pair_ops(self.d)
        side = self.d ** (2 * self.n)
        out = np.zeros((side, side), dtype=complex)
        for label in self.labels():
            p = self.coefficient(label)
            if p != 0.0:
                out += p * tensor(*(ops[bit] for bit in label))
        return out


@dataclass
class PPTWitness:
    """PSD diagonal witness orthogonal to the transposed entangled projector."""

    matrix: np.ndarray  # (d^2, d^2)
    trace_value: float  # tr(Q) = tr(Q (I-Phi)^Gamma) = d^2 - d


@dataclass
class PPTSearchResult:
    d: int
    n: int
    trials: int
    seed: int
    accepted: int
    skipped: int
    min_value: float | None


@dataclass
class RecursionRecord:
    label: tuple[int, ...]
    complement_count: int  # number of I-Phi factors contracted against the witness
    implied: float
    coefficient: float
    min_eigenvalue: float


def _pair_ops(d: int) -> tuple[np.ndarray, np.ndarray]:
    phi = max_entangled_projector(d)
    return phi, np.eye(d * d) - phi


def pairwise_partial_transpose(m: np.ndarray, d: int, n: int) -> np.ndarray:
    """Transpose the first factor of each of the n (d x d) pairs."""
    out = np.asarray(m, dtype=complex)
    dims = (d, d) * n
    for t in range(n):
        out = partial_transpose(out, dims, 2 * t)
    return out


def isotropic_twirl_n(
    m: np.ndarray, d: int, n: int, tol: float = DEFAULT_TOL
) -> IsotropicDecomposition:
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
    if w.min() < -tol * scale:
        raise ValueError(f"input is not PSD within tolerance (min eigenvalue {w.min():.3e})")
    ops = _pair_ops(d)
    ranks = (1, d * d - 1)
    coeffs = np.zeros((2,) * n)
    for label in product((0, 1), repeat=n):
        r = tensor(*(ops[bit] for bit in label))
        rank = int(np.prod([ranks[bit] for bit in label]))
        coeffs[label] = trace_inner(r, m).real / rank
    return IsotropicDecomposition(d=d, n=n, coefficients=coeffs)


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


def _constraint_operator(d: int, n: int) -> np.ndarray:
    """(I-Phi)^{(x)n}, the operator constraint_score pairs with."""
    _, comp = _pair_ops(d)
    return tensor(*([comp] * n))


def constraint_score(m: np.ndarray, d: int, n: int) -> float:
    """tr(m (I-Phi)^{(x)n}); the quantity the certificate keeps away from 0."""
    return trace_inner(_constraint_operator(d, n), np.asarray(m, dtype=complex)).real


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
    for c in range(n - 1, -1, -1):
        for label in dec.labels():
            if sum(label) != c:
                continue
            slots = [t for t, bit in enumerate(label) if bit == 1]
            contracted = ng
            dims = [pair] * n
            for removed, slot in enumerate(slots):
                pos = slot - removed
                op = tensor(
                    *(
                        witness.matrix if t == pos else np.eye(dim)
                        for t, dim in enumerate(dims)
                    )
                )
                contracted = partial_trace(op @ contracted, tuple(dims), pos)
                del dims[pos]
            target = tensor(*([phi_g] * (n - c)))
            implied = trace_inner(target, contracted).real / witness.trace_value**c
            min_eig = float(np.linalg.eigvalsh(contracted).min())
            records.append(
                RecursionRecord(
                    label=tuple(label),
                    complement_count=c,
                    implied=implied,
                    coefficient=dec.coefficient(label),
                    min_eigenvalue=min_eig,
                )
            )
    return records


def recursion_certificate(
    dec: IsotropicDecomposition, witness: PPTWitness, tol: float = 1e-9
) -> bool:
    """True iff every implied coefficient is ~0, i.e. the source must vanish.

    Requires the constraint coefficient (the all-complement label) to be
    ~0 already; a decomposition violating that precondition is rejected.
    """
    constraint = dec.coefficient((1,) * dec.n)
    if abs(constraint) > tol:
        raise ValueError(
            f"constraint coefficient {constraint:.3e} is not ~0; "
            "source does not satisfy the orthogonality constraint"
        )
    records = recursion_trace(dec, witness)
    return all(abs(r.implied) <= tol for r in records)


def project_to_ppt(
    m: np.ndarray, d: int, n: int, max_rounds: int = 200, tol: float = 1e-10
) -> np.ndarray | None:
    """Alternating eigenvalue clipping on m and its pairwise transpose.

    Returns a trace-one PPT matrix, or None when the alternation does
    not converge within `max_rounds`.  The matrix returned is the one
    its last round checked, unchanged: its psd_deficit and the negated
    least eigenvalue of its pairwise transpose were both at most tol.
    A round that clips the direct side leaves the check of the clipped
    matrix to the next round, so callers need not check the result.

    The transpose side is first tried by a Cholesky factorization of
    g + (tol/2) I.  Its success certifies lambda_min(g) >= -tol/2 minus a
    backward error of O(dim * eps * ||g||), with ||g|| <= 1 for a trace-one
    PSD matrix, so the eigenvalue test below would accept g as well; only
    a failed factorization pays for the eigendecomposition, whose
    eigenvectors a clip needs.
    """
    cur = np.asarray(m, dtype=complex)
    cur = (cur + cur.conj().T) / 2
    cur = cur / np.trace(cur).real
    for _ in range(max_rounds):
        # eigenvectors only for a clip: in practice the direct side is PSD,
        # and psd_deficit certifies that by Cholesky, without eigenvalues
        if psd_deficit(cur) > tol:
            w, v = np.linalg.eigh(cur)
            cur = (v * np.clip(w, 0.0, None)) @ v.conj().T
            cur = cur / np.trace(cur).real
            continue
        g = pairwise_partial_transpose(cur, d, n)
        try:
            np.linalg.cholesky(g + (tol / 2) * np.eye(len(g)))
            return cur
        except np.linalg.LinAlgError:
            pass
        wg, vg = np.linalg.eigh(g)
        if wg.min() >= -tol:
            return cur
        g = (vg * np.clip(wg, 0.0, None)) @ vg.conj().T
        cur = pairwise_partial_transpose(g, d, n)
        cur = (cur + cur.conj().T) / 2
        cur = cur / np.trace(cur).real
    return None


def ppt_search(d: int, n: int, trials: int, seed: int) -> PPTSearchResult:
    """Randomized search for PPT matrices orthogonal to (I-Phi)^{(x)n}.

    Candidates are random PSD matrices pushed into the PPT cone by
    alternating clipping; non-convergent candidates are skipped and
    counted.  The returned minimum staying away from zero is the
    certified prediction.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    side = d ** (2 * n)
    constraint = _constraint_operator(d, n)
    accepted = skipped = 0
    min_value: float | None = None
    for t in range(trials):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, t])))
        g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        m = g @ g.conj().T
        candidate = project_to_ppt(m / np.trace(m).real, d, n)
        if candidate is None:
            skipped += 1
            continue
        accepted += 1
        score = trace_inner(constraint, candidate).real
        min_value = score if min_value is None else min(min_value, score)
    return PPTSearchResult(
        d=d,
        n=n,
        trials=trials,
        seed=seed,
        accepted=accepted,
        skipped=skipped,
        min_value=min_value,
    )
