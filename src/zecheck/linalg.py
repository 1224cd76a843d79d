"""Dense complex linear algebra with tensor-factor bookkeeping.

Operators are plain complex ndarrays; operations that care about tensor
structure take an explicit tuple of factor dimensions.  The basis
convention is fixed globally: the leftmost factor is the most
significant index, i.e. |i>|j> sits at row i * dim_j + j.  The random
operators here take the generator of a case's stream from `sampling`,
which holds the seeding scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

DEFAULT_TOL = 1e-9


def tensor(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more operators (or vectors)."""
    return reduce(np.kron, (np.asarray(f, dtype=complex) for f in factors))


def basis_state(dim: int, k: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[k] = 1.0
    return v


def projector(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


def max_entangled(d: int) -> np.ndarray:
    """The uniform two-register entangled vector sum_i |ii> / sqrt(d)."""
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return v


def max_entangled_projector(d: int) -> np.ndarray:
    return projector(max_entangled(d))


def _check_square(m: np.ndarray, dims) -> tuple[int, ...]:
    dims = tuple(int(x) for x in dims)
    side = int(np.prod(dims))
    if m.shape != (side, side):
        raise ValueError(f"matrix shape {m.shape} does not match factor dims {dims}")
    return dims


def partial_transpose(m: np.ndarray, dims, factor: int) -> np.ndarray:
    """Transpose a single tensor factor: |ij><kl| -> |kj><il| for factor 0."""
    m = np.asarray(m, dtype=complex)
    dims = _check_square(m, dims)
    k = len(dims)
    if not 0 <= factor < k:
        raise ValueError(f"factor index {factor} out of range for {k} factors")
    t = m.reshape(dims + dims)
    t = np.swapaxes(t, factor, k + factor)
    return np.ascontiguousarray(t.reshape(m.shape))


def partial_trace(m: np.ndarray, dims, factor: int) -> np.ndarray:
    """Trace out one tensor factor; the remaining factors keep their order."""
    m = np.asarray(m, dtype=complex)
    dims = _check_square(m, dims)
    k = len(dims)
    if not 0 <= factor < k:
        raise ValueError(f"factor index {factor} out of range for {k} factors")
    t = m.reshape(dims + dims)
    t = np.trace(t, axis1=factor, axis2=k + factor)
    side = int(np.prod(dims)) // dims[factor]
    return np.ascontiguousarray(t.reshape(side, side))


@dataclass
class Subspace:
    """Orthonormal basis stored as columns of a single matrix."""

    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T


def support_null(m: np.ndarray, dims=None) -> tuple[Subspace, Subspace]:
    """Split a PSD operator into its support and null eigenspaces.

    Eigenvalues above DEFAULT_TOL * ||m|| count as support.  Raises on
    operators that are not Hermitian PSD within that tolerance.
    """
    m = np.asarray(m, dtype=complex)
    if dims is None:
        dims = (m.shape[0],)
    _check_square(m, dims)
    scale = max(1.0, float(np.abs(m).max()) if m.size else 0.0)
    if np.abs(m - m.conj().T).max() > DEFAULT_TOL * scale:
        raise ValueError("operator is not Hermitian within tolerance")
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    norm = float(np.abs(w).max())
    if norm > 0 and w.min() < -DEFAULT_TOL * norm:
        raise ValueError(f"negative eigenvalue {w.min():.3e} below tolerance")
    keep = w > DEFAULT_TOL * norm
    support = Subspace(np.ascontiguousarray(v[:, keep]))
    null = Subspace(np.ascontiguousarray(v[:, ~keep]))
    return support, null


def trace_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product tr(a^dag b)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) ||a - b||_1 for Hermitian a, b."""
    w = np.linalg.eigvalsh(np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex))
    return float(0.5 * np.abs(w).sum())


def min_eigenvalue(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(np.asarray(m, dtype=complex)).min())


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR with phase-fixed diagonal."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r)
    return q * (ph / np.abs(ph))


def trace_one_gram(g: np.ndarray) -> np.ndarray:
    """G G^dag over its trace, for one matrix G or each of a stack of them."""
    m = g @ g.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def random_psd(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank trace-one PSD matrix (Wishart-style)."""
    return trace_one_gram(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
