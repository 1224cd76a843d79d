"""Non-commutative graph of the channel and its structural checks.

The graph is the span of products of Kraus operators.  Because the flag
registers are orthogonal across design members, the span reduces to
{Z^{k-l} (x) V^dag |l><k| V}.  Fixed-diagonal blocks (k = l) contribute
the full matrix algebra on the data factor; off-diagonal blocks
contribute exactly the traceless matrices.

Operators with distinct clock powers s = k - l are Hilbert-Schmidt
orthogonal, since tr(Z^{s'-s}) = 0 for s != s', so `graph_span`
orthonormalizes one block per s: an SVD of m*d operators of size d x d
in place of one SVD of all m*d^2 operators of size d^2 x d^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import FlaggedPhaseChannel
from .designs import clock

RANK_TOL = 1e-10  # singular values below RANK_TOL * the largest are dropped
MEMBERSHIP_TOL = 1e-8  # relative projection residual that still counts as inside


@dataclass
class OperatorSpan:
    """Hilbert-Schmidt-orthonormal basis of an operator subspace."""

    ambient: int
    basis: np.ndarray  # (dim, ambient, ambient)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def operator_span(matrices) -> OperatorSpan:
    """Orthonormalize a list of operators in the Hilbert-Schmidt inner product."""
    mats = np.asarray(matrices, dtype=complex)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError("expected a stack of square matrices")
    ambient = mats.shape[1]
    vecs = mats.reshape(len(mats), ambient * ambient)
    _, s, vh = np.linalg.svd(vecs, full_matrices=False)
    rank = int(np.sum(s > RANK_TOL * s[0])) if s.size and s[0] > 0 else 0
    basis = vh[:rank].reshape(rank, ambient, ambient)
    return OperatorSpan(ambient=ambient, basis=basis)


def full_matrix_space(ambient: int) -> OperatorSpan:
    basis = np.eye(ambient * ambient, dtype=complex).reshape(
        ambient * ambient, ambient, ambient
    )
    return OperatorSpan(ambient=ambient, basis=basis)


def graph_span(channel: FlaggedPhaseChannel) -> OperatorSpan:
    """Span of Z^{k-l} (x) V^dag |l><k| V over the design and all k, l.

    The span is the orthogonal sum over clock powers s of
    Z^s (x) span{V^dag |l><l+s| V : V, l}: each block is orthonormalized by
    `operator_span` on its m*d operators, with the rank rule applied per
    block, and its basis vectors b enter as Z^s (x) b / sqrt(d), which have
    unit norm as ||Z^s||_F^2 = d.
    """
    d = channel.d
    g = channel.design.members
    # V^dag |l><l+s| V = conj(V[l]) (x) V[l+s] as an outer product of rows
    left = g.conj()[:, :, :, None]
    blocks = []
    for s in range(d):
        ops = left * g[:, (np.arange(d) + s) % d, None, :]
        basis = operator_span(ops.reshape(-1, d, d)).basis
        blocks.append(np.kron(channel.z_powers[s], basis) / np.sqrt(d))
    return OperatorSpan(ambient=d * d, basis=np.concatenate(blocks))


def contains(span: OperatorSpan, m: np.ndarray) -> bool:
    """Membership by projection residual in Hilbert-Schmidt norm."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (span.ambient, span.ambient):
        raise ValueError(f"operator shape {m.shape} does not match ambient {span.ambient}")
    vec = m.ravel()
    basis_vecs = span.basis.reshape(span.dim, -1)
    proj = basis_vecs.T @ (basis_vecs.conj() @ vec)
    norm = np.linalg.norm(vec)
    if norm == 0:
        return True
    return bool(np.linalg.norm(vec - proj) <= MEMBERSHIP_TOL * norm)


def condition_checks(span: OperatorSpan, d: int) -> tuple[bool, bool]:
    """(first condition violated, second condition violated).

    First condition: the span could contain a maximal commutative
    *-subalgebra (dimension d^2) of the full algebra.  Z (x) I commutes
    with the whole span (the left factor is spanned by clock powers), so
    such a subalgebra together with Z (x) I would give d^2 + 1 commuting
    independent operators, impossible; the check verifies both the
    commutation and Z (x) I lying outside the span.  Second condition:
    closure under products fails on the explicit witness
    (I (x) Z)(Z (x) Z^dag) = Z (x) I, which is not in the span.
    """
    z = clock(d)
    eye = np.eye(d, dtype=complex)
    z_i = np.kron(z, eye)
    i_z = np.kron(eye, z)
    z_zdag = np.kron(z, z.conj().T)
    commutes = all(
        np.abs(z_i @ b - b @ z_i).max() <= 1e-9 for b in span.basis
    )
    first_violated = commutes and not contains(span, z_i)
    second_violated = (
        contains(span, i_z)
        and contains(span, z_zdag)
        and not contains(span, i_z @ z_zdag)
    )
    return first_violated, second_violated
