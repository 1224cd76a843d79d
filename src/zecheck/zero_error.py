"""Closed-form overlap operator and one-shot zero-error code conditions.

The design-averaged overlap of two channel outputs is a quadratic form
<x|K^{(x)n}|x> in a pairing vector x built from the two inputs.  K has a
closed form over any exact 2-design, its null space is spanned by
mu (x) Phi with mu orthogonal to the uniform vector, and the overlap
vanishes iff no control tuple carries both inputs.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .channel import BlockStateVector
from .designs import UnitaryFamily
from .linalg import max_entangled_projector, projector

BLOCK_ZERO_TOL = 1e-8


def _coupling_matrix(d: int) -> np.ndarray:
    a = np.full((d, d), -1.0 / (d * d - 1))
    np.fill_diagonal(a, 1.0)
    return a


def overlap_operator(d: int) -> np.ndarray:
    """sum_ik |i><k| (x) (a_ik (I-Phi) + Phi), a_ii = 1, a_ik = -1/(d^2-1)."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    phi = max_entangled_projector(d)
    comp = np.eye(d * d) - phi
    ones = np.ones((d, d))
    return np.kron(_coupling_matrix(d), comp) + np.kron(ones, phi)


def overlap_support_projector(d: int) -> np.ndarray:
    """I (x) (I-Phi) + |nu><nu| (x) Phi with nu the uniform vector."""
    phi = max_entangled_projector(d)
    nu = np.full(d, 1.0 / np.sqrt(d), dtype=complex)
    return np.kron(np.eye(d), np.eye(d * d) - phi) + np.kron(projector(nu), phi)


def design_average_overlap_operator(family: UnitaryFamily) -> np.ndarray:
    """Brute-force average of the per-member operators over the family.

    Each member contributes sum_ik |i><k| (x) m (x) conj(m) with
    m = g^dag Z^{k-i} g; agreement with `overlap_operator` certifies the
    closed form.
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


def pairing_vector(psi1: BlockStateVector, psi2: BlockStateVector) -> np.ndarray:
    """x = sum_i |i>|a_i>|conj(b_i)> on three d^n-dimensional registers."""
    if (psi1.d, psi1.n) != (psi2.d, psi2.n):
        raise ValueError("states must share dimension and number of uses")
    if psi1.ref_dim != 1 or psi2.ref_dim != 1:
        raise ValueError("pairing vector is defined for states without a reference register")
    return np.einsum("ia,ib->iab", psi1.blocks, psi2.blocks.conj()).ravel()


def averaged_output_overlap(psi1: BlockStateVector, psi2: BlockStateVector) -> float:
    """<x|K^{(x)n}|x>; equals m^n times the flag-weighted output overlap.

    The n-fold operator is never materialized: K is contracted against
    the pairing vector one use at a time.
    """
    x = pairing_vector(psi1, psi2)
    d, n = psi1.d, psi1.n
    op = overlap_operator(d)
    t = x.reshape((d,) * (3 * n))
    # group axes use-major: (i_t, a_t, b_t) per use t
    perm = [k * n + t for t in range(n) for k in range(3)]
    t = np.transpose(t, perm).reshape((d**3,) * n)
    y = t
    for axis in range(n):
        y = np.moveaxis(np.tensordot(op, y, axes=(1, axis)), 0, axis)
    return float(np.vdot(t, y).real)


def disjoint_support(psi1: BlockStateVector, psi2: BlockStateVector) -> bool:
    """True iff no control tuple carries a nonzero block of both states."""
    if (psi1.d, psi1.n) != (psi2.d, psi2.n):
        raise ValueError("states must share dimension and number of uses")
    n1 = psi1.block_norms()
    n2 = psi2.block_norms()
    return bool(np.all(np.minimum(n1, n2) <= BLOCK_ZERO_TOL))


class CodePairCheck(NamedTuple):
    """The two trace-orthogonality conditions for a perfect one-qubit code."""

    outputs_orthogonal: bool
    mixed_outputs_orthogonal: bool


def code_pair_conditions(psi1: BlockStateVector, psi2: BlockStateVector) -> CodePairCheck:
    """Check output orthogonality for (psi1, psi2) and for their sum/difference.

    Both conditions holding with both states nonzero would certify a
    perfectly transmittable qubit pair.  Zero or vanishing combinations
    are legal inputs; whether the states vanish is the caller's check.
    """
    first = averaged_output_overlap(psi1, psi2) <= BLOCK_ZERO_TOL
    plus = BlockStateVector(psi1.d, psi1.n, (psi1.blocks + psi2.blocks) / np.sqrt(2))
    minus = BlockStateVector(psi1.d, psi1.n, (psi1.blocks - psi2.blocks) / np.sqrt(2))
    second = averaged_output_overlap(plus, minus) <= BLOCK_ZERO_TOL
    return CodePairCheck(bool(first), bool(second))
