"""Closed-form overlap operator and one-shot zero-error code conditions.

The design-averaged overlap of two channel outputs is a quadratic form
<x|K^{(x)n}|x> in a pairing vector x built from the two inputs.  K has a
closed form over any exact 2-design, its null space is spanned by
mu (x) Phi with mu orthogonal to the uniform vector, and the overlap
vanishes iff no control tuple carries both inputs.

Each condition has one implementation over (pairs, d^n, d^n) block stacks,
`disjoint_blocks` and `code_pair_forms`, which the claims' sweeps call a
window at a time; `disjoint_support` and `code_pair_conditions`, which the
acceptance gate's A4 and A5 read, are their one-pair calls.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

from .channel import BlockStateVector
from .designs import UnitaryFamily, clock, conjugate_twirl
from .linalg import max_entangled_projector, projector

BLOCK_ZERO_TOL = 1e-8


def _coupling_matrix(d: int) -> np.ndarray:
    a = np.full((d, d), -1.0 / (d * d - 1))
    np.fill_diagonal(a, 1.0)
    return a


@cache
def overlap_operator(d: int) -> np.ndarray:
    """sum_ik |i><k| (x) (a_ik (I-Phi) + Phi), a_ii = 1, a_ik = -1/(d^2-1).

    Built once per d and shared, read-only, by every caller.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    phi = max_entangled_projector(d)
    comp = np.eye(d * d) - phi
    ones = np.ones((d, d))
    op = np.kron(_coupling_matrix(d), comp) + np.kron(ones, phi)
    op.flags.writeable = False
    return op


def overlap_support_projector(d: int) -> np.ndarray:
    """I (x) (I-Phi) + |nu><nu| (x) Phi with nu the uniform vector."""
    phi = max_entangled_projector(d)
    nu = np.full(d, 1.0 / np.sqrt(d), dtype=complex)
    return np.kron(np.eye(d), np.eye(d * d) - phi) + np.kron(projector(nu), phi)


def design_average_overlap_operator(family: UnitaryFamily) -> np.ndarray:
    """Brute-force average of the per-member operators over the family.

    Each member contributes sum_ik |i><k| (x) m (x) conj(m) with
    m = g^dag Z^{k-i} g, so block (i, k) of the average is the conjugate
    twirl of Z^{k-i} (x) conj(Z^{k-i}); agreement with `overlap_operator`
    certifies the closed form.
    """
    d = family.d
    powers = (np.linalg.matrix_power(clock(d), delta) for delta in range(d))
    twirled = np.stack([conjugate_twirl(family, np.kron(z, z.conj())) for z in powers])
    shifts = (np.arange(d) - np.arange(d)[:, None]) % d  # shifts[i, k] = k - i mod d
    return twirled[shifts].transpose(0, 2, 1, 3).reshape(d**3, d**3)


def _check_pair(psi1: BlockStateVector, psi2: BlockStateVector) -> None:
    if (psi1.d, psi1.n) != (psi2.d, psi2.n):
        raise ValueError("states must share dimension and number of uses")


def overlap_forms(blocks1: np.ndarray, blocks2: np.ndarray, d: int, n: int) -> np.ndarray:
    """<x_p|K^{(x)n}|x_p> for every pair p of two (pairs, d^n, d^n) block stacks.

    x_p = sum_i |i>|a_i>|conj(b_i)> pairs the blocks a_i of blocks1[p]
    with the blocks b_i of blocks2[p].  K is built once and contracted
    against the whole stack one use at a time; the n-fold operator is
    never materialized.
    """
    side = d**n
    if blocks1.ndim != 3 or blocks1.shape[1:] != (side, side) or blocks2.shape != blocks1.shape:
        raise ValueError(f"block stacks {blocks1.shape} and {blocks2.shape}, expected "
                         f"(pairs, {side}, {side}) each: no reference register")
    pairs = len(blocks1)
    x = np.einsum("pia,pib->piab", blocks1, blocks2.conj())
    # group axes use-major: (i_t, a_t, b_t) per use t, behind the pair axis
    perm = [0] + [1 + k * n + t for t in range(n) for k in range(3)]
    t = np.transpose(x.reshape((pairs,) + (d,) * (3 * n)), perm).reshape((pairs,) + (d**3,) * n)
    op = overlap_operator(d)
    y = t
    for axis in range(1, n + 1):
        y = np.moveaxis(np.tensordot(op, y, axes=(1, axis)), 0, axis)
    # one BLAS dot product per pair: summed by einsum instead, the reported
    # central-identity and form-property gaps move in their last bits
    size = d ** (3 * n)
    return (t.reshape(pairs, 1, size).conj() @ y.reshape(pairs, size, 1)).real.reshape(pairs)


def averaged_output_overlap(psi1: BlockStateVector, psi2: BlockStateVector) -> float:
    """<x|K^{(x)n}|x>; equals m^n times the flag-weighted output overlap."""
    _check_pair(psi1, psi2)
    return float(overlap_forms(psi1.blocks[None], psi2.blocks[None], psi1.d, psi1.n)[0])


def disjoint_blocks(blocks1: np.ndarray, blocks2: np.ndarray) -> np.ndarray:
    """Per pair, whether no control tuple has both row norms above BLOCK_ZERO_TOL."""
    shared = np.minimum(np.linalg.norm(blocks1, axis=-1), np.linalg.norm(blocks2, axis=-1))
    return np.all(shared <= BLOCK_ZERO_TOL, axis=-1)


def disjoint_support(psi1: BlockStateVector, psi2: BlockStateVector) -> bool:
    """True iff no control tuple carries a nonzero block of both states."""
    _check_pair(psi1, psi2)
    return bool(disjoint_blocks(psi1.blocks[None], psi2.blocks[None])[0])


def code_pair_forms(blocks1: np.ndarray, blocks2: np.ndarray, d: int, n: int) -> np.ndarray:
    """(2, pairs): the overlap forms of each pair (a, b) and of ((a+b), (a-b))/sqrt(2)."""
    forms = overlap_forms(np.concatenate([blocks1, (blocks1 + blocks2) / np.sqrt(2)]),
                          np.concatenate([blocks2, (blocks1 - blocks2) / np.sqrt(2)]), d, n)
    return forms.reshape(2, len(blocks1))


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
    _check_pair(psi1, psi2)
    forms = code_pair_forms(psi1.blocks[None], psi2.blocks[None], psi1.d, psi1.n)
    return CodePairCheck(*(forms[:, 0] <= BLOCK_ZERO_TOL).tolist())
