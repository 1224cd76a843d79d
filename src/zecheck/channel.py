"""The flagged-phase channel family and its n-fold application.

The channel acts on a control register and a data register, both of
dimension d: a unitary drawn from an exact 2-design is applied to the
data register and announced classically, then a controlled phase
P = sum_ij w^{ij} |i><i| (x) |j><j| couples the registers.  The receiver
keeps the control register plus the flag; the environment keeps the
data register plus the flag.

Outputs are classical-quantum: one PSD branch matrix per flag tuple.
For an input sum_i |i>|a_i> and flag j the receiver branch is

    rho[r, c] = <a_c| g_j^dag Z^{r-c} g_j |a_r>

(exponents mod d), i.e. the |r><c| coefficient is <a_c|...|a_r>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import UnitaryFamily
from .linalg import DEFAULT_TOL, psd_deficit, tensor

# Flag tuples per kernel block, rounded down to whole first-use rows of
# m^(n-1) tuples but at least one row.  A block's factors hold about
# _FLAG_BLOCK * d^(2n) * ref_dim amplitudes per input state; larger blocks
# buy no speed and raise peak memory.
_FLAG_BLOCK = 256


@dataclass
class FlaggedPhaseChannel:
    d: int
    design: UnitaryFamily
    phase_gate: np.ndarray  # (d^2, d^2) diagonal
    z_powers: np.ndarray  # (d, d, d); z_powers[l] = clock^l


@dataclass
class BlockStateVector:
    """Pure input for n channel uses, stored per control-register tuple.

    blocks[flat(i_1..i_n)] is the data-register amplitude vector for
    control tuple (i_1..i_n).  A trailing reference register of
    dimension ref_dim may ride along untouched by the channel.
    """

    d: int
    n: int
    blocks: np.ndarray  # (d**n, d**n * ref_dim)
    ref_dim: int = 1

    def __post_init__(self):
        self.blocks = np.asarray(self.blocks, dtype=complex)
        expected = (self.d**self.n, self.d**self.n * self.ref_dim)
        if self.blocks.shape != expected:
            raise ValueError(f"blocks shape {self.blocks.shape}, expected {expected}")

    @property
    def block_len(self) -> int:
        return self.blocks.shape[1]

    def flat_index(self, label) -> int:
        idx = 0
        for i in label:
            idx = idx * self.d + int(i)
        return idx

    def block_norms(self) -> np.ndarray:
        return np.linalg.norm(self.blocks, axis=1)

    def total_norm(self) -> float:
        return float(np.linalg.norm(self.blocks))

    @classmethod
    def zero(cls, d: int, n: int, ref_dim: int = 1) -> "BlockStateVector":
        return cls(d, n, np.zeros((d**n, d**n * ref_dim), dtype=complex), ref_dim)

    @classmethod
    def from_blocks(cls, d: int, n: int, mapping, ref_dim: int = 1) -> "BlockStateVector":
        """Build from {control tuple: amplitude vector}; missing tuples are zero."""
        out = cls.zero(d, n, ref_dim)
        for label, vec in mapping.items():
            out.blocks[out.flat_index(label)] = np.asarray(vec, dtype=complex)
        return out


@dataclass
class CQState:
    """Classical-quantum output: one weighted branch matrix per flag tuple."""

    d: int
    n: int
    labels: np.ndarray  # (N, n) int
    weights: np.ndarray  # (N,)
    matrices: np.ndarray  # (N, D, D)


def build_channel(d: int, family: UnitaryFamily) -> FlaggedPhaseChannel:
    """Assemble the channel for dimension d from a verified 2-design."""
    if family.d != d:
        raise ValueError(f"family dimension {family.d} does not match d={d}")
    if not family.verified:
        raise ValueError("design family has not passed 2-design verification")
    i, j = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    phase = np.diag(np.exp(2j * np.pi * (i * j).ravel() / d))
    k = np.arange(d)
    z_powers = np.stack([np.diag(np.exp(2j * np.pi * l * k / d)) for l in range(d)])
    block_form = sum(
        np.kron(np.diag(np.eye(d)[m]), z_powers[m]) for m in range(d)
    )
    if np.abs(phase - block_form).max() > DEFAULT_TOL:
        raise AssertionError("phase gate does not match its controlled-clock block form")
    return FlaggedPhaseChannel(d=d, design=family, phase_gate=phase, z_powers=z_powers)


def _flag_tuples(channel, n):
    """All m^n flag tuples in row-major order and their product weights."""
    labels = np.indices((len(channel.design),) * n).reshape(n, -1).T
    return labels, np.prod(channel.design.weights[labels], axis=1)


def _branch_factors(channel, states):
    """Yield (start, v) per block of flag tuples, for all given states at once.

    v[s, f] is the (control) x (data, reference) amplitude matrix V of
    states[s] under flag tuple labels[start + f], where labels are the
    row-major _flag_tuples: the receiver branch is V V^dag and the
    environment branch V^T conj(V).

    Uses 2..n are applied once per call, one use at a time, for all
    m^(n-1) sub-tuples (j_2..j_n); that data stays held for the whole
    call, m^(n-1) * d^(2n) * ref_dim amplitudes per state.  A block is then
    a run of whole first-use rows j_1, one GEMM with their d x d members,
    and its factors hold about _FLAG_BLOCK * d^(2n) * ref_dim amplitudes
    per state.
    """
    d = channel.d
    n, ref = states[0].n, states[0].ref_dim
    for psi in states:
        if psi.d != d:
            raise ValueError(f"state dimension {psi.d} does not match channel d={d}")
        if psi.n != n or psi.ref_dim != ref:
            raise ValueError("states differ in channel uses or reference dimension")
    side = d**n
    g = channel.design.members
    m = len(g)
    # P is diagonal, so for flags j the n uses send control tuple i with data
    # a_i to w^{i.a} (g_{j_1} (x) .. (x) g_{j_n} a_i)[a]: one product unitary
    # on the data for all i, then the n-fold phase table phase[i, a].
    phase = tensor(*[np.diagonal(channel.phase_gate).reshape(d, d)] * n)
    phase = phase[:, :, None]  # control, data, reference
    # data digits as rows, (state, control, reference) as columns
    b = np.stack([psi.blocks for psi in states]).reshape(len(states), side, side, ref)
    cols = len(states) * side * ref
    # inner[(a_1..a_t), (j_t+1..j_n), (a_t+1..a_n), cols] once uses t+1..n
    # are applied; each pass applies use t to the last untouched digit a_t
    inner = b.transpose(2, 0, 1, 3).reshape(side, 1, 1, cols)
    for _ in range(n - 1):
        lead, flags, done, _ = inner.shape
        digit = inner.reshape(lead // d, d, flags * done * cols).transpose(1, 0, 2)
        out = g.reshape(m * d, d) @ digit.reshape(d, -1)
        out = out.reshape(m, d, lead // d, flags, done, cols).transpose(2, 0, 3, 1, 4, 5)
        inner = out.reshape(lead // d, m * flags, d * done, cols)
    flags = inner.shape[1]
    inner = inner.reshape(d, -1)
    rows = max(1, _FLAG_BLOCK // flags)
    for first in range(0, m, rows):
        k = min(rows, m - first)
        w = (g[first : first + k].reshape(k * d, d) @ inner).reshape(
            k, d, flags, side // d, len(states), side, ref
        )
        # to (state, j_1, (j_2..j_n), control, a_1, (a_2..a_n), reference);
        # the phase multiplies the contiguous copy, not the strided view,
        # which took about twice as long at (3,2)
        v = np.ascontiguousarray(w.transpose(4, 0, 2, 5, 1, 3, 6))
        v = v.reshape(len(states), k * flags, side, side, ref)
        v *= phase
        yield first * flags, v.reshape(len(states), k * flags, side, side * ref)


def _gram(v, complementary: bool):
    """Branch matrices of a factor stack: environment V^T conj(V), receiver V V^dag."""
    if complementary:
        return np.matmul(v.transpose(0, 2, 1), v.conj())
    return np.matmul(v, v.conj().transpose(0, 2, 1))


def _branch_matrices(channel, psi, complementary: bool):
    labels, weights = _flag_tuples(channel, psi.n)
    out_side = psi.block_len if complementary else psi.d**psi.n
    mats = np.empty((len(labels), out_side, out_side), dtype=complex)
    for start, (v,) in _branch_factors(channel, (psi,)):
        mats[start : start + len(v)] = _gram(v, complementary)
    return labels, weights, mats


def apply_n(channel: FlaggedPhaseChannel, psi: BlockStateVector) -> CQState:
    """Receiver-side output of n channel uses, one branch per flag tuple."""
    labels, weights, mats = _branch_matrices(channel, psi, complementary=False)
    return CQState(channel.d, psi.n, labels, weights, mats)


def apply_complementary_n(channel: FlaggedPhaseChannel, psi: BlockStateVector) -> CQState:
    """Environment-side output (data register plus any reference) per flag tuple."""
    labels, weights, mats = _branch_matrices(channel, psi, complementary=True)
    return CQState(channel.d, psi.n, labels, weights, mats)


def conservation_residuals(
    channel: FlaggedPhaseChannel, psi: BlockStateVector
) -> tuple[float, float]:
    """Trace and positivity residuals of apply_n and apply_complementary_n.

    Returns the larger of |sum_j w_j tr rho_j - 1| over the two outputs
    and the largest psd_deficit of any branch of either, from one pass
    over the flag blocks; neither output is built.
    """
    _, weights = _flag_tuples(channel, psi.n)
    totals = [0.0, 0.0]  # receiver, environment
    deficit = 0.0
    for start, (v,) in _branch_factors(channel, (psi,)):
        w = weights[start : start + len(v)]
        for side, complementary in enumerate((False, True)):
            mats = _gram(v, complementary)
            totals[side] += float(w @ np.einsum("faa->f", mats).real)
            deficit = max(deficit, psd_deficit(mats))
    return max(abs(t - 1.0) for t in totals), deficit


def cq_overlap(x: CQState, y: CQState) -> float:
    """Hilbert-Schmidt overlap of two classical-quantum outputs.

    Flags are perfectly distinguishable, so only matching labels
    contribute; each pair enters with the product of branch weights.
    """
    if x.n != y.n or x.d != y.d or x.labels.shape != y.labels.shape:
        raise ValueError("branch label sets do not match")
    if not np.array_equal(x.labels, y.labels):
        raise ValueError("branch label sets do not match")
    val = np.einsum(
        "j,jab,jab->", x.weights * y.weights, x.matrices.conj(), y.matrices
    )
    return float(val.real)


def output_overlap(
    channel: FlaggedPhaseChannel, x: BlockStateVector, y: BlockStateVector
) -> float:
    """cq_overlap(apply_n(channel, x), apply_n(channel, y)) without the outputs.

    Per flag tuple j, tr(V_x V_x^dag V_y V_y^dag) = ||V_x^dag V_y||_F^2, so
    the overlap is sum_j w_j^2 ||V_{x,j}^dag V_{y,j}||_F^2, one batched
    product per block of flags and no branch matrix.
    """
    _, weights = _flag_tuples(channel, x.n)
    total = 0.0
    for start, (vx, vy) in _branch_factors(channel, (x, y)):
        k = len(vx)
        # V_x^T conj(V_y) is the conjugate of V_x^dag V_y: same Frobenius norm
        prod = np.matmul(vx.transpose(0, 2, 1), vy.conj()).reshape(k, -1).view(float)
        total += float(weights[start : start + k] ** 2 @ np.einsum("fa,fa->f", prod, prod))
    return total


def random_block_state(
    d: int,
    n: int,
    rng: np.random.Generator,
    support=None,
    ref_dim: int = 1,
) -> BlockStateVector:
    """Normalized state with Gaussian blocks, optionally confined to a support set."""
    blocks = rng.standard_normal((d**n, d**n * ref_dim)) + 1j * rng.standard_normal(
        (d**n, d**n * ref_dim)
    )
    psi = BlockStateVector(d, n, blocks, ref_dim)
    if support is not None:
        keep = {psi.flat_index(label) for label in support}
        for flat in range(d**n):
            if flat not in keep:
                psi.blocks[flat] = 0.0
    norm = psi.total_norm()
    if norm > 0:
        psi.blocks /= norm
    return psi
