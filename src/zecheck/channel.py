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
# Flag tuples per output_overlap GEMM, likewise rounded down to whole
# first-use rows but at least one: 9 of the 216 rows at (3,2).  A chunk's
# product holds about _OVERLAP_FLAGS * d^(2n-1) * ref_dim^2 amplitudes;
# all 216 rows at once doubled the peak memory of the (3,2) identity loop.
_OVERLAP_FLAGS = 2048


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


def _later_uses(channel, states):
    """Apply uses 2..n to all given states at once, one use at a time.

    Returns inner[a_1, (j_2..j_n), (a_2..a_n), (state, control, reference)]:
    the data amplitudes after g_{j_2} (x) .. (x) g_{j_n} acts on data digits
    a_2..a_n, for all m^(n-1) sub-tuples, with the first data digit a_1 and
    the phase untouched.  It holds m^(n-1) * d^(2n) * ref_dim amplitudes
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
    return inner


def _branch_factors(channel, psi):
    """Yield (start, v) per block of flag tuples.

    v[f] is the (control) x (data, reference) amplitude matrix V of psi
    under flag tuple labels[start + f], where labels are the row-major
    _flag_tuples: the receiver branch is V V^dag and the environment branch
    V^T conj(V).

    Uses 2..n come from _later_uses, once per call.  A block is then a run
    of whole first-use rows j_1, one GEMM with their d x d members, and its
    factors hold about _FLAG_BLOCK * d^(2n) * ref_dim amplitudes.
    """
    d = channel.d
    n, ref = psi.n, psi.ref_dim
    side = d**n
    g = channel.design.members
    m = len(g)
    inner = _later_uses(channel, (psi,))
    # P is diagonal, so for flags j the n uses send control tuple i with data
    # a_i to w^{i.a} (g_{j_1} (x) .. (x) g_{j_n} a_i)[a]: one product unitary
    # on the data for all i, then the n-fold phase table phase[i, a].
    phase = tensor(*[np.diagonal(channel.phase_gate).reshape(d, d)] * n)
    phase = phase[:, :, None]  # control, data, reference
    flags = inner.shape[1]
    inner = inner.reshape(d, -1)
    rows = max(1, _FLAG_BLOCK // flags)
    for first in range(0, m, rows):
        k = min(rows, m - first)
        w = (g[first : first + k].reshape(k * d, d) @ inner).reshape(
            k, d, flags, side // d, side, ref
        )
        # to (j_1, (j_2..j_n), control, a_1, (a_2..a_n), reference); the
        # phase multiplies the contiguous copy, not the strided view, which
        # took about twice as long at (3,2)
        v = np.ascontiguousarray(w.transpose(0, 2, 4, 1, 3, 5))
        v = v.reshape(k * flags, side, side, ref)
        v *= phase
        yield first * flags, v.reshape(k * flags, side, side * ref)


def _gram(v, complementary: bool):
    """Branch matrices of a factor stack: environment V^T conj(V), receiver V V^dag."""
    if complementary:
        return np.matmul(v.transpose(0, 2, 1), v.conj())
    return np.matmul(v, v.conj().transpose(0, 2, 1))


def _branch_matrices(channel, psi, complementary: bool):
    labels, weights = _flag_tuples(channel, psi.n)
    out_side = psi.block_len if complementary else psi.d**psi.n
    mats = np.empty((len(labels), out_side, out_side), dtype=complex)
    for start, v in _branch_factors(channel, psi):
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
    for start, v in _branch_factors(channel, psi):
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

    Per flag tuple f, tr(V_x V_x^dag V_y V_y^dag) = ||M_f||_F^2 with
    M_f = V_x^dag V_y, so the overlap is sum_f w_f^2 ||M_f||_F^2.  The
    control index c is contracted before the first use is applied:

    1. _later_uses applies uses 2..n, then the phase w^{c'.a'} of those
       uses is folded in, giving I[c, (a_1, a')] per state and per
       sub-tuple J' = (j_2..j_n), with a_1 still untransformed.
    2. Per J' and per delta in Z_d, T_J'[delta] = sum_c w^{c_1 delta}
       conj(I_x[c]) (x) I_y[c]: m^(n-1) small products instead of m^n.
    3. The first use and its phase w^{c_1 (b_1 - a_1)} then give
       conj(M_f)[(a_1, a'), (b_1, b')] = sum_{s,t} conj(g_j1[a_1, s])
       g_j1[b_1, t] T_J'[b_1 - a_1][(s, a'), (t, b')], so one GEMM per delta
       of (conj g[:, a_1, :] (x) g[:, a_1 + delta, :]), m*d x d^2, against
       T[delta] yields every M_f entry, in chunks of whole rows j_1.

    Every flag's ||M_f||_F^2 is still formed on its own and weighted by
    w_f^2 = w_j1^2 w_J'^2 before the flags are summed: summing over j_1 (or
    any use) before squaring would factor the flag sum per use, which is
    the closed form the central identity checks, and make it circular.
    """
    d, n, ref = channel.d, x.n, x.ref_dim
    g = channel.design.members
    m = len(g)
    inner = _later_uses(channel, (x, y))
    _, flags, rest, _ = inner.shape  # rest = d^(n-1) digits a_2..a_n
    side = d**n
    phase1 = np.diagonal(channel.phase_gate).reshape(d, d)  # w^{c a} of one use
    later_phase = tensor(np.ones((1, 1)), *[phase1] * (n - 1))  # (c', a')
    amp = inner.reshape(d, flags, rest, 2, d, rest, ref)
    amp = amp * later_phase.T.reshape(1, 1, rest, 1, 1, rest, 1)
    # to (state, J', control, (a_1, a', reference))
    amp = amp.transpose(3, 1, 4, 5, 0, 2, 6).reshape(2, flags, side, side * ref)
    # w^{c_1 delta} on the y side, one column block per delta
    ys = amp[1].reshape(flags, d, rest, 1, side * ref) * phase1[:, None, :, None]
    t = np.matmul(amp[0].conj().transpose(0, 2, 1), ys.reshape(flags, side, d * side * ref))
    # to (delta, s, t, J', (a', r), (b', r'))
    block = rest * ref
    t = t.reshape(flags, d, block, d, d, block).transpose(3, 1, 4, 0, 2, 5)
    t = np.ascontiguousarray(t).reshape(d, d * d, flags * block * block)
    # pair[delta, j_1, a_1, (s, t)] = conj(g_j1[a_1, s]) g_j1[a_1 + delta, t]
    shifted = g[:, (np.arange(d)[:, None] + np.arange(d)) % d]  # (j_1, delta, a_1, t)
    pair = g.conj()[:, None, :, :, None] * shifted[:, :, :, None, :]
    pair = np.ascontiguousarray(pair.transpose(1, 0, 2, 3, 4)).reshape(d, m, d, d * d)
    norms = np.zeros((m, flags))
    rows = max(1, _OVERLAP_FLAGS // flags)
    for first in range(0, m, rows):
        k = min(rows, m - first)
        for delta in range(d):
            mf = (pair[delta, first : first + k].reshape(k * d, d * d) @ t[delta]).view(float)
            mf = mf.reshape(k, d, flags, 2 * block * block)
            norms[first : first + k] += np.einsum("kafe,kafe->kf", mf, mf)
    _, weights = _flag_tuples(channel, n)
    return float(weights**2 @ norms.ravel())


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
