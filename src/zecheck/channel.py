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

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .designs import UnitaryFamily

# Amplitudes per chunk of whole first-use rows (at least one row) of
# _branch_factors' factors: one of the 216 rows of a (3,2) pass.  Three rows
# per (3,2) pass made apply_n about 1.5 times slower (OpenBLAS, one thread).
_CHUNK_AMPLITUDES = 2**15
# Amplitudes of T per block of sub-tuples J' in overlap_kernel, d^(2n+1) * ref_dim
# per J': one block of all 24 at (2,2), 16 a block at (3,2).  All 216 at once,
# with their Grams, held about 6 MiB for a (3,2) pair.
_OVERLAP_AMPLITUDES = 2**12


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
        """Row of control tuple `label`; raises on a tuple of the wrong length or range."""
        digits = tuple(int(i) for i in label)
        if len(digits) != self.n or not all(0 <= i < self.d for i in digits):
            raise ValueError(f"control tuple {tuple(label)} is not in range({self.d})^{self.n}")
        return int(np.ravel_multi_index(digits, (self.d,) * self.n))

    def block_norms(self) -> np.ndarray:
        return np.linalg.norm(self.blocks, axis=1)

    def total_norm(self) -> float:
        return float(np.linalg.norm(self.blocks))

    @classmethod
    def zero(cls, d: int, n: int) -> "BlockStateVector":
        return cls(d, n, np.zeros((d**n, d**n), dtype=complex))

    @classmethod
    def from_blocks(cls, d: int, n: int, mapping) -> "BlockStateVector":
        """Build from {control tuple: amplitude vector}; missing tuples are zero."""
        out = cls.zero(d, n)
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
    """Assemble the channel for dimension d from a verified 2-design.

    The claim channel.phase_gate_form checks the phase gate against its
    controlled-clock block form sum_i |i><i| (x) Z^i.
    """
    if family.d != d:
        raise ValueError(f"family dimension {family.d} does not match d={d}")
    if not family.verified:
        raise ValueError("design family has not passed 2-design verification")
    i, j = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    phase = np.diag(np.exp(2j * np.pi * (i * j).ravel() / d))
    k = np.arange(d)
    z_powers = np.stack([np.diag(np.exp(2j * np.pi * l * k / d)) for l in range(d)])
    return FlaggedPhaseChannel(d=d, design=family, phase_gate=phase, z_powers=z_powers)


def _flag_weights(channel, n):
    """Product weights w_j1 ... w_jn of all m^n flag tuples, in row-major order."""
    w = channel.design.weights
    out = w.copy()  # a CQState must not share the design's weights
    for _ in range(n - 1):
        out = np.multiply.outer(out, w)  # left to right, like np.prod along a label row
    return out.ravel()


def _flag_tuples(channel, n):
    """All m^n flag tuples in row-major order and their product weights."""
    labels = np.indices((len(channel.design),) * n).reshape(n, -1).T
    return labels, _flag_weights(channel, n)


def _apply_use(channel, members, inner, ref):
    """Apply one use: each member g_j to digit a_t, then the phase w^{c_t a_t}.

    inner[(a_1..a_t), (j_t+1..j_n), (a_t+1..a_n), (state, control, reference)]
    holds the data once uses t+1..n have acted; P is diagonal, so its phase
    factors per use.  Returns a view of one fresh array,
    out[(a_1..a_t-1), j_t, (j_t+1..j_n), a_t, (a_t+1..a_n), cols].
    """
    d, k = channel.d, len(members)
    lead, flags, done, cols = inner.shape
    out = members.reshape(k * d, d) @ inner.reshape(lead // d, d, flags * done * cols)
    # w^{a_t c_t} over (a_t, (a_t+1..a_n), cols), cols split around c_t, so
    # that the multiply runs over contiguous runs of done * cols amplitudes
    phase = np.diagonal(channel.phase_gate).reshape(d, d)[:, None, None, :, None]
    table = np.broadcast_to(phase, (d, done, cols // (d * done * ref), d, done * ref))
    out.reshape(-1, d, flags, done * cols)[...] *= table.reshape(d, 1, done * cols)
    return out.reshape(lead // d, k, d, flags, done, cols).transpose(0, 1, 3, 2, 4, 5)


def _later_uses(channel, states):
    """Apply uses n..2 to all given states at once, one _apply_use each.

    Returns inner[a_1, (j_2..j_n), (a_2..a_n), (state, control, reference)]:
    the data amplitudes after uses 2..n and their phases, for all m^(n-1)
    sub-tuples, with the first data digit a_1 untouched.  It holds
    m^(n-1) * d^(2n) * ref_dim amplitudes per state.
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
    # data digits as rows, (state, control, reference) as columns
    b = np.stack([psi.blocks for psi in states]).reshape(len(states), side, side, ref)
    cols = len(states) * side * ref
    inner = b.transpose(2, 0, 1, 3).reshape(side, 1, 1, cols)
    for _ in range(n - 1):
        lead, flags, done, _ = inner.shape
        inner = _apply_use(channel, g, inner, ref).reshape(
            lead // d, len(g) * flags, d * done, cols
        )
    return inner


def _first_use_chunks(channel, psi):
    """Yield (start, w) per chunk of whole first-use rows j_1.

    _apply_use applies the chunk's first use to _later_uses' data:
    w[j, (j_2..j_n), a_1, (a_2..a_n), (control, reference)] belongs to flag
    tuple labels[start + j * m^(n-1) + (j_2..j_n)] of the row-major
    _flag_tuples.  w is a view whose first two axes are apart in memory:
    w.swapaxes(1, 2) is C-contiguous.
    """
    d, ref = channel.d, psi.ref_dim
    side = d**psi.n
    g = channel.design.members
    inner = _later_uses(channel, (psi,))
    flags = inner.shape[1]
    rows = max(1, _CHUNK_AMPLITUDES // (flags * side * side * ref))
    for first in range(0, len(g), rows):
        yield first * flags, _apply_use(channel, g[first : first + rows], inner, ref)[0]


def _branch_factors(channel, psi):
    """Yield (start, v) per chunk of flag tuples.

    v[f] is the (control) x (data, reference) amplitude matrix V of psi
    under flag tuple labels[start + f], where labels are the row-major
    _flag_tuples: the receiver branch is V V^dag and the environment branch
    V^T conj(V).  One copy per _first_use_chunks chunk brings it to
    (flag, control, data, reference).
    """
    d, ref = channel.d, psi.ref_dim
    side = d**psi.n
    for start, w in _first_use_chunks(channel, psi):
        # to (j_1, (j_2..j_n), control, a_1, (a_2..a_n), reference)
        w = w.reshape(*w.shape[:3], side // d, side, ref).transpose(0, 1, 4, 2, 3, 5)
        yield start, np.ascontiguousarray(w).reshape(-1, side, side * ref)


def _branch_matrices(channel, psi, complementary: bool):
    """Branch matrices L L^dag per flag: L = V for the receiver, V^T for the environment."""
    labels, weights = _flag_tuples(channel, psi.n)
    out_side = psi.block_len if complementary else psi.d**psi.n
    mats = np.empty((len(labels), out_side, out_side), dtype=complex)
    for start, v in _branch_factors(channel, psi):
        left = v.transpose(0, 2, 1) if complementary else v
        np.matmul(left, left.conj().transpose(0, 2, 1), out=mats[start : start + len(v)])
    return labels, weights, mats


def apply_n(channel: FlaggedPhaseChannel, psi: BlockStateVector) -> CQState:
    """Receiver-side output of n channel uses, one branch per flag tuple."""
    labels, weights, mats = _branch_matrices(channel, psi, complementary=False)
    return CQState(channel.d, psi.n, labels, weights, mats)


def apply_complementary_n(channel: FlaggedPhaseChannel, psi: BlockStateVector) -> CQState:
    """Environment-side output (data register plus any reference) per flag tuple."""
    labels, weights, mats = _branch_matrices(channel, psi, complementary=True)
    return CQState(channel.d, psi.n, labels, weights, mats)


def conservation_residual(channel: FlaggedPhaseChannel, psi: BlockStateVector) -> float:
    """Trace and positivity residual of apply_n and apply_complementary_n; NaN stays NaN.

    One pass reads s_f = ||V_f||_F^2 = tr(V V^dag) = tr(V^T conj(V)) per flag
    tuple f, for both outputs, and builds neither: the sum of squares does not
    depend on the order of V's entries, so it reads _first_use_chunks' output
    as it lies in memory, without _branch_factors' copy.  The value is the largest
    of |sum_f w_f s_f - 1|, max_f |s_f - 1| (each flag's map is unitary, so a
    unit input gives every branch trace 1) and gamma_{k+2} max_f s_f, with
    k = psi.block_len and gamma_j = j u / (1 - j u) for unit roundoff u.  An
    entry of fl(V V^dag) or fl(V^T conj(V)) is a complex inner product of
    length <= k, so the formed Gram's error obeys |E| <= gamma_{k+2} |V| |V^dag|
    (Higham, Accuracy and Stability of Numerical Algorithms, sections 3.5-3.6)
    and ||E||_2 <= ||E||_F <= gamma_{k+2} ||V||_F^2; both exact Grams are PSD,
    so every formed branch has lambda_min >= -gamma_{k+2} s_f.
    """
    weights = _flag_weights(channel, psi.n)
    norms = np.empty(len(weights))
    for start, w in _first_use_chunks(channel, psi):
        rows, flags, d = w.shape[:3]
        flat = w.swapaxes(1, 2).view(float).reshape(rows, d, flags, -1)
        norms[start : start + rows * flags] = np.einsum("jafe,jafe->jf", flat, flat).ravel()
    k, u = psi.block_len + 2, np.finfo(float).eps / 2
    total = np.sum(weights * norms)  # pairwise: one BLAS dot over (3,2)'s flags drifts 2e-14
    return float(np.max([abs(total - 1.0), np.abs(norms - 1.0).max(),
                         k * u / (1 - k * u) * norms.max()]))


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


def overlap_kernel(
    channel: FlaggedPhaseChannel,
) -> Callable[[BlockStateVector, BlockStateVector], float]:
    """cq_overlap(apply_n(channel, x), apply_n(channel, y)) as a function of (x, y).

    Per flag tuple f, tr(V_x V_x^dag V_y V_y^dag) = ||M_f||_F^2 with
    M_f = V_x^dag V_y, so the overlap is sum_f w_f^2 ||M_f||_F^2.  The
    control index c is contracted before the first use is applied:

    1. _later_uses applies uses 2..n and their phase w^{c'.a'}, giving
       I[c, (a_1, a')] per state and per sub-tuple J' = (j_2..j_n), with
       a_1 still untransformed.
    2. Per J' and per delta in Z_d, T_J'[delta] = sum_c w^{c_1 delta}
       conj(I_x[c]) (x) I_y[c]: m^(n-1) small products instead of m^n.
    3. The first use and its phase w^{c_1 (b_1 - a_1)} then give
       conj(M_f)[(a_1, a'), (a_1 + delta, b')] = (P T_J'[delta])[a_1, (a', b')]
       with the pair coefficients P_j1[delta][a_1, (s, t)] = conj(g_j1[a_1, s])
       g_j1[a_1 + delta, t].  So ||M_f||_F^2 = sum_delta tr(Q G) with two
       d^2 x d^2 Grams, Q_j1[delta] = P^dag P per member and G_J'[delta] =
       T T^dag per sub-tuple, and one real GEMM gives every flag's norm.

    Q depends on the design alone, so it is formed once here and every
    pair the returned function takes reuses it.  Step 2 and the Grams G
    run over blocks of sub-tuples J' (`_sub_tuple_grams`), so no T of all
    m^(n-1) sub-tuples is held.  The one real GEMM over all flags comes
    last: split into column blocks, OpenBLAS's small-matrix kernels (taken
    at some narrow widths) would sum in another order and move the last
    bits.

    Every flag's ||M_f||_F^2 is still formed on its own and weighted by
    w_f^2 = w_j1^2 w_J'^2 before the flags are summed: summing over j_1 (or
    any use) before squaring would factor the flag sum per use, which is
    the closed form the central identity checks, and make it circular.
    Neither Gram sums over members: G holds one sub-tuple J' and Q one
    member j_1, so no design identity enters.
    """
    d, g = channel.d, channel.design.members
    # conj(P)[j_1, delta, a_1, (s, t)] = g_j1[a_1, s] conj(g_j1[a_1 + delta, t])
    shifted = g[:, (np.arange(d)[:, None] + np.arange(d)) % d].conj()  # (j_1, delta, a_1, t)
    pair = np.multiply(g[:, None, :, :, None], shifted[:, :, :, None, :], order="C")
    design_grams = _packed_grams(pair.reshape(len(g), d, d, d * d).swapaxes(2, 3))

    def overlap(x: BlockStateVector, y: BlockStateVector) -> float:
        norms = design_grams @ _sub_tuple_grams(channel, x, y).T  # norms[j_1, J'] = ||M_f||_F^2
        return float(_flag_weights(channel, x.n) ** 2 @ norms.ravel())

    return overlap


def _sub_tuple_grams(channel, x, y):
    """The packed Grams G_J'[delta] = T T^dag of overlap_kernel, one row per sub-tuple J'.

    T is formed for a block of sub-tuples at a time, about
    _OVERLAP_AMPLITUDES amplitudes, and only the blocks' packed Grams (d^5
    reals per J') are kept.
    """
    d, ref = channel.d, x.ref_dim
    inner = _later_uses(channel, (x, y))
    _, flags, rest, _ = inner.shape  # rest = d^(n-1) digits a_2..a_n
    side, block = d**x.n, rest * ref
    phase1 = np.diagonal(channel.phase_gate).reshape(d, d)  # w^{c a} of one use
    grams = np.empty((flags, d**5))
    step = max(1, _OVERLAP_AMPLITUDES // (d * side * side * ref))
    for first in range(0, flags, step):
        part = inner[:, first : first + step]
        k = part.shape[1]
        # to (state, J', control, (a_1, a', reference))
        amp = part.reshape(d, k, rest, 2, side, ref).transpose(3, 1, 4, 0, 2, 5)
        amp = amp.reshape(2, k, side, side * ref)
        # w^{c_1 delta} on the y side, one column block per delta
        t = amp[1].reshape(k, d, rest, 1, side * ref) * phase1[:, None, :, None]
        t = np.matmul(amp[0].conj().transpose(0, 2, 1), t.reshape(k, side, d * side * ref))
        # to (J', delta, (s, t), ((a', r), (b', r')))
        t = t.reshape(k, d, block, d, d, block).transpose(0, 3, 1, 4, 2, 5)
        grams[first : first + k] = _packed_grams(t.reshape(k, d, d * d, block * block))
    return grams


def _packed_grams(a):
    """Re + Im of the Gram a a^dag of every matrix of a stack, one row per leading index.

    For Hermitian Q and G, tr(Q G) = sum_kl (Re + Im)(Q)_kl (Re + Im)(G)_kl,
    as each cross term pairs a symmetric part with an antisymmetric one, so
    one real GEMM of packed rows gives every tr(Q G).
    """
    gram = a @ a.conj().swapaxes(-1, -2)
    return (gram.real + gram.imag).reshape(len(a), -1)


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
        keep = np.zeros(d**n, dtype=bool)
        keep[_support_rows(psi, support)] = True
        psi.blocks[~keep] = 0.0
    # total_norm() as np.linalg.norm forms it for complex input, without its call overhead
    flat = psi.blocks.ravel(order="K")
    norm = math.sqrt(flat.real.dot(flat.real) + flat.imag.dot(flat.imag))
    if norm > 0:
        psi.blocks /= norm
    return psi


def _support_rows(psi: BlockStateVector, support):
    """The rows of psi's control tuples in support, in one pass over them as a (k, n) array.

    A support that is no such array of in-range digits (tuples of mixed
    length, a digit out of range, no tuple at all) goes through flat_index
    tuple by tuple instead, which raises naming the first bad tuple.
    """
    try:
        digits = np.asarray(support)
        if digits.ndim == 2:
            return np.ravel_multi_index(tuple(digits.T), (psi.d,) * psi.n)
    except (TypeError, ValueError):
        pass
    return [psi.flat_index(label) for label in support]
