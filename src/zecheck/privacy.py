"""Zero-error private transmission: protocol execution and secrecy checks.

The sender puts the message into the control register and feeds half of
a maximally entangled pair into the data register, keeping the other
half.  The receiver's branch for every flag is exactly |m><m|, while the
environment's per-flag state is the maximally mixed state regardless of
the message.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    BlockStateVector,
    CQState,
    FlaggedPhaseChannel,
    apply_complementary_n,
    apply_n,
)
from .linalg import max_entangled


@dataclass
class ProtocolTranscript:
    d: int
    message: int
    bob_output: np.ndarray  # (d, d), averaged over flags
    eve_branches: CQState  # environment register only, per flag
    decoded: int


def transpose_trick_residual(v: np.ndarray) -> float:
    """|| (I (x) v)|Phi> - (v^T (x) I)|Phi> ||, the largest over a stack; zero for every square v.

    Both Kronecker products of every matrix of the stack act on |Phi> in
    one stacked product.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim < 2 or v.shape[-1] != v.shape[-2]:
        raise ValueError("input must be a square matrix or a stack of them")
    d = v.shape[-1]
    eye = np.eye(d)
    # (I (x) v) and (v^T (x) I) per matrix, entry [ij, kl] = delta_ik v_jl and v_ki delta_jl
    sides = np.stack([np.einsum("ik,...jl->...ijkl", eye, v),
                      np.einsum("...ki,jl->...ijkl", v, eye)])
    left, right = sides.reshape(*sides.shape[:-4], d * d, d * d) @ max_entangled(d)
    return float(np.max(np.linalg.norm(left - right, axis=-1)))


def run_protocol(
    channel: FlaggedPhaseChannel, message: int, data_register_state=None
) -> ProtocolTranscript:
    """One protocol round: send `message`, decode, and collect Eve's branches.

    `data_register_state` is the joint state of the data register and the
    sender-retained reference; it defaults to the maximally entangled
    pair.  The privacy.secrecy_control claim and the tests feed it skewed
    inputs, under which the environment's state depends on the message.
    """
    d = channel.d
    if not 0 <= message < d:
        raise ValueError(f"message {message} out of range for d={d}")
    state = max_entangled(d) if data_register_state is None else np.asarray(
        data_register_state, dtype=complex
    )
    if state.size % d != 0:
        raise ValueError("data register state length must be a multiple of d")
    ref = state.size // d

    blocks = np.zeros((d, d * ref), dtype=complex)
    blocks[message] = state
    psi = BlockStateVector(d, 1, blocks, ref_dim=ref)

    bob_cq = apply_n(channel, psi)
    bob_output = np.einsum("j,jab->ab", bob_cq.weights, bob_cq.matrices)
    decoded = int(np.argmax(np.diagonal(bob_output).real))

    joint = apply_complementary_n(channel, psi)
    traced = np.einsum(
        "jarbr->jab", joint.matrices.reshape(len(joint.weights), d, ref, d, ref)
    )
    eve = CQState(d, 1, joint.labels, joint.weights, traced)
    return ProtocolTranscript(
        d=d, message=message, bob_output=bob_output, eve_branches=eve, decoded=decoded
    )


def verify_secrecy(transcripts: list[ProtocolTranscript]) -> float:
    """Max trace distance between Eve branches across message pairs, per flag.

    Zero (within tolerance) certifies that the environment learns
    nothing about the message from any flag outcome.  Every pair's
    per-flag differences share one stacked `eigvalsh`.
    """
    if not transcripts:
        raise ValueError("incomplete message coverage: no transcripts")
    d = transcripts[0].d
    seen = sorted(t.message for t in transcripts)
    if seen != list(range(d)):
        raise ValueError(f"incomplete message coverage: got messages {seen} for d={d}")
    eve = {t.message: t.eve_branches for t in transcripts}
    if any(not np.array_equal(e.labels, eve[0].labels) for e in eve.values()):
        raise ValueError("transcripts come from different channels")
    diffs = [eve[a].matrices - eve[b].matrices for a in range(d) for b in range(a + 1, d)]
    gaps = 0.5 * np.abs(np.linalg.eigvalsh(np.stack(diffs))).sum(axis=-1)
    return float(np.max(gaps))  # keeps a NaN, which the builtin max can drop
