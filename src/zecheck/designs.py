"""Exact unitary 2-designs: qudit Clifford enumeration, certification, twirls.

A family is certified exact by its frame potential, and closed by its m x 4
products with the generators F, S, X and Z; the conjugate twirl
averages (g (x) conj(g))^dag M (g (x) conj(g)) over the family, whose
image for an exact 2-design is spanned by the maximally entangled
projector and its complement.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .linalg import DEFAULT_TOL, max_entangled_projector
from .report import SUPPORTED_D

SIZE_CAP = 10_000
DEDUP_DECIMALS = 10
PHASE_ZERO_TOL = 1e-8  # entries at most this large do not count as a phase pivot
_CONJUGATION_BLOCK_ENTRIES = 2**15  # entries of one block of conjugation_blocks, 512 KiB


@dataclass
class UnitaryFamily:
    """Finite weighted set of d x d unitaries, phase-canonicalized.

    `verified` is set only after `verify_two_design` passes.
    """

    d: int
    members: np.ndarray  # (m, d, d)
    weights: np.ndarray  # (m,)
    verified: bool = field(default=False, compare=False)

    def __len__(self) -> int:
        return self.members.shape[0]


def fourier(d: int) -> np.ndarray:
    k = np.arange(d)
    return np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)


def clock(d: int) -> np.ndarray:
    return np.diag(np.exp(2j * np.pi * np.arange(d) / d))


def shift(d: int) -> np.ndarray:
    return np.roll(np.eye(d, dtype=complex), 1, axis=0)


def qudit_phase(d: int) -> np.ndarray:
    """Diagonal quadratic-phase gate; diag(1, i) for qubits."""
    k = np.arange(d)
    if d == 2:
        return np.diag(np.asarray([1.0, 1.0j], dtype=complex))
    return np.diag(np.exp(2j * np.pi * (k * (k - 1) // 2) / d))


def clifford_generators(d: int) -> list[np.ndarray]:
    return [fourier(d), qudit_phase(d), shift(d), clock(d)]


def _canonical_phases(us: np.ndarray) -> np.ndarray:
    """Rescale every matrix of the stack so its first nonzero entry (row-major) is real positive."""
    flat = us.reshape(len(us), -1)
    nonzero = np.abs(flat) > PHASE_ZERO_TOL
    if not nonzero.any(axis=1).all():
        raise ValueError("zero matrix has no canonical phase")
    pivot = flat[np.arange(len(flat)), nonzero.argmax(axis=1)]
    return us * (np.abs(pivot) / pivot).reshape((-1,) + (1,) * (us.ndim - 1))


def _dedup_keys(us: np.ndarray) -> list[bytes]:
    # +0.0 folds -0.0 into +0.0 so rounding is byte-stable
    re = np.round(us.real, DEDUP_DECIMALS) + 0.0
    im = np.round(us.imag, DEDUP_DECIMALS) + 0.0
    return [r.tobytes() + i.tobytes() for r, i in zip(re, im)]


def _member_index(us: np.ndarray) -> dict[bytes, int]:
    """Row of each matrix of the stack, keyed by its phase-canonical dedup key."""
    return {key: i for i, key in enumerate(_dedup_keys(_canonical_phases(us)))}


def enumerate_clifford(d: int) -> UnitaryFamily:
    """Close the generator set {F, S, X, Z} under products modulo phase.

    The result carries uniform weights and is verified as an exact
    2-design before being returned.  Growing past SIZE_CAP members
    raises, since the qudit Clifford group modulo phase is far smaller.
    """
    if d not in SUPPORTED_D:
        raise ValueError(f"unsupported qudit dimension {d}; expected one of {SUPPORTED_D}")
    gens = _canonical_phases(np.stack(clifford_generators(d)))
    ident = np.eye(d, dtype=complex)
    members: dict[bytes, np.ndarray] = {_dedup_keys(ident[None])[0]: ident}
    frontier = ident[None]
    while len(frontier):
        # products u g in frontier-major, generator-minor order
        prods = _canonical_phases(np.matmul(frontier[:, None], gens[None]).reshape(-1, d, d))
        grown = []
        for key, v in zip(_dedup_keys(prods), prods):
            if key not in members:
                if len(members) >= SIZE_CAP:
                    raise RuntimeError(
                        "closure exceeded the size cap; phase canonicalization is broken"
                    )
                members[key] = v
                grown.append(v)
        frontier = np.array(grown).reshape(-1, d, d)

    stack = np.stack(list(members.values()))
    family = UnitaryFamily(
        d=d, members=stack, weights=np.full(len(stack), 1.0 / len(stack))
    )
    if not verify_two_design(family):
        raise RuntimeError("enumerated family failed 2-design verification")
    return family


def frame_potential(family: UnitaryFamily) -> float:
    """sum_{j,k} w_j w_k |tr(g_j^dag g_k)|^4; equals 2 iff exact 2-design."""
    if len(family) == 0:
        raise ValueError("empty family")
    g = family.members
    t = np.abs(np.einsum("iab,jab->ij", g.conj(), g)) ** 4
    return float(family.weights @ t @ family.weights)


def unitarity_defect(us: np.ndarray) -> float:
    """max |u^dag u - I| over the entries of every matrix of the stack."""
    return float(np.abs(us.conj().swapaxes(-1, -2) @ us - np.eye(us.shape[-1])).max())


def verify_two_design(family: UnitaryFamily) -> bool:
    """Check unitarity, phase-distinctness, weights and frame potential."""
    g = family.members
    d = family.d
    m = len(family)
    if m == 0 or g.shape != (m, d, d):
        family.verified = False
        return False
    unitary = unitarity_defect(g)
    distinct = len(_member_index(g)) == m
    w = family.weights
    weights_ok = w.min() >= -DEFAULT_TOL and abs(w.sum() - 1.0) <= DEFAULT_TOL
    fp_ok = abs(frame_potential(family) - 2.0) <= DEFAULT_TOL
    ok = unitary <= DEFAULT_TOL and distinct and weights_ok and fp_ok
    family.verified = bool(ok)
    return family.verified


def conjugation_blocks(family: UnitaryFamily) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The family's K_j = g_j (x) conj(g_j) and weights, a block of members at a time.

    A block (k, w) holds k[r, j, c] = K_j[r, c], a (d^2, b, d^2) array, and the
    b weights w_j.  With j inside, m K_j for every j is the one product
    m @ k.reshape(d^2, -1), and K_j m is k.reshape(-1, d^2) @ m.  A block holds
    _CONJUGATION_BLOCK_ENTRIES entries or fewer, one member at least: every
    member at d <= 3, 52 members at a time at d = 5.
    """
    d, dd = family.d, family.d**2
    step = max(1, _CONJUGATION_BLOCK_ENTRIES // dd**2)
    for lo in range(0, len(family), step):
        g = family.members[lo : lo + step]
        k = np.einsum("jab,jcd->acjbd", g, g.conj()).reshape(dd, len(g), dd)
        yield k, family.weights[lo : lo + step]


def conjugate_twirl(family: UnitaryFamily, m: np.ndarray) -> np.ndarray:
    """Weighted average of (g (x) conj(g))^dag m (g (x) conj(g)).

    For an exact 2-design this equals the projection
    tr(m P) P + tr(m (I-P)) (I-P) / (d^2 - 1) with P the maximally
    entangled projector.  Per block of `conjugation_blocks`, the sum
    sum_j w_j K_j^dag (m K_j) is two matrix products, and the block's K
    and w_j m K_j are the only stacks it holds.
    """
    d = family.d
    m = np.asarray(m, dtype=complex)
    if m.shape != (d * d, d * d):
        raise ValueError(f"twirl input must act on two {d}-dimensional factors")
    out = np.zeros_like(m)
    for k, w in conjugation_blocks(family):
        mk = (m @ k.reshape(d * d, -1)).reshape(k.shape)
        mk *= w[:, None]
        # rows (r, j) of both: sum_{r, j} conj(K_j[r, a]) w_j (m K_j)[r, c]
        out += np.conj(k, out=k).reshape(-1, d * d).T @ mk.reshape(-1, d * d)
    return out


def isotropic_projection(d: int, m: np.ndarray) -> np.ndarray:
    """Closed form of the exact-2-design conjugate twirl."""
    phi = max_entangled_projector(d)
    comp = np.eye(d * d) - phi
    p_phi = np.trace(phi @ m)
    p_comp = np.trace(comp @ m) / (d * d - 1)
    return p_phi * phi + p_comp * comp


def _product_indices(left: np.ndarray, right: np.ndarray, index: dict[bytes, int]) -> np.ndarray:
    """(len(left), len(right)) member index of l_i r_k modulo phase; -1 where none matches."""
    d = left.shape[-1]
    prods = _canonical_phases(np.matmul(left[:, None], right[None]).reshape(-1, d, d))
    return np.reshape([index.get(key, -1) for key in _dedup_keys(prods)], (len(left), len(right)))


def _reached(succ: np.ndarray, start: int) -> np.ndarray:
    """Mask of the nodes a BFS from `start` reaches along the edges i -> succ[i, k]; -1 is none."""
    seen = [False] * len(succ)
    seen[start] = True
    queue, rows = [start], succ.tolist()
    for i in queue:  # the queue grows while it is read
        for j in rows[i]:
            if j >= 0 and not seen[j]:
                seen[j] = True
                queue.append(j)
    return np.array(seen)


def closure_defect(family: UnitaryFamily) -> int:
    """Missing products g F, g S, g X, g Z plus the members a BFS from I along them misses.

    0 iff the family is the group F, S, X and Z generate modulo phase: a member
    set closed under right multiplication by them, all reached from I, is it.
    """
    g, d = family.members, family.d
    index = _member_index(g)
    succ = _product_indices(g, _canonical_phases(np.stack(clifford_generators(d))), index)
    start = index.get(_dedup_keys(np.eye(d, dtype=complex)[None])[0])  # the identity
    reached = 0 if start is None else int(_reached(succ, start).sum())
    return int((succ < 0).sum()) + len(g) - reached


def find_minimal_subdesign(family: UnitaryFamily) -> UnitaryFamily | None:
    """Smallest 2-design subgroup containing HW = <X, Z> that is proper in `family`.

    `family` must be a group in which HW is normal, as the Clifford group is.
    Members are mapped to HW cosets by their products g X^a Z^b, and HW closed
    with two coset representatives is a BFS on the q x q table of their
    products (q = 6 at d=2, 24 at d=3).  The first smallest proper closure of
    frame potential 2 wins (12 members at d=2, HW x Q8 with 72 at d=3), else
    None.  Raises ValueError when a product it reads is not a member.
    """
    d, m, g = family.d, len(family), family.members
    index = _member_index(g)
    hw = np.stack([np.linalg.matrix_power(shift(d), a) @ np.linalg.matrix_power(clock(d), b)
                   for a in range(d) for b in range(d)])
    in_coset = _product_indices(g, hw, index)
    first = in_coset.min(axis=1)  # the first member of each member's coset
    reps = np.flatnonzero(first == np.arange(m))
    products = _product_indices(g[reps], g[reps], index)
    if (in_coset < 0).any() or (products < 0).any():
        raise ValueError("family is not closed under products; cannot search subgroups")
    coset = np.searchsorted(reps, first)
    quotient = coset[products]
    best, seen = None, set()
    for i in range(len(reps)):
        for j in range(i, len(reps)):
            # from coset i, products with cosets i and j reach all of <HW, i, j>
            inside = _reached(quotient[:, [i, j]], i)
            closed, key = np.flatnonzero(inside[coset]), inside.tobytes()
            if len(closed) == m or key in seen or (best is not None and len(closed) >= len(best)):
                continue
            seen.add(key)
            sub = UnitaryFamily(d, g[closed], np.full(len(closed), 1.0 / len(closed)))
            if abs(frame_potential(sub) - 2.0) <= DEFAULT_TOL:
                best = sub
    if best is not None:
        verify_two_design(best)
    return best
