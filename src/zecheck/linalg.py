"""Dense complex linear algebra with tensor-factor bookkeeping.

Operators are plain complex ndarrays; operations that care about tensor
structure take an explicit tuple of factor dimensions.  The basis
convention is fixed globally: the leftmost factor is the most
significant index, i.e. |i>|j> sits at row i * dim_j + j.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np

from .report import SUITE_NAMES

DEFAULT_TOL = 1e-9
SUITE_IDS = {name: i for i, name in enumerate(SUITE_NAMES)}


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


def case_rng(seed: int, suite: str, case: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, suite, case); every random draw uses one."""
    ss = np.random.SeedSequence([int(seed), SUITE_IDS[suite], int(case)])
    return np.random.Generator(np.random.Philox(ss))


def forked_map(fn: Callable, items) -> list:
    """[fn(x) for x in items], the items dealt round-robin to one worker per CPU.

    With k = min(CPUs in the affinity mask, len(items)) > 1, k - 1 forked
    children compute items[w::k] for w = 1..k-1 while this process computes
    items[0::k].  Every worker goes through its items in order and stops at
    its first exception; the exception of the earliest failing item is
    raised here, as a serial loop would raise it.  A child pickles its
    results (or its exception) to its own pipe and leaves with os._exit,
    so it flushes no inherited stdio and runs no exit handlers; one that
    exits without a complete payload raises RuntimeError naming its exit
    status.  No child outlives the call.  fn and everything it reads are
    inherited, not pickled: build shared objects before calling.  zecheck
    starts no threads, and OpenBLAS shuts its own pool down across a fork;
    importing zecheck before numpy keeps that pool at one thread (see
    `zecheck/__init__.py`), so the k workers do not each run one per CPU.
    """
    items = list(items)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        cpus = os.cpu_count() or 1
    k = min(cpus, len(items))
    if k <= 1:
        return [fn(x) for x in items]
    pids: dict[int, int] = {}  # worker -> pid, until it is reaped
    pipes = {}  # worker -> read end of its pipe
    try:
        for w in range(1, k):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _forked_worker(fn, items[w::k], write)
            os.close(write)
            pids[w], pipes[w] = pid, open(read, "rb")
        shares = [_run_share(fn, items[0::k])]
        for w in range(1, k):
            payload = pipes[w].read()  # to EOF: the child has sent everything or died
            status = os.waitstatus_to_exitcode(os.waitpid(pids.pop(w), 0)[1])
            if status != 0 or not payload:  # status 0 comes only after the whole payload
                raise RuntimeError(f"forked worker {w} exited with status {status} "
                                   "without its results")
            shares.append(pickle.loads(payload))
    finally:
        for pipe in pipes.values():
            pipe.close()
        for pid in pids.values():
            import signal  # only on this failure path: it adds about 1 ms to every start-up

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    # each worker's first failure is its item w + k * (items it finished)
    failures = [(w + k * len(done), exc) for w, (done, exc) in enumerate(shares) if exc is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    out: list = [None] * len(items)
    for w, (done, _) in enumerate(shares):
        out[w::k] = done
    return out


def _run_share(fn: Callable, share: list) -> tuple[list, Exception | None]:
    """fn over one worker's items in order, up to its first exception, and that exception."""
    done = []
    try:
        for x in share:
            done.append(fn(x))
    except Exception as exc:
        return done, exc
    return done, None


def _forked_worker(fn: Callable, share: list, write: int) -> None:
    """A forked child's whole life: its share, one pickled payload, os._exit; never returns.

    An exception that escapes (a result that does not pickle, a
    KeyboardInterrupt) leaves with status 1 and no complete payload.
    """
    status = 1
    try:
        payload = pickle.dumps(_run_share(fn, share))
        with open(write, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


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


def random_psd(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random trace-one PSD matrix (Wishart-style)."""
    k = dim if rank is None else rank
    return trace_one_gram(rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k)))
