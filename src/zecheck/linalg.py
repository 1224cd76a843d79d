"""Dense complex linear algebra with tensor-factor bookkeeping.

Operators are plain complex ndarrays; operations that care about tensor
structure take an explicit tuple of factor dimensions.  The basis
convention is fixed globally: the leftmost factor is the most
significant index, i.e. |i>|j> sits at row i * dim_j + j.

The module also holds the one seeding scheme: every random draw takes
the Philox stream of a case (seed, suite, case), whose key is numpy's
SeedSequence key of those three numbers, derived for a block of cases
at a time.  `case_rngs` re-keys the process's one generator to each
case's stream in turn, so each of its generators stays valid only until
the next is drawn.  `ForkedMap` is the one forked map, which spreads the
PPT search over the CPUs.
"""

from __future__ import annotations

import os
import pickle
import struct
from dataclasses import dataclass
from functools import cache, lru_cache, reduce
from typing import Callable, Iterator

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


# numpy's SeedSequence hash with its default pool of 4 words (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_WORDS = 4
# Cases per derived block of keys, 16 KiB of them; a divisor of 2^32, so every case of a
# block has the same number of 32-bit words
_KEY_BLOCK = 1024


def _words(x: int) -> list[int]:
    """The 32-bit words SeedSequence makes of a non-negative int, least significant first."""
    if x < 0:
        raise ValueError(f"seed, suite id and case must be non-negative, got {x}")
    words = [x & _MASK32]
    while x := x >> 32:
        words.append(x & _MASK32)
    return words


def _seed_sequence_keys(entropy: list) -> np.ndarray:
    """SeedSequence(entropy words).generate_state(2, np.uint64) of many entropies: (keys, 2).

    Each entropy word is an int, the same for every key, or a uint64
    array holding one 32-bit word per key; at least one is an array.  The
    hash runs on all keys at once, its products masked to 32 bits.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, state = _INIT_B, []
    for word in pool:  # generate_state: 4 output words, read as 2 little-endian uint64
        word = word ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        word = (word * hash_const) & _MASK32
        state.append(word ^ (word >> 16))
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=-1)


@lru_cache(maxsize=4)
def _key_block(seed: int, suite: str, block: int) -> np.ndarray:
    """The Philox keys of cases block*_KEY_BLOCK onwards: (_KEY_BLOCK, 2), read-only.

    Key i is SeedSequence([seed, SUITE_IDS[suite], case]).generate_state(2,
    np.uint64) of case block*_KEY_BLOCK + i, derived for the whole block
    in one pass (about 0.2 us a case, against about 13 us for a
    SeedSequence).  Blocks start at multiples of _KEY_BLOCK, so only the
    lowest word of a block's cases varies.  The cache keeps the last few
    blocks, so key memory does not grow with the number of cases.
    """
    first = block * _KEY_BLOCK
    low, *high = _words(first)
    cases = np.arange(low, low + _KEY_BLOCK, dtype=np.uint64)
    keys = _seed_sequence_keys([*_words(seed), SUITE_IDS[suite], cases, *high])
    keys.flags.writeable = False
    return keys


def _case_key(seed: int, suite: str, case: int) -> np.ndarray:
    """The Philox key of case (seed, suite, case), from its cached block."""
    block, i = divmod(int(case), _KEY_BLOCK)
    return _key_block(int(seed), suite, block)[i]


@cache
def _process_generator() -> np.random.Generator:
    """This process's one generator, which case_rngs re-keys; a forked child gets a copy."""
    return np.random.Generator(np.random.Philox(key=0))


def case_rngs(seed: int, suite: str, cases) -> Iterator[np.random.Generator]:
    """The generator of each case's stream in turn, SeedSequence([seed, suite id, case])'s.

    Each yielded generator is this process's one generator, re-keyed, and
    is valid only until the next is drawn, as with the groups of
    `itertools.groupby`: keep none across a draw of the next.  Setting the
    Philox state (key from `_key_block`, zero counter, empty buffer) costs
    about 2 us, against about 11 us to build a generator, and gives the
    same draws, bit for bit.  A forked worker re-keys its own copy.
    """
    rng = _process_generator()
    for case in cases:
        rng.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": _case_key(seed, suite, case)},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        yield rng


# Most queue entries of one map, 4 bytes each: the whole queue fits in one 4 KiB pipe page
_QUEUE_RUNS = 1024


class ForkedMap:
    """[fn(x) for x in items], started on forked workers now, gathered by join().

    The items are cut into at most 1024 runs of contiguous items, and the
    run numbers go, in increasing order, into a pipe that serves as a
    shared queue: the 4-byte entries are written before any child forks,
    so the write never blocks, and on Linux a 4-byte read of a pipe is
    atomic.  The constructor then forks k - 1 children, with k = min(CPUs
    in the affinity mask, len(items)), which take runs from the queue at
    once; join() has this process take runs too until the queue is empty,
    so every worker finishes about when the last run does.  That is the
    one path at every CPU count: with one CPU, or at most one item, no
    child forks and this process takes every run.  A worker computes a run's
    items in order and stops at its first exception.  Runs leave the queue
    in increasing order, so every item before a failing one was taken and
    computed: join() raises the exception of the earliest failing item, as
    a serial loop would, and otherwise returns the results in item order.

    A child pickles what it computed (or its exception) to its own pipe and
    leaves with os._exit, so it flushes no inherited stdio and runs no exit
    handlers; join() raises RuntimeError naming the status of one that
    exits without a complete payload.  close() kills and reaps the children
    of a map that will not be joined and closes its pipes; join() and a
    constructor that raises close the map, so no child or descriptor
    outlives any of the three.  fn and everything it reads are inherited,
    not pickled: build shared objects before starting.  zecheck starts no
    threads, and OpenBLAS shuts its own pool down across a fork; importing
    zecheck before numpy keeps that pool at one thread (see
    `zecheck/__init__.py`), so the k workers do not each run one per CPU.
    A run starts one map, the PPT search's (`ppt.start_search`).
    """

    def __init__(self, fn: Callable, items):
        self.fn, self.items = fn, list(items)
        self.pids: dict[int, int] = {}  # worker -> pid, until it is reaped
        self.pipes = {}  # worker -> read end of its result pipe
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # a platform without affinity masks
            cpus = os.cpu_count() or 1
        k = min(cpus, len(self.items))
        runs = min(len(self.items), _QUEUE_RUNS)
        self.bounds = [0] + [len(self.items) * r // runs for r in range(1, runs + 1)]
        # every read end is held by the map until close(); every write end this process
        # opens is closed before the next step, on every path
        self.queue, write = os.pipe()
        try:
            try:
                os.write(write, struct.pack(f"={runs}I", *range(runs)))
            finally:
                os.close(write)  # once the queue is empty, a read returns EOF
            for w in range(1, k):
                read, write = os.pipe()
                try:
                    self.pipes[w] = open(read, "rb")
                    self.pids[w] = os.fork()
                    if self.pids[w] == 0:
                        _forked_worker(self, write)
                finally:
                    os.close(write)
        except BaseException:
            self.close()
            raise

    def join(self) -> list:
        """Take runs until the queue is empty, gather every worker's, and close the map."""
        try:
            taken = _take_runs(self)
            for w in list(self.pids):
                payload = self.pipes[w].read()  # to EOF: the child has sent everything or died
                status = os.waitstatus_to_exitcode(os.waitpid(self.pids.pop(w), 0)[1])
                if status != 0 or not payload:  # status 0 comes only after the whole payload
                    raise RuntimeError(f"forked worker {w} exited with status {status} "
                                       "without its results")
                taken += pickle.loads(payload)
        finally:
            self.close()
        failures = [(self.bounds[run] + len(done), exc)
                    for run, done, exc in taken if exc is not None]
        if failures:
            raise min(failures, key=lambda f: f[0])[1]
        runs: list = [None] * (len(self.bounds) - 1)
        for run, done, _ in taken:
            runs[run] = done
        return [y for done in runs for y in done]

    def close(self) -> None:
        """Kill and reap the children not yet reaped; a no-op once the map is joined."""
        for pipe in self.pipes.values():
            pipe.close()
        if self.queue is not None:
            os.close(self.queue)
            self.queue = None
        for pid in self.pids.values():
            import signal  # only on this failure path: it adds about 1 ms to every start-up

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        self.pipes.clear()
        self.pids.clear()


def _take_runs(fmap: ForkedMap) -> list[tuple[int, list, Exception | None]]:
    """(run, results, exception) per run taken from the queue, until it is empty or one raises."""
    taken = []
    while entry := os.read(fmap.queue, 4):
        (run,) = struct.unpack("=I", entry)
        done: list = []
        try:
            for x in fmap.items[fmap.bounds[run] : fmap.bounds[run + 1]]:
                done.append(fmap.fn(x))
        except Exception as exc:
            taken.append((run, done, exc))
            break
        taken.append((run, done, None))
    return taken


def _forked_worker(fmap: ForkedMap, write: int) -> None:
    """A forked child's whole life: its runs, one pickled payload, os._exit; never returns.

    An exception that escapes (a result that does not pickle, a
    KeyboardInterrupt) leaves with status 1 and no complete payload.
    """
    status = 1
    try:
        payload = pickle.dumps(_take_runs(fmap))
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


def random_psd(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank trace-one PSD matrix (Wishart-style)."""
    return trace_one_gram(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
