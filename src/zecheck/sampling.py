"""The one seeding scheme: how cases are laid out, drawn, windowed and spread over CPUs.

Every random draw takes the counter-based Philox stream of a case (seed, suite,
case) (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11),
keyed by numpy's SeedSequence key of those three numbers.  `_SAMPLES` lays out
every stream a run reads: per claim, ranges of cases, each a suite, a first case
and a count as a function of `trials`; the PPT search's candidates are
`ppt.search_floor`'s range.  The ranges are disjoint up to `report.MAX_TRIALS`
trials, so any subset of suites reproduces the full run's numbers exactly.
`draws`, the one reader of `case_rngs`, serves the claims and the search alike;
`window_length` sizes their windows, and `ForkedMap` spreads the search's
windows over the CPUs.
"""

from __future__ import annotations

import os
import pickle
import struct
from functools import cache, lru_cache
from itertools import islice
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .report import SUITE_NAMES

SUITE_IDS = {name: i for i, name in enumerate(SUITE_NAMES)}


class _Range(NamedTuple):
    """Cases first, first + 1, ... of a suite's streams, count(trials) of them."""

    suite: str
    first: int
    count: Callable[[int], int]


# Every stream a run reads, claim id -> its ranges.  The ranges of a suite are disjoint
# up to trials = MAX_TRIALS; from MAX_TRIALS + 1 the random equivalence pairs would reach
# the structured pairs' first case.
_SAMPLES: dict[str, tuple[_Range, ...]] = {
    "design.twirl_projection": (_Range("design", 0, lambda t: 1),),
    "design.twirl_invariance": (_Range("design", 1, lambda t: 1),),
    "channel.central_identity": (_Range("channel", 0, lambda t: t),),
    "channel.conservation": (_Range("channel", 100_000, lambda t: max(1, t // 10)),),
    "channel.alt_design_identity": (_Range("channel", 200_000, lambda t: 10),),
    # the random pairs, then the structured pairs
    "zero_error.equivalence": (_Range("zero-error", 0, lambda t: 2 * t),
                               _Range("zero-error", 10_000, lambda t: max(50, t // 2))),
    "zero_error.form_properties": (_Range("zero-error", 20_000, lambda t: 10),),
    "theorem2.no_valid_code_pair": (_Range("theorem2", 0, lambda t: 5 * t),),
    "ppt.twirl_invariance": (_Range("ppt", 31_000, lambda t: 1),),
    # the PPT search's candidates
    "ppt.search_floor": (_Range("ppt", 40_000, lambda t: 10 * t),),
}

# Matrix or vector entries per window: d^(3n) pairing-vector amplitudes per pair of a
# zero-error sweep, side^2 per PPT search candidate.  Few enough that a window's stacks
# stay small, many enough to amortize the calls at d=2.  A window of 64 pairs at (3,2)
# traced about 3.7 MiB in overlap_forms, twice that for theorem2's pair and sum/difference
# forms together; a search window of 2^13 entries ran no faster and raised the peak RSS
# of a d=2, n=2 run by about 0.2-0.5 MiB.
_WINDOW_AMPLITUDES = 2**12


def case_count(claim_id: str, trials: int, part: int = 0) -> int:
    """The number of cases of the claim's part-th range at `trials`."""
    return _SAMPLES[claim_id][part].count(trials)


def draws(claim_id: str, seed: int, stop: int, start: int = 0, part: int = 0) -> Iterator:
    """(i, the generator of case first + i) for i in start..stop-1 of the claim's part-th range."""
    suite, first, _ = _SAMPLES[claim_id][part]
    return zip(range(start, stop), case_rngs(seed, suite, range(first + start, first + stop)))


def window_length(amplitudes: int) -> int:
    """Items per window at `amplitudes` entries an item: at most _WINDOW_AMPLITUDES entries.

    At least one item: at (2,1), (3,1), (2,2) and (3,2), 512, 151, 64 and 5
    pairs or 256, 50, 16 and 1 search candidates.
    """
    return max(1, _WINDOW_AMPLITUDES // amplitudes)


def windows(items, amplitudes: int) -> Iterator[list]:
    """Successive lists of window_length(amplitudes) items; the last may hold fewer."""
    items = iter(items)
    while window := list(islice(items, window_length(amplitudes))):
        yield window


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
    same draws, bit for bit.
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
    zecheck keeps that pool at one thread whatever the import order (see
    `zecheck/__init__.py`), so the k workers do not each run one per CPU.
    A run starts one map, the PPT search (`ppt.PPTSearch`).
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
        # the workers inherit this process's generator, which case_rngs re-keys, and
        # numpy.random, instead of each building them; building it reads no stream
        _process_generator()
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
