import os
import select
import time

import numpy as np
import pytest

from zecheck.linalg import (
    basis_state,
    max_entangled,
    max_entangled_projector,
    partial_trace,
    partial_transpose,
    projector,
    random_unitary,
    support_null,
    tensor,
    trace_distance,
    trace_inner,
    trace_one_gram,
)
from zecheck.sampling import (
    _KEY_BLOCK,
    _QUEUE_RUNS,
    SUITE_IDS,
    ForkedMap,
    _case_key,
    _key_block,
    case_rngs,
)

from conftest import case_rng


def ketbra(dim, i, j):
    m = np.zeros((dim, dim), dtype=complex)
    m[i, j] = 1.0
    return m


def swap_matrix(d):
    """Independent SWAP construction: permutation |ij> -> |ji>."""
    s = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            s[j * d + i, i * d + j] = 1.0
    return s


def test_tensor_identity():
    np.testing.assert_allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_basis_ordering():
    # |0><0| (x) |1><1| sits at index 0*2+1 = 1
    got = tensor(ketbra(2, 0, 0), ketbra(2, 1, 1))
    np.testing.assert_allclose(got, np.diag([0, 1, 0, 0]).astype(complex))


def test_tensor_clock_pair():
    # frozen from the 4x4 multiplication table of diag(1,-1) entries
    z = np.diag([1.0, -1.0])
    np.testing.assert_allclose(tensor(z, z), np.diag([1.0, -1.0, -1.0, 1.0]))


def test_partial_transpose_rule():
    # |01><10| -> |11><00| when the first factor is transposed
    m = np.zeros((4, 4), dtype=complex)
    m[0 * 2 + 1, 1 * 2 + 0] = 1.0
    got = partial_transpose(m, (2, 2), 0)
    expected = np.zeros((4, 4), dtype=complex)
    expected[1 * 2 + 1, 0 * 2 + 0] = 1.0
    np.testing.assert_allclose(got, expected)


def test_partial_transpose_diagonal_invariance():
    m = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).astype(complex)
    np.testing.assert_allclose(partial_transpose(m, (2, 3), 0), m)
    np.testing.assert_allclose(partial_transpose(m, (2, 3), 1), m)


def test_partial_transpose_involution():
    rng = np.random.default_rng(11)
    for dims in [(2, 2), (2, 3), (3, 3), (2, 2, 2)]:
        side = int(np.prod(dims))
        m = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        for k in range(len(dims)):
            back = partial_transpose(partial_transpose(m, dims, k), dims, k)
            assert np.abs(back - m).max() <= 1e-12


def test_partial_transpose_entangled_spectrum():
    # oracle: the transposed projector is SWAP/d, built independently
    for d in (2, 3):
        got = partial_transpose(max_entangled_projector(d), (d, d), 0)
        np.testing.assert_allclose(got, swap_matrix(d) / d, atol=1e-12)
    eigs = np.sort(np.linalg.eigvalsh(partial_transpose(max_entangled_projector(2), (2, 2), 0)))
    np.testing.assert_allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_factor_range():
    with pytest.raises(ValueError):
        partial_transpose(np.eye(4), (2, 2), 2)


def test_partial_trace_entangled_marginal():
    got = partial_trace(max_entangled_projector(2), (2, 2), 1)
    np.testing.assert_allclose(got, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_rule():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    np.testing.assert_allclose(partial_trace(tensor(a, b), (2, 3), 0), np.trace(a) * b, atol=1e-12)
    np.testing.assert_allclose(partial_trace(tensor(a, b), (2, 3), 1), np.trace(b) * a, atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    for k in range(3):
        reduced = partial_trace(m, (2, 2, 2), k)
        assert abs(np.trace(reduced) - np.trace(m)) <= 1e-12


def test_partial_trace_fourier_example():
    # oracle: explicit 4x4 computation of the receiver marginal for input
    # |0>|0> pushed through the phase gate after a Fourier rotation
    f = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    p = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    vec = p @ tensor(np.eye(2), f) @ tensor(basis_state(2, 0), basis_state(2, 0))
    got = partial_trace(projector(vec), (2, 2), 1)
    np.testing.assert_allclose(got, np.diag([1.0, 0.0]).astype(complex), atol=1e-12)


def test_support_null_diagonal():
    support, null = support_null(np.diag([1.0, 0.0]).astype(complex))
    assert support.dim == 1 and null.dim == 1
    np.testing.assert_allclose(support.projector(), np.diag([1.0, 0.0]), atol=1e-12)


def test_support_null_rank_one():
    for d in (2, 3):
        support, null = support_null(max_entangled_projector(d), (d, d))
        assert support.dim == 1
        assert null.dim == d * d - 1


def test_support_null_projector_properties():
    rng = np.random.default_rng(3)
    m = trace_one_gram(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))  # rank 3
    support, null = support_null(m)
    ps, pn = support.projector(), null.projector()
    np.testing.assert_allclose(ps + pn, np.eye(6), atol=1e-9)
    assert np.abs(ps @ pn).max() <= 1e-9
    np.testing.assert_allclose(ps @ m @ ps, m, atol=1e-9)


def test_support_null_rejects_bad_inputs():
    with pytest.raises(ValueError):
        support_null(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        support_null(np.diag([1.0, -1.0]))


def test_trace_inner_values():
    for d in (2, 3):
        assert trace_inner(np.eye(d), np.eye(d)) == pytest.approx(d)
    assert trace_inner(ketbra(2, 0, 0), ketbra(2, 1, 1)) == 0
    phi = max_entangled_projector(2)
    assert abs(trace_inner(phi, np.eye(4) - phi)) <= 1e-12


def test_trace_inner_is_frobenius_norm():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert trace_inner(a, a).real == pytest.approx(np.linalg.norm(a) ** 2)
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert trace_inner(a, b) == pytest.approx(np.conj(trace_inner(b, a)))


def test_trace_inner_shape_mismatch():
    with pytest.raises(ValueError):
        trace_inner(np.eye(2), np.eye(3))


def test_trace_distance():
    assert trace_distance(np.eye(2) / 2, np.eye(2) / 2) == pytest.approx(0.0)
    a = np.diag([1.0, 0.0])
    b = np.diag([0.0, 1.0])
    assert trace_distance(a, b) == pytest.approx(1.0)


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(2)
    for d in (2, 3, 4):
        u = random_unitary(d, rng)
        assert np.abs(u.conj().T @ u - np.eye(d)).max() <= 1e-12


def test_max_entangled_vector():
    v = max_entangled(2)
    np.testing.assert_allclose(v, np.array([1, 0, 0, 1]) / np.sqrt(2))


# zecheck.sampling: the forked map and the key derivation


@pytest.mark.parametrize("k", [1, 2, 3])
def test_forked_map_keeps_item_order(k, cpus):
    cpus(k)
    out = ForkedMap(lambda x: (x * x, os.getpid()), range(7)).join()
    assert [v for v, _ in out] == [x * x for x in range(7)]
    assert len({pid for _, pid in out}) <= k  # any worker may take any item
    assert ForkedMap(lambda x: x, []).join() == []


@pytest.mark.parametrize("k", [1, 2, 3])
def test_forked_map_keeps_item_order_past_the_queue_length(k, cpus):
    cpus(k)
    items = range(3 * _QUEUE_RUNS + 7)  # runs of 3 and 4 contiguous items
    assert ForkedMap(lambda x: x * x, items).join() == [x * x for x in items]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_forked_map_raises_the_earliest_failure(k, cpus):
    # whichever worker takes 3, the others may have taken 4 and 9 already
    cpus(k)

    def fn(x):
        if x in (3, 4, 9):
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError, match=r"^item 3$"):
        ForkedMap(fn, range(12)).join()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_forked_map_raises_the_earliest_failure_across_runs(k, cpus):
    # 3000 items in 1024 runs of 2 or 3: 1498 sits inside run 511 (1497-1499),
    # 1502 and 2000 start runs 513 and 683, and 2999 ends the last one
    cpus(k)

    def fn(x):
        if x in (1498, 1502, 2000, 2999):
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError, match=r"^item 1498$"):
        ForkedMap(fn, range(3000)).join()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_one_cpu_map_forks_nothing_and_closes_its_queue(monkeypatch, cpus):
    cpus(1)

    def no_fork():
        raise AssertionError("a one-CPU map forked")

    def fn(x):
        if x in (1498, 1502, 2000, 2999):
            raise ValueError(f"item {x}")
        return x

    monkeypatch.setattr(os, "fork", no_fork)
    fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(ValueError, match=r"^item 1498$"):
        ForkedMap(fn, range(3000)).join()
    assert ForkedMap(fn, range(1498)).join() == list(range(1498))
    assert ForkedMap(fn, []).join() == []
    assert len(os.listdir("/proc/self/fd")) == fds


@pytest.mark.parametrize("status", [0, 3])
def test_forked_map_names_a_worker_that_dies(status, cpus):
    cpus(2)
    parent = os.getpid()
    taken, send_taken = os.pipe()

    def fn(x):
        if os.getpid() != parent:  # the child leaves on the first item it takes
            os.write(send_taken, b"!")
            os._exit(status)
        if x == 0:  # this process holds item 0 until the child has taken another
            select.select([taken], [], [], 30)
        return x

    try:
        with pytest.raises(RuntimeError, match=rf"^forked worker 1 exited with status {status} "):
            ForkedMap(fn, range(4)).join()
        assert os.read(taken, 1) == b"!"
    finally:
        os.close(taken)
        os.close(send_taken)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Interrupt(BaseException):
    pass


def test_forked_map_kills_its_workers_when_interrupted(cpus):
    cpus(3)
    parent = os.getpid()

    def fn(x):
        if os.getpid() == parent:  # two children take one item each at most, and sleep
            raise Interrupt
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(Interrupt):
        ForkedMap(fn, range(3)).join()
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_closing_a_started_map_kills_its_workers(cpus):
    cpus(2)
    started = ForkedMap(lambda x: time.sleep(60), range(3))
    start = time.monotonic()
    started.close()
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("k,call,nth", [
    (2, "write", 1), (3, "write", 1),  # the queue's write
    (2, "pipe", 2), (3, "pipe", 2), (3, "pipe", 3),  # a result pipe, before or after a fork
    (2, "fork", 1), (3, "fork", 1), (3, "fork", 2),
])
def test_a_map_that_fails_to_start_leaves_no_descriptor_or_child(k, call, nth, monkeypatch, cpus):
    cpus(k)
    real, calls = getattr(os, call), []

    def failing(*args):
        calls.append(call)
        if len(calls) == nth:
            raise OSError(f"injected failure of os.{call} call {nth}")
        return real(*args)

    fds = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, call, failing)
    with pytest.raises(OSError, match="^injected failure"):
        ForkedMap(lambda x: x, range(8))
    monkeypatch.undo()
    assert len(calls) == nth
    assert len(os.listdir("/proc/self/fd")) == fds
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_workers_flush_no_inherited_buffer(tmp_path, cpus):
    cpus(2)
    path = tmp_path / "out.txt"
    with open(path, "w") as f:
        f.write("once\n")  # still in the buffer when the worker forks
        assert ForkedMap(lambda x: x, range(2)).join() == [0, 1]
    assert path.read_text() == "once\n"


def seed_sequence_key(seed, suite, case):
    return np.random.SeedSequence([seed, SUITE_IDS[suite], case]).generate_state(2, np.uint64)


# one and two 32-bit words, and the largest seed a RunConfig takes
@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1])
def test_block_keys_are_seed_sequence_keys(seed):
    # ranges that cross a key-block boundary; the last one crosses into two-word cases
    for first in (0, _KEY_BLOCK - 3, 40 * _KEY_BLOCK - 2, 2**32 - 3):
        for suite in ("design", "ppt"):
            for case in range(first, first + 6):
                assert np.array_equal(_case_key(seed, suite, case),
                                      seed_sequence_key(seed, suite, case)), (suite, case)


def test_a_whole_key_block_is_seed_sequence_keys():
    block = _key_block(9, "theorem2", 39)
    expected = [seed_sequence_key(9, "theorem2", 39 * _KEY_BLOCK + i) for i in range(_KEY_BLOCK)]
    assert block.shape == (_KEY_BLOCK, 2) and not block.flags.writeable
    assert np.array_equal(block, expected)


def test_key_memory_does_not_grow_with_the_cases():
    for rng in case_rngs(3, "channel", range(0, 40 * _KEY_BLOCK, 97)):
        pass
    assert _key_block.cache_info().currsize <= _key_block.cache_info().maxsize == 4


def draw_everything(rng):
    """One of each draw zecheck makes; the last leaves half a 64-bit word buffered."""
    out = np.empty((3, 4))
    rng.standard_normal(out=out)
    return [out, rng.standard_normal((2, 5)), rng.integers(1, 7), rng.integers(3, size=4),
            rng.permutation(9), rng.choice(9, size=2, replace=False), rng.random(),
            rng.random(6), rng.random(dtype=np.float32)]


@pytest.mark.parametrize("seed", [7, 2**64 - 1])
def test_rekeyed_streams_equal_case_rng(seed):
    cases = [0, 5, _KEY_BLOCK - 1, _KEY_BLOCK, 40_005]
    expected = [draw_everything(case_rng(seed, "zero-error", case)) for case in cases]
    got = [draw_everything(rng) for rng in case_rngs(seed, "zero-error", cases)]
    for case, want, have in zip(cases, expected, got):
        for a, b in zip(want, have):
            assert np.array_equal(a, b), case
