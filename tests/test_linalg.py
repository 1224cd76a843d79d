import os
import time

import numpy as np
import pytest

from zecheck.linalg import (
    basis_state,
    forked_map,
    max_entangled,
    max_entangled_projector,
    partial_trace,
    partial_transpose,
    projector,
    random_psd,
    random_unitary,
    support_null,
    tensor,
    trace_distance,
    trace_inner,
)


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
    m = random_psd(6, rng, rank=3)
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


@pytest.mark.parametrize("k", [1, 2, 3])
def test_forked_map_keeps_item_order(k, cpus):
    cpus(k)
    out = forked_map(lambda x: (x * x, os.getpid()), range(7))
    assert [v for v, _ in out] == [x * x for x in range(7)]
    # worker w computes items w, w + k, ...; worker 0 is this process
    assert out[0][1] == os.getpid() and len({pid for _, pid in out}) == k
    assert all(pid == out[i % k][1] for i, (_, pid) in enumerate(out))
    assert forked_map(lambda x: x, []) == []


@pytest.mark.parametrize("k", [1, 2, 3])
def test_forked_map_raises_the_earliest_failure(k, cpus):
    # k=2: a child fails at 3, this process at 4; k=3: this process at 3, a child at 4
    cpus(k)

    def fn(x):
        if x in (3, 4, 9):
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError, match=r"^item 3$"):
        forked_map(fn, range(12))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("status", [0, 3])
def test_forked_map_names_a_worker_that_dies(status, cpus):
    cpus(2)

    def fn(x):
        if x == 1:  # item 1 is the child's
            os._exit(status)
        return x

    with pytest.raises(RuntimeError, match=rf"^forked worker 1 exited with status {status} "):
        forked_map(fn, range(4))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Interrupt(BaseException):
    pass


def test_forked_map_kills_its_workers_when_interrupted(cpus):
    cpus(3)

    def fn(x):
        if x == 0:  # this process's first item; the children sleep
            raise Interrupt
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(Interrupt):
        forked_map(fn, range(3))
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_workers_flush_no_inherited_buffer(tmp_path, cpus):
    cpus(2)
    path = tmp_path / "out.txt"
    with open(path, "w") as f:
        f.write("once\n")  # still in the buffer when the worker forks
        assert forked_map(lambda x: x, range(2)) == [0, 1]
    assert path.read_text() == "once\n"
