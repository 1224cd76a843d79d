"""Property tests for the linear-algebra identities the certificates rest on."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from zecheck.linalg import psd_deficit
from zecheck.ppt import pairwise_partial_transpose

seeds = st.integers(0, 2**32 - 1)


def gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=40, deadline=None)
@given(dn=st.sampled_from([(2, 1), (3, 1), (2, 2)]), seed=seeds)
def test_pairwise_transpose_is_an_involution_keeping_trace_and_hermiticity(dn, seed):
    d, n = dn
    side = d ** (2 * n)
    m = gaussian(np.random.default_rng(seed), (side, side))
    t = pairwise_partial_transpose(m, d, n)
    # a permutation of the entries that fixes the diagonal: exact, no rounding
    np.testing.assert_array_equal(pairwise_partial_transpose(t, d, n), m)
    np.testing.assert_array_equal(np.diagonal(t), np.diagonal(m))
    h = m + m.conj().T
    th = pairwise_partial_transpose(h, d, n)
    np.testing.assert_array_equal(th, th.conj().T)


@settings(max_examples=60, deadline=None)
@given(
    seed=seeds,
    dim=st.integers(1, 9),
    count=st.integers(1, 12),
    rank=st.integers(0, 9),
    shift=st.one_of(st.just(0.0), st.floats(1e-9, 1.0)),
)
def test_psd_deficit_equals_the_eigenvalue_deficit(seed, dim, count, rank, shift):
    rng = np.random.default_rng(seed)
    g = gaussian(rng, (count, dim, min(rank, dim)))
    stack = g @ g.conj().transpose(0, 2, 1)
    stack[rng.integers(count)] -= shift * np.eye(dim)
    expected = max(0.0, -float(np.linalg.eigvalsh(stack).min()))
    assert abs(psd_deficit(stack) - expected) <= 1e-12
