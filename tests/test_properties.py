"""Property tests for the linear-algebra identities the certificates rest on."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from zecheck.designs import conjugate_twirl, isotropic_projection
from zecheck.linalg import min_eigenvalue, trace_one_gram
from zecheck.ppt import isotropic_twirl_n, pairwise_partial_transpose

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


@settings(max_examples=20, deadline=None)
@given(d=st.sampled_from([2, 3]), seed=seeds)
def test_conjugate_twirl_is_idempotent_and_matches_closed_form(d, seed, family_d2, family_d3):
    fam = family_d2 if d == 2 else family_d3
    m = gaussian(np.random.default_rng(seed), (d * d, d * d))
    once = conjugate_twirl(fam, m)
    np.testing.assert_allclose(conjugate_twirl(fam, once), once, rtol=0, atol=1e-12)
    np.testing.assert_allclose(once, isotropic_projection(d, m), rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([1, 2]), seed=seeds, rank=st.integers(1, 16), mix=st.floats(0.0, 1.0))
def test_isotropic_twirl_keeps_trace_positivity_and_ppt(n, seed, rank, mix):
    d = 2
    side = d ** (2 * n)
    rho = trace_one_gram(gaussian(np.random.default_rng(seed), (side, min(rank, side))))
    rec = isotropic_twirl_n(rho, d, n).reconstruct()
    assert abs(np.trace(rec).real - 1.0) <= 1e-12
    assert min_eigenvalue(rec) >= -1e-12
    # mixing with I/side up to a fraction of the PPT boundary gives a PPT input
    low = min_eigenvalue(pairwise_partial_transpose(rho, d, n))
    t = mix * (1.0 if low >= 0 else (1 / side) / (1 / side - low))
    ppt_in = (1 - t) * np.eye(side) / side + t * rho
    assert min_eigenvalue(pairwise_partial_transpose(ppt_in, d, n)) >= -1e-12
    ppt_rec = isotropic_twirl_n(ppt_in, d, n).reconstruct()
    assert abs(np.trace(ppt_rec).real - 1.0) <= 1e-12
    assert min_eigenvalue(ppt_rec) >= -1e-12
    assert min_eigenvalue(pairwise_partial_transpose(ppt_rec, d, n)) >= -1e-12
