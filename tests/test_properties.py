"""Property tests of the shared kernels: dephasing, kept spectra, pi_multi.

Hypothesis runs derandomized, so the suite draws the same examples on
every run.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from diagdiscord import discord as dd
from diagdiscord import states as st
from diagdiscord.linalg import hermitian_eig, von_neumann_entropy
from helpers import random_density

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)
SEEDS = hs.integers(0, 2**32 - 1)
DIMS = hs.sampled_from([(2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 2, 2)])


def _multipartite(seed, dims, rank=None):
    rng = np.random.default_rng(seed)
    return st.MultipartiteState(random_density(rng, math.prod(dims), rank), dims)


def _party_marginal(rho, dims, k):
    n = len(dims)
    bra = [j if j != k else n for j in range(n)]
    return np.einsum(rho.reshape(dims * 2), list(range(n)) + bra, [k, n])


def _projector_sum(rho, dims, k, basis):
    """sum_i (I (x) |v_i><v_i| (x) I) rho (I (x) |v_i><v_i| (x) I) on party k."""
    out = np.zeros_like(rho)
    for i in range(dims[k]):
        full = np.eye(1)
        for j, d in enumerate(dims):
            proj = np.outer(basis[:, i], basis[:, i].conj())
            full = np.kron(full, proj if j == k else np.eye(d))
        out += full @ rho @ full
    return out


@SETTINGS
@given(seed=SEEDS, dims=DIMS, where=hs.sampled_from(["first", "middle", "last"]))
def test_party_dephasing_is_the_projector_sum(seed, dims, where):
    k = {"first": 0, "middle": len(dims) // 2, "last": len(dims) - 1}[where]
    s = _multipartite(seed, dims)
    dec = hermitian_eig(_party_marginal(s.rho, dims, k))
    assume(not dec.degenerate)
    got = dd.pi_multi(s, [k]).rho
    expected = _projector_sum(s.rho, dims, k, dec.eigenvectors)
    assert np.max(np.abs(got - expected)) <= 1e-14


@SETTINGS
@given(seed=SEEDS, dims=DIMS, full_rank=hs.booleans())
def test_kept_spectrum_entropy_is_von_neumann_entropy(seed, dims, full_rank):
    rank = None if full_rank else 1 + seed % math.prod(dims)
    multi = _multipartite(seed, dims, rank)
    assert multi.entropy == von_neumann_entropy(multi.rho)
    if len(dims) == 2:
        bi = st.BipartiteState(multi.rho, *dims)
        assert bi.entropy == von_neumann_entropy(bi.rho)
        dephased = dd.pi_a(bi).dephased
        assert dephased.entropy == von_neumann_entropy(dephased.rho)


@SETTINGS
@given(seed=SEEDS, dims=hs.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]))
def test_pi_multi_on_party_0_is_pi_a(seed, dims):
    multi = _multipartite(seed, dims)
    bi = st.BipartiteState(multi.rho, *dims)
    assume(not bi.marginal_eig.degenerate)
    res = dd.pi_a(bi)
    out = dd.pi_multi(multi, [0])
    assert np.array_equal(out.rho, res.dephased.rho)
    assert dd.entropy_gain(multi, out) == res.value


@SETTINGS
@given(seed=SEEDS, dims=DIMS)
def test_pi_multi_over_all_parties_is_idempotent_and_keeps_marginals(seed, dims):
    s = _multipartite(seed, dims)
    everyone = range(len(dims))
    assume(all(
        not hermitian_eig(_party_marginal(s.rho, dims, k)).degenerate for k in everyone
    ))
    once = dd.pi_multi(s, everyone)
    twice = dd.pi_multi(once, everyone)
    assert np.max(np.abs(twice.rho - once.rho)) <= 1e-12
    for k in everyone:
        assert np.max(np.abs(
            _party_marginal(once.rho, dims, k) - _party_marginal(s.rho, dims, k)
        )) <= 1e-12
