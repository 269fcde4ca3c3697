"""Property tests of the shared kernels, their stacked form and the optimized two-qubit discord.

Hypothesis runs derandomized, so the suite draws the same examples on
every run.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from diagdiscord import channels as ch
from diagdiscord import discord as dd
from diagdiscord import linalg as la
from diagdiscord import states as st
from diagdiscord.errors import DegenerateMarginal, DimensionMismatch, NotDensityMatrix
from diagdiscord.linalg import hermitian_eig, von_neumann_entropy
from helpers import (
    conjugate_a,
    haar,
    random_density,
    reference_qubit_mu_commuting_condition,
)

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


def _two_qubit(seed, rank, x_state):
    rng = np.random.default_rng(seed)
    if x_state:
        return st.sample_x_state(rng)
    return st.BipartiteState(random_density(rng, 4, rank), 2, 2)


@SETTINGS
@given(seed=SEEDS, rank=hs.integers(1, 4), x_state=hs.booleans())
def test_optimized_discord_lies_between_zero_and_diagonal_discord(seed, rank, x_state):
    s = _two_qubit(seed, rank, x_state)
    assume(not s.marginal_eig.degenerate)
    [res] = dd.optimized_discord_2q([s])
    assert 0.0 <= res.value <= dd.diagonal_discord(s) + 1e-9


@SETTINGS
@given(seed=SEEDS, rank=hs.integers(1, 4), x_state=hs.booleans())
def test_optimized_discord_is_invariant_under_a_unitary_on_b(seed, rank, x_state):
    s = _two_qubit(seed, rank, x_state)
    u = np.kron(np.eye(2), haar(np.random.default_rng(seed + 1), 2))
    rotated = st.BipartiteState(u @ s.rho @ u.conj().T, 2, 2)
    before, after = dd.optimized_discord_2q([s, rotated])
    assert abs(after.value - before.value) <= 1e-9


@SETTINGS
@given(seed=SEEDS)
def test_pure_product_states_have_no_optimized_discord(seed):
    rng = np.random.default_rng(seed)
    psi = np.kron(haar(rng, 2)[:, 0], haar(rng, 2)[:, 0])
    s = st.BipartiteState(np.outer(psi, psi.conj()), 2, 2)
    [res] = dd.optimized_discord_2q([s])
    assert res.value <= 1e-9


@SETTINGS
@given(seed=SEEDS, rank=hs.integers(1, 4), x_state=hs.booleans())
def test_optimized_discord_objective_is_even_in_the_direction(seed, rank, x_state):
    # n and -n are one measurement; the direction grid keeps only one of them
    s = _two_qubit(seed, rank, x_state)
    a, b, t = dd._bloch_form(s.rho[None])
    n = np.random.default_rng(seed + 2).normal(size=(16, 3))
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    a, b, t = (np.repeat(m, len(n), axis=0) for m in (a, b, t))
    assert _close(dd._objective(n, a, b, t), dd._objective(-n, a, b, t), 1e-15)


# --- stacked kernels: row i of a stack is the kernel applied to row i ---------

STACKS = hs.tuples(hs.sampled_from([2, 3, 4]), hs.sampled_from([1, 2, 3]), hs.integers(1, 8))


def _close(a, b, tol=1e-14):
    return np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0) <= tol


def _random_stack(rng, d, n):
    return np.stack([random_density(rng, d) for _ in range(n)])


@SETTINGS
@given(seed=SEEDS, shape=STACKS)
def test_stacked_kernels_equal_their_single_matrix_calls(seed, shape):
    d_a, d_b, n = shape
    rng = np.random.default_rng(seed)
    rhos = _random_stack(rng, d_a * d_b, n)
    bases = np.stack([haar(rng, d_a) for _ in range(n)])
    op = haar(rng, d_a) * rng.uniform(size=d_a)
    vals = la.density_eigenvalues(rhos)
    entropies = la.spectrum_entropy(vals)
    marginals = st.ptrace_b(rhos, d_a, d_b)
    dec = la.hermitian_eig(marginals)
    blocks = st.blocks_a(rhos, d_a, d_b, bases)
    shared = st.blocks_a(rhos, d_a, d_b, bases[0])
    rebuilt = st.from_blocks_a(bases, blocks)
    conjugated = conjugate_a(op, rhos, d_a, d_b)
    channels = (
        ch.random_mixed_unitary(rng, d_a),
        ch.random_kraus_channel(rng, d_a),
        ch.random_isotropic(rng, d_a),
        ch.random_isotropic(rng, d_a, antiunitary=True),
        ch.random_semiclassical(rng, d_a),
    )
    lifts = [c.lift_a(rhos, d_a, d_b) for c in channels]
    # non-Hermitian differences and one zero matrix, whose norms are 0
    mats = np.concatenate([rhos - conjugated, np.zeros_like(rhos[:1])])
    norms = {p: la.schatten_norm(mats, p) for p in (1, 1.5, 2, math.inf)}
    trace_norms = la.trace_norm(mats)
    for i, m in enumerate(mats):
        for p, stacked in norms.items():
            assert stacked[i] == la.schatten_norm(m, p)
        assert trace_norms[i] == la.trace_norm(m)
        assert type(la.trace_norm(m)) is float
    assert trace_norms[-1] == norms[math.inf][-1] == 0.0
    for i, rho in enumerate(rhos):
        assert _close(vals[i], la.density_eigenvalues(rho))
        assert _close(entropies[i], la.spectrum_entropy(vals[i]))
        one = la.hermitian_eig(marginals[i])
        assert _close(dec.eigenvalues[i], one.eigenvalues)
        assert _close(dec.eigenvectors[i], one.eigenvectors)
        assert dec.min_gap[i] == one.min_gap
        assert dec.degenerate[i] == one.degenerate
        assert dec.degenerate_blocks[i] == one.degenerate_blocks
        assert _close(blocks[i], st.blocks_a(rho, d_a, d_b, bases[i]))
        assert _close(shared[i], st.blocks_a(rho, d_a, d_b, bases[0]))
        assert _close(rebuilt[i], st.from_blocks_a(bases[i], blocks[i]))
        assert _close(conjugated[i], conjugate_a(op, rho, d_a, d_b))
        for channel, lift in zip(channels, lifts):
            assert _close(lift[i], channel.lift_a(rho, d_a, d_b))


@SETTINGS
@given(seed=SEEDS, shape=STACKS)
def test_stacked_states_and_pi_a_equal_their_rows(seed, shape):
    d_a, d_b, n = shape
    rng = np.random.default_rng(seed)
    states = st.BipartiteState(_random_stack(rng, d_a * d_b, n), d_a, d_b)
    assume(not states.marginal_eig.degenerate.any())
    res = dd.pi_a(states)
    mi, via_mi = dd.mutual_information(states), dd.diagonal_discord_via_mi(states)
    with pytest.raises(DimensionMismatch):  # relative entropy is the scalar cross-check
        dd.generalized_discord(states, dd.RelativeEntropy())
    for i, rho in enumerate(states.rho):
        state = st.BipartiteState(rho, d_a, d_b)
        one = dd.pi_a(state)
        assert _close(states.entropy[i], von_neumann_entropy(rho))
        assert _close(res.dephased.rho[i], one.dephased.rho)
        assert _close(res.value[i], one.value)
        assert res.degenerate[i] == one.degenerate
        assert _close(mi[i], dd.mutual_information(state))
        assert _close(via_mi[i], dd.diagonal_discord_via_mi(state))


@SETTINGS
@given(seed=SEEDS, shape=STACKS, where=hs.floats(0.0, 1.0, exclude_max=True))
def test_a_non_density_row_is_named(seed, shape, where):
    d_a, d_b, n = shape
    rng = np.random.default_rng(seed)
    rhos = _random_stack(rng, d_a * d_b, n)
    bad = int(where * n)
    u = haar(rng, d_a * d_b)
    spectrum = np.zeros(d_a * d_b)
    spectrum[:2] = 1.5, -0.5  # unit trace, one negative eigenvalue
    rhos[bad] = (u * spectrum) @ u.conj().T
    with pytest.raises(NotDensityMatrix, match=f"state row {bad} has negative eigenvalue"):
        st.BipartiteState(rhos, d_a, d_b)


def _mixed_marginal_state(rng, d_b):
    """A random 2 x d_b state whose A-marginal is I/2, so degenerate."""
    if d_b == 1:
        return np.eye(2, dtype=complex) / 2.0
    phi = np.zeros(2 * d_b, dtype=complex)
    phi[0] = phi[d_b + 1] = 1.0 / math.sqrt(2.0)
    p = rng.uniform()
    rho = p * np.outer(phi, phi) + (1.0 - p) * np.kron(np.eye(2) / 2.0, random_density(rng, d_b))
    u = np.kron(haar(rng, 2), haar(rng, d_b))
    return u @ rho @ u.conj().T


@settings(derandomize=True, max_examples=12, deadline=None)
@given(seed=SEEDS, d_b=hs.sampled_from([1, 2, 3]), n=hs.integers(1, 8),
       where=hs.floats(0.0, 1.0, exclude_max=True))
def test_a_degenerate_row_is_optimized_alone(seed, d_b, n, where):
    rng = np.random.default_rng(seed)
    rhos = _random_stack(rng, 2 * d_b, n)
    bad = int(where * n)
    rhos[bad] = _mixed_marginal_state(rng, d_b)
    states = st.BipartiteState(rhos, 2, d_b)
    with pytest.raises(DegenerateMarginal, match=f"row {bad}"):
        dd.pi_a(states)
    res = dd.pi_a(states, optimize_degenerate=True)
    for i, rho in enumerate(rhos):
        one = dd.pi_a(st.BipartiteState(rho, 2, d_b), optimize_degenerate=(i == bad))
        assert res.degenerate[i] == one.degenerate == (i == bad)
        assert _close(res.value[i], one.value)


@SETTINGS
@given(seed=SEEDS, n=hs.integers(1, 8))
def test_stacked_x_state_rows_equal_their_single_matrix(seed, n):
    rng = np.random.default_rng(seed)
    rows = np.array([st.sample_x_params(rng).as_row() for _ in range(n)])
    stack = st.x_state_matrix(rows)
    assert stack.shape == (n, 4, 4)
    for row, m in zip(rows, stack):
        assert m.tobytes() == st.x_state_matrix(st.XStateParams(*row)).tobytes()


@SETTINGS
@given(seed=SEEDS, n=hs.integers(1, 8), x_states=hs.booleans())
def test_optimized_discord_of_a_stack_equals_that_of_its_rows(seed, n, x_states):
    rng = np.random.default_rng(seed)
    if x_states:
        rhos = st.x_state_matrix([st.sample_x_params(rng).as_row() for _ in range(n)])
    else:
        rhos = _random_stack(rng, 4, n)
    stacked = dd.optimized_discord_2q(st.BipartiteState(rhos, 2, 2))
    rows = dd.optimized_discord_2q([st.BipartiteState(rho, 2, 2) for rho in rhos])
    assert len(stacked) == len(rows) == n
    for got, want in zip(stacked, rows):
        got, want = (np.array([r.value, r.theta, r.phi]).tobytes() for r in (got, want))
        assert got == want


@SETTINGS
@given(seed=SEEDS, n=hs.integers(1, 4))
def test_lemma1_condition_equals_the_two_loop_formula(seed, n):
    rng = np.random.default_rng(seed)
    channel = ch.random_mixed_unitary(rng, 2, n)
    basis = haar(rng, 2)
    got = ch.qubit_mu_commuting_condition(channel, basis)
    assert abs(got - reference_qubit_mu_commuting_condition(channel, basis)) <= 1e-15
