import math

import numpy as np
import pytest

from diagdiscord import discord as dd
from diagdiscord import states as st
from diagdiscord.errors import (
    DegenerateMarginal,
    DimensionMismatch,
    InvalidP,
    OutOfDomain,
)
from diagdiscord.linalg import relative_entropy, von_neumann_entropy
from helpers import (
    bell_state,
    haar,
    random_density,
    random_state,
    reference_optimized_discord_2q,
)

# Werner-like mixture 0.9 Bell + 0.1 I/4; value frozen from an independent
# scipy.linalg.logm evaluation of min_basis S(dephased) - S(rho)
WERNER_DD = 0.7832132254353723


def werner_state():
    rho = 0.9 * bell_state().rho + 0.1 * np.eye(4) / 4
    return st.BipartiteState(rho, 2, 2)


def explicit_dephase(rho, v0):
    """Projector-sum dephasing used as an independent oracle."""
    v1 = np.array([-np.conj(v0[1]), np.conj(v0[0])])
    out = np.zeros_like(rho, dtype=complex)
    for v in (v0, v1):
        p = np.kron(np.outer(v, v.conj()), np.eye(2))
        out += p @ rho @ p
    return out


class TestPiA:
    def test_classical_quantum_fixed_point(self):
        rng = np.random.default_rng(0)
        s = st.classical_quantum_state(
            [0.6, 0.4], np.eye(2), [random_density(rng, 2) for _ in range(2)]
        )
        res = dd.pi_a(s)
        assert np.max(np.abs(res.dephased.rho - s.rho)) <= 1e-12
        assert not res.degenerate

    def test_product_state_unchanged(self):
        rng = np.random.default_rng(1)
        a = np.diag([0.7, 0.3])
        b = random_density(rng, 2)
        s = st.BipartiteState(np.kron(a, b), 2, 2)
        res = dd.pi_a(s)
        assert np.max(np.abs(res.dephased.rho - s.rho)) <= 1e-12

    def test_block_diagonal_in_basis_used(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = random_state(rng, 2, 3)
            res = dd.pi_a(s)
            v = res.basis_used
            rot = np.kron(v.conj().T, np.eye(3))
            t = (rot @ res.dephased.rho @ rot.conj().T).reshape(2, 3, 2, 3)
            assert np.max(np.abs(t[0, :, 1, :])) <= 1e-12
            assert np.max(np.abs(t[1, :, 0, :])) <= 1e-12

    def test_marginals_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = random_state(rng, 2, 2)
            res = dd.pi_a(s)
            assert np.max(np.abs(st.partial_trace_b(res.dephased) - st.partial_trace_b(s))) <= 1e-10
            assert np.max(np.abs(st.partial_trace_a(res.dephased) - st.partial_trace_a(s))) <= 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            s = random_state(rng, 2, 2)
            once = dd.pi_a(s).dephased
            twice = dd.pi_a(once).dephased
            assert np.max(np.abs(twice.rho - once.rho)) <= 1e-11

    def test_degenerate_default_raises_with_blocks(self):
        with pytest.raises(DegenerateMarginal) as err:
            dd.pi_a(bell_state())
        assert err.value.blocks == ((0, 2),)

    def test_bell_every_basis_gives_one_bit(self):
        # independent grid over dephasing bases: S is 1 for each of them
        rho = bell_state().rho
        for theta in np.linspace(0, math.pi, 7):
            for phi in np.linspace(0, 2 * math.pi, 7):
                v0 = np.array(
                    [math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)]
                )
                s = von_neumann_entropy(explicit_dephase(rho, v0))
                assert s == pytest.approx(1.0, abs=1e-12)
        res = dd.pi_a(bell_state(), optimize_degenerate=True)
        assert res.degenerate
        assert von_neumann_entropy(res.dephased.rho) == pytest.approx(1.0, abs=1e-9)


class TestDiagonalDiscord:
    def test_classical_quantum_vanishes(self):
        rng = np.random.default_rng(5)
        s = st.classical_quantum_state(
            [0.75, 0.25], np.eye(2), [random_density(rng, 2) for _ in range(2)]
        )
        assert dd.diagonal_discord(s) <= 1e-10

    def test_bell_state_one_bit(self):
        assert dd.diagonal_discord(bell_state(), optimize_degenerate=True) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_werner_matches_frozen_oracle(self):
        got = dd.diagonal_discord(werner_state(), optimize_degenerate=True)
        assert got == pytest.approx(WERNER_DD, abs=1e-9)

    def test_equals_relative_entropy_form(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            s = random_state(rng, 2, 2)
            try:
                direct = dd.diagonal_discord(s)
                res = dd.pi_a(s)
            except DegenerateMarginal:
                continue
            assert abs(direct - relative_entropy(s.rho, res.dephased.rho)) <= 1e-9

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            assert dd.diagonal_discord(random_state(rng, 2, 3)) >= 0.0

    def test_local_unitary_covariance(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            s = random_state(rng, 2, 2)
            u = np.kron(haar(rng, 2), haar(rng, 2))
            rotated = st.BipartiteState(u @ s.rho @ u.conj().T, 2, 2)
            assert dd.diagonal_discord(rotated) == pytest.approx(
                dd.diagonal_discord(s), abs=1e-9
            )

    def test_bell_diagonal_states_have_discord(self):
        # Werner mixtures with visibility >= 0.5 are not classical-quantum
        for visibility in (0.5, 0.7, 0.9):
            rho = visibility * bell_state().rho + (1 - visibility) * np.eye(4) / 4
            s = st.BipartiteState(rho, 2, 2)
            assert dd.diagonal_discord(s, optimize_degenerate=True) > 1e-3


class TestMutualInformation:
    def test_product_state(self):
        rng = np.random.default_rng(9)
        s = st.BipartiteState(
            np.kron(random_density(rng, 2), random_density(rng, 2)), 2, 2
        )
        assert dd.mutual_information(s) <= 1e-10

    def test_bell_state(self):
        assert dd.mutual_information(bell_state()) == pytest.approx(2.0, abs=1e-12)

    def test_classically_correlated(self):
        s = st.BipartiteState(np.diag([0.5, 0.0, 0.0, 0.5]), 2, 2)
        assert dd.mutual_information(s) == pytest.approx(1.0, abs=1e-12)


class TestDiscordViaMutualInformation:
    def test_matches_direct_form(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            s = random_state(rng, 2, 2)
            assert dd.diagonal_discord_via_mi(s) == pytest.approx(
                dd.diagonal_discord(s), abs=1e-9
            )

    def test_bell(self):
        assert dd.diagonal_discord_via_mi(
            bell_state(), optimize_degenerate=True
        ) == pytest.approx(1.0, abs=1e-9)


class TestGeneralizedDiscord:
    def test_classical_quantum_zero_for_all_measures(self):
        rng = np.random.default_rng(11)
        s = st.classical_quantum_state(
            [0.8, 0.2], np.eye(2), [random_density(rng, 2) for _ in range(2)]
        )
        for delta in (dd.RelativeEntropy(), dd.SchattenNorm(1), dd.SchattenNorm(2), dd.SchattenNorm(math.inf)):
            assert dd.generalized_discord(s, delta) <= 1e-10

    def test_bell_frobenius(self):
        got = dd.generalized_discord(
            bell_state(), dd.SchattenNorm(2), optimize_degenerate=True
        )
        assert got == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_relative_entropy_variant_equals_diagonal(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            s = random_state(rng, 2, 2)
            assert dd.generalized_discord(s, dd.RelativeEntropy()) == pytest.approx(
                dd.diagonal_discord(s), abs=1e-9
            )

    def test_invalid_p(self):
        with pytest.raises(InvalidP):
            dd.SchattenNorm(0.3)


class TestPiMulti:
    def test_classical_classical_fixed_point(self):
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        s = st.MultipartiteState(rho, (2, 2))
        out = dd.pi_multi(s, [0, 1])
        assert np.max(np.abs(out.rho - rho)) <= 1e-12

    def test_zero_parties_identity(self):
        rng = np.random.default_rng(13)
        s = st.MultipartiteState(random_density(rng, 4), (2, 2))
        out = dd.pi_multi(s, [])
        assert np.array_equal(out.rho, s.rho)

    def test_two_sided_matches_sequential_oracle(self):
        rho = 0.8 * bell_state().rho + 0.2 * np.diag([0.4, 0.3, 0.2, 0.1])
        s = st.MultipartiteState(rho, (2, 2))
        got = dd.pi_multi(s, [0, 1]).rho

        cur = rho.astype(complex)
        for which in (0, 1):
            t = cur.reshape(2, 2, 2, 2)
            marg = np.einsum("ibjb->ij", t) if which == 0 else np.einsum("aiaj->ij", t)
            _, v = np.linalg.eigh(marg)
            nxt = np.zeros_like(cur)
            for k in range(2):
                p = np.outer(v[:, k], v[:, k].conj())
                full = np.kron(p, np.eye(2)) if which == 0 else np.kron(np.eye(2), p)
                nxt += full @ cur @ full
            cur = nxt
        assert np.max(np.abs(got - cur)) <= 1e-12

    def test_idempotent_and_marginal_preserving(self):
        rng = np.random.default_rng(14)
        s = st.MultipartiteState(random_density(rng, 8), (2, 2, 2))
        once = dd.pi_multi(s, [0, 2])
        twice = dd.pi_multi(once, [0, 2])
        assert np.max(np.abs(twice.rho - once.rho)) <= 1e-11
        t_in = s.rho.reshape(2, 2, 2, 2, 2, 2)
        t_out = once.rho.reshape(2, 2, 2, 2, 2, 2)
        assert np.max(np.abs(
            np.einsum("abcdbc->ad", t_in) - np.einsum("abcdbc->ad", t_out)
        )) <= 1e-10
        assert np.max(np.abs(
            np.einsum("abcabd->cd", t_in) - np.einsum("abcabd->cd", t_out)
        )) <= 1e-10

    def test_degenerate_party_reported(self):
        s = st.MultipartiteState(bell_state().rho, (2, 2))
        with pytest.raises(DegenerateMarginal) as err:
            dd.pi_multi(s, [0])
        assert err.value.party == 0

    def test_bad_party_index(self):
        s = st.MultipartiteState(np.eye(4) / 4, (2, 2))
        with pytest.raises(DimensionMismatch):
            dd.pi_multi(s, [3])


def _optimized(state):
    [res] = dd.optimized_discord_2q([state])
    return res


def _reference_states(seed):
    """Seeded X-states with nondegenerate marginals and rank 1..4 Ginibre states."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < 12:
        s = st.sample_x_state(rng)
        if not s.marginal_eig.degenerate:
            out.append(s)
    out.extend(random_state(rng, 2, 2, 1 + k % 4) for k in range(12))
    return out


class TestOptimizedDiscord:
    def test_classical_quantum_zero_at_eigenbasis(self):
        rng = np.random.default_rng(15)
        s = st.classical_quantum_state(
            [0.7, 0.3], np.eye(2), [random_density(rng, 2) for _ in range(2)]
        )
        res = _optimized(s)
        assert res.value <= 1e-9
        # optimal measurement is the marginal eigenbasis (theta = 0 or pi)
        assert min(abs(res.theta), abs(res.theta - math.pi)) <= 1e-6

    def test_bell_state(self):
        assert _optimized(bell_state()).value == pytest.approx(1.0, abs=1e-9)

    def test_upper_bounded_by_diagonal_discord(self):
        rng = np.random.default_rng(16)
        for _ in range(60):
            s = st.sample_x_state(rng)
            try:
                diag = dd.diagonal_discord(s)
            except DegenerateMarginal:
                continue
            assert _optimized(s).value <= diag + 1e-9

    def test_dimension_check(self):
        rng = np.random.default_rng(17)
        with pytest.raises(DimensionMismatch):
            dd.optimized_discord_2q([random_state(rng, 2, 3)])

    @pytest.mark.parametrize("seed", [18, 19])
    def test_matches_grid_and_nelder_mead_reference(self, seed):
        states = _reference_states(seed)
        for s, res in zip(states, dd.optimized_discord_2q(states)):
            ref = reference_optimized_discord_2q(s)
            assert abs(res.value - ref) <= 1e-9
            assert res.value <= ref + 1e-12

    def test_batch_rows_equal_single_states(self):
        states = _reference_states(20)
        batch = dd.optimized_discord_2q(states)
        assert len(batch) == len(states)
        for s, res in zip(states, batch):
            assert abs(res.value - _optimized(s).value) <= 1e-14

    def test_classical_quantum_states_in_random_bases(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            u = haar(rng, 2)
            s = st.classical_quantum_state(
                rng.dirichlet(np.ones(2)), u, [random_density(rng, 2) for _ in range(2)]
            )
            res = _optimized(s)
            assert res.value <= 1e-9
            # the optimal direction is the basis' Bloch vector, up to sign
            v = u[:, 0]
            n = np.array([math.sin(res.theta) * math.cos(res.phi),
                          math.sin(res.theta) * math.sin(res.phi),
                          math.cos(res.theta)])
            n_u = [2 * (np.conj(v[0]) * v[1]).real, 2 * (np.conj(v[0]) * v[1]).imag,
                   abs(v[0]) ** 2 - abs(v[1]) ** 2]
            assert abs(abs(float(n @ n_u)) - 1.0) <= 1e-6

    def test_empty_sequence(self):
        assert dd.optimized_discord_2q([]) == []


class TestContinuityBounds:
    def test_frozen_value(self):
        # independent mpmath evaluation of the closed formula
        got = dd.continuity_bound(2, 2, 0.5, 1e-3)
        assert got == pytest.approx(0.20230981029867323, abs=1e-12)

    def test_vanishes_with_eps(self):
        assert dd.continuity_bound(2, 2, 0.5, 0.0) == 0.0

    def test_monotone_in_eps(self):
        a = dd.continuity_bound(2, 2, 0.5, 1e-3)
        b = dd.continuity_bound(2, 2, 0.5, 2e-3)
        assert b > a

    def test_decreasing_in_gap(self):
        assert dd.continuity_bound(2, 2, 0.6, 1e-3) < dd.continuity_bound(2, 2, 0.3, 1e-3)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            dd.continuity_bound(2, 2, 1e-4, 0.5)
        with pytest.raises(OutOfDomain):
            dd.continuity_bound(2, 2, 0.0, 1e-3)

    def test_schatten_bound_value(self):
        got = dd.schatten_continuity_bound(2, 2, 0.4, 1e-3)
        assert got == pytest.approx(2 * (1 + math.sqrt(128) / 0.4) * 1e-3, abs=1e-15)
        assert got == pytest.approx(0.058568542494923805, abs=1e-15)

    def test_schatten_bound_linear(self):
        assert dd.schatten_continuity_bound(2, 2, 0.4, 0.0) == 0.0
        one = dd.schatten_continuity_bound(2, 2, 0.4, 1e-3)
        two = dd.schatten_continuity_bound(2, 2, 0.4, 2e-3)
        assert two == pytest.approx(2 * one)

    def test_empirical_continuity(self):
        # random perturbations never exceed the bounds
        rng = np.random.default_rng(18)
        checked = 0
        while checked < 25:
            s = random_state(rng, 2, 2)
            dec = dd.hermitian_eig(st.partial_trace_b(s))
            if dec.degenerate or dec.min_gap < 0.05:
                continue
            eps = 1e-3
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            t = (g + g.conj().T) / 2
            t -= np.trace(t).real * np.eye(4) / 4
            t /= sum(abs(np.linalg.eigvalsh(t)))
            pert = s.rho + eps * t
            if np.linalg.eigvalsh(pert)[0] < 0:
                continue
            ps = st.BipartiteState(pert, 2, 2)
            pdec = dd.hermitian_eig(st.partial_trace_b(ps))
            if pdec.degenerate or pdec.min_gap < dec.min_gap / 2:
                continue
            change = abs(dd.diagonal_discord(ps) - dd.diagonal_discord(s))
            assert change <= dd.continuity_bound(2, 2, dec.min_gap, eps)
            s2_change = abs(
                dd.generalized_discord(ps, dd.SchattenNorm(2))
                - dd.generalized_discord(s, dd.SchattenNorm(2))
            )
            assert s2_change <= dd.schatten_continuity_bound(2, 2, dec.min_gap, eps)
            checked += 1
