import math

import numpy as np
import pytest

from diagdiscord import channels as ch
from diagdiscord import discord as dd
from diagdiscord import experiments as ex
from diagdiscord import states as st
from diagdiscord.errors import (
    DegenerateMarginal,
    DimensionMismatch,
    InvalidP,
    NotDensityMatrix,
    OutOfDomain,
)
from diagdiscord.linalg import (
    EIG_FLOOR_TOL,
    block_spectrum,
    relative_entropy,
    schatten_norm,
    spectrum_entropy,
    von_neumann_entropy,
)
from diagdiscord.states import blocks_a
from helpers import (
    bell_state,
    degenerate_marginal_state,
    haar,
    marginal_filtered_state,
    random_density,
    random_state,
    reference_block_minimum,
    reference_grid_values,
    reference_newton_refine,
    reference_optimize_degenerate_basis,
    reference_optimized_discord_2q,
)
from test_extended_precision import (
    EPS,
    conditional_entropy_oracle,
    direction,
    mp,
    pure_conditional_stack,
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


def _eager_pi_a(state, basis):
    """The dephased state and the value, built at once: the reference for ``PiResult``."""
    d_a, d_b = state.dim_a, state.dim_b
    blocks = blocks_a(state.rho, d_a, d_b, basis)
    rho = st.from_blocks_a(basis, blocks)
    dephased = st.BipartiteState(
        (rho + rho.conj().swapaxes(-1, -2)) / 2.0, d_a, d_b, _spectrum=block_spectrum(blocks)
    )
    return dephased, dd.entropy_gain(state, dephased)


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

    def test_empty_stack_gives_empty_results(self):
        empty = st.BipartiteState(np.zeros((0, 4, 4)), 2, 2)
        res = dd.pi_a(empty)
        assert res.value.shape == (0,)
        assert res.dephased.spectrum.shape == (0, 4)
        assert dd.diagonal_discord(empty).shape == (0,)
        assert dd.generalized_discord(empty).shape == (0,)
        assert dd.mutual_information(empty).shape == (0,)
        assert np.shape(dd.optimized_discord_2q(empty)) == (0,)
        assert ch.probabilistic_hadamard().apply_local_a(empty).entropy.shape == (0,)
        assert dd.dephase_a(empty.rho, 2, 2, np.eye(2)).shape == (0, 4, 4)

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

    @pytest.mark.parametrize("d_a", [2, 3, 4])
    @pytest.mark.parametrize("d_b", [1, 2, 3])
    def test_lazy_dephased_state_equals_the_eager_one(self, d_a, d_b):
        rng = np.random.default_rng([26, d_a, d_b])
        rhos = np.stack(
            [random_density(rng, d_a * d_b) for _ in range(5)]
            + [degenerate_marginal_state(rng, d_a, d_b).rho]
        )
        for rows in (rhos[0], rhos[:5], rhos, rhos[:0]):
            state = st.BipartiteState(rows, d_a, d_b)
            res = dd.pi_a(state, optimize_degenerate=True)
            dephased, value = _eager_pi_a(state, res.basis_used)
            assert res.dephased.rho.tobytes() == dephased.rho.tobytes()
            assert res.dephased.spectrum.tobytes() == dephased.spectrum.tobytes()
            assert np.asarray(res.value).tobytes() == np.asarray(value).tobytes()
            assert res.dephased is res.dephased

    def test_negative_block_spectrum_raises_before_the_state_is_built(self, monkeypatch):
        built = []
        monkeypatch.setattr(dd, "from_blocks_a", lambda *args: built.append(args))

        def below_floor(blocks):
            vals = block_spectrum(blocks)
            vals[1:, 0] = -2.0 * EIG_FLOOR_TOL
            return vals

        monkeypatch.setattr(dd, "block_spectrum", below_floor)
        states = st.BipartiteState(
            np.stack([random_density(np.random.default_rng(k), 6) for k in range(3)]), 2, 3
        )
        with pytest.raises(NotDensityMatrix, match="state row 1 has negative eigenvalue"):
            dd.pi_a(states)
        assert built == []

    def test_experiments_build_no_dephased_matrix(self, monkeypatch):
        calls = []
        for module in (st, dd):
            monkeypatch.setattr(
                module, "from_blocks_a",
                lambda *args, f=module.from_blocks_a: (calls.append(1), f(*args))[1],
            )
        ex.run_monotonicity("fig2a", 50, 23)
        ex.run_xstate_comparison(20, 7)
        assert calls == []


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

    def test_each_marginal_is_decomposed_once(self, monkeypatch):
        s = random_state(np.random.default_rng(11), 2, 3)
        calls = {"eigh": [], "eigvalsh": []}
        for name, seen in calls.items():
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda m, solver=solver, seen=seen: (seen.append(m.shape), solver(m))[1]
            )
        dd.diagonal_discord_via_mi(s)
        marginal = {(2, 2), (3, 3)}
        assert sum(shape in marginal for shape in calls["eigvalsh"]) <= 1
        assert sum(shape in marginal for shape in calls["eigh"]) <= 1


class TestGeneralizedDiscord:
    def test_classical_quantum_zero_for_all_measures(self):
        rng = np.random.default_rng(11)
        s = st.classical_quantum_state(
            [0.8, 0.2], np.eye(2), [random_density(rng, 2) for _ in range(2)]
        )
        for p in (1, 2, math.inf):
            assert dd.generalized_discord(s, p) <= 1e-10
        assert relative_entropy(s.rho, dd.pi_a(s).dephased.rho) <= 1e-10

    def test_bell_frobenius(self):
        got = dd.generalized_discord(bell_state(), 2, optimize_degenerate=True)
        assert got == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_invalid_p(self):
        # checked before the degenerate marginal of the Bell state
        for p in (0.3, math.nan):
            with pytest.raises(InvalidP):
                dd.generalized_discord(bell_state(), p)


#: the public values that run the degenerate-eigenbasis search
SEARCH_MEASURES = [
    lambda s: dd.pi_a(s, optimize_degenerate=True).value,
    *(
        lambda s, p=p: dd.generalized_discord(s, p, optimize_degenerate=True)
        for p in (1.0, 2.0, math.inf)
    ),
]


class TestDegenerateEigenbasisSearch:
    @pytest.mark.parametrize("d_a", [2, 3, 4])
    @pytest.mark.parametrize("d_b", [1, 2, 3])
    def test_matches_the_scalar_grid_loop_bit_for_bit(self, d_a, d_b, monkeypatch):
        state = degenerate_marginal_state(np.random.default_rng([d_a, d_b]), d_a, d_b)
        search = dd._optimize_degenerate_basis

        def run(impl):
            bases = []

            def spy(dec, objective):
                bases.append(impl(dec, objective))
                return bases[-1]

            monkeypatch.setattr(dd, "_optimize_degenerate_basis", spy)
            return [m(state) for m in SEARCH_MEASURES], bases

        got, got_bases = run(search)
        want, want_bases = run(reference_optimize_degenerate_basis)
        assert len(got_bases) == len(want_bases) == len(SEARCH_MEASURES)
        for a, b in zip(got + got_bases, want + want_bases):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    @pytest.mark.parametrize("d_a", [2, 3, 4])
    @pytest.mark.parametrize("d_b", [1, 2, 3])
    def test_search_minimizes_the_entropy_pi_a_reports(self, d_a, d_b, monkeypatch):
        search = dd._optimize_degenerate_basis
        scored = []

        def spy(dec, objective):
            basis = search(dec, objective)
            scored.append(objective(basis))
            return basis

        monkeypatch.setattr(dd, "_optimize_degenerate_basis", spy)
        states = [
            degenerate_marginal_state(np.random.default_rng([seed, d_a, d_b]), d_a, d_b)
            for seed in range(4)
        ]
        if d_a > 2:  # a block of 3 columns: rho_A = (1, 1, 1)/3 or (1, 1, 1, 2)/5
            w = np.array([1.0, 1.0, 1.0, 2.0][:d_a])
            rng = np.random.default_rng([4, d_a, d_b])
            states.append(marginal_filtered_state(rng, d_a, d_b, w / w.sum()))
            assert states[-1].marginal_eig.degenerate_blocks == ((0, 3),)
        for state in states:
            res = dd.pi_a(state, optimize_degenerate=True)
            assert scored[-1] == res.dephased.entropy

    @pytest.mark.parametrize("m, d_b", [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)])
    def test_blocks_of_3_and_4_columns_reach_the_multi_start_minimum(self, m, d_b):
        # rho_A = I/m: one block of m columns, and every basis of A is an eigenbasis
        state = marginal_filtered_state(np.random.default_rng([m, d_b]), m, d_b, np.ones(m) / m)
        dec = state.marginal_eig
        assert dec.degenerate_blocks == ((0, m),)
        rng = np.random.default_rng([7, m, d_b])

        def entropy(basis):
            return spectrum_entropy(block_spectrum(blocks_a(state.rho, m, d_b, basis)))

        def distance(basis):
            return schatten_norm(state.rho - dd.dephase_a(state.rho, m, d_b, basis), 2.0)

        # measured at most 5.6e-8 (entropy) and 4.0e-10 (p = 2) above the best
        # of 20 starts, on 9 seeded states at 4 x 2
        res = dd.pi_a(state, optimize_degenerate=True)
        assert np.abs(res.basis_used.conj().T @ res.basis_used - np.eye(m)).max() <= 1e-13
        got = spectrum_entropy(res.spectrum)
        assert got <= reference_block_minimum(dec.eigenvectors, 0, m, entropy, rng, 4) + 1e-6
        got = dd.generalized_discord(state, 2.0, optimize_degenerate=True)
        assert got <= reference_block_minimum(dec.eigenvectors, 0, m, distance, rng, 4) + 1e-8

    @pytest.mark.parametrize("d_a, n_blocks", [(2, 1), (3, 1), (4, 2)])
    def test_grid_is_one_stacked_call_per_block(self, d_a, n_blocks):
        state = degenerate_marginal_state(np.random.default_rng(d_a), d_a, 2)
        dec = state.marginal_eig
        assert len(dec.degenerate_blocks) == n_blocks
        shapes = []

        def entropy(bases):
            shapes.append(bases.shape)
            vals = np.linalg.eigvalsh(blocks_a(state.rho, d_a, 2, bases))
            return spectrum_entropy(vals.reshape(*bases.shape[:-2], -1))

        dd._optimize_degenerate_basis(dec, entropy)
        assert shapes[:n_blocks] == [(48 * 24, d_a, d_a)] * n_blocks
        assert len(shapes) > n_blocks
        assert set(shapes[n_blocks:]) == {(d_a, d_a)}  # Nelder-Mead, one basis a call

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_maximally_mixed_marginal_gives_the_optimized_discord(self, rank):
        """With rho_A = I/2 every basis of A is an eigenbasis of rho_A, so the
        diagonal discord minimized over them is the optimized discord: the
        Nelder-Mead search and the Bloch-form Newton optimizer must agree."""
        for seed in range(40):
            s = degenerate_marginal_state(np.random.default_rng([seed, rank]), 2, 2, rank)
            assert s.marginal_eig.degenerate
            [opt] = dd.optimized_discord_2q([s])
            assert abs(dd.diagonal_discord(s, optimize_degenerate=True) - opt.value) <= 1e-12


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

    def test_output_spectrum_is_the_last_partys_block_spectrum(self):
        rng = np.random.default_rng(15)
        s = st.MultipartiteState(random_density(rng, 12), (2, 3, 2))
        for parties in ([0], [1], [0, 2], [0, 1, 2]):
            out = dd.pi_multi(s, parties)
            assert np.max(np.abs(out.spectrum - np.linalg.eigvalsh(out.rho))) <= 1e-14

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


def _entropy_bits(rho):
    vals = np.linalg.eigvalsh(rho)
    vals = vals[vals > 0.0]
    return float(-(vals * np.log2(vals)).sum())


def _mutual_information(rho, d_a, d_b):
    t = rho.reshape(d_a, d_b, d_a, d_b)
    return (
        _entropy_bits(np.einsum("ibjb->ij", t))
        + _entropy_bits(np.einsum("aiaj->ij", t))
        - _entropy_bits(rho)
    )


class TestMeasurementInducedDisturbance:
    """pi_multi over both parties is Luo's measurement in the marginal eigenbases.

    Luo, PRA 77, 022301 (2008): Pi(rho) = sum_ij (P_i (x) Q_j) rho (P_i (x) Q_j)
    with P_i, Q_j the eigenprojectors of rho_A and rho_B; the disturbance
    I(rho) - I(Pi(rho)) equals S(Pi(rho)) - S(rho), since Pi keeps both
    marginals. The projectors here come from numpy alone.
    """

    @pytest.mark.parametrize("d_a, d_b", [(2, 2), (2, 3), (3, 3)])
    @pytest.mark.parametrize("seed", range(4))
    def test_pi_multi_is_luo_measurement(self, d_a, d_b, seed):
        rho = random_density(np.random.default_rng([seed, d_a, d_b]), d_a * d_b)
        t = rho.reshape(d_a, d_b, d_a, d_b)
        p_vals, p_vecs = np.linalg.eigh(np.einsum("ibjb->ij", t))
        q_vals, q_vecs = np.linalg.eigh(np.einsum("aiaj->ij", t))
        assert min(np.diff(p_vals).min(), np.diff(q_vals).min()) > 1e-6
        projectors = [
            np.kron(np.outer(p, p.conj()), np.outer(q, q.conj()))
            for p in p_vecs.T
            for q in q_vecs.T
        ]
        luo = sum(proj @ rho @ proj for proj in projectors)

        state = st.MultipartiteState(rho, (d_a, d_b))
        out = dd.pi_multi(state, [0, 1])
        assert np.max(np.abs(out.rho - luo)) <= 1e-12

        gain = _entropy_bits(luo) - _entropy_bits(rho)
        disturbance = _mutual_information(rho, d_a, d_b) - _mutual_information(luo, d_a, d_b)
        assert abs(disturbance - gain) <= 1e-12
        assert abs(dd.entropy_gain(state, out) - gain) <= 1e-12


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


def _grid_test_stacks(seed, n=40):
    """Seeded two-qubit stacks by kind, as (kind, (n, 4, 4) matrices)."""
    rng = np.random.default_rng(seed)

    def cq(basis, rank):
        return st.classical_quantum_state(
            rng.dirichlet(np.ones(2)), basis, [random_density(rng, 2, rank) for _ in range(2)]
        ).rho

    def product(rank_a, rank_b):
        return np.kron(random_density(rng, 2, rank_a), random_density(rng, 2, rank_b))

    return [
        ("random", np.stack([random_density(rng, 4) for _ in range(n)])),
        ("x-state", st.x_state_matrix([st.sample_x_params(rng).as_row() for _ in range(n)])),
        ("classical-quantum", np.stack([cq(haar(rng, 2), 2) for _ in range(n)])),
        ("product", np.stack([product(2, 2) for _ in range(n)])),
        # pure conditional states of B: q - r is 0 up to rounding at every
        # direction (pure product states) or at the computational basis
        ("pure product", np.stack([product(1 + k % 2, 1) for k in range(n)])),
        ("pure conditional", np.stack([cq(np.eye(2), 1) for _ in range(n)])),
        ("pure conditional, rotated", np.stack([cq(haar(rng, 2), 1) for _ in range(n)])),
    ]


#: how far the half grid's minimum, scored by ``_objective``, may lie from the
#: full per-state grid's. Both are rounding: a state's two antipodal grid
#: points differ in their last bits, and the grid loop keeps the luckier one.
#: On full-rank random and X-states that stays below 7e-16 (3000 states each);
#: where a conditional eigenvalue of B is near 0, the slope of x log x there
#: amplifies it, to 2e-15 on rank-2 and classical-quantum states and 9e-15 on
#: pure ones, whose conditional entropy is 0 at every direction.
GRID_TOL = {"random": 1e-15, "x-state": 1e-15}
GRID_TOL_NEAR_ZERO_EIGENVALUE = 2e-14


class TestGridMinimizers:
    @pytest.mark.parametrize("seed", [30, 31])
    def test_half_grid_minimum_matches_the_per_state_full_grid(self, seed):
        for kind, rhos in _grid_test_stacks(seed):
            a, b, t = dd._bloch_form(rhos)
            n = dd._grid_minimizers(a, b, t)
            got = dd._objective(n, a, b, t)
            values, grid = reference_grid_values(a, b, t)
            want = values.min(axis=-1)
            tol = GRID_TOL.get(kind, GRID_TOL_NEAR_ZERO_EIGENVALUE)
            assert np.all(np.isfinite(got)), kind
            assert np.max(np.abs(got - want)) <= tol, kind
            # where the full grid has one least measurement, clear of every
            # other by 1e-9, the half grid picks it (as n or as -n)
            ref_n = grid[np.argmin(values, axis=-1)]
            other = np.abs(np.einsum("kj,gj->kg", ref_n, grid)) < 1.0 - 1e-9
            clear = np.all(~other | (values > want[:, None] + 1e-9), axis=-1)
            parallel = np.abs(np.einsum("kj,kj->k", n, ref_n))
            assert np.all(parallel[clear] >= 1.0 - 1e-12), kind

    def test_minimizers_lie_on_the_upper_half_grid(self):
        for _, rhos in _grid_test_stacks(32, n=8):
            n = dd._grid_minimizers(*dd._bloch_form(rhos))
            assert np.all(n[:, 2] > 0.0)
            assert all(any((row == g).all() for g in dd._HALF_GRID) for row in n)

    # stack sizes at the general grid's chunk edges: C, 2C + 3 and 16 C (Cx)
    @pytest.mark.parametrize(
        "chunks, extra",
        [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3), (16, -1), (16, 0), (16, 1)],
        ids=["1", "C-1", "C", "C+1", "2C+3", "Cx-1", "Cx", "Cx+1"],
    )
    @pytest.mark.parametrize("x_states", [False, True, "mixed"])
    def test_rows_across_chunks_equal_single_state_calls(self, chunks, extra, x_states):
        size = chunks * dd._GRID_CHUNK + extra
        rng = np.random.default_rng(33 + size)
        if x_states:
            rhos = st.x_state_matrix([st.sample_x_params(rng).as_row() for _ in range(size)])
        else:
            rhos = np.stack([random_density(rng, 4) for _ in range(size)])
        if x_states == "mixed":  # X-states at even rows, general states at odd ones
            for k in range(1, size, 2):
                rhos[k] = random_density(rng, 4)
        stacked = dd.optimized_discord_2q(st.BipartiteState(rhos, 2, 2))
        assert len(stacked) == size
        for rho, got in zip(rhos, stacked):
            [want] = dd.optimized_discord_2q([st.BipartiteState(rho, 2, 2)])
            got, want = (np.array([r.value, r.theta, r.phi]).tobytes() for r in (got, want))
            assert got == want


#: how far the refiner, stopped once a convex Newton step can gain only
#: round-off, may end from the one that steps on while a halving lowers the
#: objective by a last bit: at most 2e-15 over 30 seeds, on rank-2 random
#: states. On rotated pure conditional states the objective at the optimum is
#: x log x of an eigenvalue that is rounding, about 1e-16, and its value
#: there scatters by 1e-14 (see GRID_TOL); both refiners reach the same point,
#: and the one that steps on keeps the luckiest of up to 40 halvings per step.
NEWTON_STOP_TOL = 4e-15


class TestNewtonRefine:
    @pytest.mark.parametrize("seed", [30, 31, 34])
    def test_round_off_stop_matches_the_refiner_that_steps_on(self, seed):
        rng = np.random.default_rng([seed, 2])
        rank_2 = np.stack([random_density(rng, 4, 2) for _ in range(40)])
        for kind, rhos in [*_grid_test_stacks(seed), ("random, rank 2", rank_2)]:
            a, b, t = dd._bloch_form(rhos)
            n_grid = dd._grid_minimizers(a, b, t)
            f_grid = dd._objective(n_grid, a, b, t)
            n, f = dd._newton_refine(n_grid, f_grid, a, b, t)
            want_n, want = reference_newton_refine(n_grid, f_grid, a, b, t)
            if kind == "pure conditional, rotated":
                assert np.max(np.abs(f - want)) <= GRID_TOL_NEAR_ZERO_EIGENVALUE
                parallel = np.abs(np.einsum("kj,kj->k", n, want_n))
                assert np.all(parallel >= 1.0 - 1e-12)
            else:
                assert np.max(np.abs(f - want)) <= NEWTON_STOP_TOL, kind
            assert np.all(f <= f_grid), kind
            assert np.max(np.abs(np.linalg.norm(n, axis=-1) - 1.0)) <= 1e-15, kind

    def test_xstate_comparison_stops_at_round_off(self, monkeypatch):
        # the refiner that stepped on made 52 objective calls here, most on
        # 1 to 3 states whose halvings could only move the last bits
        calls = []
        for name in ("_objective", "_meridian_objective"):
            def counted(*args, objective=getattr(dd, name)):
                calls.append(len(args[0]))
                return objective(*args)

            monkeypatch.setattr(dd, name, counted)
        ex.run_xstate_comparison(300, 1001)
        assert len(calls) <= 8


def _x_pool(seed, n):
    """n seeded X-state matrices, sample i drawn from ``sample_rng(seed, i)``."""
    return st.x_state_matrix(st.sample_x_params(ex.sample_rngs(seed, range(n))))


def _rows_per_path(monkeypatch):
    """Record how many rows the general grid, its refiner and the X path are given."""
    rows = dict.fromkeys(["grid", "newton", "x"], 0)
    for key, name in (("grid", "_grid_minimizers"), ("newton", "_newton_refine"),
                      ("x", "_x_minimizers")):
        def counted(*args, key=key, kernel=getattr(dd, name)):
            rows[key] += len(args[0])
            return kernel(*args)

        monkeypatch.setattr(dd, name, counted)
    return rows


def _no_x_rows(a, b, t):
    """A structure test that sends every row to the whole 32x32 half grid."""
    return np.zeros(len(a), dtype=bool)


def _result_bytes(results):
    return np.array([[r.value, r.theta, r.phi] for r in results]).tobytes()


#: how far the X path's value may lie from the general path's on X-states:
#: each stops at round-off on its own rounding of the objective. Over the
#: 4 x 5000 X-states below, 62% of the values differed, by at most 1.1e-15.
X_PATH_TOL = 2e-15
#: how far, in eps, the 40-digit objective at the X path's direction may lie
#: above the general path's: each refiner stops once a step can gain at most
#: _ROUNDOFF = 4 eps. On the same states it lay at most 3.8 eps above.
X_PATH_EXCESS = 8.0


class TestXStateMeridians:
    @pytest.mark.parametrize("seed", [7, 8, 9, 10])
    def test_x_path_matches_the_general_path(self, seed, monkeypatch):
        rhos = _x_pool(seed, 5000)
        assert dd._x_shaped(*dd._bloch_form(rhos)).all()
        state = st.BipartiteState(rhos, 2, 2)
        x_path = dd.optimized_discord_2q(state)
        monkeypatch.setattr(dd, "_x_shaped", _no_x_rows)
        general = dd.optimized_discord_2q(state)
        gap = np.array([x.value - g.value for x, g in zip(x_path, general)])
        assert np.max(np.abs(gap)) <= X_PATH_TOL
        # where the X path's float value is not above the general path's, a
        # 40-digit excess can come only from the two floats' errors, each at
        # most 2.3 eps seen on X-states (ENTROPY_BOUNDS); the rows where it is
        # above are judged at 40 digits
        with mp.workdps(40):
            for k in np.flatnonzero(gap > 0.0):
                objective = conditional_entropy_oracle(rhos[k])
                x, g = (direction(r.theta, r.phi) for r in (x_path[k], general[k]))
                excess = objective(x) - objective(g)
                assert excess / EPS <= X_PATH_EXCESS, (k, float(excess / EPS))

    def test_near_x_states_take_the_whole_half_grid(self, monkeypatch):
        rng = np.random.default_rng(35)
        x = _x_pool(35, 30)
        local = np.kron(haar(rng, 2), np.eye(2))
        perturbed = x.copy()
        perturbed[:, 0, 1] += 1e-12
        perturbed[:, 1, 0] += 1e-12
        perturbed /= np.trace(perturbed, axis1=1, axis2=2)[:, None, None]
        pauli = dd._PAULI

        def bloch(a, b, t_diag):  # positive while |a|_1 + |b|_1 + |t|_1 < 1
            terms = [np.kron(pauli[0], pauli[0])]
            for i in range(3):
                terms.append(a[i] * np.kron(pauli[i + 1], pauli[0]))
                terms.append(b[i] * np.kron(pauli[0], pauli[i + 1]))
                terms.append(t_diag[i] * np.kron(pauli[i + 1], pauli[i + 1]))
            return sum(terms) / 4.0

        def tilted(side):  # T diagonal, and only a (side 0) or only b (1) off z
            v = [rng.uniform(-0.15, 0.15, 3) for _ in range(3)]
            v[1 - side][:2] = 0.0
            return bloch(*v)

        stacks = {
            "X under a unitary on A": local @ x @ local.conj().T,
            "X plus 1e-12 off the X": perturbed,
            "Ginibre": np.stack([random_density(rng, 4) for _ in range(30)]),
            "T diagonal, a off z": np.stack([tilted(0) for _ in range(30)]),
            "T diagonal, b off z": np.stack([tilted(1) for _ in range(30)]),
        }
        for kind, rhos in stacks.items():
            state = st.BipartiteState(rhos, 2, 2)
            with monkeypatch.context() as m:
                rows = _rows_per_path(m)
                got = dd.optimized_discord_2q(state)
            assert rows == {"grid": len(rhos), "newton": len(rhos), "x": 0}, kind
            with monkeypatch.context() as m:
                m.setattr(dd, "_x_shaped", _no_x_rows)
                assert _result_bytes(got) == _result_bytes(dd.optimized_discord_2q(state)), kind

    def test_optimum_inside_a_meridian_matches_a_fine_scan(self):
        # about 1 in 4000 uniform X-states has its least direction off both the
        # poles and the equator (Lu et al. 2011; Huang, PRA 88, 014302 (2013))
        rhos = np.concatenate([_x_pool(seed, 15000) for seed in (40, 41)])
        results = dd.optimized_discord_2q(st.BipartiteState(rhos, 2, 2))
        theta = np.array([r.theta for r in results])
        theta = np.minimum(theta, math.pi - theta)
        inside = np.flatnonzero((theta > 1e-3) & (theta < math.pi / 2 - 1e-3))
        assert len(inside) >= 5
        state = st.BipartiteState(rhos[inside], 2, 2)
        a, b, t = dd._bloch_form(state.rho)
        base = spectrum_entropy(state.marginal_eig.eigenvalues) - state.entropy
        th = np.linspace(0.0, math.pi, 4001)
        sin, cos, zero = np.sin(th), np.cos(th), np.zeros_like(th)
        xz, yz = np.stack([sin, zero, cos], axis=-1), np.stack([zero, sin, cos], axis=-1)
        for k, i in enumerate(inside):
            row = (np.repeat(x[k : k + 1], 2 * len(th), axis=0) for x in (a, b, t))
            scan = dd._objective(np.concatenate([xz, yz]), *row).reshape(2, -1)
            least = base[k] + scan.min()
            rise = np.abs(np.diff(scan, axis=1)).max()
            assert results[i].value <= least + 1e-12
            assert results[i].value >= least - rise

    def test_xstate_comparison_takes_only_the_x_path(self, monkeypatch):
        # fails if _bloch_form or x_state_matrix ever stop giving exact zeros
        rows = _rows_per_path(monkeypatch)
        ex.run_xstate_comparison(300, 1001)
        assert rows == {"grid": 0, "newton": 0, "x": 300}


def _bell_diagonal(c):
    """(I + sum_i c_i sigma_i (x) sigma_i) / 4."""
    terms = (ci * np.kron(dd._PAULI[i + 1], dd._PAULI[i + 1]) for i, ci in enumerate(c))
    return (np.eye(4) + sum(terms)) / 4.0


def _luo_discord(c):
    """Luo's closed form (PRA 77, 042303 (2008)) for a Bell-diagonal state:
    I - C with C = sum_+- (1 +- m)/2 log2(1 +- m), m = max |c_i|."""
    lam = [(1 - c[0] - c[1] - c[2]) / 4, (1 - c[0] + c[1] + c[2]) / 4,
           (1 + c[0] - c[1] + c[2]) / 4, (1 + c[0] + c[1] - c[2]) / 4]
    m = max(abs(x) for x in c)
    classical = sum((1 + s) / 2 * math.log2(1 + s) for s in (m, -m) if 1 + s > 0)
    return 2 + sum(x * math.log2(x) for x in lam if x > 0) - classical


def _diagonal(*p):
    return np.diag(np.array(p, dtype=complex))


def _edge_x_states(rng, n=8):
    """X-shaped edge cases by kind, as (kind, (k, 4, 4) matrices)."""
    p, q, r = (rng.uniform(0.05, 0.95, n) for _ in range(3))
    products = [np.kron(_diagonal(x, 1 - x), _diagonal(y, 1 - y)) for x, y in zip(p, q)]
    products += [np.kron(np.eye(2) / 2, _diagonal(y, 1 - y)) for y in q]
    products += [np.kron(_diagonal(x, 1 - x), np.eye(2) / 2) for x in p] + [np.eye(4) / 4]
    classical = [
        x * np.kron(_diagonal(1, 0), _diagonal(y, 1 - y))
        + (1 - x) * np.kron(_diagonal(0, 1), _diagonal(z, 1 - z))
        for x, y, z in zip(p, q, r)
    ]
    return [
        ("product", np.stack(products)),
        ("classical", np.stack(classical)),
        ("pure conditional", pure_conditional_stack(3 * n, 23)[[i for i in range(3 * n) if i % 3]]),
        ("bell diagonal", np.stack([_bell_diagonal(c) for c in BELL_DIAGONAL]).astype(complex)),
        ("sampled", _x_pool(24, n)),
    ]


#: Bell-diagonal correlations (c_1, c_2, c_3), with ties between the largest |c_i|
BELL_DIAGONAL = [
    (0.3, -0.2, 0.1), (0.1, 0.6, 0.2), (-0.1, 0.05, 0.7), (0.4, 0.4, 0.1), (0.4, -0.4, 0.1),
    (0.3, 0.1, 0.3), (0.1, -0.3, 0.3), (0.3, 0.3, 0.3), (-0.3, -0.3, -0.3), (-0.5, 0.5, 0.5),
    (1.0, -1.0, 1.0), (0.2, 0.0, 0.0), (0.0, 0.0, 0.0), (0.9, 0.05, -0.05),
]


class TestXMinimizers:
    def test_bell_diagonal_states_match_luos_closed_form(self):
        rng = np.random.default_rng(25)
        cs = list(BELL_DIAGONAL)
        while len(cs) < 40:
            c = tuple(rng.uniform(-1.0, 1.0, 3))
            if np.linalg.eigvalsh(_bell_diagonal(c)).min() >= 0.0:
                cs.append(c)
        rhos = np.stack([_bell_diagonal(c) for c in cs]).astype(complex)
        for c, res in zip(cs, dd.optimized_discord_2q(st.BipartiteState(rhos, 2, 2))):
            assert abs(res.value - _luo_discord(c)) <= 1e-14, c

    def test_edge_cases(self):
        kinds = dict(_edge_x_states(np.random.default_rng(26)))
        for kind, rhos in kinds.items():
            a, b, t = dd._bloch_form(rhos)
            assert dd._x_shaped(a, b, t).all(), kind
            n, f = dd._x_minimizers(a, b, t)
            assert np.all(np.isfinite(f)) and np.all(np.isfinite(n)), kind
            assert np.max(np.abs(np.linalg.norm(n, axis=-1) - 1.0)) <= 1e-15, kind
        # products have a flat objective, S(rho_B), and no discord
        product = dd.optimized_discord_2q(st.BipartiteState(kinds["product"], 2, 2))
        assert max(r.value for r in product) <= 1e-15
        # classical states are least at the pole, where B's conditional states are diagonal
        classical = kinds["classical"]
        n, _ = dd._x_minimizers(*dd._bloch_form(classical))
        assert np.all(n == [0.0, 0.0, 1.0])
        classical = dd.optimized_discord_2q(st.BipartiteState(classical, 2, 2))
        assert max(r.value for r in classical) <= 1e-15
        # pure conditional rows: p|00><00| + (1 - p)|11><11| has no discord, and
        # sqrt(p)|00> + sqrt(1 - p)|11> the entanglement entropy h(p)
        rhos = kinds["pure conditional"]
        for rho, res in zip(rhos, dd.optimized_discord_2q(st.BipartiteState(rhos, 2, 2))):
            p = rho[0, 0].real
            want = 0.0 if rho[0, 3] == 0 else -p * math.log2(p) - (1 - p) * math.log2(1 - p)
            assert abs(res.value - want) <= 1e-14

    def test_rows_equal_single_state_calls(self):
        rhos = np.concatenate([x for _, x in _edge_x_states(np.random.default_rng(27))])
        a, b, t = dd._bloch_form(rhos)
        n, f = dd._x_minimizers(a, b, t)
        for k in range(len(rhos)):
            row_n, row_f = dd._x_minimizers(a[k : k + 1], b[k : k + 1], t[k : k + 1])
            assert row_n.tobytes() == n[k : k + 1].tobytes()
            assert row_f.tobytes() == f[k : k + 1].tobytes()
        empty_n, empty_f = dd._x_minimizers(a[:0], b[:0], t[:0])
        assert empty_n.shape == (0, 3) and empty_f.shape == (0,)


class TestOptimizedDiscord:
    def test_arrays_equal_the_result_objects(self):
        rng = np.random.default_rng(27)
        rhos = [random_density(rng, 4) for _ in range(4)]
        rhos += [st.x_state_from_params(st.sample_x_params(rng)).rho for _ in range(4)]
        states = st.BipartiteState(np.stack(rhos), 2, 2)
        results = dd.optimized_discord_2q(states)
        for got, name in zip(dd._optimized_2q(states), ("value", "theta", "phi")):
            want = np.array([getattr(r, name) for r in results])
            assert got.tobytes() == want.tobytes()

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
        with pytest.raises(OutOfDomain):  # c / gap overflows: the argument is inf * 0
            dd.continuity_bound(2, 2, 5e-324, 0.0)
        for bound in (dd.continuity_bound, dd.schatten_continuity_bound):
            for args in [(2, 2, 0.0, 1e-3), (2, 2, 0.5, -1e-3), (2, 2, math.nan, 1e-3),
                         (2, 2, 0.5, math.nan), (0, 2, 0.1, 1e-3), (1, 1, 0.5, 1e-3)]:
                with pytest.raises(OutOfDomain):
                    bound(*args)

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
                dd.generalized_discord(ps, 2) - dd.generalized_discord(s, 2)
            )
            assert s2_change <= dd.schatten_continuity_bound(2, 2, dec.min_gap, eps)
            checked += 1
