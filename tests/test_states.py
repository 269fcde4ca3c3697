import math

import numpy as np
import pytest

from diagdiscord import linalg as la
from diagdiscord import states as st
from diagdiscord.errors import (
    DimensionMismatch,
    InvalidBasis,
    InvalidDistribution,
    InvalidRank,
    NotDensityMatrix,
    NotPositiveSemidefinite,
    OutOfDomain,
    OutOfRange,
    ParseError,
)
from helpers import (
    bell_state,
    conjugate_a,
    haar,
    random_density,
    random_state,
    reference_sample_x_params,
    reference_x_candidate_ok,
)


class TestBipartiteState:
    def test_valid_construction(self):
        s = st.BipartiteState(np.eye(4) / 4, 2, 2)
        assert s.dim == 4
        assert not s.rho.flags.writeable

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            st.BipartiteState(np.eye(4) / 4, 2, 3)

    def test_invalid_trace(self):
        with pytest.raises(NotDensityMatrix):
            st.BipartiteState(np.eye(4), 2, 2)

    def test_not_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.5
        with pytest.raises(NotDensityMatrix):
            st.BipartiteState(m, 2, 2)

    def test_negative_eigenvalue(self):
        with pytest.raises(NotDensityMatrix):
            st.BipartiteState(np.diag([0.6, 0.6, -0.1, -0.1]), 2, 2)

    def test_a_handed_in_spectrum_is_still_checked(self):
        # the dephasing maps hand in their block spectrum; every check but the eigensolve runs
        rho = np.eye(4) / 4
        with pytest.raises(NotDensityMatrix, match="negative eigenvalue"):
            st.BipartiteState(rho, 2, 2, _spectrum=np.array([-0.1, 0.3, 0.4, 0.4]))
        with pytest.raises(NotDensityMatrix, match="trace"):
            st.BipartiteState(rho, 2, 2, _spectrum=np.full(4, 0.3))
        with pytest.raises(NotDensityMatrix, match="trace"):
            st.MultipartiteState(rho, (2, 2), _spectrum=np.full(4, 0.3))
        m = rho.astype(complex)
        m[0, 1] = 0.5
        with pytest.raises(NotDensityMatrix, match="not Hermitian"):
            st.BipartiteState(m, 2, 2, _spectrum=np.full(4, 0.25))
        with pytest.raises(DimensionMismatch):
            st.BipartiteState(rho, 2, 2, _spectrum=np.full(3, 1 / 3))
        kept = st.BipartiteState(rho, 2, 2, _spectrum=np.full(4, 0.25))
        assert np.array_equal(kept.spectrum, np.full(4, 0.25))
        assert not kept.spectrum.flags.writeable


class TestPartialTrace:
    def test_product_state_returns_left_factor(self):
        rng = np.random.default_rng(0)
        a = random_density(rng, 3)
        b = random_density(rng, 2)
        s = st.BipartiteState(np.kron(a, b), 3, 2)
        assert np.max(np.abs(st.partial_trace_b(s) - a)) <= 1e-14
        assert np.max(np.abs(st.partial_trace_a(s) - b)) <= 1e-14

    def test_bell_marginals(self):
        s = bell_state()
        assert np.max(np.abs(st.partial_trace_b(s) - np.eye(2) / 2)) <= 1e-15
        assert np.max(np.abs(st.partial_trace_a(s) - np.eye(2) / 2)) <= 1e-15

    def test_classical_quantum_marginal(self):
        rng = np.random.default_rng(1)
        probs = np.array([0.2, 0.5, 0.3])
        sigmas = [random_density(rng, 2) for _ in range(3)]
        s = st.classical_quantum_state(probs, np.eye(3), sigmas)
        assert np.max(np.abs(st.partial_trace_b(s) - np.diag(probs))) <= 1e-12

    def test_trace_preserved(self):
        rng = np.random.default_rng(2)
        s = random_state(rng, 2, 3)
        assert np.trace(st.partial_trace_b(s)).real == pytest.approx(1.0)

    def test_raw_helpers_check_shapes(self):
        with pytest.raises(DimensionMismatch):
            st.ptrace_b(np.eye(4) / 4, 2, 3)
        with pytest.raises(DimensionMismatch):
            st.ptrace_a(np.eye(6) / 6, 2, 2)


class TestASideKernels:
    """The A-side kernels against Kronecker-product forms written out here."""

    @pytest.mark.parametrize("d_a", [2, 3, 4])
    @pytest.mark.parametrize("d_b", [1, 2, 3])
    def test_conjugate_a_equals_kron_conjugation(self, d_a, d_b):
        # conjugate_a is the test suite's reference lift (tests/helpers.py)
        rng = np.random.default_rng(60 + 10 * d_a + d_b)
        rho = random_density(rng, d_a * d_b)
        op = rng.normal(size=(d_a, d_a)) + 1j * rng.normal(size=(d_a, d_a))
        lift = np.kron(op, np.eye(d_b))
        expected = lift @ rho @ lift.conj().T
        assert np.max(np.abs(conjugate_a(op, rho, d_a, d_b) - expected)) <= 1e-13

    @pytest.mark.parametrize("d_a", [2, 3, 4])
    @pytest.mark.parametrize("d_b", [1, 2, 3])
    @pytest.mark.parametrize("columns", ["all", "all but one"])
    def test_blocks_round_trip_equals_projector_sum(self, d_a, d_b, columns):
        rng = np.random.default_rng(80 + 10 * d_a + d_b)
        rho = random_density(rng, d_a * d_b)
        basis = haar(rng, d_a)
        if columns == "all but one":
            basis = basis[:, :-1]
        projectors = [np.kron(np.outer(v, v.conj()), np.eye(d_b)) for v in basis.T]
        expected = sum(p @ rho @ p for p in projectors)
        out = st.from_blocks_a(basis, st.blocks_a(rho, d_a, d_b, basis))
        assert np.max(np.abs(out - expected)) <= 1e-13


class TestSU4Generators:
    def test_orthogonality_all_pairs(self):
        for i, a in enumerate(st.SU4_GENERATORS):
            for j, b in enumerate(st.SU4_GENERATORS):
                want = 2.0 if i == j else 0.0
                assert np.trace(a @ b).real == pytest.approx(want, abs=1e-14)

    def test_traceless_hermitian(self):
        for g in st.SU4_GENERATORS:
            assert abs(np.trace(g)) <= 1e-15
            assert np.max(np.abs(g - g.conj().T)) <= 1e-15


class TestXState:
    def test_zero_bloch_vector_is_maximally_mixed(self):
        s = st.x_state_from_params(st.XStateParams(0, 0, 0, 0))
        assert np.array_equal(s.rho, np.eye(4) / 4)

    def test_r9_puts_weight_on_corners(self):
        r9 = 0.2
        s = st.x_state_from_params(st.XStateParams(0, 0, r9, 0))
        expected = np.eye(4, dtype=complex) / 4
        expected[0, 3] = expected[3, 0] = math.sqrt(6) * r9 / 4
        assert np.max(np.abs(s.rho - expected)) <= 1e-15

    def test_entries_match_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = st.sample_x_params(rng)
            m = st.x_state_from_params(p).rho
            s2, s6 = math.sqrt(2), math.sqrt(6)
            assert m[0, 0].real == pytest.approx((1 + 4 * s2 * p.r8 + p.r15) / 4, abs=1e-14)
            assert m[1, 1].real == pytest.approx((1 - 2 * s2 * p.r8 + p.r15) / 4, abs=1e-14)
            assert m[2, 2].real == pytest.approx(m[1, 1].real, abs=1e-15)
            assert m[3, 3].real == pytest.approx((1 - 3 * p.r15) / 4, abs=1e-14)
            assert m[0, 3].real == pytest.approx(s6 * p.r9 / 4, abs=1e-14)
            assert m[1, 2].real == pytest.approx(s6 * p.r6 / 4, abs=1e-14)
            assert np.max(np.abs(m.imag)) == 0.0
            assert np.trace(m).real == pytest.approx(1.0, abs=1e-14)

    def test_not_psd_raises(self):
        with pytest.raises(NotPositiveSemidefinite):
            st.x_state_from_params(st.XStateParams(0, 0, 0, 0.9))

    def test_not_psd_row_of_a_stack_raises_naming_it(self):
        rows = np.array([[0, 0, 0.2, 0], [0, 0, 0, 0.9], [0, 0, 0, 0]])
        with pytest.raises(NotPositiveSemidefinite, match="state row 1 has negative"):
            st.x_state_from_params(rows)
        stack = st.x_state_from_params(rows[[0, 2]])
        assert len(stack) == 2
        assert np.array_equal(stack.rho[1], np.eye(4) / 4)

    def test_params_out_of_range(self):
        with pytest.raises(OutOfRange):
            st.XStateParams(1.5, 0, 0, 0)
        with pytest.raises(OutOfRange):
            st.XStateParams(0.9, 0.5, 0.9, 0.0)

    def test_bloch_roundtrip(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = st.sample_x_params(rng)
            r = st.bloch_vector(st.x_state_from_params(p).rho)
            assert r[5] == pytest.approx(p.r6, abs=1e-12)
            assert r[7] == pytest.approx(p.r8, abs=1e-12)
            assert r[8] == pytest.approx(p.r9, abs=1e-12)
            assert r[14] == pytest.approx(p.r15, abs=1e-12)
            assert r[2] == pytest.approx(math.sqrt(3) * p.r8, abs=1e-12)
            others = [r[i] for i in range(15) if i not in (2, 5, 7, 8, 14)]
            assert np.max(np.abs(others)) <= 1e-12


class TestXStateSampler:
    def test_samples_are_valid_states(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            s = st.sample_x_state(rng)
            assert isinstance(s, st.BipartiteState)

    def test_deterministic_for_seed(self):
        a = st.sample_x_params(np.random.default_rng(6))
        b = st.sample_x_params(np.random.default_rng(6))
        assert a == b

    def test_blocks_give_the_one_candidate_at_a_time_stream(self):
        # parameters, attempt counts and the generator's next draw all equal
        # those of the written-out scalar loop, over three samples per seed
        for seed in range(1000):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                assert st.sample_x_params(rng, return_attempts=True) == (
                    reference_sample_x_params(ref)
                )
            assert rng.random() == ref.random()

    @pytest.mark.parametrize("stack", [1024, 7])
    def test_stacked_blocks_give_each_generators_own_stream(self, stack, monkeypatch):
        # row i, its attempt count and generator i's final state equal those
        # of the written-out scalar loop on generator i alone; 6 of these 100
        # samples accept no candidate of their first block
        monkeypatch.setattr(st, "_X_PARAMS_STACK", stack)
        rngs = [np.random.default_rng([40, i]) for i in range(100)]
        refs = [np.random.default_rng([40, i]) for i in range(100)]
        params, attempts = st.sample_x_params(rngs, return_attempts=True)
        assert params.shape == (100, 4)
        assert np.sum(attempts > st._X_PARAMS_BLOCK) >= 1
        for row, n, rng, ref in zip(params, attempts, rngs, refs):
            want, want_n = reference_sample_x_params(ref)
            assert tuple(row) == want.as_row()
            assert n == want_n
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_candidate_test_equals_the_scalar_predicate(self):
        # 10^5 uniform rows, and rows on each boundary: a Bloch-ball sum of
        # exactly 1.0, b == |z|, a d == w^2 (r = 0.4082482904638631 gives
        # sqrt6 r / 4 == 0.25 exactly) and d == 0
        r = 0.4082482904638631
        edges = np.array([
            [0.0, 0.0, 0.0, -1.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0],
            [0.5, 0.25, 0.5, -0.5], [r, 0.0, 0.0, 0.0], [-r, 0.0, 0.0, 0.0],
            [0.0, 0.0, r, 0.0], [r, 0.0, -r, 0.0], [0.0, 0.0, 0.0, 1.0 / 3.0],
            [-0.0, -0.0, -0.0, -0.0],
        ])
        assert math.sqrt(6.0) * r / 4.0 == 0.25 and 1.0 - 3.0 * (1.0 / 3.0) == 0.0
        rows = np.concatenate([np.random.default_rng(42).uniform(-1, 1, (10**5, 4)), edges])
        got = st._x_candidate_ok(rows)
        want = np.array([reference_x_candidate_ok(*row) for row in rows])
        assert np.array_equal(got, want)
        assert got[-len(edges):].tolist() == [
            True, False, False, False, True, True, True, True, True, True
        ]

    def test_short_final_block_gives_each_generators_own_stream(self, monkeypatch):
        # a budget of 100 in blocks of 64 ends in a block of 36; the chosen
        # samples accept within the budget, some only in that last block, and
        # one that accepts at 101 .. 128 must run out, not draw a full block
        need = {i: reference_sample_x_params(np.random.default_rng([41, i]))[1] for i in range(60)}
        chosen = [i for i in need if need[i] <= 100]
        beyond = next(i for i in need if 100 < need[i] <= 128)
        monkeypatch.setattr(st, "X_PARAMS_BUDGET", 100)
        monkeypatch.setattr(st, "_X_PARAMS_BLOCK", 64)
        with pytest.raises(OutOfDomain, match="valid X-state"):
            st.sample_x_params([np.random.default_rng([41, beyond])])
        rngs = [np.random.default_rng([41, i]) for i in chosen]
        refs = [np.random.default_rng([41, i]) for i in chosen]
        params, attempts = st.sample_x_params(rngs, return_attempts=True)
        assert np.sum(attempts > 64) >= 1
        for row, n, rng, ref in zip(params, attempts, rngs, refs):
            want, want_n = reference_sample_x_params(ref)
            assert tuple(row) == want.as_row()
            assert n == want_n
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_stacked_exhausted_budget_raises(self, monkeypatch):
        monkeypatch.setattr(st, "_x_candidate_ok", lambda r: np.zeros(len(r), dtype=bool))
        with pytest.raises(OutOfDomain, match="valid X-state"):
            st.sample_x_params([np.random.default_rng(i) for i in range(3)])

    def test_r6_r9_means_vanish_by_symmetry(self):
        # the acceptance region is invariant under r6 -> -r6 and r9 -> -r9
        rng = np.random.default_rng(7)
        n = 4000
        vals = np.array([(p.r6, p.r9) for p in (st.sample_x_params(rng) for _ in range(n))])
        sd = vals.std(axis=0) / math.sqrt(n)
        assert abs(vals[:, 0].mean()) <= 4 * sd[0]
        assert abs(vals[:, 1].mean()) <= 4 * sd[1]

    def test_r8_r15_means_match_brute_force(self):
        # r8 and r15 have skewed marginals; compare against an independent
        # vectorized Monte-Carlo of the acceptance region at 4 sigma
        rng = np.random.default_rng(30)
        n = 4000
        lib = np.array(
            [(p.r8, p.r15) for p in (st.sample_x_params(rng) for _ in range(n))]
        )

        rng2 = np.random.default_rng(31)
        r = rng2.uniform(-1, 1, size=(300_000, 4))
        inside = r[:, 0] ** 2 + 4 * r[:, 1] ** 2 + r[:, 2] ** 2 + r[:, 3] ** 2 <= 1
        r = r[inside]
        s2, s6 = math.sqrt(2), math.sqrt(6)
        m = np.zeros((len(r), 4, 4))
        m[:, 0, 0] = (1 + 4 * s2 * r[:, 1] + r[:, 3]) / 4
        m[:, 1, 1] = m[:, 2, 2] = (1 - 2 * s2 * r[:, 1] + r[:, 3]) / 4
        m[:, 3, 3] = (1 - 3 * r[:, 3]) / 4
        m[:, 0, 3] = m[:, 3, 0] = s6 * r[:, 2] / 4
        m[:, 1, 2] = m[:, 2, 1] = s6 * r[:, 0] / 4
        orc = r[np.linalg.eigvalsh(m)[:, 0] >= 0][:, [1, 3]]

        for k in range(2):
            sigma = math.sqrt(lib[:, k].var() / n + orc[:, k].var() / len(orc))
            assert abs(lib[:, k].mean() - orc[:, k].mean()) <= 4 * sigma


class TestRandomBipartite:
    def test_rank_one_is_pure(self):
        from diagdiscord.linalg import von_neumann_entropy

        rng = np.random.default_rng(8)
        for _ in range(20):
            s = st.sample_random_bipartite(rng, 2, 2, 1)
            assert von_neumann_entropy(s.rho) <= 1e-10

    def test_invalid_rank(self):
        rng = np.random.default_rng(9)
        with pytest.raises(InvalidRank):
            st.sample_random_bipartite(rng, 2, 2, 5)
        with pytest.raises(InvalidRank):
            st.sample_random_bipartite(rng, 2, 2, 0)

    def test_outputs_valid(self):
        rng = np.random.default_rng(10)
        for rank in (1, 2, 4):
            s = st.sample_random_bipartite(rng, 2, 2, rank)
            assert isinstance(s, st.BipartiteState)

    def test_mean_purity_matches_independent_oracle(self):
        # library sampler vs a vectorized re-implementation of the Ginibre
        # construction, compared at 4 sigma
        rng = np.random.default_rng(11)
        n_lib = 1000
        purity_lib = np.array(
            [
                float(np.trace(s.rho @ s.rho).real)
                for s in (st.sample_random_bipartite(rng, 2, 2, 4) for _ in range(n_lib))
            ]
        )
        rng2 = np.random.default_rng(12)
        n_orc = 100_000
        g = rng2.normal(size=(n_orc, 4, 4)) + 1j * rng2.normal(size=(n_orc, 4, 4))
        rho = np.einsum("nij,nkj->nik", g, g.conj())
        rho /= np.trace(rho, axis1=1, axis2=2)[:, None, None].real
        purity_orc = np.real(np.einsum("nij,nji->n", rho, rho))
        sigma = math.sqrt(
            purity_lib.var() / n_lib + purity_orc.var() / n_orc
        )
        assert abs(purity_lib.mean() - purity_orc.mean()) <= 4 * sigma


    @pytest.mark.parametrize("d_a, d_b, rank", [(2, 2, 4), (3, 2, 6), (4, 3, 5), (3, 1, 1)])
    def test_stack_draws_what_one_at_a_time_calls_draw(self, d_a, d_b, rank):
        rng, twin = np.random.default_rng(13), np.random.default_rng(13)
        stack = st.sample_random_bipartite(rng, d_a, d_b, rank, size=7)
        for row in stack.rho:
            assert np.array_equal(row, st.sample_random_bipartite(twin, d_a, d_b, rank).rho)
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("d_a, d_b, tol", [(3, 2, 0.1), (4, 2, 0.05)])
    def test_nondegenerate_stack_redraws_as_one_at_a_time_calls(
        self, d_a, d_b, tol, monkeypatch
    ):
        # a high degeneracy tolerance flags about a third of the draws
        monkeypatch.setattr(la, "DEGENERACY_TOL", tol)
        rng, twin = np.random.default_rng(14), np.random.default_rng(14)
        stack, rejected = st.sample_nondegenerate(rng, d_a, d_b, size=12)
        rows = [st.sample_nondegenerate(twin, d_a, d_b) for _ in range(12)]
        assert np.array_equal(stack.rho, np.stack([s.rho for s, _ in rows]))
        assert not stack.marginal_eig.degenerate.any()
        assert rejected == sum(r for _, r in rows) > 0
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_nondegenerate_stack_keeps_the_budget_per_state(self):
        # a pure state on 3 x 1 has the degenerate marginal spectrum (0, 0, 1);
        # 3 and 7 do not divide the budget, so a block that did not stop at
        # the budget left would draw past the one-at-a-time loop's last draw
        for size in (4, 3, 7):
            rng, twin = np.random.default_rng(15), np.random.default_rng(15)
            with pytest.raises(OutOfDomain, match="all 1000 sampled"):
                st.sample_nondegenerate(rng, 3, 1, 1, size=size)
            with pytest.raises(OutOfDomain, match="all 1000 sampled"):
                st.sample_nondegenerate(twin, 3, 1, 1)
            assert rng.bit_generator.state == twin.bit_generator.state


class TestClassicalQuantum:
    def test_single_term_is_product(self):
        rng = np.random.default_rng(13)
        sigma = random_density(rng, 2)
        s = st.classical_quantum_state([1.0], np.eye(2)[:, :1], [sigma])
        expected = np.kron(np.diag([1.0, 0.0]), sigma)
        assert np.max(np.abs(s.rho - expected)) <= 1e-14

    def test_two_projector_terms_are_diagonal(self):
        s = st.classical_quantum_state(
            [0.4, 0.6], np.eye(2), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        )
        assert np.max(np.abs(s.rho - np.diag([0.4, 0.0, 0.0, 0.6]))) <= 1e-15

    def test_fixed_point_of_dephasing(self):
        from diagdiscord.discord import pi_a

        rng = np.random.default_rng(14)
        s = st.classical_quantum_state(
            [0.7, 0.3], np.eye(2), [random_density(rng, 2) for _ in range(2)]
        )
        res = pi_a(s)
        assert np.max(np.abs(res.dephased.rho - s.rho)) <= 1e-12

    def test_invalid_distribution(self):
        with pytest.raises(InvalidDistribution):
            st.classical_quantum_state([0.5, 0.6], np.eye(2), [np.eye(2) / 2] * 2)

    def test_non_orthonormal_basis(self):
        basis = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(InvalidBasis):
            st.classical_quantum_state([0.5, 0.5], basis, [np.eye(2) / 2] * 2)


class TestSerialization:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(15)
        s = random_state(rng, 2, 3)
        path = tmp_path / "state.txt"
        st.save_state(s, path)
        loaded = st.load_state(path)
        assert isinstance(loaded, st.BipartiteState)
        assert loaded.dim_a == 2 and loaded.dim_b == 3
        assert np.array_equal(loaded.rho, s.rho)

    def test_multipartite_roundtrip(self, tmp_path):
        rng = np.random.default_rng(16)
        m = st.MultipartiteState(random_density(rng, 8), (2, 2, 2))
        path = tmp_path / "multi.txt"
        st.save_state(m, path)
        loaded = st.load_state(path)
        assert isinstance(loaded, st.MultipartiteState)
        assert loaded.dims == (2, 2, 2)
        assert np.array_equal(loaded.rho, m.rho)

    def test_missing_header(self):
        with pytest.raises(ParseError):
            st.state_from_text("1 0 0 0\n")

    @pytest.mark.parametrize("header", ["dims -1 2", "dims 0 2", "dims -1 -2", "dims 2 0"])
    def test_dimension_below_1_is_rejected_before_any_row(self, header):
        with pytest.raises(ParseError, match=f"bad dims header '{header}'"):
            st.state_from_text(header + "\n0.5 0 0 0\n0 0 0.5 0\n")

    def test_wrong_field_count(self):
        with pytest.raises(ParseError):
            st.state_from_text("dims 2 2\n1 0\n")

    def test_trailing_rows_are_rejected(self):
        text = "dims 1 2\n0.5 0 0 0\n0 0 0.5 0\n1 0 0 0\n"
        with pytest.raises(ParseError, match="trailing data after the 2 state rows: '1 0 0 0'"):
            st.state_from_text(text)
        written = st.state_to_text(st.BipartiteState(np.eye(2) / 2.0, 1, 2))
        assert np.array_equal(st.state_from_text(written + "\n\n").rho, np.eye(2) / 2.0)

    def test_bad_number(self):
        text = st.state_to_text(bell_state()).replace("0.5", "zap", 1)
        with pytest.raises(ParseError):
            st.state_from_text(text)
