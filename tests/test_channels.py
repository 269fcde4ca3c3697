import math

import numpy as np
import pytest

from diagdiscord import channels as ch
from diagdiscord import discord as dd
from diagdiscord import linalg as la
from diagdiscord import states as st
from diagdiscord.errors import (
    DegenerateOutput,
    DimensionMismatch,
    InvalidChannel,
    InvalidDistribution,
    NotPositiveSemidefinite,
    OutOfRange,
)
from helpers import (
    bell_state,
    haar,
    random_density,
    random_state,
    reference_commutes_with_pi,
    reference_dephase_a,
    reference_is_discord_nongenerating,
    reference_lift_a,
    reference_qubit_mu_commuting_condition,
    scan_cases,
    scan_channel,
)

# Lemma-1 violation of the probabilistic Hadamard in the computational
# basis: (sqrt5 - 1)/(3 N) with N = 1 + ((sqrt5 - 1)/2)^2, i.e. 2/(3 sqrt5)
PROB_HADAMARD_VIOLATION = (math.sqrt(5) - 1) / (
    3 * (1 + ((math.sqrt(5) - 1) / 2) ** 2)
)


class TestConstructors:
    def test_kraus_completeness_enforced(self):
        with pytest.raises(InvalidChannel):
            ch.KrausChannel((np.eye(2) * 0.5,))

    def test_mixed_unitary_distribution(self):
        with pytest.raises(InvalidDistribution):
            ch.MixedUnitaryChannel(np.array([0.5, 0.6]), (np.eye(2), np.eye(2)))

    def test_mixed_unitary_rejects_nonunitary(self):
        with pytest.raises(InvalidChannel):
            ch.MixedUnitaryChannel(np.array([1.0]), (np.diag([1.0, 2.0]),))

    def test_isotropic_gamma_range(self):
        with pytest.raises(OutOfRange):
            ch.IsotropicChannel(1.5, np.eye(2))

    def test_semiclassical_basis_checked(self):
        with pytest.raises(InvalidChannel):
            ch.SemiclassicalChannel(
                np.array([[1.0, 1.0], [0.0, 0.0]]), ch.amplitude_damping(0.1)
            )

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda nan: ch.KrausChannel((np.eye(2) * nan,)), InvalidChannel, "K_0 has"),
            (lambda nan: ch.MixedUnitaryChannel([1.0], (np.eye(2) * nan,)), InvalidChannel, "U_0 has"),
            (lambda nan: ch.MixedUnitaryChannel([nan], (np.eye(2),)), InvalidDistribution, r"probs \[nan\] is not"),
            (lambda nan: ch.IsotropicChannel(0.5, np.eye(2) * nan), InvalidChannel, "W has"),
            (
                lambda nan: ch.IsotropicChannel(0.5, np.eye(2), True, np.eye(2) * nan),
                InvalidChannel,
                "transpose basis has",
            ),
            (
                lambda nan: ch.SemiclassicalChannel(np.eye(2) * nan, ch.amplitude_damping(0.1)),
                InvalidChannel,
                "preferred basis has",
            ),
        ],
        ids=["kraus", "mu-unitary", "mu-probability", "iso-w", "iso-transpose-basis", "sc-basis"],
    )
    def test_non_finite_entries_rejected(self, build, error, message):
        # NaN passes a "deviation > tolerance" test, so it is checked apart
        with pytest.raises(error, match=message):
            build(math.nan)

    def test_kraus_completeness_after_every_constructor(self):
        rng = np.random.default_rng(0)
        for channel in (
            ch.random_mixed_unitary(rng, 3),
            ch.random_kraus_channel(rng, 3),
        ):
            total = sum(k.conj().T @ k for k in channel.kraus_ops())
            assert np.max(np.abs(total - np.eye(3))) <= 1e-10


class TestApply:
    def test_identity_mixed_unitary(self):
        rng = np.random.default_rng(1)
        rho = random_density(rng, 2)
        channel = ch.MixedUnitaryChannel(np.array([1.0]), (np.eye(2, dtype=complex),))
        assert np.max(np.abs(channel.apply(rho) - rho)) <= 1e-15

    def test_completely_depolarizing(self):
        rng = np.random.default_rng(2)
        rho = random_density(rng, 3)
        channel = ch.IsotropicChannel(1.0, np.eye(3, dtype=complex))
        assert np.max(np.abs(channel.apply(rho) - np.eye(3) / 3)) <= 1e-12

    def test_probabilistic_hadamard_on_zero(self):
        channel = ch.probabilistic_hadamard()
        got = channel.apply(np.diag([1.0, 0.0]).astype(complex))
        expected = np.array([[2 / 3, 1 / 3], [1 / 3, 1 / 3]])
        assert np.max(np.abs(got - expected)) <= 1e-15

    @pytest.mark.parametrize(
        "maker",
        [
            lambda rng: ch.random_mixed_unitary(rng, 2),
            lambda rng: ch.random_isotropic(rng, 2),
            lambda rng: ch.random_kraus_channel(rng, 2),
            lambda rng: ch.random_semiclassical(rng, 2),
        ],
        ids=["mu", "iso", "kraus", "sc"],
    )
    def test_preserves_trace_and_positivity(self, maker):
        rng = np.random.default_rng(3)
        for _ in range(10):
            channel = maker(rng)
            for _ in range(25):
                rho = random_density(rng, 2)
                out = channel.apply(rho)
                assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
                assert np.linalg.eigvalsh(out)[0] >= -1e-12

    def test_antiunitary_transpose_action(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng, 2)
        channel = ch.IsotropicChannel(
            0.0, np.eye(2, dtype=complex), antiunitary=True
        )
        assert np.max(np.abs(channel.apply(rho) - rho.T)) <= 1e-15

    def test_qubit_mixed_unitary_is_unital(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            channel = ch.random_mixed_unitary(rng, 2)
            out = channel.apply(np.eye(2, dtype=complex) / 2)
            assert np.max(np.abs(out - np.eye(2) / 2)) <= 1e-12

    def test_semiclassical_outputs_diagonal_in_basis(self):
        rng = np.random.default_rng(6)
        channel = ch.random_semiclassical(rng, 3)
        v = channel.basis
        for _ in range(20):
            out = channel.apply(random_density(rng, 3))
            rotated = v.conj().T @ out @ v
            off = rotated - np.diag(np.diag(rotated))
            assert np.max(np.abs(off)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ch.probabilistic_hadamard().apply(np.eye(3) / 3)


class TestApplyLocalA:
    def test_identity_channel(self):
        rng = np.random.default_rng(7)
        s = random_state(rng, 2, 3)
        channel = ch.MixedUnitaryChannel(np.array([1.0]), (np.eye(2, dtype=complex),))
        out = channel.apply_local_a(s)
        assert np.max(np.abs(out.rho - s.rho)) <= 1e-14

    def test_depolarizing_limit(self):
        rng = np.random.default_rng(8)
        s = random_state(rng, 2, 2)
        channel = ch.IsotropicChannel(1.0, np.eye(2, dtype=complex))
        out = channel.apply_local_a(s)
        expected = np.kron(np.eye(2) / 2, st.partial_trace_a(s))
        assert np.max(np.abs(out.rho - expected)) <= 1e-12

    def test_local_unitary_keeps_b_marginal(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            s = random_state(rng, 2, 2)
            channel = ch.MixedUnitaryChannel(np.array([1.0]), (haar(rng, 2),))
            out = channel.apply_local_a(s)
            assert np.max(np.abs(st.partial_trace_a(out) - st.partial_trace_a(s))) <= 1e-12

    def test_antiunitary_matches_lifted_expression(self):
        rng = np.random.default_rng(10)
        s = random_state(rng, 3, 2)
        gamma = 0.8
        u = haar(rng, 3)
        v = haar(rng, 3)
        channel = ch.IsotropicChannel(gamma, u, antiunitary=True, transpose_basis=v)
        out = channel.apply_local_a(s)
        pt = ch.partial_transpose_a(s.rho, 3, 2, v)
        lift = np.kron(u, np.eye(2))
        expected = (1 - gamma) * lift @ pt @ lift.conj().T + gamma * np.kron(
            np.eye(3) / 3, st.partial_trace_a(s)
        )
        assert np.max(np.abs(out.rho - expected)) <= 1e-12

    def test_antiunitary_non_cp_detected(self):
        channel = ch.IsotropicChannel(0.0, np.eye(2, dtype=complex), antiunitary=True)
        with pytest.raises(NotPositiveSemidefinite):
            channel.apply_local_a(bell_state())

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(11)
        with pytest.raises(DimensionMismatch):
            ch.probabilistic_hadamard().apply_local_a(random_state(rng, 3, 2))


class TestReferenceLifts:
    """Closed-form lifts against Kraus sums written out here."""

    @staticmethod
    def _kraus_sum(ops, rho, d_b):
        lifts = [np.kron(k, np.eye(d_b)) for k in ops]
        return sum(l @ rho @ l.conj().T for l in lifts)

    @pytest.mark.parametrize("d_a", [2, 3, 4])
    def test_unitary_isotropic_equals_kraus_sum(self, d_a):
        rng = np.random.default_rng(40 + d_a)
        iso = ch.random_isotropic(rng, d_a)
        g = iso.gamma
        ops = [math.sqrt(1.0 - g) * iso.w_unitary]
        for i in range(d_a):
            for j in range(d_a):
                k = np.zeros((d_a, d_a), dtype=complex)
                k[i, j] = math.sqrt(g / d_a)
                ops.append(k)
        rho = random_state(rng, d_a, 2).rho
        expected = self._kraus_sum(ops, rho, 2)
        assert np.max(np.abs(iso.lift_a(rho, d_a, 2) - expected)) <= 1e-13

    @pytest.mark.parametrize("d_a", [2, 3, 4])
    def test_semiclassical_equals_projected_kraus_sum(self, d_a):
        rng = np.random.default_rng(50 + d_a)
        sc = ch.random_semiclassical(rng, d_a)
        v = sc.basis
        ops = [
            np.outer(v[:, i], v[:, i].conj()) @ k
            for k in sc.inner.ops
            for i in range(d_a)
        ]
        rho = random_state(rng, d_a, 2).rho
        expected = self._kraus_sum(ops, rho, 2)
        assert np.max(np.abs(sc.lift_a(rho, d_a, 2) - expected)) <= 1e-13

    @pytest.mark.parametrize("d_a", [2, 3, 4])
    @pytest.mark.parametrize("d_b", [1, 2, 3])
    def test_partial_transpose_equals_rotate_transpose_unrotate(self, d_a, d_b):
        rng = np.random.default_rng(70 + 10 * d_a + d_b)
        rho = random_state(rng, d_a, d_b).rho
        v = haar(rng, d_a)
        rot = np.kron(v, np.eye(d_b))
        t = (rot.conj().T @ rho @ rot).reshape(d_a, d_b, d_a, d_b)
        flipped = t.transpose(2, 1, 0, 3).reshape(d_a * d_b, d_a * d_b)
        expected = rot @ flipped @ rot.conj().T
        out = ch.partial_transpose_a(rho, d_a, d_b, v)
        assert np.max(np.abs(out - expected)) <= 1e-13


#: one channel of every class, on a d-dimensional A; the antiunitary
#: isotropic channel once below its complete-positivity threshold d/(d+1)
SUPEROP_CHANNELS = {
    "kraus": lambda rng, d: ch.random_kraus_channel(rng, d, 3),
    "mu": lambda rng, d: ch.random_mixed_unitary(rng, d),
    "iso-u": lambda rng, d: ch.random_isotropic(rng, d),
    "iso-a-not-cp": lambda rng, d: ch.random_isotropic(rng, d, True, 0.5 * d / (d + 1)),
    "iso-a-cp": lambda rng, d: ch.random_isotropic(rng, d, True, (2 * d + 1) / (2 * d + 2)),
    "sc-kraus": lambda rng, d: ch.random_semiclassical(rng, d),
    "sc-mu": lambda rng, d: ch.SemiclassicalChannel(haar(rng, d), ch.random_mixed_unitary(rng, d)),
    "sc-iso-a": lambda rng, d: ch.SemiclassicalChannel(
        haar(rng, d), ch.random_isotropic(rng, d, antiunitary=True)
    ),
}


class TestSuperoperators:
    """Superoperator lifts and dephasing against the Kraus-sum references in helpers."""

    @pytest.mark.parametrize("kind", list(SUPEROP_CHANNELS))
    @pytest.mark.parametrize("d_a", [2, 3, 4])
    @pytest.mark.parametrize("d_b", [1, 2, 3])
    def test_lift_equals_the_reference(self, kind, d_a, d_b):
        rng = np.random.default_rng([d_a, d_b, list(SUPEROP_CHANNELS).index(kind)])
        channel = SUPEROP_CHANNELS[kind](rng, d_a)
        rhos = np.stack([random_density(rng, d_a * d_b) for _ in range(5)])
        for rho in (rhos[0], rhos):
            want = reference_lift_a(channel, rho, d_a, d_b)
            assert np.max(np.abs(channel.lift_a(rho, d_a, d_b) - want)) <= 1e-14

    @pytest.mark.parametrize("d_a", [2, 3, 4])
    @pytest.mark.parametrize("d_b", [1, 2, 3])
    def test_dephase_a_equals_the_projector_sum(self, d_a, d_b):
        rng = np.random.default_rng([d_a, d_b, 99])
        rhos = np.stack([random_density(rng, d_a * d_b) for _ in range(5)])
        bases = np.stack([haar(rng, d_a) for _ in range(5)])
        shared = dd.dephase_a(rhos, d_a, d_b, bases[0])
        per_row = dd.dephase_a(rhos, d_a, d_b, bases)
        # many bases for one matrix, as in the degenerate-eigenbasis search
        grid = dd.dephase_a(rhos[0], d_a, d_b, bases)
        for i in range(5):
            for got, rho, basis in (
                (shared[i], rhos[i], bases[0]),
                (per_row[i], rhos[i], bases[i]),
                (grid[i], rhos[0], bases[i]),
            ):
                assert np.max(np.abs(got - reference_dephase_a(rho, d_a, d_b, basis))) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 40])
    @pytest.mark.parametrize("d_a, d_b", [(2, 1), (3, 1), (2, 2), (3, 2), (4, 3)])
    def test_rows_equal_single_calls_bit_for_bit(self, n, d_a, d_b):
        rng = np.random.default_rng([n, d_a, d_b])
        rhos = np.stack([random_density(rng, d_a * d_b) for _ in range(n)])
        bases = np.stack([haar(rng, d_a) for _ in range(n)])
        for make in SUPEROP_CHANNELS.values():
            channel = make(rng, d_a)
            lifted = channel.lift_a(rhos, d_a, d_b)
            for i in range(n):
                assert np.array_equal(lifted[i], channel.lift_a(rhos[i], d_a, d_b))
        shared = dd.dephase_a(rhos, d_a, d_b, bases[0])
        per_row = dd.dephase_a(rhos, d_a, d_b, bases)
        for i in range(n):
            assert np.array_equal(shared[i], dd.dephase_a(rhos[i], d_a, d_b, bases[0]))
            assert np.array_equal(per_row[i], dd.dephase_a(rhos[i], d_a, d_b, bases[i]))

    def test_bad_shape_raises_dimension_mismatch(self):
        qubit = ch.probabilistic_hadamard()
        for call in (
            lambda: qubit.lift_a(np.eye(6) / 6, 3, 2),  # d_A is not the channel's
            lambda: qubit.lift_a(np.eye(6) / 6, 2, 2),
            lambda: qubit.lift_a(np.ones((3, 4, 5)), 2, 2),
            lambda: qubit.apply(np.eye(3) / 3),
            lambda: dd.dephase_a(np.eye(4) / 4, 2, 2, np.eye(3)),
            lambda: dd.dephase_a(np.eye(6) / 6, 2, 2, np.eye(2)),
        ):
            with pytest.raises(DimensionMismatch, match="do not fit"):
                call()


class TestCommutingCondition:
    def test_single_unitary_channel(self):
        rng = np.random.default_rng(12)
        channel = ch.MixedUnitaryChannel(np.array([1.0]), (haar(rng, 2),))
        assert ch.qubit_mu_commuting_condition(channel, np.eye(2)) <= 1e-12

    def test_uniform_pauli_twirl(self):
        assert ch.qubit_mu_commuting_condition(ch.pauli_twirl_channel(), np.eye(2)) <= 1e-12

    def test_probabilistic_hadamard_value(self):
        got = ch.qubit_mu_commuting_condition(ch.probabilistic_hadamard(), np.eye(2))
        assert got == pytest.approx(PROB_HADAMARD_VIOLATION, abs=1e-10)
        assert got > 1e-3

    def test_isotropic_channels_satisfy_condition(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            gamma = rng.uniform(0.0, 0.95)
            iso = ch.random_isotropic(rng, 2, gamma=gamma)
            mu = ch.isotropic_as_mixed_unitary(iso)
            basis = haar(rng, 2)
            assert ch.qubit_mu_commuting_condition(mu, basis) <= 1e-10

    def test_antiunitary_isotropic_channels_satisfy_condition(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            gamma = rng.uniform(2 / 3, 1.0)
            iso = ch.random_isotropic(rng, 2, antiunitary=True, gamma=gamma)
            mu = ch.isotropic_as_mixed_unitary(iso)
            basis = haar(rng, 2)
            assert ch.qubit_mu_commuting_condition(mu, basis) <= 1e-10

    def test_degenerate_output_raises(self):
        # output gap below the degeneracy tolerance but not maximally mixed
        gamma = 1.0 - 5e-9
        iso = ch.IsotropicChannel(gamma, np.eye(2, dtype=complex))
        mu = ch.isotropic_as_mixed_unitary(iso)
        with pytest.raises(DegenerateOutput):
            ch.qubit_mu_commuting_condition(mu, ch.HADAMARD)

    @pytest.mark.parametrize("branch", ["pauli-twirl", "half-bit-flip"])
    def test_maximally_mixed_output_matches_the_two_loop_reference(self, branch):
        # the Pauli twirl sends every |psi><psi_bar| to 0; the equal mixture
        # of I and X sends |0><1| to X/2, of operator norm 1/2
        if branch == "pauli-twirl":
            channel, basis = ch.pauli_twirl_channel(), haar(np.random.default_rng(16), 2)
            want = 0.0
        else:
            channel = ch.MixedUnitaryChannel(
                np.array([0.5, 0.5]), (np.eye(2, dtype=complex), ch.PAULI_X)
            )
            basis, want = np.eye(2), 0.5
        got = ch.qubit_mu_commuting_condition(channel, basis)
        assert abs(got - reference_qubit_mu_commuting_condition(channel, basis)) <= 1e-15
        assert got == pytest.approx(want, abs=1e-15)

    def test_degenerate_output_raises_as_the_two_loop_reference_does(self):
        iso = ch.IsotropicChannel(1.0 - 5e-9, np.eye(2, dtype=complex))
        mu = ch.isotropic_as_mixed_unitary(iso)
        for condition in (ch.qubit_mu_commuting_condition, reference_qubit_mu_commuting_condition):
            with pytest.raises(DegenerateOutput):
                condition(mu, ch.HADAMARD)

    def test_kraus_channel_is_applied_through_its_superoperator(self):
        # amplitude damping maps |+><-| to ((1 - g) Z - i sqrt(1 - g) Y)/2 and
        # |+><+| to the Bloch vector (sqrt(1 - g), 0, g), so the violation in
        # the Hadamard basis is g (1 - g) / (2 sqrt(1 - g + g^2))
        g = 0.3
        channel = ch.amplitude_damping(g)
        want = g * (1.0 - g) / (2.0 * math.sqrt(1.0 - g + g * g))
        assert ch.qubit_mu_commuting_condition(channel, ch.HADAMARD) == pytest.approx(
            want, abs=1e-15
        )
        assert ch.qubit_mu_commuting_condition(channel, np.eye(2)) <= 1e-15


class TestIsotropicAsMixedUnitary:
    def test_matches_channel_action(self):
        rng = np.random.default_rng(15)
        for anti in (False, True):
            gamma = float(rng.uniform(2 / 3 if anti else 0.0, 1.0))
            iso = ch.random_isotropic(rng, 2, antiunitary=anti, gamma=gamma)
            mu = ch.isotropic_as_mixed_unitary(iso)
            for _ in range(20):
                rho = random_density(rng, 2)
                assert np.max(np.abs(mu.apply(rho) - iso.apply(rho))) <= 1e-12
                rho_ab = random_density(rng, 6)
                lifted = iso.lift_a(rho_ab, 2, 3) - mu.lift_a(rho_ab, 2, 3)
                assert np.max(np.abs(lifted)) <= 1e-12

    def test_rejects_non_cp_antiunitary(self):
        iso = ch.IsotropicChannel(0.4, np.eye(2, dtype=complex), antiunitary=True)
        with pytest.raises(InvalidChannel):
            ch.isotropic_as_mixed_unitary(iso)


class TestCommutesWithPi:
    def test_unitary_isotropic_qutrit(self):
        rng = np.random.default_rng(16)
        channel = ch.random_isotropic(rng, 3, antiunitary=False)
        rep = ch.commutes_with_pi(channel, 30, rng)
        assert rep.max_deviation <= 1e-9
        assert rep.witness is None

    def test_antiunitary_isotropic_qutrit(self):
        rng = np.random.default_rng(17)
        channel = ch.random_isotropic(rng, 3, antiunitary=True, gamma=0.3)
        rep = ch.commutes_with_pi(channel, 30, rng)
        assert rep.max_deviation <= 1e-9

    def test_probabilistic_hadamard_violates(self):
        rng = np.random.default_rng(18)
        rep = ch.commutes_with_pi(ch.probabilistic_hadamard(), 30, rng)
        assert rep.max_deviation > 1e-3
        assert rep.witness is not None
        # the witness reproduces a violation of the same size
        s = rep.witness
        out = ch.apply_local_a_raw(ch.probabilistic_hadamard(), s.rho, 2, 2)
        lhs = ch._dephase_in_marginal_basis(out, 2, 2)
        rhs = ch.apply_local_a_raw(
            ch.probabilistic_hadamard(), ch._dephase_in_marginal_basis(s.rho, 2, 2), 2, 2
        )
        from diagdiscord.linalg import trace_norm

        assert trace_norm(lhs - rhs) == pytest.approx(rep.max_deviation, rel=1e-9)


class TestDiscordNongenerating:
    def test_mixed_unitary_qubit_channels(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            channel = ch.random_mixed_unitary(rng, 2)
            rep = ch.is_discord_nongenerating(channel, 20, rng)
            assert rep.max_deviation <= 1e-9

    def test_semiclassical_channels(self):
        rng = np.random.default_rng(20)
        for d in (2, 3):
            channel = ch.random_semiclassical(rng, d)
            rep = ch.is_discord_nongenerating(channel, 20, rng)
            assert rep.max_deviation <= 1e-9

    def test_amplitude_damping_generates(self):
        rng = np.random.default_rng(21)
        rep = ch.is_discord_nongenerating(ch.amplitude_damping(0.5), 30, rng)
        assert rep.max_deviation > 1e-3
        assert rep.witness is not None

    def test_semiclassical_not_commuting(self):
        rng = np.random.default_rng(22)
        rep = ch.commutes_with_pi(ch.random_semiclassical(rng, 2), 30, rng)
        assert rep.max_deviation > 1e-3


def _same_scan(scan, reference, channel, trials, seed, d_b):
    """The scan and its one-trial-at-a-time reference agree bit for bit, generator included."""
    rng, twin = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
    got = scan(channel, trials, rng, d_b=d_b)
    want = reference(channel, trials, twin, d_b=d_b)
    assert type(got.max_deviation) is float
    assert got.max_deviation == want.max_deviation
    assert got.trials == want.trials == trials
    assert (got.witness is None) == (want.witness is None)
    if want.witness is not None:
        assert np.array_equal(got.witness.rho, want.witness.rho)
        assert (got.witness.dim_a, got.witness.dim_b) == (want.witness.dim_a, d_b)
    assert rng.bit_generator.state == twin.bit_generator.state


SCANS = [
    (ch.commutes_with_pi, reference_commutes_with_pi),
    (ch.is_discord_nongenerating, reference_is_discord_nongenerating),
]


class TestStackedScans:
    @pytest.mark.parametrize("d_a, d_b, kind", scan_cases())
    @pytest.mark.parametrize("scan, reference", SCANS, ids=["commute", "nongen"])
    def test_scan_equals_the_one_trial_loop(self, d_a, d_b, kind, scan, reference):
        seed = 100 * d_a + 10 * d_b + len(kind)
        channel = scan_channel(kind, d_a, np.random.default_rng(seed))
        _same_scan(scan, reference, channel, 12, seed, d_b)

    @pytest.mark.parametrize("d_a, tol", [(3, 0.1), (4, 0.05)])
    @pytest.mark.parametrize("scan, reference", SCANS, ids=["commute", "nongen"])
    def test_redrawn_trials_equal_the_one_trial_loop(self, d_a, tol, scan, reference, monkeypatch):
        # a high degeneracy tolerance flags about a third of the draws
        monkeypatch.setattr(la, "DEGENERACY_TOL", tol)
        rng = np.random.default_rng(30 + d_a)
        _, rejected = st.sample_nondegenerate(np.random.default_rng([30 + d_a, 1]), d_a, 2, size=12)
        assert rejected > 0
        _same_scan(scan, reference, ch.random_mixed_unitary(rng, d_a), 12, 30 + d_a, 2)

    def test_single_trial(self):
        channel = ch.probabilistic_hadamard()
        for scan, reference in SCANS:
            _same_scan(scan, reference, channel, 1, 40, 2)

    @pytest.mark.parametrize("scan", [s for s, _ in SCANS])
    def test_no_trials_rejected(self, scan):
        with pytest.raises(OutOfRange):
            scan(ch.probabilistic_hadamard(), 0, np.random.default_rng(0))


class TestVerdicts:
    def test_thresholds(self):
        assert ch.condition_verdict(1e-12) == "commuting"
        assert ch.condition_verdict(0.5) == "non-commuting"
        assert ch.condition_verdict(1e-6) == "inconclusive"
        assert ch.condition_verdict(1e-12, labels=ch.NONGENERATING) == "nongenerating"
        assert ch.condition_verdict(0.5, labels=ch.NONGENERATING) == "generating"
        assert ch.condition_verdict(1e-6, labels=ch.NONGENERATING) == "inconclusive"


class TestSerialization:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda rng: ch.amplitude_damping(0.37),
            lambda rng: ch.random_mixed_unitary(rng, 2),
            lambda rng: ch.random_isotropic(rng, 3),
            lambda rng: ch.random_isotropic(rng, 2, antiunitary=True, gamma=0.7),
            lambda rng: ch.random_semiclassical(rng, 2),
        ],
        ids=["kraus", "mu", "iso", "iso-anti", "sc"],
    )
    def test_roundtrip(self, maker, tmp_path):
        rng = np.random.default_rng(23)
        channel = maker(rng)
        path = tmp_path / "channel.txt"
        ch.save_channel(channel, path)
        loaded = ch.load_channel(path)
        assert loaded.tag() == channel.tag()
        rho = random_density(rng, channel.dim)
        assert np.max(np.abs(loaded.apply(rho) - channel.apply(rho))) <= 1e-15

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("mixed-unitary 2\n")
        from diagdiscord.errors import ParseError

        with pytest.raises(ParseError):
            ch.load_channel(path)
