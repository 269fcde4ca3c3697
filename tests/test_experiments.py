import math

import numpy as np
import pytest

from diagdiscord import channels as ch
from diagdiscord import discord as dd
from diagdiscord import experiments as ex
from diagdiscord import linalg as la
from diagdiscord.errors import DegenerateMarginal, InvalidRank, OutOfDomain, OutOfRange
from diagdiscord.states import BipartiteState
from helpers import (
    random_density,
    reference_mono_max_increase,
    reference_monotonicity,
    reference_xstate_comparison,
    scan_cases,
    scan_channel,
)


class _MixedFirstDraw:
    """A generator whose first Ginibre draw is G = I: the state I/4, with a degenerate marginal."""

    def __init__(self, rng):
        self._rng = rng
        # real part, then imaginary part
        self._first = np.concatenate([np.eye(4).ravel(), np.zeros(16)])

    def normal(self, size=None):
        if not len(self._first):
            return self._rng.normal(size=size)
        n = math.prod(size)  # one call for both parts, or one call each
        out, self._first = self._first[:n], self._first[n:]
        return out.reshape(size)

    def standard_normal(self, out):
        out[...] = self.normal(size=out.shape)


class TestMonotonicity:
    def test_identity_channel_changes_nothing(self):
        channel = ch.MixedUnitaryChannel(np.array([1.0]), (np.eye(2, dtype=complex),))
        rec = ex.run_monotonicity(channel, samples=40, seed=3)
        diff = np.abs(rec.rows[:, 1] - rec.rows[:, 0])
        assert diff.max() <= 1e-10
        assert rec.summary["violations"] == 0

    def test_fully_depolarizing_kills_discord(self):
        channel = ch.IsotropicChannel(1.0, np.eye(2, dtype=complex))
        rec = ex.run_monotonicity(channel, samples=15, seed=4)
        assert np.max(rec.rows[:, 1]) <= 1e-9
        assert rec.summary["degenerate_outputs"] == 15

    def test_isotropic_channels_never_violate(self):
        rng = np.random.default_rng(20)
        for anti in (False, True):
            gamma = float(rng.uniform(2 / 3 if anti else 0.0, 0.95))
            channel = ch.random_isotropic(rng, 2, antiunitary=anti, gamma=gamma)
            rec = ex.run_monotonicity(channel, samples=60, seed=21)
            assert rec.summary["violations"] == 0

    @pytest.mark.parametrize("name", ["fig2a", "fig2b", "fig2c"])
    def test_builtin_channels_monotone(self, name):
        rec = ex.run_monotonicity(name, samples=150, seed=5)
        assert rec.summary["violations"] == 0
        assert len(rec.rows) == 150

    def test_unknown_builtin(self):
        with pytest.raises(OutOfRange):
            ex.run_monotonicity("fig9z", samples=5, seed=0)

    @pytest.mark.parametrize("rank", [0, 5])
    def test_rank_outside_the_state_rejected(self, rank):
        with pytest.raises(InvalidRank):
            ex.run_monotonicity("fig2a", samples=5, seed=0, rank=rank)

    @pytest.mark.parametrize("case", ["fig2a", "depolarizing", "redrawn"])
    def test_stack_matches_the_per_sample_path(self, case, monkeypatch):
        channel = ex.resolve_channel("fig2a")[1]
        if case == "depolarizing":  # every output has the degenerate marginal I/2
            channel = ch.IsotropicChannel(1.0, np.eye(2, dtype=complex))
        if case == "redrawn":  # samples 2 and 5 reject their first draw
            sample_rngs = ex.sample_rngs
            monkeypatch.setattr(ex, "sample_rngs", lambda seed, keys: [
                _MixedFirstDraw(rng) if np.ravel(key)[0] in (2, 5) else rng
                for key, rng in zip(keys, sample_rngs(seed, keys))
            ])
        rec = ex.run_monotonicity(channel, samples=8, seed=22)
        rows, resampled, degenerate = reference_monotonicity(channel, 8, 22)
        assert np.max(np.abs(rec.rows - rows)) <= 1e-14
        assert rec.summary["resampled_degenerate"] == resampled
        assert rec.summary["degenerate_outputs"] == degenerate
        assert (resampled, degenerate) == {
            "fig2a": (0, 0), "depolarizing": (0, 8), "redrawn": (2, 0)
        }[case]

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_buffered_draws_equal_per_sample_normal_arrays(self, rank):
        # the stack's normals, with the sign of an exact zero counted
        z = np.empty((600, 2, 4, rank))
        for k, rng in enumerate(ex.sample_rngs(20171017, range(600))):
            rng.standard_normal(out=z[k])
        want = np.stack([
            rng.normal(size=(2, 4, rank)) for rng in ex.sample_rngs(20171017, range(600))
        ])
        assert np.array_equal(z.view(np.uint64), want.view(np.uint64))

    def test_stack_size_does_not_change_the_record(self, monkeypatch):
        whole = ex.run_monotonicity("fig2b", samples=20, seed=24)
        monkeypatch.setattr(ex, "MONO_STACK", 7)
        parts = ex.run_monotonicity("fig2b", samples=20, seed=24)
        assert np.array_equal(whole.rows, parts.rows)
        assert whole.summary == parts.summary

    def test_eigensolver_calls_do_not_grow_with_samples(self, monkeypatch):
        # the samples go through the eigensolvers as stacks, not one by one
        calls = []
        for name in ("eigh", "eigvalsh"):
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda m, solver=solver: (calls.append(1), solver(m))[1]
            )
        counts = []
        for samples in (50, 500):
            calls.clear()
            rec = ex.run_monotonicity("fig2a", samples=samples, seed=23)
            assert rec.summary["resampled_degenerate"] == 0
            assert rec.summary["degenerate_outputs"] == 0
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_no_full_eigensolve_of_a_dephased_state(self, monkeypatch):
        sizes = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda m: (sizes.append(np.shape(m)), eigvalsh(m))[1]
        )
        rec = ex.run_monotonicity("fig2a", samples=50, seed=23)
        assert rec.summary["resampled_degenerate"] == 0
        assert rec.summary["degenerate_outputs"] == 0
        # the input validation and the channel output; pi_a's two dephased
        # states take their spectra from their blocks
        assert [s for s in sizes if s[-2:] == (4, 4)] == [(50, 4, 4), (50, 4, 4)]
        for d_a, d_b in ((2, 3), (3, 2)):
            rng = np.random.default_rng([d_a, d_b])
            states = BipartiteState(
                np.stack([random_density(rng, d_a * d_b) for _ in range(5)]), d_a, d_b
            )
            sizes.clear()
            dd.pi_a(states)
            assert not [s for s in sizes if s[-1] == d_a * d_b]

    def test_qubit_marginals_take_no_lapack_eigh(self, monkeypatch):
        # hermitian_eig takes every 2x2 marginal in closed form
        sizes = {"eigh": [], "eigvalsh": []}
        for name, seen in sizes.items():
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg,
                name,
                lambda m, *a, solver=solver, seen=seen, **k: (
                    seen.append(np.shape(m)), solver(m, *a, **k)
                )[1],
            )
        ex.run_monotonicity("fig2a", samples=50, seed=23)
        assert sizes["eigh"] == []
        assert [s for s in sizes["eigvalsh"] if s[-2:] == (4, 4)] == [(50, 4, 4), (50, 4, 4)]
        ex.run_xstate_comparison(samples=20, seed=7)
        assert sizes["eigh"] == []

    def test_summary_recomputable(self):
        rec = ex.run_monotonicity("fig2a", samples=30, seed=6)
        derived = ex.recompute_row_summary(rec)
        for key, value in derived.items():
            assert rec.summary[key] == value


class TestXStateComparison:
    def test_rows_and_bounds(self):
        rec = ex.run_xstate_comparison(samples=120, seed=7)
        assert rec.rows.shape == (120, 6)
        gap = rec.rows[:, 5] - rec.rows[:, 4]
        assert gap.min() >= -1e-9
        assert rec.summary["upper_bound_violations"] == 0
        assert 0.0 <= rec.summary["match_fraction"] <= 1.0

    def test_determinism(self):
        a = ex.run_xstate_comparison(samples=40, seed=8)
        b = ex.run_xstate_comparison(samples=40, seed=8)
        assert np.array_equal(a.rows, b.rows)
        assert a.summary == b.summary

    @pytest.mark.parametrize("seed", [25, 26, 20260809])
    def test_stack_equals_the_per_sample_path(self, seed):
        rec = ex.run_xstate_comparison(samples=60, seed=seed)
        rows, excluded = reference_xstate_comparison(60, seed)
        assert rec.rows.tobytes() == rows.tobytes()
        assert rec.summary["excluded_degenerate"] == excluded == 0

    def test_redrawn_samples_equal_the_per_sample_path(self, monkeypatch):
        # at this tolerance some X-state marginals count as degenerate, so
        # their samples are drawn again, some more than once
        monkeypatch.setattr(la, "DEGENERACY_TOL", 0.1)
        rec = ex.run_xstate_comparison(samples=40, seed=27)
        rows, excluded = reference_xstate_comparison(40, 27)
        assert rec.rows.tobytes() == rows.tobytes()
        assert rec.summary["excluded_degenerate"] == excluded > 1

    def test_exhausted_budget_equals_the_per_sample_path(self, monkeypatch):
        monkeypatch.setattr(la, "DEGENERACY_TOL", 2.0)  # every marginal gap is below 1
        with pytest.raises(OutOfDomain, match="sample 0 have a nondegenerate") as got:
            ex.run_xstate_comparison(samples=3, seed=28)
        with pytest.raises(OutOfDomain) as want:
            reference_xstate_comparison(3, 28)
        assert str(got.value) == str(want.value)

    def test_eigensolver_calls_do_not_grow_with_samples(self, monkeypatch):
        # the samples go through the eigensolvers as one stack, not one by one
        calls = []
        for name in ("eigh", "eigvalsh"):
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda m, solver=solver: (calls.append(1), solver(m))[1]
            )
        counts = []
        for samples in (50, 500):
            calls.clear()
            rec = ex.run_xstate_comparison(samples=samples, seed=29)
            assert rec.summary["excluded_degenerate"] == 0
            counts.append(len(calls))
        assert counts[0] == counts[1]


class TestContinuity:
    def test_slack_nonnegative(self):
        rec = ex.run_continuity_check(2, 2, samples=25, eps_list=[1e-3, 1e-4], seed=10)
        assert rec.rows.shape == (50, 8)
        assert rec.summary["min_slack"] >= 0.0
        assert rec.summary["min_schatten_slack"] >= 0.0

    @pytest.mark.parametrize("dims", [(1, 1), (0, 2), (2, 0), (-1, -2)])
    def test_dims_outside_the_bounds_domain_rejected_at_once(self, dims, monkeypatch):
        monkeypatch.setattr(ex, "sample_rngs", None)  # rejected before any draw
        with pytest.raises(OutOfRange, match=r"dims \("):
            ex.run_continuity_check(*dims, samples=2, eps_list=[1e-3], seed=1)

    def test_zero_eps_rows(self):
        rec = ex.run_continuity_check(2, 2, samples=5, eps_list=[0.0], seed=11)
        assert np.max(np.abs(rec.rows[:, 2])) == 0.0
        assert np.max(np.abs(rec.rows[:, 4])) == 0.0

    def test_qubit_qutrit(self):
        rec = ex.run_continuity_check(2, 3, samples=10, eps_list=[1e-3], seed=12)
        assert rec.summary["min_slack"] >= 0.0

    def test_determinism(self):
        a = ex.run_continuity_check(2, 2, samples=10, eps_list=[1e-3], seed=13)
        b = ex.run_continuity_check(2, 2, samples=10, eps_list=[1e-3], seed=13)
        assert np.array_equal(a.rows, b.rows)


class TestClassification:
    def test_qutrit_structure(self):
        rec = ex.run_channel_classification(3, per_class=2, trials=12, seed=14)
        s = rec.summary
        assert s["iso_u_commuting"] == s["iso_u_count"]
        assert s["iso_a_commuting"] == s["iso_a_count"]
        assert s["iso_u_nongenerating"] == s["iso_u_count"]
        assert s["sc_commuting"] == 0
        assert s["sc_noncommuting"] == s["sc_count"]
        assert s["sc_nongenerating"] == s["sc_count"]

    def test_qubit_injects_probabilistic_hadamard(self):
        rec = ex.run_channel_classification(2, per_class=1, trials=12, seed=15)
        s = rec.summary
        assert s["injected_hadamard_count"] == 1
        assert s["injected_hadamard_noncommuting"] == 1
        assert s["injected_hadamard_nongenerating"] == 1
        assert s["injected_hadamard_mono_violations"] == 0
        # every qubit MU channel is unital, hence nongenerating
        assert s["mu_nongenerating"] == s["mu_count"]
        assert s["mu_mono_violations"] == 0

    def test_rows_match_requested(self):
        rec = ex.run_channel_classification(3, per_class=2, trials=5, seed=16)
        assert rec.rows.shape[0] == 8
        rec = ex.run_channel_classification(2, per_class=2, trials=5, seed=16)
        assert rec.rows.shape[0] == 9

    def test_eigensolver_calls_do_not_grow_with_trials(self, monkeypatch):
        # each scan takes its trials through the eigensolvers as one stack
        calls = []
        for name in ("eigh", "eigvalsh"):
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda m, solver=solver: (calls.append(1), solver(m))[1]
            )
        counts = []
        for trials in (10, 100):
            calls.clear()
            ex.run_channel_classification(3, per_class=1, trials=trials, seed=19)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_no_svd_is_taken(self, monkeypatch):
        # every norm the package takes is of a Hermitian matrix, from eigvalsh
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        rec = ex.run_channel_classification(3, per_class=1, trials=4, seed=18)
        assert rec.rows.shape[0] == 4
        state = BipartiteState(random_density(np.random.default_rng(18), 6), 2, 3)
        for p in (1.0, 2.0, math.inf):
            assert dd.generalized_discord(state, p) > 0.0
        rec = ex.run_continuity_check(2, 2, samples=3, eps_list=[1e-3], seed=18)
        assert rec.summary["min_schatten_slack"] >= 0.0

    def test_summary_recomputable(self):
        rec = ex.run_channel_classification(2, per_class=1, trials=5, seed=17)
        derived = ex.recompute_row_summary(rec)
        for key, value in derived.items():
            assert rec.summary[key] == value


def _same_mono(channel, trials, seed, d_b):
    """_mono_max_increase and its one-state-at-a-time reference agree bit for bit."""
    rng, twin = np.random.default_rng([seed, 2]), np.random.default_rng([seed, 2])
    got = ex._mono_max_increase(channel, trials, rng, d_b)
    assert got == reference_mono_max_increase(channel, trials, twin, d_b)
    assert rng.bit_generator.state == twin.bit_generator.state


class _CountingPiA:
    """ex.pi_a, counting the calls that raise DegenerateMarginal."""

    def __init__(self, pi_a):
        self.pi_a, self.raised = pi_a, 0

    def __call__(self, *args, **kwargs):
        try:
            return self.pi_a(*args, **kwargs)
        except DegenerateMarginal:
            self.raised += 1
            raise


class TestMonoMaxIncrease:
    # the antiunitary isotropic lift is not completely positive; the sweep skips it
    @pytest.mark.parametrize(
        "d_a, d_b, kind", scan_cases(("mu", "iso_u", "sc", "hadamard", "damping"))
    )
    def test_stack_equals_the_one_state_loop(self, d_a, d_b, kind):
        seed = 100 * d_a + 10 * d_b + len(kind)
        channel = scan_channel(kind, d_a, np.random.default_rng(seed))
        _same_mono(channel, 12, seed, d_b)

    def test_rejected_rows_equal_the_one_state_loop(self, monkeypatch):
        # at this tolerance many outputs of a strongly depolarizing qutrit
        # channel have a threefold degenerate marginal; pi_a optimizes those
        # blocks too, so no call raises and no row is rejected
        monkeypatch.setattr(la, "DEGENERACY_TOL", 0.05)
        counting = _CountingPiA(ex.pi_a)
        monkeypatch.setattr(ex, "pi_a", counting)
        widths = []
        optimize = dd._optimize_degenerate_basis

        def spy(dec, objective):
            widths.extend(stop - start for start, stop in dec.degenerate_blocks)
            return optimize(dec, objective)

        monkeypatch.setattr(dd, "_optimize_degenerate_basis", spy)
        channel = ch.random_isotropic(np.random.default_rng(50), 3, gamma=0.9)
        _same_mono(channel, 8, 50, 1)
        assert counting.raised == 0
        assert 3 in widths

    def test_no_degenerate_row_is_optimized_twice(self, monkeypatch):
        # every flagged row of the stack, threefold blocks too, is optimized
        # once, as in the one-state loop
        monkeypatch.setattr(la, "DEGENERACY_TOL", 0.05)
        calls = []
        optimize = dd._optimize_degenerate_basis
        monkeypatch.setattr(
            dd, "_optimize_degenerate_basis", lambda *a: (calls.append(1), optimize(*a))[1]
        )
        channel = ch.random_isotropic(np.random.default_rng(50), 3, gamma=0.9)
        rng, twin = np.random.default_rng([50, 2]), np.random.default_rng([50, 2])
        got = ex._mono_max_increase(channel, 8, rng, 1)
        stacked = len(calls)
        calls.clear()
        assert got == reference_mono_max_increase(channel, 8, twin, 1)
        assert rng.bit_generator.state == twin.bit_generator.state
        assert stacked == len(calls) > 0


class TestSeedHandling:
    def test_negative_seed_rejected(self):
        with pytest.raises(OutOfRange):
            ex.run_xstate_comparison(samples=5, seed=-1)

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64, 2**100 + 12345])
    @pytest.mark.parametrize(
        "keys",
        [[0, 1, 4095, 2**32 - 1], [(4, 0), (0, 1), (3, 4095), (2**32 - 1, 2**32 - 1)], [()]],
        ids=["one-key", "two-key", "no-key"],
    )
    def test_sample_rngs_equal_default_rng(self, seed, keys):
        rngs = ex.sample_rngs(seed, keys)
        assert len(rngs) == len(keys)
        for key, rng in zip(keys, rngs):
            key = np.atleast_1d(key).tolist()
            ref = np.random.default_rng([seed, *key])
            assert rng.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(rng.normal(size=16), ref.normal(size=16))
            ref = np.random.default_rng([seed, *key])
            assert ex.sample_rng(seed, *key).bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("keys", [[3, -1], [2**32], [(0, 2**32)], [2**64], [(-(2**70), 1)]])
    def test_sample_keys_outside_32_bits_rejected(self, keys):
        with pytest.raises(OutOfRange):
            ex.sample_rngs(5, keys)

    def test_per_sample_streams_are_independent(self):
        # extending the run leaves earlier rows untouched
        a = ex.run_xstate_comparison(samples=10, seed=18)
        b = ex.run_xstate_comparison(samples=20, seed=18)
        assert np.array_equal(a.rows, b.rows[:10])
