import numpy as np
import pytest

from diagdiscord import channels as ch
from diagdiscord import experiments as ex
from diagdiscord.errors import OutOfRange


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


class TestContinuity:
    def test_slack_nonnegative(self):
        rec = ex.run_continuity_check(2, 2, samples=25, eps_list=[1e-3, 1e-4], seed=10)
        assert rec.rows.shape == (50, 8)
        assert rec.summary["min_slack"] >= 0.0
        assert rec.summary["min_schatten_slack"] >= 0.0

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

    def test_summary_recomputable(self):
        rec = ex.run_channel_classification(2, per_class=1, trials=5, seed=17)
        derived = ex.recompute_row_summary(rec)
        for key, value in derived.items():
            assert rec.summary[key] == value


class TestSeedHandling:
    def test_negative_seed_rejected(self):
        with pytest.raises(OutOfRange):
            ex.run_xstate_comparison(samples=5, seed=-1)

    def test_per_sample_streams_are_independent(self):
        # extending the run leaves earlier rows untouched
        a = ex.run_xstate_comparison(samples=10, seed=18)
        b = ex.run_xstate_comparison(samples=20, seed=18)
        assert np.array_equal(a.rows, b.rows[:10])
