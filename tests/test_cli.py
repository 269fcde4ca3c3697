import time

import numpy as np
import pytest

from diagdiscord import channels as ch
from diagdiscord import cli
from diagdiscord import experiments as ex
from diagdiscord import states as st
from diagdiscord.errors import DegenerateMarginal
from helpers import bell_state, random_density


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.txt"
    st.save_state(bell_state(), path)
    return str(path)


@pytest.fixture
def cq_file(tmp_path):
    rng = np.random.default_rng(0)
    s = st.classical_quantum_state(
        [0.7, 0.3], np.eye(2), [random_density(rng, 2) for _ in range(2)]
    )
    path = tmp_path / "cq.txt"
    st.save_state(s, path)
    return str(path)


class TestDiscordCommand:
    def test_bell_with_degeneracy_optimization(self, bell_file, capsys):
        code = cli.main(["discord", bell_file, "--mode", "diagonal", "--optimize-degenerate"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip() == "1.000000000000"

    def test_degenerate_without_flag_exits_2(self, bell_file, capsys):
        code = cli.main(["discord", bell_file, "--mode", "diagonal"])
        err = capsys.readouterr().err
        assert code == cli.EXIT_DEGENERATE
        assert "degenerate" in err

    def test_classical_quantum_is_zero(self, cq_file, capsys):
        code = cli.main(["discord", cq_file])
        out = capsys.readouterr().out
        assert code == 0
        assert abs(float(out.strip().splitlines()[0])) <= 1e-10

    def test_optimized_mode(self, bell_file, capsys):
        code = cli.main(["discord", bell_file, "--mode", "optimized2q"])
        out = capsys.readouterr().out
        assert code == 0
        assert float(out.strip().splitlines()[0]) == pytest.approx(1.0, abs=1e-9)

    def test_generalized_mode(self, bell_file, capsys):
        code = cli.main(
            ["discord", bell_file, "--mode", "generalized", "--p", "2", "--optimize-degenerate"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert float(out.strip()) == pytest.approx(1 / np.sqrt(2), abs=1e-9)

    def test_multi_mode(self, tmp_path, capsys):
        rho = 0.8 * bell_state().rho + 0.2 * np.diag([0.4, 0.3, 0.2, 0.1])
        path = tmp_path / "multi.txt"
        st.save_state(st.MultipartiteState(rho, (2, 2)), path)
        code = cli.main(["discord", str(path), "--mode", "multi", "--parties", "0,1"])
        out = capsys.readouterr().out
        assert code == 0
        assert float(out.strip()) > 0.1

    def test_parse_error_exit_3(self, tmp_path, capsys):
        path = tmp_path / "garbage.txt"
        path.write_text("not a state\n")
        assert cli.main(["discord", str(path)]) == cli.EXIT_PARSE

    def test_invariant_violation_exit_4(self, tmp_path, capsys):
        path = tmp_path / "nontrace.txt"
        path.write_text("dims 2 2\n" + st._format_matrix_rows(np.eye(4).astype(complex))[0] + "\n"
                        + "\n".join(st._format_matrix_rows(np.eye(4).astype(complex))[1:]) + "\n")
        assert cli.main(["discord", str(path)]) == cli.EXIT_INVARIANT


class TestExperimentCommand:
    def test_files_byte_identical_across_reruns(self, tmp_path, capsys):
        args = [
            "experiment", "monotonicity", "--channel", "fig2a",
            "--samples", "25", "--seed", "7",
        ]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(args + ["--output-dir", str(d1)]) == 0
        assert cli.main(args + ["--output-dir", str(d2)]) == 0
        capsys.readouterr()
        for name in ("monotonicity_fig2a_rows.csv", "monotonicity_fig2a_summary.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_csv_roundtrip_matches_summary_file(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main([
            "experiment", "xstate", "--samples", "30", "--seed", "9",
            "--output-dir", str(out),
        ]) == 0
        capsys.readouterr()
        columns, rows = cli.read_rows_csv(out / "xstate_rows.csv")
        summary = cli.read_summary_csv(out / "xstate_summary.csv")
        recomputed = ex.SUMMARIZERS["xstate"](rows, {"equality_tol": 1e-6})
        for key, value in recomputed.items():
            assert summary[key] == cli._fmt(value)

    def test_svg_written(self, tmp_path, capsys):
        out = tmp_path / "svg"
        assert cli.main([
            "experiment", "monotonicity", "--channel", "fig2b",
            "--samples", "10", "--seed", "3", "--svg", "--output-dir", str(out),
        ]) == 0
        capsys.readouterr()
        svg = (out / "monotonicity_fig2b.svg").read_text()
        assert svg.startswith("<svg")
        assert "stroke-dasharray" in svg  # identity baseline
        assert "diagonal discord before" in svg

    def test_continuity_subcommand(self, tmp_path, capsys):
        out = tmp_path / "cont"
        assert cli.main([
            "experiment", "continuity", "--dims", "2", "2", "--samples", "8",
            "--eps", "1e-3", "1e-4", "--seed", "4", "--output-dir", str(out),
        ]) == 0
        stdout = capsys.readouterr().out
        assert "min_slack" in stdout
        summary = cli.read_summary_csv(out / "continuity_2x2_summary.csv")
        assert float(summary["min_slack"]) >= 0.0

    def test_continuity_without_admissible_base_state_exits_4(self, tmp_path, capsys):
        # no 4x4 Hilbert-Schmidt state has the marginal gap eps = 1e-3 needs
        start = time.perf_counter()
        code = cli.main([
            "experiment", "continuity", "--dims", "4", "4", "--samples", "1",
            "--seed", "1", "--output-dir", str(tmp_path / "cont"),
        ])
        assert code == cli.EXIT_INVARIANT
        assert time.perf_counter() - start < 10.0
        err = capsys.readouterr().err
        assert "eps = 0.001" in err and "gap" in err

    def test_xstate_upper_bound_violation_exits_4(self, tmp_path, capsys, monkeypatch):
        from diagdiscord.discord import OptimizedDiscordResult

        monkeypatch.setattr(
            ex, "optimized_discord_2q",
            lambda states: [OptimizedDiscordResult(value=10.0, theta=0.0, phi=0.0)] * len(states),
        )
        code = cli.main([
            "experiment", "xstate", "--samples", "2", "--seed", "1",
            "--output-dir", str(tmp_path / "x"),
        ])
        assert code == cli.EXIT_INVARIANT
        assert "exceeds diagonal discord" in capsys.readouterr().err

    @pytest.mark.parametrize("loop", ["x_params", "xstate_degenerate", "mono_degenerate"])
    def test_rejection_loop_that_never_accepts_exits_4(
        self, loop, tmp_path, capsys, monkeypatch
    ):
        xstate = ["experiment", "xstate", "--samples", "1"]
        classify = ["experiment", "classify-sweep", "--d-a", "2", "--per-class", "1",
                    "--trials", "2"]
        if loop == "x_params":
            monkeypatch.setattr(st, "_x_candidate_ok", lambda *r: False)
            args, expected = xstate, "valid X-state"
        elif loop == "xstate_degenerate":
            mixed = st.BipartiteState(np.eye(4) / 4, 2, 2)
            monkeypatch.setattr(ex, "x_state_from_params", lambda params: mixed)
            args, expected = xstate, "nondegenerate A-marginal"
        else:
            def degenerate(*a, **k):
                raise DegenerateMarginal("degenerate")
            monkeypatch.setattr(ex, "pi_a", degenerate)
            args, expected = classify, "acceptance 0"
        code = cli.main(args + ["--seed", "1", "--output-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_INVARIANT
        assert expected in capsys.readouterr().err

    def test_classify_sweep_subcommand(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert cli.main([
            "experiment", "classify-sweep", "--d-a", "2", "--per-class", "1",
            "--trials", "6", "--seed", "5", "--output-dir", str(out),
        ]) == 0
        capsys.readouterr()
        summary = cli.read_summary_csv(out / "classify_d2_summary.csv")
        assert summary["injected_hadamard_noncommuting"] == cli._fmt(1.0)

    def test_dd_seed_env(self, tmp_path, capsys, monkeypatch):
        d1, d2 = tmp_path / "e1", tmp_path / "e2"
        monkeypatch.setenv("DD_SEED", "21")
        assert cli.main([
            "experiment", "monotonicity", "--samples", "10", "--output-dir", str(d1),
        ]) == 0
        monkeypatch.delenv("DD_SEED")
        assert cli.main([
            "experiment", "monotonicity", "--samples", "10", "--seed", "21",
            "--output-dir", str(d2),
        ]) == 0
        capsys.readouterr()
        name = "monotonicity_fig2a_rows.csv"
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


class TestClassifyCommand:
    def test_isotropic_file(self, tmp_path, capsys):
        path = tmp_path / "iso.txt"
        ch.save_channel(ch.random_isotropic(np.random.default_rng(1), 3), path)
        assert cli.main(["classify", str(path), "--trials", "15", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "commuting-condition: commuting" in out
        assert "nongenerating-condition: nongenerating" in out

    def test_probabilistic_hadamard_file(self, tmp_path, capsys):
        path = tmp_path / "ph.txt"
        ch.save_channel(ch.probabilistic_hadamard(), path)
        out_dir = tmp_path / "wit"
        assert cli.main([
            "classify", str(path), "--trials", "15", "--seed", "2",
            "--output-dir", str(out_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "commuting-condition: non-commuting" in out
        assert "nongenerating-condition: nongenerating" in out
        witness = st.load_state(out_dir / "witness_commute.txt")
        assert isinstance(witness, st.BipartiteState)

    def test_semiclassical_with_antiunitary_inner_file(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        inner = ch.random_isotropic(rng, 2, antiunitary=True)
        channel = ch.SemiclassicalChannel(ch.haar_unitary(rng, 2), inner)
        path = tmp_path / "sc_anti.txt"
        ch.save_channel(channel, path)
        assert cli.main([
            "classify", str(path), "--trials", "15", "--seed", "2",
            "--output-dir", str(tmp_path / "wit"),
        ]) == 0
        out = capsys.readouterr().out
        assert "nongenerating-condition: nongenerating" in out

    def test_amplitude_damping_file(self, tmp_path, capsys):
        path = tmp_path / "ad.txt"
        ch.save_channel(ch.amplitude_damping(0.5), path)
        out_dir = tmp_path / "wit"
        assert cli.main([
            "classify", str(path), "--trials", "15", "--seed", "2",
            "--output-dir", str(out_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "nongenerating-condition: generating" in out
        assert (out_dir / "witness_nongen.txt").exists()

    def test_parse_error(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("wibble 7\n")
        assert cli.main(["classify", str(path)]) == cli.EXIT_PARSE


class TestSampleCommand:
    def test_sample_xstate(self, tmp_path, capsys):
        out = tmp_path / "samples"
        assert cli.main([
            "sample", "xstate", "--count", "3", "--seed", "6", "--output-dir", str(out),
        ]) == 0
        paths = capsys.readouterr().out.strip().splitlines()
        assert len(paths) == 3
        for p in paths:
            s = st.load_state(p)
            assert isinstance(s, st.BipartiteState)
            assert np.max(np.abs(s.rho.imag)) == 0.0

    def test_sample_random_with_rank(self, tmp_path, capsys):
        out = tmp_path / "samples"
        assert cli.main([
            "sample", "random", "--count", "2", "--dims", "2", "3", "--rank", "1",
            "--seed", "6", "--output-dir", str(out),
        ]) == 0
        paths = capsys.readouterr().out.strip().splitlines()
        from diagdiscord.linalg import von_neumann_entropy

        for p in paths:
            s = st.load_state(p)
            assert s.dim_a == 2 and s.dim_b == 3
            assert von_neumann_entropy(s.rho) <= 1e-10
