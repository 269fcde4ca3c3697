import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from diagdiscord import channels as ch
from diagdiscord import cli
from diagdiscord import experiments as ex
from diagdiscord import states as st
from diagdiscord import errors
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

    @pytest.mark.parametrize("p, want", [("1", "1.000000000000"), ("inf", "0.500000000000")])
    def test_generalized_nonsmooth_norms_with_degeneracy_optimization(
        self, bell_file, capsys, p, want
    ):
        # every basis of A is optimal for the Bell state
        argv = ["discord", bell_file, "--mode", "generalized", "--p", p, "--optimize-degenerate"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.strip() == want

    @pytest.mark.parametrize(
        "mode, flag, value", [("generalized", "--p", "abc"), ("multi", "--parties", "x")]
    )
    def test_malformed_number_exits_3(self, bell_file, capsys, mode, flag, value):
        assert cli.main(["discord", bell_file, "--mode", mode, flag, value]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert flag in err and repr(value) in err

    @pytest.mark.parametrize(
        "p, code", [("0.5", cli.EXIT_PARSE), ("nan", cli.EXIT_PARSE), ("inf", cli.EXIT_OK)]
    )
    def test_schatten_exponent_is_checked_as_input(self, bell_file, capsys, p, code):
        argv = ["discord", bell_file, "--mode", "generalized", "--p", p, "--optimize-degenerate"]
        assert cli.main(argv) == code
        err = capsys.readouterr().err
        if code == cli.EXIT_PARSE:
            assert err.startswith("parse error:") and "--p" in err and repr(p) in err

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
            monkeypatch.setattr(
                st, "_x_candidate_ok", lambda r: np.zeros(len(r), dtype=bool)
            )
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

    def test_zero_d_b_is_named_as_a_dimension(self, tmp_path, capsys):
        path = tmp_path / "ph.txt"
        ch.save_channel(ch.probabilistic_hadamard(), path)
        assert cli.main(["classify", str(path), "--d-b", "0"]) == cli.EXIT_PARSE
        assert "subsystem dimensions (2, 0) must be >= 1" in capsys.readouterr().err

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

    @pytest.mark.parametrize("what", ["xstate", "random"])
    def test_file_i_is_drawn_from_the_generator_of_seed_and_i(self, what, tmp_path, capsys):
        seed = 20171017
        assert cli.main([
            "sample", what, "--count", "3", "--seed", str(seed),
            "--output-dir", str(tmp_path / "out"),
        ]) == 0
        paths = capsys.readouterr().out.strip().splitlines()
        assert len(paths) == 3
        for i, path in enumerate(paths):
            rng = np.random.default_rng([seed, i])
            want = (
                st.sample_x_state(rng) if what == "xstate"
                else st.sample_random_bipartite(rng, 2, 2, 4)
            )
            st.save_state(want, tmp_path / "want.txt")
            assert Path(path).read_bytes() == (tmp_path / "want.txt").read_bytes()


@pytest.mark.parametrize(
    "argv, env",
    [
        pytest.param(["experiment", "xstate", "--samples", "abc"], {}, id="samples=abc"),
        pytest.param(["experiment", "xstate", "--samples", "0"], {}, id="samples=0"),
        pytest.param(["experiment", "xstate", "--seed", "-1"], {}, id="seed=-1"),
        pytest.param(["experiment", "xstate"], {"DD_SEED": "-1"}, id="DD_SEED=-1"),
        pytest.param(["sample", "xstate", "--seed", "-1"], {}, id="sample-seed=-1"),
        pytest.param(
            ["sample", "xstate", "--count", "0", "--seed", "-1"], {}, id="sample-count=0-seed=-1"
        ),
        pytest.param(["experiment", "continuity", "--eps", "5"], {}, id="eps=5"),
        pytest.param(["experiment", "classify-sweep", "--d-a", "1"], {}, id="d-a=1"),
        pytest.param(["experiment", "xstate", "--tol-equality", "0"], {}, id="tol-equality=0"),
        pytest.param(["experiment", "xstate", "--tol-equality", "nan"], {}, id="tol-equality=nan"),
        pytest.param(["experiment", "continuity", "--dims", "0", "2"], {}, id="continuity-dims=0x2"),
        pytest.param(["experiment", "continuity", "--dims", "1", "1"], {}, id="continuity-dims=1x1"),
        pytest.param(["sample", "random", "--dims", "0", "2"], {}, id="sample-dims=0x2"),
        pytest.param(["sample", "random", "--rank", "9"], {}, id="rank=9"),
        pytest.param(["experiment", "monotonicity", "--channel", "nosuch"], {}, id="channel=nosuch"),
    ],
)
def test_bad_argument_exits_3(argv, env, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("DD_SEED", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert cli.main(argv + ["--output-dir", str(tmp_path)]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error:")


@pytest.mark.parametrize(
    "channel, line, argv, message",
    [
        pytest.param(
            ch.amplitude_damping(0.5), 1, ["classify"], "Kraus operator K_0 has non-finite entries",
            id="kraus-entry",
        ),
        pytest.param(
            ch.probabilistic_hadamard(), 2, ["experiment", "monotonicity", "--channel"],
            "U_0 has non-finite entries", id="unitary-entry",
        ),
        pytest.param(
            ch.probabilistic_hadamard(), 1, ["experiment", "monotonicity", "--channel"],
            "nan 0.66666667] is not a distribution", id="probability",
        ),
    ],
)
def test_non_finite_channel_entry_exits_4_naming_it(channel, line, argv, message, tmp_path, capsys):
    lines = ch.channel_to_text(channel).splitlines()
    lines[line] = " ".join(["nan", *lines[line].split()[1:]])
    path = tmp_path / "nan_channel.txt"
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(argv + [str(path), "--output-dir", str(tmp_path / "out")]) == cli.EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


#: the exit code README documents for each library error
DOCUMENTED_EXIT_CODES = {
    errors.DegenerateMarginal: cli.EXIT_DEGENERATE,
    errors.ParseError: cli.EXIT_PARSE,
    errors.OutOfRange: cli.EXIT_PARSE,
    errors.InvalidRank: cli.EXIT_PARSE,
    errors.InvalidP: cli.EXIT_PARSE,
    errors.NotHermitian: cli.EXIT_INVARIANT,
    errors.ConvergenceFailure: cli.EXIT_INVARIANT,
    errors.NotDensityMatrix: cli.EXIT_INVARIANT,
    errors.NotPositiveSemidefinite: cli.EXIT_INVARIANT,
    errors.SupportViolation: cli.EXIT_INVARIANT,
    errors.OutOfDomain: cli.EXIT_INVARIANT,
    errors.InvariantViolation: cli.EXIT_INVARIANT,
    errors.DimensionMismatch: cli.EXIT_INVARIANT,
    errors.InvalidDistribution: cli.EXIT_INVARIANT,
    errors.InvalidBasis: cli.EXIT_INVARIANT,
    errors.InvalidChannel: cli.EXIT_INVARIANT,
    errors.DegenerateOutput: cli.EXIT_INVARIANT,
}


@pytest.mark.parametrize(
    "error", list(_subclasses(errors.DiagDiscordError)), ids=lambda e: e.__name__
)
def test_every_library_error_exits_with_its_documented_code(error, capsys, monkeypatch):
    # a new error type is missing from the table, and fails here until it gets a code
    def fail(args):
        raise error("raised by the command")

    monkeypatch.setattr(cli, "_cmd_sample", fail)
    assert cli.main(["sample", "xstate"]) == DOCUMENTED_EXIT_CODES[error]
    assert "raised by the command" in capsys.readouterr().err


def test_importing_the_cli_loads_no_scipy():
    """scipy is imported by the degenerate-eigenbasis search only, not at start-up."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, diagdiscord.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"


def test_importing_the_cli_loads_no_numpy_random():
    """numpy.random is loaded by the first generator a command makes, not at start-up."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, diagdiscord.cli; print('numpy.random' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "False"
