import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from diagdiscord import channels as ch
from diagdiscord import cli
from diagdiscord import discord as dd
from diagdiscord import experiments as ex
from diagdiscord import states as st
from diagdiscord import errors
from helpers import bell_state, marginal_filtered_state, random_density


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.txt"
    st.save_state(bell_state(), path)
    return str(path)


@pytest.fixture
def qutrit_mixed_file(tmp_path):
    """A 3 x 2 state whose rho_A is I/3: one degenerate block of 3 columns."""
    state = marginal_filtered_state(np.random.default_rng(3), 3, 2, np.ones(3) / 3.0)
    path = tmp_path / "qutrit.txt"
    st.save_state(state, path)
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

    def test_optimized_mode_on_a_general_state(self, tmp_path, capsys):
        path = tmp_path / "ginibre.txt"
        st.save_state(st.BipartiteState(random_density(np.random.default_rng(29), 4), 2, 2), path)
        state = st.load_state(path)
        assert not dd._x_shaped(*dd._bloch_form(state.rho[None]))[0]
        [want] = dd.optimized_discord_2q([state])
        assert cli.main(["discord", str(path), "--mode", "optimized2q"]) == 0
        assert capsys.readouterr().out == f"{want.value:.12f}\n"
        assert want.value <= dd.pi_a(state).value + 1e-12

    def test_generalized_mode(self, bell_file, capsys):
        code = cli.main(
            ["discord", bell_file, "--mode", "generalized", "--p", "2", "--optimize-degenerate"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert float(out.strip()) == pytest.approx(1 / np.sqrt(2), abs=1e-9)

    @pytest.mark.parametrize(
        "argv",
        [["--mode", "diagonal"], ["--mode", "generalized", "--p", "2"]],
        ids=["diagonal", "p2"],
    )
    def test_threefold_degenerate_marginal_is_optimized(self, qutrit_mixed_file, capsys, argv):
        assert cli.main(["discord", qutrit_mixed_file, *argv, "--optimize-degenerate"]) == 0
        assert float(capsys.readouterr().out.strip().splitlines()[0]) > 0.0

    @pytest.mark.parametrize("p", ["1", "inf"])
    def test_threefold_block_is_refused_at_p1_and_pinf(self, qutrit_mixed_file, capsys, p):
        argv = ["discord", qutrit_mixed_file, "--mode", "generalized", "--p", p,
                "--optimize-degenerate"]
        assert cli.main(argv) == cli.EXIT_DEGENERATE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "block of dimension 3" in captured.err and f"p = {float(p)}" in captured.err
        assert "degenerate blocks: [(0, 3)]" in captured.err

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

    @pytest.mark.parametrize("p", ["0.5", "nan"])
    def test_bad_schatten_exponent_is_reported_before_the_degenerate_marginal(
        self, bell_file, capsys, p
    ):
        assert cli.main(["discord", bell_file, "--mode", "generalized", "--p", p]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and "--p" in err and repr(p) in err

    def test_multi_mode(self, tmp_path, capsys):
        rho = 0.8 * bell_state().rho + 0.2 * np.diag([0.4, 0.3, 0.2, 0.1])
        path = tmp_path / "multi.txt"
        st.save_state(st.MultipartiteState(rho, (2, 2)), path)
        code = cli.main(["discord", str(path), "--mode", "multi", "--parties", "0,1"])
        out = capsys.readouterr().out
        assert code == 0
        assert float(out.strip()) > 0.1

    @pytest.mark.parametrize(
        "dims, argv",
        [
            pytest.param((2, 2), ["--mode", "multi", "--parties", "5"], id="party-out-of-range"),
            pytest.param((2, 2), ["--mode", "multi", "--parties", "0,2"], id="party-2-of-2"),
            pytest.param((2, 3), ["--mode", "optimized2q"], id="optimized2q-on-2x3"),
        ],
    )
    def test_argument_that_does_not_fit_the_state_exits_3(self, dims, argv, tmp_path, capsys):
        path = tmp_path / "state.txt"
        d = math.prod(dims)
        st.save_state(st.BipartiteState(np.eye(d) / d, *dims), path)
        assert cli.main(["discord", str(path), *argv]) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error:")

    def test_parse_error_exit_3(self, tmp_path, capsys):
        path = tmp_path / "garbage.txt"
        path.write_text("not a state\n")
        assert cli.main(["discord", str(path)]) == cli.EXIT_PARSE

    def test_trailing_rows_exit_3(self, tmp_path, capsys):
        path = tmp_path / "trailing.txt"
        path.write_text("dims 1 2\n0.5 0 0 0\n0 0 0.5 0\n1 0 0 0\n")
        assert cli.main(["discord", str(path)]) == cli.EXIT_PARSE
        assert "trailing data" in capsys.readouterr().err

    @pytest.mark.parametrize("header", ["dims -1 2", "dims 0 2", "dims -1 -2"])
    def test_dimension_below_1_exits_3(self, header, tmp_path, capsys):
        path = tmp_path / "dims.txt"
        path.write_text(header + "\n0.5 0 0 0\n0 0 0.5 0\n")
        assert cli.main(["discord", str(path)]) == cli.EXIT_PARSE
        assert capsys.readouterr().err.startswith(f"parse error: bad dims header '{header}'")

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
        monkeypatch.setattr(
            ex, "_optimized_2q",
            lambda states: (np.full(len(states), 10.0), None, None),
        )
        code = cli.main([
            "experiment", "xstate", "--samples", "2", "--seed", "1",
            "--output-dir", str(tmp_path / "x"),
        ])
        assert code == cli.EXIT_INVARIANT
        assert "exceeds diagonal discord" in capsys.readouterr().err

    @pytest.mark.parametrize("loop", ["x_params", "xstate_degenerate"])
    def test_rejection_loop_that_never_accepts_exits_4(
        self, loop, tmp_path, capsys, monkeypatch
    ):
        if loop == "x_params":
            monkeypatch.setattr(
                st, "_x_candidate_ok", lambda r: np.zeros(len(r), dtype=bool)
            )
            expected = "valid X-state"
        else:
            mixed = st.BipartiteState(np.eye(4) / 4, 2, 2)
            monkeypatch.setattr(ex, "x_state_from_params", lambda params: mixed)
            expected = "nondegenerate A-marginal"
        code = cli.main([
            "experiment", "xstate", "--samples", "1", "--seed", "1",
            "--output-dir", str(tmp_path / "o"),
        ])
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

    def test_channel_dimension_below_1_exits_3(self, tmp_path, capsys):
        path = tmp_path / "k0.txt"
        path.write_text("kraus 0 1\n")
        assert cli.main(["classify", str(path), "--d-b", "1"]) == cli.EXIT_PARSE
        assert capsys.readouterr().err == "parse error: kraus op: dimension 0 is below 1\n"

    def test_tolerances_are_checked_before_any_scan(self, tmp_path, capsys):
        # 1 would call the probabilistic Hadamard's 0.4 deviation "commuting"
        path = tmp_path / "ph.txt"
        ch.save_channel(ch.probabilistic_hadamard(), path)
        out_dir = tmp_path / "wit"
        assert cli.main([
            "classify", str(path), "--trials", "15", "--tol-commute", "1",
            "--output-dir", str(out_dir),
        ]) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol-commute" in captured.err
        assert not out_dir.exists()

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
    "argv",
    [
        pytest.param(["experiment", "monotonicity", "--samples", "0"], id="monotonicity-samples=0"),
        pytest.param(["experiment", "xstate", "--samples", "0"], id="xstate-samples=0"),
        pytest.param(["experiment", "continuity", "--samples", "0"], id="continuity-samples=0"),
        pytest.param(["experiment", "classify-sweep", "--per-class", "0"], id="sweep-per-class=0"),
        pytest.param(["experiment", "classify-sweep", "--trials", "0"], id="sweep-trials=0"),
        pytest.param(["classify", "CHANNEL", "--trials", "0"], id="classify-trials=0"),
        pytest.param(["sample", "random", "--count", "0"], id="sample-count=0"),
        pytest.param(["sample", "xstate", "--count", "-2"], id="sample-count=-2"),
    ],
)
def test_count_below_one_exits_3_before_any_output(argv, tmp_path, capsys):
    channel = tmp_path / "ph.txt"
    ch.save_channel(ch.probabilistic_hadamard(), channel)
    out = tmp_path / "out"
    argv = [str(channel) if a == "CHANNEL" else a for a in argv]
    assert cli.main(argv + ["--output-dir", str(out)]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error:")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["--dims", "0", "2"], ["--rank", "9"], ["--rank", "0"]],
    ids=["dims=0x2", "rank=9", "rank=0"],
)
def test_bad_sample_dims_or_rank_exits_3_before_any_output(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["sample", "random", *argv, "--output-dir", str(out)]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error:")
    assert not out.exists()


def test_rows_csv_writes_each_value_as_fmt_does(tmp_path):
    values = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1, 1.0 / 3.0, 1e16]
    rows = np.array([values, values[::-1]])
    columns = [f"c{i}" for i in range(len(values))]
    cli.write_rows_csv(tmp_path / "rows.csv", columns, rows)
    want = [",".join(columns), *(",".join(cli._fmt(v) for v in row) for row in rows)]
    assert (tmp_path / "rows.csv").read_bytes() == ("\n".join(want) + "\n").encode("ascii")


def test_every_readme_cli_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```")[1]
    # "[--flag]" marks an optional flag: parse the example with it
    examples = [
        shlex.split(line.replace("[", "").replace("]", ""))[1:]
        for line in block.splitlines()
        if line.startswith("diagdiscord ")
    ]
    parser = cli.build_parser()
    for argv in examples:
        parser.parse_args(argv)
    assert {argv[0] for argv in examples} == {"discord", "experiment", "classify", "sample"}


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
        # the tolerances are checked before the channel file is read
        *(
            pytest.param(
                ["classify", "nosuch.txt", "--tol-commute", c, "--tol-violation", v], {},
                id=f"tol-commute={c}-tol-violation={v}",
            )
            for c, v in [
                ("1", "1e-3"), ("1e-3", "1e-3"), ("0", "1e-3"), ("-1", "1e-3"),
                ("nan", "1e-3"), ("1e-9", "nan"), ("1e-9", "inf"),
            ]
        ),
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


def test_shared_parser_gives_what_fresh_processes_give(tmp_path, capsys, monkeypatch):
    """main builds its parser once per process, and DD_SEED is still read on each call."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    assert cli.build_parser() is cli.build_parser()
    calls = [
        (["sample", "xstate", "--count", "2"], "5"),
        (["experiment", "xstate", "--samples", "20"], "7"),
    ]
    for k, (argv, seed) in enumerate(calls):
        here, fresh = tmp_path / f"here{k}", tmp_path / f"fresh{k}"
        monkeypatch.setenv("DD_SEED", seed)
        assert cli.main([*argv, "--output-dir", str(here)]) == 0
        subprocess.run(
            [sys.executable, "-m", "diagdiscord.cli", *argv, "--output-dir", str(fresh)],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            check=True,
        )
        names = sorted(p.name for p in here.iterdir())
        assert names and names == sorted(p.name for p in fresh.iterdir())
        for name in names:
            assert (here / name).read_bytes() == (fresh / name).read_bytes(), name
    capsys.readouterr()
