"""Command-line frontend.

Subcommands: ``discord`` (one-off calculator), ``experiment`` (reproduction
harnesses, CSV/SVG output), ``classify`` (channel-file verdicts), and
``sample`` (state-file generation). Results go to stdout, diagnostics to
stderr. Exit codes: 0 success, 2 degenerate marginal, 3 parse error or
argument out of range, 4 invariant violation, 5 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import channels as ch
from . import discord as dd
from . import experiments as ex
from .errors import (
    DegenerateMarginal,
    DiagDiscordError,
    InvalidP,
    InvalidRank,
    OutOfRange,
    ParseError,
)
from .states import (
    MultipartiteState,
    _read_text,
    _write_text,
    load_state,
    sample_random_bipartite,
    sample_x_state,
    save_state,
)

#: seed used when neither --seed nor DD_SEED is given
DEFAULT_SEED = 7

EXIT_OK = 0
EXIT_DEGENERATE = 2
EXIT_PARSE = 3
EXIT_INVARIANT = 4
EXIT_IO = 5


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_rows_csv(path: Path, columns: list[str], rows: np.ndarray) -> None:
    line = ",".join(["{:.17g}"] * len(columns)).format
    lines = [",".join(columns), *(line(*row) for row in rows.tolist())]
    _write_text(path, "\n".join(lines) + "\n")


def read_rows_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = _read_text(path).splitlines()
    if not lines:
        raise ParseError(f"{path}: empty CSV")
    columns = lines[0].split(",")
    rows = np.array(
        [[float(v) for v in line.split(",")] for line in lines[1:]], dtype=float
    )
    return columns, rows


def write_summary_csv(path: Path, record: ex.ExperimentRecord) -> None:
    lines = ["key,value", f"experiment_id,{record.experiment_id}", f"seed,{record.seed}"]
    lines += [f"input.{key},{value}" for key, value in record.inputs.items()]
    lines += [f"{key},{_fmt(value)}" for key, value in record.summary.items()]
    _write_text(path, "\n".join(lines) + "\n")


def read_summary_csv(path: Path) -> dict[str, str]:
    lines = _read_text(path).splitlines()
    out: dict[str, str] = {}
    for line in lines[1:]:
        key, _, value = line.partition(",")
        out[key] = value
    return out


def write_scatter_svg(
    path: Path,
    rows: np.ndarray,
    x_col: int,
    y_col: int,
    x_label: str,
    y_label: str,
) -> None:
    """Minimal self-contained scatter with the identity baseline."""
    size, margin = 800, 70
    span = size - 2 * margin
    x = rows[:, x_col]
    y = rows[:, y_col]
    hi = max(float(x.max(initial=0.0)), float(y.max(initial=0.0)), 1e-12) * 1.05

    def sx(v: float) -> float:
        return margin + v / hi * span

    def sy(v: float) -> float:
        return size - margin - v / hi * span

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="{margin}" y1="{size - margin}" x2="{size - margin}" '
        f'y2="{size - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{size - margin}" '
        f'stroke="black"/>',
        f'<line x1="{sx(0):.2f}" y1="{sy(0):.2f}" x2="{sx(hi):.2f}" '
        f'y2="{sy(hi):.2f}" stroke="black" stroke-dasharray="6,4"/>',
        f'<text x="{size / 2:.0f}" y="{size - margin / 3:.0f}" '
        f'text-anchor="middle" font-size="20">{x_label}</text>',
        f'<text x="{margin / 3:.0f}" y="{size / 2:.0f}" text-anchor="middle" '
        f'font-size="20" transform="rotate(-90 {margin / 3:.0f} {size / 2:.0f})">'
        f"{y_label}</text>",
    ]
    for xv, yv in zip(x, y):
        parts.append(
            f'<circle cx="{sx(xv):.3f}" cy="{sy(yv):.3f}" r="2.5" '
            f'fill="steelblue" fill-opacity="0.55"/>'
        )
    parts.append("</svg>")
    _write_text(path, "\n".join(parts) + "\n")


def _parse(kind: type, text: str, name: str):
    """``kind(text)``; a malformed value raises ParseError naming it."""
    try:
        return kind(text)
    except ValueError as exc:
        raise ParseError(f"{name} = {text!r} is not a valid {kind.__name__}") from exc


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("DD_SEED")
    return DEFAULT_SEED if env is None else _parse(int, env, "DD_SEED")


def _cmd_discord(args) -> int:
    state = load_state(args.state_file)
    if args.mode == "multi":
        if not isinstance(state, MultipartiteState):
            state = MultipartiteState(state.rho, (state.dim_a, state.dim_b))
        parties = [_parse(int, p, "--parties") for p in args.parties.split(",") if args.parties]
        for p in parties:
            if not 0 <= p < len(state.dims):
                raise OutOfRange(f"--parties: index {p} outside 0..{len(state.dims) - 1}")
        value = dd.entropy_gain(state, dd.pi_multi(state, parties))
        print(f"{value:.12f}")
        return EXIT_OK
    if isinstance(state, MultipartiteState):
        raise ParseError("this mode requires a bipartite state file")
    if args.mode == "diagonal":
        res = dd.pi_a(state, optimize_degenerate=args.optimize_degenerate)
        print(f"{res.value:.12f}")
        print(f"degenerate={res.degenerate}", file=sys.stderr)
        print(f"basis columns (A):\n{res.basis_used}", file=sys.stderr)
    elif args.mode == "optimized2q":
        if (state.dim_a, state.dim_b) != (2, 2):
            raise ParseError(f"--mode optimized2q needs 2x2, not {state.dim_a}x{state.dim_b}")
        [result] = dd.optimized_discord_2q([state])
        print(f"{result.value:.12f}")
        print(
            f"best angles theta={result.theta:.9f} phi={result.phi:.9f}",
            file=sys.stderr,
        )
    elif args.mode == "generalized":
        p = _parse(float, args.p, "--p")
        try:
            value = dd.generalized_discord(state, p, optimize_degenerate=args.optimize_degenerate)
        except InvalidP as exc:
            raise ParseError(f"--p = {args.p!r}: {exc}") from exc
        print(f"{value:.12f}")
    else:
        raise ParseError(f"unknown mode {args.mode!r}")
    return EXIT_OK


def _run_experiment(args) -> ex.ExperimentRecord:
    seed = _resolve_seed(args)
    if args.experiment == "monotonicity":
        spec = args.channel
        if spec not in ex.BUILTIN_CHANNELS and Path(spec).exists():
            spec = ch.load_channel(spec)
        return ex.run_monotonicity(spec, samples=args.samples, seed=seed)
    if args.experiment == "xstate":
        return ex.run_xstate_comparison(
            samples=args.samples,
            seed=seed,
            equality_tol=args.tol_equality,
        )
    if args.experiment == "continuity":
        return ex.run_continuity_check(
            d_a=args.dims[0],
            d_b=args.dims[1],
            samples=args.samples,
            eps_list=args.eps,
            seed=seed,
        )
    if args.experiment == "classify-sweep":
        return ex.run_channel_classification(
            d_a=args.d_a, per_class=args.per_class, trials=args.trials, seed=seed
        )
    raise ParseError(f"unknown experiment {args.experiment!r}")


_SVG_AXES = {
    "monotonicity": (0, 1, "diagonal discord before", "diagonal discord after"),
    "xstate": (4, 5, "optimized discord", "diagonal discord"),
}


def _cmd_experiment(args) -> int:
    record = _run_experiment(args)
    out_dir = Path(args.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        rows_path = out_dir / f"{record.experiment_id}_rows.csv"
        summary_path = out_dir / f"{record.experiment_id}_summary.csv"
        write_rows_csv(rows_path, record.columns, record.rows)
        write_summary_csv(summary_path, record)
        written = [rows_path, summary_path]
        if args.svg and record.inputs["kind"] in _SVG_AXES:
            xc, yc, xl, yl = _SVG_AXES[record.inputs["kind"]]
            svg_path = out_dir / f"{record.experiment_id}.svg"
            write_scatter_svg(svg_path, record.rows, xc, yc, xl, yl)
            written.append(svg_path)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    for key, value in record.summary.items():
        print(f"{key} = {value:g}")
    for path in written:
        print(str(path))
    return EXIT_OK


def _cmd_classify(args) -> int:
    if not 0.0 < args.tol_commute < args.tol_violation < np.inf:  # so that NaN fails
        tols = f"{args.tol_commute} and {args.tol_violation}"
        raise OutOfRange(f"need 0 < --tol-commute < --tol-violation < inf, got {tols}")
    channel = ch.load_channel(args.channel_file)
    seed = _resolve_seed(args)
    rng_c, rng_g = ex.sample_rngs(seed, [0, 1])
    rep_c = ch.commutes_with_pi(channel, args.trials, rng_c, d_b=args.d_b)
    rep_g = ch.is_discord_nongenerating(channel, args.trials, rng_g, d_b=args.d_b)
    verdict_c = ch.condition_verdict(
        rep_c.max_deviation, args.tol_commute, args.tol_violation
    )
    verdict_g = ch.condition_verdict(
        rep_g.max_deviation, args.tol_commute, args.tol_violation, ch.NONGENERATING
    )
    print(
        f"commuting-condition: {verdict_c} "
        f"(max deviation {rep_c.max_deviation:.6e} over {args.trials} trials)"
    )
    print(
        f"nongenerating-condition: {verdict_g} "
        f"(max deviation {rep_g.max_deviation:.6e} over {args.trials} trials)"
    )
    out_dir = Path(args.output_dir)
    for label, rep in (("commute", rep_c), ("nongen", rep_g)):
        if rep.witness is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"witness_{label}.txt"
            save_state(rep.witness, path)
            print(f"witness ({label}): {path}")
    return EXIT_OK


def _cmd_sample(args) -> int:
    if args.count < 1:
        raise OutOfRange(f"--count must be >= 1, got {args.count}")
    rngs = ex.sample_rngs(_resolve_seed(args), range(args.count))
    # every state is drawn, and its dimensions and rank checked, before any output
    if args.what == "xstate":
        states, name = [sample_x_state(rng) for rng in rngs], "xstate_{:04d}.txt"
    else:
        d_a, d_b = args.dims
        states = [sample_random_bipartite(rng, d_a, d_b, args.rank) for rng in rngs]
        name = f"random_{d_a}x{d_b}_{{:04d}}.txt"
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, state in enumerate(states):
        path = out_dir / name.format(i)
        save_state(state, path)
        print(str(path))
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """Raises ParseError on a usage error, so that it exits EXIT_PARSE, not 2."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once: parsing leaves it unchanged, and commands read DD_SEED."""
    parser = _ArgumentParser(
        prog="diagdiscord",
        description="Diagonal quantum discord calculator and experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_disc = sub.add_parser("discord", help="compute a discord value for a state file")
    p_disc.add_argument("state_file")
    p_disc.add_argument(
        "--mode",
        choices=("diagonal", "optimized2q", "generalized", "multi"),
        default="diagonal",
    )
    p_disc.add_argument("--p", default="2", help="Schatten exponent for generalized mode")
    p_disc.add_argument(
        "--parties", default="", help="comma-separated party indices for multi mode"
    )
    p_disc.add_argument("--optimize-degenerate", action="store_true")

    p_exp = sub.add_parser("experiment", help="run a reproduction experiment")
    p_exp.add_argument(
        "experiment",
        choices=("monotonicity", "xstate", "continuity", "classify-sweep"),
    )
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.add_argument("--samples", type=int, default=1000)
    p_exp.add_argument("--output-dir", default=".")
    p_exp.add_argument("--svg", action="store_true")
    p_exp.add_argument("--channel", default="fig2a", help="built-in name or channel file")
    p_exp.add_argument("--tol-equality", type=float, default=1e-6)
    p_exp.add_argument("--dims", type=int, nargs=2, default=(2, 2))
    p_exp.add_argument("--eps", type=float, nargs="+", default=(1e-3, 1e-4))
    p_exp.add_argument("--d-a", type=int, default=2)
    p_exp.add_argument("--per-class", type=int, default=4)
    p_exp.add_argument("--trials", type=int, default=40)

    p_cls = sub.add_parser("classify", help="classify a channel file")
    p_cls.add_argument("channel_file")
    p_cls.add_argument("--trials", type=int, default=200)
    p_cls.add_argument("--seed", type=int, default=None)
    p_cls.add_argument("--d-b", type=int, default=2)
    p_cls.add_argument("--output-dir", default=".")
    p_cls.add_argument("--tol-commute", type=float, default=ch.COMMUTE_TOL)
    p_cls.add_argument("--tol-violation", type=float, default=ch.VIOLATION_TOL)

    p_smp = sub.add_parser("sample", help="write random state files")
    p_smp.add_argument("what", choices=("xstate", "random"))
    p_smp.add_argument("--count", type=int, default=1)
    p_smp.add_argument("--seed", type=int, default=None)
    p_smp.add_argument("--dims", type=int, nargs=2, default=(2, 2))
    p_smp.add_argument("--rank", type=int, default=None)
    p_smp.add_argument("--output-dir", default=".")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # looked up by name on each call, not bound into the shared parser
        return globals()[f"_cmd_{args.command}"](args)
    except DegenerateMarginal as exc:
        print(f"degenerate marginal: {exc}", file=sys.stderr)
        if exc.blocks:
            print(f"degenerate blocks: {list(exc.blocks)}", file=sys.stderr)
        if exc.party is not None:
            print(f"offending party: {exc.party}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ParseError, OutOfRange, InvalidRank, InvalidP) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DiagDiscordError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
