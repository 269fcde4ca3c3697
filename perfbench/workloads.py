"""What one round of each workload asks the program to do.

A round is a fixed list of `diagdiscord experiment ...` CLI calls. Every run
repeats whole rounds, so the share of failed rows never depends on how long
the run was. Round k of a run with seed s passes the experiment seed
s * 1000 + k, so the same benchmark seed always gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Call:
    """One CLI call: the experiment table it writes and how many rows it asks for."""

    experiment_id: str
    rows: int
    args: tuple[str, ...]

    def argv(self, seed: int, out_dir: str) -> list[str]:
        return ["experiment", *self.args, "--seed", str(seed), "--output-dir", out_dir]


XSTATE_SAMPLES = 300
MONO_SAMPLES = 600
FIG2_CHANNELS = ("fig2a", "fig2b", "fig2c")
CLASSIFY_DIMS = (3, 4)
#: classes sampled by the sweep at d_A >= 3: mixed-unitary, isotropic with a
#: unitary core, isotropic with an antiunitary core, semiclassical
CLASSIFY_CLASSES = 4
CLASSIFY_PER_CLASS = 2
CLASSIFY_TRIALS = 40

ROUNDS: dict[str, tuple[Call, ...]] = {
    "xstate": (
        Call(
            "xstate",
            XSTATE_SAMPLES,
            ("xstate", "--samples", str(XSTATE_SAMPLES), "--tol-equality", "1e-6"),
        ),
    ),
    "monotonicity": tuple(
        Call(
            f"monotonicity_{name}",
            MONO_SAMPLES,
            ("monotonicity", "--channel", name, "--samples", str(MONO_SAMPLES)),
        )
        for name in FIG2_CHANNELS
    ),
    "classify": tuple(
        Call(
            f"classify_d{d}",
            CLASSIFY_CLASSES * CLASSIFY_PER_CLASS,
            (
                "classify-sweep",
                "--d-a", str(d),
                "--per-class", str(CLASSIFY_PER_CLASS),
                "--trials", str(CLASSIFY_TRIALS),
            ),
        )
        for d in CLASSIFY_DIMS
    ),
}

#: rounds of the traced run, and the fewest an untraced run makes however short
#: it is: the traced run's counts repeat at a given seed, and the run-wide checks
#: see enough rows: xstate's match_fraction, about 0.31 with a spread of
#: 0.028 over 300 rows, needs 4500 rows to keep 3 standard errors inside
#: its [0.29, 0.35] check.
MIN_ROUNDS = {"xstate": 15, "monotonicity": 4, "classify": 4}
#: round seeds are seed * MAX_ROUNDS + k, so no two (seed, k) pairs collide
MAX_ROUNDS = 1000


def round_seed(seed: int, k: int) -> int:
    return seed * MAX_ROUNDS + k
