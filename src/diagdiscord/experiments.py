"""Reproduction harnesses for the numerical studies.

Every experiment is driven by a master seed; the work for sample ``i`` uses
an independent substream derived from (seed, i), so records are
bit-identical for identical (experiment, seed, parameters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import channels as ch
from .discord import (
    SchattenNorm,
    continuity_bound,
    diagonal_discord,
    generalized_discord,
    optimized_discord_2q,
    pi_a,
    schatten_continuity_bound,
)
from .errors import (
    DegenerateMarginal,
    InvariantViolation,
    NotDensityMatrix,
    OutOfDomain,
    OutOfRange,
)
from .linalg import trace_norm
from .states import (
    BipartiteState,
    sample_nondegenerate,
    sample_random_bipartite,
    sample_x_params,
    x_state_from_params,
)

#: D_after may exceed D_before by at most this much before counting as violation
MONOTONICITY_TOL = 1e-9
#: marginal min-gap below which a sample is treated as degenerate
MARGINAL_GAP_TOL = 1e-8
UPPER_BOUND_TOL = 1e-9
#: X-states run_xstate_comparison draws per sample before giving up; 1 of
#: 10^6 valid X-states has a marginal gap below DEGENERACY_TOL.
XSTATE_DEGENERATE_BUDGET = 1000
#: base states run_continuity_check draws per sample before giving up. The
#: share of Hilbert-Schmidt states whose marginal gap puts eps = 1e-3 inside
#: the bound's domain is 1 at 2x2 and 2x3, 0.93 at 3x3, 0.60 at 3x4 and 0
#: of 1000 at 4x4 (largest gap 0.074, needed 0.091).
CONTINUITY_BASE_BUDGET = 1000
#: perturbation directions drawn per (sample, eps) before giving up; at
#: eps <= 1e-3 at least 98% of directions are kept at every dims up to 3x4.
CONTINUITY_DIRECTION_BUDGET = 1000
#: draws _mono_max_increase may reject on DegenerateMarginal per channel
#: beyond its trials; none of 6840 draws was rejected in classify sweeps at
#: d_A = 2, 3 and 4 (3 seeds, 3 channels per class, 40 trials).
MONO_DEGENERATE_BUDGET = 1000


@dataclass
class ExperimentRecord:
    """Tabular result of one experiment run."""

    experiment_id: str
    seed: int
    inputs: dict
    columns: list[str]
    rows: np.ndarray
    summary: dict = field(default_factory=dict)


def sample_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent per-sample generator derived from (seed, key)."""
    return np.random.default_rng([int(seed), *map(int, key)])


def _check_seed(seed: int) -> int:
    seed = int(seed)
    if seed < 0:
        raise OutOfRange("seed must be nonnegative")
    return seed


# --- built-in qubit channels -----------------------------------------------------

def _fig2a() -> ch.MixedUnitaryChannel:
    return ch.probabilistic_hadamard()


def _fig2b() -> ch.MixedUnitaryChannel:
    r = ch.rotation_unitary((1.0, 1.0, 1.0), math.pi / 2.0)
    return ch.MixedUnitaryChannel(
        np.array([1.0 / 3.0, 2.0 / 3.0]), (np.eye(2, dtype=complex), r)
    )


def _fig2c() -> ch.MixedUnitaryChannel:
    rx = ch.rotation_unitary((1.0, 0.0, 0.0), math.pi / 10.0)
    rz = ch.rotation_unitary((0.0, 0.0, 1.0), math.pi / 5.0)
    return ch.MixedUnitaryChannel(
        np.array([1.0 / 6.0, 1.0 / 3.0, 1.0 / 2.0]),
        (np.eye(2, dtype=complex), rx, rz),
    )


BUILTIN_CHANNELS = {
    "fig2a": _fig2a,
    "fig2b": _fig2b,
    "fig2c": _fig2c,
}


def resolve_channel(spec) -> tuple[str, ch.QuantumChannel]:
    if isinstance(spec, str):
        if spec not in BUILTIN_CHANNELS:
            raise OutOfRange(
                f"unknown channel {spec!r}; built-ins: {sorted(BUILTIN_CHANNELS)}"
            )
        return spec, BUILTIN_CHANNELS[spec]()
    return "custom", spec


# --- summary recomputation registry -----------------------------------------------

def _summarize_monotonicity(rows: np.ndarray, inputs: dict) -> dict:
    diff = rows[:, 1] - rows[:, 0]
    return {
        "max_increase": float(diff.max()),
        "violations": float((diff > MONOTONICITY_TOL).sum()),
    }


def _summarize_xstate(rows: np.ndarray, inputs: dict) -> dict:
    gap = rows[:, 5] - rows[:, 4]
    tol = float(inputs["equality_tol"])
    return {
        "match_fraction": float((gap <= tol).mean()),
        "upper_bound_violations": float((gap < -UPPER_BOUND_TOL).sum()),
    }


def _summarize_continuity(rows: np.ndarray, inputs: dict) -> dict:
    return {
        "min_slack": float(rows[:, 4].min()),
        "min_schatten_slack": float(rows[:, 7].min()),
    }


_CLASS_NAMES = {0: "mu", 1: "iso_u", 2: "iso_a", 3: "sc", 4: "injected_hadamard"}
#: classes whose lift to AB is completely positive, where monotonicity is tracked
_MONO_CLASSES = (0, 1, 3, 4)


def _summarize_classification(rows: np.ndarray, inputs: dict) -> dict:
    out: dict = {}
    codes = rows[:, 0].astype(int)
    for code in sorted(_CLASS_NAMES):
        mask = codes == code
        if not mask.any():
            continue
        name = _CLASS_NAMES[code]
        commute = rows[mask, 1]
        nongen = rows[mask, 2]
        out[f"{name}_count"] = float(mask.sum())
        out[f"{name}_commuting"] = float((commute <= ch.COMMUTE_TOL).sum())
        out[f"{name}_noncommuting"] = float((commute >= ch.VIOLATION_TOL).sum())
        out[f"{name}_nongenerating"] = float((nongen <= ch.COMMUTE_TOL).sum())
        out[f"{name}_generating"] = float((nongen >= ch.VIOLATION_TOL).sum())
        if code in _MONO_CLASSES:
            mono = rows[mask, 3]
            mono = mono[~np.isnan(mono)]
            if len(mono):
                out[f"{name}_mono_max_increase"] = float(mono.max())
                out[f"{name}_mono_violations"] = float(
                    (mono > MONOTONICITY_TOL).sum()
                )
    return out


SUMMARIZERS = {
    "monotonicity": _summarize_monotonicity,
    "xstate": _summarize_xstate,
    "continuity": _summarize_continuity,
    "classify": _summarize_classification,
}


def recompute_row_summary(record: ExperimentRecord) -> dict:
    """Row-derived part of the summary, recomputed from the stored rows."""
    return SUMMARIZERS[record.inputs["kind"]](record.rows, record.inputs)


def _finalize(record: ExperimentRecord, counters: dict) -> ExperimentRecord:
    derived = recompute_row_summary(record)
    record.summary = {**derived, **counters}
    return record


# --- experiment runners -------------------------------------------------------------

def run_monotonicity(
    channel_spec,
    samples: int,
    seed: int,
    rank: int = 4,
) -> ExperimentRecord:
    """Diagonal discord before vs after a local qubit channel on random states."""
    seed = _check_seed(seed)
    name, channel = resolve_channel(channel_spec)
    if channel.dim != 2:
        raise OutOfRange("monotonicity experiment uses qubit channels on A")
    if samples < 1:
        raise OutOfRange("samples must be >= 1")

    def one(i: int):
        rng = sample_rng(seed, i)
        state, resampled = sample_nondegenerate(rng, 2, 2, rank)
        before = diagonal_discord(state)
        after = pi_a(channel.apply_local_a(state), optimize_degenerate=True)
        return (before, after.value), resampled, after.degenerate

    results = [one(i) for i in range(samples)]
    rows = np.array([r[0] for r in results], dtype=float)
    counters = {
        "resampled_degenerate": float(sum(r[1] for r in results)),
        "degenerate_outputs": float(sum(1 for r in results if r[2])),
    }
    record = ExperimentRecord(
        experiment_id=f"monotonicity_{name}",
        seed=seed,
        inputs={
            "kind": "monotonicity",
            "channel": name,
            "samples": samples,
            "rank": rank,
        },
        columns=["discord_before", "discord_after"],
        rows=rows,
    )
    return _finalize(record, counters)


def run_xstate_comparison(
    samples: int,
    seed: int,
    equality_tol: float = 1e-6,
) -> ExperimentRecord:
    """Optimized vs diagonal discord over random symmetric two-qubit X-states."""
    seed = _check_seed(seed)
    if samples < 1:
        raise OutOfRange("samples must be >= 1")
    if equality_tol <= 0:
        raise OutOfRange("equality tolerance must be positive")

    def draw(i: int):
        rng = sample_rng(seed, i)
        for excluded in range(XSTATE_DEGENERATE_BUDGET):
            params = sample_x_params(rng)
            state = x_state_from_params(params)
            if not state.marginal_eig.degenerate:
                return params, state, diagonal_discord(state), excluded
        raise OutOfDomain(
            f"0 of {XSTATE_DEGENERATE_BUDGET} X-states drawn for sample {i} have "
            "a nondegenerate A-marginal; 1 of 10^6 X-states has a degenerate one"
        )

    draws = [draw(i) for i in range(samples)]
    optimized = optimized_discord_2q([state for _, state, _, _ in draws])
    rows = []
    for (params, _, dd, _), opt in zip(draws, optimized):
        if opt.value > dd + UPPER_BOUND_TOL:
            raise InvariantViolation(
                f"optimized discord {opt.value} exceeds diagonal discord {dd}"
            )
        rows.append((params.r6, params.r8, params.r9, params.r15, opt.value, dd))
    rows = np.array(rows, dtype=float)
    counters = {"excluded_degenerate": float(sum(d[3] for d in draws))}
    record = ExperimentRecord(
        experiment_id="xstate",
        seed=seed,
        inputs={
            "kind": "xstate",
            "samples": samples,
            "equality_tol": equality_tol,
        },
        columns=[
            "r6",
            "r8",
            "r9",
            "r15",
            "discord_optimized",
            "discord_diagonal",
        ],
        rows=rows,
    )
    return _finalize(record, counters)


def _traceless_direction(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (g + g.conj().T) / 2.0
    h -= np.trace(h).real * np.eye(d) / d
    return h / trace_norm(h)


def run_continuity_check(
    d_a: int,
    d_b: int,
    samples: int,
    eps_list,
    seed: int,
) -> ExperimentRecord:
    """Discord change under trace-norm perturbations vs the continuity bounds.

    For each base state and eps, draws a random traceless Hermitian
    direction T with unit trace norm and perturbs rho by eps T, rejecting
    directions that leave the state cone or halve the marginal gap.
    """
    seed = _check_seed(seed)
    eps_list = [float(e) for e in eps_list]
    if not eps_list or any(not 0.0 <= e < 2.0 for e in eps_list):
        raise OutOfRange("eps values must lie in [0, 2)")
    if samples < 1:
        raise OutOfRange("samples must be >= 1")
    d = d_a * d_b
    eps_max = max(eps_list)
    c = math.sqrt(2.0 * d_a**3 * d_b**3)

    def _domain_ok(gap: float) -> bool:
        return 0.5 * (2.0 * c / gap + 1.0) * eps_max <= 1.0

    def one(i: int):
        rng = sample_rng(seed, i)
        resampled_base = 0
        largest_gap = 0.0
        for _ in range(CONTINUITY_BASE_BUDGET):
            state, extra = sample_nondegenerate(rng, d_a, d_b, d)
            resampled_base += extra
            gap = state.marginal_eig.min_gap
            if gap >= MARGINAL_GAP_TOL and _domain_ok(gap):
                break
            largest_gap = max(largest_gap, gap)
            resampled_base += 1
        else:
            raise OutOfDomain(
                f"0 of {CONTINUITY_BASE_BUDGET} sampled ({d_a},{d_b}) states "
                f"have a marginal gap inside the bound's domain at "
                f"eps = {eps_max:g}: it needs a gap of at least "
                f"{c * eps_max / (1.0 - eps_max / 2.0):.3g}, the largest was "
                f"{largest_gap:.3g}; use a smaller eps"
            )
        dd0 = diagonal_discord(state)
        s20 = generalized_discord(state, SchattenNorm(2))
        rows = []
        resampled_dirs = 0
        for eps in eps_list:
            if eps == 0.0:
                rows.append((eps, gap, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
                continue
            for _ in range(CONTINUITY_DIRECTION_BUDGET):
                t = _traceless_direction(rng, d)
                try:
                    pert_state = BipartiteState(state.rho + eps * t, d_a, d_b)
                except NotDensityMatrix:
                    pert_state = None
                if pert_state is not None and pert_state.spectrum[0] >= 0.0:
                    pdec = pert_state.marginal_eig
                    if not pdec.degenerate and pdec.min_gap >= gap / 2.0:
                        break
                resampled_dirs += 1
            else:
                raise OutOfDomain(
                    f"0 of {CONTINUITY_DIRECTION_BUDGET} perturbation directions "
                    f"at eps = {eps:g} keep the ({d_a},{d_b}) state positive "
                    f"and its marginal gap above {gap / 2.0:.3g}; use a smaller eps"
                )
            dd1 = diagonal_discord(pert_state)
            s21 = generalized_discord(pert_state, SchattenNorm(2))
            bound = continuity_bound(d_a, d_b, gap, eps)
            sbound = schatten_continuity_bound(d_a, d_b, gap, eps)
            rows.append(
                (
                    eps,
                    gap,
                    abs(dd1 - dd0),
                    bound,
                    bound - abs(dd1 - dd0),
                    abs(s21 - s20),
                    sbound,
                    sbound - abs(s21 - s20),
                )
            )
        return rows, resampled_base, resampled_dirs

    results = [one(i) for i in range(samples)]
    rows = np.array([row for r in results for row in r[0]], dtype=float)
    counters = {
        "resampled_base": float(sum(r[1] for r in results)),
        "resampled_directions": float(sum(r[2] for r in results)),
    }
    record = ExperimentRecord(
        experiment_id=f"continuity_{d_a}x{d_b}",
        seed=seed,
        inputs={
            "kind": "continuity",
            "d_a": d_a,
            "d_b": d_b,
            "samples": samples,
            "eps_list": ",".join(f"{e:g}" for e in eps_list),
        },
        columns=[
            "eps",
            "gap",
            "dd_change",
            "dd_bound",
            "dd_slack",
            "s2_change",
            "s2_bound",
            "s2_slack",
        ],
        rows=rows,
    )
    return _finalize(record, counters)


def _mono_max_increase(channel, trials: int, rng, d_b: int = 2) -> float:
    worst = -math.inf
    done = 0
    attempts = trials + MONO_DEGENERATE_BUDGET
    for _ in range(attempts):
        state = sample_random_bipartite(rng, channel.dim, d_b, channel.dim * d_b)
        try:
            before = pi_a(state, optimize_degenerate=True).value
            after = pi_a(channel.apply_local_a(state), optimize_degenerate=True).value
        except DegenerateMarginal:
            continue
        worst = max(worst, after - before)
        done += 1
        if done == trials:
            return worst
    raise OutOfDomain(
        f"only {done} of {attempts} sampled ({channel.dim},{d_b}) states kept a "
        f"marginal eigenbasis pi_a can optimize through the {type(channel).__name__} "
        f"(acceptance {done / attempts:.3g}); need trials = {trials}"
    )


def run_channel_classification(
    d_a: int,
    per_class: int,
    trials: int,
    seed: int,
) -> ExperimentRecord:
    """Randomized evidence for the channel-class structure relative to dephasing.

    Samples MU, unitary-ISO, antiunitary-ISO, and SC channels, scores the
    commuting and nongenerating conditions on each, and tracks the worst
    discord increase for the completely positive classes. For qubits the
    probabilistic-Hadamard counterexample is injected as its own row.
    """
    seed = _check_seed(seed)
    if d_a < 2:
        raise OutOfRange("d_a must be >= 2")
    if per_class < 1 or trials < 1:
        raise OutOfRange("per_class and trials must be >= 1")

    samplers = {
        0: lambda rng: ch.random_mixed_unitary(rng, d_a),
        1: lambda rng: ch.random_isotropic(rng, d_a, antiunitary=False),
        2: lambda rng: ch.random_isotropic(rng, d_a, antiunitary=True),
        3: lambda rng: ch.random_semiclassical(rng, d_a),
    }
    jobs: list[tuple[int, int]] = []
    if d_a == 2:
        jobs.append((4, 0))
    for code in sorted(samplers):
        jobs.extend((code, j) for j in range(per_class))

    rows = []
    for code, j in jobs:
        rng = sample_rng(seed, code, j)
        channel = (
            ch.probabilistic_hadamard() if code == 4 else samplers[code](rng)
        )
        rep_c = ch.commutes_with_pi(channel, trials, rng)
        rep_g = ch.is_discord_nongenerating(channel, trials, rng)
        mono = (
            _mono_max_increase(channel, trials, rng)
            if code in _MONO_CLASSES
            else math.nan
        )
        rows.append((code, rep_c.max_deviation, rep_g.max_deviation, mono))

    record = ExperimentRecord(
        experiment_id=f"classify_d{d_a}",
        seed=seed,
        inputs={
            "kind": "classify",
            "d_a": d_a,
            "per_class": per_class,
            "trials": trials,
        },
        columns=[
            "class_code",
            "commute_deviation",
            "nongen_deviation",
            "mono_max_increase",
        ],
        rows=np.array(rows, dtype=float),
    )
    return _finalize(record, {})
