"""Reproduction harnesses for the numerical studies.

Every experiment is driven by a master seed; the work for sample ``i`` uses
an independent substream derived from (seed, i), so records are
bit-identical for identical (experiment, seed, parameters).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import channels as ch
from .discord import (
    _optimized_2q,
    continuity_bound,
    diagonal_discord,
    generalized_discord,
    pi_a,
    schatten_continuity_bound,
)
from .errors import (
    InvariantViolation,
    NotDensityMatrix,
    OutOfDomain,
    OutOfRange,
)
from .linalg import trace_norm
from .states import (
    BipartiteState,
    check_rank,
    ginibre_density,
    sample_nondegenerate,
    sample_random_bipartite,
    sample_x_params,
    x_state_from_params,
)

#: D_after may exceed D_before by at most this much before counting as violation
MONOTONICITY_TOL = 1e-9
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
#: samples run_monotonicity takes through the stacked kernels at once; keeps
#: the stack of a long run to a few MB
MONO_STACK = 4096


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
    return sample_rngs(seed, [key])[0]


def sample_rngs(seed: int, keys) -> list[np.random.Generator]:
    """One generator per key, equal to ``np.random.default_rng([seed, *key])``.

    ``keys`` holds one int per generator, or one equal-length tuple of ints;
    each key int lies in [0, 2**32). numpy's SeedSequence hash runs on all
    keys at once, and each generator's PCG64 seeds itself from its row of
    the hashed words, so the generators are those of ``default_rng`` bit for
    bit at a fraction of its cost per generator.
    """
    seed = _check_seed(seed)
    try:
        keys = np.array(keys, dtype=np.int64, ndmin=1)
    except OverflowError as exc:
        raise OutOfRange(f"sample keys must lie in [0, 2**32): {exc}") from exc
    if keys.ndim == 1:
        keys = keys[:, None]
    if keys.size and (keys.min() < 0 or keys.max() > _MASK32):
        raise OutOfRange("sample keys must lie in [0, 2**32)")
    hashed_seed = _hashed_seed_type()
    return [
        np.random.Generator(np.random.PCG64(hashed_seed(words)))
        for words in _seed_sequence_state(seed, keys)
    ]


def _check_seed(seed: int) -> int:
    seed = int(seed)
    if seed < 0:
        raise OutOfRange("seed must be nonnegative")
    return seed


# numpy.random.SeedSequence's hash with its default pool of 4 words: the
# constants of its hashmix / mix steps, which act on uint32 words.
_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = 16
#: the pool words each pool word is mixed into, in SeedSequence's order
_OTHERS = tuple(
    [dst for dst in range(_POOL_SIZE) if dst != src] for src in range(_POOL_SIZE)
)


@functools.cache
def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """init, init*mult, ..., init*mult^n mod 2^32 as a read-only uint32 column.

    Hash step t xors its word with entry t and multiplies it by entry t + 1.
    """
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    out = np.array(consts, dtype=np.uint32)[:, None]
    out.setflags(write=False)
    return out


def _xorshift(v: np.ndarray) -> np.ndarray:
    return v ^ (v >> _XSHIFT)


def _hashmix(v: np.ndarray, consts: np.ndarray, t: int, k: int) -> np.ndarray:
    """Hash steps t, ..., t + k - 1 of v, one per row of the result."""
    return _xorshift((v ^ consts[t : t + k]) * consts[t + 1 : t + k + 1])


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _xorshift(_MIX_MULT_L * x - _MIX_MULT_R * y)


def _seed_sequence_state(seed: int, keys: np.ndarray) -> np.ndarray:
    """``SeedSequence([seed, *key]).generate_state(4, np.uint64)`` per row of keys (N, k).

    The seed's words (least significant first) and the key's words form each
    row's entropy; every step below acts on all N rows at once.
    """
    words = [(seed >> shift) & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    n, size = len(words) + keys.shape[1], len(keys)
    entropy = np.empty((n, size), dtype=np.uint32)
    entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words):] = keys.T
    a = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * max(n, _POOL_SIZE))
    # fill the pool with the hashed entropy, padded with hashed zeros
    pool = np.zeros((_POOL_SIZE, size), dtype=np.uint32)
    pool[: min(n, _POOL_SIZE)] = entropy[:_POOL_SIZE]
    pool = _hashmix(pool, a, 0, _POOL_SIZE)
    t = _POOL_SIZE
    # mix every pool word into every other one
    for src, dst in enumerate(_OTHERS):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], a, t, len(dst)))
        t += len(dst)
    # mix each entropy word beyond the pool into every pool word
    for src in range(_POOL_SIZE, n):
        pool = _mix(pool, _hashmix(entropy[src], a, t, _POOL_SIZE))
        t += _POOL_SIZE
    # 8 uint32 words, cycling through the pool, read as 4 little-endian uint64
    b = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    state = _hashmix(np.concatenate([pool, pool]), b, 0, 2 * _POOL_SIZE)
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


@functools.cache
def _hashed_seed_type() -> type:
    """A SeedSequence stand-in that hands PCG64 the 4 uint64 words it asks for.

    Made on first use, so that importing the package does not load numpy.random.
    """

    class HashedSeed(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return HashedSeed


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
    """Diagonal discord before vs after a local qubit channel on random states.

    Sample i draws one ``ginibre`` call's normals into its row of a buffer,
    from its own generator ``sample_rng(seed, i)``, made by one ``sample_rngs``
    call per stack; a sample whose first draw has a degenerate A-marginal is
    drawn again by ``sample_nondegenerate`` from a fresh copy of that
    generator, which rejects the same first draw. The states then go
    through ``pi_a`` and the channel as stacks of up to MONO_STACK rows; a
    channel output with a degenerate marginal is optimized row by row.
    """
    seed = _check_seed(seed)
    name, channel = resolve_channel(channel_spec)
    if channel.dim != 2:
        raise OutOfRange("monotonicity experiment uses qubit channels on A")
    if samples < 1:
        raise OutOfRange("samples must be >= 1")
    rank = check_rank(4, rank)

    def stack(first: int, stop: int):
        # real, then imaginary parts in one draw: the numbers of two ginibre calls
        z = np.empty((stop - first, 2, 4, rank))
        for k, rng in enumerate(sample_rngs(seed, range(first, stop))):
            rng.standard_normal(out=z[k])
        rhos = ginibre_density(z[:, 0] + 1j * z[:, 1])
        states = BipartiteState(rhos, 2, 2)
        resampled = np.zeros(stop - first)
        redraw = np.flatnonzero(states.marginal_eig.degenerate)
        for k in redraw:  # that sample's draws again, one at a time
            state, resampled[k] = sample_nondegenerate(sample_rng(seed, first + k), 2, 2, rank)
            rhos[k] = state.rho
        if len(redraw):
            states = BipartiteState(rhos, 2, 2)
        after = pi_a(channel.apply_local_a(states), optimize_degenerate=True)
        rows = np.stack([pi_a(states).value, after.value], axis=-1)
        return rows, resampled, after.degenerate

    rows, resampled, degenerate = (
        np.concatenate(parts)
        for parts in zip(*(
            stack(first, min(first + MONO_STACK, samples))
            for first in range(0, samples, MONO_STACK)
        ))
    )
    counters = {
        "resampled_degenerate": float(resampled.sum()),
        "degenerate_outputs": float(degenerate.sum()),
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
    """Optimized vs diagonal discord over random symmetric two-qubit X-states.

    Sample i draws its parameters from its own generator ``sample_rng(seed, i)``;
    the generators are made by one ``sample_rngs`` call, and
    ``sample_x_params`` tests their candidates as one stack. The X-states are
    built, validated and dephased as one stack, whose optimized discord
    (``optimized_discord_2q``) comes as one array. A sample whose first draw
    has a degenerate A-marginal is drawn again from a fresh
    ``sample_rng(seed, i)``, which rejects the same first draw and goes on
    until a marginal is nondegenerate, within XSTATE_DEGENERATE_BUDGET draws.
    """
    seed = _check_seed(seed)
    if samples < 1:
        raise OutOfRange("samples must be >= 1")
    if not 0.0 < equality_tol < math.inf:
        raise OutOfRange("equality tolerance must be finite and positive")

    def redraw(i: int):
        rng = sample_rng(seed, i)
        for excluded in range(XSTATE_DEGENERATE_BUDGET):
            params = sample_x_params(rng).as_row()
            if not x_state_from_params(params).marginal_eig.degenerate:
                return params, excluded
        raise OutOfDomain(
            f"0 of {XSTATE_DEGENERATE_BUDGET} X-states drawn for sample {i} have "
            "a nondegenerate A-marginal; 1 of 10^6 X-states has a degenerate one"
        )

    params = sample_x_params(sample_rngs(seed, range(samples)))
    states = x_state_from_params(params)
    excluded = np.zeros(samples)
    redrawn = np.flatnonzero(states.marginal_eig.degenerate)
    for i in redrawn:
        params[i], excluded[i] = redraw(i)
    if len(redrawn):
        states = x_state_from_params(params)
    diagonal = pi_a(states).value
    optimized = _optimized_2q(states)[0]
    above = optimized > diagonal + UPPER_BOUND_TOL
    if above.any():
        i = int(np.argmax(above))
        raise InvariantViolation(
            f"optimized discord {optimized[i]} exceeds diagonal discord {diagonal[i]}"
        )
    rows = np.column_stack([params, optimized, diagonal])
    counters = {"excluded_degenerate": float(excluded.sum())}
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
    if d_a < 1 or d_b < 1 or d_a * d_b < 2:
        raise OutOfRange(
            f"dims ({d_a}, {d_b}): the continuity bounds need d_A, d_B >= 1 and d_A d_B >= 2"
        )
    d = d_a * d_b
    eps_max = max(eps_list)
    c = math.sqrt(2.0 * d_a**3 * d_b**3)

    def _domain_ok(gap: float) -> bool:
        return 0.5 * (2.0 * c / gap + 1.0) * eps_max <= 1.0

    def one(rng):
        resampled_base = 0
        largest_gap = 0.0
        for _ in range(CONTINUITY_BASE_BUDGET):
            state, extra = sample_nondegenerate(rng, d_a, d_b, d)
            resampled_base += extra
            gap = state.marginal_eig.min_gap
            if _domain_ok(gap):
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
        s20 = generalized_discord(state, 2.0)
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
            s21 = generalized_discord(pert_state, 2.0)
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

    results = [one(rng) for rng in sample_rngs(seed, range(samples))]
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
    """Largest diagonal-discord increase by the channel over ``trials`` random states.

    The states are drawn as one stack, and ``pi_a`` optimizes the eigenbasis
    of every degenerate marginal, before and after the channel.
    """
    states = sample_random_bipartite(rng, channel.dim, d_b, channel.dim * d_b, size=trials)
    before = pi_a(states, optimize_degenerate=True).value
    after = pi_a(channel.apply_local_a(states), optimize_degenerate=True).value
    return float((after - before).max())


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
    for (code, _), rng in zip(jobs, sample_rngs(seed, jobs)):
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
