"""Checks on the experiment tables a run wrote, against the oracle and known properties.

Each checker takes the tables of one workload, one per successful CLI call,
and returns how many rows failed a check plus messages for the checks that
span a whole run (those set `correct` to false). A row that is missing also
counts as failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
import workloads

#: the method's upper bound: optimized discord never exceeds diagonal discord
UPPER_TOL = 1e-9
#: diagonal discord against the oracle's recomputation
ORACLE_TOL = 1e-9
#: the experiment's own equality tolerance, for match_fraction
EQUALITY_TOL = 1e-6
MATCH_FRACTION = (0.29, 0.35)
#: rows per table whose optimized discord is checked on the oracle's fine grid
GRID_ROWS = 4
MONOTONICITY_TOL = 1e-9
#: states the oracle samples for its own Monte-Carlo mean, per channel
ORACLE_SAMPLES = 20_000
#: allowed distance between the two Monte-Carlo means, in combined standard errors
MEAN_SIGMAS = 5.0
COMMUTE_TOL = 1e-9
GENERATING_TOL = 1e-3


@dataclass
class Table:
    call: workloads.Call
    rows: np.ndarray
    summary: dict[str, str]


@dataclass
class Verdict:
    failed_rows: int = 0
    problems: list[str] = field(default_factory=list)


def read_table(call: workloads.Call, directory: Path) -> Table | None:
    """The rows and summary a call wrote, or None when either file is missing or unreadable."""
    try:
        with open(directory / f"{call.experiment_id}_rows.csv", encoding="ascii") as fh:
            lines = fh.read().splitlines()
        with open(directory / f"{call.experiment_id}_summary.csv", encoding="ascii") as fh:
            summary = dict(line.split(",", 1) for line in fh.read().splitlines()[1:])
        width = len(lines[0].split(","))
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]], dtype=float)
        rows = rows.reshape(-1, width)
    except (OSError, ValueError, IndexError):
        return None
    return Table(call, rows, summary)


def _count(verdict: Verdict, table: Table, good: np.ndarray, what: str) -> None:
    bad = int((~good).sum())
    if bad:
        verdict.failed_rows += bad
        verdict.problems.append(f"{table.call.experiment_id}: {bad} rows fail: {what}")


def _missing(verdict: Verdict, table: Table, width: int) -> np.ndarray:
    rows = table.rows
    if rows.shape[1:] != (width,):
        verdict.failed_rows += table.call.rows
        verdict.problems.append(f"{table.call.experiment_id}: table has shape {rows.shape}")
        return rows[:0].reshape(0, width)
    missing = table.call.rows - len(rows)
    if missing > 0:
        verdict.failed_rows += missing
        verdict.problems.append(f"{table.call.experiment_id}: {missing} rows missing")
    elif missing < 0:
        verdict.problems.append(f"{table.call.experiment_id}: {-missing} rows more than requested")
    return rows[: table.call.rows]


def check_xstate(tables: list[Table], seed: int) -> Verdict:
    verdict = Verdict()
    matches = []
    for table in tables:
        rows = _missing(verdict, table, 6)
        if not len(rows):
            continue
        r6, r8, r9, r15, opt, diag = rows.T
        rho = oracle.x_state(r6, r8, r9, r15)
        # an X-state's marginal is diagonal: the computational basis is its eigenbasis
        basis = np.broadcast_to(np.eye(2, dtype=complex), (len(rows), 2, 2))
        expected = oracle.diagonal_discord(rho, 2, 2, basis)
        valid = np.linalg.eigvalsh(rho)[:, 0] >= -1e-12
        good = np.isfinite(rows).all(axis=1) & valid
        good &= (opt >= 0.0) & (opt <= diag + UPPER_TOL)
        good &= np.abs(diag - expected) <= ORACLE_TOL
        for i in range(min(GRID_ROWS, len(rows))):
            value, slack = oracle.optimized_discord_grid(rho[i])
            good[i] &= value - slack - 1e-12 <= opt[i] <= value + UPPER_TOL
        _count(verdict, table, good, "X-state, upper bound, oracle diagonal discord or fine grid")
        matches.append((diag[good] - opt[good]) <= EQUALITY_TOL)
        if float(table.summary.get("upper_bound_violations", "nan")) != 0.0:
            verdict.problems.append(f"{table.call.experiment_id}: summary reports upper-bound violations")
    if matches:
        fraction = float(np.concatenate(matches).mean())
        lo, hi = MATCH_FRACTION
        if not lo <= fraction <= hi:
            verdict.problems.append(f"match_fraction {fraction:.4f} outside [{lo}, {hi}]")
    return verdict


def oracle_fig2_means(channel: str, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Oracle means and standard errors of (discord before, discord after) for one Fig. 2 channel."""
    rng = np.random.default_rng([seed, 0xD15C, workloads.FIG2_CHANNELS.index(channel)])
    rho = oracle.ginibre_states(rng, ORACLE_SAMPLES, 4, 4)
    gaps = np.diff(oracle.marginal_basis(rho, 2, 2)[0], axis=-1)[:, 0]
    rho = rho[gaps >= 1e-8]
    before = oracle.diagonal_discord(rho, 2, 2)
    after = oracle.diagonal_discord(oracle.lift_a(oracle.FIG2[channel], rho, 2, 2), 2, 2)
    values = np.stack([before, after], axis=1)
    return values.mean(axis=0), values.std(axis=0, ddof=1) / math.sqrt(len(values))


def check_monotonicity(tables: list[Table], seed: int) -> Verdict:
    verdict = Verdict()
    by_channel: dict[str, list[np.ndarray]] = {}
    for table in tables:
        rows = _missing(verdict, table, 2)
        if not len(rows):
            continue
        before, after = rows.T
        good = np.isfinite(rows).all(axis=1)
        good &= (rows >= 0.0).all(axis=1) & (rows <= 1.0 + 1e-12).all(axis=1)
        good &= after <= before + MONOTONICITY_TOL
        _count(verdict, table, good, "discord outside [0, 1] bit or increased by the channel")
        if float(table.summary.get("violations", "nan")) != 0.0:
            verdict.problems.append(f"{table.call.experiment_id}: summary reports violations")
        channel = table.call.experiment_id.removeprefix("monotonicity_")
        by_channel.setdefault(channel, []).append(rows[good])
    for channel, parts in by_channel.items():
        values = np.concatenate(parts)
        if len(values) < 2:
            continue
        mean = values.mean(axis=0)
        err = values.std(axis=0, ddof=1) / math.sqrt(len(values))
        ref_mean, ref_err = oracle_fig2_means(channel, seed)
        for j, what in enumerate(("before", "after")):
            limit = MEAN_SIGMAS * math.hypot(err[j], ref_err[j])
            if abs(mean[j] - ref_mean[j]) > limit:
                verdict.problems.append(
                    f"{channel}: mean discord {what} {mean[j]:.5f} vs oracle "
                    f"{ref_mean[j]:.5f} differs by more than {limit:.5f}"
                )
    return verdict


def check_classify(tables: list[Table], seed: int) -> Verdict:
    verdict = Verdict()
    for table in tables:
        rows = _missing(verdict, table, 4)
        if not len(rows):
            continue
        code, commute, nongen, mono = rows.T
        expected = np.repeat(np.arange(workloads.CLASSIFY_CLASSES), workloads.CLASSIFY_PER_CLASS)
        good = code == expected[: len(rows)]
        iso = (code == 1) | (code == 2)
        good &= ~iso | ((commute <= COMMUTE_TOL) & (nongen <= COMMUTE_TOL))
        good &= (code != 3) | (nongen <= COMMUTE_TOL)
        good &= (code != 0) | (nongen >= GENERATING_TOL)
        tracked = code != 2
        good &= ~tracked | np.isfinite(mono)
        good &= ((code != 1) & (code != 3)) | (mono <= MONOTONICITY_TOL)
        _count(verdict, table, good, "channel class verdict or monotonicity")
    return verdict


CHECKERS = {
    "xstate": check_xstate,
    "monotonicity": check_monotonicity,
    "classify": check_classify,
}
