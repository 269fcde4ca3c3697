"""Tests of the tracer and the output checks.  Run: python3 -m pytest perfbench"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from diagdiscord import cli, discord, experiments, states  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_json_lists_every_metric_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.ROUNDS)


def test_tracer_counts_nested_calls_and_restores_names():
    original = experiments.diagonal_discord
    state = states.sample_random_bipartite(np.random.default_rng(1), 2, 2, 4)
    with tracing.Tracer() as tracer:
        assert experiments.diagonal_discord is not original
        discord.diagonal_discord(state)
    assert experiments.diagonal_discord is original
    totals = tracer.layer_totals()
    assert totals["discord.diagonal_discord"]["calls"] == 1
    assert totals["discord.pi_a"]["calls"] == 1
    assert totals["linalg.hermitian_eig"]["calls"] == 1  # called from discord's namespace
    assert totals["states.BipartiteState"]["calls"] == 1  # the dephased state
    root = next(s for s in tracer.spans if s[1] == -1)
    self_sum = sum(t["self_s"] for t in totals.values())
    assert self_sum == pytest.approx(root[3] - root[2], rel=1e-9)
    assert all(t["self_s"] >= 0.0 for t in totals.values())


def test_absent_target_is_reported_not_fatal():
    targets = tracing.TARGETS + (("gone", "discord", "no_such_function", None),)
    with tracing.Tracer(targets) as tracer:
        pass
    assert tracer.absent == ["discord.no_such_function"]
    assert tracer.layer_totals()["gone"]["calls"] == 0


def _write(call, tmp_path, seed):
    assert cli.main(call.argv(seed, str(tmp_path))) == 0
    return checks.read_table(call, tmp_path)


def test_xstate_check_passes_real_output_and_flags_a_wrong_row(tmp_path):
    call = workloads.Call("xstate", 60, ("xstate", "--samples", "60"))
    table = _write(call, tmp_path, 4)
    verdict = checks.check_xstate([table], 4)
    assert verdict.failed_rows == 0
    table.rows[3, 5] += 1e-6  # diagonal discord off the oracle's value
    table.rows[40, 4] = -0.1  # optimized discord below zero
    assert checks.check_xstate([table], 4).failed_rows == 2


def test_monotonicity_check_flags_an_increase_and_missing_rows(tmp_path):
    call = workloads.ROUNDS["monotonicity"][0]
    table = _write(call, tmp_path, 5)
    assert checks.check_monotonicity([table], 5).failed_rows == 0
    table.rows[0, 1] = table.rows[0, 0] + 1e-6
    table.rows = table.rows[:-10]
    assert checks.check_monotonicity([table], 5).failed_rows == 11


def test_monotonicity_check_compares_means_with_the_oracle(tmp_path):
    call = workloads.ROUNDS["monotonicity"][1]
    table = _write(call, tmp_path, 6)
    assert not checks.check_monotonicity([table], 6).problems
    table.rows[:, 1] *= 0.8  # still monotone, but the wrong channel output
    assert any("mean discord after" in p for p in checks.check_monotonicity([table], 6).problems)


def test_classify_check_flags_a_wrong_verdict():
    rows = np.array([
        [0, 0.3, 0.2, 0.01], [0, 0.2, 0.1, 0.02],
        [1, 1e-15, 1e-15, -0.1], [1, 1e-15, 1e-15, -0.2],
        [2, 1e-15, 1e-15, np.nan], [2, 1e-15, 1e-15, np.nan],
        [3, 0.1, 1e-15, -0.1], [3, 0.1, 1e-15, -0.3],
    ])
    table = checks.Table(workloads.ROUNDS["classify"][0], rows, {})
    assert checks.check_classify([table], 0).failed_rows == 0
    rows[1, 2] = 1e-5  # a mixed-unitary channel read as nongenerating
    rows[6, 3] = 1e-3  # a semiclassical channel raised discord
    assert checks.check_classify([table], 0).failed_rows == 2


def test_speed_scale_is_one_at_reference_and_ignores_one_stalled_probe():
    ref = speed.REFERENCE_PROBE_S
    assert speed.scale([ref, ref, 40 * ref]) == pytest.approx(1.0)
    assert speed.scale([2 * ref, 2 * ref]) == pytest.approx(2.0)
    assert speed.probe() > 0.0
