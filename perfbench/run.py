"""diagdiscord benchmark: run one workload end to end and print its metrics.

    python3 perfbench/run.py --workload xstate --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from anywhere inside a checkout of the repository; the program is taken
from its `src/`. With --trace 0 the run times cold starts of the CLI
(setup_s), then runs whole rounds of the workload in a fresh interpreter for
--seconds (samples_per_s, peak_rss_mb). samples_per_s is rescaled to the
reference machine speed with the calibration kernel of speed.py, run next
to every call; the wall figure is printed beside it.
With --trace 1 it runs a fixed
number of rounds, each once plain and once with every layer traced, and
prints the per-layer metrics and the tracing overhead. Either way the
experiment tables are checked against the oracle and the method's known
properties. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Outputs go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# 4x4 to 8x8 matrices gain nothing from BLAS threads; pin them before numpy loads
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS, OVERHEAD_METRICS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: timed cold starts per run; setup_s is their median
SETUP_LAUNCHES = 7
SETUP_CODE = "import diagdiscord.cli as cli; cli.build_parser()"
WORKER_TIMEOUT_S = 150
#: the seed of the README's reference figures
DEFAULT_SEED = 1

UNITS = {"samples_per_s": "samples/s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {**{m: unit for m, (_, _, unit) in LAYER_METRICS.items()}, **OVERHEAD_METRICS}


class BenchmarkError(Exception):
    """The run could not measure: the program is missing or its process died."""


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, **BLAS_ENV, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def measure_setup(env: dict[str, str]) -> float:
    """Median wall time from starting an interpreter until the CLI is imported and ready.

    One untimed launch first writes the bytecode caches, which a user pays
    once. Not rescaled by speed.py: a launch is mostly imports and file reads,
    which the calibration kernel does not track (rescaling widened the spread).
    """
    times = []
    for i in range(SETUP_LAUNCHES + 1):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=60,
        )
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchmarkError(f"importing diagdiscord.cli failed:\n{proc.stderr}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def run_worker(workload: str, seed: int, seconds: float, trace: int, out: Path, env) -> dict:
    log = out / "worker.log"
    with open(log, "w", encoding="utf-8") as fh:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                 "--out", str(out)],
                env=env, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT,
                timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"{workload} worker ran past {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-4000:]
        raise BenchmarkError(f"{workload} worker exited with {proc.returncode}:\n{tail}")
    with open(out / "worker.json", encoding="utf-8") as fh:
        return json.load(fh)


def account(workload: str, seed: int, result: dict) -> tuple[int, int, list[str]]:
    """attempted rows, failed rows and problems over every call the worker made."""
    attempted, failed, problems, tables = 0, 0, [], []
    calls = {c.experiment_id: c for c in workloads.ROUNDS[workload]}
    for rnd in result["rounds"]:
        for made in rnd["calls"]:
            call = calls[made["experiment_id"]]
            attempted += call.rows
            if made["exit"] != 0:
                failed += call.rows
                detail = (made["error"] or "").strip().splitlines()[-1:] or [f"exit {made['exit']}"]
                problems.append(f"round {rnd['round']} {call.experiment_id}: {detail[0]}")
                continue
            table = checks.read_table(call, Path(made["dir"]))
            if table is None:
                failed += call.rows
                problems.append(f"round {rnd['round']} {call.experiment_id}: no readable CSV")
                continue
            tables.append(table)
    verdict = checks.CHECKERS[workload](tables, seed)
    return attempted, failed + verdict.failed_rows, problems + verdict.problems


def traced_outputs_differ(result: dict) -> list[str]:
    """Tracing must not change a byte of the output: compare traced and plain round dirs."""
    problems = []
    for rnd in result["rounds"]:
        for made in rnd["calls"]:
            traced = Path(made["dir"])
            if traced.parent.name.startswith("t") and made["exit"] == 0:
                plain = traced.parent.parent / ("r" + traced.parent.name[1:]) / traced.name
                for path in sorted(traced.glob("*.csv")):
                    if (plain / path.name).read_bytes() != path.read_bytes():
                        problems.append(f"{path.name}: traced output differs from plain output")
    return problems


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = OUT / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = child_env()
    metrics: dict[str, dict] = {}
    if not trace:
        setup_s = measure_setup(env)
    result = run_worker(workload, seed, seconds, trace, out, env)
    attempted, failed, problems = account(workload, seed, result)
    if trace:
        problems += traced_outputs_differ(result)
        for name, value in result["layers"].items():
            metrics[name] = {"value": value, "unit": LAYER_UNITS[name]}
    else:
        values = {
            "samples_per_s": result["samples_per_s"],
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}

    env_info = " ".join(f"{k}={v}" for k, v in result["environment"].items())
    print(f"[{workload}] seed={seed} rounds={len(result['rounds'])} {env_info}")
    for name, m in metrics.items():
        print(f"[{workload}] {name} = {m['value']:.6g} {m['unit']}")
    if not trace:
        wall = result["wall_samples_per_s"]
        print(f"[{workload}] samples_per_s before rescaling to the reference machine speed = {wall:.6g}")
    print(f"[{workload}] attempted={attempted} failed={failed}")
    for name in result.get("absent", []):
        print(f"[{workload}] traced name absent from the program: {name}")
    for problem in problems:
        print(f"[{workload}] CHECK FAILED: {problem}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.ROUNDS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "diagdiscord" / "cli.py").is_file():
        print(f"benchmark: no program at {SRC / 'diagdiscord'}", file=sys.stderr)
        return 2

    names = list(workloads.ROUNDS) if args.workload == "all" else [args.workload]
    results, broken = {}, []
    for name in names:  # a workload whose process died does not stop the others
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchmarkError as exc:
            print(f"benchmark: {exc}", file=sys.stderr)
            broken.append(name)
    if broken:
        print(f"benchmark: no measurement for {', '.join(broken)}", file=sys.stderr)
        return 1
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
