"""The program's side of one benchmark run, in a fresh interpreter.

Runs whole rounds of a workload through `diagdiscord.cli.main`, each call
writing its CSVs under the output directory, and records per call its exit
code or exception and its wall time; the calibration kernel of `speed.py`
runs before every call and after the last one of a round, and the round's
rate is rescaled by it. The untraced run repeats rounds until
--seconds have passed, and makes at least the workload's minimum; the traced
run makes exactly that minimum, each round once untraced and once traced, so
its counts repeat at a given seed and its overhead is measured on the same
inputs. Everything is written to <out>/worker.json; the parent checks the
outputs.

    python3 perfbench/worker.py --workload xstate --seed 1 --seconds 25 --trace 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import speed
import workloads


def run_round(cli, workload: str, seed: int, k: int, out: Path) -> dict:
    """One round; `rate` is its rows per wall second, rescaled to the reference machine speed."""
    calls, probes = [], []
    for call in workloads.ROUNDS[workload]:
        probes.append(speed.probe())
        call_dir = out / call.experiment_id
        exit_code, error = None, None
        start = time.perf_counter()
        try:
            exit_code = cli.main(call.argv(workloads.round_seed(seed, k), str(call_dir)))
        except Exception:  # one failing call is counted, not fatal to the run
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
        calls.append({
            "experiment_id": call.experiment_id,
            "rows": call.rows,
            "dir": str(call_dir),
            "exit": exit_code,
            "error": error,
            "seconds": seconds,
        })
    probes.append(speed.probe())
    done = sum(c["rows"] for c in calls if c["exit"] == 0)
    total = sum(c["seconds"] for c in calls)
    scale = speed.scale(probes)
    return {
        "round": k, "calls": calls, "seconds": total, "scale": scale,
        "wall_rate": done / total, "rate": done / total * scale,
    }


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.ROUNDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    from diagdiscord import cli

    result = {"environment": environment(), "rounds": []}
    rounds = result["rounds"]
    if not args.trace:
        deadline = time.perf_counter() + args.seconds
        for k in range(workloads.MAX_ROUNDS):
            rounds.append(run_round(cli, args.workload, args.seed, k, args.out / f"r{k}"))
            if k + 1 >= workloads.MIN_ROUNDS[args.workload] and time.perf_counter() >= deadline:
                break
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["samples_per_s"] = statistics.median(r["rate"] for r in rounds)
        result["wall_samples_per_s"] = statistics.median(r["wall_rate"] for r in rounds)
    else:
        from tracing import Tracer

        tracer = Tracer()
        plain, traced = [], []
        for k in range(workloads.MIN_ROUNDS[args.workload]):
            copies = [("r", plain, nullcontext()), ("t", traced, tracer)]
            # alternate which copy goes first, so warm-up and drift fall on both sides
            for prefix, into, context in copies if k % 2 == 0 else copies[::-1]:
                with context:
                    into.append(run_round(cli, args.workload, args.seed, k, args.out / f"{prefix}{k}"))
        tracer.write_spans(args.out / "spans.csv")
        rounds += plain + traced
        untraced_rate = statistics.median(r["rate"] for r in plain)
        traced_rate = statistics.median(r["rate"] for r in traced)
        result["absent"] = tracer.absent
        result["layers"] = {
            **tracer.layer_metrics(),
            "trace.samples_per_s": traced_rate,
            "trace.overhead_pct": 100.0 * (1.0 - traced_rate / untraced_rate),
        }
    with open(args.out / "worker.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
