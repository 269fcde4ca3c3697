"""Spans around diagdiscord's public functions, patched in from outside.

Each target is wrapped in every `diagdiscord.*` module namespace that holds
it (so `experiments.diagonal_discord` and `channels.dephase_a` are traced as
well as the defining module's own name), or on its class for a method. A
span records (name, parent, start, end); spans stay in memory until the run
writes them out. A layer's self time is its span time minus the time of its
direct child spans. A target the program no longer defines is reported as
absent and its metrics read 0.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter
from importlib import import_module

PACKAGE = "diagdiscord"


def _resampled(summary: dict) -> float:
    return sum(v for k, v in summary.items() if k.startswith(("resampled", "excluded")))


# (span name, defining module, attribute or Class.method, hook on (args, result) -> (counter, amount))
TARGETS = (
    ("states.sample_x_params", "states", "sample_x_params", None),
    ("states.sample_random_bipartite", "states", "sample_random_bipartite", None),
    ("states.BipartiteState", "states", "BipartiteState.__post_init__", None),
    ("linalg.hermitian_eig", "linalg", "hermitian_eig", None),
    ("linalg.von_neumann_entropy", "linalg", "von_neumann_entropy", None),
    ("linalg.trace_norm", "linalg", "trace_norm", None),
    ("discord.pi_a", "discord", "pi_a", None),
    ("discord.dephase_a", "discord", "dephase_a", None),
    ("discord.diagonal_discord", "discord", "diagonal_discord", None),
    ("discord.optimized_discord_2q", "discord", "optimized_discord_2q", None),
    ("discord.minimize", "discord", "minimize", lambda a, r: ("nfev", r.nfev)),
    ("channels.apply_local_a", "channels", "QuantumChannel.apply_local_a", None),
    ("channels.apply_local_a_raw", "channels", "apply_local_a_raw", None),
    ("channels.commutes_with_pi", "channels", "commutes_with_pi", None),
    ("channels.is_discord_nongenerating", "channels", "is_discord_nongenerating", None),
    ("experiments", "experiments", "run_monotonicity", lambda a, r: ("resampled", _resampled(r.summary))),
    ("experiments", "experiments", "run_xstate_comparison", lambda a, r: ("resampled", _resampled(r.summary))),
    ("experiments", "experiments", "run_channel_classification", lambda a, r: ("resampled", _resampled(r.summary))),
    ("cli.write", "cli", "write_rows_csv", lambda a, r: ("bytes", os.path.getsize(a[0]))),
    ("cli.write", "cli", "write_summary_csv", lambda a, r: ("bytes", os.path.getsize(a[0]))),
)

# per-layer metric -> (span name, what is read from it, unit), as listed in BENCHMARK.json
LAYER_METRICS = {
    "discord.optimized_discord_2q.calls": ("discord.optimized_discord_2q", "calls", "count"),
    "discord.optimized_discord_2q.self_s": ("discord.optimized_discord_2q", "self_s", "s"),
    "discord.minimize.calls": ("discord.minimize", "calls", "count"),
    "discord.minimize.self_s": ("discord.minimize", "self_s", "s"),
    "discord.minimize.nfev": ("discord.minimize", "nfev", "count"),
    "states.sample_x_params.calls": ("states.sample_x_params", "calls", "count"),
    "states.sample_x_params.self_s": ("states.sample_x_params", "self_s", "s"),
    "states.sample_random_bipartite.calls": ("states.sample_random_bipartite", "calls", "count"),
    "states.sample_random_bipartite.self_s": ("states.sample_random_bipartite", "self_s", "s"),
    "states.BipartiteState.calls": ("states.BipartiteState", "calls", "count"),
    "states.BipartiteState.self_s": ("states.BipartiteState", "self_s", "s"),
    "linalg.hermitian_eig.calls": ("linalg.hermitian_eig", "calls", "count"),
    "linalg.hermitian_eig.self_s": ("linalg.hermitian_eig", "self_s", "s"),
    "linalg.von_neumann_entropy.calls": ("linalg.von_neumann_entropy", "calls", "count"),
    "linalg.von_neumann_entropy.self_s": ("linalg.von_neumann_entropy", "self_s", "s"),
    "linalg.trace_norm.calls": ("linalg.trace_norm", "calls", "count"),
    "linalg.trace_norm.self_s": ("linalg.trace_norm", "self_s", "s"),
    "discord.pi_a.calls": ("discord.pi_a", "calls", "count"),
    "discord.pi_a.self_s": ("discord.pi_a", "self_s", "s"),
    "discord.pi_a.raised": ("discord.pi_a", "raised", "count"),
    "discord.dephase_a.calls": ("discord.dephase_a", "calls", "count"),
    "discord.dephase_a.self_s": ("discord.dephase_a", "self_s", "s"),
    "discord.diagonal_discord.calls": ("discord.diagonal_discord", "calls", "count"),
    "discord.diagonal_discord.self_s": ("discord.diagonal_discord", "self_s", "s"),
    "channels.apply_local_a.calls": ("channels.apply_local_a", "calls", "count"),
    "channels.apply_local_a.self_s": ("channels.apply_local_a", "self_s", "s"),
    "channels.apply_local_a_raw.calls": ("channels.apply_local_a_raw", "calls", "count"),
    "channels.apply_local_a_raw.self_s": ("channels.apply_local_a_raw", "self_s", "s"),
    "channels.commutes_with_pi.self_s": ("channels.commutes_with_pi", "self_s", "s"),
    "channels.is_discord_nongenerating.self_s": ("channels.is_discord_nongenerating", "self_s", "s"),
    "experiments.self_s": ("experiments", "self_s", "s"),
    "experiments.resampled": ("experiments", "resampled", "count"),
    "cli.write_s": ("cli.write", "self_s", "s"),
    "cli.bytes_written": ("cli.write", "bytes", "B"),
}
# computed by the traced run from its plain and traced rounds
OVERHEAD_METRICS = {"trace.samples_per_s": "samples/s", "trace.overhead_pct": "%"}


class Tracer:
    """Installs the wrappers on entry and restores the original names on exit."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.counters: dict[str, Counter] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counters = self.counters.setdefault(name, Counter())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counters["raised"] += 1
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                key, amount = hook(args, result)
                counters[key] += amount
            return result

        return traced

    def __enter__(self):
        self.absent = []
        for name, module, attr, hook in self.targets:
            self.counters.setdefault(name, Counter())
            try:
                owner = import_module(f"{PACKAGE}.{module}")
                *cls, leaf = attr.split(".")
                for part in cls:
                    owner = getattr(owner, part)
                orig = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{attr}")
                continue
            wrapped = self._wrap(name, orig, hook)
            if cls:
                self._patch(owner, leaf, orig, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, key, orig, wrapped)
        return self

    def _patch(self, owner, key, orig, wrapped):
        setattr(owner, key, wrapped)
        self._restore.append((owner, key, orig))

    def __exit__(self, *exc):
        while self._restore:
            owner, key, orig = self._restore.pop()
            setattr(owner, key, orig)
        return False

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, self_s and hook counters for every span name."""
        child_time = [0.0] * len(self.spans)
        for _name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {name: {"calls": 0, "self_s": 0.0, **counters} for name, counters in self.counters.items()}
        for (name, _parent, start, end), children in zip(self.spans, child_time):
            totals[name]["calls"] += 1
            totals[name]["self_s"] += end - start - children
        return totals

    def layer_metrics(self) -> dict[str, float]:
        totals = self.layer_totals()
        return {
            metric: float(totals.get(span, {}).get(field, 0))
            for metric, (span, field, _unit) in LAYER_METRICS.items()
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("index,name,parent,start_s,end_s\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i},{name},{parent},{start!r},{end!r}\n")
