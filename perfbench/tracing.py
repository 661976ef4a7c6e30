"""Span tracing of one benchmark pass, from outside the package.

The traced pass replaces the module attributes that callers look up with
timing wrappers, so the package itself is unchanged.  Each call becomes a
span (name, start, end, parent, op id) held in memory; `write_spans` saves
them when the run ends.  A layer's time is the sum of its span durations;
`cli.self_s` is each op's duration minus that of its direct children.

Counters that need a pass over the sparse state (states produced by pairing)
are computed outside the wrapped call, and the time they take is subtracted
from every span that is open meanwhile, so per-layer times stay free of it.
It does show in `trace.overhead_s`.

A target that a later refactor removes is not wrapped; the metrics that
depend on it are reported as absent.
"""

from __future__ import annotations

import contextlib
import csv
import json
import statistics
from time import perf_counter

# span fields: [id, pass, op, parent, name, start, end, excluded, attrs]
ID, PASS, OP, PARENT, NAME, START, END, EXCLUDED, ATTRS = range(9)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.pass_index = 0
        self.op_id = 0

    def begin(self, name: str) -> list:
        parent = self.stack[-1][ID] if self.stack else None
        span = [len(self.spans), self.pass_index, self.op_id, parent, name,
                perf_counter(), None, 0.0, {}]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = perf_counter()
        self.stack.pop()

    def exclude(self, seconds: float) -> None:
        for span in self.stack:
            span[EXCLUDED] += seconds


def duration(span: list) -> float:
    return span[END] - span[START] - span[EXCLUDED]


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _pulse_in(args, kwargs) -> dict:
    from spinchain.propagator import resonant_spin

    state = _arg(args, kwargs, 0, "state")
    mask = 1 << resonant_spin(_arg(args, kwargs, 1, "pulse").nu,
                              _arg(args, kwargs, 2, "params"))
    # every pair contributes both members to the pre-pruning map
    produced = 2 * len({s & ~mask for s in state.amplitudes})
    return {"n_in": len(state.amplitudes), "produced": produced}


def _pulse_out(result) -> dict:
    return {"n_out": len(result.amplitudes)}


def _run_out(result) -> dict:
    return {"dropped": result[0].dropped}


def _evolve_in(args, kwargs) -> dict:
    return {"pulses": len(_arg(args, kwargs, 1, "seq").pulses),
            "dim": int(_arg(args, kwargs, 0, "initial").amplitudes.size)}


CSV_WRITERS = ("write_state_csv", "write_report_csv", "write_error_budget_csv")

# (module, attribute, span name, counter before the call, counter after it);
# p1_total and p1_target carry no metric of their own, they are wrapped so
# that their time is not counted as cli.self_s
TARGETS = [
    ("spinchain.cli", "run_protocol", "propagator.run_protocol", None, _run_out),
    ("spinchain.cli", "cn_remote_protocol", "protocol.cn_remote_protocol", None, None),
    ("spinchain.cli", "unwanted_census", "propagator.unwanted_census", None, None),
    ("spinchain.cli", "evolve_exact", "exact.evolve_exact", _evolve_in, None),
    ("spinchain.cli", "epsilon", "analytics.epsilon", None, None),
    ("spinchain.cli", "error_budget", "analytics.error_budget", None, None),
    ("spinchain.cli", "p1_total", "analytics.p1_total", None, None),
    ("spinchain.cli", "p1_target", "analytics.p1_target", None, None),
    *[("spinchain.cli", w, "csv." + w, None, None) for w in CSV_WRITERS],
    ("spinchain.propagator", "apply_pulse", "propagator.apply_pulse", _pulse_in, _pulse_out),
    ("spinchain.analytics", "epsilon", "analytics.epsilon", None, None),
    ("spinchain.exact", "rotating_frame_generator", "exact.rotating_frame_generator",
     None, None),
]


def _wrapper(tracer: Tracer, fn, name: str, before, after):
    def traced(*args, **kwargs):
        attrs = {}
        if before is not None:
            t = perf_counter()
            attrs.update(before(args, kwargs))
            tracer.exclude(perf_counter() - t)
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if after is not None:
            t = perf_counter()
            attrs.update(after(result))
            tracer.exclude(perf_counter() - t)
        span[ATTRS] = attrs
        return result
    return traced


@contextlib.contextmanager
def instrumented(tracer: Tracer, modules: dict):
    """Install the wrappers for the duration of a pass; yields the names of
    the targets that exist."""
    saved = []
    installed: set[str] = set()
    try:
        for module_name, attr, name, before, after in TARGETS:
            module = modules[module_name]
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, _wrapper(tracer, fn, name, before, after))
            installed.add(f"{module_name}.{attr}")
        yield installed
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


# metric -> (unit, better, targets of which at least one must be installed)
_APPLY = ("spinchain.propagator.apply_pulse",)
_EVOLVE = ("spinchain.cli.evolve_exact",)
PER_LAYER = {
    "propagator.ns_per_state_pulse": ("ns", "lower", _APPLY),
    "propagator.us_per_pulse": ("us", "lower", _APPLY),
    "propagator.run_s": ("s", "lower", ("spinchain.cli.run_protocol",)),
    "propagator.pulses": ("count", "lower", _APPLY),
    "propagator.state_pulses": ("count", "lower", _APPLY),
    "propagator.peak_active": ("count", "lower", _APPLY),
    "propagator.kept_ratio": ("ratio", "higher", _APPLY),
    "propagator.dropped": ("probability", "lower", ("spinchain.cli.run_protocol",)),
    "propagator.census_s": ("s", "lower", ("spinchain.cli.unwanted_census",)),
    "exact.s_per_pulse": ("s", "lower", _EVOLVE),
    "exact.evolve_s": ("s", "lower", _EVOLVE),
    "exact.generator_s": ("s", "lower", ("spinchain.exact.rotating_frame_generator",)),
    "exact.evolve_self_s": ("s", "lower", _EVOLVE),
    "exact.pulses": ("count", "lower", _EVOLVE),
    "exact.dim": ("count", "lower", _EVOLVE),
    "protocol.synth_s": ("s", "lower", ("spinchain.cli.cn_remote_protocol",)),
    "protocol.calls": ("count", "lower", ("spinchain.cli.cn_remote_protocol",)),
    "analytics.epsilon_calls": ("count", "lower",
                                ("spinchain.cli.epsilon", "spinchain.analytics.epsilon")),
    "analytics.epsilon_s": ("s", "lower",
                            ("spinchain.cli.epsilon", "spinchain.analytics.epsilon")),
    "analytics.budget_s": ("s", "lower", ("spinchain.cli.error_budget",)),
    "analytics.budget_calls": ("count", "lower", ("spinchain.cli.error_budget",)),
    "cli.self_s": ("s", "lower", ()),
    "cli.csv_write_s": ("s", "lower", tuple("spinchain.cli." + w for w in CSV_WRITERS)),
    "cli.csv_bytes": ("bytes", "lower", ()),
    "trace.overhead_s": ("s", "lower", ()),
}

# counters must repeat exactly from pass to pass; the rest are times
COUNTERS = ("propagator.pulses", "propagator.state_pulses", "propagator.peak_active",
            "propagator.kept_ratio", "propagator.dropped", "exact.pulses", "exact.dim",
            "protocol.calls", "analytics.epsilon_calls", "analytics.budget_calls",
            "cli.csv_bytes")


def pass_metrics(spans: list[list], csv_bytes: int) -> dict[str, float]:
    """Per-layer figures of one traced pass, from its spans."""
    by_name: dict[str, list[list]] = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)

    def total(name: str) -> float:
        return sum(duration(s) for s in by_name.get(name, ()))

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    pulses = by_name.get("propagator.apply_pulse", [])
    n_pulses = len(pulses)
    state_pulses = sum(s[ATTRS]["n_in"] for s in pulses)
    produced = sum(s[ATTRS]["produced"] for s in pulses)
    apply_s = total("propagator.apply_pulse")
    evolves = by_name.get("exact.evolve_exact", [])
    exact_pulses = sum(s[ATTRS]["pulses"] for s in evolves)
    evolve_s = total("exact.evolve_exact")
    generator_s = total("exact.rotating_frame_generator")
    child_s: dict[int, float] = {}
    for span in spans:
        if span[PARENT] is not None:
            child_s[span[PARENT]] = child_s.get(span[PARENT], 0.0) + duration(span)
    ops = by_name.get("cli.main", [])
    return {
        "propagator.ns_per_state_pulse": 1e9 * apply_s / state_pulses if state_pulses else 0.0,
        "propagator.us_per_pulse": 1e6 * apply_s / n_pulses if n_pulses else 0.0,
        "propagator.run_s": total("propagator.run_protocol"),
        "propagator.pulses": n_pulses,
        "propagator.state_pulses": state_pulses,
        "propagator.peak_active": max((max(s[ATTRS]["n_in"], s[ATTRS]["n_out"])
                                       for s in pulses), default=0),
        "propagator.kept_ratio": (sum(s[ATTRS]["n_out"] for s in pulses) / produced
                                  if produced else 0.0),
        "propagator.dropped": sum(s[ATTRS]["dropped"]
                                  for s in by_name.get("propagator.run_protocol", ())),
        "propagator.census_s": total("propagator.unwanted_census"),
        "exact.s_per_pulse": evolve_s / exact_pulses if exact_pulses else 0.0,
        "exact.evolve_s": evolve_s,
        "exact.generator_s": generator_s,
        "exact.evolve_self_s": evolve_s - generator_s,
        "exact.pulses": exact_pulses,
        "exact.dim": max((s[ATTRS]["dim"] for s in evolves), default=0),
        "protocol.synth_s": total("protocol.cn_remote_protocol"),
        "protocol.calls": count("protocol.cn_remote_protocol"),
        "analytics.epsilon_calls": count("analytics.epsilon"),
        "analytics.epsilon_s": total("analytics.epsilon"),
        "analytics.budget_s": total("analytics.error_budget"),
        "analytics.budget_calls": count("analytics.error_budget"),
        "cli.self_s": sum(duration(op) - child_s.get(op[ID], 0.0) for op in ops),
        "cli.csv_write_s": sum(total("csv." + w) for w in CSV_WRITERS),
        "cli.csv_bytes": csv_bytes,
    }


def summarize(per_pass: list[dict[str, float]], installed: set[str],
              overhead_s: float) -> tuple[dict[str, float], list[str], list[str]]:
    """Median over traced passes; returns (metrics, absent names, counter drifts)."""
    metrics: dict[str, float] = {}
    absent = []
    for name, (_, _, needs) in PER_LAYER.items():
        if needs and not installed.intersection(needs):
            absent.append(name)
        elif name == "trace.overhead_s":
            metrics[name] = overhead_s
        elif name in COUNTERS:
            metrics[name] = per_pass[0][name]
        else:
            metrics[name] = statistics.median(p[name] for p in per_pass)
    drifts = [f"{name} differs between traced passes: {[p[name] for p in per_pass]}"
              for name in COUNTERS
              if name in metrics and len({p[name] for p in per_pass}) > 1]
    return metrics, absent, drifts


def write_spans(spans: list[list], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "pass", "op", "parent", "name", "start", "end",
                         "excluded", "attrs"])
        for span in spans:
            writer.writerow([*span[:8], json.dumps(span[ATTRS], sort_keys=True)])
