#!/usr/bin/env python3
"""spinchain benchmark: one workload, one seed, a fixed measuring window.

    python3 perfbench/run.py --workload figures|verify|sparse_ladder
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
src/ directory, never from an installed copy.  One single-process caller in
a closed loop: each op (one `spinchain.cli.main` call) starts after the
previous one ends, and a pass is every op of the workload once.  Passes
repeat until the next one would end after S seconds, and at least twice, so
that every run checks that its outputs are byte-stable.

--trace 0 reports the end-to-end metrics: setup_s (median of several
set-ups), quiet_wall_s (a pass with each op at its lower-quartile time,
each op timed against a probe of its kind of work, see PROBES) and
peak_rss_mb.  --trace 1 alternates untraced and traced passes and reports
the per-layer metrics of tracing.py, with the tracing overhead.  Every op's outputs are
checked (checks.py); an op fails on a nonzero exit or a failed check.  The
last line of stdout is the JSON result; the run's record (environment,
pass times, failures, and the spans of a traced run) is written under
.perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# One BLAS thread: on a 2-core box verify repeated within 4% over 5 runs at
# 1 thread (4.05-4.20 s) but spread 2.82-4.36 s at 2 threads.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
MIN_PASSES = 2
# the warm-up eigh uses the verify workload's first generator (2^10 states)
WARMUP_L = 10
WARMUP_OMEGA = workloads.FIG2_OMEGA


class Context(NamedTuple):
    """What set-up leaves for the passes: the package modules and the ops."""

    modules: dict
    ops: list
    configs: dict[str, Path]


def setup(workload: str, seed: int, workdir: Path) -> Context:
    """Import the package, write the seed's configs, and warm up BLAS/eigh."""
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy as np
    import spinchain
    import spinchain.analytics
    import spinchain.cli
    import spinchain.exact
    import spinchain.propagator
    from spinchain.model import ChainParams

    if Path(spinchain.__file__).resolve().parent != SRC / "spinchain":
        raise RuntimeError(f"imported spinchain from {spinchain.__file__}, not {SRC}")
    ops = workloads.build(workload, seed)
    cfg_dir = workdir / "cfg"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    configs = {}
    for op in ops:
        configs[op.name] = cfg_dir / f"{op.name}.cfg"
        configs[op.name].write_text(op.config, encoding="utf-8")
    params = ChainParams(L=WARMUP_L)
    seq = spinchain.cli.cn_remote_protocol(params, WARMUP_OMEGA)
    np.linalg.eigh(spinchain.exact.rotating_frame_generator(seq.pulses[0], params))
    modules = {name: sys.modules[name] for name in (
        "spinchain.cli", "spinchain.propagator", "spinchain.analytics", "spinchain.exact")}
    return Context(modules, ops, configs)


def probe_setup(workload: str, seed: int, workdir: Path) -> float:
    """Time set-up in a fresh interpreter, as the measured run pays it."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def python_probe() -> float:
    """Seconds a fixed dict-and-integer loop takes: the interpreter's speed now."""
    start = perf_counter()
    table: dict[int, int] = {}
    for i in range(30000):
        key = i & 1023
        table[key] = table.get(key, 0) + i * i % 7
    return perf_counter() - start


@functools.cache
def _probe_matrix():
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    return a + a.conj().T


def lapack_probe() -> float:
    """Seconds four eigh calls on a fixed 256x256 Hermitian matrix take."""
    import numpy as np

    matrix = _probe_matrix()
    start = perf_counter()
    for _ in range(4):
        np.linalg.eigh(matrix)
    return perf_counter() - start


# The shared host's speed swings by up to 1.7x within seconds and stays low
# for minutes.  An op's time over the mean of two probes, one just before and
# one just after it, no longer carries that swing if the probe does the same
# kind of work and the op is short; the probe's quiet time turns the ratio
# back into seconds at the quiet machine's speed.  Quiet times: fastest on the
# development box (Intel Xeon at 2.1 GHz, Python 3.11.7, one OpenBLAS thread)
# of 2,130 and 118 probes.  figures' ops are 0.01-0.3 s of Python-level work;
# verify's one 4-s op is LAPACK work, which slows less than the Python probe:
# divided by that probe it spread 0.12 over 10 runs, plain 0.05-0.10, and
# divided by the LAPACK probe 0.035 over 5 and 0.073 over 10.  sparse_ladder
# (by hand only) is timed plain: against a 17k-entry dict-sweep probe its ops
# of several seconds spread as much as plain.
PROBES = {
    "figures": (python_probe, 0.0039),
    "verify": (lapack_probe, 0.065),
}


def run_op(ctx: Context, op, outdir: Path, tracer: tracing.Tracer | None):
    """One spinchain.cli.main call; returns (exit code or None, seconds, stderr)."""
    shutil.rmtree(outdir, ignore_errors=True)
    argv = [op.command, "--config", str(ctx.configs[op.name]), "--out", str(outdir)]
    main = ctx.modules["spinchain.cli"].main
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        span = tracer.begin("cli.main") if tracer is not None else None
        start = perf_counter()
        try:
            code = main(argv)
        except Exception:  # a crash is a failed op, not a crashed benchmark
            code = None
            traceback.print_exc(file=err)
        elapsed = perf_counter() - start
        if span is not None:
            tracer.end(span)
    return code, elapsed, err.getvalue()


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": BLAS_THREADS,
    }


def lower_quartile(values: list[float]) -> float:
    """First quartile, interpolated within the samples (never below the least)."""
    if len(values) == 1:  # a short traced run may hold one untraced pass
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def csv_bytes(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.glob("*.csv"))


def state_pulses(outdir: Path) -> int:
    """Active states entering each pulse of a `run` op, summed (report.csv);
    the run starts from one basis state."""
    _, rows = checks.read_table(outdir / "report.csv")
    return 1 + sum(int(r["active_states"]) for r in rows[:-1])


class OpChecker:
    """Checks each op's outputs: in full the first time an op runs, after
    that for byte-identity with that first output."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.scalars = checks.load_scalars() if seed == 0 else {}
        self.first_digests: dict[str, dict[str, str]] = {}
        self.first_verdicts: dict[str, list[str]] = {}

    def check(self, op, outdir: Path) -> list[str]:
        sums = checks.digests(outdir)
        if op.name in self.first_digests:
            # identical bytes to a failed output are failed too
            return (checks.determinism_failures(self.first_digests[op.name], sums)
                    + self.first_verdicts[op.name])
        verdict = checks.invariant_failures(op.command, outdir)
        if self.seed == 0:
            verdict += checks.reference_failures(self.workload, op, outdir, self.scalars)
        self.first_digests[op.name] = sums
        self.first_verdicts[op.name] = verdict
        return verdict


def measure(args, workdir: Path) -> int:
    start = perf_counter()
    ctx = setup(args.workload, args.seed, workdir)
    setup_times = [perf_counter() - start]

    checker = OpChecker(args.workload, args.seed)
    outroot = workdir / "out"
    tracer = tracing.Tracer()
    failures: list[str] = []
    plain_times: list[float] = []
    op_times: dict[str, list[float]] = {op.name: [] for op in ctx.ops}
    op_ratios: dict[str, list[float]] = {op.name: [] for op in ctx.ops}
    probe, probe_quiet_s = PROBES.get(args.workload, (None, None))
    probed = probe is not None
    traced_times: list[float] = []
    traced_layers: list[dict[str, float]] = []
    installed: set[str] = set()
    sparse_rates: list[float] = []
    attempted = failed = 0
    window = perf_counter()
    while True:
        pass_index = len(plain_times) + len(traced_times)
        traced = args.trace == 1 and pass_index % 2 == 1
        tracer.pass_index = pass_index
        pass_time = 0.0
        pass_bytes = 0
        pass_work = 0
        with (tracing.instrumented(tracer, ctx.modules) if traced
              else contextlib.nullcontext(set())) as wrapped:
            installed |= wrapped
            for op in ctx.ops:
                tracer.op_id += 1
                outdir = outroot / op.name
                before = probe() if probed and not traced else 0.0
                code, elapsed, err = run_op(ctx, op, outdir, tracer if traced else None)
                pass_time += elapsed
                if not traced:
                    op_times[op.name].append(elapsed)
                    if probed:
                        op_ratios[op.name].append(2.0 * elapsed / (before + probe()))
                attempted += 1
                problems = [] if code == 0 else [f"exit code {code}: {err.strip()}"]
                problems += checker.check(op, outdir)
                if problems:
                    failed += 1
                    failures += [f"pass {pass_index} {op.name}: {p}" for p in problems]
                pass_bytes += csv_bytes(outdir)
                if op.command == "run" and not problems:
                    pass_work += state_pulses(outdir)
        if traced:
            spans = [s for s in tracer.spans if s[tracing.PASS] == pass_index]
            traced_layers.append(tracing.pass_metrics(spans, pass_bytes))
            traced_times.append(pass_time)
        else:
            plain_times.append(pass_time)
            if pass_work:
                sparse_rates.append(pass_work / pass_time)
        # the remaining set-up samples are spread over the window, between
        # passes, so that one slow spell of the machine cannot skew them all
        if args.trace == 0 and len(setup_times) < SETUP_SAMPLES:
            probe_dir = workdir / f"probe{len(setup_times)}"
            setup_times.append(probe_setup(args.workload, args.seed, probe_dir))
            shutil.rmtree(probe_dir, ignore_errors=True)
        done = len(plain_times) + len(traced_times)
        elapsed = perf_counter() - window
        typical = statistics.median(plain_times + traced_times)
        if done >= MIN_PASSES and elapsed + typical > args.seconds:
            break

    env = environment()
    wall = math.fsum(lower_quartile(times) for times in op_times.values())
    quiet_wall = (probe_quiet_s * math.fsum(lower_quartile(r) for r in op_ratios.values())
                  if probed else wall)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "ops": [{"name": op.name, "command": op.command, "config": op.config}
                for op in ctx.ops],
        "setup_s_samples": setup_times, "pass_s": plain_times, "op_s": op_times,
        "op_over_probe": op_ratios, "wall_s": wall,
        "traced_pass_s": traced_times, "failures": failures,
    }
    if args.trace == 1:
        overhead = min(traced_times) - min(plain_times)
        metrics, absent, drifts = tracing.summarize(traced_layers, installed, overhead)
        # a counter that moves between identical passes makes the run's ops suspect
        failures += drifts
        if drifts:
            failed = attempted
        units = {name: unit for name, (unit, _, _) in tracing.PER_LAYER.items()}
        record["absent_metrics"] = absent
        tracing.write_spans(tracer.spans, workdir / "spans.csv")
        if absent:
            print(f"absent per-layer metrics (target no longer called): {absent}")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            # Each op's time (over its probes, see PROBES) at its lower quartile
            # over the passes, summed.  Over 10 runs on the shared development
            # box plain times spread 0.12-0.21 (figures) and 0.05-0.17 (verify)
            # whatever the statistic, times over the probes 0.019-0.046 and
            # 0.073 (README.md).
            "quiet_wall_s": quiet_wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "quiet_wall_s": "s", "peak_rss_mb": "MB"}
    record["metrics"] = metrics
    record["state_pulses_per_s"] = statistics.median(sparse_rates) if sparse_rates else None
    (workdir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    shutil.rmtree(outroot, ignore_errors=True)

    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"{args.workload} seed={args.seed}: median pass "
          f"{statistics.median(plain_times):.4f} s, fastest {min(plain_times):.4f} s, "
          f"each op at its lower quartile {wall:.4f} s, at the probe's quiet speed "
          f"{quiet_wall:.4f} s")
    print(f"{args.workload} seed={args.seed}: {len(plain_times)} untraced passes "
          f"{[round(t, 4) for t in plain_times]} s, {len(traced_times)} traced passes "
          f"{[round(t, 4) for t in traced_times]} s")
    if sparse_rates:
        print(f"state_pulses_per_s: {record['state_pulses_per_s']:.6g} "
              f"(median of {len(sparse_rates)} passes)")
    print(f"fail_ratio: {failed}/{attempted} ops")
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spinchain" / "__init__.py").is_file():
        print(f"perfbench: no spinchain sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        start = perf_counter()
        setup(args.workload, args.seed, Path(args.workdir))
        print(perf_counter() - start)
        return 0
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return measure(args, workdir)


if __name__ == "__main__":
    raise SystemExit(main())
