"""Benchmark contract: what perfbench/ reads of the package still works.

The gated benchmark (perfbench/run.py) sets up each workload, then runs its
ops through `spinchain.cli.main`; `--trace 1` wraps package functions
(perfbench/tracing.py) and reads their arguments and results.  A change
that breaks any of these reads makes the benchmark fail at set-up or turn
every op into a failure, so this test runs them here first.  What perfbench
pins, by file:

* run.py `setup`: `spinchain.cli.cn_remote_protocol`, `PulseSequence.pulses`
  and `exact.rotating_frame_generator(pulse, params)`; `ChainParams(L=...)`;
  the modules `spinchain.cli`, `.propagator`, `.analytics` and `.exact`.
* run.py `run_op`: `spinchain.cli.main(argv)` and its exit codes.
* tracing.py: `propagator.apply_pulse(state, pulse, params, ...)` (it reads
  `pulse.nu`, `params` and `state.amplitudes`, the dict view, and the
  result's `amplitudes`), `propagator.resonant_spin(nu, params)` returning
  an int for a float carrier, `cli.evolve_exact(initial, seq, ...)` (it reads
  `seq.pulses` and `initial.amplitudes`), `cli.run_protocol` (the result's
  `[0].dropped`), and the other wrapped names of `tracing.TARGETS`.

It runs in a child process, so that set-up's BLAS environment and its
`sys.path` entry stay out of the test session.  For the `figures` and
`verify` workloads at seed 0 it sets up, runs the `fig4` and `L10` ops
traced, requires exit 0 and every output check to pass, and requires
`tracing.summarize` to report no per-layer metric absent.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import sys
from pathlib import Path

sys.path.insert(0, "perfbench")
import run
import tracing

tmp = Path(sys.argv[1])
for workload, name in (("figures", "fig4"), ("verify", "L10")):
    ctx = run.setup(workload, 0, tmp / workload)
    [op] = [op for op in ctx.ops if op.name == name]
    tracer = tracing.Tracer()
    outdir = tmp / workload / "out"
    with tracing.instrumented(tracer, ctx.modules) as installed:
        code, _, err = run.run_op(ctx, op, outdir, tracer)
    assert code == 0, f"{name}: exit {code}: {err}"
    problems = run.OpChecker(workload, 0).check(op, outdir)
    assert not problems, f"{name}: {problems}"
    layers = tracing.pass_metrics(tracer.spans, run.csv_bytes(outdir))
    _, absent, _ = tracing.summarize([layers], installed, 0.0)
    assert not absent, f"{name}: absent per-layer metrics {absent}"
    print(f"{name}: ok")
"""


def test_benchmark_setup_and_traced_ops_run(tmp_path):
    done = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["fig4:", "ok", "L10:", "ok"]
