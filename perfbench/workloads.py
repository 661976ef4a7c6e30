"""Workload definitions: the spinchain commands each benchmark pass runs.

A workload is a fixed list of ops; one op is one `spinchain.cli.main` call
with its own config file and output directory.  Seed 0 runs the paper's
operating points verbatim (the figure presets exactly as
scripts/reproduce_figures.py writes them), so its outputs can be compared
with the reference captured in reference/.  Any other seed scales every
Rabi frequency of the workload by one factor drawn from
1 +/- OMEGA_JITTER.  The band is this narrow because eps is steep in Omega:
at Omega = 0.0906 a 0.5% shift crosses a suppression zero and leaves the
eps1-eps2 regime, and on the L=100 ladder point each 0.01% shift moves the
state-pulse count by about 0.4%.  At 2e-4 the work of a pass moves by at
most ~1%, every regime is kept, and verify's TVD stays under its 1e-3 bound.

The fig2 and fig3 length sweeps run as ops over consecutive L ranges (the
CLI's L_min/L_max keys on top of the preset), each a sweep-length call of
0.1-0.3 s.  Every length is an independent protocol run, so the chunks
compute exactly the rows of the whole sweep.  The benchmark times each op
against a probe run just before and after it (run.PROBES), and a probe of
Python-level work tells the machine's speed during such an op only when the
op is short.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

OMEGA_JITTER = 2e-4

FIG2_OMEGA = 0.0906
FIG3_OMEGA = 0.20844
FIG1_OMEGA_RANGE = (0.02, 0.6)
SWEEP_L_MIN = 4  # the fig2/fig3 presets' L_min; their L_max, 100, ends the last chunk
# last L of each chunk; the cost of a length grows about as L^3, so these
# split both sweeps into eight parts of near-equal time
SWEEP_CHUNKS = (50, 63, 72, 80, 86, 91, 96, 100)


@dataclass(frozen=True)
class Op:
    name: str       # unique within the workload; names the output directory
    command: str    # spinchain subcommand
    config: str     # key=value config text handed to the program
    table: str = ""  # reference/<workload>/<table>/ has its expected output; "" = name
    lengths: range | None = None  # the L rows of that table a sweep chunk writes

    @property
    def reference(self) -> str:
        return self.table or self.name


def _ladder(L: int, omega: float) -> str:
    return f"L={L}\nOmega={omega!r}\nP_drop=1e-8\nP0=1e-6\n"


def _figures(scale: float | None) -> list[Op]:
    if scale is None:
        fig1 = fig2 = fig3 = fig4 = ""
    else:
        lo, hi = FIG1_OMEGA_RANGE
        fig1 = f"omega_min={lo * scale!r}\nomega_max={hi * scale!r}\n"
        fig2 = f"Omega={FIG2_OMEGA * scale!r}\n"
        fig3 = fig4 = f"Omega={FIG3_OMEGA * scale!r}\n"
    return [
        Op("fig1", "sweep-omega", "preset=fig1\n" + fig1),
        *_sweep_chunks("fig2", fig2),
        *_sweep_chunks("fig3", fig3),
        Op("fig4", "spectrum", "preset=fig4\n" + fig4),
    ]


def _sweep_chunks(preset: str, extra: str) -> list[Op]:
    ops = []
    lo = SWEEP_L_MIN
    for hi in SWEEP_CHUNKS:
        config = f"preset={preset}\nL_min={lo}\nL_max={hi}\n" + extra
        ops.append(Op(f"{preset}.L{lo}-{hi}", "sweep-length", config,
                      table=preset, lengths=range(lo, hi + 1)))
        lo = hi + 1
    return ops


def _sparse_ladder(scale: float | None) -> list[Op]:
    omega = FIG3_OMEGA * (1.0 if scale is None else scale)
    return [Op(f"L{L}", "run", _ladder(L, omega)) for L in (100, 200)]


def _verify(scale: float | None) -> list[Op]:
    omega = FIG2_OMEGA * (1.0 if scale is None else scale)
    return [Op("L10", "verify", f"L=10\nOmega={omega!r}\n")]


BUILDERS = {
    "figures": _figures,
    "sparse_ladder": _sparse_ladder,
    "verify": _verify,
}


def build(workload: str, seed: int) -> list[Op]:
    """Ops of one workload pass for a seed; seed 0 is the reference point."""
    if workload not in BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(BUILDERS)}")
    scale = None
    if seed != 0:
        scale = 1.0 + random.Random(seed).uniform(-OMEGA_JITTER, OMEGA_JITTER)
    return BUILDERS[workload](scale)
