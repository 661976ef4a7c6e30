#!/usr/bin/env python3
"""Regenerate the four standard experiment datasets into out/fig{1..4}/.

Each preset sets only what its figure changes from the command's defaults:
fig1's Omega grid, Omega=0.0906 (fig2) or 0.20844 (fig3, fig4), and fig4's
L=70 and reporting floor P0=1e-8, which resolves the second-order band.  The
pruning threshold P_drop defaults to P0, 1e-6 unless a preset lowers it.
The emitted CSVs are figure-ready:

  fig1  sweep_omega.csv   single-pulse error vs Rabi frequency, both detunings
  fig2  sweep_length.csv  P1 and P1cal vs chain length in the eps1-eps2 regime
  fig3  sweep_length.csv  same sweep at relatively large eps (eps2-eps3 regime)
  fig4  spectrum.csv      per-state probabilities at L=70, two bands

Each figN/ also keeps figN.cfg, the one-line config (preset=figN) that
made it.

Usage: python scripts/reproduce_figures.py [outdir]
"""

import sys
from pathlib import Path

from spinchain.cli import main

JOBS = [
    ("fig1", "sweep-omega"),
    ("fig2", "sweep-length"),
    ("fig3", "sweep-length"),
    ("fig4", "spectrum"),
]


def run(outdir: Path) -> int:
    for preset, command in JOBS:
        target = outdir / preset
        print(f"== {preset}: spinchain {command} -> {target}")
        target.mkdir(parents=True, exist_ok=True)
        cfg = target / f"{preset}.cfg"
        cfg.write_text(f"preset={preset}\n")
        code = main([command, "--config", str(cfg), "--out", str(target)])
        if code != 0:
            print(f"{preset} failed with exit code {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
    raise SystemExit(run(out))
