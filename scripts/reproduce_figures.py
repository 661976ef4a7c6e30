#!/usr/bin/env python3
"""Regenerate the four standard experiment datasets into out/fig{1..4}/.

Each preset bundles its parameters: J=1, Omega=0.0906 (fig2) or 0.20844
(fig3, fig4), the reporting floor P0 and, for fig2-fig4, the pruning
threshold P_drop, both 1e-6, or both 1e-8 for fig4, whose spectrum resolves
the second-order band.  The emitted CSVs are figure-ready:

  fig1  sweep_omega.csv   single-pulse error vs Rabi frequency, both detunings
  fig2  sweep_length.csv  P1 and P1cal vs chain length in the eps1-eps2 regime
  fig3  sweep_length.csv  same sweep at relatively large eps (eps2-eps3 regime)
  fig4  spectrum.csv      per-state probabilities at L=70, two bands

Usage: python scripts/reproduce_figures.py [outdir]
"""

import os
import sys
import tempfile
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
        with tempfile.NamedTemporaryFile("w", suffix=".cfg", delete=False) as fh:
            fh.write(f"preset={preset}\n")
            cfg = fh.name
        try:
            code = main([command, "--config", cfg, "--out", str(target)])
        finally:
            os.unlink(cfg)
        if code != 0:
            print(f"{preset} failed with exit code {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
    raise SystemExit(run(out))
