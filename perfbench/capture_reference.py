#!/usr/bin/env python3
"""Write reference/ from the seed-0 outputs of the program in this checkout.

    python3 perfbench/capture_reference.py

Figure tables are copied verbatim into reference/figures/<table>/, the
sweep chunks of one table one after another under a single header; the `run`
and `verify` ops are reduced to the scalars that checks.summary reads
(census count, P1, P1cal and dropped; TVD and max gap) in
reference/scalars.json.  Re-capture only when a change of the physics is
intended, and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import checks
import run
import workloads


def _append_table(src: Path, dest: Path) -> None:
    """Copy a table, or add its rows below the header of one already begun."""
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    if dest.exists():
        with open(dest, "a", encoding="utf-8") as fh:
            fh.writelines(lines[1:])
    else:
        dest.write_text("".join(lines), encoding="utf-8")


def main() -> int:
    scalars: dict[str, dict] = {}
    started: set[Path] = set()
    workdir = run.WORK / "capture"
    shutil.rmtree(workdir, ignore_errors=True)
    for workload in workloads.BUILDERS:
        ctx = run.setup(workload, 0, workdir / workload)
        for op in ctx.ops:
            outdir = workdir / workload / "out" / op.name
            code, _, err = run.run_op(ctx, op, outdir, None)
            if code != 0:
                print(f"{workload}/{op.name} exited {code}: {err}", file=sys.stderr)
                return 1
            if workload == "figures":
                target = checks.REFERENCE_DIR / workload / op.reference
                if target not in started:
                    started.add(target)
                    shutil.rmtree(target, ignore_errors=True)
                    target.mkdir(parents=True)
                for path in sorted(outdir.glob("*.csv")):
                    _append_table(path, target / path.name)
            else:
                scalars.setdefault(workload, {})[op.name] = checks.summary(op.command, outdir)
    checks.SCALARS_FILE.write_text(json.dumps(scalars, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")
    shutil.rmtree(workdir, ignore_errors=True)
    print(f"wrote {checks.REFERENCE_DIR}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
