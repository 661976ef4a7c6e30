#!/usr/bin/env python3
"""Show that every correctness check catches a corrupted value or a flipped byte.

    python3 perfbench/selftest.py

Runs each workload's ops once at seed 0 and requires the outputs to pass
every check.  Then, on copies of those outputs, it corrupts one value per
case and requires the check under test to fail; a last-ulp change must
still pass the reference check.  Exits 1 if any case goes the wrong way.
"""

from __future__ import annotations

import csv
import shutil
import sys
from pathlib import Path

import checks
import run
import workloads


def _edit(path: Path, row: int, col: str, change) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    j = rows[0].index(col)
    rows[row + 1][j] = change(rows[row + 1][j])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def scale(file: str, row: int, col: str, factor: float):
    return lambda d: _edit(d / file, row, col, lambda v: repr(float(v) * factor))


def shift(file: str, row: int, col: str, delta: float):
    return lambda d: _edit(d / file, row, col, lambda v: repr(float(v) + delta))


def replace(file: str, row: int, col: str, text: str):
    return lambda d: _edit(d / file, row, col, lambda v: text)


def drop_last_row(file: str):
    def mutate(d: Path) -> None:
        lines = (d / file).read_text(encoding="utf-8").splitlines(keepends=True)
        (d / file).write_text("".join(lines[:-1]), encoding="utf-8")
    return mutate


def flip_byte(file: str):
    def mutate(d: Path) -> None:
        data = bytearray((d / file).read_bytes())
        data[len(data) // 2] ^= 0x01
        (d / file).write_bytes(bytes(data))
    return mutate


def main() -> int:
    workdir = run.WORK / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    scalars = checks.load_scalars()
    outputs: dict[tuple[str, str], tuple[str, Path]] = {}
    bad = 0

    def report(ok: bool, text: str) -> None:
        nonlocal bad
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {text}")

    def reference(workload: str, name: str):
        op = outputs[workload, name][0]
        return lambda d: checks.reference_failures(workload, op, d, scalars)

    def invariants(workload: str, name: str):
        return lambda d: checks.invariant_failures(outputs[workload, name][0].command, d)

    for workload in workloads.BUILDERS:
        ctx = run.setup(workload, 0, workdir / workload)
        for op in ctx.ops:
            outdir = workdir / workload / "out" / op.name
            code, _, err = run.run_op(ctx, op, outdir, None)
            outputs[workload, op.name] = (op, outdir)
            problems = (checks.invariant_failures(op.command, outdir)
                        + checks.reference_failures(workload, op, outdir, scalars))
            report(code == 0 and not problems,
                   f"{workload}/{op.name}: clean output passes {problems or ''}{err}")

    # (workload, op, what is corrupted, mutation, check, must the check fail);
    # row numbers count within the op's own table, so row 3 of fig2.L51-63 is L=54
    cases = [
        ("figures", "fig1", "eps x (1+1e-7)", scale("sweep_omega.csv", 100, "eps", 1 + 1e-7),
         reference, True),
        ("figures", "fig1", "below_P0 flipped", replace("sweep_omega.csv", 0, "below_P0", "0"),
         reference, True),
        ("figures", "fig2.L51-63", "P1_numeric x (1+1e-7)",
         scale("sweep_length.csv", 3, "P1_numeric", 1 + 1e-7), reference, True),
        ("figures", "fig2.L51-63", "P1_numeric x (1+1e-15), a last-ulp change",
         scale("sweep_length.csv", 3, "P1_numeric", 1 + 1e-15), reference, False),
        ("figures", "fig2.L4-50", "regime renamed",
         replace("budgets.csv", 0, "regime", "eps2-eps3"), reference, True),
        ("figures", "fig3.L97-100", "N_unwanted set to 0",
         replace("sweep_length.csv", 3, "N_unwanted", "0"), reference, True),
        ("figures", "fig3.L97-100", "last length missing", drop_last_row("sweep_length.csv"),
         reference, True),
        ("figures", "fig3.L4-50", "eps_prime x (1+1e-7)",
         scale("budgets.csv", 10, "eps_prime", 1 + 1e-7), reference, True),
        ("figures", "fig4", "probability x (1+1e-7)",
         scale("spectrum.csv", 10, "probability", 1 + 1e-7), reference, True),
        ("figures", "fig4", "last state missing", drop_last_row("spectrum.csv"),
         reference, True),
        ("sparse_ladder", "L100", "last census state missing", drop_last_row("census.csv"),
         reference, True),
        ("sparse_ladder", "L200", "census probability x (1+1e-6)",
         scale("census.csv", 0, "probability", 1 + 1e-6), reference, True),
        ("sparse_ladder", "L100", "dropped x (1+1e-6)",
         scale("report.csv", 196, "dropped_cumulative", 1 + 1e-6), reference, True),
        ("verify", "L10", "abs_gap x (1+1e-6)", scale("verify.csv", 0, "abs_gap", 1 + 1e-6),
         reference, True),
        ("sparse_ladder", "L200", "probability + 1e-11",
         shift("final_state.csv", 0, "probability", 1e-11), invariants, True),
        ("sparse_ladder", "L100", "dropped + 1e-11",
         shift("report.csv", 196, "dropped_cumulative", 1e-11), invariants, True),
        ("verify", "L10", "abs_gap set to 2e-3", replace("verify.csv", 0, "abs_gap", "0.002"),
         invariants, True),
    ]
    for workload, name, what, mutate, check, must_fail in cases:
        source = outputs[workload, name][1]
        copy = workdir / "corrupt" / workload / name
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(source, copy)
        mutate(copy)
        failures = check(workload, name)(copy)
        kind = check.__name__
        verb = "caught by" if must_fail else "accepted by"
        report(bool(failures) == must_fail, f"{workload}/{name}: {what} {verb} {kind} "
               f"{failures[:1]}")

    for (workload, name), (_, source) in outputs.items():
        before = checks.digests(source)
        for path in sorted(source.glob("*.csv")):
            copy = workdir / "corrupt" / workload / name
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(source, copy)
            flip_byte(path.name)(copy)
            failures = checks.determinism_failures(before, checks.digests(copy))
            report(bool(failures), f"{workload}/{name}: flipped byte in {path.name} "
                                   f"caught by determinism")

    shutil.rmtree(workdir, ignore_errors=True)
    print(f"{bad} case(s) failed" if bad else "all cases passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
