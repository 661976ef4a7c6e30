"""Correctness checks on the CSV files one op leaves in its output directory.

Three kinds, each returning a list of failure messages (empty = pass):

* reference: seed-0 outputs against values captured from the program
  (reference/).  Floats match to a relative 1e-9, integers and strings
  exactly.  Bytes are not compared: a legitimate refactor may move the last
  ulp.  Columns are matched by header name, so a later column added to a
  table does not fail the check; a missing one does.
* invariants, at any seed: the norm ledger sum(p) + dropped = 1 to 1e-12 of
  a `run` op, and TVD <= 1e-3 of a `verify` op.
* determinism: every pass of a run writes byte-identical CSVs, compared by
  SHA-256 digest.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SCALARS_FILE = REFERENCE_DIR / "scalars.json"

REL_TOL = 1e-9
ABS_TOL = 1e-15        # probabilities below this are numerical zero
NORM_LEDGER_TOL = 1e-12
TVD_BOUND = 1e-3
MAX_MESSAGES = 5

# state tables are keyed by state so rows of equal probability may swap
TABLE_KEYS = {"spectrum.csv": "state", "census.csv": "state"}


def read_table(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


def _cell_matches(ref: str, got: str) -> bool:
    try:
        return int(ref) == int(got)
    except ValueError:
        pass
    try:
        return close(float(ref), float(got))
    except ValueError:
        return ref == got


def compare_table(got_path: Path, ref_path: Path, lengths: range | None = None) -> list[str]:
    """Failures of one output table against its reference copy, or against
    the reference rows of the chain lengths a sweep chunk covers."""
    name = ref_path.name
    if not got_path.is_file():
        return [f"{name}: missing"]
    ref_header, ref_rows = read_table(ref_path)
    if lengths is not None:
        ref_rows = [r for r in ref_rows if int(r["L"]) in lengths]
    got_header, got_rows = read_table(got_path)
    missing = [c for c in ref_header if c not in got_header]
    if missing:
        return [f"{name}: missing columns {missing}"]
    if len(got_rows) != len(ref_rows):
        return [f"{name}: {len(got_rows)} rows, reference has {len(ref_rows)}"]
    key = TABLE_KEYS.get(name)
    if key is not None:
        by_key = {row[key]: row for row in got_rows}
        pairs = [(r[key], r, by_key.get(r[key])) for r in ref_rows]
    else:
        pairs = [(str(i + 1), r, g) for i, (r, g) in enumerate(zip(ref_rows, got_rows))]
    failures = []
    for label, ref_row, got_row in pairs:
        if got_row is None:
            failures.append(f"{name}: row {label} missing")
            continue
        for col in ref_header:
            if not _cell_matches(ref_row[col], got_row[col]):
                failures.append(f"{name}: row {label} {col}={got_row[col]}, "
                                f"reference {ref_row[col]}")
        if len(failures) >= MAX_MESSAGES:
            break
    return failures[:MAX_MESSAGES]


def summary(command: str, outdir: Path) -> dict[str, float]:
    """Scalar results of a `run` or `verify` op, read from its CSVs."""
    if command == "run":
        _, census = read_table(outdir / "census.csv")
        # P1cal counts target bit 0 set, control bit L-1 clear; bitstrings
        # render b_{L-1} ... b_0
        target = [r for r in census if r["state"][-1] == "1" and r["state"][0] == "0"]
        _, report = read_table(outdir / "report.csv")
        return {
            "census_count": len(census),
            "P1": math.fsum(float(r["probability"]) for r in census),
            "P1cal": math.fsum(float(r["probability"]) for r in target),
            "dropped": float(report[-1]["dropped_cumulative"]),
        }
    if command == "verify":
        _, rows = read_table(outdir / "verify.csv")
        gaps = [float(r["abs_gap"]) for r in rows]
        return {"tvd": 0.5 * math.fsum(gaps), "max_gap": max(gaps)}
    return {}


def load_scalars() -> dict:
    with open(SCALARS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def reference_failures(workload: str, op, outdir: Path, scalars: dict) -> list[str]:
    """Seed-0 outputs of one op (a workloads.Op) against the stored reference."""
    ref_dir = REFERENCE_DIR / workload / op.reference
    if ref_dir.is_dir():
        failures = []
        for ref_path in sorted(ref_dir.glob("*.csv")):
            failures += compare_table(outdir / ref_path.name, ref_path, op.lengths)
        return failures
    expected = scalars.get(workload, {}).get(op.name)
    if expected is None:
        return [f"no reference for {workload}/{op.name}"]
    try:
        got = summary(op.command, outdir)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [f"{op.name}: unreadable output ({exc!r})"]
    failures = []
    for key, value in expected.items():
        if key not in got:
            failures.append(f"{op.name}: {key} missing")
        elif isinstance(value, int) and got[key] != value:
            failures.append(f"{op.name}: {key}={got[key]}, reference {value}")
        elif not close(float(got[key]), float(value)):
            failures.append(f"{op.name}: {key}={got[key]!r}, reference {value!r}")
    return failures


def invariant_failures(command: str, outdir: Path) -> list[str]:
    """Checks that hold at every seed."""
    try:
        if command == "run":
            _, state = read_table(outdir / "final_state.csv")
            _, report = read_table(outdir / "report.csv")
            total = math.fsum(float(r["probability"]) for r in state)
            defect = total + float(report[-1]["dropped_cumulative"]) - 1.0
            if not abs(defect) <= NORM_LEDGER_TOL:
                return [f"norm ledger: sum p + dropped - 1 = {defect:.3e}"]
        elif command == "verify":
            tvd = summary(command, outdir)["tvd"]
            if not tvd <= TVD_BOUND:
                return [f"verify: TVD {tvd:.6e} exceeds {TVD_BOUND:g}"]
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [f"{command}: unreadable output ({exc!r})"]
    return []


def digests(outdir: Path) -> dict[str, str]:
    """SHA-256 of every CSV in an op's output directory."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.glob("*.csv"))}


def determinism_failures(first: dict[str, str], again: dict[str, str]) -> list[str]:
    if first == again:
        return []
    changed = sorted(n for n in set(first) | set(again) if first.get(n) != again.get(n))
    return [f"not byte-identical to the first pass: {changed}"]
