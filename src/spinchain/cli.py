"""Command-line experiment drivers emitting figure-ready CSV data.

    spinchain <protocol|run|sweep-omega|sweep-length|spectrum|verify>
              --config <file> [--out <dir>]

Configs are plain key=value text.  Chain keys: L, J, omega0, delta_omega.
Drive and accounting keys: Omega, P_drop, and P0, the reporting floor of
every census and of sweep-omega's below_P0 column.  Initial state: either
initial=<bitstring>, or alpha=/beta= for the superposition
alpha|0...0> + beta|10...0> on the control qubit, read by `run` and
`verify`; `spectrum` and `sweep-length` start from |0...0>.  Every
propagating command takes its start from `ExperimentConfig.initial_state`.
Sweep keys: omega_min/omega_max/omega_steps (sweep-omega; eps and eps'
from `ground_branch_errors`); L_min/L_max/L_step (sweep-length).  Each
command reads only its own keys (`COMMANDS`) and rejects any other, naming
it and the command; it also rejects a key given twice, a value that does
not parse, a float that is not finite, an unphysical sweep grid (L_min
below 3 included), a P0 outside (0, 1), a P_drop outside [0, 1), an
initial= that is not a bitstring of L bits, or alpha and beta whose
squares do not sum to 1; the error names the key.  So is a Rabi frequency
(Omega, omega_min, omega_max) so small that the pulse phases overflow;
`verify` also rejects, with exit 1, an Omega at which the exact
propagation is not finite.  The protocol is a CN on inputs with target
bit 0 only, and `run` or `verify` from an initial= with that bit set says
so on stderr.

sweep-length runs the remote-CN protocol once, for the longest chain of its
grid, and takes each length L's census from that run's state after pulse
2L - 3, read in place as its top L spins (the propagator's Prefix note
says why they are chain L's own final state).  The ledger is checked at
each of those snapshots, and the run keeps three numbers of each length's
census (P1, P1cal and the count), not the census.  An empty grid (L_max
below L_min) is rejected.  Its analytic columns are truncated first-order
sums; where one leaves [0, 1] the command warns on stderr, naming the
column and the first such L, and writes the values unchanged.

P_drop defaults to P0, which defaults to 1e-6.  preset=fig1|fig2|fig3|fig4
sets only what its figure changes from the defaults (fig1's omega grid;
Omega=0.0906 or 0.20844; fig4's L=70 and P0=1e-8); explicit keys override
a preset, and preset keys that the command does not read are ignored.

Exit codes: 0 ok, 1 bad input, 2 verification failure (two finite
propagations that disagree).  Every command is deterministic: identical
config gives byte-identical CSV; wall times are printed, never written into
data files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import ChainMap
from dataclasses import dataclass

import numpy as np

from .analytics import error_budget, ground_branch_errors
from .exact import DenseState, check_dense_cap, evolve_exact
from .model import ChainParams
from .propagator import (
    RunReport,
    SparseState,
    bitstrings,
    run_protocol,
    unwanted_census,
)
from .protocol import cn_remote_protocol, control_branch

PRESETS: dict[str, dict[str, str]] = {
    "fig1": {"omega_min": "0.02", "omega_max": "0.6", "omega_steps": "2901"},
    "fig2": {"Omega": "0.0906"},
    "fig3": {"Omega": "0.20844"},
    # the spectrum resolves the second-order band, so its reporting floor,
    # and with it the pruning threshold, sits below eps^2
    "fig4": {"L": "70", "Omega": "0.20844", "P0": "1e-8"},
}

# verify passes at a TVD between the sparse map and the exact propagator up to this
VERIFY_TVD_BOUND = 1e-3


@dataclass
class ExperimentConfig:
    raw: ChainMap[str, str]  # the keys given in the file, over the preset's
    outdir: str  # where the CSVs go, --out's value

    def get(self, key: str, parse, default):
        """Value of `key` read by `parse`; a default of None makes the key
        required.  Errors name the key."""
        if key not in self.raw:
            if default is None:
                raise ValueError(f"config key {key!r} is required for this command")
            return default
        try:
            return parse(self.raw[key])
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: bad value {self.raw[key]!r} ({exc})") from None

    def get_float(self, key: str, default: float | None = None) -> float:
        value = self.get(key, float, default)
        if not math.isfinite(value):
            raise ValueError(f"config key {key!r} must be finite, got {value}")
        return value

    def get_int(self, key: str, default: int | None = None) -> int:
        return self.get(key, int, default)

    def require(self, key: str, value, ok: bool, rule: str) -> None:
        """Reject `value`, the one in use for `key`, unless `ok`; `rule` says
        what it must be."""
        if not ok:
            given = "" if key in self.raw else " (the default)"
            raise ValueError(f"config key {key!r} must be {rule}, got {value!r}{given}")

    def get_P0(self) -> float:
        """The reporting floor P0, which must lie in (0, 1); 1e-6 by default.
        The library states no floor of its own: every census, budget regime
        and below_P0 column takes this one."""
        value = self.get_float("P0", 1e-6)
        self.require("P0", value, 0.0 < value < 1.0, "in (0, 1)")
        return value

    def get_drop(self) -> float:
        """The pruning threshold P_drop, which must lie in [0, 1); P0 by
        default, so pruning drops no state that a census would count."""
        value = self.get_float("P_drop", self.get_P0())
        self.require("P_drop", value, 0.0 <= value < 1.0, "in [0, 1)")
        return value

    def chain_params(self, L: int | None = None) -> ChainParams:
        fields = {key: self.get_float(key)
                  for key in ("J", "omega0", "delta_omega") if key in self.raw}
        return ChainParams(L=self.get_int("L") if L is None else L, **fields)

    def initial_state(self, params: ChainParams) -> SparseState:
        """The start of every propagating command (`run`, `spectrum`,
        `sweep-length`, `verify`): initial=, alpha=/beta= or |0...0>, which
        is the start of the two that read neither.  An initial= that sets
        target bit 0 gets a note on stderr."""
        if "initial" in self.raw and ("alpha" in self.raw or "beta" in self.raw):
            raise ValueError("give either initial= or alpha=/beta=, not both")
        if "alpha" in self.raw or "beta" in self.raw:
            alpha = self.get_float("alpha")
            beta = self.get_float("beta")
            self.require("alpha", alpha, abs(alpha * alpha + beta * beta - 1.0) <= 1e-9,
                         f"such that alpha^2 + beta^2 = 1 (to 1e-9) with beta = {beta!r}")
            return SparseState.from_amplitudes(
                {0: complex(alpha), 1 << (params.L - 1): complex(beta)}, params.L)
        bits = 0  # |0...0>
        if "initial" in self.raw:
            bits = self.get("initial", _bitstring, None)
            text = self.raw["initial"]
            self.require("initial", text, len(text) == params.L,
                         f"{params.L} bits long, one per qubit of L={params.L}")
            if bits & 1:
                print("spinchain: note: the initial state sets target bit 0; the protocol "
                      "is a CN on target-0 inputs only", file=sys.stderr)
        return SparseState.from_amplitudes({bits: 1.0 + 0.0j}, params.L)


def _bitstring(text: str) -> int:
    """The packed state of a bitstring b_{L-1}...b_0, most significant qubit first."""
    if not text or text.strip("01"):
        raise ValueError(f"not a bitstring: {text!r}")
    return int(text, 2)


def parse_keyval_file(path) -> dict[str, str]:
    """Parse a plain-text key=value file into a string dict.

    '#' starts a comment; blank lines are skipped; whitespace around keys
    and values is ignored; a UTF-8 byte-order mark is skipped.  A key given
    twice is rejected, naming both lines.
    """
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in out:
                raise ValueError(f"{path}:{lineno}: config key {key!r} given twice "
                                 f"(lines {first_line[key]} and {lineno})")
            out[key] = value
            first_line[key] = lineno
    return out


def load_config(path: str, outdir: str) -> ExperimentConfig:
    """Config of a file over its preset (`main` checks the command's keys)."""
    raw = parse_keyval_file(path)
    preset = raw.pop("preset", None)
    if preset is not None and preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    return ExperimentConfig(raw=ChainMap(raw, PRESETS.get(preset, {})), outdir=outdir)


# rows sliced from each column per write: bounds the text held at once
_CSV_ROWS = 4096


def write_csv(path, columns: dict) -> None:
    """Write a table given as one mapping from column name to values, in
    column order, as CSV with Unix line ends: the header is the names, and
    row i holds the i-th value of each column.  Every column is a sized
    sequence (a list, a range or a `bitstrings` view), read in slices of
    `_CSV_ROWS` rows.  A column without a length, or of another length than
    the first, raises ValueError naming it before the file is opened.  Each
    field is written as its str.  Floats are Python floats, whose str is
    their repr, so identical inputs give byte-identical files.  No field the
    package writes (floats, ints, bitstrings, regime names) holds a comma,
    quote or line break, so none is quoted, and the bytes are those of
    `csv.writer(fh, lineterminator="\n")`."""
    names = list(columns)
    for name, c in columns.items():
        if not hasattr(c, "__len__"):
            raise ValueError(f"column {name!r} has no length; {path} not written")
        if len(c) != len(columns[names[0]]):
            raise ValueError(f"column {name!r} has {len(c)} rows, column {names[0]!r} "
                             f"has {len(columns[names[0]])}; {path} not written")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for start in range(0, len(columns[names[0]]), _CSV_ROWS):
            chunk = [map(str, c[start:start + _CSV_ROWS]) for c in columns.values()]
            fh.write("\n".join(map(",".join, zip(*chunk))) + "\n")


def _write_states(path, keys: np.ndarray, L: int, by: np.ndarray, **columns) -> None:
    """State table: a `state` column of each key row's bitstring, then one
    column per keyword, rows by descending `by`, ties by bitstring
    (ascending key, most significant word first)."""
    order = np.lexsort((*keys.T, -by))
    write_csv(path, {"state": bitstrings(keys[order], L),
                     **{name: c[order].tolist() for name, c in columns.items()}})


def write_state_csv(state: SparseState, path) -> None:
    """Final-state table: state,probability,amplitude_re,amplitude_im,
    sorted by descending probability, ties by bitstring."""
    p = state.probability_array()
    _write_states(path, state.keys, state.L, p, probability=p,
                  amplitude_re=state.amps.real, amplitude_im=state.amps.imag)


def write_report_csv(report: RunReport, path) -> None:
    """Run report: pulse_index,active_states,dropped_cumulative (1-based)."""
    write_csv(path, {"pulse_index": range(1, len(report.active_states) + 1),
                     "active_states": report.active_states,
                     "dropped_cumulative": report.dropped_cumulative})


def write_error_budget_csv(budget: dict[str, list], path) -> None:
    """Budget table: the columns of `error_budget`, one row per (L, Omega)."""
    write_csv(path, budget)


def _out(cfg: ExperimentConfig, name: str) -> str:
    os.makedirs(cfg.outdir, exist_ok=True)
    return os.path.join(cfg.outdir, name)


def cmd_protocol(cfg: ExperimentConfig) -> int:
    """Pulse table: index,nu,Omega,tau,flip_qubit,from_state,to_state, one
    row per pulse, 1-based; states render as bitstrings b_{L-1}...b_0."""
    params = cfg.chain_params()
    seq = cn_remote_protocol(params, cfg.get_float("Omega"))
    flips, branch = control_branch(params.L)
    path = _out(cfg, "protocol.csv")
    write_csv(path, {"index": range(1, len(seq) + 1), "nu": seq.nu.tolist(),
                     "Omega": seq.Omega.tolist(), "tau": seq.tau.tolist(),
                     "flip_qubit": flips.tolist(),
                     "from_state": bitstrings(branch[:-1], params.L),
                     "to_state": bitstrings(branch[1:], params.L)})
    print(f"wrote {path}: {len(seq)} pulses")
    return 0


def _run_and_census(cfg: ExperimentConfig, table: str) -> tuple:
    """(final, report, census) of run and spectrum: the protocol from the
    config's start at its Omega and P_drop, and the census at the floor P0,
    written to `table`, if the start carries no probability off |0...0> (else None)."""
    params = cfg.chain_params()
    initial = cfg.initial_state(params)
    Omega = cfg.get_float("Omega")
    P0 = cfg.get_P0()
    P_drop = cfg.get_drop()
    seq = cn_remote_protocol(params, Omega)
    final, report = run_protocol(initial, seq, params, P_drop=P_drop)
    if initial.amps[initial.keys.any(axis=1)].any():
        return final, report, None
    census = unwanted_census(final, threshold=P0)
    _write_states(_out(cfg, table), census.keys, params.L, census.probabilities,
                  probability=census.probabilities)
    return final, report, census


def cmd_run(cfg: ExperimentConfig) -> int:
    final, report, census = _run_and_census(cfg, "census.csv")
    write_state_csv(final, _out(cfg, "final_state.csv"))
    write_report_csv(report, _out(cfg, "report.csv"))
    print(f"run: {len(report.active_states)} pulses, {len(final.amps)} active states, "
          f"dropped={final.dropped:.3e}, wall={report.wall_time:.3f}s")
    if census is not None:
        print(f"census: {len(census.probabilities)} unwanted states, "
              f"P1={census.p1_total:.6e}, P1cal={census.p1_target:.6e}")
    return 0


def cmd_sweep_omega(cfg: ExperimentConfig) -> int:
    J = cfg.get_float("J", ChainParams.J)
    cfg.require("J", J, J > 0, "finite and positive")
    P0 = cfg.get_P0()
    lo = cfg.get_float("omega_min")
    hi = cfg.get_float("omega_max")
    steps = cfg.get_int("omega_steps")
    # eps at detuning 4J takes the phase 2J pi/Omega; twice it must be finite
    for key, value in (("omega_min", lo), ("omega_max", hi)):
        cfg.require(key, value, value > 0 and math.isfinite(4.0 * J * math.pi / value),
                    f"> 0 and large enough that 4 pi J/{key} is finite")
    cfg.require("omega_steps", steps, steps >= 0, ">= 0")
    # the end points are omega_min and omega_max themselves: for
    # omega_max << omega_min, lo + (hi - lo) rounds to 0
    grid = lo + (hi - lo) * np.arange(steps) / max(steps - 1, 1)
    grid[-1:] = hi
    grid[:1] = lo
    e1, e2 = ground_branch_errors(grid, J)
    path = _out(cfg, "sweep_omega.csv")
    write_csv(path, {"Omega": grid.tolist(), "eps": e1.tolist(), "eps_prime": e2.tolist(),
                     "below_P0": ((e1 < P0) & (e2 < P0)).astype(int).tolist()})
    print(f"wrote {path}: {steps} points")
    return 0


def cmd_sweep_length(cfg: ExperimentConfig) -> int:
    Omega = cfg.get_float("Omega")
    P_drop = cfg.get_drop()
    P0 = cfg.get_P0()
    lmin = cfg.get_int("L_min", 4)
    lmax = cfg.get_int("L_max", 100)
    lstep = cfg.get_int("L_step", 1)
    cfg.require("L_min", lmin, lmin >= 3, ">= 3, the remote-CN protocol's shortest chain")
    cfg.require("L_step", lstep, lstep >= 1, ">= 1")
    cfg.require("L_max", lmax, lmax >= lmin, f">= L_min ({lmin})")
    lengths = range(lmin, lmax + 1, lstep)
    # one run of the grid's longest chain: chain L is its top L spins after
    # pulse 2L-3 (see the propagator's Prefix note)
    longest = cfg.chain_params(L=lengths[-1])
    last_pulse = {2 * L - 3: L for L in lengths}
    # the three numbers of each length's census that the table reads; the
    # census itself, with its key rows, is dropped once they are taken
    p1, p1cal, count = [], [], []

    def keep(n: int, state: SparseState) -> None:
        census = unwanted_census(state, threshold=P0, L=last_pulse[n])
        p1.append(census.p1_total)
        p1cal.append(census.p1_target)
        count.append(len(census.probabilities))

    _, report = run_protocol(cfg.initial_state(longest), cn_remote_protocol(longest, Omega),
                             longest, P_drop=P_drop, snapshot_at=last_pulse,
                             on_snapshot=keep)
    budget = error_budget(lengths, Omega, J=longest.J, P0=P0)
    table = {"L": budget["L"], "P1_analytic": budget["P1"], "P1_numeric": p1,
             "P1cal_analytic": budget["P1cal"], "P1cal_numeric": p1cal, "N_unwanted": count}
    path = _out(cfg, "sweep_length.csv")
    write_csv(path, table)
    write_error_budget_csv(budget, _out(cfg, "budgets.csv"))
    print(f"wrote {path}: {len(lengths)} lengths from one L={longest.L} run, "
          f"propagation and census wall={report.wall_time:.3f}s")
    # the analytic columns are first-order sums truncated at second order,
    # which leave [0, 1] once (2L - 3) eps nears 1
    first_outside: dict[str, int] = {}
    for i, L in enumerate(table["L"]):
        for column in ("P1_analytic", "P1cal_analytic"):
            if not 0.0 <= table[column][i] <= 1.0:
                first_outside.setdefault(column, L)
    if first_outside:
        where = ", ".join(f"{column} first at L={L}" for column, L in first_outside.items())
        print(f"spinchain: warning: first-order budget leaves [0, 1]: {where}; "
              "these truncated sums are not probabilities there", file=sys.stderr)
    return 0


def cmd_spectrum(cfg: ExperimentConfig) -> int:
    _, report, census = _run_and_census(cfg, "spectrum.csv")
    print(f"wrote {_out(cfg, 'spectrum.csv')}: {len(census.probabilities)} unwanted states "
          f"at or above P0, wall={report.wall_time:.3f}s")
    return 0


def cmd_verify(cfg: ExperimentConfig) -> int:
    params = cfg.chain_params()
    check_dense_cap(params.L)
    Omega = cfg.get_float("Omega")
    initial = cfg.initial_state(params)
    seq = cn_remote_protocol(params, Omega)
    final, _ = run_protocol(initial, seq, params, P_drop=0.0)
    p_exact = evolve_exact(DenseState.from_sparse(initial), seq, params).probability_array()
    # exit 2 is for two finite propagations that disagree
    if not np.isfinite(p_exact).all():
        raise ValueError(
            f"config key 'Omega' = {Omega!r}: the exact propagation overflows at "
            f"J={params.J}, omega0={params.omega0}, delta_omega={params.delta_omega}, "
            "so there is no finite result to verify the map against")
    p_map = DenseState.from_sparse(final).probability_array()
    gap = np.abs(p_map - p_exact)
    tvd = 0.5 * math.fsum(gap.tolist())
    # largest gap first, ties by state
    _write_states(_out(cfg, "verify.csv"), np.arange(len(gap), dtype=np.uint64)[:, None],
                  params.L, gap, p_resonance=p_map, p_exact=p_exact, abs_gap=gap)
    passed = tvd <= VERIFY_TVD_BOUND
    print(f"verify: TVD={tvd:.6e} max_gap={gap.max():.6e} threshold={VERIFY_TVD_BOUND:g} "
          f"-> {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 2


_FIELDS = {"J", "omega0", "delta_omega"}
_DRIVE = {"L", "Omega", *_FIELDS}
_START = {"initial", "alpha", "beta"}
_CENSUS = {"P_drop", "P0"}

# each command and the config keys it reads
COMMANDS = {
    "protocol": (cmd_protocol, _DRIVE),
    "run": (cmd_run, _DRIVE | _START | _CENSUS),
    "sweep-omega": (cmd_sweep_omega, {"J", "P0", "omega_min", "omega_max", "omega_steps"}),
    "sweep-length": (cmd_sweep_length,
                     _FIELDS | {"Omega", "P_drop", "P0", "L_min", "L_max", "L_step"}),
    "spectrum": (cmd_spectrum, _DRIVE | _CENSUS),
    "verify": (cmd_verify, _DRIVE | _START),
}


class _Parser(argparse.ArgumentParser):
    # bad command lines are bad input, not verification failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# built once per process: main runs once per command, many times per figures pass
_PARSER = _Parser(prog="spinchain", description="Ising spin-chain quantum logic experiments")
_PARSER.add_argument("command", choices=sorted(COMMANDS))
_PARSER.add_argument("--config", required=True, help="key=value config file")
_PARSER.add_argument("--out", default=".", help="output directory for CSV files")


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = load_config(args.config, args.out)
        command, reads = COMMANDS[args.command]
        unread = ", ".join(repr(key) for key in sorted(set(cfg.raw.maps[0]) - reads))
        if unread:
            raise ValueError(f"{args.command} does not read config key {unread}; "
                             f"it reads {', '.join(sorted(reads))}")
        return command(cfg)
    except (ValueError, OSError) as exc:
        print(f"spinchain: error: {exc}", file=sys.stderr)
        return 1
