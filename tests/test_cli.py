import csv
import errno
import importlib
import io
import math
import os
import re
import tempfile
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinchain
import spinchain.cli
from spinchain.analytics import epsilon, n1
from spinchain.cli import (
    COMMANDS,
    ExperimentConfig,
    load_config,
    main,
    parse_keyval_file,
    write_csv,
    write_state_csv,
)
from spinchain.exact import DenseState, evolve_exact
from spinchain.model import BasisState, ChainParams, pack_keys
from spinchain.propagator import SparseState, bitstrings, run_protocol
from spinchain.protocol import cn_remote_protocol

from oracles import suppression_rabi, sweep_length_per_run


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_protocol_command(tmp_path):
    cfg = write_cfg(tmp_path, "L=4\nOmega=0.0906\n")
    assert main(["protocol", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "protocol.csv")
    assert len(rows) - 1 == 5  # 2L-3
    cfg3 = write_cfg(tmp_path, "L=3\nOmega=0.0906\n", "exp3.cfg")
    assert main(["protocol", "--config", cfg3, "--out", str(tmp_path)]) == 0
    assert len(read_csv(tmp_path / "protocol.csv")) - 1 == 3


def test_protocol_rejects_two_qubits(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "L=2\nOmega=0.0906\n")
    assert main(["protocol", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "error" in capsys.readouterr().err


def test_run_resonant_branch(tmp_path):
    cfg = write_cfg(tmp_path, "L=5\nOmega=0.0906\ninitial=10000\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "final_state.csv")
    assert rows[1][0] == "10001"
    assert float(rows[1][1]) == pytest.approx(1.0, abs=1e-10)
    assert not (tmp_path / "census.csv").exists()  # census only from |0...0>


def test_run_from_a_target_1_input_notes_it_is_no_cn(tmp_path, capsys):
    # `run` and `verify` build their start in one place, which notes a set
    # target bit on one stderr line; the exit code and the tables are those
    # of any start: the run's final state is the library's, written by the
    # same writer, and verify's columns are the map's and the exact |C|^2
    params = ChainParams(L=5)
    seq = cn_remote_protocol(params, 0.0906)
    for start, notes in (("10000", 0), ("10001", 1), ("00001", 1)):
        cfg = write_cfg(tmp_path, f"L=5\nOmega=0.0906\ninitial={start}\n", f"{start}.cfg")
        for command in ("run", "verify"):
            out = tmp_path / command / start
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
            err = capsys.readouterr().err.splitlines()
            assert len(err) == notes
            assert all("CN on target-0 inputs only" in line for line in err)
        initial = SparseState.from_basis(BasisState.from_string(start))
        final, _ = run_protocol(initial, seq, params, P_drop=1e-6)
        write_state_csv(final, tmp_path / f"{start}.csv")
        assert (tmp_path / "run" / start / "final_state.csv").read_bytes() == \
            (tmp_path / f"{start}.csv").read_bytes()
        final, _ = run_protocol(initial, seq, params, P_drop=0.0)
        p_map = DenseState.from_sparse(final).probability_array()
        p_exact = evolve_exact(DenseState.from_sparse(initial), seq, params).probability_array()
        rows = {int(row[0], 2): [float(x) for x in row[1:3]]
                for row in read_csv(tmp_path / "verify" / start / "verify.csv")[1:]}
        assert [rows[s] for s in range(32)] == np.column_stack([p_map, p_exact]).tolist()


def test_run_ground_branch_census(tmp_path):
    L = 6
    cfg = write_cfg(tmp_path, f"L={L}\npreset=fig2\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    census = read_csv(tmp_path / "census.csv")
    assert census[0] == ["state", "probability"]
    assert len(census) - 1 == n1(L)
    report = read_csv(tmp_path / "report.csv")
    assert len(report) - 1 == 2 * L - 3


def test_run_superposition(tmp_path):
    cfg = write_cfg(tmp_path,
                    f"L=5\nOmega=0.0906\nalpha={1/math.sqrt(2)}\nbeta={1/math.sqrt(2)}\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "final_state.csv")
    top2 = {rows[1][0]: float(rows[1][1]), rows[2][0]: float(rows[2][1])}
    assert set(top2) == {"00000", "10001"}
    for p in top2.values():
        assert p == pytest.approx(0.5, abs=1e-3)


@pytest.mark.parametrize("alpha", [1, -1])
def test_run_from_ground_given_as_amplitudes_writes_the_census(tmp_path, alpha):
    # alpha=+-1, beta=0 is |0...0> up to a global sign: the same census and
    # report as initial=0...0, byte for byte, and the same final state with
    # every amplitude times alpha
    for name, start in (("basis", "initial=0000000000\n"),
                        ("amplitudes", f"alpha={alpha}\nbeta=0\n")):
        cfg = write_cfg(tmp_path, f"L=10\nOmega=0.20844\n{start}", f"{name}.cfg")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / name)]) == 0
    basis, amplitudes = tmp_path / "basis", tmp_path / "amplitudes"
    for name in ("census.csv", "report.csv"):
        assert (amplitudes / name).read_bytes() == (basis / name).read_bytes()
    if alpha == 1:
        assert ((amplitudes / "final_state.csv").read_bytes()
                == (basis / "final_state.csv").read_bytes())
    got, want = (read_csv(out / "final_state.csv") for out in (amplitudes, basis))
    assert [r[:2] for r in got] == [r[:2] for r in want]
    for g, w in zip(got[1:], want[1:]):
        assert [float(x) for x in g[2:]] == [alpha * float(x) for x in w[2:]]


def test_sweep_omega_anchor_and_zeros(tmp_path):
    zero = suppression_rabi(2.0, 11)
    cfg = write_cfg(tmp_path,
                    f"omega_min=0.0906\nomega_max={zero}\nomega_steps=2\nJ=1\n")
    assert main(["sweep-omega", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "sweep_omega.csv")
    assert rows[0] == ["Omega", "eps", "eps_prime", "below_P0"]
    assert float(rows[1][1]) == pytest.approx(4.78e-5, rel=0.01)
    assert float(rows[2][1]) < 1e-20  # exact suppression point for Delta=2


def test_sweep_omega_grid_ends_at_omega_max(tmp_path):
    # descending to a tiny omega_max, lo + (hi - lo) rounds to 0
    cfg = write_cfg(tmp_path, "omega_min=0.1\nomega_max=1e-20\nomega_steps=3\n")
    assert main(["sweep-omega", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert [row[0] for row in read_csv(tmp_path / "sweep_omega.csv")[1:]] == [
        "0.1", "0.05", "1e-20"]


def test_sweep_omega_empty_grid(tmp_path):
    # no point, and one point at omega_min; the grid's (steps - 1) divisor
    # must not warn
    for steps, omegas in ((0, []), (1, ["0.1"])):
        out = tmp_path / str(steps)
        cfg = write_cfg(tmp_path, f"omega_min=0.1\nomega_max=0.2\nomega_steps={steps}\n")
        assert main(["sweep-omega", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out / "sweep_omega.csv")
        assert rows[0] == ["Omega", "eps", "eps_prime", "below_P0"]
        assert [row[0] for row in rows[1:]] == omegas


def test_sweep_length_matches_analytics(tmp_path):
    cfg = write_cfg(tmp_path, "preset=fig2\nL_min=4\nL_max=10\nL_step=2\n")
    assert main(["sweep-length", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "sweep_length.csv")
    assert rows[0] == ["L", "P1_analytic", "P1_numeric",
                       "P1cal_analytic", "P1cal_numeric", "N_unwanted"]
    assert [int(r[0]) for r in rows[1:]] == [4, 6, 8, 10]
    for r in rows[1:]:
        L = int(r[0])
        assert int(r[5]) == n1(L)
        # the third pulse errs with eps' rather than eps, which costs
        # (eps-eps')/P1 ~ 6.5% at L=4 and shrinks as 1/(2L-3)
        assert float(r[2]) == pytest.approx(float(r[1]), rel=0.10)
        assert float(r[4]) == pytest.approx(float(r[3]), rel=0.05)
    budgets = read_csv(tmp_path / "budgets.csv")
    assert len(budgets) - 1 == 4


def test_sweep_length_flags_budgets_that_are_not_probabilities(tmp_path, capsys):
    # at Omega = 1.5 the truncated first-order P1 reads -0.18 at L = 14, and
    # P1cal -0.109 at L = 15; the files and the exit code do not change
    cfg = write_cfg(tmp_path, "Omega=1.5\nL_min=4\nL_max=20\n")
    assert main(["sweep-length", "--config", cfg, "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    assert "P1_analytic first at L=14" in err
    assert "P1cal_analytic first at L=15" in err
    rows = read_csv(tmp_path / "sweep_length.csv")
    assert float(rows[14 - 3][1]) < 0.0 <= float(rows[13 - 3][1])


@pytest.mark.parametrize("preset", ["fig2", "fig3"])
def test_sweep_length_presets_raise_no_budget_warning(tmp_path, capsys, preset):
    cfg = write_cfg(tmp_path, f"preset={preset}\n")
    assert main(["sweep-length", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


# (L_min, L_max, L_step): consecutive lengths, a step of 7, a grid across the
# 64/65 boundary where keys gain a second word, and a grid whose last length
# (19) is below L_max
SWEEP_GRIDS = [(4, 20, 1), (4, 70, 7), (60, 70, 1), (4, 20, 5)]


@pytest.mark.parametrize("Omega", [0.0906, 0.20844])
@pytest.mark.parametrize("grid", SWEEP_GRIDS, ids=[f"L{a}-{b}-step{c}" for a, b, c in SWEEP_GRIDS])
def test_sweep_length_single_run_equals_per_length_runs(tmp_path, Omega, grid):
    lmin, lmax, lstep = grid
    cfg = write_cfg(tmp_path, f"Omega={Omega}\nP_drop=1e-6\nP0=1e-6\n"
                              f"L_min={lmin}\nL_max={lmax}\nL_step={lstep}\n")
    assert main(["sweep-length", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "sweep_length.csv")[1:]
    assert rows == sweep_length_per_run(range(lmin, lmax + 1, lstep), Omega,
                                        P_drop=1e-6, P0=1e-6)


def test_sweep_length_single_run_off_integer_fields(tmp_path):
    # The single run equals per-length runs bit for bit only where the flip
    # gaps are exactly representable, as with integer multiples of J (the
    # defaults and every preset).  Here the carrier of a pulse rounds at the
    # magnitude of each chain's own spin frequencies, so one pulse's detuning
    # reads 1.3999999999999773 in one chain and 1.400000000000091 in the
    # other, and the numeric columns agree only to rounding.
    fields = {"J": 0.7, "omega0": 100.1, "delta_omega": 20.3}
    cfg = write_cfg(tmp_path, "".join(f"{k}={v}\n" for k, v in fields.items())
                    + "Omega=0.0906\nP_drop=1e-6\nP0=1e-6\nL_min=4\nL_max=40\n")
    assert main(["sweep-length", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "sweep_length.csv")[1:]
    expect = sweep_length_per_run(range(4, 41), 0.0906, P_drop=1e-6, P0=1e-6, **fields)
    assert len(rows) == len(expect)
    for got, want in zip(rows, expect):
        assert [got[i] for i in (0, 1, 3, 5)] == [want[i] for i in (0, 1, 3, 5)]
        for i in (2, 4):
            assert float(got[i]) == pytest.approx(float(want[i]), rel=1e-10, abs=0)


def test_spectrum_two_bands(tmp_path):
    # smaller chain than the preset default, same physics
    cfg = write_cfg(tmp_path, "preset=fig4\nL=30\n")
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "spectrum.csv")
    probs = [float(r[1]) for r in rows[1:]]
    eps = epsilon(0.20844, 2.0, math.pi / 0.20844)
    first_band = [p for p in probs if p >= 0.2 * eps]
    second_band = [p for p in probs if p < 0.2 * eps]
    assert len(first_band) == n1(30)
    assert second_band and max(second_band) < 10 * eps * eps


def test_spectrum_is_the_runs_census_under_fig4(tmp_path):
    # the same run and census at the same floor: spectrum.csv and run's
    # census.csv are one table, byte for byte
    cfg = write_cfg(tmp_path, "preset=fig4\nL=30\n")
    for command in ("spectrum", "run"):
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    spectrum = (tmp_path / "spectrum.csv").read_bytes()
    assert spectrum.count(b"\n") > n1(30) + 1
    assert spectrum == (tmp_path / "census.csv").read_bytes()


def test_spectrum_band_count_grows_quadratically(tmp_path):
    # second-band count rises much faster than the linear first band
    eps = epsilon(0.20844, 2.0, math.pi / 0.20844)
    counts = {}
    for L in (30, 50, 70):
        cfg = write_cfg(tmp_path, f"preset=fig4\nL={L}\n", f"s{L}.cfg")
        out = tmp_path / f"out{L}"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        probs = [float(r[1]) for r in read_csv(out / "spectrum.csv")[1:]]
        counts[L] = sum(1 for p in probs if p < 0.2 * eps)
    slope = math.log(counts[70] / counts[30]) / math.log(70 / 30)
    assert 1.5 <= slope <= 3.5


def test_verify_pass_and_fail(tmp_path):
    cfg = write_cfg(tmp_path, "L=4\nOmega=0.0906\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "verify.csv")
    assert rows[0] == ["state", "p_resonance", "p_exact", "abs_gap"]

    # Omega at half the gradient step: the resonance approximation is invalid
    bad = write_cfg(tmp_path, "L=4\nOmega=10.0\n", "bad.cfg")
    assert main(["verify", "--config", bad, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("Omega,code", [(0.0906, 0), (10.0, 2)])
def test_verify_csv_contract(tmp_path, Omega, code):
    L = 4
    cfg = write_cfg(tmp_path, f"L={L}\nOmega={Omega}\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == code
    header, *rows = read_csv(tmp_path / "verify.csv")
    assert header == ["state", "p_resonance", "p_exact", "abs_gap"]
    states = [int(r[0], 2) for r in rows]
    assert all(len(r[0]) == L for r in rows) and sorted(states) == list(range(1 << L))
    p_map, p_exact, gap = ([float(r[i]) for r in rows] for i in (1, 2, 3))
    assert list(zip(gap, states)) == sorted(zip(gap, states), key=lambda r: (-r[0], r[1]))
    assert all(g == abs(pm - pe) for g, pm, pe in zip(gap, p_map, p_exact))
    assert abs(math.fsum(p_exact) - 1.0) <= 1e-12
    assert code == (0 if 0.5 * math.fsum(gap) <= 1e-3 else 2)


def test_verify_rejects_chain_over_cap(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "L=13\nOmega=0.0906\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "L=13 exceeds the dense-propagation cap 12" in capsys.readouterr().err


def test_verify_without_temporary_space_exits_one(tmp_path, capsys, monkeypatch):
    # the exact propagation writes each spectrum to a temporary directory;
    # when it cannot make that directory, or write to it, verify fails as
    # bad input does, naming the directory, TMPDIR and the space it needs:
    # at L = 5, up to 4 spectra of 8 * 4^5 bytes
    cfg = write_cfg(tmp_path, "L=5\nOmega=0.0906\n")
    spill = tmp_path / "spill"
    spill.mkdir()

    def full_disk(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    for where, save, cause in ((tmp_path / "missing", np.save, "No such file or directory"),
                               (spill, full_disk, os.strerror(errno.ENOSPC))):
        monkeypatch.setattr(tempfile, "tempdir", str(where))
        monkeypatch.setattr(np, "save", save)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "spinchain: error: the exact propagation needs up to 32768 bytes (4 spectra "
            f"x 8192) of temporary space in {where} (TMPDIR sets the directory): ")
        assert cause in err and err.count("\n") == 1
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))
    assert not list(spill.iterdir())


def test_bad_inputs_exit_one(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert main(["run", "--config", missing]) == 1
    cfg = write_cfg(tmp_path, "L=5\n")  # no Omega
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
    cfg2 = write_cfg(tmp_path, "L=5\nOmega=0.1\ninitial=01\n", "short.cfg")
    assert main(["run", "--config", cfg2, "--out", str(tmp_path)]) == 1
    cfg3 = write_cfg(tmp_path, "L=5\nOmega=0.1\npreset=nope\n", "preset.cfg")
    assert main(["run", "--config", cfg3, "--out", str(tmp_path)]) == 1
    cfg4 = write_cfg(tmp_path, "L=5\nOmega=0.1\nalpha=1\nbeta=1\n", "norm.cfg")
    assert main(["run", "--config", cfg4, "--out", str(tmp_path)]) == 1
    capsys.readouterr()


def test_config_chain_params(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "# demo chain\nL = 6\nJ=1.5\nomega0=90\ndelta_omega = 30\n")
    assert load_config(cfg, str(tmp_path)).chain_params() == ChainParams(
        L=6, J=1.5, omega0=90.0, delta_omega=30.0)

    bad = write_cfg(tmp_path, "L=4\nfoo=1\n", "bad.cfg")
    assert main(["protocol", "--config", bad, "--out", str(tmp_path)]) == 1
    assert "protocol does not read config key 'foo'" in capsys.readouterr().err
    no_l = write_cfg(tmp_path, "J=1\n", "noL.cfg")
    with pytest.raises(ValueError, match="'L'"):
        load_config(no_l, str(tmp_path)).chain_params()


BAD_CONFIGS = [
    ("run", "L=5\nOmega=0.1\nomega0=1\n", "omega0"),
    ("run", "L=5\nOmega=nan\n", "Omega"),
    ("run", "L=5\nOmega=inf\n", "Omega"),
    ("run", "L=5\nOmega=abc\n", "Omega"),
    ("run", "preset=fig3\nL=5\nOmgea=0.1\n", "Omgea"),
    ("run", "preset=fig4\nOmega=0.1\nOmega=0.20844\n", "Omega"),
    # eps and eps' are fixed at detunings 2J and 4J, the verify cap and bound
    # are constants: these keys are unknown
    ("sweep-omega", "preset=fig1\ndeltas=2,nan\n", "deltas"),
    ("verify", "L=5\nOmega=0.0906\ncap=13\n", "cap"),
    ("verify", "L=5\nOmega=0.0906\ntvd_threshold=1e-2\n", "tvd_threshold"),
    # unphysical sweep grids
    ("sweep-omega", "omega_min=0\nomega_max=0.2\nomega_steps=3\n", "omega_min"),
    ("sweep-omega", "omega_min=-0.1\nomega_max=-0.05\nomega_steps=3\n", "omega_min"),
    ("sweep-omega", "omega_min=0.1\nomega_max=0.2\nomega_steps=-1\n", "omega_steps"),
    # the Ising constant of the eps table follows ChainParams' rule
    ("sweep-omega", "preset=fig1\nJ=0\n", "J"),
    ("sweep-omega", "preset=fig1\nJ=-1\n", "J"),
    ("sweep-length", "preset=fig2\nL_min=4\nL_max=6\nL_step=0\n", "L_step"),
    # probability floors outside (0, 1)
    ("sweep-omega", "preset=fig1\nP0=2\n", "P0"),
    ("run", "L=5\nOmega=0.1\nP0=-1\n", "P0"),
    ("spectrum", "L=5\nOmega=0.1\nP0=1\n", "P0"),
    ("spectrum", "L=5\nOmega=0.1\nP0=0\n", "P0"),
    # a superposition start whose norm is off names both amplitudes
    ("run", "L=5\nOmega=0.1\nalpha=2\nbeta=0\n", "alpha"),
    ("run", "L=5\nOmega=0.1\nalpha=2\nbeta=0\n", "beta"),
    # P_drop outside [0, 1), and a sweep starting below the protocol's three spins
    ("run", "L=5\nOmega=0.1\nP_drop=1\n", "P_drop"),
    ("sweep-length", "preset=fig2\nL_min=4\nL_max=6\nP_drop=-1e-6\n", "P_drop"),
    ("spectrum", "L=5\nOmega=0.1\nP_drop=1.5\n", "P_drop"),
    ("sweep-length", "preset=fig2\nL_min=2\nL_max=6\n", "L_min"),
    ("sweep-length", "preset=fig2\nL_min=10\nL_max=9\n", "L_max"),
    # a rule broken by a key's default value names that key
    ("sweep-length", "Omega=0.0906\nL_min=150\n", "L_max"),
    # keys that some command reads, given to one that does not
    ("verify", "L=5\nOmega=0.0906\nP_drop=0.5\nP0=0.5\nL_max=3\n", "P_drop"),
    ("protocol", "L=5\nOmega=0.0906\nP0=7\n", "P0"),
    ("sweep-omega", "preset=fig1\nOmega=0.3\nP_drop=0.9\n", "Omega"),
    # Rabi frequencies at the ends of the float range: the protocol's frame
    # phases or a single pulse's phase overflow, or the exact propagation
    # is not finite (a NaN TVD is no verdict)
    ("run", "L=5\nOmega=1e-307\n", "Omega"),
    ("spectrum", "L=5\nOmega=1e-307\n", "Omega"),
    ("verify", "L=5\nOmega=1e-307\n", "Omega"),
    ("sweep-length", "Omega=1e-307\nL_min=4\nL_max=5\n", "Omega"),
    ("sweep-omega", "omega_min=1e-310\nomega_max=0.2\nomega_steps=3\n", "omega_min"),
    ("sweep-omega", "omega_min=0.1\nomega_max=1e-310\nomega_steps=3\n", "omega_max"),
    ("verify", "L=5\nOmega=1e-306\n", "Omega"),
    ("verify", "L=4\nOmega=1e308\n", "Omega"),
    # flip gaps so large that float64 rounds away their +-J neighbour terms
    ("run", "L=5\nOmega=0.2\nomega0=1e16\n", "omega0"),
    ("verify", "L=5\nOmega=0.2\nomega0=1e16\n", "omega0"),
]


@pytest.mark.parametrize("command,text,key", BAD_CONFIGS,
                         ids=[f"{text}-{key}" for _, text, key in BAD_CONFIGS])
def test_bad_config_exits_one_naming_the_key(tmp_path, capsys, recwarn, command, text, key):
    cfg = write_cfg(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err
    # the error is all the command says: no warning, which the command line
    # would print on stderr before it, even where the phases overflow
    assert err.count("\n") == 1 and not recwarn.list
    assert not list(tmp_path.glob("*.csv"))


def test_unread_key_names_the_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "L=5\nOmega=0.0906\nP_drop=0.5\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "verify does not read config key 'P_drop'" in capsys.readouterr().err


def test_config_saved_with_byte_order_mark(tmp_path, capsys):
    # some editors begin a UTF-8 file with U+FEFF; it is no part of the first key
    path = tmp_path / "bom.cfg"
    path.write_text("L=5\nOmega=0.1\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert parse_keyval_file(path) == {"L": "5", "Omega": "0.1"}
    assert main(["protocol", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert len(read_csv(tmp_path / "protocol.csv")) == 1 + 7
    capsys.readouterr()


_CHAIN = "L=4\nJ=1\nomega0=100\ndelta_omega=20\nOmega=0.2\n"
_STARTS = ("initial=1000\n", "alpha=0.6\nbeta=0.8\n")
# per command, configs that between them set every key it lists in COMMANDS
# (a start is given either as initial= or as alpha=/beta=)
FULL_CONFIGS = {
    "protocol": [_CHAIN],
    "run": [_CHAIN + "P_drop=1e-6\nP0=1e-6\n" + start for start in _STARTS],
    "sweep-omega": ["J=1\nP0=1e-6\nomega_min=0.1\nomega_max=0.2\nomega_steps=3\n"],
    "sweep-length": ["J=1\nomega0=100\ndelta_omega=20\nOmega=0.2\nP_drop=1e-6\nP0=1e-6\n"
                     "L_min=3\nL_max=5\nL_step=2\n"],
    "spectrum": [_CHAIN + "P_drop=1e-8\nP0=1e-8\n"],
    "verify": [_CHAIN + start for start in _STARTS],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_reads_exactly_the_keys_it_lists(tmp_path, capsys, monkeypatch, command):
    # a listed key the command never reads would be accepted and ignored
    listed = COMMANDS[command][1]
    texts = FULL_CONFIGS[command]
    given = set()
    for i, text in enumerate(texts):
        given |= set(parse_keyval_file(write_cfg(tmp_path, text, f"{i}.cfg")))
    assert given == listed
    read = set()
    get = ExperimentConfig.get

    def recording_get(self, key, parse, default):
        read.add(key)
        return get(self, key, parse, default)

    monkeypatch.setattr(ExperimentConfig, "get", recording_get)
    for i in range(len(texts)):
        code = main([command, "--config", str(tmp_path / f"{i}.cfg"),
                     "--out", str(tmp_path / str(i))])
        assert code in (0, 2)  # verify may fail: two finite propagations disagree
    capsys.readouterr()
    assert read == listed


def test_repeated_config_key_names_both_lines(tmp_path):
    cfg = write_cfg(tmp_path, "preset=fig4\nOmega=0.1\n# again\nOmega=0.20844\n")
    with pytest.raises(ValueError, match=r"'Omega' given twice \(lines 2 and 4\)"):
        load_config(cfg, str(tmp_path))


def test_bad_command_line_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", "x"])
    assert exc.value.code == 1
    capsys.readouterr()


def _csv_module_text(rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


# every command with the kinds of table it writes: a start from |0...0>
# (census), from a superposition, the control branch, and a failing verify
EVERY_TABLE = [
    ("protocol", "L=6\nOmega=0.0906\n"),
    ("run", "L=7\npreset=fig3\n"),
    ("run", "L=66\nOmega=0.20844\nP_drop=1e-5\n"),
    ("run", "L=6\nOmega=0.0906\nalpha=0.6\nbeta=-0.8\n"),
    ("run", "L=5\nOmega=0.0906\ninitial=10000\n"),
    ("sweep-omega", "preset=fig1\nomega_steps=41\n"),
    ("sweep-length", "preset=fig3\nL_min=3\nL_max=9\n"),
    ("spectrum", "preset=fig4\nL=12\n"),
    ("verify", "L=5\nOmega=10\n"),
]


@pytest.fixture(scope="module")
def every_table(tmp_path_factory):
    """(file name, text) of each table that the EVERY_TABLE commands write."""
    tmp = tmp_path_factory.mktemp("tables")
    tables = []
    for i, (command, text) in enumerate(EVERY_TABLE):
        out = tmp / str(i)
        assert main([command, "--config", write_cfg(tmp, text, f"{i}.cfg"),
                     "--out", str(out)]) in (0, 2)
        tables += [(path.name, path.read_text()) for path in sorted(out.glob("*.csv"))]
    return tables


def test_written_tables_are_csv_module_bytes(every_table):
    # each file parses and re-writes through the csv module to its own bytes:
    # no field needed quoting
    for name, text in every_table:
        assert text == _csv_module_text(csv.reader(io.StringIO(text))), name


def test_readme_lists_every_written_header(every_table):
    # README's "Emitted files" gives each file as `name.csv` and then its
    # header in backticks; every table written has one, and it is the
    # table's first line
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    emitted = readme.split("### Emitted files\n\n", 1)[1].split("\n\n", 1)[0]
    documented = dict(re.findall(r"`(\w+\.csv)`[\s:(]*`([^`]*,[^`]*)`", emitted))
    assert {name for name, _ in every_table} == set(documented)
    for name, text in every_table:
        assert text.split("\n", 1)[0] == documented[name], name


FIELDS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10**20, 10**20),
    st.text("01", min_size=1, max_size=130),
    st.sampled_from(["below-eps1", "eps1-eps2", "eps2-eps3", "above-eps3"]),
)


NAMES = ["probability", "amplitude_re", "amplitude_im", "N1", "regime"]


@settings(max_examples=200, deadline=None)
@given(table=st.integers(0, 40).flatmap(lambda n: st.tuples(
           st.lists(st.integers(0, (1 << 130) - 1), min_size=n, max_size=n),
           st.lists(st.lists(FIELDS, min_size=n, max_size=n), min_size=0,
                    max_size=len(NAMES)))),
       as_repr=st.booleans(), chunk=st.sampled_from([1, 3, 4096]),
       odd=st.integers(0, len(NAMES) + 2), longer=st.booleans())
def test_write_csv_bytes_equal_csv_writer(table, as_repr, chunk, odd, longer):
    # the fields the package writes: a range of indices, a bitstrings view of
    # L = 130 key rows, and lists of reprs of floats or of the floats
    # themselves (a float's str is its repr), ints, bitstrings, regime
    # names; equal-length columns written in chunks of 1, 3 and 4096 rows.
    # One more column, a row longer or shorter, raises a message naming it
    # and the file; so does a column without a length, a generator; neither
    # creates the file
    states, columns = table
    if as_repr:
        columns = [[repr(f) if isinstance(f, float) else f for f in c] for c in columns]
    n = len(states)
    sized = {"index": range(1, n + 1), "state": bitstrings(pack_keys(states, 130), 130),
             **dict(zip(NAMES, columns))}
    rows = zip(range(1, n + 1), [format(s, "0130b") for s in states], *columns)
    odd %= len(sized) + 1
    items = list(sized.items())
    unequal = dict([*items[:odd], ("odd", ["0"] * (n + 1 if longer or not n else n - 1)),
                    *items[odd:]])
    unsized = dict(items)
    name, c = items[odd % len(items)]
    unsized[name] = (x for x in c[:])
    rows_per_write = spinchain.cli._CSV_ROWS
    spinchain.cli._CSV_ROWS = chunk
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/table.csv"
            write_csv(path, sized)
            with open(path, "rb") as fh:
                got = fh.read()
            for bad, named in ((unequal, "odd"), (unsized, name)):
                path = f"{tmp}/bad.csv"
                with pytest.raises(ValueError, match=re.escape(repr(named))) as error:
                    write_csv(path, bad)
                assert path in str(error.value)
                assert not os.path.exists(path)
    finally:
        spinchain.cli._CSV_ROWS = rows_per_write
    assert got == _csv_module_text([list(sized), *rows]).encode()


def test_identical_config_gives_identical_bytes(tmp_path):
    cfg = write_cfg(tmp_path, "L=6\nOmega=0.0906\nP_drop=1e-6\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("final_state.csv", "report.csv", "census.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_module_entry_point(tmp_path):
    cfg = write_cfg(tmp_path, "L=4\nOmega=0.0906\n")
    # run from the directory holding the package under test, so the child
    # imports it whether or not it is installed
    proc = subprocess.run(
        [sys.executable, "-m", "spinchain", "protocol",
         "--config", cfg, "--out", str(tmp_path)],
        capture_output=True, text=True, cwd=Path(spinchain.__file__).parents[1])
    assert proc.returncode == 0
    assert "5 pulses" in proc.stdout


def test_console_script_is_main(tmp_path, capsys):
    # the installed `spinchain` command: pip's wrapper exits with what the
    # [project.scripts] target returns, so that target is `main` itself
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("[project.scripts]\n", 1)[1]
    module, name = re.match(r'spinchain = "([\w.]+):(\w+)"', scripts).groups()
    script = getattr(importlib.import_module(module), name)
    assert script is main
    ok = write_cfg(tmp_path, "L=4\nOmega=0.0906\n")
    unread = write_cfg(tmp_path, "L=4\nOmega=0.0906\nP0=1e-6\n", "unread.cfg")
    assert script(["protocol", "--config", ok, "--out", str(tmp_path)]) == 0
    assert script(["protocol", "--config", unread, "--out", str(tmp_path)]) == 1
    assert "protocol does not read config key 'P0'" in capsys.readouterr().err
