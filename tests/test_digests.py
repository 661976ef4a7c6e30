"""Byte-identity contract: the standard outputs, pinned by SHA-256 digest.

Every CSV the commands write is deterministic, so a refactor that claims to
leave the outputs unchanged can be checked byte for byte.  This test
regenerates the four figure datasets (through scripts/reproduce_figures.py,
which keeps each figure's config beside its CSVs),
a sparse `run` at L = 100 and one from the control branch, a failing
`verify` at L = 8 and a passing one at L = 10, and two `protocol` tables
(L = 10 and L = 100), and compares the full SHA-256 digests of all files
with the values recorded here in one assertion, so that a failure lists
every file that moved.

A digest may change only together with a line in CHANGES.md that says which
output moved and why.  Never record a new value just to make this test pass:
a digest that moves without an explanation is a changed result.

The commands run in a child process with BLAS pinned to one thread, the
benchmark's setting: the rounding of the dense `eigh` behind `verify`
depends on the thread count, so its digest holds for one thread count only.
"""

import hashlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import spinchain

REPRODUCE = Path(__file__).parents[1] / "scripts" / "reproduce_figures.py"
ONE_BLAS_THREAD = {var: "1" for var in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

FIGURE_DIGESTS = {
    "fig1/sweep_omega.csv": "54cd7db37bcc8ec26331dd87f33534d73f7d10e35f415f638ab98b9323682e9c",
    "fig2/sweep_length.csv": "ace9955dc117a99e59061c661c02eed6e0a1c8d359162070c6717eb9401f8c37",
    "fig2/budgets.csv": "c31f3a7d10e2b5c62f6e02ba33a65e3a5e0c67cf156b85676243865f6dad8361",
    "fig3/sweep_length.csv": "aa66926ecaaf71574ed0f862d241278559f643eccd5fe556d619621b0d5318d4",
    "fig3/budgets.csv": "5daedd7551afdcbd506ff9f45378c899de1091a11f58dae3a2bb5333a3443bd9",
    "fig4/spectrum.csv": "659a74109648eb6fbdc34af5c44f026b85c2254f709ce62185b0438316ad3fe1",
}

# (command, config, expected exit code, {file: digest})
COMMAND_DIGESTS = [
    ("run", "L=100\nOmega=0.20844\nP_drop=1e-8\n", 0, {
        "census.csv": "5cef1599d49022928eaacc221acf052855206e5246b774caddfd900e9f4402a2",
        "final_state.csv": "fa354db24a9c6b8be14f8788eee0ad5af990d77552c8fc9ba143db803c8b2165",
        "report.csv": "342544b5bb16588c6a71770ea6de8ea8dc575795c2a012a149b93f993d3dd369",
    }),
    # the control branch: every pulse's input has an exactly-zero amplitude
    # component, whose sign `final_state.csv` prints; a state without a
    # partner keeps its table products, signed zeros included
    ("run", "L=10\nOmega=0.20844\ninitial=1000000000\n", 0, {
        "final_state.csv": "2fa8de5abeab49b4f9a9315ab53d0732bffab0c8ae0688d4f0f692c8fe213f48",
        "report.csv": "d352d303229f3297e48458618ffb70487e3db7e93c7f311be38689c5128c37f0",
    }),
    ("verify", "L=8\nOmega=0.0906\nalpha=0.7071067811865476\nbeta=0.7071067811865476\n", 2, {
        "verify.csv": "1f4b4dea13472eb3d8fd01473f8ca69acfe806815f1b40c0215baaf7cefe0cfc",
    }),
    # the benchmark's verify op: six spectra, each decomposed once and
    # read back from the spill
    ("verify", "L=10\nOmega=0.0906\n", 0, {
        "verify.csv": "5dbfceffb64068fdf0a421e20e6dbf83fa5a51f6ac864de97c1aaadeaeb16231",
    }),
    ("protocol", "L=10\nOmega=0.0906\n", 0, {
        "protocol.csv": "ba1211e08124622ebe80a255e2b50f69ecfbf85e7cfeefb0653909f1d06b68be",
    }),
    # two-word keys: the trajectory labels cross the word boundary at bit 64
    ("protocol", "L=100\nOmega=0.20844\n", 0, {
        "protocol.csv": "81136168f8ae2c763be58d2f82c8eeb354cdc04e8eba789d4d51d3b2dcec6993",
    }),
]


def _digests(root: Path, names) -> dict[str, str]:
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in names}


def test_outputs_are_byte_identical(tmp_path, capsys):
    # run from the directory holding the package under test, so the child
    # imports it whether or not it is installed
    src = Path(spinchain.__file__).parents[1]
    figures = tmp_path / "figures"
    assert runpy.run_path(str(REPRODUCE))["run"](figures) == 0
    # the six CSVs and, in each figure's directory, the one-line config
    # that made it
    configs = {f"{fig}/{fig}.cfg": f"preset={fig}\n" for fig in ("fig1", "fig2", "fig3", "fig4")}
    written = {path.relative_to(figures).as_posix()
               for path in figures.rglob("*") if path.is_file()}
    assert written == {*FIGURE_DIGESTS, *configs}
    assert {name: (figures / name).read_text() for name in configs} == configs
    # every file's digest by its path under tmp_path
    expect = {f"figures/{name}": digest for name, digest in FIGURE_DIGESTS.items()}
    for i, (command, text, code, digests) in enumerate(COMMAND_DIGESTS):
        cfg = tmp_path / f"{i}-{command}.cfg"
        cfg.write_text(text)
        out = tmp_path / f"{i}-{command}"
        proc = subprocess.run(
            [sys.executable, "-m", "spinchain", command, "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, cwd=src, env={**os.environ, **ONE_BLAS_THREAD})
        assert proc.returncode == code, proc.stderr
        expect.update((f"{out.name}/{name}", digest) for name, digest in digests.items())
    assert _digests(tmp_path, expect) == expect
    capsys.readouterr()
