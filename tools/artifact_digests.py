"""Digest the artifacts of a fixed list of CLI runs, to compare two source trees.

    python3 tools/artifact_digests.py --src path/to/checkout/src > digests.txt

Each invocation runs in a fresh ``python3 -m stagwave.cli`` process with the
stagwave package imported from ``--src`` (the directory that holds
``stagwave/``; default: this checkout's ``src``) and its own empty output
directory.  One line per invocation gives the exit code, the sha256 of every
file the run wrote (a report without its ``wall_time_s`` and ``artifacts``
fields, which hold wall time and paths) and of standard output with the
output directory masked.  Run it on two trees and ``diff`` the outputs: the
README's determinism contract says every line must match unless a change
alters behaviour on purpose.

The list covers the README examples (``convergence-table`` with ``--jobs 1``
and ``--jobs 2``), 3D runs with non-unit materials and odd record intervals,
every convergence case including unordered ``--k`` levels and 1D sweeps over
rough materials (a density jump, a piecewise stiffness) or over non-consecutive
levels, in parallel (at a named final time too), or from a higher mode,
power-of-two grids whose update plans fold the spacing into non-unit 2D and
3D weights, 2D grids with unequal power-of-two spacings, whose v update
folds a different 1/h into each component, unit-star 3D runs on a power-of-two grid whose steps run in
place between records, unit-star 3D runs on a grid whose spacing is not a
power of two, which multiply by 1/h, the
benchmark's invocations with fixed draws, the inputs that must end in a
report with failed checks (exit 1) or a usage error (exit 2, a ``--case``
that names no sweep among them), runs whose records span several chunks of
the CLI's streamed series, 3D runs whose updates form each component in
several slabs, 3D runs on odd grid sizes, whose rows and planes have odd
pitches (the ``verify`` operator and adjoint suites among them), sizes too large for memory (exit 2), and every command's
``--schema``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

README = [
    ["oscillator", "--omega", "1", "--dt", "0.01", "--steps", "10000", "--prefix", "osc"],
    ["wave1d", "--case", "vmp", "--material", "bump-p2-q2", "--nx", "129", "--t-final", "1.0"],
    ["wave1d-convergence", "--case", "cmp", "--k", "4..9", "--final", "full-period"],
    ["maxwell", "--grid", "16", "--steps", "500", "--materials", "trivial3d"],
    ["transport", "--velocity", "constant", "--speed", "2", "--n", "64", "--courant", "1.0"],
    ["verify", "mimetic3d", "--sizes", "8", "16"],
    ["convergence-table", "--case", "wave2d-mode", "--k", "4..6", "--jobs", "1"],
    ["convergence-table", "--case", "wave2d-mode", "--k", "4..6", "--jobs", "2"],
]

MORE_RUNS = [
    ["maxwell", "--materials", "diag3d"],
    ["maxwell", "--materials", "diag3d", "--grid", "12"],
    ["maxwell", "--materials", "diag3d", "--grid", "10", "--record-every", "7"],
    ["maxwell", "--materials", "scalar3d"],
    ["wave3d", "--materials", "diag3d"],
    ["wave3d", "--materials", "diag3d", "--grid", "12"],
    ["wave3d", "--materials", "diag3d", "--record-every", "3"],
    ["wave3d", "--materials", "diag3d", "--grid", "16"],
    ["wave3d", "--materials", "diag3d", "--grid", "16", "--record-every", "3"],
    ["wave3d", "--grid", "8", "--t-final", "0.2", "--modes", "1", "2", "1"],
    ["wave2d"],
    ["wave2d", "--nx", "20", "--ny", "28", "--a", "2", "--a11", "1.5", "--a22", "3"],
    ["wave2d", "--nx", "16", "--ny", "16", "--a", "2", "--a11", "1.5", "--a22", "3"],
    ["wave2d", "--nx", "8", "--ny", "16"],
    ["wave2d", "--nx", "16", "--ny", "8", "--a", "2", "--a11", "1.5", "--a22", "3"],
    ["system", "--preset", "oscillator"],
    ["system", "--preset", "cmp"],
    ["oscillator"],
    ["oscillator", "--omega", "1", "--dt", "2.5", "--steps", "300"],
    ["wave1d", "--case", "cmp"],
    ["wave1d", "--case", "cmp", "--init", "taylor"],
    ["wave1d", "--case", "cmp", "--material", "cmp c=1.5", "--nx", "50"],
    ["wave1d", "--case", "vmp"],
    ["verify", "all"],
    ["verify", "adjoint", "--sizes", "6", "--trials", "5"],
    ["convergence-table", "--case", "maxwell-cavity", "--k", "2..4"],
    ["convergence-table", "--case", "wave3d-cavity", "--k", "2..4", "--jobs", "2"],
    ["wave1d-convergence", "--case", "bump-p2-q2", "--k", "4..7"],
    ["wave1d-convergence", "--case", "rho-jump-up", "--k", "4..7"],
    ["wave1d-convergence", "--case", "tau-piecewise", "--k", "4..7"],
    ["wave1d-convergence", "--case", "cmp c=1.5", "--k", "7,4,5", "--init", "taylor"],
    ["wave1d-convergence", "--case", "cmp", "--k", "4..7", "--final", "half-period"],
    ["convergence-table", "--case", "cmp", "--k", "4..9", "--jobs", "1"],
    ["convergence-table", "--case", "cmp", "--k", "4..9", "--jobs", "2"],
    ["convergence-table", "--case", "cmp", "--k", "6,4,5", "--jobs", "2"],
    ["convergence-table", "--case", "linear tau 0.5", "--k", "3..5"],
    ["oscillator", "--exact-init", "--steps", "500"],
    ["wave2d", "--init", "exact", "--mode-m", "2", "--mode-n", "3"],
    ["wave1d", "--case", "vmp", "--nt", "200"],
    ["wave1d", "--case", "cmp", "--init", "exact", "--nt", "40"],
    ["wave3d", "--grid", "8", "--dt", "0.01", "--steps", "20"],
    ["maxwell", "--grid", "8", "--t-final", "0.1"],
    ["system", "--preset", "cmp", "--dt", "0.001", "--nx", "33", "--steps", "50"],
    ["wave1d-convergence", "--case", "cmp", "--k", "4..6", "--f", "2"],
    ["convergence-table", "--case", "bump-p2-q2", "--k", "4,6", "--jobs", "2"],
    ["wave1d-convergence", "--case", "bump-p2-q2", "--k", "4..6", "--mode-m", "3"],
    ["maxwell", "--grid", "16", "--materials", "trivial3d", "--steps", "60", "--record-every", "7"],
    ["wave3d", "--grid", "16", "--t-final", "0.3", "--record-every", "5"],
    ["convergence-table", "--case", "cmp c=1.5", "--k", "4..6", "--final", "half-period",
     "--jobs", "2"],
]

# the benchmark's invocations, with its random draws fixed
BENCH = [
    ["maxwell", "--grid", "40", "--materials", "diag3d", "--steps", "40", "--safety", "0.87"],
    ["convergence-table", "--case", "maxwell-cavity", "--k", "3..6", "--jobs", "1"],
    ["wave1d-convergence", "--case", "bump-p2-q2", "--k", "4..10"],
    ["convergence-table", "--case", "wave2d-mode", "--k", "4..8", "--jobs", "1"],
    ["system", "--preset", "oscillator", "--steps", "1000", "--omega", "1.1",
     "--u0", "0.9", "--v0", "0.1"],
    ["oscillator", "--steps", "10000", "--omega", "0.9", "--u0", "1.2", "--v0", "-0.3"],
]

# inputs past the float range or outside what the solvers accept
EDGES = [
    ["oscillator", "--dt", "1e308", "--steps", "3"],
    ["system", "--preset", "oscillator", "--dt", "1e308", "--steps", "3"],
    ["verify", "mimetic3d", "--sizes", "1"],
    ["verify", "adjoint", "--sizes", "1"],
    ["verify", "wave1d-sbp", "--sizes", "1", "--trials", "5"],
    ["wave1d", "--case", "vmp", "--material", "linear rho -2"],
    ["wave1d-convergence", "--case", "linear rho -2"],
    ["convergence-table", "--case", "linear tau -3"],
    ["wave1d", "--t-final", "1e308"],
    ["wave2d", "--t-final", "1e308"],
    ["wave3d", "--t-final", "1e308"],
    ["maxwell", "--t-final", "1e308"],
    ["wave1d", "--material", "cmp c=1e308"],
    ["wave1d-convergence", "--case", "cmp", "--final", "1e308"],
    ["convergence-table", "--case", "wave2d-mode", "--final", "1e308"],
    ["wave3d", "--grid", "1"],
    ["oscillator", "--steps", "10", "--bogus"],
    ["wave2d", "--nx", "8", "--a11", "inf"],
    ["wave2d", "--nx", "8", "--a", "inf"],
    ["wave2d", "--nx", "8", "--a", "1e-320"],
    ["wave2d", "--nx", "8", "--nt", "5", "--t-final", "1e308"],
    ["wave1d", "--nx", "8", "--safety", "5e-324"],
    ["wave1d", "--case", "vmp", "--nx", "8", "--safety", "5e-324"],
    ["wave2d", "--nx", "8", "--safety", "5e-324"],
    ["wave3d", "--grid", "4", "--safety", "5e-324", "--t-final", "1"],
    ["wave3d", "--grid", "4", "--safety", "5e-324", "--steps", "2"],
    ["maxwell", "--grid", "4", "--safety", "5e-324", "--t-final", "1"],
    ["system", "--preset", "cmp", "--safety", "5e-324", "--steps", "3"],
    ["convergence-table", "--case", "wave2d-mode", "--k", "2..3", "--safety", "5e-324"],
    ["convergence-table", "--case", "wave3d-cavity", "--k", "2..3", "--safety", "5e-324"],
    ["convergence-table", "--case", "maxwell-cavity", "--k", "2..3", "--safety", "5e-324"],
    ["convergence-table", "--case", "wave2d-mode", "--k", "2..3", "--final", "5e-324",
     "--safety", "1e300"],
    ["convergence-table", "--case", "maxwell-cavity", "--k", "1..2", "--final", "1e-300"],
    ["convergence-table", "--case", "wave2d-mode", "--k", "2..3", "--final", "1e-12"],
    ["convergence-table", "--case", "bump-p2-q2", "--k", "1..2", "--final", "1e-300"],
    ["wave1d-convergence", "--case", "cmp", "--k", "2..3", "--final", "1e-300"],
    ["wave1d", "--case", "vmp", "--material", "bump x 1"],
    ["wave1d", "--case", "vmp", "--material", "linear rho abc"],
    ["wave1d-convergence", "--case", "piecewise-linear a .75 1 2"],
    ["convergence-table", "--case", "linear tau x"],
    ["wave1d", "--case", "vmp", "--material", "linear rho 1 2"],
    ["wave1d", "--case", "vmp", "--material", "linear rho inf"],
    ["transport", "--velocity", "expand", "--n", "2"],
    ["transport", "--speed", "inf"],
    ["transport", "--courant", "inf"],
    ["transport", "--speed", "1e-320"],
    ["diffusion", "--courant", "inf"],
    ["diffusion", "--diffusivity", "1e-320"],
    ["diffusion", "--diffusivity", "inf"],
    ["system", "--preset", "oscillator", "--omega", "inf"],
    ["transport", "--steps", "1", "--record-every", "5"],
    ["diffusion", "--steps", "1", "--record-every", "5"],
    ["convergence-table", "--case", "bogus"],
    ["wave1d-convergence", "--case", "wave2d-mode"],
]

# runs whose records span several of the CLI series' chunks, or end part way
# into one, at record intervals that do not divide a chunk
CHUNKED = [
    ["oscillator", "--steps", "20000", "--record-every", "7"],
    ["oscillator", "--omega", "1", "--dt", "2.5", "--steps", "3000"],
    ["oscillator", "--steps", "1000", "--v0", "inf"],
    ["system", "--preset", "cmp", "--steps", "3000", "--record-every", "256"],
    ["transport", "--velocity", "collapse", "--steps", "3000", "--record-every", "11"],
    ["transport", "--velocity", "expand", "--steps", "700"],
    ["diffusion", "--steps", "3000", "--record-every", "999"],
    ["diffusion", "--n", "3", "--courant", "0.25", "--steps", "5"],
    ["wave1d", "--case", "vmp", "--nt", "3000", "--record-every", "13"],
    ["wave2d", "--nx", "8", "--nt", "600", "--record-every", "5"],
    ["maxwell", "--grid", "4", "--steps", "3000", "--materials", "diag3d"],
    ["wave3d", "--grid", "4", "--steps", "1000", "--record-every", "3"],
]

# runs whose 3D update plans form each component in several slabs: the scalar
# rung's 64^3 cavity level, both rungs with diagonal stars on 48^3 grids,
# whose spacing is not a power of two, and both on 40^3 grids with spaced
# records and an unrecorded last step, the Maxwell run audited
SLABBED = [
    ["convergence-table", "--case", "wave3d-cavity", "--k", "5..6", "--jobs", "1"],
    ["wave3d", "--materials", "diag3d", "--grid", "48", "--steps", "6", "--record-every", "2"],
    ["maxwell", "--materials", "diag3d", "--grid", "48", "--steps", "6", "--record-every", "4"],
    ["maxwell", "--materials", "diag3d", "--grid", "40", "--steps", "10", "--record-every", "3"],
    ["wave3d", "--materials", "diag3d", "--grid", "40", "--steps", "10", "--record-every", "4"],
]

# 3D runs on odd grids, whose pinned differences run over rows of odd pitch:
# a 33^3 Maxwell run whose updates form each component in two slabs, a 7^3
# scalar run, and the operator and adjoint suites on 5^3 and 7^3 grids, whose
# one-shot operators and products, pinned and periodic, work in the grid's
# shared scratch
ODD_PITCHES = [
    ["maxwell", "--grid", "33", "--materials", "diag3d", "--steps", "4"],
    ["wave3d", "--grid", "7", "--materials", "diag3d", "--steps", "5"],
    ["verify", "mimetic3d", "--sizes", "5", "7"],
    ["verify", "adjoint", "--sizes", "5", "7", "--trials", "3"],
]

# unit-star runs on a 12^3 grid: h = 1/12 is not a power of two, so each
# update multiplies its undivided differences by the coefficient 1/h
UNIT_ODD_SPACING = [
    ["maxwell", "--grid", "12", "--steps", "20", "--record-every", "3"],
    ["wave3d", "--grid", "12", "--steps", "20"],
]

# sizes whose arrays do not fit in memory, each a usage error naming its size
# options: past what an array can address, or with a first array of over
# 700 PiB, which no system grants (on a tree without the size check too)
TOO_LARGE = [
    ["maxwell", "--grid", "10000000"],
    ["wave3d", "--grid", "10000000"],
    ["wave2d", "--nx", "100000000000000000", "--nt", "2"],
    ["wave2d", "--nx", "2", "--ny", "100000000000000000", "--nt", "2"],
    ["convergence-table", "--case", "maxwell-cavity", "--k", "20..21"],
    ["convergence-table", "--case", "wave2d-mode", "--k", "57..58"],
    ["wave1d", "--nx", "100000000000000000", "--nt", "2"],
    ["transport", "--n", "100000000000000000"],
]

# every command's option schema: the parser, --help and config keys come
# from the same table, so these must match byte for byte too
SCHEMAS = [[command, "--schema"] for command in (
    "oscillator", "system", "wave1d", "wave1d-convergence", "wave2d", "wave3d", "maxwell",
    "transport", "diffusion", "verify", "convergence-table")]

INVOCATIONS = (README + MORE_RUNS + BENCH + EDGES + CHUNKED + SLABBED + ODD_PITCHES
               + UNIT_ODD_SPACING + TOO_LARGE + SCHEMAS)

_VOLATILE = ("wall_time_s", "artifacts")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name.endswith("_report.json"):
        report = {k: v for k, v in json.loads(data).items() if k not in _VOLATILE}
        data = json.dumps(report, sort_keys=True).encode()
    return _sha(data)


def digest(src: Path, argv: list, workdir: Path) -> str:
    """One line: the command, its exit code, and the digests of what it wrote."""
    outdir = Path(tempfile.mkdtemp(dir=workdir))
    env = {k: v for k, v in os.environ.items() if k != "STAGWAVE_OUTDIR"}
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run(
        [sys.executable, "-m", "stagwave.cli", *argv, "--outdir", str(outdir)],
        capture_output=True, env=env, cwd=workdir,
    )
    parts = [f"exit={proc.returncode}"]
    parts += [f"{p.name}={_file_digest(p)}" for p in sorted(outdir.iterdir())]
    parts.append(f"stdout={_sha(proc.stdout.replace(str(outdir).encode(), b'<OUT>'))}")
    return " | ".join([" ".join(argv), *parts])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory holding the stagwave package to run")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "stagwave" / "cli.py").is_file():
        parser.error(f"no stagwave package under {src}")
    with tempfile.TemporaryDirectory() as work:
        for inv in INVOCATIONS:
            print(digest(src, inv, Path(work)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
