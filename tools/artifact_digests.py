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
rough materials (a density jump, a piecewise stiffness), power-of-two grids
whose update hooks fold the spacing into non-unit 2D weights or, with a
non-unit 3D star, keep dividing by it, the benchmark's
invocations with fixed draws, and the inputs that must end in a report with
failed checks (exit 1) or a usage error (exit 2).
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
]

INVOCATIONS = README + MORE_RUNS + BENCH + EDGES

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
