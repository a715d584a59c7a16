"""stagwave benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload maxwell-audit --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``maxwell-audit``        -- ``maxwell --grid 40 --materials diag3d``, every
  step recorded, so the invariant and divergence audits dominate;
* ``maxwell-cavity-sweep`` -- ``convergence-table --case maxwell-cavity
  --k 3..6``: time to an order-2 solution up to a 64^3 grid, no audits;
* ``lowdim-sweep``         -- the 1D, 2D and oscillator marches, where per-step
  Python overhead dominates.

With ``--trace 0`` the end-to-end metrics are printed: ``run_s`` (median
seconds of one workload run in a warm process), ``setup_s`` (median, over
fresh processes, of the time from start to the first leapfrog step) and
``peak_rss_mb`` (peak RSS of a fresh process after one workload run).  With
``--trace 1`` a traced run prints the per-layer metrics and the kernel table.

Every invocation runs single-threaded (``--jobs 1``, BLAS/OpenMP pinned to
one thread) and is checked: exit code 0, ``passed: true`` in its report, the
frozen reference error and order for the sweeps, and byte-identical CSVs
across runs.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it stamps the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

from harness import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARNESS = HERE / "harness.py"

PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
# Fresh processes timed for setup_s, after one that warms the file cache.
SETUP_SAMPLES = 7
# Seconds a child may take beyond the measured time before it is killed.
CHILD_SLACK_S = 90


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child(mode: str, args, seconds: float | None = None) -> dict:
    """Run one harness child to completion and return its JSON result."""
    cmd = [sys.executable, str(HARNESS), mode, "--workload", args.workload,
           "--seed", str(args.seed)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if args.tiny:
        cmd.append("--tiny")
    timeout = (seconds or 0) + CHILD_SLACK_S
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def _caches() -> list:
    out = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if size:
            out.append(f"L{level} {kind} {size}")
    return out


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def stamp(args) -> dict:
    """Where and on what the numbers were measured."""
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _caches(),
        "threads_env": {k: os.environ.get(k) for k in PINNED_THREADS},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def end_to_end(args) -> dict:
    samples = 1 if args.tiny else SETUP_SAMPLES
    setups = [child("setup", args) for _ in range(samples + (0 if args.tiny else 1))]
    setups = setups[-samples:]
    setup_errors = [s["error"] for s in setups if "error" in s]
    setup_times = [s["setup_s"] for s in setups if "setup_s" in s]
    if not setup_times:
        raise BenchError(f"no setup sample reached a leapfrog step: {setup_errors}")
    meas = child("measure", args, args.seconds)
    times = meas["times"]
    q1, _, q3 = statistics.quantiles(times, n=4)
    print(f"run_s: n={len(times)} median={statistics.median(times):.4f} "
          f"q1={q1:.4f} q3={q3:.4f} first={meas['first_s']:.4f}; "
          f"setup_s: {['%.4f' % t for t in setup_times]}")
    for problem in meas["problems"] + setup_errors:
        print(f"problem: {problem}")
    return {
        "correct": meas["correct"] and not setup_errors,
        "attempted": meas["attempted"] + len(setups),
        "failed": meas["failed"] + len(setup_errors),
        "metrics": {
            "run_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": meas["peak_rss_mb"], "unit": "MB"},
        },
    }


def per_layer(args) -> dict:
    res = child("trace", args, args.seconds)
    print(f"traced run_s={res['traced_run_s']:.4f} untraced run_s={res['untraced_run_s']:.4f}")
    for problem in res["problems"]:
        print(f"problem: {problem}")
    return {key: res[key] for key in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.update(PINNED_THREADS)  # inherited by every child

    if not (ROOT / "src" / "stagwave" / "cli.py").is_file():
        print(f"error: no stagwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = per_layer(args) if args.trace else end_to_end(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        out = ROOT / ".perfbench_out"
        if out.is_dir() and not any(out.iterdir()):
            shutil.rmtree(out)
    print("stamp " + json.dumps(stamp(args)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
