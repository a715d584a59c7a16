"""Workloads, correctness gate and measurement loops of the stagwave benchmark.

`run.py` starts this file as a fresh child process in one of three modes;
each prints one JSON object as the last line of its standard output:

    python3 perfbench/harness.py setup   --workload W --seed S
    python3 perfbench/harness.py measure --workload W --seed S --seconds T
    python3 perfbench/harness.py trace   --workload W --seed S --seconds T

Every workload is a closed loop of in-process `stagwave.cli.main` calls: the
next invocation starts when the previous one has returned.
"""

import time

T0 = time.perf_counter()  # `setup` mode measures from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("maxwell-audit", "maxwell-cavity-sweep", "lowdim-sweep")

# A sweep must reproduce the finest error norm and endpoint order frozen from
# the commit the benchmark was added on.  The tolerances admit re-associated
# floating-point arithmetic (the rounding of ~1e4 steps) but not a changed
# discretisation.
ERR_RTOL = 1e-6
ORDER_ATOL = 1e-6

# Timed workload runs a measurement makes at least, whatever --seconds says.
MIN_REPS = 3


@dataclass(frozen=True)
class Invocation:
    """One CLI call; `expect` is (finest_max_abs, endpoint order) or None."""

    argv: tuple
    expect: tuple | None = None


def invocations(workload: str, seed: int, tiny: bool = False) -> list:
    """The CLI calls of one workload run.

    The seed varies inputs that do not change the amount of work: the
    Maxwell CFL fraction and the oscillator frequency and initial data.  The
    sweeps are fixed so their results can be compared with frozen references.
    """
    rng = random.Random(f"{workload}:{seed}")

    def draw(lo, hi):
        return f"{lo + (hi - lo) * rng.random():.6f}"

    if workload == "maxwell-audit":
        grid, steps = ("6", "5") if tiny else ("40", "40")
        return [Invocation(("maxwell", "--grid", grid, "--materials", "diag3d",
                            "--steps", steps, "--safety", draw(0.80, 0.95)))]
    if workload == "maxwell-cavity-sweep":
        k, expect = ("2..3", (0.005670583733972483, 2.02385366977559)) if tiny else (
            "3..6", (7.519504165006893e-05, 2.0789053035704974))
        return [Invocation(("convergence-table", "--case", "maxwell-cavity",
                            "--k", k, "--jobs", "1"), expect)]
    if workload == "lowdim-sweep":
        if tiny:
            k1, e1 = "3..4", (0.0020631302807874174, 2.4107700469201476)
            k2, e2 = "2..3", (0.003757904483430923, 2.61742252714331)
            sys_steps, osc_steps = "50", "100"
        else:
            k1, e1 = "4..10", (4.468521019873606e-07, 2.028791649162916)
            k2, e2 = "4..8", (1.8769355586215064e-06, 2.058613629476564)
            sys_steps, osc_steps = "1000", "10000"
        return [
            Invocation(("wave1d-convergence", "--case", "bump-p2-q2", "--k", k1), e1),
            Invocation(("convergence-table", "--case", "wave2d-mode", "--k", k2,
                        "--jobs", "1"), e2),
            Invocation(("system", "--preset", "oscillator", "--steps", sys_steps,
                        "--omega", draw(0.5, 1.5), "--u0", draw(0.5, 1.5),
                        "--v0", draw(-0.5, 0.5))),
            Invocation(("oscillator", "--steps", osc_steps, "--omega", draw(0.5, 1.5),
                        "--u0", draw(0.5, 1.5), "--v0", draw(-0.5, 0.5))),
        ]
    raise ValueError(f"unknown workload {workload!r}; use one of {WORKLOADS}")


def import_stagwave():
    """Import the CLI from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import stagwave.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"stagwave was imported from {cli.__file__}, not {SRC}")
    return cli


# ---------------------------------------------------------------------------
# one workload run, with its correctness gate
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)


def check_outputs(inv: Invocation, code, outdir: Path, prefix: str) -> list:
    """Problems with one finished invocation; empty when it is correct."""
    if code != 0:
        return [f"exit code {code}"]
    report_path = outdir / f"{prefix}_report.json"
    if not report_path.is_file():
        return ["no report written"]
    report = json.loads(report_path.read_text())
    if report.get("passed") is not True:
        return ["report says passed: false"]
    if inv.expect is not None:
        err, order = report["error_norms"]["finest_max_abs"], report["orders"]["endpoint"]
        want_err, want_order = inv.expect
        if not math.isclose(err, want_err, rel_tol=ERR_RTOL, abs_tol=0.0):
            return [f"finest error {err!r} differs from the reference {want_err!r}"]
        if abs(order - want_order) > ORDER_ATOL:
            return [f"endpoint order {order!r} differs from the reference {want_order!r}"]
    return []


def run_workload(cli, invs, outdir: Path, seed: int) -> RunResult:
    """Run every invocation once; a failure or exception is counted, not raised."""
    res = RunResult()
    for i, inv in enumerate(invs):
        prefix = f"i{i}"
        for stale in outdir.glob(f"{prefix}_*"):
            stale.unlink()
        argv = list(inv.argv) + ["--outdir", str(outdir), "--prefix", prefix,
                                 "--seed", str(seed)]
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception as exc:  # an invocation that crashes is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        res.seconds += time.perf_counter() - t0
        problems = check_outputs(inv, code, outdir, prefix)
        if problems:
            res.failed += 1
            res.problems += [f"{' '.join(inv.argv)}: {p}" for p in problems]
        for csv in sorted(outdir.glob(f"{prefix}_*.csv")):
            res.digests[csv.name] = hashlib.sha256(csv.read_bytes()).hexdigest()
    return res


class Session:
    """Repeated workload runs in one warm process, with the determinism check."""

    def __init__(self, cli, invs, seed: int, outdir: Path):
        self.cli, self.invs, self.seed, self.outdir = cli, invs, seed, outdir
        self.attempted = self.failed = 0
        self.problems = []
        self.reference = None
        outdir.mkdir(parents=True, exist_ok=True)

    def once(self) -> float:
        res = run_workload(self.cli, self.invs, self.outdir, self.seed)
        self.attempted += res.attempted
        self.failed += res.failed
        self.problems += res.problems
        if self.reference is None:
            self.reference = res.digests
        elif res.digests != self.reference:
            self.problems.append("CSV artifacts differ between two runs of the same inputs")
        return res.seconds

    def repeat(self, seconds: float) -> list:
        """Timed runs until `seconds` have passed (at least MIN_REPS)."""
        times = []
        deadline = time.perf_counter() + seconds
        while len(times) < MIN_REPS or time.perf_counter() < deadline:
            times.append(self.once())
        return times

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "correct": self.failed == 0 and not self.problems,
            "problems": self.problems[:20],
        }


# ---------------------------------------------------------------------------
# child modes
# ---------------------------------------------------------------------------


class FirstStep(Exception):
    """Raised by the patched step functions to end a `setup` measurement."""


def mode_setup(cli, invs, seed: int, outdir: Path) -> dict:
    """Seconds from this process's first statement to its first leapfrog step."""
    from layers import STEPS, replace_everywhere, stagwave_modules

    modules = stagwave_modules()

    def first_step(*args, **kwargs):
        raise FirstStep(time.perf_counter() - T0)

    for dotted in STEPS:
        mod, name = dotted.split(".")
        replace_everywhere(modules, getattr(modules[mod], name), first_step, undo=[])
    outdir.mkdir(parents=True, exist_ok=True)
    argv = list(invs[0].argv) + ["--outdir", str(outdir), "--seed", str(seed)]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
    except FirstStep as reached:
        return {"setup_s": reached.args[0]}
    except Exception as exc:  # reported as a failed operation by run.py
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"error": "the invocation finished without taking a leapfrog step"}


def mode_measure(cli, invs, seed: int, outdir: Path, seconds: float) -> dict:
    """Warm-process run times, and the peak RSS of the first (fresh) run."""
    session = Session(cli, invs, seed, outdir)
    first = session.once()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = session.repeat(seconds)
    return {"first_s": first, "times": times, "peak_rss_mb": peak_rss_mb, **session.summary()}


def mode_trace(cli, invs, seed: int, outdir: Path, seconds: float,
               kernel_seconds: float) -> dict:
    """Per-layer metrics.  Untraced and traced runs alternate in one process,
    so drift in the machine's speed does not bias `trace_overhead`."""
    from kernels import kernel_table
    from layers import Tracer

    session = Session(cli, invs, seed, outdir)
    session.once()
    tracer = Tracer()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_REPS or time.perf_counter() < deadline:
        untraced.append(session.once())
        tracer.install()
        try:
            traced.append(session.once())
        finally:
            tracer.uninstall()
    traced_s = statistics.median(traced)
    metrics = tracer.metrics(len(traced), traced_s)
    metrics["trace_overhead"] = (traced_s / statistics.median(untraced), "ratio")
    summary = session.summary()
    metrics["fail_rate"] = (summary["failed"] / summary["attempted"], "ratio")
    metrics.update(kernel_table(seed, kernel_seconds))
    return {
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "untraced_run_s": statistics.median(untraced),
        "traced_run_s": traced_s,
        **summary,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    invs = invocations(args.workload, args.seed, tiny=args.tiny)
    outdir = OUT / f"{args.mode}-{args.workload}-{args.seed}"
    cli = import_stagwave()
    try:
        if args.mode == "setup":
            result = mode_setup(cli, invs, args.seed, outdir)
        elif args.mode == "measure":
            result = mode_measure(cli, invs, args.seed, outdir, args.seconds)
        else:
            from kernels import SECONDS_PER_ENTRY

            result = mode_trace(cli, invs, args.seed, outdir, args.seconds,
                                kernel_seconds=0.0 if args.tiny else SECONDS_PER_ENTRY)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
