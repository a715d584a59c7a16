"""Experiment runner: every solver and verifier in the package as a subcommand.

``stagwave <command> [flags]`` assembles the experiment described by the
flags, marches it, writes the artifacts, prints one PASS/FAIL line per
enabled check, and exits 0 only if every check passed (1 on a failed check,
2 on a usage or config error).

Commands
--------
oscillator, system, wave1d, wave1d-convergence, wave2d, wave3d, maxwell,
transport, diffusion, verify, convergence-table.

Artifacts
---------
Each run writes, where applicable, into the output directory:

* ``<prefix>_series.csv``  — per-step time series: step, t, both conserved
  quantities, plus the invariant pieces and divergence audits for the 3D
  runs and mass/min-density for transport and diffusion;
* ``<prefix>_errors.csv``  — final-time error profile ``x, Er, Er/dx^2``
  for the 1D runs that know an exact or refined solution;
* ``<prefix>_table.csv``   — convergence table ``k, Nx, dx, Er, p``;
* ``<prefix>_report.json`` — the full RunReport.

The output directory is, in order of precedence: ``--outdir``, the config
file's ``outdir`` key, the ``STAGWAVE_OUTDIR`` environment variable, the
working directory.

Config files
------------
``--config FILE`` reads a flat key/value INI file; keys (in any section)
must match the command's long flag names, with dashes or underscores.
Explicit command-line flags always win over config-file values.  Every
command prints its flag set with ``--help`` and dumps a machine-readable
version with ``--schema``.

Determinism
-----------
A run is sequential end-to-end, and identical configs (including the seed)
produce byte-identical CSV files; float cells are written with ``repr`` so
they round-trip exactly.  The JSON report is deterministic except for the
``wall_time_s`` field.  ``convergence-table --jobs N`` may fan a sweep out
over processes; rows are written in sweep order regardless.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import mimetic3d, oscillator, positivity, wave1d, wave2d, wave3d
from .core import OperatorPair, check_adjointness, run_system
from .mimetic3d import Grid3, Star3, sample_scalar, sample_vector, zeros_field

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunReport",
    "parse_material_1d",
    "parse_material_3d",
    "run",
    "verify",
    "convergence_table",
    "build_parser",
    "main",
]


class ConfigError(ValueError):
    """A config file or flag combination that cannot describe a run (exit 2)."""


# ---------------------------------------------------------------------------
# small numeric helpers shared by the runners
# ---------------------------------------------------------------------------


def rel_drift(series) -> float:
    """max_n |x_n - x_0| / |x_0| of a conserved-quantity series."""
    arr = np.asarray(series, dtype=float)
    return float(np.max(np.abs(arr - arr[0])) / max(abs(arr[0]), 1e-300))


def endpoint_order(rows) -> float:
    """Log-log slope between the first and last (dx, error) entries."""
    (dx0, e0), (dx1, e1) = rows[0], rows[-1]
    return float(math.log(e0 / e1) / math.log(dx0 / dx1))


def _check(name: str, measured, bound: str, passed: bool) -> dict:
    if isinstance(measured, (int, float, np.integer, np.floating)):
        measured = float(measured)
    return {"name": name, "measured": measured, "bound": bound, "passed": bool(passed)}


def _invariant_series(art, rows, every, extra=()):
    """Write the rows (step, t, C_n, C_half, *extra) of every `every`-th step
    to the series CSV; return the drift checks over all rows and their summary."""
    art.series(
        ["step", "t", "C_n", "C_half", *extra],
        [r for r in rows if every and r[0] % every == 0],
    )
    drift_n = rel_drift([r[2] for r in rows])
    drift_half = rel_drift([r[3] for r in rows])
    checks = [
        _check("C_n-drift", drift_n, "<= 1e-12 relative", drift_n <= 1e-12),
        _check("C_half-drift", drift_half, "<= 1e-12 relative", drift_half <= 1e-12),
    ]
    return checks, {"C_n_drift": drift_n, "C_half_drift": drift_half}


# ---------------------------------------------------------------------------
# argparse value types (names show up in --schema dumps)
# ---------------------------------------------------------------------------


def positive_int(text):
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def positive_float(text):
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text!r}")
    return value


def k_range(text):
    """Refinement levels: '4..8', '4,6,7', or a single '5'."""
    text = str(text).strip()
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    try:
        ks = [int(tok) for tok in re.split(r"[ ,]+", text) if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad refinement range {text!r}") from None
    if not ks:
        raise argparse.ArgumentTypeError("no refinement levels given")
    return ks


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved run description, grouped by concern.

    ``grid``/``material``/``time``/``init`` hold the command's options in
    named buckets; ``output`` holds the directory and file prefix; ``seed``
    feeds every random draw; checks may be disabled wholesale.
    """

    command: str
    grid: dict = field(default_factory=dict)
    material: dict = field(default_factory=dict)
    time: dict = field(default_factory=dict)
    init: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)
    seed: int = 0
    checks_enabled: bool = True


@dataclass
class RunReport:
    """Everything a run measured, plus where its artifacts went.

    Serialization is deterministic given the seed, except for
    ``wall_time_s`` (which is wall time).
    """

    command: str
    settings: dict
    seed: int
    artifacts: dict
    summary: dict
    error_norms: dict
    orders: dict
    checks: list
    passed: bool
    wall_time_s: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True, default=str) + "\n"


# ---------------------------------------------------------------------------
# material spec parsing
# ---------------------------------------------------------------------------

_TARGETS = ("rho", "tau")


def parse_material_1d(spec: str) -> dict:
    """Parse a 1D material spec into profile functions (or a cmp speed).

    Accepted forms (tokens separated by spaces):

    * ``cmp`` or ``cmp c=2.0``               — constant-material, speed c;
    * any preset name from ``wave1d.MATERIAL_PRESETS`` (e.g. ``bump-p2-q2``);
    * ``linear rho|tau [slope]``             — one linear coefficient;
    * ``bump P Q``                           — rho bump power P, tau power Q;
    * ``piecewise-linear A B C D [rho|tau]`` — ramp between plateaus;
    * ``jump up|down [rho|tau]``             — a +-1/2 step at x = 1/2.

    Returns {"kind": "cmp", "c": float} or
    {"kind": "vmp", "name": str, "rho": fn, "tau": fn}.
    """
    tokens = str(spec).strip().split()
    if not tokens:
        raise ConfigError("empty material spec")
    head, rest = tokens[0], tokens[1:]
    one = wave1d.constant_profile(1.0)

    if head == "cmp":
        c = 1.0
        for tok in rest:
            m = re.fullmatch(r"c=([-+0-9.eE]+)", tok)
            if not m:
                raise ConfigError(f"bad cmp material token {tok!r} (use 'cmp c=2.0')")
            c = float(m.group(1))
        if not c > 0:
            raise ConfigError(f"cmp speed must be positive, got {c}")
        return {"kind": "cmp", "c": c}

    def vmp(name, rho_fn, tau_fn):
        return {"kind": "vmp", "name": name, "rho": rho_fn, "tau": tau_fn}

    def one_sided(name, target, fn):
        return vmp(name, fn, one) if target == "rho" else vmp(name, one, fn)

    if head in wave1d.MATERIAL_PRESETS and not rest:
        return vmp(head, *wave1d.MATERIAL_PRESETS[head])

    def target_of(tok_list, default="rho"):
        names = [t for t in tok_list if t in _TARGETS]
        if len(names) > 1:
            raise ConfigError(f"material spec names both targets: {spec!r}")
        return names[0] if names else default, [t for t in tok_list if t not in _TARGETS]

    if head == "linear":
        target, nums = target_of(rest)
        slope = float(nums[0]) if nums else 0.5
        return one_sided(f"linear-{target}", target, wave1d.linear_profile(slope))

    if head == "bump":
        if len(rest) != 2:
            raise ConfigError(f"bump needs two powers, got {spec!r}")
        p, q = int(rest[0]), int(rest[1])
        if p < 1 or q < 1:
            raise ConfigError("bump powers must be >= 1")
        return vmp(f"bump-p{p}-q{q}", wave1d.bump_profile(p), wave1d.bump_profile(q))

    if head == "piecewise-linear":
        target, nums = target_of(rest)
        if len(nums) != 4:
            raise ConfigError(f"piecewise-linear needs a b c d, got {spec!r}")
        a, b, c, d = (float(v) for v in nums)
        fn = wave1d.piecewise_linear_profile(a, b, c, d)
        return one_sided(f"piecewise-{target}", target, fn)

    if head == "jump":
        target, nums = target_of(rest)
        if len(nums) != 1 or nums[0] not in ("up", "down"):
            raise ConfigError(f"jump needs 'up' or 'down', got {spec!r}")
        fn = wave1d.jump_profile(+0.5 if nums[0] == "up" else -0.5)
        return one_sided(f"{target}-jump-{nums[0]}", target, fn)

    raise ConfigError(
        f"unknown 1D material {spec!r}; use 'cmp c=...', a preset name, or one "
        f"of linear/bump/piecewise-linear/jump"
    )


def parse_material_3d(name: str, system: str):
    """Return star factories for a named 3D material preset.

    ``trivial3d`` is unit material; ``scalar3d`` and ``diag3d`` are constant
    non-unit scalar / diagonal tensors.  For ``system="scalar"`` the factory
    maps a grid to one star; for ``"maxwell"`` to an (eps, mu) pair.
    """
    scalar = {
        "trivial3d": lambda g: Star3.trivial(g),
        "scalar3d": lambda g: Star3.from_scalars(g, 2.0, 1.5, 3.0, 2.5),
        "diag3d": lambda g: Star3.from_diagonals(
            g, 1.5, 2.0, (2.0, 3.0, 4.0), (1.5, 2.5, 3.5)
        ),
    }
    pair = {
        "trivial3d": lambda g: (Star3.trivial(g), Star3.trivial(g)),
        "scalar3d": lambda g: (
            Star3.from_scalars(g, 1.0, 1.0, 2.0, 1.0),
            Star3.from_scalars(g, 1.0, 1.0, 1.0, 3.0),
        ),
        "diag3d": lambda g: (
            Star3.from_diagonals(g, 1.0, 1.0, (2.0, 3.0, 4.0), (1.0, 1.0, 1.0)),
            Star3.from_diagonals(g, 1.0, 1.0, (1.0, 1.0, 1.0), (1.5, 2.5, 3.5)),
        ),
    }
    table = scalar if system == "scalar" else pair
    try:
        return table[name]
    except KeyError:
        raise ConfigError(
            f"unknown 3D material {name!r}; use one of {sorted(table)}"
        ) from None


# ---------------------------------------------------------------------------
# artifact writing
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


class ArtifactWriter:
    """Writes a run's CSV/JSON files under one directory and prefix."""

    def __init__(self, outdir: Path, prefix: str):
        self.outdir = Path(outdir)
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.prefix = prefix
        self.paths: dict[str, str | None] = {
            "series_csv": None,
            "errors_csv": None,
            "table_csv": None,
            "report_json": None,
        }

    def _write_csv(self, stem: str, key: str, header, rows) -> str:
        path = self.outdir / f"{self.prefix}_{stem}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_cell(v) for v in row])
        self.paths[key] = str(path)
        return str(path)

    def series(self, header, rows) -> str:
        return self._write_csv("series", "series_csv", header, rows)

    def errors(self, rows) -> str:
        return self._write_csv("errors", "errors_csv", ["x", "Er", "Er_over_dx2"], rows)

    def table(self, rows) -> str:
        return self._write_csv("table", "table_csv", ["k", "Nx", "dx", "Er", "p"], rows)

    def report(self, report: RunReport) -> str:
        path = self.outdir / f"{self.prefix}_report.json"
        self.paths["report_json"] = str(path)
        report.artifacts = dict(self.paths)
        path.write_text(report.to_json())
        return str(path)


def resolve_outdir(output: dict) -> Path:
    explicit = output.get("outdir")
    if explicit:
        return Path(explicit)
    env = os.environ.get("STAGWAVE_OUTDIR")
    if env:
        return Path(env)
    return Path(".")


# ---------------------------------------------------------------------------
# runners (one per experiment subcommand)
# ---------------------------------------------------------------------------


def _run_oscillator(cfg: ExperimentConfig, art: ArtifactWriter) -> dict:
    omega = cfg.init["omega"]
    dt, steps = cfg.time["dt"], cfg.time["steps"]
    params = oscillator.OscParams(omega=omega, dt=dt, n_steps=steps)
    u_hist, rec = oscillator.simulate(
        cfg.init["u0"], cfg.init["v0"], params, exact_init=cfg.init["exact_init"]
    )
    checks, summary = _invariant_series(
        art, [(s, s * dt, cn, ch) for s, cn, ch in rec], cfg.time["record_every"]
    )

    t = dt * np.arange(len(u_hist))
    # continuum solution of u' = -omega v, v' = omega u
    exact = cfg.init["u0"] * np.cos(omega * t) - cfg.init["v0"] * np.sin(omega * t)
    max_dev = float(np.max(np.abs(np.asarray(u_hist) - exact)))
    return {
        "settings": {"omega": omega, "dt": dt, "steps": steps, "alpha": params.alpha},
        "summary": summary,
        "error_norms": {"max_dev_from_exact": max_dev},
        "checks": checks,
    }


def _run_system(cfg: ExperimentConfig, art: ArtifactWriter) -> dict:
    preset = cfg.material["preset"]
    steps = cfg.time["steps"]
    if preset == "oscillator":
        omega = cfg.init["omega"]
        dt = cfg.time["dt"] if cfg.time["dt"] is not None else 0.01
        ops = OperatorPair(
            apply_A=lambda f: -omega * f,
            apply_Astar=lambda g: -omega * g,
            norm_bound_A=omega,
            norm_bound_Astar=omega,
        )
        state, rec = run_system(cfg.init["u0"], cfg.init["v0"], ops, dt, steps)
        settings = {"preset": preset, "omega": omega, "dt": dt, "steps": steps}
    elif preset == "cmp":
        nx, c = cfg.grid["nx"], cfg.init["c"]
        dx = 1.0 / (nx - 1)
        dt = cfg.time["dt"] if cfg.time["dt"] is not None else cfg.time["safety"] * dx / c
        grid = wave1d.Grid1D(a=0.0, b=1.0, nx=nx, t_final=steps * dt, nt=steps)
        ops, inner_X, inner_Y = wave1d.cmp_system(c, grid)
        u0 = wave1d.standing_mode_u(grid.primal_points(), 0.0, cfg.init["mode_m"], c)
        state, rec = run_system(u0, np.zeros(nx - 1), ops, dt, steps, inner_X, inner_Y)
        settings = {"preset": preset, "nx": nx, "c": c, "dt": dt, "steps": steps}
    else:
        raise ConfigError(f"unknown system preset {preset!r}; use oscillator or cmp")

    checks, summary = _invariant_series(
        art, [(s, s * dt, cn, ch) for s, cn, ch in rec], cfg.time["record_every"]
    )
    return {
        "settings": settings,
        "summary": summary,
        "checks": checks,
    }


def _build_grid_1d(nx: int, t_final: float, nt, safety: float, speed: float):
    if nt is None:
        dx = 1.0 / (nx - 1)
        nt = max(1, math.ceil(t_final / (safety * dx / speed)))
    return wave1d.Grid1D(a=0.0, b=1.0, nx=nx, t_final=t_final, nt=nt)


def _run_wave1d(cfg: ExperimentConfig, art: ArtifactWriter) -> dict:
    case = cfg.material["case"]
    spec = cfg.material["material"]
    if spec is None:
        spec = "cmp c=1.0" if case == "cmp" else "constant"
    mat = parse_material_1d(spec)
    if (mat["kind"] == "cmp") != (case == "cmp"):
        raise ConfigError(f"--case {case} does not match material {spec!r}")
    m = cfg.init["mode_m"]
    t_final = cfg.time["t_final"]

    if case == "cmp":
        c = mat["c"]
        grid = _build_grid_1d(cfg.grid["nx"], t_final, cfg.time["nt"], cfg.time["safety"], c)
        # an unset --init has always started cmp runs from the Taylor half step
        u0, v0 = wave1d.cmp_mode_start(grid, m, c, cfg.init["init"] or "taylor")
        state, rec = wave1d.run_cmp(grid, c, u0, v0, record_every=1)
        xp = grid.primal_points()
        er = state.u - wave1d.standing_mode_u(xp, t_final, m, c)
        art.errors(zip(xp, er, er / grid.dx**2))
        error_norms = {"max_abs_u": float(np.max(np.abs(er)))}
        settings = {"case": case, "c": c}
    else:
        probe = wave1d.Grid1D(a=0.0, b=1.0, nx=cfg.grid["nx"], t_final=t_final, nt=1)
        mats = wave1d.Materials1D.from_profiles(probe, mat["rho"], mat["tau"])
        grid = _build_grid_1d(
            cfg.grid["nx"], t_final, cfg.time["nt"], cfg.time["safety"], wave1d.cfl_speed(mats)
        )
        mats = wave1d.Materials1D.from_profiles(grid, mat["rho"], mat["tau"])
        u0 = np.sin(m * np.pi * grid.primal_points())
        v0 = wave1d.taylor_v_half_vmp(u0, np.zeros(grid.nx - 1), mats, grid)
        state, rec = wave1d.run_vmp(grid, mats, u0, v0, record_every=1)
        error_norms = {}
        settings = {"case": case, "material": mat["name"]}

    rows = [(s, s * grid.dt, cn, ch) for s, cn, ch in rec]
    checks, summary = _invariant_series(art, rows, cfg.time["record_every"])
    settings.update({"nx": grid.nx, "nt": grid.nt, "dt": grid.dt, "t_final": t_final})
    min_c = min(min(r[2] for r in rows), min(r[3] for r in rows))
    checks.append(_check("invariants-positive", min_c, "> 0", min_c > 0))
    return {
        "settings": settings,
        "summary": summary,
        "error_norms": error_norms,
        "checks": checks,
    }


# -- convergence sweeps ------------------------------------------------------


def _resolve_final_1d(final, m: int, c: float) -> float:
    """Final times for the 1D mode study; named values scale with the period.

    The standing mode's period is 2/(m c).  "full-period" maps to 7/8 of it
    (a generic time slightly inside the period, where the scheme's phase lag
    dominates and the order is 2); "half-period" maps to half of it, where
    the phase-lag term cancels and the measured order jumps to ~4.
    """
    if final is None:
        final = "full-period"
    if isinstance(final, str):
        named = {"full-period": 1.75 / (m * c), "half-period": 1.0 / (m * c)}
        if final in named:
            return named[final]
        try:
            return float(final)
        except ValueError:
            raise ConfigError(
                f"bad --final {final!r}; use a number, 'full-period' or 'half-period'"
            ) from None
    return float(final)


def _is_half_period_multiple(t_final: float, m: int, c: float) -> bool:
    ratio = t_final * m * c
    return abs(ratio - round(ratio)) < 1e-9 and round(ratio) >= 1


def _sweep_1d(cfg: ExperimentConfig) -> dict:
    spec = cfg.material["case"] or "cmp"
    mat = parse_material_1d(spec)
    ks = cfg.grid["k"]
    if len(ks) < 2:
        raise ConfigError("a convergence sweep needs at least two refinement levels")
    m = cfg.init["mode_m"]
    f_over = cfg.time["f"]
    jobs = cfg.init.get("jobs") or 1

    if mat["kind"] == "cmp":
        c = mat["c"]
        t_final = _resolve_final_1d(cfg.time["final"], m, c)
        if f_over is None:
            f_over = wave1d.refinement_exponent(c, 1.0, t_final)
        if jobs > 1:
            rows = _pool_sweep(
                _cmp_sweep_point, [(k, t_final, m, c, f_over, cfg.init["init"]) for k in ks], jobs
            )
        else:
            rows = wave1d.cmp_mode_errors(ks, t_final, m=m, c=c, f=f_over, init=cfg.init["init"])
        profile = _cmp_profile(max(ks), t_final, m, c, f_over, cfg.init["init"])
        name = f"cmp c={c:g}"
    else:
        if isinstance(cfg.time["final"], str) and not _is_float(cfg.time["final"]):
            raise ConfigError(
                "named final times apply to the cmp mode study; give a number "
                "for variable materials"
            )
        t_final = float(cfg.time["final"]) if cfg.time["final"] is not None else 2.0
        c = None
        rows, profiles = wave1d.vmp_refine_errors(
            ks, t_final, mat["rho"], mat["tau"], f=f_over
        )
        k_top = max(ks)
        grid_top = wave1d.Grid1D(a=0.0, b=1.0, nx=2**k_top + 1, t_final=1.0, nt=1)
        scaled = profiles[k_top]
        profile = list(
            zip(grid_top.primal_points(), scaled * grid_top.dx**2, scaled)
        )
        name = mat["name"]

    pair_orders, table = _order_table(ks, rows, lambda k: 2**k + 1)
    return {
        "kind": mat["kind"],
        "name": name,
        "t_final": t_final,
        "m": m,
        "c": c,
        "ks": ks,
        "rows": rows,
        "table": table,
        "pair_orders": pair_orders,
        "endpoint": endpoint_order(rows),
        "profile": profile,
    }


def _pool_sweep(point, args, jobs: int) -> list:
    """Rows of `point(a)` for each a, over `jobs` processes, in sweep order."""
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return [row for part in pool.map(point, args) for row in part]


def _order_table(ks, rows, points_of):
    """Pairwise orders and the (k, Nx, dx, Er, p) table of a sweep."""
    pair_orders = wave1d.estimate_order(rows)
    table = [
        (k, points_of(k), dx, er, pair_orders[i - 1] if i else "")
        for i, (k, (dx, er)) in enumerate(zip(ks, rows))
    ]
    return pair_orders, table


def _is_float(text) -> bool:
    try:
        float(text)
        return True
    except (TypeError, ValueError):
        return False


def _cmp_sweep_point(args):
    k, t_final, m, c, f, init = args
    return wave1d.cmp_mode_errors([k], t_final, m=m, c=c, f=f, init=init)


def _cmp_profile(k: int, t_final: float, m: int, c: float, f: int, init: str):
    grid = wave1d.Grid1D(a=0.0, b=1.0, nx=2**k + 1, t_final=t_final, nt=2 ** (k + f))
    state, _ = wave1d.run_cmp(grid, c, *wave1d.cmp_mode_start(grid, m, c, init), record_every=0)
    xp = grid.primal_points()
    er = state.u - wave1d.standing_mode_u(xp, t_final, m, c)
    return list(zip(xp, er, er / grid.dx**2))


_SMOOTH_1D = {"constant", "bump-p2-q2"}


def _run_wave1d_convergence(cfg: ExperimentConfig, art: ArtifactWriter) -> dict:
    sweep = _sweep_1d(cfg)
    art.table(sweep["table"])
    art.errors(sweep["profile"])

    checks = []
    p = sweep["endpoint"]
    if sweep["kind"] == "cmp":
        if _is_half_period_multiple(sweep["t_final"], sweep["m"], sweep["c"]):
            checks.append(
                _check("order-superconvergent", p, ">= 3.5 (half-period multiple)", p >= 3.5)
            )
        else:
            checks.append(
                _check("order-second", p, "in [1.9, 2.1] (generic final time)", 1.9 <= p <= 2.1)
            )
    else:
        checks.append(_check("order-floor", p, ">= 1.0", p >= 1.0))
        if sweep["name"] in _SMOOTH_1D:
            checks.append(_check("order-second", p, ">= 1.9 (smooth material)", p >= 1.9))

    return {
        "settings": {
            "case": sweep["name"],
            "t_final": sweep["t_final"],
            "mode_m": sweep["m"],
            "k": sweep["ks"],
        },
        "summary": {"errors": [er for _, er in sweep["rows"]]},
        "error_norms": {"finest_max_abs": sweep["rows"][-1][1]},
        "orders": {"pairwise": sweep["pair_orders"], "endpoint": p},
        "checks": checks,
    }


_ND_SWEEPS = {
    "wave2d-mode": wave2d.mode_errors_2d,
    "wave3d-cavity": wave3d.scalar_cavity_errors,
    "maxwell-cavity": wave3d.maxwell_cavity_errors,
}


def _run_convergence_table(cfg: ExperimentConfig, art: ArtifactWriter) -> dict:
    case = cfg.material["case"] or "cmp"
    ks = cfg.grid["k"]
    if len(ks) < 2:
        raise ConfigError("a convergence sweep needs at least two refinement levels")
    jobs = cfg.init.get("jobs") or 1

    if case in _ND_SWEEPS:
        t_final = (
            float(cfg.time["final"])
            if cfg.time["final"] is not None and _is_float(cfg.time["final"])
            else 0.35
        )
        sizes = [2**k for k in ks]
        if jobs > 1:
            rows = _pool_sweep(
                _nd_sweep_point, [(case, n, t_final, cfg.time["safety"]) for n in sizes], jobs
            )
        else:
            rows = _ND_SWEEPS[case](sizes, t_final=t_final, safety=cfg.time["safety"])
        pair_orders, table = _order_table(ks, rows, lambda k: 2**k)
        name = case
        endpoint = endpoint_order(rows)
    else:
        sweep = _sweep_1d(cfg)
        rows, table = sweep["rows"], sweep["table"]
        pair_orders, endpoint = sweep["pair_orders"], sweep["endpoint"]
        name, t_final = sweep["name"], sweep["t_final"]

    art.table(table)
    return {
        "settings": {"case": name, "t_final": t_final, "k": ks, "jobs": jobs},
        "summary": {"errors": [er for _, er in rows]},
        "error_norms": {"finest_max_abs": rows[-1][1]},
        "orders": {"pairwise": pair_orders, "endpoint": endpoint},
        "checks": [],
    }


def _nd_sweep_point(args):
    case, n, t_final, safety = args
    return _ND_SWEEPS[case]((n,), t_final=t_final, safety=safety)


# -- 2D and 3D experiments ---------------------------------------------------


def _run_wave2d(cfg: ExperimentConfig, art: ArtifactWriter) -> dict:
    nx = cfg.grid["nx"]
    ny = cfg.grid["ny"] if cfg.grid["ny"] is not None else nx
    grid = wave2d.Grid2(nx, ny)
    star = wave2d.Star2(cfg.material["a"], cfg.material["a11"], cfg.material["a22"])
    t_final = cfg.time["t_final"]
    nt = cfg.time["nt"]
    if nt is None:
        nt = max(1, math.ceil(t_final / wave2d.suggest_dt_2d(star, grid, cfg.time["safety"])))
    dt = t_final / nt

    m, n = cfg.init["mode_m"], cfg.init["mode_n"]
    u0, v0 = wave2d.mode_start_2d(grid, star, dt, m, n, cfg.init["init"])
    state, rec = wave2d.run_wave2d(grid, star, u0, v0, dt, nt, record_every=1)

    checks, summary = _invariant_series(
        art, [(s, s * dt, cn, ch) for s, cn, ch in rec], cfg.time["record_every"]
    )

    error_norms = {}
    if star == wave2d.Star2():
        want, _, _ = wave2d.exact_solution_2d(m, n, 1.0, *grid.points("fp"), t_final)
        error_norms["max_abs_u"] = float(np.max(np.abs(state.u - want)))
    return {
        "settings": {
            "nx": nx,
            "ny": ny,
            "nt": nt,
            "dt": dt,
            "t_final": t_final,
            "star": [star.a, star.a11, star.a22],
            "modes": [m, n],
        },
        "summary": summary,
        "error_norms": error_norms,
        "checks": checks,
    }


def _resolve_dt_3d(cfg, dt_max):
    """Explicit dt, or a t_final split into whole steps, or safety * bound.

    Rejects a record interval longer than the run, which would leave the
    series (and the drift checks) without a single row.
    """
    dt, t_final = cfg.time["dt"], cfg.time["t_final"]
    steps, every = cfg.time["steps"], cfg.time["record_every"]
    if dt is None and t_final is not None:
        steps = max(1, math.ceil(t_final / (cfg.time["safety"] * dt_max)))
        dt = t_final / steps
    elif dt is None:
        dt = cfg.time["safety"] * dt_max
    if every > steps:
        raise ConfigError(
            f"--record-every {every} is larger than the number of steps ({steps}, "
            "from --steps or --t-final); no step would be recorded"
        )
    return dt, steps


def _run_wave3d(cfg: ExperimentConfig, art: ArtifactWriter) -> dict:
    n = cfg.grid["grid"]
    grid = Grid3.cube(n, 1.0, boundary="pinned")
    star = parse_material_3d(cfg.material["materials"], "scalar")(grid)
    dt, steps = _resolve_dt_3d(cfg, wave3d.suggest_dt(star, grid))
    modes = tuple(cfg.init["modes"])

    s0 = wave3d.cavity_mode_s(grid, 0.0, modes)
    v0 = wave3d.scalar_wave_init_v(s0, zeros_field(grid, "dual-face"), star, grid, dt)
    state, rec = wave3d.run_scalar_wave(
        grid, star, s0, v0, dt, steps, record_every=cfg.time["record_every"]
    )
    checks, summary = _invariant_series(
        art, rec, cfg.time["record_every"], ("sq_f", "sq_gbar", "sq_AGf")
    )

    error_norms = {}
    if cfg.material["materials"] == "trivial3d" and cfg.time["t_final"] is not None:
        want = wave3d.cavity_mode_s(grid, cfg.time["t_final"], modes)
        error_norms["max_abs_s"] = float(np.max(np.abs(state.s - want)))
    return {
        "settings": {
            "grid": n,
            "materials": cfg.material["materials"],
            "dt": dt,
            "steps": steps,
            "modes": list(modes),
        },
        "summary": summary,
        "error_norms": error_norms,
        "checks": checks,
    }


def _run_maxwell(cfg: ExperimentConfig, art: ArtifactWriter) -> dict:
    n = cfg.grid["grid"]
    grid = Grid3.cube(n, 1.0, boundary="pinned")
    eps, mu = parse_material_3d(cfg.material["materials"], "maxwell")(grid)
    dt_max = wave3d.suggest_dt(eps, grid, system="maxwell", mu_star=mu)
    dt, steps = _resolve_dt_3d(cfg, dt_max)

    e0 = wave3d.te_cavity_e(grid, 0.0)
    h0 = wave3d.maxwell_init_h(e0, zeros_field(grid, "dual-edge"), eps, mu, grid, dt)
    state, rec = wave3d.run_maxwell(
        grid, eps, mu, e0, h0, dt, steps, record_every=cfg.time["record_every"]
    )
    checks, summary = _invariant_series(
        art, rec, cfg.time["record_every"], ("sq_f", "sq_gbar", "sq_AGf", "div_e", "div_h")
    )
    for label, idx in (("div_e", 7), ("div_h", 8)):
        series = [r[idx] for r in rec]
        dev = float(np.max(np.abs(np.asarray(series) - series[0])))
        dev /= max(abs(series[0]), 1.0)
        checks.append(
            _check(f"{label}-audit-constant", dev, "<= 1e-12 deviation", dev <= 1e-12)
        )
    return {
        "settings": {
            "grid": n,
            "materials": cfg.material["materials"],
            "dt": dt,
            "steps": steps,
        },
        "summary": {
            **summary,
            "div_e_initial": float(rec[0][7]),
            "div_h_initial": float(rec[0][8]),
        },
        "checks": checks,
    }


# -- transport and diffusion --------------------------------------------------


def _run_transport(cfg: ExperimentConfig, art: ArtifactWriter) -> dict:
    kind = cfg.init["velocity"]
    steps = cfg.time["steps"]
    courant = cfg.time["courant"]
    if courant is None:
        courant = 1.0 if kind == "constant" else 0.9

    if kind == "constant":
        n = cfg.grid["n"] if cfg.grid["n"] is not None else 64
        if n < 20:
            raise ConfigError("the square-wave profile needs at least 20 cells")
        dx = 1.0 / n
        speed = cfg.init["speed"]
        v = np.full(n + 1, speed)
        rho0 = np.zeros(n)
        rho0[10:20] = 1.0
    else:
        n = cfg.grid["n"] if cfg.grid["n"] is not None else 100
        dx = 2.0 / n
        x_face = -1.0 + dx * np.arange(n + 1)
        x_cell = -1.0 + dx * (np.arange(n) + 0.5)
        sign = -1.0 if kind == "collapse" else +1.0
        v = sign * x_face
        rho0 = np.where(np.abs(x_cell) < 0.5, 1.0, 0.0)

    # worst per-cell outflow coefficient sets the stable dt (a cell can
    # drain through both faces at once)
    coeff = float(np.max(np.maximum(v[1:], 0.0) - np.minimum(v[:-1], 0.0)))
    if coeff <= 0:
        raise ConfigError("velocity field never leaves any cell; nothing to march")
    dt = courant * dx / coeff

    state = positivity.TransportState(rho=rho0, v=v, dx=dx, dt=dt)
    mass0 = state.mass
    state, rec = positivity.run_transport(state, steps, record_every=1)

    every = cfg.time["record_every"]
    rows = [(s, s * dt, mass, mn) for s, mass, mn in rec if every and s % every == 0]
    art.series(["step", "t", "mass", "min_rho"], rows)

    drift = max(abs(mass - mass0) for _, mass, _ in rec) / mass0
    worst_min = min(mn for _, _, mn in rec)
    checks = [
        _check("mass-audit", drift, "<= 1e-13 relative", drift <= 1e-13),
        _check(
            "min-density",
            worst_min,
            ">= -1e-16 of peak",
            worst_min >= -1e-16 * float(np.max(rho0)),
        ),
        _check("guard-held", float(state.guaranteed), "guard holds all steps", state.guaranteed),
    ]
    if kind == "constant" and courant == 1.0:
        shift = steps if cfg.init["speed"] > 0 else -steps
        want = np.zeros(n)
        lo, hi = max(10 + shift, 0), max(min(20 + shift, n), 0)
        want[lo:hi] = 1.0
        exact = bool(np.array_equal(state.rho, want))
        dev = float(np.max(np.abs(state.rho - want)))
        checks.append(_check("unit-courant-bit-exact", dev, "bitwise index shift", exact))

    return {
        "settings": {
            "velocity": kind,
            "n": n,
            "dx": dx,
            "dt": dt,
            "courant": courant,
            "steps": steps,
        },
        "summary": {
            "mass_initial": float(mass0),
            "mass_final": float(state.mass),
            "escaped": float(state.escaped),
            "guaranteed": bool(state.guaranteed),
        },
        "checks": checks,
    }


def _run_diffusion(cfg: ExperimentConfig, art: ArtifactWriter) -> dict:
    n = cfg.grid["n"] if cfg.grid["n"] is not None else 101
    steps = cfg.time["steps"]
    dx = 1.0 / n
    d = np.full(n + 1, cfg.init["diffusivity"])
    dt = cfg.time["courant"] * dx * dx / float(np.max(d))

    rho = np.zeros(n)
    rho[n // 2] = 1.0
    mass0 = float(np.sum(rho) * dx)
    guard_ok = positivity.positivity_guard(d=d, dt=dt, dx=dx)

    rows = []
    worst_drift, worst_min = 0.0, 0.0
    for step in range(1, steps + 1):
        rho = positivity.diffusion_step(rho, d, dx, dt)
        mass = float(np.sum(rho) * dx)
        mn = float(np.min(rho))
        worst_drift = max(worst_drift, abs(mass - mass0) / mass0)
        worst_min = min(worst_min, mn)
        if cfg.time["record_every"] and step % cfg.time["record_every"] == 0:
            rows.append((step, step * dt, mass, mn))
    art.series(["step", "t", "mass", "min_rho"], rows)

    checks = [
        _check("mass-conserved", worst_drift, "<= 1e-13 relative", worst_drift <= 1e-13),
        _check("min-density", worst_min, ">= -1e-16 of peak", worst_min >= -1e-16),
        _check("guard-satisfied", float(guard_ok), "flux-pair condition", guard_ok),
    ]
    return {
        "settings": {
            "n": n,
            "dx": dx,
            "dt": dt,
            "diffusivity": cfg.init["diffusivity"],
            "steps": steps,
        },
        "summary": {"mass_initial": mass0, "mass_final": float(np.sum(rho) * dx)},
        "checks": checks,
    }


_RUNNERS = {
    "oscillator": _run_oscillator,
    "system": _run_system,
    "wave1d": _run_wave1d,
    "wave1d-convergence": _run_wave1d_convergence,
    "wave2d": _run_wave2d,
    "wave3d": _run_wave3d,
    "maxwell": _run_maxwell,
    "transport": _run_transport,
    "diffusion": _run_diffusion,
    "convergence-table": _run_convergence_table,
}


def run(config: ExperimentConfig) -> RunReport:
    """Execute one experiment and write its artifacts; returns the report."""
    if config.command not in _RUNNERS:
        raise ConfigError(f"unknown command {config.command!r}")
    t0 = time.perf_counter()
    outdir = resolve_outdir(config.output)
    prefix = config.output.get("prefix") or config.command.replace("-", "_")
    art = ArtifactWriter(outdir, prefix)
    body = _RUNNERS[config.command](config, art)
    passed = all(c["passed"] for c in body["checks"]) if config.checks_enabled else True
    report = RunReport(
        command=config.command,
        settings=body["settings"],
        seed=config.seed,
        artifacts={},
        summary=body["summary"],
        error_norms=body.get("error_norms", {}),
        orders=body.get("orders", {}),
        checks=body["checks"],
        passed=passed,
        wall_time_s=time.perf_counter() - t0,
    )
    art.report(report)
    return report


def convergence_table(config: ExperimentConfig) -> RunReport:
    """`run` specialized to the convergence-table command (same report)."""
    return run(replace(config, command="convergence-table"))


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _rand_field(grid: Grid3, kind: str, rng):
    if kind in mimetic3d.SCALAR_KINDS:
        return rng.standard_normal(grid.scalar_shape(kind))
    return mimetic3d.VectorField3(
        *(rng.standard_normal(s) for s in grid.vector_shapes(kind))
    )


def _max_abs(field) -> float:
    return max(float(np.max(np.abs(c))) for c in getattr(field, "components", (field,)))


# (check name, input kind, first operator, second operator): chains that vanish
_EXACT_CHAINS = (
    ("curl-grad", "node", "grad3", "curl3"),
    ("div-curl", "edge", "curl3", "div3"),
    ("star-curl-grad", "dual-node", "grad3_star", "curl3_star"),
    ("star-div-curl", "dual-edge", "curl3_star", "div3_star"),
)


def _exactness_checks(n: int, seed: int) -> list:
    """Both double-application chains vanish to roundoff on random fields."""
    checks = []
    rng = np.random.default_rng(seed)
    for boundary in ("periodic", "pinned"):
        g = Grid3.cube(n, 1.0, boundary=boundary)
        for name, kind, first, second in _EXACT_CHAINS:
            x = _rand_field(g, kind, rng)
            bound = 1e-13 * _max_abs(x) / g.dx
            res = _max_abs(getattr(mimetic3d, second)(getattr(mimetic3d, first)(x, g), g))
            checks.append(
                _check(f"{name}-zero-{boundary}-{n}", res, f"<= {bound:.3e}", res <= bound)
            )
    return checks


def _round_trip_checks(n: int, seed: int) -> list:
    """Scalar and diagonal star maps invert to a few ulps."""
    checks = []
    rng = np.random.default_rng(seed)
    g = Grid3.cube(n, 1.0, boundary="pinned")
    star = Star3.from_scalars(g, 2.0, 1.5, 3.0, 2.5)
    f = rng.standard_normal(g.scalar_shape("node"))
    back = mimetic3d.star_scalar_inverse(
        mimetic3d.star_scalar(f, star, "node-to-dual-cell"), star, "node-to-dual-cell"
    )
    res = float(np.max(np.abs(back - f))) / float(np.max(np.abs(f)))
    checks.append(_check(f"round-trip-scalar-{n}", res, "<= 1e-15 relative", res <= 1e-15))

    star_d = Star3.from_diagonals(g, 1.5, 2.0, (2.0, 3.0, 4.0), (1.5, 2.5, 3.5))
    t = _rand_field(g, "edge", rng)
    fwd = mimetic3d.star_matrix(t, star_d, which="a")
    back_v = mimetic3d.star_matrix(fwd, star_d, which="a", inverse=True)
    res = max(
        float(np.max(np.abs(b - a)))
        for a, b in zip(t.components, back_v.components)
    ) / _max_abs(t)
    checks.append(_check(f"round-trip-diagonal-{n}", res, "<= 1e-15 relative", res <= 1e-15))
    return checks


_TRIG_S = lambda x, y, z: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y) * np.sin(2 * np.pi * z)
_TRIG_GRAD = (
    lambda x, y, z: 2 * np.pi * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y) * np.sin(2 * np.pi * z),
    lambda x, y, z: 2 * np.pi * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) * np.sin(2 * np.pi * z),
    lambda x, y, z: 2 * np.pi * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y) * np.cos(2 * np.pi * z),
)
_TRIG_T = (
    lambda x, y, z: np.sin(2 * np.pi * y) * np.sin(2 * np.pi * z),
    lambda x, y, z: np.sin(2 * np.pi * z) * np.sin(2 * np.pi * x),
    lambda x, y, z: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y),
)
_TRIG_CURL = (
    lambda x, y, z: 2 * np.pi * np.sin(2 * np.pi * x) * (np.cos(2 * np.pi * y) - np.cos(2 * np.pi * z)),
    lambda x, y, z: 2 * np.pi * np.sin(2 * np.pi * y) * (np.cos(2 * np.pi * z) - np.cos(2 * np.pi * x)),
    lambda x, y, z: 2 * np.pi * np.sin(2 * np.pi * z) * (np.cos(2 * np.pi * x) - np.cos(2 * np.pi * y)),
)
_TRIG_N = (
    lambda x, y, z: np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y),
    lambda x, y, z: np.sin(2 * np.pi * y) * np.cos(2 * np.pi * z),
    lambda x, y, z: np.sin(2 * np.pi * z) * np.cos(2 * np.pi * x),
)
_TRIG_DIV = lambda x, y, z: 2 * np.pi * (
    np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
    + np.cos(2 * np.pi * y) * np.cos(2 * np.pi * z)
    + np.cos(2 * np.pi * z) * np.cos(2 * np.pi * x)
)

_ORDER_CASES = {
    "grad3": (mimetic3d.grad3, "node", _TRIG_S, "edge", _TRIG_GRAD),
    "curl3": (mimetic3d.curl3, "edge", _TRIG_T, "face", _TRIG_CURL),
    "div3": (mimetic3d.div3, "face", _TRIG_N, "cell", _TRIG_DIV),
    "grad3_star": (mimetic3d.grad3_star, "dual-node", _TRIG_S, "dual-edge", _TRIG_GRAD),
    "curl3_star": (mimetic3d.curl3_star, "dual-edge", _TRIG_T, "dual-face", _TRIG_CURL),
    "div3_star": (mimetic3d.div3_star, "dual-face", _TRIG_N, "dual-cell", _TRIG_DIV),
}


def _op_error(op, in_kind, in_fns, out_kind, out_fns, n: int) -> float:
    g = Grid3.cube(n, 1.0, boundary="periodic")
    if isinstance(in_fns, tuple):
        arg = sample_vector(g, in_kind, in_fns)
    else:
        arg = sample_scalar(g, in_kind, in_fns)
    got = op(arg, g)
    if isinstance(out_fns, tuple):
        want = sample_vector(g, out_kind, out_fns)
        return max(
            float(np.max(np.abs(a - b)))
            for a, b in zip(got.components, want.components)
        )
    return float(np.max(np.abs(got - sample_scalar(g, out_kind, out_fns))))


def _order_checks(sizes) -> list:
    checks = []
    lo, hi = min(sizes), 2 * min(sizes)
    for name, case in _ORDER_CASES.items():
        e_lo = _op_error(*case, lo)
        e_hi = _op_error(*case, hi)
        ratio = e_lo / e_hi
        checks.append(
            _check(f"order-{name}", ratio, "in [3.5, 4.5] per halving", 3.5 <= ratio <= 4.5)
        )
    return checks


def _verify_mimetic3d(sizes, trials, seed, broken_sign) -> list:
    checks = []
    for n in sizes:
        checks.extend(_exactness_checks(int(n), seed))
        checks.extend(_round_trip_checks(int(n), seed))
    checks.extend(_order_checks([int(n) for n in sizes]))
    return checks


def _verify_adjoint(sizes, trials, seed, broken_sign) -> list:
    """Adjointness residuals for trivial and variable materials."""
    two_pi = 2 * np.pi

    def smooth(lo, amp, freq=1):
        return lambda x, y, z: lo + amp * (
            1 + np.sin(freq * two_pi * x) * np.cos(freq * two_pi * y) * np.cos(freq * two_pi * z)
        ) / 2

    stars = {
        "trivial": lambda g: Star3.trivial(g),
        "variable-scalar": lambda g: Star3.from_scalars(
            g, smooth(1.0, 1.0), smooth(0.5, 1.0), smooth(2.0, 1.0), smooth(1.5, 0.5)
        ),
        "variable-diagonal": lambda g: Star3.from_diagonals(
            g,
            smooth(1.0, 0.5),
            smooth(1.0, 1.0),
            (smooth(2.0, 1.0), smooth(3.0, 0.5), smooth(1.0, 0.25)),
            (smooth(1.5, 0.5), smooth(2.5, 1.0), smooth(0.5, 0.25)),
        ),
    }
    if broken_sign:
        stars = {"trivial-broken-sign": stars["trivial"]}

    checks = []
    for n in sizes:
        g = Grid3.cube(int(n), 1.0, boundary="pinned")
        for name, make in stars.items():
            res = mimetic3d.check_discrete_adjoints(
                make(g), g, trials=trials, seed=seed, broken_sign=broken_sign
            )
            checks.append(
                _check(f"adjoint-{name}-{n}", res["max"], "<= 1e-12", res["max"] <= 1e-12)
            )
    return checks


def _verify_wave1d_sbp(sizes, trials, seed, broken_sign) -> list:
    """1D summation-by-parts adjointness on random grids and materials."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        nx = int(rng.integers(5, 40))
        dx = float(rng.uniform(0.01, 1.0))
        g = wave1d.Grid1D(a=0.0, b=dx * (nx - 1), nx=nx, t_final=1.0, nt=1)
        mats = wave1d.Materials1D(
            rho=rng.uniform(0.5, 2.0, nx), tau=rng.uniform(0.5, 2.0, nx - 1)
        )
        u = rng.standard_normal(nx)
        u[0] = u[-1] = 0.0
        v = rng.standard_normal(nx - 1)
        ops, inner_X, inner_Y = wave1d.vmp_system(mats, g)
        lhs = inner_Y(ops.apply_A(u), v)
        rhs = inner_X(u, ops.apply_Astar(v))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    checks = [_check("sbp-random-trials", worst, "<= 1e-13 relative", worst <= 1e-13)]

    g = wave1d.Grid1D(a=0.0, b=1.0, nx=33, t_final=1.0, nt=1)
    mats = wave1d.Materials1D.from_profiles(
        g, wave1d.bump_profile(2), wave1d.piecewise_linear_profile()
    )
    ops, inner_X, inner_Y = wave1d.vmp_system(mats, g)

    def sample_u(r):
        u = r.standard_normal(g.nx)
        u[0] = u[-1] = 0.0
        return u

    res = check_adjointness(
        ops,
        inner_X,
        inner_Y,
        trials=max(trials // 5, 1),
        sample_X=sample_u,
        sample_Y=lambda r: r.standard_normal(g.nx - 1),
        seed=seed,
    )
    checks.append(_check("sbp-generic-checker", res, "<= 1e-13", res <= 1e-13))
    return checks


_SUITES = {
    "mimetic3d": _verify_mimetic3d,
    "adjoint": _verify_adjoint,
    "wave1d-sbp": _verify_wave1d_sbp,
}


def verify(suite: str, *, sizes=(8, 16), trials: int = 100, seed: int = 0,
           broken_sign: bool = False) -> dict:
    """Run a named verification suite; returns a machine-readable summary."""
    if suite == "all":
        names = list(_SUITES)
    elif suite in _SUITES:
        names = [suite]
    else:
        raise ConfigError(
            f"unknown verify suite {suite!r}; use one of {sorted(_SUITES) + ['all']}"
        )
    checks = []
    for name in names:
        checks.extend(_SUITES[name](sizes, trials, seed, broken_sign))
    return {
        "suite": suite,
        "sizes": [int(s) for s in sizes],
        "trials": trials,
        "seed": seed,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_CONFIG_EPILOG = (
    "Config file keys (any section of the INI file given with --config) match "
    "these long flag names, dashes or underscores; explicit flags win.  "
    "--schema prints the same information as JSON."
)


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", metavar="FILE", help="flat key/value INI config file")
    sub.add_argument("--outdir", help="artifact directory (default: $STAGWAVE_OUTDIR or .)")
    sub.add_argument("--prefix", help="artifact file prefix (default: the command name)")
    sub.add_argument("--seed", type=int, default=0, help="seed for random-field checks")
    sub.add_argument(
        "--no-checks",
        action="store_true",
        help="record checks but never fail the exit code on them",
    )
    sub.add_argument(
        "--schema", action="store_true", help="print the option schema as JSON and exit"
    )


def _add_record_every(sub):
    sub.add_argument(
        "--record-every",
        type=positive_int,
        default=1,
        metavar="N",
        help="keep every N-th step in the series CSV",
    )


def build_parser():
    """The full parser tree; returns (parser, {command: subparser})."""
    parser = argparse.ArgumentParser(
        prog="stagwave",
        description="Staggered-grid leapfrog wave experiments with conserved-quantity audits.",
    )
    subs = parser.add_subparsers(dest="command", required=True, metavar="command")
    tree = {}

    def command(name, help_text):
        sub = subs.add_parser(name, help=help_text, description=help_text, epilog=_CONFIG_EPILOG)
        _add_common(sub)
        tree[name] = sub
        return sub

    p = command("oscillator", "Leapfrog harmonic oscillator with both invariants audited.")
    p.add_argument("--omega", type=positive_float, default=1.0, help="angular frequency")
    p.add_argument("--dt", type=positive_float, default=0.01, help="time step")
    p.add_argument("--steps", type=positive_int, default=10_000, help="number of steps")
    p.add_argument("--u0", type=float, default=1.0, help="initial displacement")
    p.add_argument("--v0", type=float, default=0.0, help="initial velocity")
    p.add_argument(
        "--exact-init",
        action="store_true",
        help="seed v(dt/2) from the closed form instead of the Taylor half step",
    )
    _add_record_every(p)

    p = command("system", "Generic adjoint-pair leapfrog on a named operator preset.")
    p.add_argument(
        "--preset", choices=("oscillator", "cmp"), default="oscillator",
        help="operator pair to integrate",
    )
    p.add_argument("--omega", type=positive_float, default=1.0, help="oscillator frequency")
    p.add_argument("--u0", type=float, default=1.0, help="oscillator initial displacement")
    p.add_argument("--v0", type=float, default=0.0, help="oscillator initial velocity")
    p.add_argument("--c", type=positive_float, default=1.0, help="cmp wave speed")
    p.add_argument("--nx", type=positive_int, default=65, help="cmp grid points")
    p.add_argument("--mode-m", type=positive_int, default=1, help="cmp starting mode")
    p.add_argument("--dt", type=positive_float, default=None, help="time step (default per preset)")
    p.add_argument("--safety", type=positive_float, default=0.95, help="fraction of the cmp CFL bound")
    p.add_argument("--steps", type=positive_int, default=1000, help="number of steps")
    _add_record_every(p)

    p = command("wave1d", "1D staggered wave march with conserved-quantity audits.")
    p.add_argument("--case", choices=("cmp", "vmp"), default="cmp", help="constant or variable materials")
    p.add_argument(
        "--material",
        help="material spec ('cmp c=1.0', a preset name, 'bump 2 2', "
        "'piecewise-linear .25 .75 1 2', 'jump down tau', ...)",
    )
    p.add_argument("--nx", type=positive_int, default=65, help="primal grid points")
    p.add_argument("--t-final", type=positive_float, default=1.0, help="final time")
    p.add_argument("--nt", type=positive_int, default=None, help="steps (default from --safety)")
    p.add_argument("--safety", type=positive_float, default=0.95, help="fraction of the CFL bound")
    p.add_argument("--mode-m", type=positive_int, default=1, help="starting mode number")
    p.add_argument(
        "--init", choices=("exact", "taylor"), default=None,
        help="cmp half-step start for v (default: taylor; vmp always starts from taylor)",
    )
    _add_record_every(p)

    p = command(
        "wave1d-convergence",
        "Grid-halving order study for the 1D march, with order checks.",
    )
    p.add_argument(
        "--case", default="cmp",
        help="'cmp [c=...]' for the mode study or a material spec for refine-compare",
    )
    p.add_argument("--k", type=k_range, default="4..8", help="refinement levels, e.g. 4..8")
    p.add_argument(
        "--final", default=None,
        help="final time: a number, 'full-period' (7/8 of the period) or 'half-period'",
    )
    p.add_argument("--mode-m", type=positive_int, default=1, help="mode number (cmp case)")
    p.add_argument("--f", type=positive_int, default=None, help="extra time-refinement exponent")
    p.add_argument(
        "--init", choices=("exact", "taylor"), default="exact", help="cmp half-step start"
    )

    p = command("wave2d", "2D staggered wave march with conserved-quantity audits.")
    p.add_argument("--nx", type=positive_int, default=32, help="cells along x")
    p.add_argument("--ny", type=positive_int, default=None, help="cells along y (default nx)")
    p.add_argument("--a", type=positive_float, default=1.0, help="scalar material weight")
    p.add_argument("--a11", type=positive_float, default=1.0, help="vector weight, x component")
    p.add_argument("--a22", type=positive_float, default=1.0, help="vector weight, y component")
    p.add_argument("--t-final", type=positive_float, default=0.35, help="final time")
    p.add_argument("--nt", type=positive_int, default=None, help="steps (default from --safety)")
    p.add_argument("--safety", type=positive_float, default=0.9, help="fraction of the CFL bound")
    p.add_argument("--mode-m", type=positive_int, default=1, help="x mode number")
    p.add_argument("--mode-n", type=positive_int, default=1, help="y mode number")
    p.add_argument(
        "--init", choices=("exact", "taylor"), default="taylor", help="half-step start for v"
    )
    _add_record_every(p)

    p = command("wave3d", "3D scalar cavity march with conserved-quantity audits.")
    p.add_argument("--grid", type=positive_int, default=16, help="cells per side")
    p.add_argument(
        "--materials", default="trivial3d",
        help="material preset: trivial3d, scalar3d, or diag3d",
    )
    p.add_argument("--steps", type=positive_int, default=500, help="number of steps")
    p.add_argument("--safety", type=positive_float, default=0.9, help="fraction of the CFL bound")
    p.add_argument("--dt", type=positive_float, default=None, help="explicit time step")
    p.add_argument(
        "--t-final", type=positive_float, default=None,
        help="march to this time instead of --steps (also enables the mode error norm)",
    )
    p.add_argument(
        "--modes", type=positive_int, nargs=3, default=[1, 1, 1], metavar=("MX", "MY", "MZ"),
        help="cavity mode numbers",
    )
    _add_record_every(p)

    p = command("maxwell", "TE cavity march with invariants and divergence audits.")
    p.add_argument("--grid", type=positive_int, default=16, help="cells per side")
    p.add_argument(
        "--materials", default="trivial3d",
        help="material preset: trivial3d, scalar3d, or diag3d",
    )
    p.add_argument("--steps", type=positive_int, default=500, help="number of steps")
    p.add_argument("--safety", type=positive_float, default=0.9, help="fraction of the CFL bound")
    p.add_argument("--dt", type=positive_float, default=None, help="explicit time step")
    p.add_argument("--t-final", type=positive_float, default=None, help="march to this time instead of --steps")
    _add_record_every(p)

    p = command("transport", "Upwind advection with the mass audit and positivity guard.")
    p.add_argument(
        "--velocity", choices=("constant", "collapse", "expand"), default="constant",
        help="face velocity field: constant speed, v = -x, or v = +x",
    )
    p.add_argument("--speed", type=positive_float, default=2.0, help="constant-velocity speed")
    p.add_argument("--n", type=positive_int, default=None, help="cells (default 64 constant / 100 radial)")
    p.add_argument("--steps", type=positive_int, default=1000, help="number of steps")
    p.add_argument(
        "--courant", type=positive_float, default=None,
        help="fraction of the per-cell outflow bound (default 1.0 constant / 0.9 radial)",
    )
    _add_record_every(p)

    p = command("diffusion", "Explicit diffusion of a spike under the flux-pair guard.")
    p.add_argument("--n", type=positive_int, default=None, help="cells (default 101)")
    p.add_argument("--steps", type=positive_int, default=1000, help="number of steps")
    p.add_argument("--diffusivity", type=positive_float, default=1.0, help="constant face diffusivity")
    p.add_argument(
        "--courant", type=positive_float, default=0.5,
        help="dt as a multiple of dx^2/max(d); 0.5 is the guard edge",
    )
    _add_record_every(p)

    p = command("verify", "Exactness / adjointness / round-trip / order suites.")
    p.add_argument(
        "suite", nargs="?", default=None,
        help="one of mimetic3d, adjoint, wave1d-sbp, all",
    )
    p.add_argument(
        "--sizes", type=positive_int, nargs="+", default=[8, 16], help="grid sizes per side"
    )
    p.add_argument("--trials", type=positive_int, default=100, help="random trials")
    p.add_argument(
        "--broken-sign", action="store_true",
        help="flip a sign in the adjoint identity; the suite must then fail",
    )

    p = command("convergence-table", "Convergence-table CSV (k, Nx, dx, Er, p) for a named case.")
    p.add_argument(
        "--case", default="cmp",
        help="'cmp [c=...]', a 1D material spec, wave2d-mode, wave3d-cavity, or maxwell-cavity",
    )
    p.add_argument("--k", type=k_range, default="4..8", help="refinement levels, e.g. 4..8")
    p.add_argument("--final", default=None, help="final time (number or named; case-dependent default)")
    p.add_argument("--mode-m", type=positive_int, default=1, help="mode number (1D cmp case)")
    p.add_argument("--f", type=positive_int, default=None, help="extra time-refinement exponent")
    p.add_argument(
        "--init", choices=("exact", "taylor"), default="exact", help="cmp half-step start"
    )
    p.add_argument("--safety", type=positive_float, default=0.9, help="CFL fraction (2D/3D cases)")
    p.add_argument("--jobs", type=positive_int, default=1, help="parallel sweep processes")

    return parser, tree


# -- config files, schema, and the entry point --------------------------------


def _load_config(path: str) -> dict:
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"bad config file {path}: {exc}") from exc
    merged: dict[str, str] = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            key = key.strip().replace("-", "_")
            if key in merged:
                raise ConfigError(f"config key {key!r} appears in more than one section")
            merged[key] = value
    return merged


_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


def _apply_config(sub: argparse.ArgumentParser, values: dict, command: str):
    actions = {a.dest: a for a in sub._actions if a.dest != "help"}
    defaults = {}
    for key, raw in values.items():
        action = actions.get(key)
        if action is None or key in ("config", "schema"):
            raise ConfigError(
                f"unknown config key {key!r} for command {command!r} "
                f"(see `stagwave {command} --schema`)"
            )
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            word = raw.strip().lower()
            if word in _TRUE_WORDS:
                defaults[key] = isinstance(action, argparse._StoreTrueAction)
            elif word in _FALSE_WORDS:
                defaults[key] = not isinstance(action, argparse._StoreTrueAction)
            else:
                raise ConfigError(f"config key {key!r} wants a boolean, got {raw!r}")
        elif action.nargs in ("+", "*") or isinstance(action.nargs, int):
            tokens = [tok for tok in re.split(r"[ ,]+", raw.strip()) if tok]
            convert = action.type or str
            try:
                defaults[key] = [convert(tok) for tok in tokens]
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
        else:
            # leave the string for argparse, which applies the option's type
            # (and reports a usage error, exit 2) exactly as it would a flag
            defaults[key] = raw
    sub.set_defaults(**defaults)


_BUCKETS = {
    "grid": {"nx", "ny", "n", "grid", "k", "sizes"},
    "material": {"material", "materials", "case", "preset", "a", "a11", "a22"},
    "time": {
        "dt", "steps", "nt", "t_final", "safety", "final", "f", "courant", "record_every",
    },
    "init": {
        "omega", "u0", "v0", "exact_init", "mode_m", "mode_n", "modes", "init",
        "velocity", "speed", "diffusivity", "c", "trials", "broken_sign", "suite", "jobs",
    },
    "output": {"outdir", "prefix"},
}
_META = {"command", "config", "schema", "seed", "no_checks"}


def _to_config(ns: argparse.Namespace) -> ExperimentConfig:
    buckets: dict[str, dict] = {name: {} for name in _BUCKETS}
    for dest, value in vars(ns).items():
        if dest in _META:
            continue
        for name, members in _BUCKETS.items():
            if dest in members:
                buckets[name][dest] = value
                break
        else:
            raise RuntimeError(f"option {dest!r} is not routed to a config bucket")
    return ExperimentConfig(
        command=ns.command,
        grid=buckets["grid"],
        material=buckets["material"],
        time=buckets["time"],
        init=buckets["init"],
        output=buckets["output"],
        seed=ns.seed,
        checks_enabled=not ns.no_checks,
    )


def _schema_dump(sub: argparse.ArgumentParser, command: str) -> dict:
    options = []
    for action in sub._actions:
        if action.dest == "help":
            continue
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            type_name = "flag"
        elif action.type is None:
            type_name = "str"
        else:
            type_name = getattr(action.type, "__name__", str(action.type))
        entry = {
            "name": action.dest,
            "flags": list(action.option_strings) or [action.dest],
            "type": type_name,
            "default": action.default,
            "help": action.help or "",
        }
        if action.choices is not None:
            entry["choices"] = list(action.choices)
        if action.nargs not in (None, 0):
            entry["nargs"] = action.nargs
        options.append(entry)
    return {"command": command, "options": options}


def _print_report(report: RunReport):
    for check in report.checks:
        verdict = "PASS" if check["passed"] else "FAIL"
        measured = check["measured"]
        shown = f"{measured:.6e}" if isinstance(measured, float) else str(measured)
        print(f"[{verdict}] {check['name']}: measured {shown} (bound {check['bound']})")
    for key in ("series_csv", "errors_csv", "table_csv", "report_json"):
        if report.artifacts.get(key):
            print(f"{key.rsplit('_', 1)[0]}: {report.artifacts[key]}")


def main(argv=None) -> int:
    """Entry point; returns the exit code (0 pass, 1 failed check, 2 usage)."""
    parser, tree = build_parser()
    try:
        first = parser.parse_known_args(argv)[0]
        if getattr(first, "config", None):
            _apply_config(tree[first.command], _load_config(first.config), first.command)
            ns = parser.parse_args(argv)
        else:
            ns = first

        if getattr(ns, "schema", False):
            print(json.dumps(_schema_dump(tree[ns.command], ns.command), indent=2, default=str))
            return 0

        if ns.command == "verify":
            if ns.suite is None:
                raise ConfigError("verify needs a suite name (or a config file giving one)")
            summary = verify(
                ns.suite,
                sizes=ns.sizes,
                trials=ns.trials,
                seed=ns.seed,
                broken_sign=ns.broken_sign,
            )
            outdir = ns.outdir or os.environ.get("STAGWAVE_OUTDIR")
            if outdir:
                path = Path(outdir)
                path.mkdir(parents=True, exist_ok=True)
                name = f"{ns.prefix or 'verify'}_{ns.suite.replace('-', '_')}.json"
                (path / name).write_text(
                    json.dumps(summary, indent=2, sort_keys=True) + "\n"
                )
            print(json.dumps(summary, indent=2, sort_keys=True))
            if ns.no_checks:
                return 0
            return 0 if summary["passed"] else 1

        report = run(_to_config(ns))
        _print_report(report)
        return 0 if report.passed else 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
