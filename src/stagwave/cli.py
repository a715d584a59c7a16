"""Experiment runner: every solver and verifier in the package as a subcommand.

``stagwave <command> [flags]`` assembles the experiment described by the
flags, marches it, writes the artifacts, prints one PASS/FAIL line per
enabled check, and exits 0 only if every check passed (1 on a failed check,
2 on a usage or config error).

Commands
--------
oscillator, system, wave1d, wave1d-convergence, wave2d, wave3d, maxwell,
transport, diffusion, verify, convergence-table.

One table, ``COMMANDS``, declares every command: its help text, its runner
and its options, each option once as ``(flag, argparse keyword arguments)``.
The parser, the ``--schema`` dump and the config-file keys all come from that
table, and runners read the parsed options as flat attributes (``cfg.dt``).

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
must match the command's long flag names, with dashes or underscores.  Each
value becomes command-line tokens placed before the given flags, so it is
checked exactly like a flag (type, choices, ranges) and explicit flags still
win.  Every command prints its flag set with ``--help`` and dumps a
machine-readable version with ``--schema``.

Usage errors
------------
Exit 2 covers unknown flags or keys, values of the wrong type or outside an
option's choices, grid sizes below what the grid constructors accept (the
``verify`` suites' ``--sizes`` too), 1D materials that sample non-positive,
non-positive or unparseable ``--final`` times, times whose CFL step count is
not finite, ``wave2d`` stars with no finite positive CFL time step, and
contradictory flags such as ``--dt`` with ``--t-final`` for
``wave3d``/``maxwell``.

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
import functools
import json
import math
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import mimetic3d, oscillator, positivity, wave1d, wave2d, wave3d
from .core import OperatorPair, check_adjointness, run_system
from .mimetic3d import Grid3, Star3, sample_scalar, sample_vector, zeros_field

__all__ = [
    "COMMANDS",
    "ConfigError",
    "RunReport",
    "parse_material_1d",
    "parse_material_3d",
    "run",
    "verify",
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


# cell types csv.writer formats as _cell does (repr for a float, str for an int)
_PLAIN_CELLS = frozenset({float, int, str})


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
                if not _PLAIN_CELLS.issuperset(map(type, row)):
                    row = [_cell(v) for v in row]
                writer.writerow(row)
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


def resolve_outdir(explicit) -> Path:
    if explicit:
        return Path(explicit)
    env = os.environ.get("STAGWAVE_OUTDIR")
    if env:
        return Path(env)
    return Path(".")


def _grid(flag: str, make, *args, **kwargs):
    """`make(*args, **kwargs)`, with the ValueError of a grid or material
    constructor (a size or time below its minimum, a material sampled
    non-positive) turned into a usage error naming `flag`."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def _finite_steps(flag: str, march, *args, **kwargs):
    """`march(*args, **kwargs)`, with the OverflowError of a CFL step count
    too large to be finite (`math.ceil(inf)`, or `2**f` past the float range)
    turned into a usage error naming `flag`."""
    try:
        return march(*args, **kwargs)
    except OverflowError:
        raise ConfigError(f"{flag}: the CFL step count is not finite") from None


# The most steps a CFL-derived step count may ask of one march.  A larger
# count comes from a final time (or a speed) far past anything a run can
# reach: the smallest 1D march takes about 10 us a step, so 1e8 steps already
# take a quarter of an hour, and `wave1d --t-final 1e300` would need 1e302.
MAX_CFL_STEPS = 10**8


def _cfl_steps(flag: str, count, *args) -> int:
    """The step count `count(*args)`, checked before any march: a usage error
    naming `flag` when it is not finite or above MAX_CFL_STEPS."""
    steps = _finite_steps(flag, count, *args)
    if steps > MAX_CFL_STEPS:
        raise ConfigError(
            f"{flag}: the CFL step count is above the cap of {MAX_CFL_STEPS:,} steps"
        )
    return steps


# ---------------------------------------------------------------------------
# runners (one per experiment subcommand); `cfg` is the parsed namespace
# ---------------------------------------------------------------------------


def _run_oscillator(cfg, art: ArtifactWriter) -> dict:
    omega, dt, steps = cfg.omega, cfg.dt, cfg.steps
    params = oscillator.OscParams(omega=omega, dt=dt, n_steps=steps)
    u_hist, rec = oscillator.simulate(cfg.u0, cfg.v0, params, exact_init=cfg.exact_init)
    checks, summary = _invariant_series(
        art, [(s, s * dt, cn, ch) for s, cn, ch in rec], cfg.record_every
    )

    t = dt * np.arange(len(u_hist))
    # continuum solution of u' = -omega v, v' = omega u
    exact = cfg.u0 * np.cos(omega * t) - cfg.v0 * np.sin(omega * t)
    max_dev = float(np.max(np.abs(np.asarray(u_hist) - exact)))
    return {
        "settings": {"omega": omega, "dt": dt, "steps": steps, "alpha": params.alpha},
        "summary": summary,
        "error_norms": {"max_dev_from_exact": max_dev},
        "checks": checks,
    }


def _run_system(cfg, art: ArtifactWriter) -> dict:
    preset, steps = cfg.preset, cfg.steps
    if preset == "oscillator":
        omega = cfg.omega
        dt = cfg.dt if cfg.dt is not None else 0.01
        ops = OperatorPair(
            apply_A=lambda f: -omega * f,
            apply_Astar=lambda g: -omega * g,
            norm_bound_A=omega,
            norm_bound_Astar=omega,
        )
        state, rec = run_system(cfg.u0, cfg.v0, ops, dt, steps)
        settings = {"preset": preset, "omega": omega, "dt": dt, "steps": steps}
    else:
        nx, c = cfg.nx, cfg.c
        dx = 1.0 / max(nx - 1, 1)  # nx = 1 reaches the Grid1D check below
        dt = cfg.dt if cfg.dt is not None else cfg.safety * dx / c
        grid = _grid("--nx", wave1d.Grid1D, a=0.0, b=1.0, nx=nx, t_final=steps * dt, nt=steps)
        ops, inner_X, inner_Y = wave1d.cmp_system(c, grid)
        u0 = wave1d.standing_mode_u(grid.primal_points(), 0.0, cfg.mode_m, c)
        state, rec = run_system(u0, np.zeros(nx - 1), ops, dt, steps, inner_X, inner_Y)
        settings = {"preset": preset, "nx": nx, "c": c, "dt": dt, "steps": steps}

    checks, summary = _invariant_series(
        art, [(s, s * dt, cn, ch) for s, cn, ch in rec], cfg.record_every
    )
    return {
        "settings": settings,
        "summary": summary,
        "checks": checks,
    }


def _build_grid_1d(nx: int, t_final: float, nt, safety: float, speed: float):
    if nt is None:
        dx = 1.0 / max(nx - 1, 1)  # nx = 1 reaches the Grid1D check below
        steps = _cfl_steps("--t-final/--material", math.ceil, t_final / (safety * dx / speed))
        nt = max(1, steps)
    return _grid("--nx", wave1d.Grid1D, a=0.0, b=1.0, nx=nx, t_final=t_final, nt=nt)


def _run_wave1d(cfg, art: ArtifactWriter) -> dict:
    case, spec = cfg.case, cfg.material
    if spec is None:
        spec = "cmp c=1.0" if case == "cmp" else "constant"
    mat = parse_material_1d(spec)
    if (mat["kind"] == "cmp") != (case == "cmp"):
        raise ConfigError(f"--case {case} does not match material {spec!r}")
    m, t_final = cfg.mode_m, cfg.t_final

    if case == "cmp":
        c = mat["c"]
        grid = _build_grid_1d(cfg.nx, t_final, cfg.nt, cfg.safety, c)
        # an unset --init has always started cmp runs from the Taylor half step
        u0, v0 = wave1d.cmp_mode_start(grid, m, c, cfg.init or "taylor")
        state, rec = wave1d.run_cmp(grid, c, u0, v0, record_every=1)
        xp = grid.primal_points()
        er = state.f - wave1d.standing_mode_u(xp, t_final, m, c)
        art.errors(zip(xp, er, er / grid.dx**2))
        error_norms = {"max_abs_u": float(np.max(np.abs(er)))}
        settings = {"case": case, "c": c}
    else:
        probe = _grid("--nx", wave1d.Grid1D, a=0.0, b=1.0, nx=cfg.nx, t_final=t_final, nt=1)
        mats = _grid("--material", wave1d.Materials1D.from_profiles, probe, mat["rho"], mat["tau"])
        grid = _build_grid_1d(cfg.nx, t_final, cfg.nt, cfg.safety, wave1d.cfl_speed(mats))
        mats = wave1d.Materials1D.from_profiles(grid, mat["rho"], mat["tau"])
        u0 = np.sin(m * np.pi * grid.primal_points())
        v0 = wave1d.taylor_v_half_vmp(u0, np.zeros(grid.nx - 1), mats, grid)
        state, rec = wave1d.run_vmp(grid, mats, u0, v0, record_every=1)
        error_norms = {}
        settings = {"case": case, "material": mat["name"]}

    rows = [(s, s * grid.dt, cn, ch) for s, cn, ch in rec]
    checks, summary = _invariant_series(art, rows, cfg.record_every)
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


def _levels(ks) -> list:
    """The refinement levels of a sweep.  Level k's coarsest grid has 2**k
    cells per axis and every grid constructor needs 2, so k starts at 1; a
    repeated level would give an order from two equal spacings."""
    if len(set(ks)) < max(len(ks), 2):
        raise ConfigError(f"a convergence sweep needs at least two distinct --k levels, got {ks}")
    if min(ks) < 1:
        raise ConfigError(
            f"--k levels must be at least 1 (a grid needs 2 cells per axis), got {min(ks)}"
        )
    return ks


def _final_time(final, default: float, case: str, named: dict) -> float:
    """The sweep's --final: `default` when unset, the value of a name in `named`,
    or a number; anything that is not a positive, finite time is a usage error."""
    t = default if final is None else named.get(final, final)
    try:
        t = float(t)
    except ValueError:
        t = math.nan
    if not 0 < t < math.inf:
        names = f" or one of {list(named)}" if named else ""
        raise ConfigError(f"bad --final {final!r} for case {case!r}; use a positive number{names}")
    return t


def _is_half_period_multiple(t_final: float, m: int, c: float) -> bool:
    ratio = t_final * m * c
    return abs(ratio - round(ratio)) < 1e-9 and round(ratio) >= 1


def _sweep_1d(cfg, jobs: int) -> dict:
    spec = cfg.case or "cmp"
    mat = parse_material_1d(spec)
    ks = _levels(cfg.k)
    m, f_over = cfg.mode_m, cfg.f

    if mat["kind"] == "cmp":
        c = mat["c"]
        # The standing mode's period is 2/(m c).  "full-period" is 7/8 of it, a
        # generic time where the scheme's phase lag dominates and the order is
        # 2; "half-period" is half of it, where the phase-lag term cancels and
        # the measured order jumps to ~4.
        named = {"full-period": 1.75 / (m * c), "half-period": 1.0 / (m * c)}
        t_final = _final_time(cfg.final, named["full-period"], spec, named)
        if f_over is None:
            f_over = _finite_steps("--final", wave1d.refinement_exponent, c, 1.0, t_final)
        _cfl_steps("--final/--f", pow, 2, max(ks) + f_over)
        levels = _pool_sweep(_cmp_level, [(k, t_final, m, c, f_over, cfg.init) for k in ks], jobs)
        rows = [row for row, _ in levels]
        profile = levels[ks.index(max(ks))][1]
        name = f"cmp c={c:g}"
    else:
        t_final = _final_time(cfg.final, 2.0, spec, {})
        c = None
        # the grids vmp_refine_errors samples the materials on: each level and one finer
        grids = {k: wave1d.Grid1D(a=0.0, b=1.0, nx=2**k + 1, t_final=1.0, nt=1)
                 for k in [*ks, max(ks) + 1]}
        mats = {k: _grid("--case", wave1d.Materials1D.from_profiles, grid, mat["rho"], mat["tau"])
                for k, grid in grids.items()}
        if f_over is None:
            # the exponent vmp_refine_errors picks: from the first level's wave speed
            f_over = _finite_steps("--final", wave1d.refinement_exponent,
                                   wave1d.cfl_speed(mats[ks[0]]), 1.0, t_final)
        _cfl_steps("--final/--f", pow, 2, max(ks) + 1 + f_over)
        rows, profiles = wave1d.vmp_refine_errors(ks, t_final, mat["rho"], mat["tau"], f=f_over)
        k_top = max(ks)
        grid_top = grids[k_top]
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
    """`point(a)` for each a in sweep order, over `jobs` processes if more than one."""
    if jobs == 1:
        return [point(a) for a in args]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(point, args))


def _order_table(ks, rows, points_of):
    """Pairwise orders and the (k, Nx, dx, Er, p) table of a sweep."""
    pair_orders = wave1d.estimate_order(rows)
    table = [
        (k, points_of(k), dx, er, pair_orders[i - 1] if i else "")
        for i, (k, (dx, er)) in enumerate(zip(ks, rows))
    ]
    return pair_orders, table


def _cmp_level(args):
    """One level of the cmp mode sweep, marched once: its (dx, max error) row,
    as `wave1d.cmp_mode_errors` gives it, and its (x, Er, Er/dx^2) profile."""
    k, t_final, m, c, f, init = args
    grid = wave1d.Grid1D(a=0.0, b=1.0, nx=2**k + 1, t_final=t_final, nt=2 ** (k + f))
    state, _ = wave1d.run_cmp(grid, c, *wave1d.cmp_mode_start(grid, m, c, init), record_every=0)
    xp = grid.primal_points()
    er = state.f - wave1d.standing_mode_u(xp, t_final, m, c)
    return (grid.dx, float(np.max(np.abs(er)))), list(zip(xp, er, er / grid.dx**2))


_SMOOTH_1D = {"constant", "bump-p2-q2"}


def _run_wave1d_convergence(cfg, art: ArtifactWriter) -> dict:
    sweep = _sweep_1d(cfg, jobs=1)
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


# each N-D sweep: its error function and the step count of one level
_ND_SWEEPS = {
    "wave2d-mode": (wave2d.mode_errors_2d, wave2d.mode_steps_2d),
    "wave3d-cavity": (wave3d.scalar_cavity_errors, wave3d.cavity_steps),
    "maxwell-cavity": (wave3d.maxwell_cavity_errors, wave3d.cavity_steps),
}


def _run_convergence_table(cfg, art: ArtifactWriter) -> dict:
    case = cfg.case or "cmp"

    if case in _ND_SWEEPS:
        ks = _levels(cfg.k)
        t_final = _final_time(cfg.final, 0.35, case, {})
        # the finest level takes the most steps
        _cfl_steps("--final", _ND_SWEEPS[case][1], 2 ** max(ks), t_final, cfg.safety)
        points = [(case, 2**k, t_final, cfg.safety) for k in ks]
        rows = _pool_sweep(_nd_sweep_point, points, cfg.jobs)
        pair_orders, table = _order_table(ks, rows, lambda k: 2**k)
        name = case
        endpoint = endpoint_order(rows)
    else:
        sweep = _sweep_1d(cfg, cfg.jobs)
        ks, rows, table = sweep["ks"], sweep["rows"], sweep["table"]
        pair_orders, endpoint = sweep["pair_orders"], sweep["endpoint"]
        name, t_final = sweep["name"], sweep["t_final"]

    art.table(table)
    return {
        "settings": {"case": name, "t_final": t_final, "k": ks, "jobs": cfg.jobs},
        "summary": {"errors": [er for _, er in rows]},
        "error_norms": {"finest_max_abs": rows[-1][1]},
        "orders": {"pairwise": pair_orders, "endpoint": endpoint},
        "checks": [],
    }


def _nd_sweep_point(args):
    case, n, t_final, safety = args
    return _ND_SWEEPS[case][0]((n,), t_final=t_final, safety=safety)[0]


# -- 2D and 3D experiments ---------------------------------------------------


def _star_2d(cfg, grid) -> wave2d.Star2:
    """The star of --a/--a11/--a22, checked before any march: a usage error
    naming them when its CFL time step is not a positive finite number, as
    for an infinite coefficient or a wave speed sqrt(max(a11, a22)/a) past
    the float range."""
    star = wave2d.Star2(cfg.a, cfg.a11, cfg.a22)
    try:
        dt_max = wave2d.suggest_dt_2d(star, grid)
    except ZeroDivisionError:  # the wave speed is zero: no bound at all
        dt_max = math.inf
    if not 0.0 < dt_max < math.inf:
        raise ConfigError(
            f"--a/--a11/--a22: the star (a, a11, a22) = ({star.a}, {star.a11}, {star.a22}) "
            "has no finite positive CFL time step"
        )
    return star


def _run_wave2d(cfg, art: ArtifactWriter) -> dict:
    nx = cfg.nx
    ny = cfg.ny if cfg.ny is not None else nx
    grid = _grid("--nx/--ny", wave2d.Grid2, nx, ny)
    star = _star_2d(cfg, grid)
    t_final, nt = cfg.t_final, cfg.nt
    if nt is None:
        nt = max(1, _cfl_steps("--t-final", math.ceil,
                               t_final / wave2d.suggest_dt_2d(star, grid, cfg.safety)))
    dt = t_final / nt

    m, n = cfg.mode_m, cfg.mode_n
    u0, v0 = wave2d.mode_start_2d(grid, star, dt, m, n, cfg.init)
    state, rec = wave2d.run_wave2d(grid, star, u0, v0, dt, nt, record_every=1)

    checks, summary = _invariant_series(
        art, [(s, s * dt, cn, ch) for s, cn, ch in rec], cfg.record_every
    )

    error_norms = {}
    if star == wave2d.Star2():
        want, _, _ = wave2d.exact_solution_2d(m, n, 1.0, *grid.points("fp"), t_final)
        error_norms["max_abs_u"] = float(np.max(np.abs(state.f - want)))
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

    Rejects --dt together with --t-final, which would leave the run short of
    (or past) the time its mode error is measured at, and a record interval
    longer than the run, which would leave the series (and the drift checks)
    without a single row.
    """
    dt, t_final = cfg.dt, cfg.t_final
    steps, every = cfg.steps, cfg.record_every
    if dt is not None and t_final is not None:
        raise ConfigError("--dt and --t-final both fix the time step; give only one of them")
    if t_final is not None:
        steps = max(1, _cfl_steps("--t-final", math.ceil, t_final / (cfg.safety * dt_max)))
        dt = t_final / steps
    elif dt is None:
        dt = cfg.safety * dt_max
    if every > steps:
        raise ConfigError(
            f"--record-every {every} is larger than the number of steps ({steps}, "
            "from --steps or --t-final); no step would be recorded"
        )
    return dt, steps


def _run_wave3d(cfg, art: ArtifactWriter) -> dict:
    grid = _grid("--grid", Grid3.cube, cfg.grid, 1.0, boundary="pinned")
    star = parse_material_3d(cfg.materials, "scalar")(grid)
    dt, steps = _resolve_dt_3d(cfg, wave3d.suggest_dt(star, grid))
    modes = tuple(cfg.modes)

    s0 = wave3d.cavity_mode_s(grid, 0.0, modes)
    v0 = wave3d.scalar_wave_init_v(s0, zeros_field(grid, "dual-face"), star, grid, dt)
    state, rec = wave3d.run_scalar_wave(
        grid, star, s0, v0, dt, steps, record_every=cfg.record_every
    )
    checks, summary = _invariant_series(
        art, rec, cfg.record_every, ("sq_f", "sq_gbar", "sq_AGf")
    )

    error_norms = {}
    if cfg.materials == "trivial3d" and cfg.t_final is not None:
        want = wave3d.cavity_mode_s(grid, cfg.t_final, modes)
        error_norms["max_abs_s"] = float(np.max(np.abs(state.f - want)))
    return {
        "settings": {
            "grid": cfg.grid,
            "materials": cfg.materials,
            "dt": dt,
            "steps": steps,
            "modes": list(modes),
        },
        "summary": summary,
        "error_norms": error_norms,
        "checks": checks,
    }


def _run_maxwell(cfg, art: ArtifactWriter) -> dict:
    grid = _grid("--grid", Grid3.cube, cfg.grid, 1.0, boundary="pinned")
    eps, mu = parse_material_3d(cfg.materials, "maxwell")(grid)
    dt_max = wave3d.suggest_dt(eps, grid, system="maxwell", mu_star=mu)
    dt, steps = _resolve_dt_3d(cfg, dt_max)

    e0 = wave3d.te_cavity_e(grid, 0.0)
    h0 = wave3d.maxwell_init_h(e0, zeros_field(grid, "dual-edge"), eps, mu, grid, dt)
    state, rec = wave3d.run_maxwell(
        grid, eps, mu, e0, h0, dt, steps, record_every=cfg.record_every
    )
    checks, summary = _invariant_series(
        art, rec, cfg.record_every, ("sq_f", "sq_gbar", "sq_AGf", "div_e", "div_h")
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
            "grid": cfg.grid,
            "materials": cfg.materials,
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


def _run_transport(cfg, art: ArtifactWriter) -> dict:
    kind, steps, courant = cfg.velocity, cfg.steps, cfg.courant
    if courant is None:
        courant = 1.0 if kind == "constant" else 0.9

    if kind == "constant":
        n = cfg.n if cfg.n is not None else 64
        if n < 20:
            raise ConfigError("the square-wave profile needs at least 20 cells")
        dx = 1.0 / n
        v = np.full(n + 1, cfg.speed)
        rho0 = np.zeros(n)
        rho0[10:20] = 1.0
    else:
        n = cfg.n if cfg.n is not None else 100
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

    every = cfg.record_every
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
        shift = steps if cfg.speed > 0 else -steps
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


def _run_diffusion(cfg, art: ArtifactWriter) -> dict:
    n = cfg.n if cfg.n is not None else 101
    steps, every = cfg.steps, cfg.record_every
    dx = 1.0 / n
    d = np.full(n + 1, cfg.diffusivity)
    dt = cfg.courant * dx * dx / float(np.max(d))

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
        if every and step % every == 0:
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
            "diffusivity": cfg.diffusivity,
            "steps": steps,
        },
        "summary": {"mass_initial": mass0, "mass_final": float(np.sum(rho) * dx)},
        "checks": checks,
    }


def run(cfg) -> RunReport:
    """Execute one experiment command from its parsed options (the namespace
    `build_parser().parse_args` returns) and write its artifacts; returns the
    report."""
    t0 = time.perf_counter()
    art = ArtifactWriter(resolve_outdir(cfg.outdir), cfg.prefix or cfg.command.replace("-", "_"))
    body = COMMANDS[cfg.command].runner(cfg, art)
    passed = True if cfg.no_checks else all(c["passed"] for c in body["checks"])
    report = RunReport(
        command=cfg.command,
        settings=body["settings"],
        seed=cfg.seed,
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


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


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
        g = _grid("--sizes", Grid3.cube, n, 1.0, boundary=boundary)
        for name, kind, first, second in _EXACT_CHAINS:
            x = mimetic3d.random_field(g, kind, rng)
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
    g = _grid("--sizes", Grid3.cube, n, 1.0, boundary="pinned")
    star = Star3.from_scalars(g, 2.0, 1.5, 3.0, 2.5)
    f = rng.standard_normal(g.scalar_shape("node"))
    back = mimetic3d.star_scalar_inverse(
        mimetic3d.star_scalar(f, star, "node-to-dual-cell"), star, "node-to-dual-cell"
    )
    res = float(np.max(np.abs(back - f))) / float(np.max(np.abs(f)))
    checks.append(_check(f"round-trip-scalar-{n}", res, "<= 1e-15 relative", res <= 1e-15))

    star_d = Star3.from_diagonals(g, 1.5, 2.0, (2.0, 3.0, 4.0), (1.5, 2.5, 3.5))
    t = mimetic3d.random_field(g, "edge", rng)
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
    g = _grid("--sizes", Grid3.cube, n, 1.0, boundary="periodic")
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
        g = _grid("--sizes", Grid3.cube, int(n), 1.0, boundary="pinned")
        for name, make in stars.items():
            res = mimetic3d.check_discrete_adjoints(
                make(g), g, trials=trials, seed=seed, broken_sign=broken_sign
            )
            checks.append(
                _check(f"adjoint-{name}-{n}", res["max"], "<= 1e-12", res["max"] <= 1e-12)
            )
    return checks


def _verify_wave1d_sbp(sizes, trials, seed, broken_sign) -> list:
    """1D summation-by-parts adjointness on random grids and materials;
    ``broken_sign`` flips the sign of the A* side, so the residual is O(1)."""
    rng = np.random.default_rng(seed)
    sign = -1.0 if broken_sign else 1.0
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
        rhs = sign * inner_X(u, ops.apply_Astar(v))
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
# the command table, and the parser, schema and config files built from it
# ---------------------------------------------------------------------------


def _print_report(report: RunReport):
    for check in report.checks:
        verdict = "PASS" if check["passed"] else "FAIL"
        measured = check["measured"]
        shown = f"{measured:.6e}" if isinstance(measured, float) else str(measured)
        print(f"[{verdict}] {check['name']}: measured {shown} (bound {check['bound']})")
    for key in ("series_csv", "errors_csv", "table_csv", "report_json"):
        if report.artifacts.get(key):
            print(f"{key.rsplit('_', 1)[0]}: {report.artifacts[key]}")


def _run_and_print(cfg) -> int:
    report = run(cfg)
    _print_report(report)
    return 0 if report.passed else 1


def _verify_and_print(cfg) -> int:
    if cfg.suite is None:
        raise ConfigError("verify needs a suite name (or a config file giving one)")
    summary = verify(
        cfg.suite, sizes=cfg.sizes, trials=cfg.trials, seed=cfg.seed, broken_sign=cfg.broken_sign
    )
    outdir = cfg.outdir or os.environ.get("STAGWAVE_OUTDIR")
    if outdir:
        path = Path(outdir)
        path.mkdir(parents=True, exist_ok=True)
        name = f"{cfg.prefix or 'verify'}_{cfg.suite.replace('-', '_')}.json"
        (path / name).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if cfg.no_checks or summary["passed"] else 1


class Command(NamedTuple):
    """One subcommand.  `options` are ``(flag, argparse kwargs)`` pairs;
    `runner(cfg, art)` returns an experiment's report body, and `main(cfg)`
    turns the parsed options into the exit code."""

    help: str
    runner: Callable | None
    options: tuple
    main: Callable = _run_and_print


# options every command takes, and options several commands share exactly
_COMMON = (
    ("--config", dict(metavar="FILE", help="flat key/value INI config file")),
    ("--outdir", dict(help="artifact directory (default: $STAGWAVE_OUTDIR or .)")),
    ("--prefix", dict(help="artifact file prefix (default: the command name)")),
    ("--seed", dict(type=int, default=0, help="seed for random-field checks")),
    ("--no-checks", dict(action="store_true",
                         help="record checks but never fail the exit code on them")),
    ("--schema", dict(action="store_true", help="print the option schema as JSON and exit")),
)
_RECORD_EVERY = ("--record-every", dict(type=positive_int, default=1, metavar="N",
                                        help="keep every N-th step in the series CSV"))
_STEPS = ("--steps", dict(type=positive_int, default=1000, help="number of steps"))
_NT = ("--nt", dict(type=positive_int, default=None, help="steps (default from --safety)"))
_SAFETY = ("--safety", dict(type=positive_float, default=0.9, help="fraction of the CFL bound"))
_K = ("--k", dict(type=k_range, default="4..8", help="refinement levels, e.g. 4..8"))
_F = ("--f", dict(type=positive_int, default=None, help="extra time-refinement exponent"))
_CMP_INIT = ("--init", dict(choices=("exact", "taylor"), default="exact",
                            help="cmp half-step start"))
_CUBE = (
    ("--grid", dict(type=positive_int, default=16, help="cells per side")),
    ("--materials", dict(default="trivial3d",
                         help="material preset: trivial3d, scalar3d, or diag3d")),
    ("--steps", dict(type=positive_int, default=500, help="number of steps")),
    _SAFETY,
    ("--dt", dict(type=positive_float, default=None, help="explicit time step")),
)

COMMANDS = {
    "oscillator": Command("Leapfrog harmonic oscillator with both invariants audited.",
                          _run_oscillator, (
        ("--omega", dict(type=positive_float, default=1.0, help="angular frequency")),
        ("--dt", dict(type=positive_float, default=0.01, help="time step")),
        ("--steps", dict(type=positive_int, default=10_000, help="number of steps")),
        ("--u0", dict(type=float, default=1.0, help="initial displacement")),
        ("--v0", dict(type=float, default=0.0, help="initial velocity")),
        ("--exact-init", dict(action="store_true", help="seed v(dt/2) from the closed form "
                              "instead of the Taylor half step")),
        _RECORD_EVERY,
    )),
    "system": Command("Generic adjoint-pair leapfrog on a named operator preset.",
                      _run_system, (
        ("--preset", dict(choices=("oscillator", "cmp"), default="oscillator",
                          help="operator pair to integrate")),
        ("--omega", dict(type=positive_float, default=1.0, help="oscillator frequency")),
        ("--u0", dict(type=float, default=1.0, help="oscillator initial displacement")),
        ("--v0", dict(type=float, default=0.0, help="oscillator initial velocity")),
        ("--c", dict(type=positive_float, default=1.0, help="cmp wave speed")),
        ("--nx", dict(type=positive_int, default=65, help="cmp grid points")),
        ("--mode-m", dict(type=positive_int, default=1, help="cmp starting mode")),
        ("--dt", dict(type=positive_float, default=None, help="time step (default per preset)")),
        ("--safety", dict(type=positive_float, default=0.95,
                          help="fraction of the cmp CFL bound")),
        _STEPS,
        _RECORD_EVERY,
    )),
    "wave1d": Command("1D staggered wave march with conserved-quantity audits.", _run_wave1d, (
        ("--case", dict(choices=("cmp", "vmp"), default="cmp",
                        help="constant or variable materials")),
        ("--material", dict(help="material spec ('cmp c=1.0', a preset name, 'bump 2 2', "
                            "'piecewise-linear .25 .75 1 2', 'jump down tau', ...)")),
        ("--nx", dict(type=positive_int, default=65, help="primal grid points")),
        ("--t-final", dict(type=positive_float, default=1.0, help="final time")),
        _NT,
        ("--safety", dict(type=positive_float, default=0.95, help="fraction of the CFL bound")),
        ("--mode-m", dict(type=positive_int, default=1, help="starting mode number")),
        ("--init", dict(choices=("exact", "taylor"), default=None, help="cmp half-step start "
                        "for v (default: taylor; vmp always starts from taylor)")),
        _RECORD_EVERY,
    )),
    "wave1d-convergence": Command("Grid-halving order study for the 1D march, with order "
                                  "checks.", _run_wave1d_convergence, (
        ("--case", dict(default="cmp", help="'cmp [c=...]' for the mode study or a material "
                        "spec for refine-compare")),
        _K,
        ("--final", dict(default=None, help="final time: a number, 'full-period' (7/8 of the "
                         "period) or 'half-period'")),
        ("--mode-m", dict(type=positive_int, default=1, help="mode number (cmp case)")),
        _F,
        _CMP_INIT,
    )),
    "wave2d": Command("2D staggered wave march with conserved-quantity audits.", _run_wave2d, (
        ("--nx", dict(type=positive_int, default=32, help="cells along x")),
        ("--ny", dict(type=positive_int, default=None, help="cells along y (default nx)")),
        ("--a", dict(type=positive_float, default=1.0, help="scalar material weight")),
        ("--a11", dict(type=positive_float, default=1.0, help="vector weight, x component")),
        ("--a22", dict(type=positive_float, default=1.0, help="vector weight, y component")),
        ("--t-final", dict(type=positive_float, default=0.35, help="final time")),
        _NT,
        _SAFETY,
        ("--mode-m", dict(type=positive_int, default=1, help="x mode number")),
        ("--mode-n", dict(type=positive_int, default=1, help="y mode number")),
        ("--init", dict(choices=("exact", "taylor"), default="taylor",
                        help="half-step start for v")),
        _RECORD_EVERY,
    )),
    "wave3d": Command("3D scalar cavity march with conserved-quantity audits.", _run_wave3d, (
        *_CUBE,
        ("--t-final", dict(type=positive_float, default=None, help="march to this time "
                           "instead of --steps (also enables the mode error norm)")),
        ("--modes", dict(type=positive_int, nargs=3, default=[1, 1, 1],
                         metavar=("MX", "MY", "MZ"), help="cavity mode numbers")),
        _RECORD_EVERY,
    )),
    "maxwell": Command("TE cavity march with invariants and divergence audits.", _run_maxwell, (
        *_CUBE,
        ("--t-final", dict(type=positive_float, default=None,
                           help="march to this time instead of --steps")),
        _RECORD_EVERY,
    )),
    "transport": Command("Upwind advection with the mass audit and positivity guard.",
                         _run_transport, (
        ("--velocity", dict(choices=("constant", "collapse", "expand"), default="constant",
                            help="face velocity field: constant speed, v = -x, or v = +x")),
        ("--speed", dict(type=positive_float, default=2.0, help="constant-velocity speed")),
        ("--n", dict(type=positive_int, default=None,
                     help="cells (default 64 constant / 100 radial)")),
        _STEPS,
        ("--courant", dict(type=positive_float, default=None, help="fraction of the per-cell "
                           "outflow bound (default 1.0 constant / 0.9 radial)")),
        _RECORD_EVERY,
    )),
    "diffusion": Command("Explicit diffusion of a spike under the flux-pair guard.",
                         _run_diffusion, (
        ("--n", dict(type=positive_int, default=None, help="cells (default 101)")),
        _STEPS,
        ("--diffusivity", dict(type=positive_float, default=1.0,
                               help="constant face diffusivity")),
        ("--courant", dict(type=positive_float, default=0.5,
                           help="dt as a multiple of dx^2/max(d); 0.5 is the guard edge")),
        _RECORD_EVERY,
    )),
    "verify": Command("Exactness / adjointness / round-trip / order suites.", None, (
        ("suite", dict(nargs="?", default=None,
                       help="one of mimetic3d, adjoint, wave1d-sbp, all")),
        ("--sizes", dict(type=positive_int, nargs="+", default=[8, 16],
                         help="grid sizes per side")),
        ("--trials", dict(type=positive_int, default=100, help="random trials")),
        ("--broken-sign", dict(action="store_true", help="flip a sign in the adjoint "
                               "identity; the suite must then fail")),
    ), main=_verify_and_print),
    "convergence-table": Command("Convergence-table CSV (k, Nx, dx, Er, p) for a named case.",
                                 _run_convergence_table, (
        ("--case", dict(default="cmp", help="'cmp [c=...]', a 1D material spec, wave2d-mode, "
                        "wave3d-cavity, or maxwell-cavity")),
        _K,
        ("--final", dict(default=None,
                         help="final time (number or named; case-dependent default)")),
        ("--mode-m", dict(type=positive_int, default=1, help="mode number (1D cmp case)")),
        _F,
        _CMP_INIT,
        ("--safety", dict(type=positive_float, default=0.9, help="CFL fraction (2D/3D cases)")),
        ("--jobs", dict(type=positive_int, default=1, help="parallel sweep processes")),
    )),
}

_CONFIG_EPILOG = (
    "Config file keys (any section of the INI file given with --config) match "
    "these long flag names, dashes or underscores; explicit flags win.  "
    "--schema prints the same information as JSON."
)


def _options(command: str):
    """(dest, flag, kwargs) of every option `command` takes, in --help order."""
    for flag, kwargs in _COMMON + COMMANDS[command].options:
        yield flag.lstrip("-").replace("-", "_"), flag, kwargs


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command in `COMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="stagwave",
        description="Staggered-grid leapfrog wave experiments with conserved-quantity audits.",
    )
    subs = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, command in COMMANDS.items():
        sub = subs.add_parser(
            name, help=command.help, description=command.help, epilog=_CONFIG_EPILOG
        )
        for _, flag, kwargs in _options(name):
            sub.add_argument(flag, **kwargs)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """`build_parser()` made once per process: parsing leaves a parser as it
    was, so every `main` call can share it."""
    return build_parser()


def _schema(command: str) -> dict:
    options = []
    for dest, flag, kwargs in _options(command):
        is_flag = kwargs.get("action") == "store_true"
        entry = {
            "name": dest,
            "flags": [flag],
            "type": "flag" if is_flag else getattr(kwargs.get("type"), "__name__", "str"),
            "default": kwargs.get("default", False if is_flag else None),
            "help": kwargs.get("help", ""),
        }
        if "choices" in kwargs:
            entry["choices"] = list(kwargs["choices"])
        if "nargs" in kwargs:
            entry["nargs"] = kwargs["nargs"]
        options.append(entry)
    return {"command": command, "options": options}


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


def _config_argv(values: dict, given: argparse.Namespace) -> list:
    """Config values as argv tokens for the command of `given` (the parsed
    command line), so argparse checks them exactly as it checks flags.  A
    positional comes first, before any list option could swallow it; one the
    command line already gives is not taken from the file."""
    options = {dest: (flag, kwargs) for dest, flag, kwargs in _options(given.command)}
    positionals, argv = [], []
    for key, raw in values.items():
        if key not in options or key in ("config", "schema"):
            raise ConfigError(
                f"unknown config key {key!r} for command {given.command!r} "
                f"(see `stagwave {given.command} --schema`)"
            )
        flag, kwargs = options[key]
        if kwargs.get("action") == "store_true":
            word = raw.strip().lower()
            if word not in _TRUE_WORDS | _FALSE_WORDS:
                raise ConfigError(f"config key {key!r} wants a boolean, got {raw!r}")
            argv += [flag] if word in _TRUE_WORDS else []
        elif not flag.startswith("-"):
            positionals += [raw] if getattr(given, key) is None else []
        elif "nargs" in kwargs:
            argv += [flag, *(tok for tok in re.split(r"[ ,]+", raw.strip()) if tok)]
        else:
            argv.append(f"{flag}={raw}")
    return positionals + argv


def main(argv=None) -> int:
    """Entry point; returns the exit code (0 pass, 1 failed check, 2 usage)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _shared_parser()
    try:
        cfg = parser.parse_args(argv)
        if cfg.config:
            # config values go in right after the command name, so flags win;
            # the repeated --config ends a list option's run before the
            # command line's own tokens (a positional among them)
            at = argv.index(cfg.command) + 1
            extra = _config_argv(_load_config(cfg.config), cfg)
            cfg = parser.parse_args(argv[:at] + extra + ["--config", cfg.config] + argv[at:])
        if cfg.schema:
            print(json.dumps(_schema(cfg.command), indent=2, default=str))
            return 0
        return COMMANDS[cfg.command].main(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
