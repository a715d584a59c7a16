"""Experiment runner: every solver and verifier in the package as a subcommand.

``stagwave <command> [flags]`` assembles the experiment described by the
flags, marches it, writes the artifacts, prints one PASS/FAIL line per
enabled check, and exits 0 only if every check passed (1 on a failed check,
2 on a usage or config error).

Commands
--------
One table, ``COMMANDS``, declares every command: its help text, its runner
and its options, each option once as ``(flag, argparse keyword arguments)``.
The parser, the ``--schema`` dump and the config-file keys all come from that
table, and runners read the parsed options as flat attributes (``cfg.dt``).
The six march commands (``oscillator``, ``system``, ``wave1d``, ``wave2d``,
``wave3d``, ``maxwell``) share one runner, ``_run_march``: each builds a
``March`` from its options, the module's ``core.System`` plus its own
extras, and the runner forms the time step, marches and checks.  The two
sweep commands share one pipeline, ``_sweep``, which walks one ``core.Sweep``
row: ``wave1d.sweep_row`` of a 1D material spec, or a row of ``wave2d.SWEEPS``
(``wave2d-mode``) or ``wave3d.SWEEPS`` (``wave3d-cavity``, ``maxwell-cavity``).
The material specs live in ``wave1d``/``wave3d``, the transport and diffusion
marches in ``positivity`` and the suites in ``verify``, which only the
commands that use them import; this module keeps their options, checks and
reports.

Artifacts
---------
Each run writes, where applicable, into the output directory:

* ``<prefix>_series.csv``  — per-step time series: step, t, both conserved
  quantities, plus the invariant pieces and divergence audits for the 3D
  runs and mass/min-density for transport and diffusion.  Every runner hands
  its records to one ``_Series`` as it marches, which writes them a chunk at
  a time and keeps each column's first, last, highest and lowest value for
  the checks, so a run holds one chunk of records however long it marches;
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
Exit 2 covers every input that cannot describe a run, never a traceback:
unknown flags or keys, values of the wrong type or outside an option's
choices, contradictory flags, time steps and step counts out of range, and
the ValueError of a grid or material constructor, spec parser, transport
profile or verify suite, whose text (naming the flag where one is at fault)
is the message.  The README lists them all.

Determinism
-----------
A run is sequential end-to-end, and identical configs (including the seed)
produce byte-identical CSV files; float cells are written with ``repr`` so
they round-trip exactly.  The JSON report is deterministic except for the
``wall_time_s`` field.  ``convergence-table --jobs N`` may fan the levels of
any sweep case out over processes; rows are written in sweep order
regardless.
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
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import mimetic3d, oscillator, wave1d, wave2d, wave3d
from .core import System, _check

__all__ = [
    "COMMANDS",
    "ConfigError",
    "RunReport",
    "run",
    "build_parser",
    "main",
]


class ConfigError(ValueError):
    """A config file or flag combination that cannot describe a run (exit 2)."""


# ---------------------------------------------------------------------------
# small numeric helpers shared by the runners
# ---------------------------------------------------------------------------


def endpoint_order(rows) -> float:
    """Log-log slope between the first and last (dx, error) entries."""
    (dx0, e0), (dx1, e1) = rows[0], rows[-1]
    return float(math.log(e0 / e1) / math.log(dx0 / dx1))


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
# artifact writing
# ---------------------------------------------------------------------------


# the files a run may write, in report and printing order
_ARTIFACTS = ("series_csv", "errors_csv", "table_csv", "report_json")

# the text _cell gives each cell type of a row written without csv.writer:
# numbers, which csv.writer never quotes
_NUMBER_TEXT = {int: int.__repr__, float: float.__repr__, np.float64: float.__repr__}
# the records a series holds, and writes in one call, before it folds them
_CHUNK_ROWS = 256


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


class ArtifactWriter:
    """Writes a run's CSV/JSON files under one directory and prefix; a CSV's
    first call writes its header and rows, and later calls append rows."""

    def __init__(self, outdir: Path, prefix: str):
        self.outdir = Path(outdir)
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.prefix = prefix
        self.paths: dict[str, str | None] = dict.fromkeys(_ARTIFACTS)

    def _write_csv(self, stem: str, key: str, header, rows) -> str:
        path = self.outdir / f"{self.prefix}_{stem}.csv"
        with open(path, "w" if self.paths[key] is None else "a", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            if self.paths[key] is None:
                writer.writerow(header)
            lines = []  # rows of numbers not yet written, each joined by hand
            for row in rows:
                try:
                    lines.append(",".join([_NUMBER_TEXT[type(v)](v) for v in row]) + "\n")
                except KeyError:  # a cell that is not a number: csv.writer's row
                    fh.write("".join(lines))
                    lines.clear()
                    writer.writerow([_cell(v) for v in row])
            fh.write("".join(lines))
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
    """`explicit`, else $STAGWAVE_OUTDIR, else the working directory."""
    return Path(explicit or os.environ.get("STAGWAVE_OUTDIR") or ".")


def _usage(flag: str | None, make, *args, **kwargs):
    """`make(*args, **kwargs)`, with the ValueError of a constructor, parser
    or suite (a size below its minimum, a material sampled non-positive, an
    unknown spec) turned into a usage error of its text, naming any `flag`."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}" if flag else str(exc)) from None


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


class _Series:
    """The `records=` sink of every runner, fed one record (step, *values)
    at a time.  Each chunk of _CHUNK_ROWS records writes the rows of its
    `every`-th steps, (step, step * dt, *values) cut to the header's width,
    to the series CSV, and folds each column into its first, last, highest
    and lowest value and any `fold(chunk)` into its largest, keeping a NaN.
    A runner calls `flush()` after its march, for the last chunk."""

    def __init__(self, art: ArtifactWriter, header, every: int, dt: float, fold=None):
        self.art, self.header, self.every, self.dt, self.fold = art, header, every, dt, fold
        self.chunk, self.first, self.last = [], None, None
        self.high, self.low, self.folded = -math.inf, math.inf, -math.inf

    def append(self, record):
        self.chunk.append(record)
        if len(self.chunk) == _CHUNK_ROWS:
            self.flush()

    def flush(self):
        rows, width, every, dt = self.chunk, len(self.header) - 1, self.every, self.dt
        self.art.series(self.header, [(r[0], r[0] * dt, *r[1:width])
                                      for r in rows if r[0] % every == 0])
        if not rows:
            return
        chunk = np.array(rows, dtype=float)
        rows.clear()
        self.first = chunk[0] if self.first is None else self.first
        self.high = np.maximum(self.high, chunk.max(axis=0))
        self.low = np.minimum(self.low, chunk.min(axis=0))
        self.last = chunk[-1]
        if self.fold is not None:
            self.folded = np.maximum(self.folded, self.fold(chunk))

    def drift(self, col: int, floor: float, origin=None) -> float:
        """max |x - x0| / max(|x0|, floor) over column `col`, x0 the `origin`
        or its first value; NaN if any x is.  Rounding is monotone, so the
        max is the larger of high - x0 and x0 - low, bit for bit."""
        x0 = self.first[col] if origin is None else origin
        spread = np.abs(np.maximum(self.high[col] - x0, x0 - self.low[col]))
        return float(spread / np.maximum(abs(x0), floor))


# ---------------------------------------------------------------------------
# march commands: one runner over the `March` each command builds from cfg
# ---------------------------------------------------------------------------


# the series columns of every march, before the `columns` of its audit
_SERIES = ("step", "t", "C_n", "C_half")


class March(NamedTuple):
    """One march command's System and extras, built from its options."""

    system: System
    settings: dict  # the report's settings, beside dt and the step count
    dt: float | None = None  # None: the CFL step at --safety
    steps: int | None = None  # None with t_final: the fewest whole steps to reach it
    t_final: float | None = None  # dt becomes t_final / steps
    steps_key: str = "steps"  # the settings key of the step count
    every: int = 1  # the engine's record interval
    columns: tuple = ()  # the series columns `audit` appends to a record
    audit: Callable | None = None
    error: tuple | None = None  # (error_norms key, time) against system.exact
    cfl_flags: str = "--safety"  # what a CFL step out of range is blamed on
    fold: Callable | None = None  # the series' `fold` of each chunk of records
    finish: Callable | None = None  # finish(body, state, series, art): own checks, norms


def _checked_dt(dt: float, flags: str) -> float:
    """dt, checked before any march: a usage error naming `flags` unless it
    is a positive finite time step."""
    if not 0.0 < dt < math.inf:
        raise ConfigError(f"{flags}: the CFL time step {dt!r} is not a positive finite number")
    return dt


def _cfl_dt(system: System, safety: float, flags: str) -> float:
    """`system.cfl_dt(safety)`, checked by `_checked_dt`."""
    try:
        dt = system.cfl_dt(safety)
    except ZeroDivisionError:  # the norm bound is zero: no bound at all
        dt = math.inf
    return _checked_dt(dt, flags)


def _check_recorded(every: int, steps: int, source: str):
    """A usage error unless a run of `steps` steps (counted from `source`)
    records at least one step every `every`."""
    if every > steps:
        raise ConfigError(
            f"--record-every {every} is larger than the number of steps ({steps}, "
            f"from {source}); no step would be recorded"
        )


def _run_march(build, cfg, art: ArtifactWriter) -> dict:
    """The runner of every march command: `build(cfg)`, form the step and the
    step count, march, and hand each record, (step, C_n, C_half, *audit), to
    one `_Series`, which writes every --record-every-th step and keeps the
    extremes that both invariants' drift checks and `finish` read."""
    m = build(cfg)
    dt, steps = m.dt, m.steps
    if dt is None and (m.t_final is None or steps is None):
        dt = _cfl_dt(m.system, cfg.safety, m.cfl_flags)
    if m.t_final is not None:
        if steps is None:
            steps = max(1, _cfl_steps(f"--t-final/{m.cfl_flags}", math.ceil, m.t_final / dt))
        dt = m.t_final / steps
    _check_recorded(m.every, steps, "--steps or --t-final")
    series = _Series(art, [*_SERIES, *m.columns], cfg.record_every, dt, m.fold)
    state = m.system.march(dt, steps, record_every=m.every, audit=m.audit, records=series)[0]
    series.flush()
    drift_n, drift_half = series.drift(1, 1e-300), series.drift(2, 1e-300)
    body = {
        "settings": {**m.settings, "dt": dt, m.steps_key: steps},
        "summary": {"C_n_drift": drift_n, "C_half_drift": drift_half},
        "error_norms": {},
        "checks": [
            _check("C_n-drift", drift_n, "<= 1e-12 relative", drift_n <= 1e-12),
            _check("C_half-drift", drift_half, "<= 1e-12 relative", drift_half <= 1e-12),
        ],
    }
    if m.error is not None and m.system.exact is not None:
        key, t = m.error
        body["error_norms"][key] = m.system.error(state.f, t)
    if m.finish is not None:
        m.finish(body, state, series, art)
    return body


def _oscillator_march(cfg) -> March:
    params = _usage("--omega/--dt", oscillator.OscParams, omega=cfg.omega, dt=cfg.dt)
    deviation = functools.partial(oscillator.continuum_deviation, u0=cfg.u0, v0=cfg.v0,
                                  omega=cfg.omega, dt=cfg.dt)

    def finish(body, state, series, art):  # step 0, then each chunk's u (past its columns)
        body["error_norms"]["max_dev_from_exact"] = float(np.maximum(deviation([cfg.u0]),
                                                                     series.folded))

    return March(oscillator.oscillator_system(params, cfg.u0, cfg.v0, exact_init=cfg.exact_init),
                 {"omega": cfg.omega, "alpha": params.alpha}, dt=cfg.dt, steps=cfg.steps,
                 audit=lambda state, _: (state.f,), finish=finish,
                 fold=lambda chunk: deviation(chunk[:, 3], first=int(chunk[0, 0])))


def _system_march(cfg) -> March:
    if cfg.preset == "oscillator":
        dt = cfg.dt if cfg.dt is not None else 0.01
        # the `oscillator` command's check: a step omega * dt / 2 past the float range
        params = _usage("--omega/--dt", oscillator.OscParams, omega=cfg.omega, dt=dt)
        return March(oscillator.euclidean_system(params, cfg.u0, cfg.v0),
                     {"preset": cfg.preset, "omega": cfg.omega}, dt=dt, steps=cfg.steps)
    grid = _usage("--nx", wave1d.Grid1D, a=0.0, b=1.0, nx=cfg.nx, t_final=1.0, nt=1)
    return March(wave1d.cmp_system(cfg.c, grid, m=cfg.mode_m, init="taylor"),
                 {"preset": cfg.preset, "nx": cfg.nx, "c": cfg.c}, dt=cfg.dt, steps=cfg.steps)


def _wave1d_march(cfg) -> March:
    case, spec = cfg.case, cfg.material
    if spec is None:
        spec = "cmp c=1.0" if case == "cmp" else "constant"
    mat = _usage(None, wave1d.parse_material_1d, spec)
    if (mat["kind"] == "cmp") != (case == "cmp"):
        raise ConfigError(f"--case {case} does not match material {spec!r}")
    grid = _usage("--nx", wave1d.Grid1D, a=0.0, b=1.0, nx=cfg.nx, t_final=cfg.t_final, nt=1)
    if case == "cmp":
        # an unset --init has always started cmp runs from the Taylor half step
        system = wave1d.cmp_system(mat["c"], grid, m=cfg.mode_m, init=cfg.init or "taylor")
        named = {"c": mat["c"]}
    else:
        mats = _usage("--material", wave1d.Materials1D.from_profiles, grid, mat["rho"], mat["tau"])
        system = wave1d.vmp_system(mats, grid, m=cfg.mode_m)
        named = {"material": mat["name"]}

    def finish(body, state, series, art):
        if system.exact is not None:
            art.errors(_profile(grid, state.f - system.exact(cfg.t_final)))
        min_c = float(np.minimum(series.low[1], series.low[2]))
        body["checks"].append(_check("invariants-positive", min_c, "> 0", min_c > 0))

    return March(system, {"case": case, **named, "nx": grid.nx, "t_final": cfg.t_final},
                 steps=cfg.nt, t_final=cfg.t_final, steps_key="nt",
                 error=("max_abs_u", cfg.t_final), cfl_flags="--material/--safety",
                 finish=finish)


def _wave2d_march(cfg) -> March:
    nx = cfg.nx
    ny = cfg.ny if cfg.ny is not None else nx
    grid = _usage("--nx/--ny", wave2d.Grid2, nx, ny)
    star = wave2d.Star2(cfg.a, cfg.a11, cfg.a22)
    system = wave2d.wave2d_system(star, grid, m=cfg.mode_m, n=cfg.mode_n, init=cfg.init)
    # the star alone must allow a step, whatever --nt says
    _cfl_dt(system, 1.0, "--a/--a11/--a22")
    return March(system, {"nx": nx, "ny": ny, "t_final": cfg.t_final,
                          "star": [star.a, star.a11, star.a22], "modes": [cfg.mode_m, cfg.mode_n]},
                 steps=cfg.nt, t_final=cfg.t_final, steps_key="nt",
                 error=("max_abs_u", cfg.t_final))


_PIECES = ("sq_f", "g_cross")


def _cube_march(cfg, system: System, settings: dict, **extras) -> March:
    """A `wave3d`/`maxwell` march: --dt or the CFL step for --steps steps,
    or --t-final in whole CFL steps, recorded every --record-every steps.
    --dt with --t-final would leave the run short of (or past) the time its
    mode error is measured at, so the two are a usage error."""
    if cfg.dt is not None and cfg.t_final is not None:
        raise ConfigError("--dt and --t-final both fix the time step; give only one of them")
    return March(system, {"grid": cfg.grid, "materials": cfg.materials, **settings},
                 dt=cfg.dt, steps=cfg.steps if cfg.t_final is None else None,
                 t_final=cfg.t_final, every=cfg.record_every, **extras)


def _wave3d_march(cfg) -> March:
    grid = _usage("--grid", mimetic3d.Grid3.cube, cfg.grid, 1.0, boundary="pinned")
    star = _usage(None, wave3d.parse_material_3d, cfg.materials, "scalar")(grid)
    system = wave3d.scalar_wave_system(star, grid, modes=tuple(cfg.modes))
    return _cube_march(cfg, system, {"modes": list(cfg.modes)}, columns=_PIECES,
                       audit=lambda _, pieces: pieces,
                       error=None if cfg.t_final is None else ("max_abs_s", cfg.t_final))


def _maxwell_march(cfg) -> March:
    grid = _usage("--grid", mimetic3d.Grid3.cube, cfg.grid, 1.0, boundary="pinned")
    eps, mu = _usage(None, wave3d.parse_material_3d, cfg.materials, "maxwell")(grid)

    columns = (*_PIECES, "div_e", "div_h")

    divergences = wave3d.divergence_auditor(eps, mu, grid)

    def audit(state, pieces):
        return (*pieces, *divergences(state.f, state.g_half))

    def finish(body, state, series, art):
        for label in ("div_e", "div_h"):
            idx = (*_SERIES, *columns).index(label) - 1  # records have no t column
            dev = series.drift(idx, 1.0)
            body["checks"].append(
                _check(f"{label}-audit-constant", dev, "<= 1e-12 deviation", dev <= 1e-12)
            )
            body["summary"][f"{label}_initial"] = float(series.first[idx])

    return _cube_march(cfg, wave3d.maxwell_system(eps, mu, grid), {},
                       columns=columns, audit=audit, finish=finish)


# -- convergence sweeps ------------------------------------------------------


def _levels(ks) -> list:
    """The refinement levels of a sweep.  Level k's coarsest grid has 2**k
    cells per axis and every grid constructor needs 2, so k starts at 1; a
    repeated level would give an order from two equal spacings."""
    if len(set(ks)) < max(len(ks), 2):
        raise ConfigError(f"a convergence sweep needs at least two distinct --k levels, got {ks}")
    if min(ks) < 1:
        raise ConfigError("--k levels must be at least 1 (a grid needs 2 cells per axis), "
                          f"got {min(ks)}")
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


# the sweeps that convergence-table names, beside a 1D material spec's
_NAMED_SWEEPS = {row.name: row for row in (*wave2d.SWEEPS, *wave3d.SWEEPS)}


def _sweep_row(cfg, named: dict):
    """The `core.Sweep` of --case: a row of `named`, or a 1D material spec's."""
    case = cfg.case or "cmp"
    if case in named:
        return named[case]
    return _usage("--case", wave1d.sweep_row, case, cfg.mode_m, cfg.init, cfg.f, also=named)


def _sweep(cfg, art: ArtifactWriter, jobs: int, named: dict, settings: dict) -> tuple:
    """The sweep of `_sweep_row` over the --k levels, each marched once over
    `jobs` processes: it writes the (k, Nx = grid.nx, dx, Er, p) table and
    returns the row, each level's (grid, error) and a report body."""
    ks = _levels(cfg.k)
    row = _sweep_row(cfg, named)
    t_final = _final_time(cfg.final, row.t_final, cfg.case or "cmp", row.named)
    f = None
    if row.exponent is not None:
        f = _finite_steps("--final", _usage, "--case", row.exponent, t_final, 2 ** ks[0])

    def steps(k):  # 2**(k+f) or the CFL step's count, once the level samples its materials
        nt = None if f is None else 2 ** (k + f)
        system = _usage("--case", row.level, 2**k, t_final, nt)[1]
        return nt or math.ceil(t_final / _cfl_dt(system, cfg.safety, "--safety"))

    marched = list(dict.fromkeys([*ks, *(k + 1 for k in ks if row.refine)]))
    counts = [_cfl_steps("--final/--safety" if f is None else "--final/--f", steps, k)
              for k in marched]
    if min(counts) == 0:
        raise ConfigError("--final/--safety: the coarsest level's CFL step count rounds to 0")
    points = [(row.level, 2**k, t_final, nt, row.error) for k, nt in zip(marched, counts)]
    if jobs == 1:
        levels = dict(zip(marched, map(_sweep_level, points)))
    else:
        from concurrent.futures import ProcessPoolExecutor  # a slow import, for pooled runs only

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            levels = dict(zip(marched, pool.map(_sweep_level, points)))
    errors = {k: levels[k] for k in ks}
    if row.refine:
        errors = {k: (grid, row.refine(u, levels[k + 1][1], grid, levels[k + 1][0]))
                  for k, (grid, u) in errors.items()}
    rows = [(grid.dx, float(np.max(np.abs(er)))) for grid, er in errors.values()]
    for k, (_, er) in zip(ks, rows):
        if er == 0.0:
            raise ConfigError(f"--final {t_final!r}: the error at k={k} is exactly zero, "
                              "so no order can be measured")
    pair_orders = wave1d.estimate_order(rows)
    art.table([(k, errors[k][0].nx, dx, er, pair_orders[i - 1] if i else "")
               for i, (k, (dx, er)) in enumerate(zip(ks, rows))])
    return row, errors, {
        "settings": {"case": row.name, "t_final": t_final, **settings, "k": ks},
        "summary": {"errors": [er for _, er in rows]},
        "error_norms": {"finest_max_abs": rows[-1][1]},
        "orders": {"pairwise": pair_orders, "endpoint": endpoint_order(rows)},
        "checks": [],
    }


def _sweep_level(point):
    """One level of a sweep, its row's `level(n, t_final, nt)` marched once:
    its grid and `error(system, f, t_final)`, or with no error its final f."""
    level, n, t_final, nt, error = point
    grid, system = level(n, t_final, nt)
    f = system.march(t_final / nt, nt, record_every=0)[0].f  # the rest of the state goes
    return grid, f if error is None else error(system, f, t_final)


def _profile(grid, er) -> list:
    """The (x, Er, Er/dx^2) profile of a 1D error field er on grid."""
    return list(zip(grid.primal_points(), er, er / grid.dx**2))


def _run_wave1d_convergence(cfg, art: ArtifactWriter) -> dict:
    row, errors, body = _sweep(cfg, art, 1, {}, {"mode_m": cfg.mode_m})
    art.errors(_profile(*errors[max(errors)]))
    p = body["orders"]["endpoint"]
    if row.refine:
        body["checks"] = [_check("order-floor", p, ">= 1.0", p >= 1.0)]
        if row.smooth:
            body["checks"].append(_check("order-second", p, ">= 1.9 (smooth material)", p >= 1.9))
    elif row.half_period(body["settings"]["t_final"]):
        body["checks"] = [_check("order-superconvergent", p, ">= 3.5 (half-period multiple)",
                                 p >= 3.5)]
    else:
        body["checks"] = [_check("order-second", p, "in [1.9, 2.1] (generic final time)",
                                 1.9 <= p <= 2.1)]
    return body


def _run_convergence_table(cfg, art: ArtifactWriter) -> dict:
    return _sweep(cfg, art, cfg.jobs, _NAMED_SWEEPS, {"jobs": cfg.jobs})[2]


# -- transport and diffusion --------------------------------------------------


def _run_transport(cfg, art: ArtifactWriter) -> dict:
    from . import positivity  # compiled only for the commands that march it
    kind, steps, courant = cfg.velocity, cfg.steps, cfg.courant
    if courant is None:
        courant = 1.0 if kind == "constant" else 0.9
    n = cfg.n if cfg.n is not None else (64 if kind == "constant" else 100)
    rho0, v, dx = _usage(f"--n {n}", positivity.transport_profile, kind, n, cfg.speed)

    # the worst per-cell outflow coefficient sets the stable dt
    coeff = positivity.max_outflow(v)
    if coeff <= 0:
        raise ConfigError("velocity field never leaves any cell; nothing to march")
    dt = _checked_dt(courant * dx / coeff,
                     "--courant/--speed" if kind == "constant" else "--courant")

    _check_recorded(cfg.record_every, steps, "--steps")

    state = positivity.TransportState(rho=rho0, v=v, dx=dx, dt=dt)
    mass0 = state.mass
    series = _Series(art, ("step", "t", "mass", "min_rho"), cfg.record_every, dt)
    state = positivity.run_transport(state, steps, records=series)[0]
    series.flush()
    drift, worst_min = series.drift(1, 0.0, mass0), float(series.low[2])
    checks = [
        _check("mass-audit", drift, "<= 1e-13 relative", drift <= 1e-13),
        _check("min-density", worst_min, ">= -1e-16 of peak",
               worst_min >= -1e-16 * float(np.max(rho0))),
        _check("guard-held", float(state.guaranteed), "guard holds all steps", state.guaranteed),
    ]
    if kind == "constant" and courant == 1.0:
        want = positivity.square_wave(n, steps if cfg.speed > 0 else -steps)
        exact = bool(np.array_equal(state.rho, want))
        dev = float(np.max(np.abs(state.rho - want)))
        checks.append(_check("unit-courant-bit-exact", dev, "bitwise index shift", exact))

    return {
        "settings": {"velocity": kind, "n": n, "dx": dx, "dt": dt, "courant": courant,
                     "steps": steps},
        "summary": {"mass_initial": float(mass0), "mass_final": float(state.mass),
                    "escaped": float(state.escaped), "guaranteed": bool(state.guaranteed)},
        "checks": checks,
    }


def _run_diffusion(cfg, art: ArtifactWriter) -> dict:
    from . import positivity  # compiled only for the commands that march it
    n = cfg.n if cfg.n is not None else 101
    steps, every = cfg.steps, cfg.record_every
    dx = 1.0 / n
    d = np.full(n + 1, cfg.diffusivity)
    dt = _checked_dt(cfg.courant * dx * dx / float(np.max(d)), "--courant/--diffusivity")
    _check_recorded(every, steps, "--steps")

    rho = np.zeros(n)
    rho[n // 2] = 1.0
    mass0 = float(np.sum(rho) * dx)
    guard_ok = positivity.positivity_guard(d=d, dt=dt, dx=dx)

    series = _Series(art, ("step", "t", "mass", "min_rho"), every, dt)
    positivity.run_diffusion(rho, d, dx, dt, steps, records=series)
    series.flush()
    worst_drift, worst_min = series.drift(1, 0.0, mass0), float(np.minimum(series.low[2], 0.0))

    checks = [
        _check("mass-conserved", worst_drift, "<= 1e-13 relative", worst_drift <= 1e-13),
        _check("min-density", worst_min, ">= -1e-16 of peak", worst_min >= -1e-16),
        _check("guard-satisfied", float(guard_ok), "flux-pair condition", guard_ok),
    ]
    return {
        "settings": {"n": n, "dx": dx, "dt": dt, "diffusivity": cfg.diffusivity, "steps": steps},
        "summary": {"mass_initial": mass0, "mass_final": float(series.last[1])},
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
    # a body's settings, summary and checks, and its error norms and orders if any
    report = RunReport(command=cfg.command, seed=cfg.seed, artifacts={}, passed=passed,
                       **{"error_norms": {}, "orders": {}, **body},
                       wall_time_s=time.perf_counter() - t0)
    art.report(report)
    return report


# ---------------------------------------------------------------------------
# the command table, and the parser, schema and config files built from it
# ---------------------------------------------------------------------------


def _print_report(report: RunReport):
    for check in report.checks:
        verdict = "PASS" if check["passed"] else "FAIL"
        measured = check["measured"]
        shown = f"{measured:.6e}" if isinstance(measured, float) else str(measured)
        print(f"[{verdict}] {check['name']}: measured {shown} (bound {check['bound']})")
    for key in _ARTIFACTS:
        if report.artifacts.get(key):
            print(f"{key.rsplit('_', 1)[0]}: {report.artifacts[key]}")


def _run_and_print(cfg) -> int:
    report = run(cfg)
    _print_report(report)
    return 0 if report.passed else 1


def _verify_and_print(cfg) -> int:
    from . import verify  # compiled only for this command
    if cfg.suite is None:
        raise ConfigError("verify needs a suite name (or a config file giving one)")
    summary = _usage(None, verify.verify, cfg.suite, sizes=cfg.sizes, trials=cfg.trials,
                     seed=cfg.seed, broken_sign=cfg.broken_sign)
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
    turns the parsed options into the exit code.  `size` names the options
    that size its arrays: arrays too large for memory are a usage error
    naming them (see `_sized`)."""

    help: str
    runner: Callable | None
    options: tuple
    main: Callable = _run_and_print
    size: str | None = None


def _sized(command: Command, cfg) -> int:
    """`command.main(cfg)`, with a MemoryError turned into a usage error
    naming the command's size options: an array the system refuses, or one
    with more bytes than an array can address or than the host's memory
    (`core.addressable`).  A
    command whose options size no array lets it through."""
    try:
        return command.main(cfg)
    except MemoryError as exc:
        if command.size is None:
            raise
        raise ConfigError(f"{command.size}: the arrays of this size do not fit in memory "
                          f"({exc})") from None


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
                          functools.partial(_run_march, _oscillator_march), (
        ("--omega", dict(type=positive_float, default=1.0, help="angular frequency")),
        ("--dt", dict(type=positive_float, default=0.01, help="time step")),
        ("--steps", dict(type=positive_int, default=10_000, help="number of steps")),
        ("--u0", dict(type=float, default=1.0, help="initial displacement")),
        ("--v0", dict(type=float, default=0.0, help="initial velocity")),
        ("--exact-init", dict(action="store_true", help="seed v(dt/2) from the closed form "
                              "instead of the Taylor half step")),
        _RECORD_EVERY,
    )),
    "system": Command("Generic adjoint-pair leapfrog on a named operator preset: 'oscillator' "
                      "is u' = omega v, v' = -omega u (A = A* = -omega, Euclidean products, "
                      "not the oscillator command's pair); 'cmp' the 1D standing mode.",
                      functools.partial(_run_march, _system_march), (
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
    ), size="--nx"),
    "wave1d": Command("1D staggered wave march with conserved-quantity audits.",
                      functools.partial(_run_march, _wave1d_march), (
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
    ), size="--nx"),
    "wave1d-convergence": Command("Grid-halving order study for the 1D march, with order "
                                  "checks.", _run_wave1d_convergence, (
        ("--case", dict(default="cmp", help="'cmp [c=...]' for the mode study or a material "
                        "spec for refine-compare")),
        _K,
        ("--final", dict(default=None, help="final time: a number, 'full-period' (7/8 of the "
                         "period) or 'half-period'")),
        ("--mode-m", dict(type=positive_int, default=1, help="starting mode number")),
        _F,
        _CMP_INIT,
    ), size="--k"),
    "wave2d": Command("2D staggered wave march with conserved-quantity audits.",
                      functools.partial(_run_march, _wave2d_march), (
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
    ), size="--nx/--ny"),
    "wave3d": Command("3D scalar cavity march with conserved-quantity audits.",
                      functools.partial(_run_march, _wave3d_march), (
        *_CUBE,
        ("--t-final", dict(type=positive_float, default=None, help="march to this time "
                           "instead of --steps (also enables the mode error norm)")),
        ("--modes", dict(type=positive_int, nargs=3, default=[1, 1, 1],
                         metavar=("MX", "MY", "MZ"), help="cavity mode numbers")),
        _RECORD_EVERY,
    ), size="--grid"),
    "maxwell": Command("TE cavity march with invariants and divergence audits.",
                      functools.partial(_run_march, _maxwell_march), (
        *_CUBE,
        ("--t-final", dict(type=positive_float, default=None,
                           help="march to this time instead of --steps")),
        _RECORD_EVERY,
    ), size="--grid"),
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
    ), size="--n"),
    "diffusion": Command("Explicit diffusion of a spike under the flux-pair guard.",
                         _run_diffusion, (
        ("--n", dict(type=positive_int, default=None, help="cells (default 101)")),
        _STEPS,
        ("--diffusivity", dict(type=positive_float, default=1.0,
                               help="constant face diffusivity")),
        ("--courant", dict(type=positive_float, default=0.5,
                           help="dt as a multiple of dx^2/max(d); 0.5 is the guard edge")),
        _RECORD_EVERY,
    ), size="--n"),
    "verify": Command("Exactness / adjointness / round-trip / order suites.", None, (
        ("suite", dict(nargs="?", default=None,
                       help="one of mimetic3d, adjoint, wave1d-sbp, all")),
        ("--sizes", dict(type=positive_int, nargs="+", default=[8, 16],
                         help="grid sizes per side")),
        ("--trials", dict(type=positive_int, default=100, help="random trials")),
        ("--broken-sign", dict(action="store_true", help="flip a sign in the adjoint "
                               "identity; the suite must then fail")),
    ), main=_verify_and_print, size="--sizes"),
    "convergence-table": Command("Convergence-table CSV (k, Nx, dx, Er, p) for a named case.",
                                 _run_convergence_table, (
        ("--case", dict(default="cmp", help="'cmp [c=...]', a 1D material spec, wave2d-mode, "
                        "wave3d-cavity, or maxwell-cavity")),
        _K,
        ("--final", dict(default=None,
                         help="final time (number or named; case-dependent default)")),
        ("--mode-m", dict(type=positive_int, default=1,
                          help="starting mode number (1D cases)")),
        _F,
        _CMP_INIT,
        ("--safety", dict(type=positive_float, default=0.9, help="CFL fraction (2D/3D cases)")),
        ("--jobs", dict(type=positive_int, default=1, help="parallel sweep processes")),
    ), size="--k"),
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
        return _sized(COMMANDS[cfg.command], cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
