"""Per-layer tracing by wrapping stagwave's public functions from outside.

Nothing under ``src/`` changes: every public function of the measured
modules is replaced, in every stagwave namespace that holds a reference to
it, by a wrapper that counts calls and times them.  A layer's self time is
its inclusive time minus the time of the wrapped calls it made.
``positivity`` is not measured.

`Tracer.metrics` turns the raw counters into the per-layer metrics named in
BENCHMARK.json, each normalised per workload run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

MEASURED = ("cli", "core", "oscillator", "wave1d", "wave2d", "wave3d", "mimetic3d")

# Star3 constructors and ArtifactWriter methods are public callables that
# live on classes, so they are wrapped on the class.
CLASS_METHODS = {
    ("mimetic3d", "Star3"): ("trivial", "from_scalars", "from_diagonals", "from_matrices"),
    ("cli", "ArtifactWriter"): ("series", "errors", "table", "report"),
}

# Operator and star applications of the 3D calculus; `ops_per_step` and
# `bytes_per_step` count these inside 3D marches.
OPS_3D = (
    "grad3", "curl3", "div3", "grad3_star", "curl3_star", "div3_star",
    "star_matrix", "star_scalar", "star_scalar_inverse",
)
STEPS_3D = ("wave3d.maxwell_step", "wave3d.scalar_wave_step")
RUNNERS_3D = ("wave3d.run_maxwell", "wave3d.run_scalar_wave")
# Direct children of a 3D runner that are not audits.
NOT_AUDIT = STEPS_3D + ("wave3d.suggest_dt",)
LOWDIM_STEPS = (
    "wave1d.vmp_step", "wave1d.cmp_step", "wave2d.wave2d_step",
    "oscillator.leapfrog_step", "core.system_step",
)
# Every leapfrog step function; `setup_s` ends at the first call of any.
STEPS = STEPS_3D + LOWDIM_STEPS

# Groups whose time counts once per outermost call (constructors nest).
GROUPS = {
    "mimetic3d.Star3.trivial": "star_build",
    "mimetic3d.Star3.from_scalars": "star_build",
    "mimetic3d.Star3.from_diagonals": "star_build",
    "mimetic3d.Star3.from_matrices": "star_build",
    "cli.ArtifactWriter.series": "artifacts",
    "cli.ArtifactWriter.errors": "artifacts",
    "cli.ArtifactWriter.table": "artifacts",
    "cli.ArtifactWriter.report": "artifacts",
    "wave3d.te_cavity_e": "init3d",
    "wave3d.te_cavity_h": "init3d",
    "wave3d.cavity_mode_s": "init3d",
    "wave3d.cavity_mode_v": "init3d",
    "wave3d.maxwell_init_h": "init3d",
    "wave3d.scalar_wave_init_v": "init3d",
}


def stagwave_modules():
    """The measured modules, imported from the stagwave package."""
    return {name: importlib.import_module(f"stagwave.{name}") for name in MEASURED}


def public_functions(module):
    """Functions defined in `module` whose names do not start with '_'."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


def replace_everywhere(modules, original, replacement, undo):
    """Rebind every module-level reference to `original`; log undo steps."""
    for module in modules.values():
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                undo.append((module, name, original))


def nbytes(value) -> int:
    """Bytes held by an array or a VectorField3; 0 for anything else."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    comps = getattr(value, "components", None)
    if comps is not None:
        return sum(c.nbytes for c in comps)
    return 0


def computed_bytes(op: str, args, result) -> int:
    """Bytes an operator application moves, computed from array shapes:
    array operands read plus the result written, plus one weight read per
    output entry for a star.  Cache misses are not modelled."""
    moved = nbytes(result) + sum(nbytes(a) for a in args)
    if op.startswith("star_"):
        moved += nbytes(result)
    return moved


class Tracer:
    """Call counts and inclusive/self times of stagwave's public functions."""

    def __init__(self):
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.group_s = defaultdict(float)
        self.audit_s = 0.0
        self.run_system_steps = 0
        self.march_ops = 0
        self.march_bytes = 0
        self._stack = []
        self._group_depth = Counter()
        self._march_depth = 0
        self._undo = []

    # -- installation ----------------------------------------------------

    def install(self):
        modules = stagwave_modules()
        for mod_name, module in modules.items():
            for fn_name, fn in public_functions(module).items():
                wrapper = self._wrap(f"{mod_name}.{fn_name}", fn)
                replace_everywhere(modules, fn, wrapper, self._undo)
        for (mod_name, cls_name), methods in CLASS_METHODS.items():
            cls = getattr(modules[mod_name], cls_name)
            for method in methods:
                descriptor = cls.__dict__[method]
                name = f"{mod_name}.{cls_name}.{method}"
                if isinstance(descriptor, classmethod):
                    wrapped = classmethod(self._wrap(name, descriptor.__func__))
                else:
                    wrapped = self._wrap(name, descriptor)
                setattr(cls, method, wrapped)
                self._undo.append((cls, method, descriptor))
        return self

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _wrap(self, name, fn):
        group = GROUPS.get(name)
        short = name.rsplit(".", 1)[-1]
        is_op = name.startswith("mimetic3d.") and short in OPS_3D
        is_march = name in STEPS_3D or name in RUNNERS_3D
        is_runner = name in RUNNERS_3D
        not_audit = name in NOT_AUDIT
        is_run_system = name == "core.run_system"
        stack, group_depth = self._stack, self._group_depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, 0.0]  # wrapped-children time, non-audit-children time
            stack.append(frame)
            outer = group is not None and group_depth[group] == 0
            if group is not None:
                group_depth[group] += 1
            if is_march:
                self._march_depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                if group is not None:
                    group_depth[group] -= 1
                    if outer:
                        self.group_s[group] += elapsed
                if is_march:
                    self._march_depth -= 1
                if stack:
                    stack[-1][0] += elapsed
                    if not_audit:
                        stack[-1][1] += elapsed
                self.calls[name] += 1
                self.incl[name] += elapsed
                self.self_s[name] += elapsed - frame[0]
                if is_runner:
                    self.audit_s += elapsed - frame[1]
            if is_op and self._march_depth:
                self.march_ops += 1
                self.march_bytes += computed_bytes(short, args, result)
            if is_run_system:
                self.run_system_steps += kwargs.get("n_steps", args[4] if len(args) > 4 else 0)
            return result

        return traced

    # -- derived metrics -------------------------------------------------

    def metrics(self, reps: int, traced_run_s: float) -> dict:
        """Per-layer metrics, each per workload run (totals / reps)."""
        calls, incl, self_s = self.calls, self.incl, self.self_s

        def per_call(name, scale):
            return incl[name] / calls[name] * scale if calls[name] else 0.0

        def share(seconds):
            return seconds / reps / traced_run_s if traced_run_s > 0 else 0.0

        steps_3d = sum(calls[n] for n in STEPS_3D)
        step_3d_s = sum(incl[n] for n in STEPS_3D)
        lowdim_s = sum(incl[n] for n in LOWDIM_STEPS)
        dispatch_s = incl["cli.main"] - incl["cli.run"]
        out = {
            "wave3d.audit_s": (self.audit_s / reps, "s"),
            "wave3d.audit.share": (share(self.audit_s), "ratio"),
            "wave3d.record_ratio": (
                (step_3d_s + self.audit_s) / step_3d_s if step_3d_s else 0.0, "ratio"
            ),
            "mimetic3d.ops_per_step": (self.march_ops / steps_3d if steps_3d else 0.0, "count"),
            "mimetic3d.bytes_per_step": (
                self.march_bytes / steps_3d if steps_3d else 0.0, "B-computed"
            ),
            "mimetic3d.inner3.calls": (calls["mimetic3d.inner3"] / reps, "count"),
            "mimetic3d.inner3.self_s": (self_s["mimetic3d.inner3"] / reps, "s"),
            "wave3d.maxwell_step.ms_per_call": (per_call("wave3d.maxwell_step", 1e3), "ms"),
            "wave3d.maxwell_step.calls": (calls["wave3d.maxwell_step"] / reps, "count"),
            "wave3d.maxwell_step.share": (share(incl["wave3d.maxwell_step"]), "ratio"),
        }
        for op in ("grad3", "curl3", "div3", "grad3_star", "curl3_star", "div3_star", "star_matrix"):
            out[f"mimetic3d.{op}.calls"] = (calls[f"mimetic3d.{op}"] / reps, "count")
            out[f"mimetic3d.{op}.self_s"] = (self_s[f"mimetic3d.{op}"] / reps, "s")
        out.update({
            "wave1d.vmp_step.us_per_call": (per_call("wave1d.vmp_step", 1e6), "us"),
            "wave1d.vmp_step.calls": (calls["wave1d.vmp_step"] / reps, "count"),
            "wave2d.wave2d_step.us_per_call": (per_call("wave2d.wave2d_step", 1e6), "us"),
            "wave2d.wave2d_step.calls": (calls["wave2d.wave2d_step"] / reps, "count"),
            "oscillator.leapfrog_step.us_per_call": (
                per_call("oscillator.leapfrog_step", 1e6), "us"
            ),
            "core.run_system.us_per_step": (
                incl["core.run_system"] / self.run_system_steps * 1e6
                if self.run_system_steps else 0.0,
                "us",
            ),
            "lowdim.step_share": (share(lowdim_s), "ratio"),
            "core.init_g_half_s": (incl["core.init_g_half"] / reps, "s"),
            "mimetic3d.star_build_s": (self.group_s["star_build"] / reps, "s"),
            "wave3d.init_s": (self.group_s["init3d"] / reps, "s"),
            "cli.artifacts_s": (self.group_s["artifacts"] / reps, "s"),
            "cli.dispatch_s": (dispatch_s / reps, "s"),
        })
        return out
