"""1D wave equation on a staggered grid with pinned ends.

Displacement-like values ``u`` live on the primal points at whole time
steps; flux-like values ``v`` live on the dual (cell-center) points at
half time steps.  Two forms are provided:

* constant materials (``cmp_*``): a single wave speed ``c``, plain
  mean-square norms;
* variable materials (``vmp_*``): density ``rho`` on the primal points
  and stiffness ``tau`` on the dual points, with ``rho``/``1/tau``
  weighted norms.

Both are a ``core.System`` for the leapfrog engine (``u`` first, then
``v`` from the fresh ``u`` — the order matters), so both carry a pair of
conserved quadratic quantities that the tests track to rounding.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    OperatorPair,
    Sweep,
    System,
    SystemState,
    addressable,
    divide_in_place,
    fold_spacing,
    init_g_half,
    system_step,
)

# ---------------------------------------------------------------------------
# grids and materials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid1D:
    """Uniform staggered grid on [a, b] plus the matching time grid.

    Parameters
    ----------
    a, b : float
        Interval ends.
    nx : int
        Number of primal points (>= 3); the dual grid has ``nx - 1``
        cell centers.
    t_final : float
        End of the simulated time interval.
    nt : int
        Number of time steps; ``dt = t_final / nt``.
    """

    a: float
    b: float
    nx: int
    t_final: float
    nt: int

    def __post_init__(self):
        if self.b <= self.a:
            raise ValueError("interval ends must satisfy a < b")
        if self.nx < 3:
            raise ValueError("need at least 3 primal points")
        addressable((self.nx,))
        if self.nt < 1:
            raise ValueError("need at least one time step")
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")

    @property
    def dx(self) -> float:
        return (self.b - self.a) / (self.nx - 1)

    @property
    def dt(self) -> float:
        return self.t_final / self.nt

    def primal_points(self) -> np.ndarray:
        return self.a + self.dx * np.arange(self.nx)

    def dual_points(self) -> np.ndarray:
        return self.a + self.dx * (np.arange(self.nx - 1) + 0.5)


@dataclass(frozen=True)
class Materials1D:
    """Positive density (primal points) and stiffness (dual points)."""

    rho: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        tau = np.asarray(self.tau, dtype=float)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "tau", tau)
        if tau.shape != (rho.shape[0] - 1,):
            raise ValueError("tau must have one entry per dual point (len(rho) - 1)")
        if not np.all(rho > 0) or not np.all(tau > 0):
            raise ValueError("material properties must be positive everywhere")

    @classmethod
    def from_profiles(cls, grid: Grid1D, rho_fn: Callable, tau_fn: Callable) -> "Materials1D":
        """Sample rho at the primal points and tau at the dual points."""
        return cls(rho=np.asarray(rho_fn(grid.primal_points()), dtype=float),
                   tau=np.asarray(tau_fn(grid.dual_points()), dtype=float))


# ---------------------------------------------------------------------------
# staggered difference operators
# ---------------------------------------------------------------------------


def grad1(u: np.ndarray, dx: float) -> np.ndarray:
    """Forward difference of a primal field onto the dual points."""
    u = np.asarray(u)
    if u.shape[0] < 2:
        raise ValueError("need at least two primal values")
    return np.diff(u) / dx


def div1(v: np.ndarray, dx: float) -> np.ndarray:
    """Centered difference of a dual field back onto the primal points.

    The two boundary entries are zero: the end values of ``u`` are pinned
    and never updated.
    """
    v = np.asarray(v)
    if v.shape[0] < 2:
        raise ValueError("need at least two dual values")
    out = np.zeros(v.shape[0] + 1)
    out[1:-1] = np.diff(v) / dx
    return out


def _planner(dx: float, u_weight, v_weight, *, u_divides: bool = False):
    """The `plan` of a pair with A = v_weight grad1 and A* = -div1 weighted
    by u_weight, which multiplies (cmp's c) or, with `u_divides`, divides
    (vmp's rho); None marks a weight of exactly 1, which changes no bit and
    is skipped.

    The difference is formed in a work array the pair owns, weighted and
    scaled in place, and added into `out`: the sign of A* is folded into the
    add, since x - dt * (-t) is x + dt * t bit for bit.  The two pinned ends
    of a u update get a zero difference, weighted and scaled like the
    interior, as div1's zero rim is.  On a power-of-two dx the plan never
    divides the difference: 1/dx rides on the weight, or on dt when the
    weight is 1 (`fold_spacing`).  A plan binds y's two shifted views, its
    work array, weight, ufuncs and factor once, so a call is its three to
    five ufunc calls (one more where it divides by dx) and little else: the
    refinement sweeps make tens of thousands of them on arrays of 17 to 2049
    entries.
    """
    sides = []  # v and u update: work array, its difference part, weighting ufunc, fold

    def plan(x, y, dt, out, adjoint):
        if not sides:
            n = x.shape[0] if adjoint else y.shape[0]  # primal points
            w_v, w_u = np.empty(n - 1), np.empty(n)
            sides.append((w_v, w_v, np.multiply, fold_spacing((dx,), v_weight)))
            sides.append((w_u, w_u[1:-1], np.true_divide if u_divides else np.multiply,
                          fold_spacing((dx,), u_weight, divides=u_divides)))
        w, diff, weigh, fold = sides[adjoint]
        scale, divide = fold.scale(dt)
        weight = fold.weight
        hi, lo = y[1:], y[:-1]
        subtract, multiply, add = np.subtract, np.multiply, np.add

        def run():
            subtract(hi, lo, diff)
            if divide:
                divide_in_place(diff, dx)
            if adjoint:
                w[0] = w[-1] = 0.0
            if weight is not None:
                weigh(w, weight, w)
            multiply(w, scale, w)
            return add(x, w, out)

        return run

    return plan


def cmp_operator_pair(c: float, grid: Grid1D) -> OperatorPair:
    """Constant-material operators: A = c*grad1, A* = -c*div1.

    Its `plan` multiplies by c (by c/dx, scaled once, on a
    power-of-two dx), and skips a c of exactly 1.0: -c * d is -(c * d) bit
    for bit, so the sign folds into the add.
    """
    dx = grid.dx
    weight = None if c == 1.0 else c
    return OperatorPair(
        apply_A=lambda u: c * grad1(u, dx),
        apply_Astar=lambda v: -c * div1(v, dx),
        norm_bound_A=2.0 * abs(c) / dx,
        plan=_planner(dx, weight, weight),
    )


def vmp_operator_pair(materials: Materials1D, grid: Grid1D) -> OperatorPair:
    """Variable-material operators: A = tau*grad1, A* = -div1/rho.

    Adjoint with respect to the rho/tau weighted inner products below;
    the norm bound uses the maximum wave speed estimate.  Its `plan`
    divides by rho and multiplies by tau in place (by rho*dx and tau/dx on a
    power-of-two dx), each skipped where it is exactly 1.0 everywhere.
    """
    dx = grid.dx
    rho, tau = materials.rho, materials.tau
    bound = 2.0 * cfl_speed(materials) / dx
    return OperatorPair(
        apply_A=lambda u: tau * grad1(u, dx),
        apply_Astar=lambda v: -div1(v, dx) / rho,
        norm_bound_A=bound,
        plan=_planner(dx, None if np.all(rho == 1.0) else rho,
                      None if np.all(tau == 1.0) else tau, u_divides=True),
    )


# ---------------------------------------------------------------------------
# inner products and the `System`s of the core engine
# ---------------------------------------------------------------------------


def weighted_inner_rho(u1, u2, materials: Materials1D, grid: Grid1D) -> float:
    """Sum of u1*u2*rho*dx over all primal points (uniform weight)."""
    u1, u2 = np.asarray(u1), np.asarray(u2)
    if u1.shape != u2.shape or u1.shape != materials.rho.shape:
        raise ValueError("length mismatch in rho-weighted inner product")
    return float(np.sum(u1 * u2 * materials.rho) * grid.dx)


def weighted_inner_tau(v1, v2, materials: Materials1D, grid: Grid1D) -> float:
    """Sum of v1*v2*dx/tau over the dual points."""
    v1, v2 = np.asarray(v1), np.asarray(v2)
    if v1.shape != v2.shape or v1.shape != materials.tau.shape:
        raise ValueError("length mismatch in tau-weighted inner product")
    return float(np.sum(v1 * v2 / materials.tau) * grid.dx)


def cmp_system(c: float, grid: Grid1D, *, m: int = 1, init: str = "exact") -> System:
    """Constant materials as a `core.System`: plain dx-weighted sums on both
    grids, starting from the standing mode m, whose v at dt/2 is the mode
    sampled there ("exact") or the Taylor half step from v(x, 0) = 0
    ("taylor")."""
    if init not in ("exact", "taylor"):
        raise ValueError(f"unknown init {init!r}")
    dx = grid.dx
    ops = cmp_operator_pair(c, grid)

    def inner(a, b):
        return float(np.sum(a * b) * dx)

    def start(dt):
        u0 = standing_mode_u(grid.primal_points(), 0.0, m, c)
        if init == "exact":
            return u0, standing_mode_v(grid.dual_points(), dt / 2, m, c)
        return u0, init_g_half(u0, np.zeros(grid.nx - 1), ops, dt)

    return System(ops, inner, inner, cfl_dt=lambda safety: safety * dx / abs(c), start=start,
                  exact=lambda t: standing_mode_u(grid.primal_points(), t, m, c))


def vmp_system(materials: Materials1D, grid: Grid1D, *, m: int = 1) -> System:
    """Variable materials as a `core.System`: the rho-weighted product on u
    and the 1/tau-weighted product on v, starting from u = sin(m pi x) with
    the Taylor half step from v(x, 0) = 0."""
    ops = vmp_operator_pair(materials, grid)

    def start(dt):
        u0 = np.sin(m * np.pi * grid.primal_points())
        return u0, init_g_half(u0, np.zeros(grid.nx - 1), ops, dt)

    return System(
        ops,
        lambda a, b: weighted_inner_rho(a, b, materials, grid),
        lambda a, b: weighted_inner_tau(a, b, materials, grid),
        cfl_dt=lambda safety: safety * grid.dx / cfl_speed(materials),
        start=start,
    )


# ---------------------------------------------------------------------------
# one time step (u first, then v from the updated u)
# ---------------------------------------------------------------------------


# both steps are kept by name for perfbench's setup probe, until it times the engine itself
def cmp_step(state: SystemState, c: float, grid: Grid1D) -> SystemState:
    return system_step(state, cmp_operator_pair(c, grid))


def vmp_step(state: SystemState, materials: Materials1D, grid: Grid1D) -> SystemState:
    return system_step(state, vmp_operator_pair(materials, grid))


def cfl_speed(materials: Materials1D) -> float:
    """Largest wave speed estimate sqrt(max tau / min rho).

    For constant materials the speed is just c.
    """
    return math.sqrt(float(np.max(materials.tau)) / float(np.min(materials.rho)))


def refinement_exponent(speed: float, length: float, t_final: float,
                        cap: float = 0.9) -> int:
    """Smallest f so that speed*dt/dx = speed*t_final/(length*2^f) <= cap."""
    f = 0
    while speed * t_final / (length * 2**f) > cap:
        f += 1
    return f


# ---------------------------------------------------------------------------
# standing-mode solution for constant materials (pinned ends on [0, 1])
# ---------------------------------------------------------------------------


def standing_mode_u(x, t, m: int = 1, c: float = 1.0):
    return np.cos(m * np.pi * c * t) * np.sin(m * np.pi * np.asarray(x))


def standing_mode_v(x, t, m: int = 1, c: float = 1.0):
    return np.sin(m * np.pi * c * t) * np.cos(m * np.pi * np.asarray(x))


# ---------------------------------------------------------------------------
# convergence measurement
# ---------------------------------------------------------------------------


def estimate_order(errors) -> list:
    """Observed order per adjacent (dx, Er) pair, finest pairs last."""
    errors = list(errors)
    if len(errors) < 2:
        raise ValueError("need at least two (dx, error) pairs")
    if any(dx <= 0 or er <= 0 for dx, er in errors):
        raise ValueError("spacings and errors must be positive")
    return [(math.log(e1) - math.log(e2)) / (math.log(d1) - math.log(d2))
            for (d1, e1), (d2, e2) in zip(errors, errors[1:])]


def refine_compare(u_coarse, u_fine, coarse: Grid1D, fine: Grid1D):
    """Error estimate er on the coarse points from a once-halved companion run."""
    if fine.nx != 2 * (coarse.nx - 1) + 1 or fine.nt != 2 * coarse.nt:
        raise ValueError("fine grid must halve the coarse spacing in x and t")
    return np.asarray(u_coarse) - np.asarray(u_fine)[::2]


# ---------------------------------------------------------------------------
# material profiles for the standard test suite
# ---------------------------------------------------------------------------


def heaviside(x):
    """Unit step, right-continuous: 1 where x >= 0."""
    return np.where(np.asarray(x) >= 0.0, 1.0, 0.0)


def constant_profile(value: float = 1.0):
    return lambda x: np.full_like(np.asarray(x, dtype=float), value)


def linear_profile(slope: float):
    return lambda x: 1.0 + slope * np.asarray(x)


def bump_profile(p: int):
    return lambda x: 1.0 + (2.0 * np.asarray(x) * (1.0 - np.asarray(x))) ** p


def piecewise_linear_profile(a: float = 0.25, b: float = 0.75,
                             lo: float = 1.0, hi: float = 2.0):
    """lo left of a, hi right of b, linear ramp in between (flat ends)."""
    def profile(x):
        x = np.asarray(x, dtype=float)
        ramp = ((a * hi - b * lo) + (lo - hi) * x) / (a - b)
        return (lo * (1.0 - heaviside(x - a)) + hi * heaviside(x - b)
                + ramp * (heaviside(x - a) - heaviside(x - b)))
    return profile


def jump_profile(delta: float, at: float = 0.5):
    return lambda x: 1.0 + delta * heaviside(np.asarray(x) - at)


ONE = constant_profile(1.0)

MATERIAL_PRESETS = {
    "constant": (ONE, ONE),
    "rho-linear-up": (linear_profile(+0.5), ONE),
    "rho-linear-down": (linear_profile(-0.5), ONE),
    "tau-linear-up": (ONE, linear_profile(+0.5)),
    "tau-linear-down": (ONE, linear_profile(-0.5)),
    "bump-p1-q1": (bump_profile(1), bump_profile(1)),
    "bump-p1-q2": (bump_profile(1), bump_profile(2)),
    "bump-p2-q1": (bump_profile(2), bump_profile(1)),
    "bump-p2-q2": (bump_profile(2), bump_profile(2)),
    "rho-piecewise": (piecewise_linear_profile(), ONE),
    "tau-piecewise": (ONE, piecewise_linear_profile()),
    "rho-jump-up": (jump_profile(+0.5), ONE),
    "rho-jump-down": (jump_profile(-0.5), ONE),
    "tau-jump-up": (ONE, jump_profile(+0.5)),
    "tau-jump-down": (ONE, jump_profile(-0.5)),
}


_TARGETS = ("rho", "tau")


def parse_material_1d(spec: str, also=()) -> dict:
    """Parse a 1D material spec into profile functions (or a cmp speed).

    Accepted forms (tokens separated by spaces):

    * ``cmp`` or ``cmp c=2.0``               — constant-material, speed c;
    * any preset name from ``MATERIAL_PRESETS`` (e.g. ``bump-p2-q2``);
    * ``linear rho|tau [slope]``             — one linear coefficient;
    * ``bump P Q``                           — rho bump power P, tau power Q;
    * ``piecewise-linear A B C D [rho|tau]`` — ramp between plateaus;
    * ``jump up|down [rho|tau]``             — a +-1/2 step at x = 1/2.

    Returns {"kind": "cmp", "c": float} or {"kind": "vmp", "name": str,
    "rho": fn, "tau": fn}; any other spec is a ValueError, whose text for an
    unknown name lists the caller's other names, `also`.
    """
    tokens = str(spec).strip().split()
    if not tokens:
        raise ValueError("empty material spec")
    head, rest = tokens[0], tokens[1:]

    def number(parse, token):  # int or float, naming a token it cannot parse
        try:
            return parse(token)
        except ValueError:
            raise ValueError(f"bad number {token!r} in material spec {spec!r}") from None

    if head == "cmp":
        c = 1.0
        for tok in rest:
            m = re.fullmatch(r"c=([-+0-9.eE]+)", tok)
            if not m:
                raise ValueError(f"bad cmp material token {tok!r} (use 'cmp c=2.0')")
            c = number(float, m.group(1))
        if not c > 0:
            raise ValueError(f"cmp speed must be positive, got {c}")
        return {"kind": "cmp", "c": c}

    def vmp(name, rho_fn, tau_fn):
        return {"kind": "vmp", "name": name, "rho": rho_fn, "tau": tau_fn}

    def one_sided(name, target, fn):
        return vmp(name, fn, ONE) if target == "rho" else vmp(name, ONE, fn)

    if head in MATERIAL_PRESETS and not rest:
        return vmp(head, *MATERIAL_PRESETS[head])

    def target_of(tok_list, default="rho"):
        names = [t for t in tok_list if t in _TARGETS]
        if len(names) > 1:
            raise ValueError(f"material spec names both targets: {spec!r}")
        return names[0] if names else default, [t for t in tok_list if t not in _TARGETS]

    if head == "linear":
        target, nums = target_of(rest)
        if len(nums) > 1:
            raise ValueError(f"linear takes at most one slope, got {spec!r}")
        slope = number(float, nums[0]) if nums else 0.5
        if not math.isfinite(slope):
            raise ValueError(f"linear needs a finite slope, got {spec!r}")
        return one_sided(f"linear-{target}", target, linear_profile(slope))

    if head == "bump":
        if len(rest) != 2:
            raise ValueError(f"bump needs two powers, got {spec!r}")
        p, q = (number(int, v) for v in rest)
        if p < 1 or q < 1:
            raise ValueError("bump powers must be >= 1")
        return vmp(f"bump-p{p}-q{q}", bump_profile(p), bump_profile(q))

    if head == "piecewise-linear":
        target, nums = target_of(rest)
        if len(nums) != 4:
            raise ValueError(f"piecewise-linear needs a b c d, got {spec!r}")
        a, b, c, d = (number(float, v) for v in nums)
        fn = piecewise_linear_profile(a, b, c, d)
        return one_sided(f"piecewise-{target}", target, fn)

    if head == "jump":
        target, nums = target_of(rest)
        if len(nums) != 1 or nums[0] not in ("up", "down"):
            raise ValueError(f"jump needs 'up' or 'down', got {spec!r}")
        fn = jump_profile(+0.5 if nums[0] == "up" else -0.5)
        return one_sided(f"{target}-jump-{nums[0]}", target, fn)

    others = f"; or one of {list(also)}" if also else ""
    raise ValueError(
        f"unknown 1D material {spec!r}; use 'cmp c=...', a preset name, or one "
        f"of linear/bump/piecewise-linear/jump{others}"
    )


# -- convergence-sweep rows: a level builder of each kind, and the row of a spec


def _cmp_level(m: int, c: float, init: str, n: int, t_final: float, nt: int) -> tuple:
    grid = Grid1D(a=0.0, b=1.0, nx=n + 1, t_final=t_final, nt=nt)
    return grid, cmp_system(c, grid, m=m, init=init)


def _vmp_level(m: int, spec: str, n: int, t_final: float, nt: int) -> tuple:
    grid = Grid1D(a=0.0, b=1.0, nx=n + 1, t_final=t_final, nt=nt)
    mat = parse_material_1d(spec)
    return grid, vmp_system(Materials1D.from_profiles(grid, mat["rho"], mat["tau"]), grid, m=m)


def _error_field(system: System, u, t: float):
    return u - system.exact(t)


def sweep_row(spec: str, m: int = 1, init: str = "exact", f: int | None = None, *,
              also=()) -> Sweep:
    """The sweep of a 1D material spec (`parse_material_1d`, which is told
    `also`) from mode m, each level of 2**k cells marched in 2**(k+f) steps;
    an unset f is the fewest that keep the coarsest level's Courant number
    at most 0.9.  cmp starts from `init` and is measured against its
    standing mode; a variable material, which has no exact solution, is
    compared with level k+1."""
    mat = parse_material_1d(spec, also)
    if mat["kind"] == "cmp":
        c = mat["c"]
        # The standing mode's period is 2/(m c).  "full-period" is 7/8 of it,
        # a generic time where the scheme's phase lag dominates and the order
        # is 2; "half-period" is half of it, where the phase-lag term cancels
        # and the measured order jumps to ~4.
        named = {"full-period": 1.75 / (m * c), "half-period": 1.0 / (m * c)}

        def half_period(t):  # t a whole multiple of the half period
            ratio = t * m * c
            return abs(ratio - round(ratio)) < 1e-9 and round(ratio) >= 1

        return Sweep(f"cmp c={c:g}", functools.partial(_cmp_level, m, c, init),
                     named["full-period"], named,
                     lambda t, n0: refinement_exponent(c, 1.0, t) if f is None else f,
                     _error_field, half_period=half_period)

    def exponent(t, n0):  # from the wave speed of the first level, of n0 cells
        grid = Grid1D(a=0.0, b=1.0, nx=n0 + 1, t_final=1.0, nt=1)
        speed = cfl_speed(Materials1D.from_profiles(grid, mat["rho"], mat["tau"]))
        return refinement_exponent(speed, 1.0, t) if f is None else f

    return Sweep(mat["name"], functools.partial(_vmp_level, m, spec), 2.0, exponent=exponent,
                 error=None, refine=refine_compare,
                 smooth=mat["name"] in ("constant", "bump-p2-q2"))  # must reach second order
