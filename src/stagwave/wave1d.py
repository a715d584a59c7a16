"""1D wave equation on a staggered grid with pinned ends.

Displacement-like values ``u`` live on the primal points at whole time
steps; flux-like values ``v`` live on the dual (cell-center) points at
half time steps.  Two forms are provided:

* constant materials (``cmp_*``): a single wave speed ``c``, plain
  mean-square norms;
* variable materials (``vmp_*``): density ``rho`` on the primal points
  and stiffness ``tau`` on the dual points, with ``rho``/``1/tau``
  weighted norms.

Both are an operator pair and two inner products for the leapfrog engine
in ``core`` (``u`` first, then ``v`` from the fresh ``u`` — the order
matters), so both carry a pair of conserved quadratic quantities that the
tests track to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    OperatorPair,
    SystemState,
    divide_in_place,
    fold_spacing,
    init_g_half,
    run_system,
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


def _update_hook(dx: float, u_weight, v_weight, *, u_divides: bool = False):
    """The in-place `update` of a pair with A = v_weight grad1 and A* =
    -div1 weighted by u_weight, which multiplies (cmp's c) or, with
    `u_divides`, divides (vmp's rho); None marks a weight of exactly 1,
    which changes no bit and is skipped.

    The difference is formed in a work array the hook owns, weighted and
    scaled in place, and added into `out`: the sign of A* is folded into the
    add, since x - dt * (-t) is x + dt * t bit for bit.  The two pinned ends
    of a u update get a zero difference, weighted and scaled like the
    interior, as div1's zero rim is.  On a power-of-two dx the hook never
    divides the difference: 1/dx rides on the weight, or on dt when the
    weight is 1 (`fold_spacing`).
    """
    sides = []  # v and u update: work array, its difference part, weighting ufunc, fold

    def update(x, y, dt, out, adjoint):
        if not sides:
            n = x.shape[0] if adjoint else y.shape[0]  # primal points
            w_v, w_u = np.empty(n - 1), np.empty(n)
            sides.append((w_v, w_v, np.multiply, fold_spacing((dx,), v_weight)))
            sides.append((w_u, w_u[1:-1], np.true_divide if u_divides else np.multiply,
                          fold_spacing((dx,), u_weight, divides=u_divides)))
        w, diff, weigh, fold = sides[adjoint]
        scale, divide = fold.scale(dt)
        np.subtract(y[1:], y[:-1], diff)
        if divide:
            divide_in_place(diff, dx)
        if adjoint:
            w[0] = w[-1] = 0.0
        if fold.weight is not None:
            weigh(w, fold.weight, w)
        np.multiply(w, scale, w)
        return np.add(x, w, out)

    return update


def cmp_operator_pair(c: float, grid: Grid1D) -> OperatorPair:
    """Constant-material operators: A = c*grad1, A* = -c*div1.

    Its `update` hook multiplies by c (by c/dx, scaled once, on a
    power-of-two dx), and skips a c of exactly 1.0: -c * d is -(c * d) bit
    for bit, so the sign folds into the add.
    """
    dx = grid.dx
    weight = None if c == 1.0 else c
    return OperatorPair(
        apply_A=lambda u: c * grad1(u, dx),
        apply_Astar=lambda v: -c * div1(v, dx),
        norm_bound_A=2.0 * abs(c) / dx,
        norm_bound_Astar=2.0 * abs(c) / dx,
        update=_update_hook(dx, weight, weight),
    )


def vmp_operator_pair(materials: Materials1D, grid: Grid1D) -> OperatorPair:
    """Variable-material operators: A = tau*grad1, A* = -div1/rho.

    Adjoint with respect to the rho/tau weighted inner products below;
    the norm bound uses the maximum wave speed estimate.  Its `update` hook
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
        norm_bound_Astar=bound,
        update=_update_hook(dx, None if np.all(rho == 1.0) else rho,
                            None if np.all(tau == 1.0) else tau, u_divides=True),
    )


# ---------------------------------------------------------------------------
# inner products and the (pair, inner_X, inner_Y) systems of the core engine
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


def cmp_system(c: float, grid: Grid1D):
    """(pair, inner_X, inner_Y) for the core engine, constant materials:
    plain dx-weighted sums on both grids."""
    dx = grid.dx

    def inner(a, b):
        return float(np.sum(a * b) * dx)

    return cmp_operator_pair(c, grid), inner, inner


def vmp_system(materials: Materials1D, grid: Grid1D):
    """(pair, inner_X, inner_Y) for the core engine, variable materials:
    the rho-weighted product on u and the 1/tau-weighted product on v."""
    return (
        vmp_operator_pair(materials, grid),
        lambda a, b: weighted_inner_rho(a, b, materials, grid),
        lambda a, b: weighted_inner_tau(a, b, materials, grid),
    )


# ---------------------------------------------------------------------------
# one time step (u first, then v from the updated u) and the half-step start
# ---------------------------------------------------------------------------


# both steps are kept by name for perfbench's setup probe, until it times the engine itself
def cmp_step(state: SystemState, c: float, grid: Grid1D) -> SystemState:
    return system_step(state, cmp_operator_pair(c, grid))


def vmp_step(state: SystemState, materials: Materials1D, grid: Grid1D) -> SystemState:
    return system_step(state, vmp_operator_pair(materials, grid))


def taylor_v_half_vmp(u0, v0, materials: Materials1D, grid: Grid1D) -> np.ndarray:
    """Half-step start value for v from whole-step data (u0, v0)."""
    return init_g_half(np.asarray(u0, float), np.asarray(v0, float),
                       vmp_operator_pair(materials, grid), grid.dt)


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
# simulation drivers
# ---------------------------------------------------------------------------


def _run(system, grid: Grid1D, u0, v_half, record_every: int):
    ops, inner_X, inner_Y = system
    return run_system(np.asarray(u0, float), None, ops, grid.dt, grid.nt, inner_X, inner_Y,
                      g_half0=np.asarray(v_half, float), record_every=record_every)


def run_cmp(grid: Grid1D, c: float, u0, v_half, *, record_every: int = 1):
    """March nt steps; returns (final SystemState, [(step, C_n, C_half), ...])."""
    return _run(cmp_system(c, grid), grid, u0, v_half, record_every)


def run_vmp(grid: Grid1D, materials: Materials1D, u0, v_half, *,
            record_every: int = 1):
    return _run(vmp_system(materials, grid), grid, u0, v_half, record_every)


def v_at_final_time(v_half_last, v_half_prev) -> np.ndarray:
    """v at the final whole step: mean of the two bracketing half steps."""
    return 0.5 * (np.asarray(v_half_last) + np.asarray(v_half_prev))


# ---------------------------------------------------------------------------
# standing-mode solution for constant materials (pinned ends on [0, 1])
# ---------------------------------------------------------------------------


def standing_mode_u(x, t, m: int = 1, c: float = 1.0):
    return np.cos(m * np.pi * c * t) * np.sin(m * np.pi * np.asarray(x))


def standing_mode_v(x, t, m: int = 1, c: float = 1.0):
    return np.sin(m * np.pi * c * t) * np.cos(m * np.pi * np.asarray(x))


def cmp_mode_start(grid: Grid1D, m: int = 1, c: float = 1.0, init: str = "exact"):
    """(u0, v_half) for the standing mode: "exact" samples v at dt/2,
    "taylor" takes the Taylor half step from v(x, 0) = 0."""
    u0 = standing_mode_u(grid.primal_points(), 0.0, m, c)
    if init == "exact":
        return u0, standing_mode_v(grid.dual_points(), grid.dt / 2, m, c)
    if init == "taylor":
        return u0, init_g_half(u0, np.zeros(grid.nx - 1), cmp_operator_pair(c, grid), grid.dt)
    raise ValueError(f"unknown init {init!r}")


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
    """Error estimate on the coarse points from a once-halved companion run.

    Returns (er, er / dx^2); the scaled field is what overlaps across
    refinement levels when the order is two.
    """
    if fine.nx != 2 * (coarse.nx - 1) + 1 or fine.nt != 2 * coarse.nt:
        raise ValueError("fine grid must halve the coarse spacing in x and t")
    er = np.asarray(u_coarse) - np.asarray(u_fine)[::2]
    return er, er / coarse.dx**2


def cmp_mode_errors(ks, t_final, *, m: int = 1, c: float = 1.0,
                    f: int | None = None, init: str = "exact"):
    """Max-abs u errors for the standing mode over a grid-halving sweep.

    Grids use nx = 2^k + 1 and nt = 2^(k+f) so the Courant number is the
    same at every k.  ``init`` picks the half-step start for v: "exact"
    samples the mode at dt/2, "taylor" expands from v(x,0) = 0.
    """
    if f is None:
        f = refinement_exponent(c, 1.0, t_final)
    rows = []
    for k in ks:
        grid = Grid1D(a=0.0, b=1.0, nx=2**k + 1, t_final=t_final, nt=2 ** (k + f))
        state, _ = run_cmp(grid, c, *cmp_mode_start(grid, m, c, init), record_every=0)
        er = np.max(np.abs(state.f - standing_mode_u(grid.primal_points(), t_final, m, c)))
        rows.append((grid.dx, float(er)))
    return rows


def vmp_refine_errors(ks, t_final, rho_fn, tau_fn, *, f: int | None = None):
    """Refine-compare error sweep for variable materials.

    Runs k and k+1 for each k with the pinned-mode start data
    u = sin(pi x), v(x,0) = 0 (Taylor half-step).  Returns
    ([(dx, max|Er|), ...], {k: Er/dx^2 profile}).
    """
    ks = list(ks)
    if f is None:
        probe = Grid1D(a=0.0, b=1.0, nx=2 ** ks[0] + 1, t_final=t_final, nt=1)
        mats = Materials1D.from_profiles(probe, rho_fn, tau_fn)
        f = refinement_exponent(cfl_speed(mats), 1.0, t_final)
    solutions = {}
    for k in ks + [max(ks) + 1]:
        grid = Grid1D(a=0.0, b=1.0, nx=2**k + 1, t_final=t_final, nt=2 ** (k + f))
        mats = Materials1D.from_profiles(grid, rho_fn, tau_fn)
        u0 = np.sin(np.pi * grid.primal_points())
        v0 = taylor_v_half_vmp(u0, np.zeros(grid.nx - 1), mats, grid)
        state, _ = run_vmp(grid, mats, u0, v0, record_every=0)
        solutions[k] = (grid, state.f)
    rows, profiles = [], {}
    for k in ks:
        grid_c, u_c = solutions[k]
        grid_f, u_f = solutions[k + 1]
        er, er_scaled = refine_compare(u_c, u_f, grid_c, grid_f)
        rows.append((grid_c.dx, float(np.max(np.abs(er)))))
        profiles[k] = er_scaled
    return rows, profiles


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
