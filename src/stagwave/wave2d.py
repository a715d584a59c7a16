"""2D wave equation on the staggered unit square with a pinned boundary ring.

This is the direct two-dimensional restriction of the 3D machinery: the
scalar ``u`` lives on the primal nodes at whole time steps, the flux pair
``v = (vx, vy)`` lives on the dual normal points at half time steps, and
one leapfrog step updates ``u`` first and then ``v`` from the fresh ``u``.
The boundary ring of ``u`` is never touched (homogeneous Dirichlet).

Twelve staggered field kinds appear, named by a letter for the quantity
(``f``/``g`` scalars, ``t``/``n`` tangent/normal vector components) and a
suffix for the grid (``p`` primal, ``d`` dual).  Their array shapes on an
``nx`` x ``ny`` cell grid:

=====  ==============  ======================================
kind   shape           sample locations (x-axis, y-axis)
=====  ==============  ======================================
fp     (nx+1, ny+1)    nodes, nodes
gp     (nx,   ny)      centers, centers
txp    (nx,   ny+1)    centers, nodes
typ    (nx+1, ny)      nodes, centers
nxp    (nx+1, ny)      nodes, centers
nyp    (nx,   ny+1)    centers, nodes
fd     (nx,   ny)      centers, centers
gd     (nx-1, ny-1)    inner nodes, inner nodes
txd    (nx-1, ny)      inner nodes, centers
tyd    (nx,   ny-1)    centers, inner nodes
nxd    (nx,   ny-1)    centers, inner nodes
nyd    (nx-1, ny)      inner nodes, centers
=====  ==============  ======================================

Formulas quoted in docstrings use the 1-based ``(i, j)`` convention of the
staggered-mesh literature; arrays here are 0-based, so a displayed
``f(i+1, j+1)`` reads ``f[i, j]`` in code.

A numerical curiosity worth knowing: for the ``m = n = 1`` standing mode
with unit materials on a square grid, the time step ``dt = dx/sqrt(2)``
(Courant number exactly 1) makes the discrete and continuum dispersion
coincide, and the march reproduces the mode to rounding.  The tests keep
that case out of the convergence sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
# grid and star coefficients
# ---------------------------------------------------------------------------

# axis sample tags per field kind: "n" nodes, "c" centers, "i" inner nodes
_AXIS_TAGS = {
    "fp": ("n", "n"), "gp": ("c", "c"), "fd": ("c", "c"), "gd": ("i", "i"),
    "txp": ("c", "n"), "typ": ("n", "c"),
    "nxp": ("n", "c"), "nyp": ("c", "n"),
    "txd": ("i", "c"), "tyd": ("c", "i"),
    "nxd": ("c", "i"), "nyd": ("i", "c"),
}
# samples per axis of each tag, beyond the axis' cell count
_TAG_EXTRA = {"n": 1, "c": 0, "i": -1}


@dataclass(frozen=True)
class Grid2:
    """Uniform staggered grid on the unit square.

    Parameters
    ----------
    nx, ny : int
        Number of cells per axis (>= 2 each); ``dx = 1/nx``, ``dy = 1/ny``.
        Primal nodes sit at ``(i - 1) dx`` for 1-based ``i <= nx + 1``, dual
        nodes at ``(i - 1/2) dx``.
    """

    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("need at least 2 cells per axis")

    @property
    def dx(self) -> float:
        return 1.0 / self.nx

    @property
    def dy(self) -> float:
        return 1.0 / self.ny

    def _axis(self, axis: int, tag: str) -> np.ndarray:
        n = self.nx if axis == 0 else self.ny
        h = 1.0 / n
        if tag == "n":
            return np.arange(n + 1) * h
        if tag == "c":
            return (np.arange(n) + 0.5) * h
        return np.arange(1, n) * h  # "i"

    def shape(self, kind: str) -> tuple:
        """Array shape of a field kind (see the module table)."""
        try:
            tx, ty = _AXIS_TAGS[kind]
        except KeyError:
            raise ValueError(f"unknown field kind {kind!r}") from None
        return (self.nx + _TAG_EXTRA[tx], self.ny + _TAG_EXTRA[ty])

    def points(self, kind: str) -> tuple:
        """Meshgrid (X, Y) of a kind's sample locations, 'ij' indexed."""
        try:
            tx, ty = _AXIS_TAGS[kind]
        except KeyError:
            raise ValueError(f"unknown field kind {kind!r}") from None
        return np.meshgrid(self._axis(0, tx), self._axis(1, ty), indexing="ij")


@dataclass(frozen=True)
class Star2:
    """Constant material coefficients: scalar weight ``a`` plus the
    diagonal ``(a11, a22)`` acting on vector components.  All positive."""

    a: float = 1.0
    a11: float = 1.0
    a22: float = 1.0

    def __post_init__(self):
        if self.a <= 0 or self.a11 <= 0 or self.a22 <= 0:
            raise ValueError("star coefficients must be positive")

    @property
    def diag(self) -> tuple:
        return (self.a11, self.a22)


def _expect(arr, kind: str, grid: Grid2) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    want = grid.shape(kind)
    if arr.shape != want:
        raise ValueError(f"{kind} field needs shape {want}, got {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# staggered difference operators
# ---------------------------------------------------------------------------


def grad2p(fp, grid: Grid2) -> tuple:
    """Primal gradient, nodes -> tangent pair (txp, typ)."""
    fp = _expect(fp, "fp", grid)
    return np.diff(fp, axis=0) / grid.dx, np.diff(fp, axis=1) / grid.dy


def div2d(nd, grid: Grid2) -> np.ndarray:
    """Dual divergence, normal pair (nxd, nyd) -> inner-node scalar gd."""
    nxd = _expect(nd[0], "nxd", grid)
    nyd = _expect(nd[1], "nyd", grid)
    return np.diff(nxd, axis=0) / grid.dx + np.diff(nyd, axis=1) / grid.dy


def grad2d(fd, grid: Grid2) -> tuple:
    """Dual gradient, centers -> tangent pair (txd, tyd)."""
    fd = _expect(fd, "fd", grid)
    return np.diff(fd, axis=0) / grid.dx, np.diff(fd, axis=1) / grid.dy


def div2p(np_pair, grid: Grid2) -> np.ndarray:
    """Primal divergence, normal pair (nxp, nyp) -> cell scalar gp."""
    nxp = _expect(np_pair[0], "nxp", grid)
    nyp = _expect(np_pair[1], "nyp", grid)
    return np.diff(nxp, axis=0) / grid.dx + np.diff(nyp, axis=1) / grid.dy


# ---------------------------------------------------------------------------
# star maps (constant coefficients only)
# ---------------------------------------------------------------------------

_SCALAR_DIRECTIONS = frozenset(
    {"node-to-dual-cell", "dual-cell-to-node",
     "dual-node-to-cell", "cell-to-dual-node"})
_VECTOR_DIRECTIONS = frozenset(
    {"tangent-to-dual-normal", "dual-normal-to-tangent",
     "normal-to-dual-tangent", "dual-tangent-to-normal"})


def _pair(coef) -> tuple:
    if np.isscalar(coef):
        a11 = a22 = float(coef)
    else:
        a11, a22 = float(coef[0]), float(coef[1])
    if a11 <= 0 or a22 <= 0:
        raise ValueError("star coefficients must be positive")
    return a11, a22


def star2(field, coef, direction: str):
    """Move a field to the opposite grid, weighting by the coefficients.

    ``coef`` is a positive constant ``a`` for the scalar directions and a
    positive pair ``(a11, a22)`` for the vector directions.  The forward
    maps multiply, e.g. ``gd(i, j) = a f(i+1, j+1)`` and
    ``nxd(i, j) = a11 txp(i, j+1)``; the ``*-to-node`` / ``*-to-tangent``
    inverses divide with the reverse index shifts and fill the rows or
    columns they cannot reach with zeros.
    """
    if direction in _SCALAR_DIRECTIONS:
        a = float(coef)
        if a <= 0:
            raise ValueError("star coefficients must be positive")
        f = np.asarray(field, dtype=float)
        if direction == "node-to-dual-cell":
            return a * f[1:-1, 1:-1]
        if direction == "dual-cell-to-node":
            out = np.zeros((f.shape[0] + 2, f.shape[1] + 2))
            out[1:-1, 1:-1] = f / a
            return out
        if direction == "dual-node-to-cell":
            return a * f
        return f / a  # cell-to-dual-node

    if direction in _VECTOR_DIRECTIONS:
        a11, a22 = _pair(coef)
        fx = np.asarray(field[0], dtype=float)
        fy = np.asarray(field[1], dtype=float)
        if direction == "tangent-to-dual-normal":
            return a11 * fx[:, 1:-1], a22 * fy[1:-1, :]
        if direction == "dual-normal-to-tangent":
            tx = np.zeros((fx.shape[0], fx.shape[1] + 2))
            tx[:, 1:-1] = fx / a11
            ty = np.zeros((fy.shape[0] + 2, fy.shape[1]))
            ty[1:-1, :] = fy / a22
            return tx, ty
        if direction == "normal-to-dual-tangent":
            return fx[1:-1, :] / a11, fy[:, 1:-1] / a22
        nxp = np.zeros((fx.shape[0] + 2, fx.shape[1]))  # dual-tangent-to-normal
        nxp[1:-1, :] = a11 * fx
        nyp = np.zeros((fy.shape[0], fy.shape[1] + 2))
        nyp[:, 1:-1] = a22 * fy
        return nxp, nyp

    raise ValueError(f"unknown star direction {direction!r}")


# ---------------------------------------------------------------------------
# the pair and products of the core engine
# ---------------------------------------------------------------------------


class VectorField2(tuple):
    """A ``(vx, vy)`` pair with componentwise ``+``, ``-`` and scalar ``*``,
    which the core engine needs; indexing and unpacking work as on a tuple."""

    __array_ufunc__ = None  # numpy scalars defer to the reflected operators

    def __new__(cls, x, y):
        return super().__new__(cls, (x, y))

    def __add__(self, other):
        return VectorField2(self[0] + other[0], self[1] + other[1])

    __radd__ = __add__

    def __sub__(self, other):
        return VectorField2(self[0] - other[0], self[1] - other[1])

    def __mul__(self, c):
        return VectorField2(c * self[0], c * self[1])

    __rmul__ = __mul__


def _norm_bound(star: Star2, grid: Grid2) -> float:
    """Bound on the operator norm: wave speed sqrt(max(a11, a22)/a) times
    the 2D stencil norm."""
    s_max = math.sqrt(max(star.a11, star.a22) / star.a)
    stencil = 2.0 * math.sqrt(1.0 / grid.dx ** 2 + 1.0 / grid.dy ** 2)
    return s_max * stencil


def wave2d_system(star: Star2, grid: Grid2):
    """(pair, inner_X, inner_Y) for the core engine.

    A = A G (nodes -> dual normals) and A* = -a^-1 D*, adjoint under the
    a-weighted node product and the (a11, a22)^-1-weighted dual-normal
    product.  The boundary ring of ``u`` never changes; starting from data
    that is zero there keeps the march inside the pinned subspace.
    """
    dv = grid.dx * grid.dy
    bound = _norm_bound(star, grid)

    def inner_u(p, q):
        return star.a * float(np.sum(p * q)) * dv

    def inner_v(p, q):
        return (float(np.sum(p[0] * q[0])) / star.a11
                + float(np.sum(p[1] * q[1])) / star.a22) * dv

    ops = OperatorPair(
        apply_A=lambda u: VectorField2(
            *star2(grad2p(u, grid), star.diag, "tangent-to-dual-normal")),
        apply_Astar=lambda v: -star2(div2d(v, grid), star.a, "dual-cell-to-node"),
        norm_bound_A=bound,
        norm_bound_Astar=bound,
        update=_update_hook(star, grid),
    )
    return ops, inner_u, inner_v


def _update_hook(star: Star2, grid: Grid2):
    """The in-place `update` of the 2D pair.

    A u update forms D* v in a node array the hook owns: the x difference
    in its interior, the y difference in a second work array, their sum
    divided by a unless a is exactly 1.0.  Its rim is zeroed on every call,
    as star2's "dual-cell-to-node" fill makes it, and scaled with the
    interior, so the pinned ring gets the allocating expression's
    arithmetic, signed zeros included.  The sign of A* folds into the add:
    u - dt * (-t) is u + dt * t, bit for bit.
    A v update differences only the rows and columns that star2's
    "tangent-to-dual-normal" keeps, and multiplies by a11/a22 unless it is
    exactly 1.0.
    Where the spacings of a difference are one power of two h (dx == dy for
    the u update), the hook never divides it: 1/h rides on the weight (a*h,
    a11/h, a22/h) or, for a weight of exactly 1.0, on dt (`fold_spacing`).
    """
    dx, dy = grid.dx, grid.dy
    parts = []  # work arrays and folds, made on first use

    def update(x, y, dt, out, adjoint):
        if not parts:
            node, wx, wy = (np.empty(grid.shape(kind)) for kind in ("fp", "nxd", "nyd"))
            parts.extend([
                node, node[1:-1, 1:-1], np.empty(grid.shape("gd")),
                fold_spacing((dx, dy), None if star.a == 1.0 else star.a, divides=True),
                (wx, dx, fold_spacing((dx,), None if star.a11 == 1.0 else star.a11)),
                (wy, dy, fold_spacing((dy,), None if star.a22 == 1.0 else star.a22)),
            ])
        node, inner, gd, u_fold, x_side, y_side = parts
        if adjoint:
            vx, vy = y
            scale, divide = u_fold.scale(dt)
            np.subtract(vx[1:], vx[:-1], inner)
            np.subtract(vy[:, 1:], vy[:, :-1], gd)
            if divide:
                divide_in_place(inner, dx)
                divide_in_place(gd, dy)
            np.add(inner, gd, inner)
            if u_fold.weight is not None:
                np.true_divide(inner, u_fold.weight, inner)
            node[0] = node[-1] = 0.0
            node[:, 0] = node[:, -1] = 0.0
            np.multiply(node, scale, node)
            return np.add(x, node, out)
        outs = (None, None) if out is None else out
        new = []
        for (w, h, fold), hi, lo, xr, o in (
            (x_side, y[1:, 1:-1], y[:-1, 1:-1], x[0], outs[0]),
            (y_side, y[1:-1, 1:], y[1:-1, :-1], x[1], outs[1]),
        ):
            scale, divide = fold.scale(dt)
            np.subtract(hi, lo, w)
            if divide:
                divide_in_place(w, h)
            if fold.weight is not None:
                np.multiply(fold.weight, w, w)
            np.multiply(w, scale, w)
            new.append(np.add(xr, w, o))
        return out if out is not None else VectorField2(*new)

    return update


def _expect_v(v, grid: Grid2) -> VectorField2:
    return VectorField2(_expect(v[0], "nxd", grid), _expect(v[1], "nyd", grid))


# ---------------------------------------------------------------------------
# leapfrog step, half-step start and march
# ---------------------------------------------------------------------------


# kept by name for perfbench's setup probe, until that probe times the engine itself
def wave2d_step(state: SystemState, star: Star2, grid: Grid2) -> SystemState:
    """One leapfrog step: u first, then v from the fresh u (order matters)."""
    return system_step(state, wave2d_system(star, grid)[0])


def init_v_half_2d(u0, v0, star: Star2, grid: Grid2, dt: float, *,
                   variant: str = "oscillator-taylor") -> tuple:
    """Half-step start for v from whole-step data (u(0), v(0)).

    Taylor expansion v(dt/2) ~ v0 + (dt/2) A G u0 + coeff A G (a^-1 D* v0)
    with coeff = (1/2)(dt/2)^2 for "oscillator-taylor" (the default) and
    (1/2) dt^2 for "system-taylor".
    """
    return init_g_half(_expect(u0, "fp", grid), _expect_v(v0, grid),
                       wave2d_system(star, grid)[0], dt, variant=variant)


def suggest_dt_2d(star: Star2, grid: Grid2, safety: float = 1.0) -> float:
    """Largest stable dt (times ``safety``) from the constant-coefficient
    wave speed sqrt(max(a11, a22)/a) and the 2D stencil norm."""
    if safety <= 0:
        raise ValueError("safety factor must be positive")
    return safety * 2.0 / _norm_bound(star, grid)


def run_wave2d(grid: Grid2, star: Star2, u0, v_half, dt: float, n_steps: int, *,
               record_every: int = 1):
    """March n_steps; returns (final SystemState, [(step, C_n, C_half), ...])."""
    ops, inner_u, inner_v = wave2d_system(star, grid)
    return run_system(_expect(u0, "fp", grid), None, ops, dt, n_steps, inner_u, inner_v,
                      g_half0=_expect_v(v_half, grid), record_every=record_every)


# ---------------------------------------------------------------------------
# standing mode and convergence sweep
# ---------------------------------------------------------------------------


def exact_solution_2d(m: int, n: int, c: float, x, y, t: float) -> tuple:
    """Standing mode of the first-order system u_t = c div v, v_t = c grad u
    on the unit square with pinned u: returns (u, vx, vy) sampled at (x, y).

    u  = cos(c s pi t) sin(m pi x) sin(n pi y),        s = sqrt(m^2 + n^2)
    v  = (1/s) sin(c s pi t) (m cos(m pi x) sin(n pi y),
                              n sin(m pi x) cos(n pi y))
    """
    if m < 1 or n < 1:
        raise ValueError("mode numbers must be at least 1")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s = math.sqrt(m * m + n * n)
    phase = c * s * math.pi * t
    # a phase past the float range has no cosine: the mode is NaN there, not an error
    cos_t, sin_t = (math.cos(phase), math.sin(phase)) if math.isfinite(phase) else (math.nan,) * 2
    u = cos_t * np.sin(m * math.pi * x) * np.sin(n * math.pi * y)
    amp = sin_t / s
    vx = amp * m * np.cos(m * math.pi * x) * np.sin(n * math.pi * y)
    vy = amp * n * np.sin(m * math.pi * x) * np.cos(n * math.pi * y)
    return u, vx, vy


def mode_start_2d(grid: Grid2, star: Star2, dt: float, m: int = 1, n: int = 1,
                  init: str = "taylor"):
    """(u0, v_half) for the (m, n) standing mode: "exact" samples v at dt/2,
    "taylor" takes the Taylor half step from v(0) = 0."""
    u0, _, _ = exact_solution_2d(m, n, 1.0, *grid.points("fp"), 0.0)
    if init == "exact":
        vx = exact_solution_2d(m, n, 1.0, *grid.points("nxd"), dt / 2)[1]
        vy = exact_solution_2d(m, n, 1.0, *grid.points("nyd"), dt / 2)[2]
        return u0, (vx, vy)
    zero_v = (np.zeros(grid.shape("nxd")), np.zeros(grid.shape("nyd")))
    return u0, init_v_half_2d(u0, zero_v, star, grid, dt)


def mode_steps_2d(size: int, t_final: float, safety: float = 0.9) -> int:
    """Steps of the mode march on a size x size grid with unit materials:
    ceil(t_final / dt_max) with dt_max from `suggest_dt_2d`."""
    return math.ceil(t_final / suggest_dt_2d(Star2(), Grid2(size, size), safety))


def mode_errors_2d(sizes=(16, 32, 64), *, t_final: float = 0.35,
                   safety: float = 0.9):
    """Max-abs u error of the m = n = 1, c = 1 mode march per grid size.

    The step count comes from the stability bound (nt = ceil(T / dt_max),
    dt = T / nt) and v starts from the Taylor half step of v(0) = 0.
    Returns [(dx, err), ...] for order fitting.
    """
    star = Star2()
    out = []
    for size in sizes:
        grid = Grid2(size, size)
        nt = mode_steps_2d(size, t_final, safety)
        dt = t_final / nt
        u0, v_half = mode_start_2d(grid, star, dt)
        state, _ = run_wave2d(grid, star, u0, v_half, dt, nt, record_every=0)
        want, _, _ = exact_solution_2d(1, 1, 1.0, *grid.points("fp"), t_final)
        out.append((grid.dx, float(np.max(np.abs(state.f - want)))))
    return out
