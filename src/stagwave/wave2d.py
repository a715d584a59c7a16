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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Side,
    Sweep,
    System,
    SystemState,
    addressable,
    divide_in_place,
    fold_spacing,
    init_g_half,
    planned_pair,
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
        addressable((self.nx + 1, self.ny + 1))  # the primal nodes, its largest array

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

    def _axes(self, kind: str) -> tuple:
        """The x and y sample coordinates of a kind."""
        try:
            tx, ty = _AXIS_TAGS[kind]
        except KeyError:
            raise ValueError(f"unknown field kind {kind!r}") from None
        return self._axis(0, tx), self._axis(1, ty)

    def points(self, kind: str) -> tuple:
        """Meshgrid (X, Y) of a kind's sample locations, 'ij' indexed."""
        return np.meshgrid(*self._axes(kind), indexing="ij")


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


def wave2d_system(star: Star2, grid: Grid2, *, m: int = 1, n: int = 1,
                  init: str = "taylor") -> System:
    """The 2D wave as a `core.System`.

    A = A G (nodes -> dual normals) and A* = -a^-1 D*, adjoint under the
    a-weighted node product and the (a11, a22)^-1-weighted dual-normal
    product.  The boundary ring of ``u`` never changes; the start, the
    (m, n) standing mode of `exact_solution_2d` with v at dt/2 sampled
    ("exact") or the Taylor half step from v(0) = 0 ("taylor"), is zero
    there, which keeps the march inside the pinned subspace.  The mode is
    exact only for the unit star.
    """
    dv = grid.dx * grid.dy
    # the norm bound: wave speed sqrt(max(a11, a22)/a) times the 2D stencil norm
    s_max = math.sqrt(max(star.a11, star.a22) / star.a)
    bound = s_max * (2.0 * math.sqrt(1.0 / grid.dx ** 2 + 1.0 / grid.dy ** 2))

    def inner_u(p, q):
        return star.a * float(np.sum(p * q)) * dv

    def inner_v(p, q):
        return (float(np.sum(p[0] * q[0])) / star.a11
                + float(np.sum(p[1] * q[1])) / star.a22) * dv

    ops = planned_pair(_sides(star, grid), bound, VectorField2)

    def mode(part, kind, t):
        # one part of the mode, on the kind's sparse axes: the factors of
        # the whole meshgrids in the same order, so the same bits
        axes = np.meshgrid(*grid._axes(kind), indexing="ij", sparse=True)
        return _standing_mode(m, n, 1.0, t)[part](*axes)

    def start(dt):
        u0 = mode(0, "fp", 0.0)
        if init == "exact":
            return u0, VectorField2(mode(1, "nxd", dt / 2), mode(2, "nyd", dt / 2))
        zero_v = VectorField2(np.zeros(grid.shape("nxd")), np.zeros(grid.shape("nyd")))
        return u0, init_g_half(u0, zero_v, ops, dt)

    return System(ops, inner_u, inner_v,
                  cfl_dt=lambda safety: safety * 2.0 / bound, start=start,
                  exact=(lambda t: mode(0, "fp", t)) if star == Star2() else None)


def _arrays(grid: Grid2) -> list:
    """A node array and the u update's two difference arrays."""
    return [np.empty(grid.shape("fp")), *np.empty((2, *grid.shape("gd")))]


def _divergence(grid: Grid2, work: list, v, divides, fresh: bool) -> list:
    """The u update's term, as a `core.Side` forms it: the differences of
    vx along x and of vy along y, each divided by its spacing where
    divides[0], summed into the interior of a node array whose boundary
    ring is zeroed, so that the pinned ring gets the interior's weight and
    scale as zeros, signed zeros included."""
    if fresh:
        v = [_expect(c, kind, grid) for c, kind in zip(v, ("nxd", "nyd"))]
    node, gx, gy = _arrays(grid) if fresh else work
    calls = [(np.subtract, (v[0][1:], v[0][:-1], gx)),
             (np.subtract, (v[1][:, 1:], v[1][:, :-1], gy))]
    if divides[0]:
        calls += [(divide_in_place, (gx, grid.dx)), (divide_in_place, (gy, grid.dy))]
    calls += [(np.add, (gx, gy, node[1:-1, 1:-1])),
              (node[::grid.nx].fill, (0.0,)), (node[:, ::grid.ny].fill, (0.0,))]
    return [(0, None, node, calls)]


def _gradient(grid: Grid2, work: list, u, divides, fresh: bool) -> list:
    """The v update's terms, one per component: the differences of u along
    x and along y at the rows and columns that A keeps, each divided by its
    spacing where divides[r], in new arrays or, for a plan, in the storage
    of the pair's node array, which both components reuse in turn."""
    if fresh:
        u = _expect(u, "fp", grid)
    pieces = []
    for r, (hi, lo, h) in enumerate(((u[1:, 1:-1], u[:-1, 1:-1], grid.dx),
                                     (u[1:-1, 1:], u[1:-1, :-1], grid.dy))):
        w = (np.empty(hi.shape) if fresh
             else work[0].reshape(-1)[:hi.size].reshape(hi.shape))
        calls = [(np.subtract, (hi, lo, w))]
        if divides[r]:
            calls.append((divide_in_place, (w, h)))
        pieces.append((r, None, w, calls))
    return pieces


def _sides(star: Star2, grid: Grid2) -> tuple:
    """The sides of A = A G and A* = -a^-1 D* for `core.planned_pair`, each
    update's differences weighted by its `fold_spacing` coefficient: a*h,
    by which the u update divides, and a11/dx and a22/dy, or dt/h for a
    unit weight on a power-of-two h; a u update on dx != dy divides its
    differences.  Each v component folds its own spacing.
    """
    work = _arrays(grid)  # the pair's own, which its two plans take turns with
    v_folds = tuple(fold_spacing((h,), None if w == 1.0 else w)
                    for h, w in ((grid.dx, star.a11), (grid.dy, star.a22)))
    u_fold = fold_spacing((grid.dx, grid.dy), None if star.a == 1.0 else star.a, divides=True)
    return (Side(functools.partial(_gradient, grid, work), v_folds, np.multiply, np.add),
            Side(functools.partial(_divergence, grid, work), (u_fold,), np.true_divide, np.add))


# ---------------------------------------------------------------------------
# leapfrog step
# ---------------------------------------------------------------------------


def _mode_level(n: int, t_final: float, nt) -> tuple:
    grid = Grid2(n, n)
    return grid, wave2d_system(Star2(), grid)


# the convergence sweep of the unit star's (1, 1) mode, each level at the CFL step
SWEEPS = (Sweep("wave2d-mode", _mode_level, 0.35),)


# kept by name for perfbench's setup probe, until that probe times the engine itself
def wave2d_step(state: SystemState, star: Star2, grid: Grid2) -> SystemState:
    """One leapfrog step: u first, then v from the fresh u (order matters)."""
    return system_step(state, wave2d_system(star, grid).ops)


# ---------------------------------------------------------------------------
# standing mode
# ---------------------------------------------------------------------------


def exact_solution_2d(m: int, n: int, c: float, x, y, t: float) -> tuple:
    """Standing mode of the first-order system u_t = c div v, v_t = c grad u
    on the unit square with pinned u: returns (u, vx, vy) sampled at (x, y).

    u  = cos(c s pi t) sin(m pi x) sin(n pi y),        s = sqrt(m^2 + n^2)
    v  = (1/s) sin(c s pi t) (m cos(m pi x) sin(n pi y),
                              n sin(m pi x) cos(n pi y))
    """
    parts = _standing_mode(m, n, c, t)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return tuple(part(x, y) for part in parts)


def _standing_mode(m: int, n: int, c: float, t: float) -> tuple:
    """The (u, vx, vy) of `exact_solution_2d` at time t, as three functions
    of the sample coordinates (x, y), so a caller evaluates only the parts
    it needs."""
    if m < 1 or n < 1:
        raise ValueError("mode numbers must be at least 1")
    s = math.sqrt(m * m + n * n)
    phase = c * s * math.pi * t
    # a phase past the float range has no cosine: the mode is NaN there, not an error
    cos_t, sin_t = (math.cos(phase), math.sin(phase)) if math.isfinite(phase) else (math.nan,) * 2
    amp = sin_t / s
    return (
        lambda x, y: cos_t * np.sin(m * math.pi * x) * np.sin(n * math.pi * y),
        lambda x, y: amp * m * np.cos(m * math.pi * x) * np.sin(n * math.pi * y),
        lambda x, y: amp * n * np.sin(m * math.pi * x) * np.cos(n * math.pi * y),
    )
