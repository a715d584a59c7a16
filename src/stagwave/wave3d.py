"""Leapfrog marches for the 3D scalar wave and for Maxwell on the staggered box.

The scalar wave keeps the potential s on nodes at whole steps and its flux v
on dual faces at half steps; Maxwell keeps E on edges at whole steps and H on
dual edges at half steps — the classic staggered layout in which the x
component of E lives at (i+1/2, j, k) and the x component of H at
(i, j+1/2, k+1/2).  Both marches run through the leapfrog engine of `core`:
this module supplies one `core.System` each: the operator pair built from the
mimetic operators and material stars of `mimetic3d`, with the analytic norm
bound behind its dt limit, the material-weighted inner products and the
cavity-mode start, so each march carries a pair of exactly conserved
quadratic forms.

On pinned grids the zero boundary rows of the dual operators double as the
physical boundary conditions: s is held at zero on the box walls and the
tangential part of E is held at zero (a perfect electric conductor).  Initial
data must respect those wall values for the conserved forms to close; see
`pin_scalar_boundary` and `pin_tangential_boundary`.

States are the engine's `core.SystemState`, which carries its own dt (the 3D
grid is purely spatial): f is s or E, g_half is v or H.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    OperatorPair,
    SpacingFold,
    System,
    SystemState,
    _parts,
    fold_spacing,
    init_g_half,
    system_step,
)
from .mimetic3d import (
    Grid3,
    Star3,
    VectorField3,
    curl3,
    curl3_star,
    div3,
    div3_star,
    grad3,
    inner3,
    star_matrix,
    star_scalar_inverse,
    zeros_field,
    _as_field,
    _distinct,
    _lines,
    _rim_zeroed,
)


# ---------------------------------------------------------------------------
# operator pairs
# ---------------------------------------------------------------------------


def _negated(field):
    """-field, negated in place: callers pass a freshly computed result."""
    for comp in _parts(field):
        np.negative(comp, out=comp)
    return field


def _scaled_into(x, term, dt: float, out, combine):
    """combine(x, dt * term), componentwise, into `out` (fresh arrays when out
    is None).  The scratch `term` is scaled in place: term *= dt has the bits
    of dt * term."""
    outs = _parts(out) if out is not None else (None,) * len(_parts(x))
    new = []
    for xr, tr, o in zip(_parts(x), _parts(term), outs):
        np.multiply(tr, dt, out=tr)
        new.append(combine(xr, tr, out=o))
    return out if out is not None else _as_field(new)


# the fold of a side whose star is not unit: its operator divides by the spacings
_KEEP = SpacingFold(None, None, True)


class _Scratch(dict):
    """The buffer a pair's `update` hook owns and its views, ``scratch[kind]``,
    made on first use: out= for one operator output, of whichever kind the
    hook forms (one at a time), and work= for the two-component work array;
    the hook never returns them.  Node arrays are the largest on either policy."""

    def __init__(self, grid: Grid3):
        self.grid, self.flat = grid, None

    def __missing__(self, kind: str) -> dict:
        """out= and work= for an operator onto `kind`."""
        # every part starts on a 64-byte cache line: unaligned parts made the
        # 64^3 Maxwell step about 7% slower
        node = _lines(math.prod(self.grid.scalar_shape("node")))
        if self.flat is None:
            self.flat = np.empty(5 * node + 8)
        start = (-self.flat.ctypes.data // 8) % 8
        out = [self.flat[start + i * node:start + i * node + math.prod(shape)].reshape(shape)
               for i, shape in enumerate(self.grid._shapes(kind))]
        self[kind] = {"out": _as_field(out), "work": self.flat[start + 3 * node:start + 5 * node]}
        return self[kind]


def scalar_wave_operators(star: Star3, grid: Grid3) -> OperatorPair:
    """The pair behind ds/dt = a^-1 D* v, dv/dt = A G s.

    In the core's sign convention (df/dt = -A* g, dg/dt = A f) that makes
    A = (A G .) on node scalars and A* = -(a^-1 D* .) on dual-face fields.

    Its `update` hook forms D* v and G s in scratch it owns, skips a weight
    that is exactly 1 and applies any other in place, and folds the sign of
    A* into the update: s - dt * (-(a^-1 D* v)) is s + dt * a^-1 D* v, bit
    for bit.  On a cube with a power-of-two spacing h, a side whose weight
    is skipped asks its operator for undivided differences and scales by
    dt * (1/h) instead (`fold_spacing`).
    """

    def apply_a(s):
        return star_matrix(grad3(s, grid), star, "a")

    def apply_astar(v):
        return _negated(star_scalar_inverse(div3_star(v, grid), star, "node-to-dual-cell"))

    unit_a, unit_diag = star.is_unit("a"), star.is_unit("a_diag")
    cube = fold_spacing(grid.spacings)
    folds = (cube if unit_diag else _KEEP, cube if unit_a else _KEEP)  # v, s update
    scratch = _Scratch(grid)

    def update(x, y, dt, out, adjoint):
        scale, scaled = folds[adjoint].scale(dt)
        if adjoint:
            term = div3_star(y, grid, scaled=scaled, **scratch["dual-cell"])
            if not unit_a:
                star_scalar_inverse(term, star, "node-to-dual-cell", out=term)
        else:
            term = grad3(y, grid, scaled=scaled, **scratch["edge"])
            if not unit_diag:
                star_matrix(term, star, "a", out=term)
        return _scaled_into(x, term, scale, out, np.add)

    # wave speed sqrt(max A / min a), over every sample of the diagonal
    s_max = math.sqrt(_extremes(star.a_diag)[1] / float(np.min(_distinct(star.a))))
    bound = _stencil_bound(s_max, grid)
    return OperatorPair(apply_A=apply_a, apply_Astar=apply_astar, norm_bound_A=bound, update=update)


def maxwell_operators(eps_star: Star3, mu_star: Star3, grid: Grid3) -> OperatorPair:
    """The pair behind dE/dt = eps^-1 R* H, dH/dt = -mu^-1 R E.

    eps acts in the A role of its star (edge -> dual face) and mu in the B
    role (dual edge -> face); only those halves of the two stars are used.

    Its `update` hook forms R* H and R E in scratch it owns, skips a star
    that is exactly 1 and applies any other in place, and folds the signs
    into the update: E - dt * (-(eps^-1 R* H)) is E + dt * eps^-1 R* H, and
    H + dt * (-(mu^-1 R E)) is H - dt * mu^-1 R E, bit for bit.  On a cube
    with a power-of-two spacing h, a side whose star is skipped asks its
    curl for undivided differences and scales by dt * (1/h) instead
    (`fold_spacing`).
    """

    def apply_a(e):
        return _negated(star_matrix(curl3(e, grid), mu_star, "b", inverse=True))

    def apply_astar(h):
        return _negated(star_matrix(curl3_star(h, grid), eps_star, "a", inverse=True))

    unit_eps, unit_mu = eps_star.is_unit("a_inv_diag"), mu_star.is_unit("b_inv_diag")
    cube = fold_spacing(grid.spacings)
    folds = (cube if unit_mu else _KEEP, cube if unit_eps else _KEEP)  # H, E update
    scratch = _Scratch(grid)

    def update(x, y, dt, out, adjoint):
        scale, scaled = folds[adjoint].scale(dt)
        if adjoint:
            term = curl3_star(y, grid, scaled=scaled, **scratch["dual-face"])
            if not unit_eps:
                star_matrix(term, eps_star, "a", inverse=True, out=term)
            return _scaled_into(x, term, scale, out, np.add)
        term = curl3(y, grid, scaled=scaled, **scratch["face"])
        if not unit_mu:
            star_matrix(term, mu_star, "b", inverse=True, out=term)
        return _scaled_into(x, term, scale, out, np.subtract)

    # wave speed 1/sqrt(min eps * min mu), over every sample of the diagonals
    low = _extremes(eps_star.a_diag)[0] * _extremes(mu_star.b_diag)[0]
    bound = _stencil_bound(math.inf if low == 0.0 else 1.0 / math.sqrt(low), grid)
    return OperatorPair(apply_A=apply_a, apply_Astar=apply_astar, norm_bound_A=bound, update=update)


def scalar_wave_system(star: Star3, grid: Grid3, *, modes=(1, 1, 1)) -> System:
    """The scalar wave as a `core.System`: the a-weighted node product and
    the A^-1-weighted dual-face product, starting from the cavity mode
    `modes` at rest (the Taylor half step from v(0) = 0).  The mode is
    exact for unit materials only."""
    ops = scalar_wave_operators(star, grid)

    def start(dt):
        s0 = cavity_mode_s(grid, 0.0, modes)
        return s0, init_g_half(s0, zeros_field(grid, "dual-face"), ops, dt)

    unit = star.is_unit("a") and star.is_unit("a_diag")
    return System(
        ops,
        lambda a, b: inner3("node", a, b, star, grid),
        lambda a, b: inner3("dual-face", a, b, star, grid),
        cfl_dt=lambda safety: safety * (2.0 / ops.norm_bound_A),
        start=start,
        exact=(lambda t: cavity_mode_s(grid, t, modes)) if unit else None,
    )


def maxwell_system(eps_star: Star3, mu_star: Star3, grid: Grid3) -> System:
    """Maxwell as a `core.System`: the eps-weighted edge product and the
    mu-weighted dual-edge product, starting from the TE(1,1,0) cavity mode
    with H at rest (the Taylor half step from H(0) = 0).  The mode is exact
    for unit materials only."""
    ops = maxwell_operators(eps_star, mu_star, grid)

    def start(dt):
        e0 = te_cavity_e(grid, 0.0)
        return e0, init_g_half(e0, zeros_field(grid, "dual-edge"), ops, dt)

    unit = eps_star.is_unit("a_inv_diag") and mu_star.is_unit("b_inv_diag")
    return System(
        ops,
        lambda a, b: inner3("edge", a, b, eps_star, grid),
        lambda a, b: inner3("dual-edge", a, b, mu_star, grid),
        cfl_dt=lambda safety: safety * (2.0 / ops.norm_bound_A),
        start=start,
        exact=(lambda t: te_cavity_e(grid, t)) if unit else None,
    )


# ---------------------------------------------------------------------------
# time steps
# ---------------------------------------------------------------------------


# both steps are kept by name for perfbench's setup probe, until it times the engine itself
def scalar_wave_step(state: SystemState, star: Star3, grid: Grid3) -> SystemState:
    """One leapfrog step of `scalar_wave_system`; s is updated first, v uses
    the fresh s."""
    return system_step(state, scalar_wave_system(star, grid).ops)


def maxwell_step(state: SystemState, eps_star: Star3, mu_star: Star3, grid: Grid3) -> SystemState:
    """One leapfrog step of `maxwell_system`; E is updated first, H uses the
    fresh E."""
    return system_step(state, maxwell_system(eps_star, mu_star, grid).ops)


# ---------------------------------------------------------------------------
# divergence audit and norm bounds
# ---------------------------------------------------------------------------


def divergence_audit(e: VectorField3, h: VectorField3, eps_star: Star3, mu_star: Star3,
                     grid: Grid3) -> tuple:
    """Unweighted L2 norms of div*(eps E) on dual cells and div(mu H) on cells.

    Both are exact invariants of the march for any admissible materials —
    the update adds dt * D* R* H to the first and -dt * D R E to the second,
    and both composites vanish identically — so the norms stay constant (not
    necessarily zero) to rounding.
    """
    flux_e = star_matrix(e, eps_star, "a")
    flux_h = star_matrix(h, mu_star, "b")
    dv = grid.cell_volume
    div_e = math.sqrt(float(np.sum(div3_star(flux_e, grid) ** 2)) * dv)
    div_h = math.sqrt(float(np.sum(div3(flux_h, grid) ** 2)) * dv)
    return div_e, div_h


def _extremes(diag) -> tuple:
    """(lowest, highest) entry of a diagonal star over its three weights."""
    return (min(float(np.min(_distinct(w))) for w in diag),
            max(float(np.max(_distinct(w))) for w in diag))


def _stencil_bound(s_max: float, grid: Grid3) -> float:
    """The norm bound N = 2 * s_max * sqrt(1/dx^2 + 1/dy^2 + 1/dz^2) of a
    pair whose wave speed is at most s_max: the leapfrog is stable (both
    conserved forms positive) for dt * N < 2.  Every weight is positive,
    but their ratios and products can still leave the float range, and a
    bound of 0 or inf would make the CFL step meaningless."""
    bound = s_max * (2.0 * math.sqrt(sum(1.0 / d**2 for d in grid.spacings)))
    if not 0.0 < bound < math.inf:
        raise ValueError(f"cannot bound the wave speed: the material weights put it at {s_max}")
    return bound


# ---------------------------------------------------------------------------
# admissible-data helpers (pinned box)
# ---------------------------------------------------------------------------


def pin_scalar_boundary(s) -> np.ndarray:
    """Copy of a node scalar with the six wall planes zeroed.

    On a pinned grid the march holds the walls fixed, so initial data must
    vanish there for the conserved forms to close.  These are the planes the
    dual operators zero on their outputs (the rim rule of `mimetic3d`).
    """
    return _rim_zeroed(s, "node")


def pin_tangential_boundary(v: VectorField3) -> VectorField3:
    """Copy of an edge field with the wall-tangential entries zeroed.

    For component r the walls normal to the two other axes carry tangential
    values; zeroing them is the conductor condition the pinned march holds.
    """
    return _rim_zeroed(v, "edge")


# ---------------------------------------------------------------------------
# cavity modes on the pinned unit box (unit materials)
# ---------------------------------------------------------------------------


def cavity_mode_s(grid: Grid3, t: float, modes=(1, 1, 1)) -> np.ndarray:
    """Standing mode cos(w t) sin(m pi x) sin(n pi y) sin(p pi z) on nodes,
    with w = pi sqrt(m^2 + n^2 + p^2)."""
    m, n, p = modes
    w = np.pi * math.sqrt(m * m + n * n + p * p)
    x, y, z = grid.scalar_points("node")
    return (
        math.cos(w * t)
        * np.sin(m * np.pi * x)
        * np.sin(n * np.pi * y)
        * np.sin(p * np.pi * z)
    )


def cavity_mode_v(grid: Grid3, t: float, modes=(1, 1, 1)) -> VectorField3:
    """The dual-face flux paired with `cavity_mode_s` (zero at t = 0)."""
    m, n, p = modes
    w = np.pi * math.sqrt(m * m + n * n + p * p)
    amp = math.sin(w * t) * np.pi / w
    x, y, z = grid.vector_points("dual-face", 0)
    vx = amp * m * np.cos(m * np.pi * x) * np.sin(n * np.pi * y) * np.sin(p * np.pi * z)
    x, y, z = grid.vector_points("dual-face", 1)
    vy = amp * n * np.sin(m * np.pi * x) * np.cos(n * np.pi * y) * np.sin(p * np.pi * z)
    x, y, z = grid.vector_points("dual-face", 2)
    vz = amp * p * np.sin(m * np.pi * x) * np.sin(n * np.pi * y) * np.cos(p * np.pi * z)
    return VectorField3(vx, vy, vz)


def te_cavity_e(grid: Grid3, t: float) -> VectorField3:
    """TE(1,1,0) conductor-box mode: E = (0, 0, sin(pi x) sin(pi y) cos(w t))
    with w = pi sqrt(2); the tangential components vanish on all walls."""
    w = np.pi * math.sqrt(2.0)
    shapes = grid.vector_shapes("edge")
    x, y, _ = grid.vector_points("edge", 2)
    ez = np.sin(np.pi * x) * np.sin(np.pi * y) * math.cos(w * t)
    return VectorField3(np.zeros(shapes[0]), np.zeros(shapes[1]), ez)


def te_cavity_h(grid: Grid3, t: float) -> VectorField3:
    """The dual-edge field paired with `te_cavity_e` (zero at t = 0)."""
    w = np.pi * math.sqrt(2.0)
    amp = math.sin(w * t) * np.pi / w
    x, y, _ = grid.vector_points("dual-edge", 0)
    hx = -amp * np.sin(np.pi * x) * np.cos(np.pi * y)
    x, y, _ = grid.vector_points("dual-edge", 1)
    hy = amp * np.cos(np.pi * x) * np.sin(np.pi * y)
    hz = np.zeros(grid.vector_shapes("dual-edge")[2])
    return VectorField3(hx, hy, hz)
