"""Leapfrog marches for the 3D scalar wave and for Maxwell on the staggered box.

The scalar wave keeps the potential s on nodes at whole steps and its flux v
on dual faces at half steps; Maxwell keeps E on edges at whole steps and H on
dual edges at half steps — the classic staggered layout in which the x
component of E lives at (i+1/2, j, k) and the x component of H at
(i, j+1/2, k+1/2).  Both marches run through the leapfrog engine of `core`:
this module supplies the operator pairs built from the mimetic operators and
material stars of `mimetic3d`, the material-weighted inner products and the
dt bounds, so each march carries a pair of exactly conserved quadratic forms.

On pinned grids the zero boundary rows of the dual operators double as the
physical boundary conditions: s is held at zero on the box walls and the
tangential part of E is held at zero (a perfect electric conductor).  Initial
data must respect those wall values for the conserved forms to close; see
`pin_scalar_boundary` and `pin_tangential_boundary`.

States carry their own dt (the 3D grid is purely spatial).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    OperatorPair,
    SpacingFold,
    SystemState,
    conserved_full,
    conserved_half_step,
    energy_pieces,
    fold_spacing,
    init_g_half,
    run_system,
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
    random_field,
    require_exact_star,
    star_matrix,
    star_scalar_inverse,
    zeros_field,
    _as_field,
    _lines,
    _rim_zeroed,
)


# ---------------------------------------------------------------------------
# states and operator pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ScalarWaveState3:
    """s on nodes at t = step*dt; v on dual faces half a step later."""

    s: np.ndarray
    v: VectorField3
    dt: float
    s_prev: np.ndarray | None = None
    v_prev: VectorField3 | None = None
    step: int = 0


@dataclass(frozen=True, eq=False)
class MaxwellState3:
    """E on edges at t = step*dt; H on dual edges half a step later."""

    e: VectorField3
    h: VectorField3
    dt: float
    e_prev: VectorField3 | None = None
    h_prev: VectorField3 | None = None
    step: int = 0


def _parts(field) -> tuple:
    return getattr(field, "components", (field,))


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


class _Scratch:
    """The buffer a pair's `update` hook owns, made on first use.  It holds
    one operator output, of whichever kind the hook forms (one at a time),
    and the operators' two-component work array; the hook never returns it.
    Node arrays are the largest components on either boundary policy."""

    def __init__(self, grid: Grid3):
        self.grid, self.flat = grid, None

    def __call__(self, kind: str) -> dict:
        """out= and work= for an operator onto `kind`."""
        # every part starts on a 64-byte cache line: unaligned parts made the
        # 64^3 Maxwell step about 7% slower
        node = _lines(math.prod(self.grid.scalar_shape("node")))
        if self.flat is None:
            self.flat = np.empty(5 * node + 8)
        start = (-self.flat.ctypes.data // 8) % 8
        out = [self.flat[start + i * node:start + i * node + math.prod(shape)].reshape(shape)
               for i, shape in enumerate(self.grid._shapes(kind))]
        return {"out": _as_field(out), "work": self.flat[start + 3 * node:start + 5 * node]}


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

    unit_a, unit_rows = star.is_unit("a"), star.is_unit("a_rows")
    cube = fold_spacing(grid.spacings)
    folds = (cube if unit_rows else _KEEP, cube if unit_a else _KEEP)  # v, s update
    scratch = _Scratch(grid)

    def update(x, y, dt, out, adjoint):
        scale, scaled = folds[adjoint].scale(dt)
        if adjoint:
            term = div3_star(y, grid, scaled=scaled, **scratch("dual-cell"))
            if not unit_a:
                star_scalar_inverse(term, star, "node-to-dual-cell", out=term)
        else:
            term = grad3(y, grid, scaled=scaled, **scratch("edge"))
            if not unit_rows:
                star_matrix(term, star, "a", out=term)
        return _scaled_into(x, term, scale, out, np.add)

    return OperatorPair(apply_A=apply_a, apply_Astar=apply_astar, update=update)


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

    unit_eps, unit_mu = eps_star.is_unit("a_inv_rows"), mu_star.is_unit("b_inv_rows")
    cube = fold_spacing(grid.spacings)
    folds = (cube if unit_mu else _KEEP, cube if unit_eps else _KEEP)  # H, E update
    scratch = _Scratch(grid)

    def update(x, y, dt, out, adjoint):
        scale, scaled = folds[adjoint].scale(dt)
        if adjoint:
            term = curl3_star(y, grid, scaled=scaled, **scratch("dual-face"))
            if not unit_eps:
                star_matrix(term, eps_star, "a", inverse=True, out=term)
            return _scaled_into(x, term, scale, out, np.add)
        term = curl3(y, grid, scaled=scaled, **scratch("face"))
        if not unit_mu:
            star_matrix(term, mu_star, "b", inverse=True, out=term)
        return _scaled_into(x, term, scale, out, np.subtract)

    return OperatorPair(apply_A=apply_a, apply_Astar=apply_astar, update=update)


def scalar_wave_system(star: Star3, grid: Grid3):
    """(pair, inner_X, inner_Y) for the core engine: the scalar-wave pair
    with the a-weighted node product and the A^-1-weighted dual-face product."""
    return (
        scalar_wave_operators(star, grid),
        lambda a, b: inner3("node", a, b, star, grid),
        lambda a, b: inner3("dual-face", a, b, star, grid),
    )


def maxwell_system(eps_star: Star3, mu_star: Star3, grid: Grid3):
    """(pair, inner_X, inner_Y) for the core engine: the Maxwell pair with
    the eps-weighted edge product and the mu-weighted dual-edge product."""
    return (
        maxwell_operators(eps_star, mu_star, grid),
        lambda a, b: inner3("edge", a, b, eps_star, grid),
        lambda a, b: inner3("dual-edge", a, b, mu_star, grid),
    )


def _core_scalar(state: ScalarWaveState3) -> SystemState:
    return SystemState(state.s, state.v, state.dt, state.step, state.s_prev, state.v_prev)


def _scalar_state(state: SystemState) -> ScalarWaveState3:
    return ScalarWaveState3(s=state.f, v=state.g_half, dt=state.dt, s_prev=state.f_prev,
                            v_prev=state.g_prev_half, step=state.step)


def _core_maxwell(state: MaxwellState3) -> SystemState:
    return SystemState(state.e, state.h, state.dt, state.step, state.e_prev, state.h_prev)


def _maxwell_state(state: SystemState) -> MaxwellState3:
    return MaxwellState3(e=state.f, h=state.g_half, dt=state.dt, e_prev=state.f_prev,
                         h_prev=state.g_prev_half, step=state.step)


# ---------------------------------------------------------------------------
# time steps, half-step starts and conserved quadratic forms
# ---------------------------------------------------------------------------


def scalar_wave_step(
    state: ScalarWaveState3, star: Star3, grid: Grid3, *, guaranteed: bool = True
) -> ScalarWaveState3:
    """One leapfrog step; s is updated first, v uses the fresh s.

    With guaranteed=True (the default) a full-matrix star is rejected, since
    its inexact inverse breaks the conserved quantities; pass
    guaranteed=False to march with one anyway.
    """
    if guaranteed:
        require_exact_star(star)
    return _scalar_state(system_step(_core_scalar(state), scalar_wave_operators(star, grid)))


def maxwell_step(
    state: MaxwellState3,
    eps_star: Star3,
    mu_star: Star3,
    grid: Grid3,
    *,
    guaranteed: bool = True,
) -> MaxwellState3:
    """One leapfrog step; E is updated first, H uses the fresh E."""
    if guaranteed:
        require_exact_star(eps_star)
        require_exact_star(mu_star)
    ops = maxwell_operators(eps_star, mu_star, grid)
    return _maxwell_state(system_step(_core_maxwell(state), ops))


def scalar_wave_init_v(s0, v0: VectorField3, star: Star3, grid: Grid3, dt: float):
    """Second-order accurate v at t = dt/2 from whole-step data (s0, v0):

    v0 + (dt/2) A G s0 + 1/2 (dt/2)^2 A G (a^-1 D* v0).

    dt = 0 returns v0; with v0 = 0 only the gradient term survives.
    """
    return init_g_half(np.asarray(s0, float), v0, scalar_wave_operators(star, grid), dt)


def maxwell_init_h(
    e0: VectorField3, h0: VectorField3, eps_star: Star3, mu_star: Star3,
    grid: Grid3, dt: float,
):
    """Second-order accurate H at t = dt/2 from whole-step data (E0, H0):

    H0 - (dt/2) mu^-1 R E0 - 1/2 (dt/2)^2 mu^-1 R (eps^-1 R* H0).
    """
    return init_g_half(e0, h0, maxwell_operators(eps_star, mu_star, grid), dt)


def _scalar_pieces(state: ScalarWaveState3, star: Star3, grid: Grid3):
    """(c1, c2, c3) with C_n = c1 + c2 - (dt/2)^2 c3."""
    return energy_pieces(_core_scalar(state), *scalar_wave_system(star, grid))


def scalar_conserved_n(state: ScalarWaveState3, star: Star3, grid: Grid3) -> float:
    """Whole-step invariant at the state's step:

    ||s||_N^2 + ||(v + v_prev)/2||_F*^2 - (dt/2)^2 ||A G s||_F*^2.
    """
    return conserved_full(_core_scalar(state), *scalar_wave_system(star, grid))


def scalar_conserved_half(state: ScalarWaveState3, star: Star3, grid: Grid3) -> float:
    """Half-step invariant at the half level trailing the state:

    ||v_prev||_F*^2 + ||(s + s_prev)/2||_N^2 - (dt/2)^2 ||a^-1 D* v_prev||_N^2.
    """
    return conserved_half_step(_core_scalar(state), *scalar_wave_system(star, grid))


def maxwell_conserved_n(
    state: MaxwellState3, eps_star: Star3, mu_star: Star3, grid: Grid3
) -> float:
    """Whole-step invariant at the state's step:

    ||E||_E^2 + ||(H + H_prev)/2||_E*^2 - (dt/2)^2 ||mu^-1 R E||_E*^2

    with the eps-weighted edge product and the mu-weighted dual-edge product.
    """
    return conserved_full(_core_maxwell(state), *maxwell_system(eps_star, mu_star, grid))


def maxwell_conserved_half(
    state: MaxwellState3, eps_star: Star3, mu_star: Star3, grid: Grid3
) -> float:
    """Half-step invariant at the half level trailing the state:

    ||(E + E_prev)/2||_E^2 + ||H_prev||_E*^2 - (dt/2)^2 ||eps^-1 R* H_prev||_E^2.
    """
    return conserved_half_step(_core_maxwell(state), *maxwell_system(eps_star, mu_star, grid))


# ---------------------------------------------------------------------------
# divergence audit and time-step bound
# ---------------------------------------------------------------------------


def divergence_audit(
    state: MaxwellState3, eps_star: Star3, mu_star: Star3, grid: Grid3
) -> tuple:
    """Unweighted L2 norms of div*(eps E) on dual cells and div(mu H) on cells.

    Both are exact invariants of the march for any admissible materials —
    the update adds dt * D* R* H to the first and -dt * D R E to the second,
    and both composites vanish identically — so the norms stay constant (not
    necessarily zero) to rounding.
    """
    flux_e = star_matrix(state.e, eps_star, "a")
    flux_h = star_matrix(state.h, mu_star, "b")
    dv = grid.cell_volume
    div_e = math.sqrt(float(np.sum(div3_star(flux_e, grid) ** 2)) * dv)
    div_h = math.sqrt(float(np.sum(div3(flux_h, grid) ** 2)) * dv)
    return div_e, div_h


def _gershgorin(rows) -> tuple:
    """(lowest, highest) Gershgorin interval end over the rows of a star."""
    lo, hi = math.inf, -math.inf
    for r in range(3):
        low = high = np.asarray(rows[r][r], float)
        for c in range(3):
            if c != r and rows[r][c] is not None:
                low, high = low - np.abs(rows[r][c]), high + np.abs(rows[r][c])
        lo, hi = min(lo, float(np.min(low))), max(hi, float(np.max(high)))
    return lo, hi


def suggest_dt(
    star: Star3,
    grid: Grid3,
    safety: float = 1.0,
    system: str = "scalar-wave",
    mu_star: Star3 | None = None,
) -> float:
    """Largest stable dt times the safety factor, from analytic bounds only.

    The stencil norm of the spatial operator is bounded by
    N = 2 * s_max * sqrt(1/dx^2 + 1/dy^2 + 1/dz^2) and the leapfrog is
    stable (both conserved forms positive) for dt * N < 2, so the bound
    returned is safety * 2 / N.  s_max bounds the wave speed: for the scalar
    wave sqrt(max A / min a) and for Maxwell 1/sqrt(min eps * min mu), with
    the tensor extremes taken over Gershgorin intervals so that full-matrix
    stars are bounded too.  For system="maxwell", eps is read from `star`
    (A role) and mu from `mu_star` (B role), defaulting to the same star.
    """
    if safety <= 0:
        raise ValueError(f"safety factor must be positive, got {safety}")
    if system == "scalar-wave":
        s_max = math.sqrt(_gershgorin(star.a_rows)[1] / float(np.min(star.a)))
    elif system == "maxwell":
        mu = star if mu_star is None else mu_star
        low = _gershgorin(star.a_rows)[0] * _gershgorin(mu.b_rows)[0]
        if low <= 0:
            raise ValueError(
                "cannot bound the wave speed: a material tensor is not "
                "diagonally dominant"
            )
        s_max = 1.0 / math.sqrt(low)
    else:
        raise ValueError(f"unknown system {system!r}")
    return _stable_dt(grid, safety, s_max)


def _stable_dt(grid: Grid3, safety: float, s_max: float = 1.0) -> float:
    """safety * 2 / N with N = 2 * s_max * sqrt(1/dx^2 + 1/dy^2 + 1/dz^2)."""
    stencil = 2.0 * math.sqrt(sum(1.0 / d**2 for d in grid.spacings))
    return safety * 2.0 / (s_max * stencil)


def measured_stencil_norm(
    star: Star3,
    grid: Grid3,
    system: str = "scalar-wave",
    mu_star: Star3 | None = None,
    iterations: int = 60,
    seed: int = 0,
) -> float:
    """Power-iteration estimate of the spatial operator norm N (diagnostic).

    Iterates the positive-semidefinite composite A* A in the weighted inner
    product and returns sqrt of the Rayleigh quotient, a lower estimate of
    the true N with dt * N < 2 the stability condition.  `suggest_dt` never
    calls this — the time step always comes from the analytic bound — it
    exists only to check how sharp that bound is.
    """
    if system == "scalar-wave":
        (ops, inner, _), kind = scalar_wave_system(star, grid), "node"
    elif system == "maxwell":
        mu = star if mu_star is None else mu_star
        (ops, inner, _), kind = maxwell_system(star, mu, grid), "edge"
    else:
        raise ValueError(f"unknown system {system!r}")
    w = random_field(grid, kind, np.random.default_rng(seed))
    if grid.boundary == "pinned":
        w = _rim_zeroed(w, kind)
    lam = 0.0
    for _ in range(iterations):
        aw = ops.apply_Astar(ops.apply_A(w))
        ww = inner(w, w)
        if ww == 0.0:
            return 0.0
        lam = inner(w, aw) / ww
        scale = math.sqrt(inner(aw, aw))
        if scale == 0.0:
            return 0.0
        w = (1.0 / scale) * aw
    return math.sqrt(max(lam, 0.0))


# ---------------------------------------------------------------------------
# simulation drivers
# ---------------------------------------------------------------------------


def _march(system, dt_max: float, f0, g_half, dt: float, n_steps: int,
           record_every: int, audit):
    """Core run with the pair's norm bound set from the analytic dt bound;
    records gain t = step * dt after the step."""
    ops, inner_X, inner_Y = system
    ops = replace(ops, norm_bound_A=2.0 / dt_max, norm_bound_Astar=2.0 / dt_max)
    state, records = run_system(f0, None, ops, dt, n_steps, inner_X, inner_Y,
                                g_half0=g_half, record_every=record_every, audit=audit)
    return state, [(r[0], r[0] * dt, *r[1:]) for r in records]


def run_scalar_wave(
    grid: Grid3,
    star: Star3,
    s0,
    v_half: VectorField3,
    dt: float,
    n_steps: int,
    *,
    record_every: int = 1,
    guaranteed: bool = True,
):
    """March n_steps from (s0, v_half); returns (state, records).

    Each record is (step, t, C_n, C_half, c1, c2, c3) where c1, c2, c3 are
    the pieces of the whole-step invariant — the weighted squares of s, of
    the time-averaged v, and of A G s — so C_n = c1 + c2 - (dt/2)^2 c3.
    """
    dt_max = suggest_dt(star, grid)
    if guaranteed:
        require_exact_star(star)
    state, records = _march(scalar_wave_system(star, grid), dt_max, np.asarray(s0, float),
                            v_half, dt, n_steps, record_every, lambda _, pieces: pieces)
    return _scalar_state(state), records


def run_maxwell(
    grid: Grid3,
    eps_star: Star3,
    mu_star: Star3,
    e0: VectorField3,
    h_half: VectorField3,
    dt: float,
    n_steps: int,
    *,
    record_every: int = 1,
    guaranteed: bool = True,
):
    """March n_steps from (E0, H_half); returns (state, records).

    Each record is (step, t, C_n, C_half, c1, c2, c3, div_e, div_h) with the
    invariant pieces as in `run_scalar_wave` and the two divergence-audit
    norms appended.
    """
    dt_max = suggest_dt(eps_star, grid, system="maxwell", mu_star=mu_star)
    if guaranteed:
        require_exact_star(eps_star)
        require_exact_star(mu_star)

    def audit(state, pieces):
        return (*pieces, *divergence_audit(_maxwell_state(state), eps_star, mu_star, grid))

    state, records = _march(maxwell_system(eps_star, mu_star, grid), dt_max, e0, h_half,
                            dt, n_steps, record_every, audit)
    return _maxwell_state(state), records


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


# ---------------------------------------------------------------------------
# convergence measurement against the cavity modes
# ---------------------------------------------------------------------------


def cavity_steps(n: int, t_final: float, safety: float = 0.9) -> int:
    """Steps of a cavity-mode march on the pinned unit cube of n cells per
    axis: ceil(t_final / dt_max) with dt_max from `suggest_dt`.  The modes
    use unit materials, whose wave speed bound is exactly 1 for the scalar
    wave and for Maxwell alike, so the bound needs no sampled star."""
    if safety <= 0:
        raise ValueError(f"safety factor must be positive, got {safety}")
    return math.ceil(t_final / _stable_dt(Grid3.cube(int(n), 1.0, boundary="pinned"), safety))


def scalar_cavity_errors(sizes=(8, 16, 32), t_final: float = 0.35, safety: float = 0.9):
    """Max-norm error of s against the cavity mode, one pinned cube per size.

    The step count comes from `cavity_steps` per grid, so space and time
    refine together; returns [(dx, error), ...] ready for order estimation.
    """
    out = []
    for n in sizes:
        grid = Grid3.cube(int(n), 1.0, boundary="pinned")
        star = Star3.trivial(grid)
        nt = cavity_steps(n, t_final, safety)
        dt = t_final / nt
        s0 = cavity_mode_s(grid, 0.0)
        v_half = scalar_wave_init_v(s0, zeros_field(grid, "dual-face"), star, grid, dt)
        state, _ = run_scalar_wave(grid, star, s0, v_half, dt, nt, record_every=0)
        err = float(np.max(np.abs(state.s - cavity_mode_s(grid, t_final))))
        out.append((grid.dx, err))
    return out


def maxwell_cavity_errors(sizes=(8, 16, 32), t_final: float = 0.35, safety: float = 0.9):
    """Max-norm error of E_z against the TE cavity mode (conductor unit cube)."""
    out = []
    for n in sizes:
        grid = Grid3.cube(int(n), 1.0, boundary="pinned")
        star = Star3.trivial(grid)
        nt = cavity_steps(n, t_final, safety)
        dt = t_final / nt
        e0 = te_cavity_e(grid, 0.0)
        h_half = maxwell_init_h(e0, zeros_field(grid, "dual-edge"), star, star, grid, dt)
        state, _ = run_maxwell(grid, star, star, e0, h_half, dt, nt, record_every=0)
        err = float(np.max(np.abs(state.e.z - te_cavity_e(grid, t_final).z)))
        out.append((grid.dx, err))
    return out
