"""Leapfrog marches for the 3D scalar wave and for Maxwell on the staggered box.

The scalar wave keeps the potential s on nodes at whole steps and its flux v
on dual faces at half steps; Maxwell keeps E on edges at whole steps and H on
dual edges at half steps — the classic staggered layout in which the x
component of E lives at (i+1/2, j, k) and the x component of H at
(i, j+1/2, k+1/2).  Both marches run through the leapfrog engine of `core`.
Each is one rung of the complex: a side table of two `mimetic3d`
difference operators, each with the star weights it applies, and the
analytic norm bound behind the dt limit (`_scalar_sides`, `_maxwell_sides`).
One builder (`_system`) hands that table to `core.planned_pair`, which
yields both the in-place update plan and the allocating pair, and adds the
products of the kinds the operators take, weighted by the rung's stars, and
the cavity-mode start, so each march carries a pair of exactly conserved
quadratic forms.  What the table's sides state is only 3D: each update's
differences, formed slab by slab (`_slab_differences`), and its
all-or-nothing spacing fold (`_fold`).

On pinned grids the zero boundary rows of the dual operators double as the
physical boundary conditions: s is held at zero on the box walls and the
tangential part of E is held at zero (a perfect electric conductor).  Initial
data must respect those wall values for the conserved forms to close; see
`pin_scalar_boundary` and `pin_tangential_boundary`.

States are the engine's `core.SystemState`, which carries its own dt (the 3D
grid is purely spatial): f is s or E, g_half is v or H.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .core import (OperatorPair, Side, SpacingFold, Sweep, System, SystemState, _parts, _run,
                   fold_spacing, init_g_half, planned_pair, system_step)
from .mimetic3d import (Grid3, Star3, VectorField3, inner3, sample_scalar, sample_vector,
                        zeros_field, _OPERATORS, _PATTERNS, _as_field, _difference, _distinct,
                        _rim_zeroed, _sample, _scratch)


# ---------------------------------------------------------------------------
# operator pairs
# ---------------------------------------------------------------------------


# the most entries in a slab of one output component: its passes (whole-span
# differences, their sum, the weight, dt, the add into out) then run in a
# core's cache.  On a 2-core Xeon with 2 MiB of L2 per core, budgets of 2^14
# to 2^17 gave the fastest 64^3 and 48^3 steps at 36 Ki (64^3: 4.2 ms, 5.0 at
# 2^16) and a 40^3 step 1-4% off its best (2^15); a whole 64^3 component
# (2.2 MB) ran at about 27 ns per cell against 21 at 32^3.  Just above 33^3,
# the budget keeps every component up to 32^3 one slab.
_SLAB_ENTRIES = 36 * 1024


def _slabs(shapes) -> list:
    """The slabs of an output kind of component `shapes`: k lists of one
    (a, b) per component, whose planes a..b along axis 0 cover it in k
    nearly equal slabs (their lengths differ by at most a plane), each of at
    most `_SLAB_ENTRIES` entries, or of one plane where a plane holds more.
    k is the fewest that every component allows."""
    k = max(-(-shape[0] // max(1, _SLAB_ENTRIES // math.prod(shape[1:]))) for shape in shapes)
    return [[(shape[0] * i // k, shape[0] * (i + 1) // k) for shape in shapes]
            for i in range(k)]


def _fold(grid: Grid3, op: str, weights, weigh) -> tuple:
    """The `fold_spacing` of each component of one side (op, weights, weigh).
    Where any component refuses, every one keeps its divide and its weight,
    since one operator forms them all with one divide."""
    weights = weights or (None,) * len(grid._shapes(_OPERATORS[op][1]))
    folds = tuple(fold_spacing(grid.spacings, w, divides=weigh is np.true_divide)
                  for w in weights)
    if any(fold.divide and fold.dt_factor is None for fold in folds):
        return tuple(SpacingFold(w, None, True) for w in weights)
    return folds


def _slab_differences(grid: Grid3, scratch, op: str, y, divides, fresh: bool) -> list:
    """The term of one update as a `core.Side` forms it, from
    `mimetic3d._difference`: every component whole and fresh, or for a plan
    one slab of whole axis-0 planes at a time (`_slabs`), each slab's
    components in turn at the start of buffer 0 of the grid's `scratch`,
    which the pair holds (their terms in the buffers after it).  Every entry
    is formed by the same operations on the same operands as in one whole
    component, so slabs change no bit."""
    if fresh:
        return [(r, None, term, calls) for r, (term, calls) in
                enumerate(_difference(op, y, grid, None, divides[0]))]
    kind = _OPERATORS[op][1]
    buffers = _parts(scratch[kind, 0, 0])  # every component on buffer 0
    pieces = []
    for rows in _slabs(grid._shapes(kind)):
        held = _as_field([buffer[:b - a] for buffer, (a, b) in zip(buffers, rows)])
        formed = _difference(op, y, grid, held, divides[0], rows=rows)
        pieces += [(r, ab, term, calls) for r, ((term, calls), ab) in enumerate(zip(formed, rows))]
    return pieces


def _system(grid: Grid3, sides: tuple, bound: float, stars: tuple, mode: Callable) -> System:
    """A rung as a `core.System`: the `core.planned_pair` of its side table,
    ``sides``, the side of A (g from f) then that of A* (f from g), each
    (op, weights, weigh, combine), with `bound` the norm bound of A; the
    products of the kinds its sides' operators take, weighted by `stars`
    (f's, then g's), each formed in the grid's shared scratch by `inner3`;
    and the start from mode(0) with g at rest (the Taylor half step from
    g(0) = 0).  The mode is exact when neither side applies a weight."""
    scratch = _scratch(grid)  # the pair keeps it as long as its plans use its buffers
    ops = planned_pair(tuple(
        Side(functools.partial(_slab_differences, grid, scratch, op),
             _fold(grid, op, weights, weigh), weigh, combine)
        for op, weights, weigh, combine in sides), bound, VectorField3)
    f_kind, g_kind = (_OPERATORS[op][0] for op, _, _, _ in sides)

    def start(dt):
        f0 = mode(0.0)
        return f0, init_g_half(f0, zeros_field(grid, g_kind), ops, dt)

    return System(
        ops,
        lambda a, b: inner3(f_kind, a, b, stars[0], grid),
        lambda a, b: inner3(g_kind, a, b, stars[1], grid),
        cfl_dt=lambda safety: safety * (2.0 / bound),
        start=start,
        exact=mode if all(weights is None for _, weights, _, _ in sides) else None,
    )


def _scalar_sides(star: Star3, grid: Grid3) -> tuple:
    """The sides and bound of ds/dt = a^-1 D* v, dv/dt = A G s:
    A = (A G .) on node scalars and A* = -(a^-1 D* .) on dual-face fields."""
    sides = (("grad3", None if star.is_unit("a_diag") else star.a_diag, np.multiply, np.add),  # v
             ("div3_star", None if star.is_unit("a") else (star.a,), np.true_divide, np.add))  # s
    # wave speed sqrt(max A / min a), over every sample of the diagonal
    s_max = math.sqrt(_extremes(star.a_diag)[1] / float(np.min(_distinct(star.a))))
    return sides, _stencil_bound(s_max, grid)


def _maxwell_sides(eps_star: Star3, mu_star: Star3, grid: Grid3) -> tuple:
    """The sides and bound of dE/dt = eps^-1 R* H, dH/dt = -mu^-1 R E:
    A = -(mu^-1 R .) on edges and A* = -(eps^-1 R* .) on dual edges.  eps
    acts in the A role of its star (edge -> dual face) and mu in the B role
    (dual edge -> face); only those halves of the two stars are used."""
    h_weights = None if mu_star.is_unit("b_inv_diag") else mu_star.b_inv_diag
    e_weights = None if eps_star.is_unit("a_inv_diag") else eps_star.a_inv_diag
    sides = (("curl3", h_weights, np.multiply, np.subtract),  # H
             ("curl3_star", e_weights, np.multiply, np.add))  # E
    # wave speed 1/sqrt(min eps * min mu), over every sample of the diagonals
    low = _extremes(eps_star.a_diag)[0] * _extremes(mu_star.b_diag)[0]
    return sides, _stencil_bound(math.inf if low == 0.0 else 1.0 / math.sqrt(low), grid)


def scalar_wave_operators(star: Star3, grid: Grid3) -> OperatorPair:
    """The pair behind ds/dt = a^-1 D* v, dv/dt = A G s (`_scalar_sides`)."""
    return scalar_wave_system(star, grid).ops


def maxwell_operators(eps_star: Star3, mu_star: Star3, grid: Grid3) -> OperatorPair:
    """The pair behind dE/dt = eps^-1 R* H, dH/dt = -mu^-1 R E (`_maxwell_sides`)."""
    return maxwell_system(eps_star, mu_star, grid).ops


def scalar_wave_system(star: Star3, grid: Grid3, *, modes=(1, 1, 1)) -> System:
    """The scalar wave as a `core.System`: the a-weighted node product and
    the A^-1-weighted dual-face product, starting from the cavity mode
    `modes` at rest.  The mode is exact for unit materials only."""
    return _system(grid, *_scalar_sides(star, grid), (star, star),
                   lambda t: cavity_mode_s(grid, t, modes))


def maxwell_system(eps_star: Star3, mu_star: Star3, grid: Grid3) -> System:
    """Maxwell as a `core.System`: the eps-weighted edge product and the
    mu-weighted dual-edge product, starting from the TE(1,1,0) cavity mode
    with H at rest.  The mode is exact for unit materials only."""
    return _system(grid, *_maxwell_sides(eps_star, mu_star, grid), (eps_star, mu_star),
                   lambda t: te_cavity_e(grid, t))


def _cavity_level(system: Callable, stars: int, n: int, t_final: float, nt) -> tuple:
    grid = Grid3.cube(n, 1.0, boundary="pinned")
    return grid, system(*[Star3.trivial(grid)] * stars, grid)


# the convergence sweeps of each rung's unit-material cavity mode on a pinned
# cube, each level at the CFL step
SWEEPS = (Sweep("wave3d-cavity", functools.partial(_cavity_level, scalar_wave_system, 1), 0.35),
          Sweep("maxwell-cavity", functools.partial(_cavity_level, maxwell_system, 2), 0.35))


# both steps are kept by name for perfbench's setup probe, until it times the engine itself
def scalar_wave_step(state: SystemState, star: Star3, grid: Grid3) -> SystemState:
    """One leapfrog step of `scalar_wave_operators`; s is updated first, v
    uses the fresh s."""
    return system_step(state, scalar_wave_operators(star, grid))


def maxwell_step(state: SystemState, eps_star: Star3, mu_star: Star3, grid: Grid3) -> SystemState:
    """One leapfrog step of `maxwell_operators`; E is updated first, H uses
    the fresh E."""
    return system_step(state, maxwell_operators(eps_star, mu_star, grid))


def parse_material_3d(name: str, system: str):
    """Return star factories for a named 3D material preset.

    ``trivial3d`` is unit material; ``scalar3d`` and ``diag3d`` are constant
    non-unit scalar / diagonal tensors.  For ``system="scalar"`` the factory
    maps a grid to one star; for ``"maxwell"`` to an (eps, mu) pair, of
    which `maxwell_operators` reads only eps's A and mu's B, so every other
    weight of the pair is 1.  An unknown name is a ValueError.
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
    if name not in table:
        raise ValueError(f"unknown 3D material {name!r}; use one of {sorted(table)}")
    return table[name]


# ---------------------------------------------------------------------------
# divergence audit and norm bounds
# ---------------------------------------------------------------------------


def divergence_auditor(eps_star: Star3, mu_star: Star3, grid: Grid3) -> Callable:
    """The divergence audit of one march: audit(e, h) returns the unweighted
    L2 norms of div*(eps E) on dual cells and div(mu H) on cells.

    Both are exact invariants of the march for any admissible materials —
    the update adds dt * D* R* H to the first and -dt * D R E to the second,
    and both composites vanish identically — so the norms stay constant (not
    necessarily zero) to rounding.  Each divergence is one weighted pass of
    `mimetic3d._difference` in the grid's shared `mimetic3d._scratch`: one
    flux component at a time is formed in buffer 0 and differenced into
    buffer 1 or 2, the terms are summed there, and the sum lands in buffer 0
    once the last flux is spent, where one fused product-sum,
    ``np.einsum``, reduces its square.  On a grid with one spacing h, as every cube is, the
    differences are left undivided and 1/h^2 joins the final scale, dV/h^2.
    Those are the operations, on arrays of the same shape and order, of
    div3_star(star_matrix(e, eps_star, "a"), grid, scaled=False) and of
    div3(star_matrix(h, mu_star, "b"), grid, scaled=False) (scaled on other
    grids) reduced the same way, so the same bits, and auditing every record
    allocates no field.  The auditor keeps the two bound passes of the last
    (E, H) it saw, held with its components, so an audited march, which
    hands it the same pair at every record, binds them once."""
    scratch = _scratch(grid)
    spacing = grid.spacings[0]
    scaled = grid.spacings != (spacing,) * 3
    scale = grid.cell_volume if scaled else grid.cell_volume / spacing ** 2
    kept = [(), ()]  # the components of the last (E, H), and its two passes

    def bind(op: str, field, weights) -> tuple:
        (passes,) = _difference(op, field, grid, scratch[_OPERATORS[op][1], 0, 0], scaled,
                                weights=weights)
        return passes  # the divergence and the calls that form it

    def norm(div, calls) -> float:
        _run(calls)
        return math.sqrt(float(np.einsum("ijk,ijk->", div, div)) * scale)

    def audit(e: VectorField3, h: VectorField3) -> tuple:
        parts = (*_parts(e), *_parts(h))
        if len(parts) != len(kept[0]) or any(a is not b for a, b in zip(parts, kept[0])):
            kept[:] = parts, (bind("div3_star", e, eps_star.a_diag),
                              bind("div3", h, mu_star.b_diag))
        return tuple(norm(*passes) for passes in kept[1])

    return audit


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
    cos_t = math.cos(w * t)
    return sample_scalar(grid, "node", lambda x, y, z: (
        cos_t * np.sin(m * np.pi * x) * np.sin(n * np.pi * y) * np.sin(p * np.pi * z)))


def cavity_mode_v(grid: Grid3, t: float, modes=(1, 1, 1)) -> VectorField3:
    """The dual-face flux paired with `cavity_mode_s` (zero at t = 0)."""
    m, n, p = modes
    w = np.pi * math.sqrt(m * m + n * n + p * p)
    amp = math.sin(w * t) * np.pi / w
    return sample_vector(grid, "dual-face", (
        lambda x, y, z: (amp * m * np.cos(m * np.pi * x) * np.sin(n * np.pi * y)
                         * np.sin(p * np.pi * z)),
        lambda x, y, z: (amp * n * np.sin(m * np.pi * x) * np.cos(n * np.pi * y)
                         * np.sin(p * np.pi * z)),
        lambda x, y, z: (amp * p * np.sin(m * np.pi * x) * np.sin(n * np.pi * y)
                         * np.cos(p * np.pi * z)),
    ))


def te_cavity_e(grid: Grid3, t: float) -> VectorField3:
    """TE(1,1,0) conductor-box mode: E = (0, 0, sin(pi x) sin(pi y) cos(w t))
    with w = pi sqrt(2); the tangential components vanish on all walls."""
    w = np.pi * math.sqrt(2.0)
    ez = _sample(grid, _PATTERNS["edge"][2],
                 lambda x, y, _: np.sin(np.pi * x) * np.sin(np.pi * y) * math.cos(w * t))
    shapes = grid.vector_shapes("edge")
    return VectorField3(np.zeros(shapes[0]), np.zeros(shapes[1]), ez)


def te_cavity_h(grid: Grid3, t: float) -> VectorField3:
    """The dual-edge field paired with `te_cavity_e` (zero at t = 0)."""
    w = np.pi * math.sqrt(2.0)
    amp = math.sin(w * t) * np.pi / w
    hx = _sample(grid, _PATTERNS["dual-edge"][0],
                 lambda x, y, _: -amp * np.sin(np.pi * x) * np.cos(np.pi * y))
    hy = _sample(grid, _PATTERNS["dual-edge"][1],
                 lambda x, y, _: amp * np.cos(np.pi * x) * np.sin(np.pi * y))
    hz = np.zeros(grid.vector_shapes("dual-edge")[2])
    return VectorField3(hx, hy, hz)
