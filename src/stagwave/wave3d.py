"""Leapfrog marches for the 3D scalar wave and for Maxwell on the staggered box.

The scalar wave keeps the potential s on nodes at whole steps and its flux v
on dual faces at half steps; Maxwell keeps E on edges at whole steps and H on
dual edges at half steps — the classic staggered layout in which the x
component of E lives at (i+1/2, j, k) and the x component of H at
(i, j+1/2, k+1/2).  Both marches run through the leapfrog engine of `core`.
Each is one rung of the complex: a side table of two `mimetic3d`
difference operators, each with the star weights it applies, and the
analytic norm bound behind the dt limit (`_scalar_sides`, `_maxwell_sides`).
That one table yields both the in-place update hook and the allocating pair
(`_pair`), and one builder (`_system`) adds the products of the kinds the
operators take, weighted by the rung's stars, and the cavity-mode start, so
each march carries a pair of exactly conserved quadratic forms.

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
import weakref
from typing import Callable

import numpy as np

from .core import (OperatorPair, SpacingFold, System, SystemState, _parts, fold_spacing,
                   init_g_half, system_step)
from .mimetic3d import (Grid3, Star3, VectorField3, inner3, sample_scalar, sample_vector,
                        zeros_field, _OPERATORS, _PATTERNS, _as_field, _difference, _distinct,
                        _lines, _rim_zeroed, _sample)


# ---------------------------------------------------------------------------
# operator pairs
# ---------------------------------------------------------------------------


# the fold of a side whose star is not unit: its operator divides by the spacings
_KEEP = SpacingFold(None, None, True)


class _Scratch(dict):
    """Three node-sized float buffers, made on first use, and views of
    them, made once each and never returned.  ``scratch[kind, first, step]``
    is a field of `kind` whose component r starts buffer first + r * step (a
    step of 0 puts every component on buffer `first`); ``scratch[first]`` is
    buffers first, first + 1, ... as one flat array, an operator's work=.
    Node arrays are the largest on either policy.

    One scratch of three buffers (`_scratch`) serves every 3D user on a
    grid: the update hooks of its pairs, the inner products of its Systems
    and its divergence auditors, on that grid and on every equal one.  Each
    user finishes with the buffers before it returns, so users that take
    turns, as a march's steps, records and audits do, may share them."""

    def __init__(self, grid: Grid3):
        self.grid, self.flat = grid, None
        self.node = _lines(math.prod(grid.scalar_shape("node")))

    def __missing__(self, key):
        if self.flat is None:
            # every buffer starts on a 64-byte cache line: unaligned parts made
            # the 64^3 Maxwell step about 7% slower
            flat = np.empty(3 * self.node + 7)
            start = (-flat.ctypes.data // 8) % 8
            self.flat = flat[start:start + 3 * self.node]
        if isinstance(key, int):
            self[key] = self.flat[key * self.node:]
        else:
            kind, first, step = key
            self[key] = _as_field([
                self.flat[(first + r * step) * self.node:][:math.prod(shape)].reshape(shape)
                for r, shape in enumerate(self.grid._shapes(kind))])
        return self[key]


# the scratch of each grid, held only as long as a hook, System or auditor
# holds it: a sweep keeps its grids after their marches, not their scratch
_SCRATCHES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _scratch(grid: Grid3) -> _Scratch:
    """The three-buffer scratch that every 3D user on `grid` shares."""
    scratch = _SCRATCHES.get(grid)
    if scratch is None:
        scratch = _SCRATCHES[grid] = _Scratch(grid)
    return scratch


def _times(term, weight):
    """term <- weight * term, in place, as `star_matrix` multiplies."""
    np.multiply(weight, term, out=term)


def _over(term, weight):
    """term <- term / weight, in place, as `star_scalar_inverse` divides."""
    np.true_divide(term, weight, out=term)


def _update_hook(grid: Grid3, sides: tuple):
    """The `update` of a 3D pair, one output component at a time.

    ``sides[adjoint]`` is (op, weights, weigh, combine): the update is
    combine(x, dt * W op(y)), with W applied by weigh(term, weights[r]) to
    component r, or skipped where `weights` is None (exactly 1).  Each
    component of op(y) is formed by `mimetic3d._difference` into one scratch
    buffer, weighted and scaled there in place, and combined into `out`
    before the next is formed, in the three node-sized buffers of the grid's
    shared `_scratch`: the component and the operator's two work terms.  On
    a cube with a power-of-two spacing h, a side whose weight is skipped
    asks for undivided differences and scales by dt * (1/h) instead
    (`fold_spacing`).
    """
    cube = fold_spacing(grid.spacings)
    folds = [cube if weights is None else _KEEP for _, weights, _, _ in sides]
    scratch = _scratch(grid)

    def update(x, y, dt, out, adjoint):
        op, weights, weigh, combine = sides[adjoint]
        scale, scaled = folds[adjoint].scale(dt)
        terms = _difference(op, y, grid, scratch[_OPERATORS[op][1], 0, 0], scratch[1], scaled)
        xs = _parts(x)
        outs = _parts(out) if out is not None else (None,) * len(xs)
        new = []
        for r, (term, xr, o) in enumerate(zip(terms, xs, outs)):
            if weights is not None:
                weigh(term, weights[r])
            # term *= dt has the bits of dt * term
            np.multiply(term, scale, out=term)
            new.append(combine(xr, term, out=o))
        return out if out is not None else _as_field(new)

    return update


def _pair(grid: Grid3, sides: tuple, bound: float) -> OperatorPair:
    """The pair of a rung: its `update` hook and, from the same sides, the
    allocating A and A*, with `bound` the norm bound of A.

    ``sides`` is the side of A (g from f), then that of A* (f from g), as
    `_update_hook` takes them.  In the core's convention (df/dt = -A* g,
    dg/dt = A f) a side that adds its term is +W op in A and -W op in A*, so
    A is negated where its side subtracts and A* where its side adds.  Each
    component is the operator's fresh output, weighted and negated in place:
    the bits of the star applied after the operator, signed zeros included.
    """

    def allocating(adjoint: bool):
        op, weights, weigh, combine = sides[adjoint]
        negate = (combine is np.subtract) != adjoint

        def apply(y):
            terms = [*_difference(op, y, grid)]
            for r, term in enumerate(terms):
                if weights is not None:
                    weigh(term, weights[r])
                if negate:
                    np.negative(term, out=term)
            return _as_field(terms)

        return apply

    return OperatorPair(apply_A=allocating(False), apply_Astar=allocating(True),
                        norm_bound_A=bound, update=_update_hook(grid, sides))


def _system(grid: Grid3, sides: tuple, bound: float, stars: tuple, mode: Callable) -> System:
    """A rung as a `core.System`: `_pair`'s pair, the products of the kinds
    its sides' operators take, weighted by `stars` (f's, then g's), and the
    start from mode(0) with g at rest (the Taylor half step from g(0) = 0).
    The mode is exact when neither side applies a weight."""
    ops = _pair(grid, sides, bound)
    f_kind, g_kind = (_OPERATORS[op][0] for op, _, _, _ in sides)

    def start(dt):
        f0 = mode(0.0)
        return f0, init_g_half(f0, zeros_field(grid, g_kind), ops, dt)

    scratch = _scratch(grid)  # both products form theirs in its first buffer
    return System(
        ops,
        lambda a, b: inner3(f_kind, a, b, stars[0], grid, scratch[0]),
        lambda a, b: inner3(g_kind, a, b, stars[1], grid, scratch[0]),
        cfl_dt=lambda safety: safety * (2.0 / bound),
        start=start,
        exact=mode if all(weights is None for _, weights, _, _ in sides) else None,
    )


def _scalar_sides(star: Star3, grid: Grid3) -> tuple:
    """The sides and bound of ds/dt = a^-1 D* v, dv/dt = A G s:
    A = (A G .) on node scalars and A* = -(a^-1 D* .) on dual-face fields."""
    sides = (("grad3", None if star.is_unit("a_diag") else star.a_diag, _times, np.add),  # v
             ("div3_star", None if star.is_unit("a") else (star.a,), _over, np.add))  # s
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
    sides = (("curl3", h_weights, _times, np.subtract),  # H
             ("curl3_star", e_weights, _times, np.add))  # E
    # wave speed 1/sqrt(min eps * min mu), over every sample of the diagonals
    low = _extremes(eps_star.a_diag)[0] * _extremes(mu_star.b_diag)[0]
    return sides, _stencil_bound(math.inf if low == 0.0 else 1.0 / math.sqrt(low), grid)


def scalar_wave_operators(star: Star3, grid: Grid3) -> OperatorPair:
    """The pair behind ds/dt = a^-1 D* v, dv/dt = A G s (`_scalar_sides`)."""
    return _pair(grid, *_scalar_sides(star, grid))


def maxwell_operators(eps_star: Star3, mu_star: Star3, grid: Grid3) -> OperatorPair:
    """The pair behind dE/dt = eps^-1 R* H, dH/dt = -mu^-1 R E (`_maxwell_sides`)."""
    return _pair(grid, *_maxwell_sides(eps_star, mu_star, grid))


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
    `mimetic3d._difference` in the grid's shared `_scratch`: one flux
    component at a time is formed in buffer 0 and differenced into buffer 1
    or 2, the terms are summed there, and the sum lands in buffer 0 once the
    last flux is spent, where one fused product-sum, ``np.einsum``, reduces
    its square.  On a grid with one spacing h, as every cube is, the
    differences are left undivided and 1/h^2 joins the final scale, dV/h^2.
    Those are the operations, on arrays of the same shape and order, of
    div3_star(star_matrix(e, eps_star, "a"), grid, scaled=False) and of
    div3(star_matrix(h, mu_star, "b"), grid, scaled=False) (scaled on other
    grids) reduced the same way, so the same bits, and auditing every record
    allocates no field."""
    scratch = _scratch(grid)
    spacing = grid.spacings[0]
    scaled = grid.spacings != (spacing,) * 3
    scale = grid.cell_volume if scaled else grid.cell_volume / spacing ** 2

    def norm(op: str, field, weights) -> float:
        (div,) = _difference(op, field, grid, scratch[_OPERATORS[op][1], 0, 0], scratch[1],
                             scaled, weights=weights, flux=scratch[0])
        return math.sqrt(float(np.einsum("ijk,ijk->", div, div)) * scale)

    def audit(e: VectorField3, h: VectorField3) -> tuple:
        return norm("div3_star", e, eps_star.a_diag), norm("div3", h, mu_star.b_diag)

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
