"""Staggered 3D grid calculus: difference operators, material stars, inner
products.

Scalar and vector fields live on two interleaved grids over a box.  The
primal grid carries node scalars, edge vectors, face vectors and cell
scalars; the dual grid (shifted by half a spacing along every axis) carries
the mirrored kinds, so each primal kind is collocated with one dual kind:

====================  ====================  =======================
primal kind           collocated dual kind  point locations
====================  ====================  =======================
node scalar           dual cell scalar      (i, j, k)
edge vector           dual face vector      e.g. (i+1/2, j, k)
face vector           dual edge vector      e.g. (i, j+1/2, k+1/2)
cell scalar           dual node scalar      (i+1/2, j+1/2, k+1/2)
====================  ====================  =======================

One table, ``_PATTERNS``, gives the staggering of each component of each
kind: one letter per axis, ``n`` for node-aligned and ``h`` for half-shifted.

``grad3``/``curl3``/``div3`` are the forward-difference operators on the
primal kinds; the ``*_star`` trio are the backward-difference duals, built
from the same (component, axis) term tables.  Both chains are exact
complexes (curl of gradient and divergence of curl vanish identically).
Material properties enter through :class:`Star3`, which maps each kind to
its collocated partner: scalar weights ``a`` (nodes) and ``b`` (cell
centers), and diagonal tensors ``A`` (edges -> dual faces) and ``B`` (dual
edges -> faces), one positive weight per component, so every star inverts
exactly, point by point.  The eight weighted inner products make the dual
operators the (anti-)adjoints of the primal ones, which is what the
conserved-quantity machinery in the time steppers relies on;
``check_discrete_adjoints`` and ``negativity_check`` verify those identities
numerically.

Two boundary policies are supported.  ``"periodic"`` wraps every stencil, so
all arrays are ``(nx, ny, nz)``.  ``"pinned"`` stores the full staggered
index ranges of a closed box, ``n + 1`` entries along a node-aligned axis.
The operators see the policy only through one per-axis difference table,
made once per slab of axis-0 planes (``_reach``: the span a difference
reads, and on a periodic grid the plane it wraps), and the rim rule: on
pinned grids both end planes of every node-aligned axis of a dual output
are zero, which is exactly the set of entries a Dirichlet-pinned time
stepper never updates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import addressable, divide_in_place

BOUNDARIES = ("periodic", "pinned")

# staggering pattern of each component, per kind: 'n' = node-aligned axis,
# 'h' = half-shifted; one pattern for a scalar kind, x/y/z for a vector kind
_PATTERNS = {
    "node": ("nnn",),
    "cell": ("hhh",),
    "dual-node": ("hhh",),  # cell centers
    "dual-cell": ("nnn",),  # nodes
    "edge": ("hnn", "nhn", "nnh"),
    "face": ("nhh", "hnh", "hhn"),
    "dual-edge": ("nhh", "hnh", "hhn"),  # face points
    "dual-face": ("hnn", "nhn", "nnh"),  # edge points
}

SCALAR_KINDS = tuple(kind for kind, p in _PATTERNS.items() if len(p) == 1)
VECTOR_KINDS = tuple(kind for kind, p in _PATTERNS.items() if len(p) == 3)
ALL_KINDS = SCALAR_KINDS + VECTOR_KINDS
_ALL_PATTERNS = sorted({p for patterns in _PATTERNS.values() for p in patterns})


def _patterns(kind: str, kinds: tuple = ALL_KINDS) -> tuple:
    """The component patterns of a kind, which must be one of `kinds`."""
    if kind not in kinds:
        raise ValueError(f"unknown field kind {kind!r}; expected one of {kinds}")
    return _PATTERNS[kind]


# ---------------------------------------------------------------------------
# grid and fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid3:
    """Uniform box grid with a boundary policy.

    Parameters
    ----------
    lx, ly, lz : float
        Box extents; the box is ``[0, lx] x [0, ly] x [0, lz]``.
    nx, ny, nz : int
        Primal cells per axis (each >= 2); spacings are ``lx/nx`` etc.
    boundary : str
        ``"periodic"`` (every kind stored as ``(nx, ny, nz)``) or
        ``"pinned"`` (full staggered index ranges of the closed box).
    """

    lx: float
    ly: float
    lz: float
    nx: int
    ny: int
    nz: int
    boundary: str = "periodic"

    def __post_init__(self):
        if min(self.lx, self.ly, self.lz) <= 0:
            raise ValueError("box extents must be positive")
        for n in (self.nx, self.ny, self.nz):
            if int(n) != n or n < 2:
                raise ValueError("need at least 2 cells per axis")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"unknown boundary policy {self.boundary!r}")
        addressable(self._pattern_shape("nnn"))  # the nodes, its largest array
        # the operators' per-call shapes, worked out once; not a field, so eq/hash/repr ignore it
        object.__setattr__(self, "_shapes_of", {patterns: tuple(map(self._pattern_shape, patterns))
                                                for patterns in _PATTERNS.values()})

    @classmethod
    def cube(cls, n: int, length: float = 1.0, boundary: str = "periodic") -> "Grid3":
        return cls(length, length, length, n, n, n, boundary)

    # -- geometry ------------------------------------------------------

    @property
    def counts(self) -> tuple:
        return (self.nx, self.ny, self.nz)

    @property
    def spacings(self) -> tuple:
        return (self.lx / self.nx, self.ly / self.ny, self.lz / self.nz)

    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def dy(self) -> float:
        return self.ly / self.ny

    @property
    def dz(self) -> float:
        return self.lz / self.nz

    @property
    def cell_volume(self) -> float:
        return self.dx * self.dy * self.dz

    def axis_nodes(self, axis: int) -> np.ndarray:
        """Node coordinates along one axis (wrap point excluded if periodic)."""
        return np.arange(self._pattern_shape("nnn")[axis]) * self.spacings[axis]

    def axis_centers(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        return (np.arange(self.counts[axis]) + 0.5) * self.spacings[axis]

    # -- staggered shapes and sample points ----------------------------

    def _pattern_shape(self, pattern: str) -> tuple:
        """n entries per axis, n + 1 along the node-aligned axes of a pinned box."""
        pinned = self.boundary == "pinned"
        return tuple(n + 1 if pinned and tag == "n" else n
                     for n, tag in zip(self.counts, pattern))

    def _shapes(self, kind: str, kinds: tuple = ALL_KINDS) -> tuple:
        return self._shapes_of[_patterns(kind, kinds)]

    def scalar_shape(self, kind: str) -> tuple:
        return self._shapes(kind, SCALAR_KINDS)[0]

    def vector_shapes(self, kind: str) -> tuple:
        return self._shapes(kind, VECTOR_KINDS)

    def _pattern_axes(self, pattern: str) -> list:
        """The coordinates along each axis of the sample points of one pattern."""
        return [self.axis_nodes(ax) if tag == "n" else self.axis_centers(ax)
                for ax, tag in enumerate(pattern)]

    def _pattern_points(self, pattern: str) -> tuple:
        return np.meshgrid(*self._pattern_axes(pattern), indexing="ij")

    def scalar_points(self, kind: str):
        """Meshgrid (X, Y, Z) of the sample points of a scalar kind."""
        return self._pattern_points(_patterns(kind, SCALAR_KINDS)[0])

    def vector_points(self, kind: str, comp: int):
        """Meshgrid (X, Y, Z) of the sample points of one vector component."""
        return self._pattern_points(_patterns(kind, VECTOR_KINDS)[comp])


@dataclass(frozen=True, eq=False)
class VectorField3:
    """Three staggered component arrays with componentwise arithmetic."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    @property
    def components(self) -> tuple:
        return (self.x, self.y, self.z)

    def __add__(self, other):
        if not isinstance(other, VectorField3):
            return NotImplemented
        return VectorField3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        if not isinstance(other, VectorField3):
            return NotImplemented
        return VectorField3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self):
        return VectorField3(-self.x, -self.y, -self.z)

    def __mul__(self, c):
        if not np.isscalar(c):
            return NotImplemented
        return VectorField3(c * self.x, c * self.y, c * self.z)

    __rmul__ = __mul__

    def copy(self) -> "VectorField3":
        return VectorField3(self.x.copy(), self.y.copy(), self.z.copy())


def _as_field(comps):
    """One component array as itself, three as a VectorField3."""
    return comps[0] if len(comps) == 1 else VectorField3(*comps)


def zeros_field(grid: Grid3, kind: str):
    """All-zero field of the given kind (ndarray or VectorField3)."""
    return _as_field([np.zeros(s) for s in grid._shapes(kind)])


def random_field(grid: Grid3, kind: str, rng, margin: int = 0):
    """Standard-normal field of the given kind, drawn one component at a time
    in x, y, z order.

    On pinned grids a positive `margin` zeroes that many entries at both ends
    of every axis, so that the field has compact support in the box.
    """
    comps = [rng.standard_normal(s) for s in grid._shapes(kind)]
    if margin and grid.boundary == "pinned":
        for arr in comps:
            for ax in range(3):
                arr.swapaxes(0, ax)[:margin] = 0.0
                arr.swapaxes(0, ax)[-margin:] = 0.0
    return _as_field(comps)


def _as_fn(value) -> Callable:
    if callable(value):
        return value
    c = float(value)
    return lambda x, y, z: np.full_like(x, c)


def _sample(grid: Grid3, pattern: str, fn) -> np.ndarray:
    """A function (or constant) sampled at the points of one pattern: fn
    gets the pattern's three 1D axes shaped to broadcast (a sparse
    meshgrid), and its result is broadcast to the pattern's shape.  A
    pointwise fn takes the same operands in the same order at every point
    as on whole meshgrids, so it has the same bits, from a fraction of the
    work."""
    axes = np.meshgrid(*grid._pattern_axes(pattern), indexing="ij", sparse=True)
    vals = np.asarray(_as_fn(fn)(*axes), dtype=float)
    shape = grid._pattern_shape(pattern)
    return vals if vals.shape == shape else np.broadcast_to(vals, shape).copy()


def _weight(grid: Grid3, pattern: str, value) -> np.ndarray:
    """A star weight at the points of one pattern: a function sampled, or a
    constant held as one read-only broadcast view of its value."""
    if callable(value):
        return _sample(grid, pattern, value)
    return np.broadcast_to(float(value), grid._pattern_shape(pattern))


def _distinct(w: np.ndarray):
    """What a test over every sample of a weight must read: the one value of
    a constant weight (a view with all strides 0), else the whole array."""
    return w.flat[0] if not any(w.strides) else w


def _reciprocal(w: np.ndarray) -> np.ndarray:
    """1 / w; the reciprocal of a constant weight (a view with all strides
    0) is taken on its one value and stays one broadcast view."""
    if not any(w.strides):
        return np.broadcast_to(1.0 / w.flat[0], w.shape)
    return 1.0 / w


def sample_scalar(grid: Grid3, kind: str, fn) -> np.ndarray:
    """Sample a function (or constant) at the points of a scalar kind."""
    return _sample(grid, _patterns(kind, SCALAR_KINDS)[0], fn)


def sample_vector(grid: Grid3, kind: str, fns) -> VectorField3:
    """Sample three functions (or constants) at a vector kind's points."""
    patterns = _patterns(kind, VECTOR_KINDS)
    return VectorField3(*(_sample(grid, p, fn) for p, fn in zip(patterns, fns)))


def _components(field, grid: Grid3, kind: str, who: str, shapes=None) -> tuple:
    """The component arrays of a field of `kind` (one for a scalar kind),
    checked against `shapes`, by default the kind's shapes on `grid`."""
    shapes = grid._shapes(kind) if shapes is None else shapes
    if len(shapes) == 1:
        comps = (np.asarray(field),)
    elif isinstance(field, VectorField3):
        comps = field.components
    else:
        raise ValueError(f"{who}: expected a VectorField3 of kind {kind!r}")
    for comp, shape in zip(comps, shapes):
        if comp.shape != shape:
            got = tuple(c.shape for c in comps)
            raise ValueError(f"{who}: expected {kind} component shapes {shapes}, got {got}")
    return comps


# ---------------------------------------------------------------------------
# difference operators
# ---------------------------------------------------------------------------

# the (input component, axis) differences making up each output component,
# combined in order: subtracted by the curls, added by the divergences
_GRAD_TERMS = (((0, 0),), ((0, 1),), ((0, 2),))
_CURL_TERMS = (((2, 1), (1, 2)), ((0, 2), (2, 0)), ((1, 0), (0, 1)))
_DIV_TERMS = (((0, 0), (1, 1), (2, 2)),)


def _zero_rim(arr: np.ndarray, pattern: str) -> np.ndarray:
    """The rim rule, in place: zero both end planes of every node-aligned axis."""
    for plane in _rim(pattern, 0, len(arr), len(arr))[1]:
        arr[plane] = 0.0
    return arr


def _rim_zeroed(field, kind: str):
    """Float copy of a field of `kind` with every component's rim zeroed."""
    comps = getattr(field, "components", (field,))
    return _as_field([_zero_rim(np.array(comp, dtype=float), pattern)
                      for pattern, comp in zip(_PATTERNS[kind], comps)])


def _along(axis: int, index, base=(slice(None),) * 3) -> tuple:
    """An index that applies `index` along one axis and keeps `base` on the other two."""
    return tuple(index if ax == axis else b for ax, b in enumerate(base))


_FIRST, _LAST = slice(None, 1), slice(-1, None)

# the rim interior of each pattern: both end planes of each node-aligned axis cut off
_RIM_INTERIOR = {p: tuple(slice(1, -1) if tag == "n" else slice(None) for tag in p)
                 for p in _ALL_PATTERNS}


@functools.cache
def _rim(pattern: str, a: int, b: int, n: int) -> tuple:
    """(inside, planes) of the slab of planes a..b, of the n along axis 0,
    of a rimmed output of `pattern`: the index of its rim interior within
    the slab, and the rim planes of the slab that the rim rule zeroes (an
    end plane of axis 0 only in the slab that holds it)."""
    span = slice(max(a, 1), min(b, n - 1)) if pattern[0] == "n" else slice(a, b)
    inside = (slice(span.start - a, span.stop - a), *_RIM_INTERIOR[pattern][1:])
    ends = {0: a == 0, -1: b == n}
    planes = tuple(_along(axis, end) for axis, tag in enumerate(pattern) if tag == "n"
                   for end in (0, -1) if axis or ends[end])
    return inside, planes


@functools.cache
def _reach(pattern: str, axis: int, a: int, b: int, shape: tuple, boundary: str) -> tuple:
    """(size, out, hi, lo, counts, strides, wraps) of one difference along
    `axis` onto planes a..b, along axis 0, of `pattern`, from a C-contiguous
    input of `shape`: forward onto a half-shifted axis, backward onto a
    node-aligned one.  block[out] <- flat[hi] - flat[lo] spans the entries
    read, in a block of `size` laid out like the input, and the term (for a
    pinned backward one, a rimmed output's interior) is the block seen with
    `counts` and byte `strides`; its other entries pair the ends of two rows
    (junk).  On a periodic grid the end plane of the difference axis (the
    last forward, the first backward) is junk or out of reach, and each
    wrap (o, hi, lo) overwrites it: term[o] <- whole[hi] - whole[lo]."""
    back = pattern[axis] == "n"
    s = (shape[1] * shape[2], shape[2], 1)
    wraps = ()
    if boundary == "periodic":
        counts = (b - a, *shape[1:])
        first = a * s[0] - back * s[axis]  # the entry the term's first one subtracts
        if axis or (a == 0 if back else b == shape[0]):
            base = (slice(a, b), slice(None), slice(None))
            wraps = ((_along(axis, _FIRST if back else _LAST), _along(axis, _FIRST, base),
                      _along(axis, _LAST, base)),)
    else:
        if back and pattern[0] == "n":  # the rim interior among the planes
            a, b = max(a, 1), min(b, shape[0] - (axis != 0))
        lo = [a - (back and axis == 0)] + [back and pattern[ax] == "n" and ax != axis
                                           for ax in (1, 2)]
        counts = (max(b - a, 0), *(shape[ax] - (ax == axis) - 2 * lo[ax] for ax in (1, 2)))
        first = int(np.dot(lo, s))
    size = int(np.dot(counts, s)) - sum(s) + 1 if min(counts) else 0
    # the entries whose operands are both inside the input
    e0 = max(0, -first)
    e1 = max(e0, min(size, shape[0] * s[0] - s[axis] - first))
    return (size, slice(e0, e1), slice(first + e0 + s[axis], first + e1 + s[axis]),
            slice(first + e0, first + e1), counts, (8 * s[0], 8 * s[1], 8), wraps)


# each operator's input kind, output kind, term table and how its terms combine
_OPERATORS = {
    "grad3": ("node", "edge", _GRAD_TERMS, np.add),
    "curl3": ("edge", "face", _CURL_TERMS, np.subtract),
    "div3": ("face", "cell", _DIV_TERMS, np.add),
    "grad3_star": ("dual-node", "dual-edge", _GRAD_TERMS, np.add),
    "curl3_star": ("dual-edge", "dual-face", _CURL_TERMS, np.subtract),
    "div3_star": ("dual-face", "dual-cell", _DIV_TERMS, np.add),
}


def _difference(op: str, field, grid: Grid3, out=None, work=None, scaled=True, *,
                weights=None, flux=None, rows=None):
    """The difference operator `op` from its term table, as calls: it yields
    (result, calls) per output component, where running `calls` in order
    (`_run`) forms that component in `result`: the one loop of the six
    operators and of `wave3d`'s plans and audit.  Onto a dual kind it
    differences backward and obeys the rim rule.  The calls hold views of
    their operands (of a copy, for an input component not C-contiguous),
    bound once, to run as often as the fields hold new values.  Every
    difference is one subtraction over its input's span (`_reach`), plus a
    wrap plane on a periodic grid; the later passes read the term's view, so
    no junk reaches a result (into a primal output, the view of shorter rows
    is copied first).  Each entry has the operands and operations, so the
    bits, of the hand formula.

    `rows`, one (a, b) per output component, forms only planes a..b of each
    along axis 0, a slab, which `result` then holds; a pinned slab zeroes
    the rim planes it holds.  `out`, a field of the output (or slab) shapes,
    receives the result; its components may share one buffer if each one's
    calls run before the next is used.  `work`, made when a term first
    needs it, holds the terms: two input components, each rounded up to
    whole 8-entry cache lines.  When every term of an unweighted component
    is laid out like its result, the first is formed in the result.
    `scaled` is as for `grad3`.
    `weights` differences weights[c] * comps[c] for input component c, each
    formed whole just before its difference, as `star_matrix` does, in
    `flux` (required with `weights`), a flat float array one input
    component long, which `out` may share.
    """
    in_kind, out_kind, terms, combine = _OPERATORS[op]
    comps = [np.ascontiguousarray(c) for c in _components(field, grid, in_kind, op)]
    wholes = grid._shapes(out_kind)
    rows = rows or [(0, whole[0]) for whole in wholes]
    shapes = tuple((b - a, *whole[1:]) for (a, b), whole in zip(rows, wholes))
    rim = grid.boundary == "pinned" and out_kind.startswith("dual-")
    if out is None:
        outs = [np.zeros(s) if rim else np.empty(s) for s in shapes]
    else:
        outs = _components(out, grid, out_kind, op, shapes)
    spacings = grid.spacings
    for pattern, component_terms, result, (a, b), (n, _, _) in zip(
            _PATTERNS[out_kind], terms, outs, rows, wholes):
        inside, planes = _rim(pattern, a, b, n) if rim else (None, ())
        acc = result[inside] if rim else result
        reaches = [_reach(pattern, axis, a, b, comps[c].shape, grid.boundary)
                   for c, axis in component_terms]
        # the first term is formed in the result when every term is laid out
        # like it, so that the others combine into it without strided reads
        direct = weights is None and acc.flags.c_contiguous and all(
            (counts, strides) == (acc.shape, acc.strides) for *_, counts, strides, _ in reaches)
        calls, later = [], 0  # later: where the stretches of later terms start
        for k, ((c, axis), (size, span, hi, lo, counts, strides, wraps)) in enumerate(
                zip(component_terms, reaches)):
            source = comps[c]
            if weights is not None:
                weighted = _slot(flux, source)
                calls.append((np.multiply, (weights[c], source, weighted)))
                source = weighted
            if direct and not k:
                term, stretch = acc, acc.reshape(-1)
            else:
                if work is None:
                    work = np.empty(2 * _lines(max(comp.size for comp in comps)))
                stretch = work[later:later + size]
                term = np.ndarray(counts, float, stretch, 0, strides)
            flat = source.reshape(-1)
            calls.append((np.subtract, (flat[hi], flat[lo], stretch[span])))
            calls += [(np.subtract, (source[h], source[l], term[o])) for o, h, l in wraps]
            if scaled:
                calls.append((divide_in_place, (stretch, spacings[axis])))
            last = k == len(component_terms) - 1
            if last and out is not None:
                calls += [(np.copyto, (result[plane], 0.0)) for plane in planes]
            if last and k and not rim and first is not acc:
                # numpy copies a view of short rows faster than its arithmetic reads one
                lead = first if first.strides[1] != 8 * first.shape[2] else term
                calls.append((np.copyto, (acc, lead)))
                first, term = (acc, term) if lead is first else (first, acc)
            if k:
                calls.append((combine, (first, term, acc if last else first)))
                continue
            first, later = term, 0 if term is acc else _lines(size)
            if last and term is not acc:
                calls.append((np.copyto, (acc, term)))
        yield result, calls


def _run(calls):
    """Run bound calls, (function, arguments) pairs, in order."""
    for function, args in calls:
        function(*args)


def _apply(op: str, field, grid: Grid3, out, scaled):
    """The whole output field of the difference operator `op`."""
    results = []
    for result, calls in _difference(op, field, grid, out, None, scaled):
        _run(calls)
        results.append(result)
    return _as_field(results)


def _slot(work, like):
    """The start of `work`, as long as `like` and shaped like it."""
    return work[:like.size].reshape(like.shape)


def _lines(n: int) -> int:
    """n float64 entries rounded up to whole 64-byte cache lines."""
    return -(-n // 8) * 8


def grad3(s, grid: Grid3, out=None, scaled=True) -> VectorField3:
    """Node scalar -> edge vector (forward differences to edge midpoints).

    Each of the six operators takes an optional `out`, a field of its
    output kind that receives the result.  With `scaled=False` the
    differences are left undivided: an update plan on a cube with a
    power-of-two spacing h moves 1/h into dt.
    """
    return _apply("grad3", s, grid, out, scaled)


def curl3(t: VectorField3, grid: Grid3, out=None, scaled=True) -> VectorField3:
    """Edge vector -> face vector; see `grad3`."""
    return _apply("curl3", t, grid, out, scaled)


def div3(n: VectorField3, grid: Grid3, out=None, scaled=True) -> np.ndarray:
    """Face vector -> cell scalar; see `grad3`."""
    return _apply("div3", n, grid, out, scaled)


def grad3_star(s_star, grid: Grid3, out=None, scaled=True) -> VectorField3:
    """Dual node scalar (cell centers) -> dual edge vector (face points).

    On pinned grids the entries whose backward stencil would leave the box
    are zero-filled.  Buffers as for `grad3`.
    """
    return _apply("grad3_star", s_star, grid, out, scaled)


def curl3_star(t_star: VectorField3, grid: Grid3, out=None, scaled=True) -> VectorField3:
    """Dual edge vector (face points) -> dual face vector (edge points); see `grad3`."""
    return _apply("curl3_star", t_star, grid, out, scaled)


def div3_star(n_star: VectorField3, grid: Grid3, out=None, scaled=True) -> np.ndarray:
    """Dual face vector (edge points) -> dual cell scalar (nodes); see `grad3`."""
    return _apply("div3_star", n_star, grid, out, scaled)


# ---------------------------------------------------------------------------
# star (material) operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Star3:
    """Material maps between collocated primal/dual kinds, every one diagonal.

    ``a`` (node scalars -> dual cell densities) and ``b`` (dual node
    scalars -> cell densities) are scalar weights; ``A`` (edge -> dual face)
    and ``B`` (dual edge -> face) are diagonal tensors, one weight per
    component.  Every weight is positive and acts on its collocated
    component alone, so each map inverts exactly, point by point: the
    conserved quantities of the time steppers rest on that.

    Build instances with :meth:`trivial`, :meth:`from_scalars` or
    :meth:`from_diagonals`.
    """

    grid: Grid3
    a: np.ndarray
    b: np.ndarray
    # the weights of A, A^-1, B and B^-1, entry r sampled at the points of
    # component r of the kinds the map joins
    a_diag: tuple
    a_inv_diag: tuple
    b_diag: tuple
    b_inv_diag: tuple

    def __post_init__(self):
        if np.any(_distinct(self.a) <= 0) or np.any(_distinct(self.b) <= 0):
            raise ValueError("scalar star coefficients must be positive")

    def is_unit(self, weight: str) -> bool:
        """True when a weight is exactly 1.0 at every sample, so that applying
        it changes no bit (a product or quotient by 1.0 is exact).  `weight`
        names a scalar weight ("a", "b") or a diagonal ("a_diag",
        "b_inv_diag", ...)."""
        weights = getattr(self, weight)
        if weight in ("a", "b"):
            weights = (weights,)
        return all(bool(np.all(_distinct(w) == 1.0)) for w in weights)

    # -- constructors ---------------------------------------------------

    @classmethod
    def trivial(cls, grid: Grid3) -> "Star3":
        """Unit materials: a = b = 1, A = B = identity."""
        return cls.from_scalars(grid, 1.0, 1.0, 1.0, 1.0)

    @classmethod
    def from_scalars(cls, grid: Grid3, a, b, coef_a, coef_b) -> "Star3":
        """A = coef_a * identity, B = coef_b * identity."""
        return cls.from_diagonals(grid, a, b, (coef_a,) * 3, (coef_b,) * 3)

    @classmethod
    def from_diagonals(cls, grid: Grid3, a, b, diag_a, diag_b) -> "Star3":
        """Diagonal A and B; ``diag_*`` are 3-tuples of constants/functions."""
        da = tuple(_weight(grid, p, w) for p, w in zip(_PATTERNS["edge"], diag_a, strict=True))
        db = tuple(_weight(grid, p, w) for p, w in zip(_PATTERNS["face"], diag_b, strict=True))
        if any(np.any(_distinct(w) <= 0) for w in da + db):
            raise ValueError("diagonal star entries must be positive")
        return cls(grid, _weight(grid, _PATTERNS["node"][0], a),
                   _weight(grid, _PATTERNS["cell"][0], b),
                   da, tuple(map(_reciprocal, da)), db, tuple(map(_reciprocal, db)))

    @classmethod
    def from_matrices(cls, grid: Grid3, a, b, mat_a, mat_b) -> "Star3":
        """Refuses every full tensor: use :meth:`from_diagonals`.

        A full tensor inverted point by point has no exact inverse, so a
        march over it could conserve nothing.  The name stays for perfbench's
        layer tracer, which wraps every Star3 constructor it lists, this one
        included, until its list drops it.
        """
        raise ValueError("full-matrix stars have no exact inverse and are not supported; "
                         "use Star3.from_diagonals")


_SCALAR_DIRECTIONS = ("node-to-dual-cell", "dual-node-to-cell")


def _scale(field, star: Star3, direction: str, inverse: bool, who: str, out) -> np.ndarray:
    if direction not in _SCALAR_DIRECTIONS:
        raise ValueError(f"direction must be one of {_SCALAR_DIRECTIONS}")
    # a direction "X-to-Y" maps kind X onto kind Y, and its inverse Y onto X
    kind = direction.split("-to-")[inverse]
    (f,) = _components(field, star.grid, kind, who)
    w = getattr(star, _WEIGHTS[kind][0])
    return np.true_divide(f, w, out=out) if inverse else np.multiply(w, f, out=out)


def star_scalar(field, star: Star3, direction: str, out=None) -> np.ndarray:
    """Multiply a scalar kind onto its collocated partner.

    ``"node-to-dual-cell"``: node scalar -> dual cell density (weight ``a``);
    ``"dual-node-to-cell"``: dual node scalar -> cell density (weight ``b``).
    An `out` array, which may be `field` itself, receives the result.
    """
    return _scale(field, star, direction, False, "star_scalar", out)


def star_scalar_inverse(field, star: Star3, direction: str, out=None) -> np.ndarray:
    """Inverse of :func:`star_scalar` for the same ``direction`` label."""
    return _scale(field, star, direction, True, "star_scalar_inverse", out)


# the kinds each matrix star maps from and to, forward
_STAR_KINDS = {"a": ("edge", "dual-face"), "b": ("dual-edge", "face")}


def _diagonal(star: Star3, which: str, inverse: bool) -> tuple:
    """The three weights of A (``which="a"``) or B, or of its inverse."""
    return getattr(star, f"{which}_inv_diag" if inverse else f"{which}_diag")


def star_matrix(
    vec: VectorField3, star: Star3, which: str = "a", inverse: bool = False, out=None
) -> VectorField3:
    """Apply the diagonal star A (edges <-> dual faces) or B (dual edges <->
    faces), or its inverse, one component at a time.

    ``which="a"``: forward maps edge -> dual face, inverse maps dual face ->
    edge.  ``which="b"``: forward maps dual edge -> face, inverse maps
    face -> dual edge.  Each output component is its weight times the
    collocated input component, so an `out` field of the output kind, which
    receives the result, may be `vec` itself.
    """
    if which not in _STAR_KINDS:
        raise ValueError("which must be 'a' or 'b'")
    in_kind, out_kind = _STAR_KINDS[which][::-1] if inverse else _STAR_KINDS[which]
    comps = _components(vec, star.grid, in_kind, "star_matrix")
    outs = (None,) * 3 if out is None else _components(out, star.grid, out_kind, "star_matrix")
    return VectorField3(*(np.multiply(w, c, out=o)
                          for w, c, o in zip(_diagonal(star, which, inverse), comps, outs)))


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------

# (star letter, inverse): the weight of each inner product, w*f1*f2 or
# f1*f2/w for a scalar kind and star_matrix(which, inverse) for a vector kind
_WEIGHTS = {
    "node": ("a", False), "edge": ("a", False), "cell": ("b", True), "face": ("b", True),
    "dual-node": ("b", False), "dual-edge": ("b", False),
    "dual-cell": ("a", True), "dual-face": ("a", True),
}


def inner3(kind: str, f1, f2, star: Star3, grid: Grid3, work=None) -> float:
    """One of the eight weighted inner products.

    Scalar kinds sum ``w * f1 * f2 * dV`` with weight ``a`` (node), ``1/b``
    (cell), ``b`` (dual-node) or ``1/a`` (dual-cell).  Vector kinds sum the
    weighted componentwise product with weight ``A`` (edge), ``B^-1``
    (face), ``B`` (dual-edge) or ``A^-1`` (dual-face).

    Each component's weighted factor, ``w * f1`` or ``f1 / w`` (inverse
    scalar kinds) as `star_matrix` and `star_scalar_inverse` form it, is
    reduced against f2 in one fused product-sum, ``np.einsum("ijk,ijk->")``,
    and the components are added in fixed x, y, z order.  einsum runs on
    the calling thread and its sum depends on neither the alignment of its
    inputs nor the call, so results are bit-reproducible; a BLAS dot would
    spin up threads for every product.

    `work`, a flat float array at least one component long, holds each
    weighted factor in place of a fresh one: the same operations into a
    C-contiguous array of the component's shape, so the same bits.
    """
    if star.grid != grid:
        raise ValueError("star was built for a different grid")
    c1 = _components(f1, grid, kind, "inner3")
    c2 = _components(f2, grid, kind, "inner3")
    which, inverse = _WEIGHTS[kind]
    scalar = kind in SCALAR_KINDS
    weights = (getattr(star, which),) if scalar else _diagonal(star, which, inverse)
    divide = scalar and inverse  # a scalar star stores w alone, a diagonal one its inverse too
    total = 0.0
    for w, a1, a2 in zip(weights, c1, c2):
        out = None if work is None else _slot(work, a1)
        weighted = np.true_divide(a1, w, out=out) if divide else np.multiply(w, a1, out=out)
        total += float(np.einsum("ijk,ijk->", weighted, a2))
    return total * grid.cell_volume


# ---------------------------------------------------------------------------
# verification: adjointness and negativity
# ---------------------------------------------------------------------------


def check_discrete_adjoints(
    star: Star3,
    grid: Grid3,
    trials: int = 20,
    seed: int = 0,
    broken_sign: bool = False,
) -> dict:
    """Measure the discrete adjoint identities with random fields.

    Checks, as normalized residuals maximized over ``trials`` draws:

    * gradient:   <G s, t>_edge      = <s, -a^-1 D*(A t)>_node
    * curl:       <R t, n>_face      = <t, A^-1 R*(B^-1 n)>_edge
    * divergence: <D n, d>_cell      = <n, -B G*(b^-1 d)>_face
    * composite:  <A G s, m>_dual-face = -<s, a^-1 D* m>_node

    On pinned grids the random fields vanish in a 2-entry boundary layer so
    no boundary terms appear.  ``broken_sign`` flips the gradient identity's
    sign to demonstrate that the detector reports O(1) for a wrong adjoint.
    Returns a dict of residuals plus their ``"max"``.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    floor = 1e-300
    res = {"grad": 0.0, "curl": 0.0, "div": 0.0, "composite": 0.0}
    sign = 1.0 if broken_sign else -1.0
    for _ in range(trials):
        s, t, n, d, m = (
            random_field(grid, kind, rng, margin=2)
            for kind in ("node", "edge", "face", "cell", "dual-face")
        )

        ns = np.sqrt(inner3("node", s, s, star, grid))
        nt = np.sqrt(inner3("edge", t, t, star, grid))
        nn = np.sqrt(inner3("face", n, n, star, grid))
        nd = np.sqrt(inner3("cell", d, d, star, grid))
        nm = np.sqrt(inner3("dual-face", m, m, star, grid))

        lhs = inner3("edge", grad3(s, grid), t, star, grid)
        adj = star_scalar_inverse(
            div3_star(star_matrix(t, star, which="a"), grid), star, "node-to-dual-cell"
        )
        rhs = sign * inner3("node", s, adj, star, grid)
        res["grad"] = max(res["grad"], abs(lhs - rhs) / (ns * nt + floor))

        lhs = inner3("face", curl3(t, grid), n, star, grid)
        adj = star_matrix(
            curl3_star(star_matrix(n, star, which="b", inverse=True), grid),
            star,
            which="a",
            inverse=True,
        )
        rhs = inner3("edge", t, adj, star, grid)
        res["curl"] = max(res["curl"], abs(lhs - rhs) / (nt * nn + floor))

        lhs = inner3("cell", div3(n, grid), d, star, grid)
        adj = star_matrix(
            grad3_star(star_scalar_inverse(d, star, "dual-node-to-cell"), grid),
            star,
            which="b",
        )
        rhs = -inner3("face", n, adj, star, grid)
        res["div"] = max(res["div"], abs(lhs - rhs) / (nn * nd + floor))

        lhs = inner3("dual-face", star_matrix(grad3(s, grid), star, which="a"), m, star, grid)
        adj = star_scalar_inverse(div3_star(m, grid), star, "node-to-dual-cell")
        rhs = -inner3("node", s, adj, star, grid)
        res["composite"] = max(res["composite"], abs(lhs - rhs) / (ns * nm + floor))
    res["max"] = max(res.values())
    return res


def negativity_check(
    star: Star3, grid: Grid3, trials: int = 100, seed: int = 0
) -> bool:
    """True if <a^-1 D* A G f, f>_node <= +1e-12 * <f, f>_node for random f.

    The operator is a weighted discrete Laplacian; its node inner product
    against f equals -<A G f, G f> and must never be meaningfully positive.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        f = random_field(grid, "node", rng, margin=2)
        lap = star_scalar_inverse(
            div3_star(star_matrix(grad3(f, grid), star, which="a"), grid),
            star,
            "node-to-dual-cell",
        )
        val = inner3("node", lap, f, star, grid)
        scale = inner3("node", f, f, star, grid)
        if val > 1e-12 * scale:
            return False
    return True
