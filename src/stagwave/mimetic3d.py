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
The operators see the policy only through ``_STENCILS``, one index table of
every per-axis difference built at import, and the rim rule: on pinned grids
both end planes of every node-aligned axis of a dual output are zero, which
is exactly the set of entries a Dirichlet-pinned time stepper never updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import divide_in_place

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

    def _pattern_points(self, pattern: str) -> tuple:
        axes = [
            self.axis_nodes(ax) if tag == "n" else self.axis_centers(ax)
            for ax, tag in enumerate(pattern)
        ]
        return np.meshgrid(*axes, indexing="ij")

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
    """A function (or constant) sampled at the points of one pattern."""
    vals = np.asarray(_as_fn(fn)(*grid._pattern_points(pattern)), dtype=float)
    shape = grid._pattern_shape(pattern)
    if vals.shape != shape:
        vals = np.broadcast_to(vals, shape).copy()
    return vals


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


def _components(field, grid: Grid3, kind: str, who: str) -> tuple:
    """The component arrays of a field of `kind` (one for a scalar kind),
    checked against the kind's shapes on `grid`."""
    shapes = grid._shapes(kind)
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
    for plane in _RIM_PLANES[pattern]:
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


_HI, _LO = slice(1, None), slice(None, -1)
_FIRST, _LAST = slice(None, 1), slice(-1, None)

# the rim interior of each pattern (both end planes of each node-aligned axis
# cut off) and the rim planes that the rim rule zeroes
_RIM_INTERIOR = {p: tuple(slice(1, -1) if tag == "n" else slice(None) for tag in p)
                 for p in _ALL_PATTERNS}
_RIM_PLANES = {p: [_along(axis, end) for axis, tag in enumerate(p) if tag == "n"
                   for end in (0, -1)] for p in _ALL_PATTERNS}


def _stencil(boundary: str, pattern: str, axis: int) -> tuple:
    """The (out, hi, lo) index triples of one difference along `axis` onto
    the points of `pattern`, out[out] <- arr[hi] - arr[lo] for each: forward
    onto a half-shifted axis, backward onto a node-aligned one.  A periodic
    stencil wraps the end plane round; a pinned backward one fills only the
    rim interior (its `out`), cutting the input to that first."""
    forward = pattern[axis] == "h"
    if boundary == "periodic":
        out, wrap = (_LO, _LAST) if forward else (_HI, _FIRST)
        return ((_along(axis, out), _along(axis, _HI), _along(axis, _LO)),
                (_along(axis, wrap), _along(axis, _FIRST), _along(axis, _LAST)))
    cut = (slice(None),) * 3 if forward else _RIM_INTERIOR[pattern]
    return ((..., _along(axis, _HI, cut), _along(axis, _LO, cut)),)


_STENCILS = {(boundary, p, axis): _stencil(boundary, p, axis)
             for boundary in BOUNDARIES for p in _ALL_PATTERNS for axis in range(3)}


def _diff(arr, axis: int, grid: Grid3, out, pattern: str, scaled: bool):
    """out <- the difference of arr along one axis onto the points of
    `pattern` (see `_stencil`), divided by the spacing when `scaled`."""
    for o, hi, lo in _STENCILS[grid.boundary, pattern, axis]:
        np.subtract(arr[hi], arr[lo], out=out[o])
    if scaled:
        divide_in_place(out, grid.spacings[axis])


def _difference(field, grid: Grid3, in_kind, out_kind, terms, who, combine=np.add,
                out=None, work=None, scaled=True):
    """A difference operator from its term table, one output component at a
    time.  Onto a dual kind it differences backward and obeys the rim rule,
    writing straight into the interior of a zero-rimmed output.

    `out`, a field of `out_kind`, receives the result in place of a fresh
    one.  `work`, a flat float array at least two output components long,
    each rounded up to a whole number of 8-entry cache lines, holds the terms
    in place of temporaries.  `scaled=False` leaves every difference
    undivided by its spacing.
    """
    comps = _components(field, grid, in_kind, who)
    rim = out_kind.startswith("dual-") and grid.boundary == "pinned"
    if out is None:
        outs = [np.zeros(s) if rim else np.empty(s) for s in grid._shapes(out_kind)]
    else:
        outs = [_zero_rim(o, p) if rim else o
                for o, p in zip(_components(out, grid, out_kind, who), _PATTERNS[out_kind])]
    slots = rim + (len(terms[0]) > 1)  # the first term of a rimmed output, later terms
    if work is None and slots:
        work = np.empty(slots * _lines(max(o.size for o in outs)))
    for pattern, component_terms, acc in zip(_PATTERNS[out_kind], terms, outs):
        if rim:
            acc = acc[_RIM_INTERIOR[pattern]]
        (c, axis), *rest = component_terms
        # a rimmed output's interior is strided, and arithmetic in place on it
        # runs at half speed, so its terms are formed in contiguous work
        first = _slot(work, 0, acc) if rim else acc
        _diff(comps[c], axis, grid, first, pattern, scaled)
        if rim and not rest:
            acc[...] = first
        for c, axis in rest:
            term = _slot(work, rim, acc)
            _diff(comps[c], axis, grid, term, pattern, scaled)
            combine(first, term, out=acc)
            first = acc
    return _as_field(outs)


def _slot(work, k: int, like):
    """The k-th stretch of `work` as long as `like`, shaped like it.  The
    stretches start on whole cache lines of `work`."""
    start = k * _lines(like.size)
    return work[start:start + like.size].reshape(like.shape)


def _lines(n: int) -> int:
    """n float64 entries rounded up to whole 64-byte cache lines."""
    return -(-n // 8) * 8


def grad3(s, grid: Grid3, out=None, work=None, scaled=True) -> VectorField3:
    """Node scalar -> edge vector (forward differences to edge midpoints).

    Each of the six operators takes the same two optional buffers: `out`, a
    field of its output kind that receives the result, and `work`, a flat
    float array for the terms, at least two output components long with
    each rounded up to a whole number of 8-entry cache lines.  With
    `scaled=False` the differences are left undivided by their spacings: an
    update hook on a cube with a power-of-two spacing h moves the exact 1/h
    into its dt instead.
    """
    return _difference(s, grid, "node", "edge", _GRAD_TERMS, "grad3", out=out, work=work,
                       scaled=scaled)


def curl3(t: VectorField3, grid: Grid3, out=None, work=None, scaled=True) -> VectorField3:
    """Edge vector -> face vector."""
    return _difference(t, grid, "edge", "face", _CURL_TERMS, "curl3", np.subtract, out, work,
                       scaled)


def div3(n: VectorField3, grid: Grid3, out=None, work=None, scaled=True) -> np.ndarray:
    """Face vector -> cell scalar."""
    return _difference(n, grid, "face", "cell", _DIV_TERMS, "div3", out=out, work=work,
                       scaled=scaled)


def grad3_star(s_star, grid: Grid3, out=None, work=None, scaled=True) -> VectorField3:
    """Dual node scalar (cell centers) -> dual edge vector (face points).

    On pinned grids the entries whose backward stencil would leave the box
    are zero-filled.
    """
    return _difference(s_star, grid, "dual-node", "dual-edge", _GRAD_TERMS, "grad3_star",
                       out=out, work=work, scaled=scaled)


def curl3_star(t_star: VectorField3, grid: Grid3, out=None, work=None,
               scaled=True) -> VectorField3:
    """Dual edge vector (face points) -> dual face vector (edge points)."""
    return _difference(t_star, grid, "dual-edge", "dual-face", _CURL_TERMS, "curl3_star",
                       np.subtract, out, work, scaled)


def div3_star(n_star: VectorField3, grid: Grid3, out=None, work=None,
              scaled=True) -> np.ndarray:
    """Dual face vector (edge points) -> dual cell scalar (nodes)."""
    return _difference(n_star, grid, "dual-face", "dual-cell", _DIV_TERMS, "div3_star",
                       out=out, work=work, scaled=scaled)


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


def inner3(kind: str, f1, f2, star: Star3, grid: Grid3) -> float:
    """One of the eight weighted inner products.

    Scalar kinds sum ``w * f1 * f2 * dV`` with weight ``a`` (node), ``1/b``
    (cell), ``b`` (dual-node) or ``1/a`` (dual-cell).  Vector kinds sum the
    weighted componentwise product with weight ``A`` (edge), ``B^-1``
    (face), ``B`` (dual-edge) or ``A^-1`` (dual-face).  Components are
    reduced in fixed x, y, z order so results are bit-reproducible.
    """
    if star.grid != grid:
        raise ValueError("star was built for a different grid")
    dv = grid.cell_volume
    c1 = _components(f1, grid, kind, "inner3")
    c2 = _components(f2, grid, kind, "inner3")
    which, inverse = _WEIGHTS[kind]
    if kind in SCALAR_KINDS:
        w, (a1,), (a2,) = getattr(star, which), c1, c2
        return float(np.sum(a1 * a2 / w if inverse else w * a1 * a2)) * dv
    # one component at a time: star_matrix's arithmetic, without ever
    # holding the whole weighted field
    total = 0.0
    for w, a1, a2 in zip(_diagonal(star, which, inverse), c1, c2):
        w = w * a1
        w *= a2  # w is a fresh product, so the second factor can go in place
        total += float(np.sum(w))
    return total * dv


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
