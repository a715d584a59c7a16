"""Tests for the 3D staggered grids, operators, stars, and inner products.

Reference values marked "oracle" are frozen from
tests/oracles/mimetic3d_oracle.py.
"""

import numpy as np
import pytest

from stagwave.mimetic3d import (
    Grid3,
    SCALAR_KINDS,
    Star3,
    VECTOR_KINDS,
    VectorField3,
    check_discrete_adjoints,
    curl3,
    curl3_star,
    div3,
    div3_star,
    grad3,
    grad3_star,
    inner3,
    negativity_check,
    sample_scalar,
    sample_vector,
    star_matrix,
    star_scalar,
    star_scalar_inverse,
    zeros_field,
)
from stagwave.wave3d import pin_scalar_boundary, pin_tangential_boundary

TWO_PI = 2.0 * np.pi


# --- smooth periodic fields with hand-computed derivatives -------------------

def scal(x, y, z):
    return np.sin(x) * np.sin(y) * np.sin(z)


GRAD = (
    lambda x, y, z: np.cos(x) * np.sin(y) * np.sin(z),
    lambda x, y, z: np.sin(x) * np.cos(y) * np.sin(z),
    lambda x, y, z: np.sin(x) * np.sin(y) * np.cos(z),
)

EDGE = (
    lambda x, y, z: np.sin(y) * np.cos(z),
    lambda x, y, z: np.sin(z) * np.cos(x),
    lambda x, y, z: np.sin(x) * np.cos(y),
)

CURL = (
    lambda x, y, z: -np.sin(x) * np.sin(y) - np.cos(z) * np.cos(x),
    lambda x, y, z: -np.sin(y) * np.sin(z) - np.cos(x) * np.cos(y),
    lambda x, y, z: -np.sin(z) * np.sin(x) - np.cos(y) * np.cos(z),
)

FACE = (
    lambda x, y, z: np.sin(x) * np.cos(y),
    lambda x, y, z: np.sin(y) * np.cos(z),
    lambda x, y, z: np.sin(z) * np.cos(x),
)


def face_div(x, y, z):
    return np.cos(x) * np.cos(y) + np.cos(y) * np.cos(z) + np.cos(z) * np.cos(x)


def vec_err(got, want):
    return max(
        float(np.max(np.abs(a - b))) for a, b in zip(got.components, want.components)
    )


def sampled_at(grid, kind, fns):
    """Analytic component functions evaluated at a vector kind's points."""
    return sample_vector(grid, kind, fns)


def random_vector(grid, kind, rng):
    return VectorField3(*(rng.standard_normal(s) for s in grid.vector_shapes(kind)))


# ---------------------------------------------------------------------------
# grid and field plumbing
# ---------------------------------------------------------------------------


class TestGrid3:
    def test_geometry(self):
        g = Grid3(1.0, 2.0, 4.0, 4, 8, 16)
        assert g.spacings == (0.25, 0.25, 0.25)
        assert g.cell_volume == pytest.approx(0.25**3)
        assert g.counts == (4, 8, 16)

    def test_cube(self):
        g = Grid3.cube(6, length=3.0, boundary="pinned")
        assert g.counts == (6, 6, 6)
        assert g.dx == pytest.approx(0.5)
        assert g.boundary == "pinned"

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid3(0.0, 1.0, 1.0, 4, 4, 4)
        with pytest.raises(ValueError):
            Grid3(1.0, 1.0, 1.0, 1, 4, 4)
        with pytest.raises(ValueError):
            Grid3(1.0, 1.0, 1.0, 4, 4, 4, boundary="open")

    def test_periodic_shapes_are_uniform(self):
        g = Grid3.cube(5)
        for kind in SCALAR_KINDS:
            assert g.scalar_shape(kind) == (5, 5, 5)
        for kind in VECTOR_KINDS:
            assert g.vector_shapes(kind) == ((5, 5, 5),) * 3

    def test_pinned_shapes_are_staggered(self):
        g = Grid3(1.0, 1.0, 1.0, 3, 4, 5, boundary="pinned")
        assert g.scalar_shape("node") == (4, 5, 6)
        assert g.scalar_shape("cell") == (3, 4, 5)
        assert g.scalar_shape("dual-node") == (3, 4, 5)
        assert g.scalar_shape("dual-cell") == (4, 5, 6)
        assert g.vector_shapes("edge") == ((3, 5, 6), (4, 4, 6), (4, 5, 5))
        assert g.vector_shapes("face") == ((4, 4, 5), (3, 5, 5), (3, 4, 6))
        # dual kinds are collocated with the opposite primal kind
        assert g.vector_shapes("dual-edge") == g.vector_shapes("face")
        assert g.vector_shapes("dual-face") == g.vector_shapes("edge")

    def test_axis_points(self):
        g = Grid3.cube(4, boundary="pinned")
        assert np.allclose(g.axis_nodes(0), [0, 0.25, 0.5, 0.75, 1.0])
        assert np.allclose(g.axis_centers(0), [0.125, 0.375, 0.625, 0.875])
        gp = Grid3.cube(4)
        assert np.allclose(gp.axis_nodes(0), [0, 0.25, 0.5, 0.75])

    def test_unknown_kind(self):
        g = Grid3.cube(4)
        with pytest.raises(ValueError):
            g.scalar_shape("corner")
        with pytest.raises(ValueError):
            g.vector_shapes("diagonal")


class TestVectorField3:
    def test_arithmetic(self):
        a = VectorField3(np.ones((2, 2, 2)), np.ones((2, 2, 2)), np.ones((2, 2, 2)))
        b = 2.0 * a
        c = b - a + (-a)
        assert np.all(b.x == 2.0)
        assert np.all(c.y == 0.0)
        assert np.all((a * 3.0).z == 3.0)

    def test_zeros_field(self):
        g = Grid3.cube(3, boundary="pinned")
        s = zeros_field(g, "node")
        assert s.shape == (4, 4, 4) and np.all(s == 0)
        t = zeros_field(g, "edge")
        assert t.x.shape == (3, 4, 4)


# ---------------------------------------------------------------------------
# difference operators
# ---------------------------------------------------------------------------


class TestDifferenceOperators:
    @pytest.mark.parametrize("boundary", ["periodic", "pinned"])
    def test_constants_map_to_zero(self, boundary):
        g = Grid3.cube(4, boundary=boundary)
        s = sample_scalar(g, "node", 3.0)
        assert vec_err(grad3(s, g), zeros_field(g, "edge")) == 0.0
        t = sample_vector(g, "edge", (1.0, 2.0, 3.0))
        # pinned dual outputs are zero-filled at the rim, so constants still
        # land on exact zeros only for the primal (un-filled) operators
        assert vec_err(curl3(t, g), zeros_field(g, "face")) == 0.0
        n = sample_vector(g, "face", (1.0, 2.0, 3.0))
        assert np.all(div3(n, g) == 0.0)
        # dual operators: interior differences of a constant vanish and the
        # pinned rim is zero-filled, so every entry is exactly zero
        sd = sample_scalar(g, "dual-node", 5.0)
        for comp in grad3_star(sd, g).components:
            assert np.all(comp == 0.0)

    def test_affine_gradient_exact_on_pinned(self):
        g = Grid3.cube(8, boundary="pinned")
        s = sample_scalar(g, "node", lambda x, y, z: x + 2 * y + 3 * z)
        got = grad3(s, g)
        assert np.allclose(got.x, 1.0, rtol=0, atol=1e-13)
        assert np.allclose(got.y, 2.0, rtol=0, atol=1e-13)
        assert np.allclose(got.z, 3.0, rtol=0, atol=1e-13)

    def _accuracy(self, op, in_kind, in_fns, out_kind, out_fns, n):
        g = Grid3.cube(n, TWO_PI)
        if in_kind in SCALAR_KINDS:
            f = sample_scalar(g, in_kind, in_fns)
        else:
            f = sampled_at(g, in_kind, in_fns)
        got = op(f, g)
        if out_kind in SCALAR_KINDS:
            want = sample_scalar(g, out_kind, out_fns)
            return float(np.max(np.abs(got - want)))
        return vec_err(got, sampled_at(g, out_kind, out_fns))

    @pytest.mark.parametrize(
        "op,in_kind,in_fns,out_kind,out_fns,e8,e16",
        [
            # oracle: mimetic3d_oracle.py operator_errors
            (grad3, "node", scal, "edge", GRAD, 2.356322e-02, 6.289922e-03),
            (curl3, "edge", EDGE, "face", CURL, 3.332342e-02, 8.895293e-03),
            (div3, "face", FACE, "cell", face_div, 6.530872e-02, 1.850719e-02),
            (grad3_star, "dual-node", scal, "dual-edge", GRAD, 2.176957e-02, 6.169063e-03),
            (curl3_star, "dual-edge", EDGE, "dual-face", CURL, 3.332342e-02, 8.895293e-03),
            (div3_star, "dual-face", FACE, "dual-cell", face_div, 7.651392e-02, 1.923945e-02),
        ],
        ids=["grad3", "curl3", "div3", "grad3_star", "curl3_star", "div3_star"],
    )
    def test_second_order_accuracy(self, op, in_kind, in_fns, out_kind, out_fns, e8, e16):
        err8 = self._accuracy(op, in_kind, in_fns, out_kind, out_fns, 8)
        err16 = self._accuracy(op, in_kind, in_fns, out_kind, out_fns, 16)
        assert err8 == pytest.approx(e8, rel=1e-5)
        assert err16 == pytest.approx(e16, rel=1e-5)
        assert 3.5 <= err8 / err16 <= 4.5

    @pytest.mark.parametrize("boundary", ["periodic", "pinned"])
    def test_exactness_of_both_chains(self, boundary):
        # roundoff-only bound needs h = O(1), hence the 2*pi box
        g = Grid3.cube(8, TWO_PI, boundary=boundary)
        rng = np.random.default_rng(2)
        eps = np.finfo(float).eps
        h = g.dx

        s = rng.standard_normal(g.scalar_shape("node"))
        bound = 16 * eps * float(np.max(np.abs(s))) / h
        rg = curl3(grad3(s, g), g)
        assert max(float(np.max(np.abs(c))) for c in rg.components) <= bound

        t = random_vector(g, "edge", rng)
        bound = 16 * eps * max(float(np.max(np.abs(c))) for c in t.components) / h
        assert float(np.max(np.abs(div3(curl3(t, g), g)))) <= bound

        sd = rng.standard_normal(g.scalar_shape("dual-node"))
        bound = 16 * eps * float(np.max(np.abs(sd))) / h
        rgs = curl3_star(grad3_star(sd, g), g)
        assert max(float(np.max(np.abs(c))) for c in rgs.components) <= bound

        td = random_vector(g, "dual-edge", rng)
        bound = 16 * eps * max(float(np.max(np.abs(c))) for c in td.components) / h
        assert float(np.max(np.abs(div3_star(curl3_star(td, g), g)))) <= bound

    def test_shape_mismatch_raises(self):
        g = Grid3.cube(4, boundary="pinned")
        with pytest.raises(ValueError, match="shape"):
            grad3(np.zeros((4, 4, 4)), g)
        with pytest.raises(ValueError, match="shape"):
            curl3(zeros_field(g, "face"), g)
        with pytest.raises(ValueError, match="shape"):
            div3(zeros_field(g, "edge"), g)
        with pytest.raises(ValueError, match="shape"):
            div3_star(zeros_field(g, "dual-edge"), g)
        with pytest.raises(ValueError):
            curl3(np.zeros((4, 4, 4)), g)  # not a VectorField3


# --- the operators' bits, against their hand-indexed formulas ----------------
#
# Each operator written out per component and per boundary policy, with every
# slice spelled by hand.  The library derives the same arithmetic from its kind
# table, term tables and rim rule, so the outputs must agree bit for bit.


def _roll_fwd(a, axis, d):
    return (np.roll(a, -1, axis) - a) / d


def _roll_bwd(a, axis, d):
    return (a - np.roll(a, 1, axis)) / d


def ref_grad3(s, g):
    dx, dy, dz = g.spacings
    if g.boundary == "periodic":
        return VectorField3(_roll_fwd(s, 0, dx), _roll_fwd(s, 1, dy), _roll_fwd(s, 2, dz))
    return VectorField3(
        np.diff(s, axis=0) / dx, np.diff(s, axis=1) / dy, np.diff(s, axis=2) / dz
    )


def ref_curl3(t, g):
    dx, dy, dz = g.spacings
    if g.boundary == "periodic":
        return VectorField3(
            _roll_fwd(t.z, 1, dy) - _roll_fwd(t.y, 2, dz),
            _roll_fwd(t.x, 2, dz) - _roll_fwd(t.z, 0, dx),
            _roll_fwd(t.y, 0, dx) - _roll_fwd(t.x, 1, dy),
        )
    return VectorField3(
        np.diff(t.z, axis=1) / dy - np.diff(t.y, axis=2) / dz,
        np.diff(t.x, axis=2) / dz - np.diff(t.z, axis=0) / dx,
        np.diff(t.y, axis=0) / dx - np.diff(t.x, axis=1) / dy,
    )


def ref_div3(n, g):
    dx, dy, dz = g.spacings
    if g.boundary == "periodic":
        return _roll_fwd(n.x, 0, dx) + _roll_fwd(n.y, 1, dy) + _roll_fwd(n.z, 2, dz)
    return np.diff(n.x, axis=0) / dx + np.diff(n.y, axis=1) / dy + np.diff(n.z, axis=2) / dz


def ref_grad3_star(s, g):
    dx, dy, dz = g.spacings
    if g.boundary == "periodic":
        return VectorField3(_roll_bwd(s, 0, dx), _roll_bwd(s, 1, dy), _roll_bwd(s, 2, dz))
    nx, ny, nz = g.counts
    out = VectorField3(
        np.zeros((nx + 1, ny, nz)), np.zeros((nx, ny + 1, nz)), np.zeros((nx, ny, nz + 1))
    )
    out.x[1:-1, :, :] = np.diff(s, axis=0) / dx
    out.y[:, 1:-1, :] = np.diff(s, axis=1) / dy
    out.z[:, :, 1:-1] = np.diff(s, axis=2) / dz
    return out


def ref_curl3_star(t, g):
    dx, dy, dz = g.spacings
    if g.boundary == "periodic":
        return VectorField3(
            _roll_bwd(t.z, 1, dy) - _roll_bwd(t.y, 2, dz),
            _roll_bwd(t.x, 2, dz) - _roll_bwd(t.z, 0, dx),
            _roll_bwd(t.y, 0, dx) - _roll_bwd(t.x, 1, dy),
        )
    nx, ny, nz = g.counts
    out = VectorField3(
        np.zeros((nx, ny + 1, nz + 1)),
        np.zeros((nx + 1, ny, nz + 1)),
        np.zeros((nx + 1, ny + 1, nz)),
    )
    out.x[:, 1:-1, 1:-1] = (
        np.diff(t.z[:, :, 1:-1], axis=1) / dy - np.diff(t.y[:, 1:-1, :], axis=2) / dz
    )
    out.y[1:-1, :, 1:-1] = (
        np.diff(t.x[1:-1, :, :], axis=2) / dz - np.diff(t.z[:, :, 1:-1], axis=0) / dx
    )
    out.z[1:-1, 1:-1, :] = (
        np.diff(t.y[:, 1:-1, :], axis=0) / dx - np.diff(t.x[1:-1, :, :], axis=1) / dy
    )
    return out


def ref_div3_star(n, g):
    dx, dy, dz = g.spacings
    if g.boundary == "periodic":
        return _roll_bwd(n.x, 0, dx) + _roll_bwd(n.y, 1, dy) + _roll_bwd(n.z, 2, dz)
    nx, ny, nz = g.counts
    out = np.zeros((nx + 1, ny + 1, nz + 1))
    out[1:-1, 1:-1, 1:-1] = (
        np.diff(n.x[:, 1:-1, 1:-1], axis=0) / dx
        + np.diff(n.y[1:-1, :, 1:-1], axis=1) / dy
        + np.diff(n.z[1:-1, 1:-1, :], axis=2) / dz
    )
    return out


# name: (operator, reference, input kind)
BIT_CASES = {
    "grad3": (grad3, ref_grad3, "node"),
    "curl3": (curl3, ref_curl3, "edge"),
    "div3": (div3, ref_div3, "face"),
    "grad3_star": (grad3_star, ref_grad3_star, "dual-node"),
    "curl3_star": (curl3_star, ref_curl3_star, "dual-edge"),
    "div3_star": (div3_star, ref_div3_star, "dual-face"),
}

# node-aligned axes of each component of the pinned dual outputs and of the
# fields the pin helpers take, written out by hand
NODE_AXES = {
    "dual-edge": ((0,), (1,), (2,)),
    "dual-face": ((1, 2), (0, 2), (0, 1)),
    "dual-cell": ((0, 1, 2),),
}


def box(boundary):
    """3 x 4 x 5 cells with three different extents, so every spacing differs."""
    return Grid3(0.7, 1.3, 2.9, 3, 4, 5, boundary=boundary)


def comps(field):
    return getattr(field, "components", (field,))


def rim_mask(shape, axes):
    """True on both end planes of each listed axis."""
    mask = np.zeros(shape, dtype=bool)
    for ax in axes:
        mask.swapaxes(0, ax)[[0, -1]] = True
    return mask


def random_input(g, kind, rng):
    if kind in SCALAR_KINDS:
        return rng.standard_normal(g.scalar_shape(kind))
    return random_vector(g, kind, rng)


class TestOperatorBits:
    @pytest.mark.parametrize("boundary", ["periodic", "pinned"])
    @pytest.mark.parametrize("name", list(BIT_CASES))
    def test_operator_equals_hand_indexed_formula(self, name, boundary):
        op, ref, kind = BIT_CASES[name]
        g = box(boundary)
        rng = np.random.default_rng(11)
        for _ in range(3):
            f = random_input(g, kind, rng)
            got, want = comps(op(f, g)), comps(ref(f, g))
            assert [c.shape for c in got] == [c.shape for c in want]
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("boundary", ["periodic", "pinned"])
    @pytest.mark.parametrize("name", list(BIT_CASES))
    def test_power_of_two_spacings_equal_the_hand_indexed_formula(self, name, boundary):
        # spacings 0.5, 0.125 and 2: the operators multiply by the exact
        # reciprocal, and the bits must still be those of the division
        op, ref, kind = BIT_CASES[name]
        g = Grid3(1.5, 0.5, 10.0, 3, 4, 5, boundary=boundary)
        rng = np.random.default_rng(14)
        for _ in range(3):
            f = random_input(g, kind, rng)
            f_big = random_input(g, kind, rng)
            for part in comps(f_big):
                part *= 1e307  # some scaled differences overflow to inf
            for x in (f, f_big):
                with np.errstate(over="ignore", invalid="ignore"):
                    got, want = comps(op(x, g)), comps(ref(x, g))
                assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(got, want))

    @pytest.mark.parametrize(
        "op, in_kind, out_kind",
        [
            (grad3_star, "dual-node", "dual-edge"),
            (curl3_star, "dual-edge", "dual-face"),
            (div3_star, "dual-face", "dual-cell"),
        ],
    )
    def test_pinned_dual_outputs_are_zero_exactly_on_the_rim(self, op, in_kind, out_kind):
        g = box("pinned")
        out = comps(op(random_input(g, in_kind, np.random.default_rng(12)), g))
        for comp, axes in zip(out, NODE_AXES[out_kind]):
            rim = rim_mask(comp.shape, axes)
            assert np.all(comp[rim] == 0.0)
            assert np.all(comp[~rim] != 0.0)  # random data: nothing else vanishes

    def test_pin_helpers_zero_exactly_the_rim(self):
        g = box("pinned")
        rng = np.random.default_rng(13)
        s = rng.standard_normal(g.scalar_shape("node")) + 10.0
        e = VectorField3(*(rng.standard_normal(sh) + 10.0 for sh in g.vector_shapes("edge")))
        # nodes sit where dual cells do and edges where dual faces do, so the
        # helpers zero the same planes as the rim rule of those dual outputs
        for pinned, field, kind in (
            (pin_scalar_boundary(s), s, "dual-cell"),
            (pin_tangential_boundary(e), e, "dual-face"),
        ):
            for out, orig, axes in zip(comps(pinned), comps(field), NODE_AXES[kind]):
                rim = rim_mask(out.shape, axes)
                assert np.all(out[rim] == 0.0)
                assert np.array_equal(out[~rim], orig[~rim])
            assert np.all(comps(field)[0] != 0.0)  # the input is untouched


# ---------------------------------------------------------------------------
# star operators
# ---------------------------------------------------------------------------


class TestStarScalar:
    def test_unit_coefficient_is_identity(self):
        g = Grid3.cube(4)
        st = Star3.trivial(g)
        s = sample_scalar(g, "node", lambda x, y, z: x + y * z)
        assert np.array_equal(star_scalar(s, st, "node-to-dual-cell"), s)

    def test_constant_multiply_and_invert(self):
        g = Grid3.cube(4)
        st = Star3.from_scalars(g, 2.0, 2.0, 1.0, 1.0)
        s = np.full(g.scalar_shape("node"), 3.0)
        d = star_scalar(s, st, "node-to-dual-cell")
        assert np.all(d == 6.0)
        assert np.all(star_scalar_inverse(d, st, "node-to-dual-cell") == 3.0)

    def test_round_trip_within_one_ulp(self):
        g = Grid3.cube(6)
        rng = np.random.default_rng(0)
        a = lambda x, y, z: 0.5 + 1.5 * (0.5 + 0.5 * np.sin(7 * x + 3 * y - z))
        st = Star3.from_scalars(g, a, a, 1.0, 1.0)
        for direction in ("node-to-dual-cell", "dual-node-to-cell"):
            kind = "node" if direction == "node-to-dual-cell" else "dual-node"
            s = rng.standard_normal(g.scalar_shape(kind))
            rt = star_scalar_inverse(star_scalar(s, st, direction), st, direction)
            assert np.all(np.abs(rt - s) <= np.spacing(np.abs(s)))

    def test_nonpositive_coefficient_rejected(self):
        g = Grid3.cube(4)
        with pytest.raises(ValueError, match="positive"):
            Star3.from_scalars(g, 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            Star3.from_scalars(g, 1.0, lambda x, y, z: x - 10.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            Star3.from_diagonals(g, 1.0, 1.0, (1.0, 0.0, 1.0), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="positive"):
            Star3.from_diagonals(g, 1.0, 1.0, (1.0,) * 3, (1.0, 1.0, lambda x, y, z: -x))

    def test_diagonal_needs_three_weights(self):
        g = Grid3.cube(4)
        with pytest.raises(ValueError, match="shorter"):
            Star3.from_diagonals(g, 1.0, 1.0, (1.0, 2.0), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="longer"):
            Star3.from_diagonals(g, 1.0, 1.0, (1.0,) * 3, (1.0,) * 4)

    def test_unknown_direction(self):
        g = Grid3.cube(4)
        st = Star3.trivial(g)
        with pytest.raises(ValueError, match="direction"):
            star_scalar(zeros_field(g, "node"), st, "sideways")


class TestStarMatrix:
    def test_identity_relabels(self):
        g = Grid3.cube(4)
        st = Star3.trivial(g)
        rng = np.random.default_rng(1)
        t = random_vector(g, "edge", rng)
        out = star_matrix(t, st, which="a")
        assert vec_err(out, t) == 0.0

    def test_constant_diagonal(self):
        g = Grid3.cube(4)
        st = Star3.from_diagonals(g, 1.0, 1.0, (2.0, 3.0, 4.0), (1.0, 1.0, 1.0))
        t = sample_vector(g, "edge", (1.0, 1.0, 1.0))
        out = star_matrix(t, st, which="a")
        assert np.all(out.x == 2.0) and np.all(out.y == 3.0) and np.all(out.z == 4.0)

    def test_diagonal_round_trip_one_ulp(self):
        g = Grid3.cube(5)
        d = (
            lambda x, y, z: 1.0 + 0.5 * np.sin(x),
            lambda x, y, z: 1.0 + 0.5 * np.sin(y),
            lambda x, y, z: 1.0 + 0.5 * np.sin(z),
        )
        st = Star3.from_diagonals(g, 1.0, 1.0, d, d)
        rng = np.random.default_rng(4)
        t = random_vector(g, "edge", rng)
        rt = star_matrix(star_matrix(t, st, "a"), st, "a", inverse=True)
        for a, b in zip(rt.components, t.components):
            assert np.all(np.abs(a - b) <= np.spacing(np.abs(b)))

    def test_invalid_which(self):
        g = Grid3.cube(4)
        st = Star3.trivial(g)
        with pytest.raises(ValueError, match="which"):
            star_matrix(zeros_field(g, "edge"), st, which="c")


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------


class TestInner3:
    def test_unit_box_node_count_periodic(self):
        g = Grid3.cube(4)
        st = Star3.trivial(g)
        ones = np.ones(g.scalar_shape("node"))
        # 64 stored nodes x (1/4)^3 cell volume
        assert inner3("node", ones, ones, st, g) == pytest.approx(1.0, abs=0)

    def test_unit_box_node_count_pinned(self):
        g = Grid3.cube(4, boundary="pinned")
        st = Star3.trivial(g)
        ones = np.ones(g.scalar_shape("node"))
        assert inner3("node", ones, ones, st, g) == pytest.approx(125.0 / 64.0)

    def test_symmetry_scalar_and_diagonal(self):
        g = Grid3.cube(6)
        d = (
            lambda x, y, z: 1.0 + 0.5 * np.cos(x),
            lambda x, y, z: 2.0 + np.sin(y) ** 2,
            lambda x, y, z: 1.5 + 0.25 * np.sin(z),
        )
        st = Star3.from_diagonals(
            g, lambda x, y, z: 1.0 + 0.5 * np.sin(x + y), 2.0, d, d
        )
        rng = np.random.default_rng(3)
        for kind in SCALAR_KINDS + VECTOR_KINDS:
            if kind in SCALAR_KINDS:
                f = rng.standard_normal(g.scalar_shape(kind))
                h = rng.standard_normal(g.scalar_shape(kind))
            else:
                f = random_vector(g, kind, rng)
                h = random_vector(g, kind, rng)
            fg = inner3(kind, f, h, st, g)
            gf = inner3(kind, h, f, st, g)
            scale = np.sqrt(inner3(kind, f, f, st, g) * inner3(kind, h, h, st, g))
            assert abs(fg - gf) <= 1e-15 * scale

    def test_positive_definite(self):
        g = Grid3.cube(5)
        st = Star3.from_diagonals(
            g,
            lambda x, y, z: 1.0 + 0.9 * np.sin(x),
            lambda x, y, z: 0.5 + 0.4 * np.cos(y),
            (2.0, 3.0, 4.0),
            (0.5, 1.5, 2.5),
        )
        rng = np.random.default_rng(6)
        kinds = SCALAR_KINDS + VECTOR_KINDS
        for i in range(100):
            kind = kinds[i % len(kinds)]
            if kind in SCALAR_KINDS:
                f = rng.standard_normal(g.scalar_shape(kind))
            else:
                f = random_vector(g, kind, rng)
            assert inner3(kind, f, f, st, g) > 0.0

    @pytest.mark.parametrize("boundary", ["pinned", "periodic"])
    @pytest.mark.parametrize("mode", ["scalar", "diagonal"])
    def test_exact_star_vector_kinds_equal_star_matrix_product(self, mode, boundary):
        # the componentwise weights must reproduce star_matrix followed by
        # the product bit for bit
        g = Grid3(1.0, 1.5, 0.75, 4, 5, 6, boundary=boundary)
        if mode == "scalar":
            st = Star3.from_scalars(g, 1.0, 1.0, 1.7, 0.6)
        else:
            st = variable_diagonal_star(g)
        rng = np.random.default_rng(11)
        which = {"edge": ("a", False), "face": ("b", True),
                 "dual-edge": ("b", False), "dual-face": ("a", True)}
        for kind in VECTOR_KINDS:
            f, h = random_vector(g, kind, rng), random_vector(g, kind, rng)
            weighted = star_matrix(f, st, *which[kind]).components
            ref = sum(float(np.sum(w * c)) for w, c in zip(weighted, h.components))
            assert inner3(kind, f, h, st, g) == ref * g.cell_volume

    def test_kind_mismatch_raises(self):
        g = Grid3.cube(4, boundary="pinned")
        st = Star3.trivial(g)
        with pytest.raises(ValueError, match="shape"):
            inner3("face", zeros_field(g, "edge"), zeros_field(g, "edge"), st, g)
        with pytest.raises(ValueError, match="kind"):
            inner3("corner", np.zeros((4, 4, 4)), np.zeros((4, 4, 4)), st, g)

    def test_grid_mismatch_raises(self):
        g = Grid3.cube(4)
        other = Grid3.cube(5)
        st = Star3.trivial(g)
        with pytest.raises(ValueError, match="grid"):
            inner3(
                "node",
                zeros_field(other, "node"),
                zeros_field(other, "node"),
                st,
                other,
            )


# ---------------------------------------------------------------------------
# adjointness and negativity
# ---------------------------------------------------------------------------


def variable_diagonal_star(grid):
    return Star3.from_diagonals(
        grid,
        lambda x, y, z: 1.5 + 0.5 * np.sin(x) * np.cos(y + z),
        lambda x, y, z: 1.0 + 0.5 * np.cos(x * y),
        (
            lambda x, y, z: 2.0 + np.cos(x),
            lambda x, y, z: 2.0 + np.cos(y),
            lambda x, y, z: 2.0 + np.cos(z),
        ),
        (
            lambda x, y, z: 1.5 + 0.5 * np.sin(x),
            lambda x, y, z: 1.5 + 0.5 * np.sin(y),
            lambda x, y, z: 1.5 + 0.5 * np.sin(z),
        ),
    )


class TestAdjointChecks:
    def test_trivial_periodic(self):
        g = Grid3.cube(8, TWO_PI)
        res = check_discrete_adjoints(Star3.trivial(g), g, trials=20)
        assert res["max"] <= 1e-13

    def test_variable_materials_periodic(self):
        g = Grid3.cube(8, TWO_PI)
        res = check_discrete_adjoints(variable_diagonal_star(g), g, trials=20)
        assert res["max"] <= 1e-12

    def test_compact_support_pinned(self):
        g = Grid3.cube(10, boundary="pinned")
        res = check_discrete_adjoints(variable_diagonal_star(g), g, trials=20)
        assert res["max"] <= 1e-12

    def test_broken_sign_is_detected(self):
        g = Grid3.cube(8, TWO_PI)
        res = check_discrete_adjoints(Star3.trivial(g), g, trials=5, broken_sign=True)
        assert res["grad"] > 0.1

    def test_reports_all_identities(self):
        g = Grid3.cube(6)
        res = check_discrete_adjoints(Star3.trivial(g), g, trials=3)
        assert set(res) == {"grad", "curl", "div", "composite", "max"}

    def test_trials_validation(self):
        g = Grid3.cube(4)
        with pytest.raises(ValueError):
            check_discrete_adjoints(Star3.trivial(g), g, trials=0)


class TestNegativity:
    def test_zero_field_gives_zero(self):
        g = Grid3.cube(5)
        st = Star3.trivial(g)
        f = zeros_field(g, "node")
        lap = star_scalar_inverse(
            div3_star(star_matrix(grad3(f, g), st, which="a"), g),
            st,
            "node-to-dual-cell",
        )
        assert inner3("node", lap, f, st, g) == 0.0

    def test_constant_field_gives_zero_on_periodic(self):
        g = Grid3.cube(5)
        st = Star3.trivial(g)
        f = np.full(g.scalar_shape("node"), 2.5)
        lap = star_scalar_inverse(
            div3_star(star_matrix(grad3(f, g), st, which="a"), g),
            st,
            "node-to-dual-cell",
        )
        assert inner3("node", lap, f, st, g) == 0.0

    @pytest.mark.parametrize("boundary", ["periodic", "pinned"])
    def test_random_fields(self, boundary):
        length = TWO_PI if boundary == "periodic" else 1.0
        g = Grid3.cube(8, length, boundary=boundary)
        assert negativity_check(variable_diagonal_star(g), g, trials=100)

    def test_trials_validation(self):
        g = Grid3.cube(4)
        with pytest.raises(ValueError):
            negativity_check(Star3.trivial(g), g, trials=0)


# ---------------------------------------------------------------------------
# constant star weights
# ---------------------------------------------------------------------------


def _as_functions(a, b, diag_a, diag_b):
    """The same constants as functions, which Star3 samples into full arrays."""
    def const(c):
        return lambda x, y, z: np.full_like(x, c)

    return const(a), const(b), tuple(map(const, diag_a)), tuple(map(const, diag_b))


CONSTANT_STARS = {
    "unit": (1.0, 1.0, (1.0,) * 3, (1.0,) * 3),
    "scalar": (2.0, 1.5, (3.0,) * 3, (2.5,) * 3),
    "diagonal": (1.5, 2.0, (2.0, 3.0, 0.3), (1.5, 2.5, 3.5)),
}


class TestConstantStar:
    @pytest.mark.parametrize("boundary", ["pinned", "periodic"])
    @pytest.mark.parametrize("name", sorted(CONSTANT_STARS))
    def test_constant_weights_are_views_with_the_bits_of_sampled_ones(self, name, boundary):
        g = Grid3(1.0, 1.5, 0.75, 4, 5, 6, boundary=boundary)
        st = Star3.from_diagonals(g, *CONSTANT_STARS[name])
        ref = Star3.from_diagonals(g, *_as_functions(*CONSTANT_STARS[name]))
        def arrays(star, w):
            return [getattr(star, w)] if w in ("a", "b") else list(getattr(star, w))

        for w in ["a", "b", "a_diag", "a_inv_diag", "b_diag", "b_inv_diag"]:
            for arr, want in zip(arrays(st, w), arrays(ref, w)):
                # one read-only value, not a copy per sample point
                assert not any(arr.strides) and not arr.flags.writeable
                assert arr.shape == want.shape and np.array_equal(arr, want)
            assert st.is_unit(w) == ref.is_unit(w) == (name == "unit")
        rng = np.random.default_rng(17)
        for which in ("a", "b"):
            in_kinds = {"a": ("edge", "dual-face"), "b": ("dual-edge", "face")}[which]
            for inverse, kind in zip((False, True), in_kinds):
                f = random_vector(g, kind, rng)
                for got, want in zip(star_matrix(f, st, which, inverse).components,
                                     star_matrix(f, ref, which, inverse).components):
                    assert np.array_equal(got, want)
        for direction, kind in (("node-to-dual-cell", "node"), ("dual-node-to-cell", "dual-node")):
            s = rng.standard_normal(g.scalar_shape(kind))
            weighted = star_scalar(s, st, direction)
            assert np.array_equal(weighted, star_scalar(s, ref, direction))
            assert np.array_equal(star_scalar_inverse(weighted, st, direction),
                                  star_scalar_inverse(weighted, ref, direction))
        for kind in SCALAR_KINDS + VECTOR_KINDS:
            f, h = random_input(g, kind, rng), random_input(g, kind, rng)
            assert inner3(kind, f, h, st, g) == inner3(kind, f, h, ref, g)
        assert check_discrete_adjoints(st, g, trials=3) == check_discrete_adjoints(ref, g, trials=3)
