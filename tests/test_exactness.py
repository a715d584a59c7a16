"""Exactness of both 3D difference chains on random boxes, and the buffers
the difference and star kernels write into.

curl of gradient and divergence of curl vanish identically on both chains;
in floating point each entry is a cancellation of second differences that
are equal in exact arithmetic, so the residual is a few roundings of the
largest second difference.  With M the largest input magnitude and h_a h_b
the smallest product of two distinct spacings, a second difference is at
most 4 M / (h_a h_b) and is formed with four roundings (two differences, two
divisions), each off by at most eps/2 of its result.  curl∘grad subtracts
two such values, div∘curl combines six with four more roundings on values
up to 8 M / (h_a h_b); the bounds below, 32 and 128 eps M / (h_a h_b), sit
above those sums with room to spare, and a wrong stencil misses them by
orders of magnitude.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stagwave.mimetic3d import (
    Grid3,
    Star3,
    curl3,
    curl3_star,
    div3,
    div3_star,
    grad3,
    grad3_star,
    random_field,
    star_matrix,
    star_scalar,
    star_scalar_inverse,
)

EPS = np.finfo(float).eps

# (inner operator, outer operator, input kind, bound in eps * M / (h_a h_b))
CHAINS = {
    "curl3(grad3)": (grad3, curl3, "node", 32.0),
    "div3(curl3)": (curl3, div3, "edge", 128.0),
    "curl3_star(grad3_star)": (grad3_star, curl3_star, "dual-node", 32.0),
    "div3_star(curl3_star)": (curl3_star, div3_star, "dual-edge", 128.0),
}


def _parts(field):
    return getattr(field, "components", (field,))


@st.composite
def boxes(draw):
    counts = [draw(st.integers(min_value=2, max_value=7)) for _ in range(3)]
    extents = [draw(st.floats(min_value=0.1, max_value=10.0)) for _ in range(3)]
    boundary = draw(st.sampled_from(["periodic", "pinned"]))
    return Grid3(*extents, *counts, boundary=boundary)


@pytest.mark.parametrize("chain", list(CHAINS))
@settings(max_examples=60, deadline=None)
@given(grid=boxes(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_chain_vanishes_to_roundoff(chain, grid, seed):
    inner, outer, kind, factor = CHAINS[chain]
    field = random_field(grid, kind, np.random.default_rng(seed))
    big = max(float(np.max(np.abs(c))) for c in _parts(field))
    h = grid.spacings
    bound = factor * EPS * big / min(h[0] * h[1], h[0] * h[2], h[1] * h[2])
    residual = max(float(np.max(np.abs(c))) for c in _parts(outer(inner(field, grid), grid)))
    assert residual <= bound


# ---------------------------------------------------------------------------
# out= and work= buffers of the kernels
# ---------------------------------------------------------------------------

OPERATORS = {
    "grad3": (grad3, "node", "edge"),
    "curl3": (curl3, "edge", "face"),
    "div3": (div3, "face", "cell"),
    "grad3_star": (grad3_star, "dual-node", "dual-edge"),
    "curl3_star": (curl3_star, "dual-edge", "dual-face"),
    "div3_star": (div3_star, "dual-face", "dual-cell"),
}


def _box(boundary):
    return Grid3(0.7, 1.3, 2.9, 3, 4, 5, boundary=boundary)


@pytest.mark.parametrize("boundary, scaled", [
    ("periodic", True), ("pinned", True), ("periodic", False), ("pinned", False),
], ids=["periodic", "pinned", "periodic-unscaled", "pinned-unscaled"])
@pytest.mark.parametrize("name", list(OPERATORS))
def test_operator_into_stale_buffers_equals_a_fresh_result(name, boundary, scaled):
    op, in_kind, out_kind = OPERATORS[name]
    grid = _box(boundary)
    rng = np.random.default_rng(21)
    field = random_field(grid, in_kind, rng)
    # every entry of the buffers starts nonzero, the pinned rim included
    out = random_field(grid, out_kind, rng)
    # two of the largest components, each rounded up to whole 8-entry cache lines
    work = rng.standard_normal(2 * 8 * -(-np.prod(grid.scalar_shape("node")) // 8))
    got = op(field, grid, out=out, work=work, scaled=scaled)
    want = op(field, grid, scaled=scaled)
    for g, o, w in zip(_parts(got), _parts(out), _parts(want)):
        assert g is o
        assert np.array_equal(g, w)


def _stars(grid):
    return {
        "scalar": Star3.from_scalars(grid, 1.5, 2.0, 2.5, 3.0),
        "diagonal": Star3.from_diagonals(grid, 1.5, 2.0, (2.0, 3.0, 4.0), (1.5, 2.5, 3.5)),
        # sampled weights are whole arrays, where constants are broadcast views
        "varying": Star3.from_diagonals(
            grid, 1.5, 2.0,
            (lambda x, y, z: 2.0 + x, lambda x, y, z: 3.0 + y * z, lambda x, y, z: 4.0 - z),
            (lambda x, y, z: 1.5 + y, lambda x, y, z: 2.5 - x * y, lambda x, y, z: 3.5 + z),
        ),
    }


@pytest.mark.parametrize("boundary", ["periodic", "pinned"])
@pytest.mark.parametrize("mode", ["scalar", "diagonal", "varying"])
@pytest.mark.parametrize(
    "which, inverse, in_kind",
    [("a", False, "edge"), ("a", True, "dual-face"), ("b", False, "dual-edge"),
     ("b", True, "face")],
)
def test_star_matrix_in_place_equals_a_fresh_result(boundary, mode, which, inverse, in_kind):
    grid = _box(boundary)
    star = _stars(grid)[mode]
    vec = random_field(grid, in_kind, np.random.default_rng(22))
    want = star_matrix(vec, star, which, inverse)
    got = star_matrix(vec, star, which, inverse, out=vec)
    for g, v, w in zip(_parts(got), _parts(vec), _parts(want)):
        assert g is v
        assert np.array_equal(g, w)


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("direction, kinds", [
    ("node-to-dual-cell", ("node", "dual-cell")),
    ("dual-node-to-cell", ("dual-node", "cell")),
])
def test_star_scalar_in_place_equals_a_fresh_result(inverse, direction, kinds):
    grid = _box("pinned")
    star = _stars(grid)["diagonal"]
    apply = star_scalar_inverse if inverse else star_scalar
    field = random_field(grid, kinds[inverse], np.random.default_rng(23))
    want = apply(field, star, direction)
    got = apply(field, star, direction, out=field)
    assert got is field and np.array_equal(got, want)


def test_is_unit_reads_the_sampled_weights():
    grid = _box("pinned")
    unit = Star3.trivial(grid)
    assert all(unit.is_unit(w) for w in ("a", "b", "a_diag", "a_inv_diag", "b_diag",
                                         "b_inv_diag"))
    half = Star3.from_diagonals(grid, 1.0, 2.0, (1.0, 1.0, 1.0), (1.0, 1.0, 3.0))
    assert half.is_unit("a") and not half.is_unit("b")
    assert half.is_unit("a_diag") and half.is_unit("a_inv_diag")
    assert not half.is_unit("b_diag") and not half.is_unit("b_inv_diag")
    # a weight of 1 everywhere but one sample is not unit
    bump = Star3.from_diagonals(grid, 1.0, 1.0,
                                (lambda x, y, z: np.where(x > 0.3, 1.0 + 2**-52, 1.0), 1.0, 1.0),
                                (1.0, 1.0, 1.0))
    assert not bump.is_unit("a_diag")


def test_unit_star_changes_no_bit():
    grid = _box("pinned")
    unit = Star3.trivial(grid)
    vec = random_field(grid, "face", np.random.default_rng(24))
    vec.x[0, 0, 0] = -0.0
    out = star_matrix(vec, unit, "b", inverse=True)
    for o, v in zip(_parts(out), _parts(vec)):
        assert np.array_equal(o.view(np.int64), v.view(np.int64))

