"""3D scalar-wave and Maxwell marches: conservation, convergence, audits.

Reference values marked "oracle" are frozen from tests/oracles/wave3d_oracle.py.
"""

import gc
import math
import warnings
import weakref
from dataclasses import replace
from itertools import zip_longest
from operator import attrgetter

import numpy as np
import pytest

from stagwave import verify
from stagwave.core import (
    SystemState,
    conserved_full,
    conserved_half_step,
    energy_pieces,
    init_g_half,
    system_step,
)
from stagwave.mimetic3d import (
    Grid3,
    Star3,
    VectorField3,
    curl3,
    curl3_star,
    div3,
    div3_star,
    grad3,
    random_field,
    star_matrix,
    star_scalar_inverse,
    zeros_field,
    _ALL_PATTERNS,
    _as_fn,
    _sample,
)
from stagwave.wave1d import estimate_order
from stagwave.wave3d import (
    cavity_mode_s,
    cavity_mode_v,
    divergence_auditor,
    maxwell_operators,
    maxwell_step,
    maxwell_system,
    pin_scalar_boundary,
    pin_tangential_boundary,
    scalar_wave_operators,
    scalar_wave_step,
    scalar_wave_system,
    te_cavity_e,
    te_cavity_h,
    _scratch,
)


def pinned_cube(n):
    return Grid3.cube(n, 1.0, boundary="pinned")


def random_vector(grid, kind, rng):
    return VectorField3(*[rng.standard_normal(sh) for sh in grid.vector_shapes(kind)])


def at_offset(field, k):
    """A copy of a 3D field whose every component starts k * 8 bytes past a
    64-byte cache line."""
    comps = []
    for c in field.components:
        buf = np.empty(c.size + 16)
        start = (-buf.ctypes.data // 8) % 8 + k
        comps.append(buf[start:start + c.size].reshape(c.shape))
        comps[-1][...] = c
    return VectorField3(*comps)


def random_scalar_state(grid, rng, dt):
    s = pin_scalar_boundary(rng.standard_normal(grid.scalar_shape("node")))
    return SystemState(f=s, g_half=random_vector(grid, "dual-face", rng), dt=dt)


def random_maxwell_state(grid, rng, dt):
    e = pin_tangential_boundary(random_vector(grid, "edge", rng))
    return SystemState(f=e, g_half=random_vector(grid, "dual-edge", rng), dt=dt)


# a System's (inner_X, inner_Y), in the order the invariants take them
_products = attrgetter("inner_X", "inner_Y")


def march_from(system, f0, g_half0, dt, n_steps, **kwargs):
    """`system` marched from copies of (f0, g_half0) in place of its own
    start: a march overwrites the pair its start returns."""
    return replace(system, start=lambda _: (f0.copy(), g_half0.copy())).march(dt, n_steps,
                                                                               **kwargs)


def maxwell_march(grid, eps, mu, e0, h_half, dt, n_steps, **kwargs):
    """The Maxwell march from (E0, H_half); each record is (step, C_n, C_half,
    sq_f, g_cross, div_e, div_h), the invariant pieces and the divergence audit."""

    divergences = divergence_auditor(eps, mu, grid)

    def audit(state, pieces):
        return (*pieces, *divergences(state.f, state.g_half))

    return march_from(maxwell_system(eps, mu, grid), e0, h_half, dt, n_steps, audit=audit,
                      **kwargs)


def cavity_errors(make, sizes=(8, 16, 32), t_final=0.35, safety=0.9):
    """(dx, max error) of the cavity-mode march of the System `make(grid,
    star)` on pinned unit cubes with unit materials, in the fewest whole
    steps at `safety` of the CFL step."""
    out = []
    for n in sizes:
        grid = pinned_cube(n)
        system = make(grid, Star3.trivial(grid))
        nt = math.ceil(t_final / system.cfl_dt(safety))
        state, _ = system.march(t_final / nt, nt, record_every=0)
        out.append((grid.dx, system.error(state.f, t_final)))
    return out


def rel_drift(values):
    values = np.asarray(values)
    return float(np.max(np.abs(values - values[0])) / abs(values[0]))


SCALAR_STARS = {
    "trivial": lambda g: Star3.trivial(g),
    "const-scalar": lambda g: Star3.from_scalars(g, 2.0, 1.5, 3.0, 2.5),
    "const-diag": lambda g: Star3.from_diagonals(
        g, 1.5, 2.0, (2.0, 3.0, 4.0), (1.5, 2.5, 3.5)
    ),
}

MAXWELL_STARS = {
    "trivial": lambda g: (Star3.trivial(g), Star3.trivial(g)),
    "const-scalar": lambda g: (
        Star3.from_scalars(g, 1.0, 1.0, 2.0, 1.0),
        Star3.from_scalars(g, 1.0, 1.0, 1.0, 3.0),
    ),
    "const-diag": lambda g: (
        Star3.from_diagonals(g, 1.0, 1.0, (2.0, 3.0, 4.0), (1.0, 1.0, 1.0)),
        Star3.from_diagonals(g, 1.0, 1.0, (1.0, 1.0, 1.0), (1.5, 2.5, 3.5)),
    ),
}


def _smooth(lo, amp):
    return lambda x, y, z: lo + amp * (
        1 + np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) * np.cos(2 * np.pi * z)) / 2


# diagonal stars for the divergence audit: constant weights, and weights that
# vary at every sample
AUDIT_STARS = {
    "const-diag": MAXWELL_STARS["const-diag"],
    "smooth-diag": lambda g: (
        Star3.from_diagonals(g, 1.0, 1.0, (_smooth(1.0, 1.0), _smooth(2.0, 0.5),
                                           _smooth(1.5, 1.0)), (1.0, 1.0, 1.0)),
        Star3.from_diagonals(g, 1.0, 1.0, (1.0, 1.0, 1.0),
                             (_smooth(0.5, 1.0), _smooth(3.0, 0.5), _smooth(1.0, 0.25))),
    ),
}

FULL_STAR_MAT = {"xx": 2.0, "yy": 3.0, "zz": 4.0, "xy": 0.5, "xz": 0.25, "yz": 0.5}


# ---------------------------------------------------------------------------
# states and basic stepping
# ---------------------------------------------------------------------------


class TestStates:
    def test_step_carries_history(self):
        grid = pinned_cube(4)
        star = Star3.trivial(grid)
        rng = np.random.default_rng(3)
        state = random_scalar_state(grid, rng, dt=0.05)
        new = scalar_wave_step(state, star, grid)
        assert new.step == 1
        assert new.dt == state.dt
        assert new.f_prev is state.f
        assert new.g_prev_half is state.g_half

    def test_zero_scalar_state_stays_zero(self):
        grid = pinned_cube(4)
        star = Star3.trivial(grid)
        state = SystemState(
            f=np.zeros(grid.scalar_shape("node")),
            g_half=zeros_field(grid, "dual-face"),
            dt=0.1,
        )
        for _ in range(3):
            state = scalar_wave_step(state, star, grid)
        assert np.all(state.f == 0.0)
        assert all(np.all(c == 0.0) for c in state.g_half.components)

    def test_zero_maxwell_state_stays_zero(self):
        grid = pinned_cube(4)
        star = Star3.trivial(grid)
        state = SystemState(
            f=zeros_field(grid, "edge"), g_half=zeros_field(grid, "dual-edge"), dt=0.1
        )
        for _ in range(3):
            state = maxwell_step(state, star, star, grid)
        assert all(np.all(c == 0.0) for c in state.f.components)
        assert all(np.all(c == 0.0) for c in state.g_half.components)

    def test_conserved_quantities_require_history(self):
        grid = pinned_cube(4)
        star = Star3.trivial(grid)
        rng = np.random.default_rng(4)
        fresh_s = random_scalar_state(grid, rng, dt=0.05)
        fresh_m = random_maxwell_state(grid, rng, dt=0.05)
        with pytest.raises(ValueError, match="history"):
            conserved_full(fresh_s, *_products(scalar_wave_system(star, grid)))
        with pytest.raises(ValueError, match="history"):
            conserved_half_step(fresh_s, *_products(scalar_wave_system(star, grid)))
        with pytest.raises(ValueError, match="history"):
            conserved_full(fresh_m, *_products(maxwell_system(star, star, grid)))
        with pytest.raises(ValueError, match="history"):
            conserved_half_step(fresh_m, *_products(maxwell_system(star, star, grid)))


# ---------------------------------------------------------------------------
# the allocating pairs against the operator and star expressions
# ---------------------------------------------------------------------------

# unit stars, constant diagonals and weights sampled at every point, every
# weight of the pair non-unit but for the unit case
PAIR_STARS = {
    "unit": lambda g: (Star3.trivial(g), Star3.trivial(g)),
    "const-diag": lambda g: (
        Star3.from_diagonals(g, 1.5, 2.0, (2.0, 3.0, 4.0), (1.5, 2.5, 3.5)),
        Star3.from_diagonals(g, 2.5, 0.5, (0.75, 1.25, 3.0), (3.0, 0.25, 1.5)),
    ),
    "sampled": lambda g: (
        Star3.from_diagonals(g, _smooth(1.0, 0.5), _smooth(0.5, 1.0),
                             (_smooth(1.0, 1.0), _smooth(2.0, 0.5), _smooth(1.5, 1.0)),
                             (_smooth(0.5, 1.0), _smooth(3.0, 0.5), _smooth(1.0, 0.25))),
        Star3.from_diagonals(g, _smooth(2.0, 1.0), _smooth(1.0, 0.5),
                             (_smooth(0.5, 0.5), _smooth(1.0, 2.0), _smooth(2.5, 1.0)),
                             (_smooth(1.5, 0.5), _smooth(0.75, 1.0), _smooth(2.0, 0.5))),
    ),
}


def signed_zero_field(grid, kind, rng):
    """A random field whose every other x-plane holds zeros of random sign,
    so that its differences hold zeros of both signs."""
    field = random_field(grid, kind, rng)
    for c in getattr(field, "components", (field,)):
        c[::2] = np.where(rng.random(c[::2].shape) < 0.5, -0.0, 0.0)
    return field


def same_bits(a, b):
    """Equal bit for bit, component by component, signed zeros included."""
    pa, pb = (getattr(f, "components", (f,)) for f in (a, b))
    return len(pa) == len(pb) and all(
        p.shape == q.shape and np.array_equal(p.view(np.int64), q.view(np.int64))
        for p, q in zip(pa, pb))


class TestAllocatingPairs:
    @pytest.mark.parametrize("stars", sorted(PAIR_STARS))
    @pytest.mark.parametrize("boundary", ["pinned", "periodic"])
    def test_pairs_have_the_bits_of_operator_and_star(self, boundary, stars):
        grid = Grid3(1.0, 1.2, 0.8, 5, 6, 4, boundary=boundary)
        eps, mu = PAIR_STARS[stars](grid)
        rng = np.random.default_rng(53)
        s, v = (signed_zero_field(grid, kind, rng) for kind in ("node", "dual-face"))
        e, h = (signed_zero_field(grid, kind, rng) for kind in ("edge", "dual-edge"))
        kept = [f.copy() for f in (s, v, e, h)]
        scalar = scalar_wave_operators(eps, grid)
        assert same_bits(scalar.apply_A(s), star_matrix(grad3(s, grid), eps, "a"))
        assert same_bits(scalar.apply_Astar(v),
                         -star_scalar_inverse(div3_star(v, grid), eps, "node-to-dual-cell"))
        maxwell = maxwell_operators(eps, mu, grid)
        assert same_bits(maxwell.apply_A(e), -star_matrix(curl3(e, grid), mu, "b", inverse=True))
        assert same_bits(maxwell.apply_Astar(h),
                         -star_matrix(curl3_star(h, grid), eps, "a", inverse=True))
        # the inputs are left as they were
        assert all(same_bits(f, k) for f, k in zip((s, v, e, h), kept))


# ---------------------------------------------------------------------------
# scalar wave
# ---------------------------------------------------------------------------


class TestScalarWave:
    def test_matches_generic_integrator(self):
        # the specialized step is bit-identical to the core leapfrog
        grid = pinned_cube(5)
        star = SCALAR_STARS["const-diag"](grid)
        rng = np.random.default_rng(7)
        dt = scalar_wave_system(star, grid).cfl_dt(0.8)
        state = random_scalar_state(grid, rng, dt)
        ops = scalar_wave_operators(star, grid)
        core = SystemState(f=state.f, g_half=state.g_half, dt=dt)
        for _ in range(3):
            state = scalar_wave_step(state, star, grid)
            core = system_step(core, ops)
        assert np.array_equal(state.f, core.f)
        assert all(np.array_equal(a, b)
                   for a, b in zip(state.g_half.components, core.g_half.components))
        # conserved form agrees with the generic one as well
        from stagwave.mimetic3d import inner3

        c_core = conserved_full(
            core,
            inner_X=lambda a, b: inner3("node", a, b, star, grid),
            inner_Y=lambda a, b: inner3("dual-face", a, b, star, grid),
        )
        assert c_core == conserved_full(state, *_products(scalar_wave_system(star, grid)))

    def test_second_difference_identity(self):
        # two half-step updates compose to the centered second difference
        grid = pinned_cube(6)
        star = SCALAR_STARS["const-diag"](grid)
        rng = np.random.default_rng(11)
        dt = scalar_wave_system(star, grid).cfl_dt(0.8)
        st0 = random_scalar_state(grid, rng, dt)
        st1 = scalar_wave_step(st0, star, grid)
        st2 = scalar_wave_step(st1, star, grid)
        lhs = (st2.f - 2.0 * st1.f + st0.f) / dt**2
        rhs = star_scalar_inverse(
            div3_star(star_matrix(grad3(st1.f, grid), star, "a"), grid),
            star,
            "node-to-dual-cell",
        )
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))

    def test_cavity_convergence(self):
        errs = cavity_errors(lambda grid, star: scalar_wave_system(star, grid))
        expected = (4.049240e-03, 6.450341e-04, 1.608946e-04)  # oracle
        for (_, err), want in zip(errs, expected):
            assert err == pytest.approx(want, rel=1e-5)
        assert all(o > 1.95 for o in estimate_order(errs))

    def test_init_taylor_is_third_order(self):
        # with dt tied to h both truncation terms shrink like dt^3
        errs = []
        for n in (8, 16, 32):
            grid = pinned_cube(n)
            star = Star3.trivial(grid)
            dt = grid.dx
            s0 = cavity_mode_s(grid, 0.15)
            v0 = cavity_mode_v(grid, 0.15)
            vh = init_g_half(s0, v0, scalar_wave_operators(star, grid), dt)
            want = cavity_mode_v(grid, 0.15 + dt / 2.0)
            errs.append(
                max(
                    float(np.max(np.abs(a - b)))
                    for a, b in zip(vh.components, want.components)
                )
            )
        expected = (1.758145e-03, 2.194488e-04, 2.726588e-05)  # oracle
        for err, want in zip(errs, expected):
            assert err == pytest.approx(want, rel=1e-5)
        for e1, e2 in zip(errs, errs[1:]):
            assert 7.0 < e1 / e2 < 9.0

    def test_init_dt_zero_returns_v0(self):
        grid = pinned_cube(4)
        star = Star3.trivial(grid)
        rng = np.random.default_rng(5)
        s0 = rng.standard_normal(grid.scalar_shape("node"))
        v0 = random_vector(grid, "dual-face", rng)
        vh = init_g_half(s0, v0, scalar_wave_operators(star, grid), 0.0)
        assert all(np.array_equal(a, b) for a, b in zip(vh.components, v0.components))

    def test_init_zero_v0_is_half_step_gradient(self):
        grid = pinned_cube(4)
        star = Star3.trivial(grid)
        rng = np.random.default_rng(6)
        s0 = rng.standard_normal(grid.scalar_shape("node"))
        dt = 0.07
        vh = init_g_half(s0, zeros_field(grid, "dual-face"), scalar_wave_operators(star, grid), dt)
        want = (0.5 * dt) * star_matrix(grad3(s0, grid), star, "a")
        assert all(np.array_equal(a, b) for a, b in zip(vh.components, want.components))

    def test_full_star_rejected(self):
        # a full tensor has no exact pointwise inverse, so neither system can
        # be given one: its constructor keeps its name and only raises
        grid = pinned_cube(4)
        assert isinstance(Star3.__dict__["from_matrices"], classmethod)
        with pytest.raises(ValueError, match="full-matrix.*from_diagonals"):
            Star3.from_matrices(grid, 1.0, 1.0, FULL_STAR_MAT, FULL_STAR_MAT)

    @pytest.mark.parametrize("name", sorted(SCALAR_STARS))
    def test_conserved_drift(self, name):
        grid = pinned_cube(6)
        star = SCALAR_STARS[name](grid)
        rng = np.random.default_rng(12)
        dt = scalar_wave_system(star, grid).cfl_dt(0.9)
        state = random_scalar_state(grid, rng, dt)
        _, records = march_from(scalar_wave_system(star, grid), state.f, state.g_half, dt, 2000)
        assert rel_drift([r[1] for r in records]) <= 1e-12
        assert rel_drift([r[2] for r in records]) <= 1e-12

    def test_conserved_positive_at_suggested_dt(self):
        grid = pinned_cube(4)
        star = Star3.trivial(grid)
        dt = scalar_wave_system(star, grid).cfl_dt(0.9)
        rng = np.random.default_rng(13)
        for _ in range(100):
            state = scalar_wave_step(random_scalar_state(grid, rng, dt), star, grid)
            assert conserved_half_step(state, *_products(scalar_wave_system(star, grid))) >= 0.0
            assert conserved_full(state, *_products(scalar_wave_system(star, grid))) >= 0.0

    def test_whole_step_invariant_below_its_positive_pieces(self):
        grid = pinned_cube(4)
        star = Star3.trivial(grid)
        rng = np.random.default_rng(14)
        state = scalar_wave_step(
            random_scalar_state(grid, rng, dt=0.05), star, grid
        )
        inner_X, inner_Y = _products(scalar_wave_system(star, grid))
        cn = conserved_full(state, inner_X, inner_Y)
        sq_f, g_cross = energy_pieces(state, inner_X, inner_Y)
        assert cn == sq_f + g_cross
        # <g+, g-> = ||g_bar||^2 - ||(g+ - g-)/2||^2, and g+ - g- = dt A f != 0
        g_bar = 0.5 * (state.g_half + state.g_prev_half)
        assert cn < sq_f + inner_Y(g_bar, g_bar)


# ---------------------------------------------------------------------------
# Maxwell
# ---------------------------------------------------------------------------


class TestMaxwell:
    def test_matches_generic_integrator(self):
        grid = pinned_cube(5)
        eps, mu = MAXWELL_STARS["const-scalar"](grid)
        rng = np.random.default_rng(17)
        dt = maxwell_system(eps, mu, grid).cfl_dt(0.8)
        state = random_maxwell_state(grid, rng, dt)
        ops = maxwell_operators(eps, mu, grid)
        core = SystemState(f=state.f, g_half=state.g_half, dt=dt)
        for _ in range(3):
            state = maxwell_step(state, eps, mu, grid)
            core = system_step(core, ops)
        assert all(np.array_equal(a, b) for a, b in zip(state.f.components, core.f.components))
        assert all(np.array_equal(a, b)
                   for a, b in zip(state.g_half.components, core.g_half.components))

    def test_unit_materials_reduce_to_plain_sums(self):
        grid = pinned_cube(4)
        star = Star3.trivial(grid)
        rng = np.random.default_rng(18)
        dt = 0.05
        state = maxwell_step(random_maxwell_state(grid, rng, dt), star, star, grid)
        dv = grid.cell_volume
        from stagwave.mimetic3d import curl3

        h_bar = 0.5 * (state.g_half + state.g_prev_half)
        ce = curl3(state.f, grid)
        want = (
            sum(float(np.sum(c**2)) for c in state.f.components) * dv
            + sum(float(np.sum(c**2)) for c in h_bar.components) * dv
            - (0.5 * dt) ** 2 * sum(float(np.sum(c**2)) for c in ce.components) * dv
        )
        got = conserved_full(state, *_products(maxwell_system(star, star, grid)))
        assert got == pytest.approx(want, rel=1e-13)

    def test_te_mode_zero_components_stay_exactly_zero(self):
        grid = pinned_cube(8)
        star = Star3.trivial(grid)
        dt = maxwell_system(star, star, grid).cfl_dt(0.9)
        e0 = te_cavity_e(grid, 0.0)
        h_half = init_g_half(e0, zeros_field(grid, "dual-edge"),
                             maxwell_operators(star, star, grid), dt)
        state = SystemState(f=e0, g_half=h_half, dt=dt)
        for _ in range(20):
            state = maxwell_step(state, star, star, grid)
        assert np.all(state.f.x == 0.0)
        assert np.all(state.f.y == 0.0)
        assert np.all(state.g_half.z == 0.0)

    def test_te_cavity_convergence(self):
        errs = cavity_errors(lambda grid, star: maxwell_system(star, star, grid))
        expected = (5.670584e-03, 1.205104e-03, 3.008793e-04)  # oracle
        for (_, err), want in zip(errs, expected):
            assert err == pytest.approx(want, rel=1e-5)
        assert all(o > 1.95 for o in estimate_order(errs))

    def test_init_h_dt_zero_returns_h0(self):
        grid = pinned_cube(4)
        star = Star3.trivial(grid)
        rng = np.random.default_rng(19)
        e0 = random_vector(grid, "edge", rng)
        h0 = random_vector(grid, "dual-edge", rng)
        hh = init_g_half(e0, h0, maxwell_operators(star, star, grid), 0.0)
        assert all(np.array_equal(a, b) for a, b in zip(hh.components, h0.components))

    def test_init_h_zero_h0_is_half_step_curl(self):
        grid = pinned_cube(4)
        star = Star3.trivial(grid)
        rng = np.random.default_rng(20)
        e0 = random_vector(grid, "edge", rng)
        dt = 0.07
        hh = init_g_half(e0, zeros_field(grid, "dual-edge"), maxwell_operators(star, star, grid),
                         dt)
        from stagwave.mimetic3d import curl3

        want = (-0.5 * dt) * curl3(e0, grid)
        assert all(
            np.allclose(a, b, rtol=0.0, atol=0.0) for a, b in zip(hh.components, want.components)
        )

    @pytest.mark.parametrize("name", sorted(MAXWELL_STARS))
    def test_conserved_drift(self, name):
        grid = pinned_cube(6)
        eps, mu = MAXWELL_STARS[name](grid)
        rng = np.random.default_rng(22)
        dt = maxwell_system(eps, mu, grid).cfl_dt(0.9)
        state = random_maxwell_state(grid, rng, dt)
        _, records = maxwell_march(grid, eps, mu, state.f, state.g_half, dt, 2000)
        assert rel_drift([r[1] for r in records]) <= 1e-12
        assert rel_drift([r[2] for r in records]) <= 1e-12


# ---------------------------------------------------------------------------
# divergence audit
# ---------------------------------------------------------------------------


class TestDivergenceAudit:
    def test_zero_state_audits_zero(self):
        grid = pinned_cube(4)
        star = Star3.trivial(grid)
        state = SystemState(
            f=zeros_field(grid, "edge"), g_half=zeros_field(grid, "dual-edge"), dt=0.1
        )
        assert divergence_auditor(star, star, grid)(state.f, state.g_half) == (0.0, 0.0)

    def test_te_mode_stays_divergence_free(self):
        grid = pinned_cube(8)
        star = Star3.trivial(grid)
        dt = maxwell_system(star, star, grid).cfl_dt(0.9)
        e0 = te_cavity_e(grid, 0.0)
        h_half = init_g_half(e0, zeros_field(grid, "dual-edge"),
                             maxwell_operators(star, star, grid), dt)
        _, records = maxwell_march(grid, star, star, e0, h_half, dt, 50)
        assert max(r[5] for r in records) <= 1e-12
        assert max(r[6] for r in records) <= 1e-12

    @pytest.mark.parametrize("name", ["trivial", "const-diag"])
    def test_random_data_audit_is_constant_not_zero(self, name):
        grid = pinned_cube(6)
        eps, mu = MAXWELL_STARS[name](grid)
        rng = np.random.default_rng(23)
        dt = maxwell_system(eps, mu, grid).cfl_dt(0.9)
        state = random_maxwell_state(grid, rng, dt)
        _, records = maxwell_march(grid, eps, mu, state.f, state.g_half, dt, 100)
        div_e = [r[5] for r in records]
        div_h = [r[6] for r in records]
        assert div_e[0] > 0.1 and div_h[0] > 0.1
        assert rel_drift(div_e) <= 1e-12
        assert rel_drift(div_h) <= 1e-12

    @pytest.mark.parametrize("n", [5, 8, 16])
    @pytest.mark.parametrize("boundary", ["pinned", "periodic"])
    @pytest.mark.parametrize("stars", ["const-diag", "smooth-diag"])
    def test_audit_has_the_bits_of_the_allocating_norms(self, stars, boundary, n):
        # the auditor's weighted passes in three shared buffers against the
        # expression that makes every flux and divergence as a fresh field:
        # on a cube, undivided differences with 1/h^2 in the final scale
        grid = Grid3.cube(n, 1.0, boundary=boundary)
        eps, mu = AUDIT_STARS[stars](grid)
        audit = divergence_auditor(eps, mu, grid)
        rng = np.random.default_rng(n)

        def norm(div):
            return math.sqrt(float(np.einsum("ijk,ijk->", div, div))
                             * (grid.cell_volume / grid.dx ** 2))

        for _ in range(3):
            e, h = random_vector(grid, "edge", rng), random_vector(grid, "dual-edge", rng)
            want = (norm(div3_star(star_matrix(e, eps, "a"), grid, scaled=False)),
                    norm(div3(star_matrix(h, mu, "b"), grid, scaled=False)))
            assert audit(e, h) == want

    @pytest.mark.parametrize("boundary", ["pinned", "periodic"])
    def test_audit_of_a_box_with_unequal_spacings_divides_its_differences(self, boundary):
        # no one spacing to fold into the scale: the divided differences,
        # reduced with the cell volume alone
        grid = Grid3(1.0, 1.1, 0.9, 6, 7, 8, boundary=boundary)
        eps, mu = AUDIT_STARS["smooth-diag"](grid)
        rng = np.random.default_rng(7)
        e, h = random_vector(grid, "edge", rng), random_vector(grid, "dual-edge", rng)

        def norm(div):
            return math.sqrt(float(np.einsum("ijk,ijk->", div, div)) * grid.cell_volume)

        assert divergence_auditor(eps, mu, grid)(e, h) == (
            norm(div3_star(star_matrix(e, eps, "a"), grid)),
            norm(div3(star_matrix(h, mu, "b"), grid)))

    @pytest.mark.parametrize("boundary", ["pinned", "periodic"])
    def test_audit_bits_depend_on_neither_alignment_nor_repetition(self, boundary):
        # E and H copied to every pair of 8-byte offsets of a 64-byte cache
        # line, and one audit repeated 10 times
        grid = Grid3.cube(12, 1.0, boundary=boundary)
        eps, mu = AUDIT_STARS["smooth-diag"](grid)
        audit = divergence_auditor(eps, mu, grid)
        rng = np.random.default_rng(26)
        e, h = random_vector(grid, "edge", rng), random_vector(grid, "dual-edge", rng)
        want = audit(e, h)
        assert [audit(e, h) for _ in range(10)] == [want] * 10
        for k1 in range(8):
            for k2 in range(8):
                assert audit(at_offset(e, k1), at_offset(h, k2)) == want, (k1, k2)

    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize("boundary", ["pinned", "periodic"])
    @pytest.mark.parametrize("stars", ["const-diag", "smooth-diag"])
    def test_audit_is_as_accurate_as_the_divided_pairwise_norms(self, stars, boundary, n):
        # undivided differences, 1/h^2 in the scale and a fused sum against
        # divided differences squared and summed pairwise
        grid = Grid3.cube(n, 1.0, boundary=boundary)
        eps, mu = AUDIT_STARS[stars](grid)
        rng = np.random.default_rng(n)
        e, h = random_vector(grid, "edge", rng), random_vector(grid, "dual-edge", rng)

        def norm(div):
            return math.sqrt(float(np.sum(div ** 2)) * grid.cell_volume)

        want = (norm(div3_star(star_matrix(e, eps, "a"), grid)),
                norm(div3(star_matrix(h, mu, "b"), grid)))
        for got, ref in zip(divergence_auditor(eps, mu, grid)(e, h), want):
            assert abs(got - ref) <= 1e-15 * ref

    def test_audited_marches_call_no_blas_reduction(self, monkeypatch):
        # a BLAS dot runs on every core the library may take; the 3D records
        # and audits reduce on the calling thread alone
        def refuse(*args, **kwargs):
            raise AssertionError("a BLAS reduction was called")

        for name in ("dot", "vdot", "inner", "matmul", "tensordot"):
            monkeypatch.setattr(np, name, refuse)
        grid = pinned_cube(8)
        eps, mu = AUDIT_STARS["smooth-diag"](grid)
        system = maxwell_system(eps, mu, grid)
        divergences = divergence_auditor(eps, mu, grid)
        _, records = system.march(system.cfl_dt(0.9), 5, audit=lambda state, pieces: (
            *pieces, *divergences(state.f, state.g_half)))
        assert len(records) == 5 and all(map(math.isfinite, records[-1]))
        system = scalar_wave_system(MAXWELL_STARS["const-diag"](grid)[0], grid)
        _, records = system.march(system.cfl_dt(0.9), 5)
        assert len(records) == 5 and all(map(math.isfinite, records[-1]))

    def test_marches_on_equal_grids_stepped_alternately_keep_their_bits(self):
        # two marches on equal grids share one scratch; stepped in turn,
        # phase by phase, each gives the bits it gives alone
        grids = pinned_cube(8), pinned_cube(8)
        assert grids[0] is not grids[1] and _scratch(grids[0]) is _scratch(grids[1])
        stars = MAXWELL_STARS["const-diag"](grids[0]), AUDIT_STARS["smooth-diag"](grids[1])
        systems = [maxwell_system(*s, g) for s, g in zip(stars, grids)]
        dt = 0.9 * min(system.cfl_dt(1.0) for system in systems)
        rng = np.random.default_rng(31)
        starts = [random_maxwell_state(g, rng, dt) for g in grids]

        def march(k, out):
            """March k by hand as the engine steps in place, appending each
            record (both invariants' pieces and the audit) to `out` and
            pausing after every phase."""
            system, grid = systems[k], grids[k]
            update, audit = system.ops.update, divergence_auditor(*stars[k], grid)
            e, h = starts[k].f.copy(), starts[k].g_half.copy()
            for _ in range(12):
                e_prev, h_prev = e.copy(), h.copy()
                e = update(e, h, dt, e, True)
                yield
                h = update(h, e, dt, h, False)
                yield
                out.append((system.inner_X(e, e), system.inner_Y(h, h_prev),
                            system.inner_X(e, e_prev), system.inner_Y(h_prev, h_prev)))
                yield
                out[-1] += audit(e, h)
                yield
            out.append((e, h))

        alone = [[], []]
        for k in (0, 1):
            for _ in march(k, alone[k]):
                pass
        together = [[], []]
        for _ in zip_longest(march(0, together[0]), march(1, together[1])):
            pass
        for k in (0, 1):
            assert together[k][:-1] == alone[k][:-1]
            for got, want in zip(together[k][-1], alone[k][-1]):
                assert all(np.array_equal(a.view(np.int64), b.view(np.int64))
                           for a, b in zip(got.components, want.components))

    def test_scratch_lives_as_long_as_its_users(self):
        # a box no other test uses, so no other user can hold its scratch
        def box():
            return Grid3(1.0, 1.1, 0.9, 5, 6, 7, boundary="pinned")

        grid = box()
        star = Star3.trivial(grid)
        users = [maxwell_system(star, star, grid), divergence_auditor(star, star, grid),
                 scalar_wave_system(star, grid)]
        held = weakref.ref(_scratch(grid))
        assert _scratch(box()) is held()
        users.pop(0)
        users.pop(0)
        assert held() is not None
        users.clear()
        gc.collect()
        assert held() is None


# ---------------------------------------------------------------------------
# time-step bound
# ---------------------------------------------------------------------------


class TestCflDt:
    def test_unit_cube_bound(self):
        grid = pinned_cube(10)
        star = Star3.trivial(grid)
        want = grid.dx / math.sqrt(3.0)
        assert scalar_wave_system(star, grid).cfl_dt(1.0) == pytest.approx(want, rel=1e-12)
        assert maxwell_system(star, star, grid).cfl_dt(1.0) == pytest.approx(want, rel=1e-12)
        assert scalar_wave_system(star, grid).cfl_dt(0.5) == pytest.approx(0.5 * want, rel=1e-12)

    def test_degenerate_box_reproduces_the_1d_bound(self):
        # stretching two axes to near-irrelevance leaves dt = dx / speed
        grid = Grid3(1.0, 1e9, 1e9, 16, 2, 2, boundary="pinned")
        star = Star3.from_scalars(grid, 2.0, 1.0, 3.0, 1.0)
        want = grid.dx / math.sqrt(3.0 / 2.0)
        assert scalar_wave_system(star, grid).cfl_dt(1.0) == pytest.approx(want, rel=1e-9)

    def test_maxwell_speed_uses_material_floor(self):
        grid = pinned_cube(8)
        eps = Star3.from_scalars(grid, 1.0, 1.0, 4.0, 1.0)
        mu = Star3.trivial(grid)
        base = maxwell_system(mu, mu, grid).cfl_dt(1.0)
        got = maxwell_system(eps, mu, grid).cfl_dt(1.0)
        assert got == pytest.approx(2.0 * base, rel=1e-12)

    @pytest.mark.parametrize("role", ["scalar-A", "maxwell-eps", "maxwell-mu"])
    @pytest.mark.parametrize("comp", [0, 1, 2])
    def test_wave_speed_reads_every_diagonal_weight(self, role, comp):
        # the extreme weight sits in one component alone: max A sets the
        # scalar wave's speed, min eps and min mu set Maxwell's
        grid = pinned_cube(6)
        unit = Star3.trivial(grid)
        base = grid.dx / math.sqrt(3.0)
        diag = [1.0] * 3
        if role == "scalar-A":
            diag[comp] = 4.0
            sys3 = scalar_wave_system(Star3.from_diagonals(grid, 1.0, 1.0, diag, (1.0,) * 3), grid)
        elif role == "maxwell-eps":
            diag[comp] = 0.25
            eps = Star3.from_diagonals(grid, 1.0, 1.0, diag, (1.0,) * 3)
            sys3 = maxwell_system(eps, unit, grid)
        else:
            diag[comp] = 0.25
            mu = Star3.from_diagonals(grid, 1.0, 1.0, (1.0,) * 3, diag)
            sys3 = maxwell_system(unit, mu, grid)
        assert sys3.cfl_dt(1.0) == pytest.approx(0.5 * base, rel=1e-12)

    @pytest.mark.parametrize("system, x, y", [
        ("scalar-wave", 1e200, 1e-200),  # max A / min a underflows to 0
        ("scalar-wave", 1e-200, 1e200),  # max A / min a overflows to inf
        ("maxwell", 1e-200, 1e-200),  # min eps * min mu underflows to 0
        ("maxwell", 1e200, 1e200),  # min eps * min mu overflows to inf
    ])
    def test_wave_speed_out_of_float_range_is_rejected(self, system, x, y):
        # every weight is positive and finite, but a bound of 0 or inf would
        # make cfl_dt divide by zero or return 0
        grid = pinned_cube(4)
        with pytest.raises(ValueError, match="wave speed"):
            if system == "scalar-wave":  # x = a, y = A
                scalar_wave_system(Star3.from_scalars(grid, x, 1.0, y, 1.0), grid)
            else:  # x = eps, y = mu
                maxwell_system(Star3.from_scalars(grid, 1.0, 1.0, x, 1.0),
                               Star3.from_scalars(grid, 1.0, 1.0, 1.0, y), grid)

    def test_rejects_bad_arguments(self):
        grid = pinned_cube(4)
        star = Star3.trivial(grid)
        with pytest.raises(ValueError, match="safety"):
            scalar_wave_system(star, grid).cfl_dt(0.0)
        with pytest.raises(ValueError, match="safety"):
            scalar_wave_system(star, grid).cfl_dt(-0.5)

    @pytest.mark.parametrize("system", ["scalar-wave", "maxwell"])
    def test_measured_norm_stays_below_the_analytic_bound(self, system):
        # the power-iteration diagnostic approaches the bound from below
        grid = pinned_cube(6)
        star = Star3.trivial(grid)
        rng = np.random.default_rng(0)
        if system == "scalar-wave":
            sys3 = scalar_wave_system(star, grid)
            f = pin_scalar_boundary(random_field(grid, "node", rng))
        else:
            sys3 = maxwell_system(star, star, grid)
            f = pin_tangential_boundary(random_field(grid, "edge", rng))
        bound = sys3.ops.norm_bound_A
        measured = sys3.measured_norm(f)
        assert 0.8 * bound < measured <= bound * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# marches
# ---------------------------------------------------------------------------


class TestRunHelpers:
    def test_scalar_records(self):
        grid = pinned_cube(4)
        star = Star3.trivial(grid)
        rng = np.random.default_rng(25)
        dt = scalar_wave_system(star, grid).cfl_dt(0.9)
        state0 = random_scalar_state(grid, rng, dt)
        state, records = march_from(scalar_wave_system(star, grid), state0.f, state0.g_half, dt,
                                    10, record_every=2, audit=lambda _, pieces: pieces)
        assert [r[0] for r in records] == [2, 4, 6, 8, 10]
        step, c_n, c_half, sq_f, g_cross = records[-1]
        assert step == state.step
        assert c_n == sq_f + g_cross
        assert c_n == conserved_full(state, *_products(scalar_wave_system(star, grid)))
        assert c_half == conserved_half_step(state, *_products(scalar_wave_system(star, grid)))

    def test_maxwell_records(self):
        grid = pinned_cube(4)
        star = Star3.trivial(grid)
        rng = np.random.default_rng(26)
        dt = maxwell_system(star, star, grid).cfl_dt(0.9)
        state0 = random_maxwell_state(grid, rng, dt)
        state, records = maxwell_march(grid, star, star, state0.f, state0.g_half, dt, 4)
        assert len(records) == 4
        assert all(len(r) == 7 for r in records)
        assert records[-1][1] == conserved_full(state, *_products(maxwell_system(star, star, grid)))
        assert all(np.isfinite(r).all() for r in map(np.asarray, records))

    def test_courant_warning_fires_above_the_bound(self):
        grid = pinned_cube(4)
        star = Star3.trivial(grid)
        rng = np.random.default_rng(27)
        dt = scalar_wave_system(star, grid).cfl_dt(1.1)
        state = random_scalar_state(grid, rng, dt)
        with pytest.warns(RuntimeWarning, match="unstable"):
            march_from(scalar_wave_system(star, grid), state.f, state.g_half, dt, 1)
        mstate = random_maxwell_state(grid, rng, dt)
        with pytest.warns(RuntimeWarning, match="unstable"):
            march_from(maxwell_system(star, star, grid), mstate.f, mstate.g_half, dt, 1)

    def test_no_warning_at_the_suggested_dt(self):
        grid = pinned_cube(4)
        star = Star3.trivial(grid)
        rng = np.random.default_rng(28)
        dt = scalar_wave_system(star, grid).cfl_dt(0.9)
        state = random_scalar_state(grid, rng, dt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            march_from(scalar_wave_system(star, grid), state.f, state.g_half, dt, 2)


# ---------------------------------------------------------------------------
# cavity modes and admissible-data helpers
# ---------------------------------------------------------------------------


class TestModesAndPinning:
    def test_scalar_mode_is_admissible_and_quiet_at_t0(self):
        # walls carry at most sin(pi) = 1.2e-16 of roundoff, nothing more
        grid = pinned_cube(6)
        s0 = cavity_mode_s(grid, 0.0)
        v0 = cavity_mode_v(grid, 0.0)
        assert np.max(np.abs(s0 - pin_scalar_boundary(s0))) <= 5e-16
        assert all(np.all(c == 0.0) for c in v0.components)

    def test_te_mode_is_admissible_and_quiet_at_t0(self):
        grid = pinned_cube(6)
        e0 = te_cavity_e(grid, 0.0)
        h0 = te_cavity_h(grid, 0.0)
        pinned = pin_tangential_boundary(e0)
        assert all(
            np.max(np.abs(a - b)) <= 5e-16
            for a, b in zip(pinned.components, e0.components)
        )
        assert all(np.all(c == 0.0) for c in h0.components)

    @pytest.mark.parametrize("n", [2, *range(4, 18), 32])
    def test_modes_have_the_bits_of_their_meshgrid_form(self, n):
        # the samplers multiply per-axis factors broadcast to shape; the same
        # factors in the same order on whole meshgrids give the same bits
        grid = pinned_cube(n)
        pi = np.pi

        def bits(field):
            return [c.view(np.int64) for c in getattr(field, "components", (field,))]

        for t in (0.0, 0.13, 0.7):
            w = pi * math.sqrt(2.0)
            amp = math.sin(w * t) * pi / w
            x, y, _ = grid.vector_points("edge", 2)
            ez = np.sin(pi * x) * np.sin(pi * y) * math.cos(w * t)
            assert np.array_equal(bits(te_cavity_e(grid, t))[2], ez.view(np.int64))
            x, y, _ = grid.vector_points("dual-edge", 0)
            hx = -amp * np.sin(pi * x) * np.cos(pi * y)
            x, y, _ = grid.vector_points("dual-edge", 1)
            hy = amp * np.cos(pi * x) * np.sin(pi * y)
            got = bits(te_cavity_h(grid, t))
            assert np.array_equal(got[0], hx.view(np.int64))
            assert np.array_equal(got[1], hy.view(np.int64))
            for m, k, p in ((1, 1, 1), (2, 1, 3)):
                w = pi * math.sqrt(m * m + k * k + p * p)
                amp = math.sin(w * t) * pi / w
                x, y, z = grid.scalar_points("node")
                s = math.cos(w * t) * np.sin(m * pi * x) * np.sin(k * pi * y) * np.sin(p * pi * z)
                assert np.array_equal(bits(cavity_mode_s(grid, t, (m, k, p)))[0],
                                      s.view(np.int64))
                want = []
                for r, (fx, fy, fz) in enumerate(((np.cos, np.sin, np.sin),
                                                  (np.sin, np.cos, np.sin),
                                                  (np.sin, np.sin, np.cos))):
                    x, y, z = grid.vector_points("dual-face", r)
                    want.append(amp * (m, k, p)[r] * fx(m * pi * x) * fy(k * pi * y)
                                * fz(p * pi * z))
                got = bits(cavity_mode_v(grid, t, (m, k, p)))
                assert all(np.array_equal(g, v.view(np.int64)) for g, v in zip(got, want))

        # so does the one sampler on every pattern of both policies, with the
        # `verify` suites' trig functions, `verify adjoint`'s smooth weights
        # and a constant
        def smooth(lo, amp):
            return lambda x, y, z: lo + amp * (
                1 + np.sin(2 * pi * x) * np.cos(2 * pi * y) * np.cos(2 * pi * z)) / 2

        fns = dict.fromkeys(fn for case in verify._ORDER_CASES.values() for part in case[2::2]
                            for fn in (part if isinstance(part, tuple) else (part,)))
        fns = [*fns, *(smooth(lo, amp) for lo, amp in (
            (1.0, 1.0), (0.5, 1.0), (2.0, 1.0), (1.5, 0.5), (1.0, 0.5), (3.0, 0.5),
            (1.0, 0.25), (2.5, 1.0), (0.5, 0.25))), 2.5]
        for boundary in ("periodic", "pinned"):
            grid = Grid3.cube(n, 1.0, boundary=boundary)
            for pattern in _ALL_PATTERNS:
                points = grid._pattern_points(pattern)
                for fn in fns:
                    want = np.broadcast_to(_as_fn(fn)(*points), grid._pattern_shape(pattern))
                    assert np.array_equal(bits(_sample(grid, pattern, fn))[0],
                                          want.view(np.int64))

    def test_yee_component_layout(self):
        # E_x sits at (i+1/2, j, k); H_x at (i, j+1/2, k+1/2)
        grid = pinned_cube(4)
        x, y, z = grid.vector_points("edge", 0)
        assert np.array_equal(x[:, 0, 0], grid.axis_centers(0))
        assert np.array_equal(y[0, :, 0], grid.axis_nodes(1))
        assert np.array_equal(z[0, 0, :], grid.axis_nodes(2))
        x, y, z = grid.vector_points("dual-edge", 0)
        assert np.array_equal(x[:, 0, 0], grid.axis_nodes(0))
        assert np.array_equal(y[0, :, 0], grid.axis_centers(1))
        assert np.array_equal(z[0, 0, :], grid.axis_centers(2))

    def test_pin_scalar_boundary(self):
        rng = np.random.default_rng(29)
        arr = rng.standard_normal((5, 6, 7)) + 10.0
        out = pin_scalar_boundary(arr)
        assert np.all(out[0] == 0.0) and np.all(out[-1] == 0.0)
        assert np.all(out[:, 0, :] == 0.0) and np.all(out[:, :, -1] == 0.0)
        assert np.array_equal(out[1:-1, 1:-1, 1:-1], arr[1:-1, 1:-1, 1:-1])
        assert arr[0, 0, 0] != 0.0  # input untouched

    def test_pin_tangential_boundary(self):
        grid = pinned_cube(4)
        rng = np.random.default_rng(30)
        v = VectorField3(
            *[rng.standard_normal(sh) + 5.0 for sh in grid.vector_shapes("edge")]
        )
        out = pin_tangential_boundary(v)
        # x component: walls normal to y and z are zeroed, x walls are not
        assert np.all(out.x[:, 0, :] == 0.0) and np.all(out.x[:, :, -1] == 0.0)
        assert np.all(out.x[0, 1:-1, 1:-1] != 0.0)
        assert np.all(out.z[0, :, :] == 0.0) and np.all(out.z[:, -1, :] == 0.0)
