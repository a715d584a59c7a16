"""2D staggered wave module: grids, operators, star maps, march, conservation.

Reference values marked "oracle" are frozen from tests/oracles/wave2d_oracle.py.
"""

import math
import warnings

import numpy as np
import pytest

from stagwave.core import SystemState, conserved_full, conserved_half_step
from stagwave.wave2d import (
    Grid2,
    Star2,
    div2d,
    div2p,
    exact_solution_2d,
    grad2d,
    grad2p,
    init_v_half_2d,
    mode_errors_2d,
    run_wave2d,
    star2,
    suggest_dt_2d,
    wave2d_step,
    wave2d_system,
)

DIAG = (1.5, 2.5)


def pinned_u(grid, rng):
    u = rng.standard_normal(grid.shape("fp"))
    u[0, :] = u[-1, :] = 0.0
    u[:, 0] = u[:, -1] = 0.0
    return u


def random_v(grid, rng):
    return (rng.standard_normal(grid.shape("nxd")),
            rng.standard_normal(grid.shape("nyd")))


def random_state(grid, rng, dt):
    return SystemState(f=pinned_u(grid, rng), g_half=random_v(grid, rng), dt=dt)


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


class TestGrid2:
    SHAPES_5x7 = {
        "fp": (6, 8), "gp": (5, 7), "fd": (5, 7), "gd": (4, 6),
        "txp": (5, 8), "typ": (6, 7), "nxp": (6, 7), "nyp": (5, 8),
        "txd": (4, 7), "tyd": (5, 6), "nxd": (5, 6), "nyd": (4, 7),
    }

    @pytest.mark.parametrize("kind,want", sorted(SHAPES_5x7.items()))
    def test_field_shapes(self, kind, want):
        grid = Grid2(5, 7)
        assert grid.shape(kind) == want
        x, y = grid.points(kind)
        assert x.shape == want and y.shape == want

    def test_spacings(self):
        grid = Grid2(5, 7)
        assert grid.dx == 0.2
        assert grid.dy == 1.0 / 7.0

    def test_point_locations(self):
        grid = Grid2(5, 7)
        x, y = grid.points("nxd")  # x centers, y inner nodes
        assert np.array_equal(x[:, 0], (np.arange(5) + 0.5) * grid.dx)
        assert np.array_equal(y[0, :], np.arange(1, 7) * grid.dy)
        x, y = grid.points("fp")
        assert np.array_equal(x[:, 0], np.arange(6) * grid.dx)
        assert np.array_equal(y[0, :], np.arange(8) * grid.dy)

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError, match="at least 2 cells"):
            Grid2(1, 5)
        with pytest.raises(ValueError, match="at least 2 cells"):
            Grid2(5, 1)

    def test_rejects_unknown_kind(self):
        grid = Grid2(4, 4)
        with pytest.raises(ValueError, match="unknown field kind"):
            grid.shape("bogus")
        with pytest.raises(ValueError, match="unknown field kind"):
            grid.points("bogus")


# ---------------------------------------------------------------------------
# difference operators
# ---------------------------------------------------------------------------


class TestOperators:
    def test_constants_have_zero_derivatives(self):
        grid = Grid2(6, 9)
        tx, ty = grad2p(np.full(grid.shape("fp"), 3.25), grid)
        assert np.all(tx == 0.0) and np.all(ty == 0.0)
        tx, ty = grad2d(np.full(grid.shape("fd"), -1.5), grid)
        assert np.all(tx == 0.0) and np.all(ty == 0.0)
        got = div2d((np.full(grid.shape("nxd"), 2.0),
                     np.full(grid.shape("nyd"), -7.0)), grid)
        assert np.all(got == 0.0)
        got = div2p((np.full(grid.shape("nxp"), 2.0),
                     np.full(grid.shape("nyp"), -7.0)), grid)
        assert np.all(got == 0.0)

    def test_affine_fields_are_differentiated_exactly(self):
        # dyadic spacings and coefficients make every float step exact
        grid = Grid2(8, 4)
        x, y = grid.points("fp")
        tx, ty = grad2p(2.0 * x - 3.0 * y + 1.0, grid)
        assert np.all(tx == 2.0) and np.all(ty == -3.0)
        nxd = 0.5 * grid.points("nxd")[0] - 0.25 * grid.points("nxd")[1]
        nyd = 0.75 * grid.points("nyd")[0] + 1.5 * grid.points("nyd")[1]
        assert np.all(div2d((nxd, nyd), grid) == 2.0)

    @staticmethod
    def smooth_errors(n):
        grid = Grid2(n, n)
        pi = np.pi
        f = lambda x, y: np.sin(pi * x) * np.sin(pi * y)
        fx = lambda x, y: pi * np.cos(pi * x) * np.sin(pi * y)
        fy = lambda x, y: pi * np.sin(pi * x) * np.cos(pi * y)
        g1 = lambda x, y: np.sin(pi * x) * np.cos(pi * y)
        g2 = lambda x, y: np.cos(pi * x) * np.sin(pi * y)
        dv = lambda x, y: 2.0 * pi * np.cos(pi * x) * np.cos(pi * y)

        tx, ty = grad2p(f(*grid.points("fp")), grid)
        e_gp = max(float(np.max(np.abs(tx - fx(*grid.points("txp"))))),
                   float(np.max(np.abs(ty - fy(*grid.points("typ"))))))
        got = div2d((g1(*grid.points("nxd")), g2(*grid.points("nyd"))), grid)
        e_dd = float(np.max(np.abs(got - dv(*grid.points("gd")))))
        tx, ty = grad2d(f(*grid.points("fd")), grid)
        e_gd = max(float(np.max(np.abs(tx - fx(*grid.points("txd"))))),
                   float(np.max(np.abs(ty - fy(*grid.points("tyd"))))))
        got = div2p((g1(*grid.points("nxp")), g2(*grid.points("nyp"))), grid)
        e_dp = float(np.max(np.abs(got - dv(*grid.points("gp")))))
        return e_gp, e_dd, e_gd, e_dp

    def test_smooth_fields_second_order(self):
        # oracle: wave2d_oracle.operator_errors at n = 8 and 16
        coarse = self.smooth_errors(8)
        fine = self.smooth_errors(16)
        for got, want in zip(coarse, (1.976037e-02, 3.439394e-02,
                                      1.825620e-02, 3.876137e-02)):
            assert got == pytest.approx(want, rel=1e-5)
        for got, want in zip(fine, (5.019874e-03, 9.704362e-03,
                                    4.923419e-03, 9.991404e-03)):
            assert got == pytest.approx(want, rel=1e-5)
        for c, f in zip(coarse, fine):
            assert 3.4 < c / f < 4.1

    def test_shape_mismatch_is_rejected(self):
        grid = Grid2(5, 7)
        with pytest.raises(ValueError, match="shape"):
            grad2p(np.zeros((6, 7)), grid)
        with pytest.raises(ValueError, match="shape"):
            grad2d(np.zeros(grid.shape("fp")), grid)
        good = np.zeros(grid.shape("nxd"))
        with pytest.raises(ValueError, match="shape"):
            div2d((good, np.zeros((4, 8))), grid)
        with pytest.raises(ValueError, match="shape"):
            div2p((np.zeros(grid.shape("nxd")), np.zeros(grid.shape("nyp"))), grid)


# ---------------------------------------------------------------------------
# star maps
# ---------------------------------------------------------------------------

# direction -> (input kind(s), output kind(s))
STAR_KINDS = {
    "node-to-dual-cell": ("fp", "gd"),
    "dual-cell-to-node": ("gd", "fp"),
    "dual-node-to-cell": ("fd", "gp"),
    "cell-to-dual-node": ("gp", "fd"),
    "tangent-to-dual-normal": (("txp", "typ"), ("nxd", "nyd")),
    "dual-normal-to-tangent": (("nxd", "nyd"), ("txp", "typ")),
    "normal-to-dual-tangent": (("nxp", "nyp"), ("txd", "tyd")),
    "dual-tangent-to-normal": (("txd", "tyd"), ("nxp", "nyp")),
}


class TestStar2:
    @pytest.mark.parametrize("direction", sorted(STAR_KINDS))
    def test_direction_shapes(self, direction):
        grid = Grid2(5, 7)
        src, dst = STAR_KINDS[direction]
        rng = np.random.default_rng(11)
        if isinstance(src, tuple):
            field = (rng.standard_normal(grid.shape(src[0])),
                     rng.standard_normal(grid.shape(src[1])))
            out = star2(field, DIAG, direction)
            assert out[0].shape == grid.shape(dst[0])
            assert out[1].shape == grid.shape(dst[1])
        else:
            out = star2(rng.standard_normal(grid.shape(src)), 2.0, direction)
            assert out.shape == grid.shape(dst)

    def test_unit_coefficient_is_a_relabeling(self):
        grid = Grid2(5, 7)
        rng = np.random.default_rng(0)
        fp = rng.standard_normal(grid.shape("fp"))
        assert np.array_equal(star2(fp, 1.0, "node-to-dual-cell"), fp[1:-1, 1:-1])
        fd = rng.standard_normal(grid.shape("fd"))
        assert np.array_equal(star2(fd, 1.0, "dual-node-to-cell"), fd)

    def test_unit_fields_pick_up_the_diagonal(self):
        grid = Grid2(5, 7)
        ones = (np.ones(grid.shape("txp")), np.ones(grid.shape("typ")))
        nx_, ny_ = star2(ones, (2.0, 3.0), "tangent-to-dual-normal")
        assert np.all(nx_ == 2.0) and np.all(ny_ == 3.0)

    INVERSE = {
        "node-to-dual-cell": "dual-cell-to-node",
        "dual-cell-to-node": "node-to-dual-cell",
        "dual-node-to-cell": "cell-to-dual-node",
        "cell-to-dual-node": "dual-node-to-cell",
        "tangent-to-dual-normal": "dual-normal-to-tangent",
        "dual-normal-to-tangent": "tangent-to-dual-normal",
        "normal-to-dual-tangent": "dual-tangent-to-normal",
        "dual-tangent-to-normal": "normal-to-dual-tangent",
    }
    # region the round trip can recover (the rest is zero-filled)
    _ALL = (slice(None), slice(None))
    _RTX = (slice(None), slice(1, -1))
    _RTY = (slice(1, -1), slice(None))
    REACH = {
        "node-to-dual-cell": ((slice(1, -1), slice(1, -1)),),
        "dual-cell-to-node": (_ALL,),
        "dual-node-to-cell": (_ALL,),
        "cell-to-dual-node": (_ALL,),
        "tangent-to-dual-normal": (_RTX, _RTY),
        "dual-normal-to-tangent": (_ALL, _ALL),
        "normal-to-dual-tangent": (_RTY, _RTX),
        "dual-tangent-to-normal": (_ALL, _ALL),
    }

    @pytest.mark.parametrize("direction", sorted(STAR_KINDS))
    def test_round_trip_within_one_ulp(self, direction):
        # inverse(forward(f)) recovers f wherever the shifts reach
        grid = Grid2(5, 7)
        src, _ = STAR_KINDS[direction]
        reach = self.REACH[direction]
        rng = np.random.default_rng(4)
        if isinstance(src, tuple):
            f = (rng.standard_normal(grid.shape(src[0])),
                 rng.standard_normal(grid.shape(src[1])))
            back = star2(star2(f, DIAG, direction), DIAG, self.INVERSE[direction])
            for got, want, sl in zip(back, f, reach):
                assert got.shape == want.shape
                assert np.all(np.abs(got[sl] - want[sl])
                              <= np.spacing(np.abs(want[sl])))
        else:
            f = rng.standard_normal(grid.shape(src))
            back = star2(star2(f, 1.7, direction), 1.7, self.INVERSE[direction])
            assert back.shape == f.shape
            sl = reach[0]
            assert np.all(np.abs(back[sl] - f[sl]) <= np.spacing(np.abs(f[sl])))

    def test_inverse_fills_unreachable_ring_with_zeros(self):
        grid = Grid2(5, 7)
        rng = np.random.default_rng(1)
        fp = star2(rng.standard_normal(grid.shape("gd")) + 5.0, 2.0,
                   "dual-cell-to-node")
        assert np.all(fp[0, :] == 0.0) and np.all(fp[-1, :] == 0.0)
        assert np.all(fp[:, 0] == 0.0) and np.all(fp[:, -1] == 0.0)
        assert np.all(fp[1:-1, 1:-1] != 0.0)
        tx, ty = star2((rng.standard_normal(grid.shape("nxd")) + 5.0,
                        rng.standard_normal(grid.shape("nyd")) + 5.0),
                       DIAG, "dual-normal-to-tangent")
        assert np.all(tx[:, 0] == 0.0) and np.all(tx[:, -1] == 0.0)
        assert np.all(ty[0, :] == 0.0) and np.all(ty[-1, :] == 0.0)

    def test_scalar_coefficient_accepted_for_vector_directions(self):
        grid = Grid2(4, 4)
        ones = (np.ones(grid.shape("txp")), np.ones(grid.shape("typ")))
        nx_, ny_ = star2(ones, 2.0, "tangent-to-dual-normal")
        assert np.all(nx_ == 2.0) and np.all(ny_ == 2.0)

    def test_rejects_nonpositive_coefficients(self):
        grid = Grid2(4, 4)
        fp = np.ones(grid.shape("fp"))
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="positive"):
                star2(fp, bad, "node-to-dual-cell")
        ones = (np.ones(grid.shape("txp")), np.ones(grid.shape("typ")))
        with pytest.raises(ValueError, match="positive"):
            star2(ones, (2.0, 0.0), "tangent-to-dual-normal")
        with pytest.raises(ValueError, match="positive"):
            star2(ones, (-2.0, 1.0), "tangent-to-dual-normal")
        with pytest.raises(ValueError, match="positive"):
            Star2(a=0.0)

    def test_rejects_unknown_direction(self):
        with pytest.raises(ValueError, match="unknown star direction"):
            star2(np.ones((3, 3)), 1.0, "sideways")


# ---------------------------------------------------------------------------
# leapfrog step
# ---------------------------------------------------------------------------


class TestStep:
    def test_zero_state_stays_zero(self):
        grid = Grid2(6, 5)
        state = SystemState(f=np.zeros(grid.shape("fp")),
                            g_half=(np.zeros(grid.shape("nxd")),
                                    np.zeros(grid.shape("nyd"))), dt=0.05)
        state = wave2d_step(state, Star2(), grid)
        assert np.all(state.f == 0.0)
        assert np.all(state.g_half[0] == 0.0) and np.all(state.g_half[1] == 0.0)

    def test_boundary_ring_is_pinned_bitwise(self):
        grid = Grid2(7, 6)
        rng = np.random.default_rng(5)
        u0 = rng.standard_normal(grid.shape("fp"))  # ring left nonzero on purpose
        state = SystemState(f=u0.copy(), g_half=random_v(grid, rng), dt=0.01)
        for _ in range(3):
            state = wave2d_step(state, Star2(a=2.0), grid)
        assert np.array_equal(state.f[0, :], u0[0, :])
        assert np.array_equal(state.f[-1, :], u0[-1, :])
        assert np.array_equal(state.f[:, 0], u0[:, 0])
        assert np.array_equal(state.f[:, -1], u0[:, -1])

    def test_step_carries_history(self):
        grid = Grid2(5, 5)
        rng = np.random.default_rng(2)
        s0 = random_state(grid, rng, 0.02)
        s1 = wave2d_step(s0, Star2(), grid)
        assert s1.f_prev is s0.f and s1.g_prev_half is s0.g_half
        assert s0.step == 0 and s1.step == 1
        assert s0.f_prev is None and s0.g_prev_half is None

    def test_second_difference_identity(self):
        # (u2 - 2 u1 + u0)/dt^2 equals the star Laplacian of u1
        grid = Grid2(8, 9)
        star = Star2(a=2.0, a11=1.5, a22=2.5)
        dt = suggest_dt_2d(star, grid, 0.8)
        rng = np.random.default_rng(7)
        u0 = pinned_u(grid, rng)
        s0 = SystemState(f=u0, g_half=init_v_half_2d(u0, random_v(grid, rng),
                                                      star, grid, dt), dt=dt)
        s1 = wave2d_step(s0, star, grid)
        s2 = wave2d_step(s1, star, grid)
        lap = star2(div2d(star2(grad2p(s1.f, grid), star.diag,
                                "tangent-to-dual-normal"), grid),
                    star.a, "dual-cell-to-node")
        resid = (s2.f - 2.0 * s1.f + s0.f) / dt ** 2 - lap
        assert np.max(np.abs(resid)) <= 1e-11 * np.max(np.abs(lap))


class TestInit:
    def test_zero_dt_returns_v0(self):
        grid = Grid2(6, 6)
        rng = np.random.default_rng(9)
        u0, v0 = pinned_u(grid, rng), random_v(grid, rng)
        vx, vy = init_v_half_2d(u0, v0, Star2(a=2.0), grid, 0.0)
        assert np.array_equal(vx, v0[0]) and np.array_equal(vy, v0[1])

    def test_zero_v0_gives_half_step_gradient(self):
        grid = Grid2(6, 6)
        star = Star2(a=2.0, a11=1.5, a22=2.5)
        rng = np.random.default_rng(10)
        u0 = pinned_u(grid, rng)
        dt = 0.01
        zero_v = (np.zeros(grid.shape("nxd")), np.zeros(grid.shape("nyd")))
        vx, vy = init_v_half_2d(u0, zero_v, star, grid, dt)
        agx, agy = star2(grad2p(u0, grid), star.diag, "tangent-to-dual-normal")
        np.testing.assert_allclose(vx, (0.5 * dt) * agx, atol=0.0)
        np.testing.assert_allclose(vy, (0.5 * dt) * agy, atol=0.0)

    def test_variants_differ_and_bad_name_rejected(self):
        grid = Grid2(6, 6)
        rng = np.random.default_rng(12)
        u0, v0 = pinned_u(grid, rng), random_v(grid, rng)
        a = init_v_half_2d(u0, v0, Star2(), grid, 0.05, variant="oscillator-taylor")
        b = init_v_half_2d(u0, v0, Star2(), grid, 0.05, variant="system-taylor")
        assert not np.array_equal(a[0], b[0])
        with pytest.raises(ValueError, match="variant"):
            init_v_half_2d(u0, v0, Star2(), grid, 0.05, variant="midpoint")


# ---------------------------------------------------------------------------
# conserved quantities
# ---------------------------------------------------------------------------

STARS = {
    "trivial": Star2(),
    "const-diag": Star2(a=2.0, a11=1.5, a22=2.5),
}


class TestConserved:
    def test_fresh_state_has_no_history(self):
        grid = Grid2(5, 5)
        state = random_state(grid, np.random.default_rng(0), 0.01)
        with pytest.raises(ValueError, match="history"):
            conserved_full(state, *wave2d_system(Star2(), grid))
        with pytest.raises(ValueError, match="history"):
            conserved_half_step(state, *wave2d_system(Star2(), grid))

    @pytest.mark.parametrize("name", sorted(STARS))
    def test_drift_over_thousand_steps(self, name):
        star = STARS[name]
        grid = Grid2(12, 15)
        rng = np.random.default_rng(21)
        u0 = pinned_u(grid, rng)
        dt = suggest_dt_2d(star, grid, 0.9)
        v_half = init_v_half_2d(u0, random_v(grid, rng), star, grid, dt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the march must stay quiet
            state, records = run_wave2d(grid, star, u0, v_half, dt, 1000,
                                        record_every=25)
        for idx in (1, 2):
            series = [r[idx] for r in records]
            drift = max(abs(c - series[0]) for c in series) / abs(series[0])
            assert drift <= 1e-12

    def test_conserved_positive_at_suggested_dt(self):
        grid = Grid2(6, 7)
        star = Star2(a=2.0, a11=1.5, a22=2.5)
        dt = suggest_dt_2d(star, grid, 0.9)
        rng = np.random.default_rng(33)
        for _ in range(100):
            state = wave2d_step(random_state(grid, rng, dt), star, grid)
            assert conserved_full(state, *wave2d_system(star, grid)) > 0.0
            assert conserved_half_step(state, *wave2d_system(star, grid)) > 0.0

    def test_records_match_direct_evaluation(self):
        grid = Grid2(8, 8)
        star = Star2(a=2.0, a11=1.5, a22=2.5)
        rng = np.random.default_rng(40)
        u0 = pinned_u(grid, rng)
        dt = suggest_dt_2d(star, grid, 0.5)
        v_half = init_v_half_2d(u0, random_v(grid, rng), star, grid, dt)
        state, records = run_wave2d(grid, star, u0, v_half, dt, 10,
                                    record_every=3)
        assert [r[0] for r in records] == [3, 6, 9]
        state2, records2 = run_wave2d(grid, star, u0, v_half, dt, 10)
        assert len(records2) == 10
        assert records2[-1][1] == conserved_full(state2, *wave2d_system(star, grid))
        assert records2[-1][2] == conserved_half_step(state2, *wave2d_system(star, grid))


# ---------------------------------------------------------------------------
# stability bound
# ---------------------------------------------------------------------------


class TestSuggestDt:
    def test_unit_square_bound(self):
        # trivial coefficients on an n x n grid: dt_max = h/sqrt(2)
        grid = Grid2(16, 16)
        assert suggest_dt_2d(Star2(), grid) == pytest.approx(
            grid.dx / math.sqrt(2.0), rel=1e-12)
        assert suggest_dt_2d(Star2(), grid, 0.5) == pytest.approx(
            0.5 * grid.dx / math.sqrt(2.0), rel=1e-12)

    def test_stiff_direction_controls_the_bound(self):
        grid = Grid2(10, 10)
        base = suggest_dt_2d(Star2(), grid)
        assert suggest_dt_2d(Star2(a11=4.0, a22=1.0), grid) == pytest.approx(
            0.5 * base, rel=1e-12)
        assert suggest_dt_2d(Star2(a=4.0), grid) == pytest.approx(
            2.0 * base, rel=1e-12)

    def test_rectangle_bound(self):
        grid = Grid2(8, 24)
        want = 2.0 / (2.0 * math.sqrt(64.0 + 576.0))
        assert suggest_dt_2d(Star2(), grid) == pytest.approx(want, rel=1e-12)

    def test_rejects_bad_safety(self):
        with pytest.raises(ValueError, match="safety"):
            suggest_dt_2d(Star2(), Grid2(4, 4), 0.0)

    def test_courant_warning_above_the_bound(self):
        grid = Grid2(8, 8)
        star = Star2()
        rng = np.random.default_rng(6)
        u0 = pinned_u(grid, rng)
        v0 = random_v(grid, rng)
        bound = suggest_dt_2d(star, grid)
        with pytest.warns(RuntimeWarning, match="unstable"):
            run_wave2d(grid, star, u0, v0, 1.1 * bound, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_wave2d(grid, star, u0, v0, 0.9 * bound, 2)


# ---------------------------------------------------------------------------
# standing mode
# ---------------------------------------------------------------------------


class TestMode:
    def test_rejects_bad_mode_numbers(self):
        with pytest.raises(ValueError, match="mode numbers"):
            exact_solution_2d(0, 1, 1.0, 0.5, 0.5, 0.0)
        with pytest.raises(ValueError, match="mode numbers"):
            exact_solution_2d(1, -2, 1.0, 0.5, 0.5, 0.0)

    def test_velocity_is_zero_at_t0(self):
        grid = Grid2(9, 9)
        _, vx, vy = exact_solution_2d(2, 3, 1.4, *grid.points("fp"), 0.0)
        assert np.all(vx == 0.0) and np.all(vy == 0.0)

    def test_u_envelope_vanishes_at_quarter_period(self):
        m, n, c = 2, 1, 1.4
        t_env = (1.0 / (c * math.sqrt(m * m + n * n) * math.pi)) * (math.pi / 2.0)
        x, y = Grid2(9, 9).points("fp")
        u, _, _ = exact_solution_2d(m, n, c, x, y, t_env)
        assert np.max(np.abs(u)) <= 1e-15

    def test_mode_satisfies_the_continuum_system(self):
        # substitution check: 4th-order finite differences in t, x and y
        m, n, c, t, h = 1, 2, 0.7, 0.3, 5e-4
        x, y = np.meshgrid(np.linspace(0.13, 0.91, 5),
                           np.linspace(0.08, 0.87, 5), indexing="ij")

        def d4(fn, z):
            return (fn(z - 2 * h) - 8.0 * fn(z - h)
                    + 8.0 * fn(z + h) - fn(z + 2 * h)) / (12.0 * h)

        u_t = d4(lambda tt: exact_solution_2d(m, n, c, x, y, tt)[0], t)
        vx_t = d4(lambda tt: exact_solution_2d(m, n, c, x, y, tt)[1], t)
        vy_t = d4(lambda tt: exact_solution_2d(m, n, c, x, y, tt)[2], t)
        dvx = d4(lambda xx: exact_solution_2d(m, n, c, xx, y, t)[1], x)
        dvy = d4(lambda yy: exact_solution_2d(m, n, c, x, yy, t)[2], y)
        du_dx = d4(lambda xx: exact_solution_2d(m, n, c, xx, y, t)[0], x)
        du_dy = d4(lambda yy: exact_solution_2d(m, n, c, x, yy, t)[0], y)

        assert np.max(np.abs(u_t - c * (dvx + dvy))) <= 1e-10
        assert np.max(np.abs(vx_t - c * du_dx)) <= 1e-10
        assert np.max(np.abs(vy_t - c * du_dy)) <= 1e-10

    def test_mode_convergence_is_second_order(self):
        # oracle: wave2d_oracle.mode_error at n = 16, 32, 64
        errors = mode_errors_2d()
        for (_, got), want in zip(errors, (5.652846e-04, 1.410167e-04,
                                           3.523518e-05)):
            assert got == pytest.approx(want, rel=1e-5)
        for (_, coarse), (_, fine) in zip(errors, errors[1:]):
            order = math.log2(coarse / fine)
            assert 1.9 <= order <= 2.1
