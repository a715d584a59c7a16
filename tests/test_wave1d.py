"""Tests for the 1D staggered wave solver.

Reference values marked "oracle" are frozen from
tests/oracles/wave1d_oracle.py (standalone reimplementation).
"""

import numpy as np
import pytest

from stagwave import core
from stagwave import wave1d as w1


def mode_grid(k, t_final, f):
    return w1.Grid1D(a=0.0, b=1.0, nx=2**k + 1, t_final=t_final, nt=2 ** (k + f))


def unit_materials(nx):
    return w1.Materials1D(rho=np.ones(nx), tau=np.ones(nx - 1))


class TestGrid1D:
    def test_points_and_spacing(self):
        g = w1.Grid1D(a=0.0, b=1.0, nx=17, t_final=2.0, nt=64)
        assert g.dx == pytest.approx(1.0 / 16)
        assert g.dt == pytest.approx(2.0 / 64)
        xp, xd = g.primal_points(), g.dual_points()
        assert xp.shape == (17,) and xd.shape == (16,)
        assert xp[0] == 0.0 and xp[-1] == pytest.approx(1.0)
        assert xd[0] == pytest.approx(g.dx / 2)
        assert xd[-1] == pytest.approx(1.0 - g.dx / 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            w1.Grid1D(a=1.0, b=0.0, nx=9, t_final=1.0, nt=4)
        with pytest.raises(ValueError):
            w1.Grid1D(a=0.0, b=1.0, nx=2, t_final=1.0, nt=4)
        with pytest.raises(ValueError):
            w1.Grid1D(a=0.0, b=1.0, nx=9, t_final=1.0, nt=0)
        with pytest.raises(ValueError):
            w1.Grid1D(a=0.0, b=1.0, nx=9, t_final=-1.0, nt=4)


class TestOperators:
    def test_grad1_constant_and_linear(self):
        g = w1.Grid1D(a=0.0, b=1.0, nx=17, t_final=1.0, nt=16)
        assert np.all(w1.grad1(np.full(17, 3.5), g.dx) == 0.0)
        assert np.all(w1.grad1(g.primal_points(), g.dx) == 1.0)

    def test_div1_constant_and_linear(self):
        g = w1.Grid1D(a=0.0, b=1.0, nx=17, t_final=1.0, nt=16)
        assert np.all(w1.div1(np.full(16, 2.0), g.dx) == 0.0)
        out = w1.div1(g.dual_points(), g.dx)
        assert out[0] == 0.0 and out[-1] == 0.0  # pinned ends
        assert np.allclose(out[1:-1], 1.0)

    def test_second_order_accuracy(self):
        # oracle: grad1 5.019874e-03 / 1.259977e-03; div1 5.044163e-03 / 1.261497e-03
        expected = {4: (5.019874e-03, 5.044163e-03), 5: (1.259977e-03, 1.261497e-03)}
        for k, (eg_ref, ed_ref) in expected.items():
            g = mode_grid(k, 1.0, 1)
            xp, xd = g.primal_points(), g.dual_points()
            eg = np.max(np.abs(w1.grad1(np.sin(np.pi * xp), g.dx) - np.pi * np.cos(np.pi * xd)))
            ed = np.max(np.abs(w1.div1(np.cos(np.pi * xd), g.dx)[1:-1]
                               + np.pi * np.sin(np.pi * xp[1:-1])))
            assert eg == pytest.approx(eg_ref, rel=1e-5)
            assert ed == pytest.approx(ed_ref, rel=1e-5)
        ratio = expected[4][0] / expected[5][0]
        assert 3.8 < ratio < 4.1

    def test_short_fields_rejected(self):
        with pytest.raises(ValueError):
            w1.grad1(np.array([1.0]), 0.1)
        with pytest.raises(ValueError):
            w1.div1(np.array([1.0]), 0.1)


class TestMaterials:
    def test_validation(self):
        with pytest.raises(ValueError):
            w1.Materials1D(rho=np.array([1.0, -1.0, 1.0]), tau=np.ones(2))
        with pytest.raises(ValueError):
            w1.Materials1D(rho=np.ones(3), tau=np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            w1.Materials1D(rho=np.ones(3), tau=np.ones(3))

    def test_profile_sampling(self):
        g = w1.Grid1D(a=0.0, b=1.0, nx=5, t_final=1.0, nt=4)
        mats = w1.Materials1D.from_profiles(g, w1.linear_profile(0.5), w1.bump_profile(1))
        assert mats.rho == pytest.approx([1.0, 1.125, 1.25, 1.375, 1.5])
        assert mats.tau.shape == (4,)

    def test_jump_is_right_continuous(self):
        f = w1.jump_profile(+0.5)
        assert f(np.array([0.5]))[0] == 1.5  # takes the upper value at the jump
        assert f(np.array([0.5 - 1e-12]))[0] == 1.0

    def test_piecewise_linear_values(self):
        f = w1.piecewise_linear_profile()
        x = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        assert f(x) == pytest.approx([1.0, 1.0, 1.5, 2.0, 2.0])

    def test_bump_values(self):
        assert w1.bump_profile(1)(np.array([0.0, 0.5, 1.0])) == pytest.approx([1.0, 1.5, 1.0])
        assert w1.bump_profile(2)(np.array([0.5]))[0] == pytest.approx(1.25)

    def test_preset_table(self):
        assert len(w1.MATERIAL_PRESETS) == 15
        for rho_fn, tau_fn in w1.MATERIAL_PRESETS.values():
            x = np.linspace(0.0, 1.0, 21)
            assert np.all(rho_fn(x) > 0) and np.all(tau_fn(x) > 0)


class TestSteps:
    def test_zero_state_stays_zero(self):
        g = mode_grid(4, 1.0, 1)
        s = core.SystemState(f=np.zeros(g.nx), g_half=np.zeros(g.nx - 1), dt=g.dt)
        s = w1.cmp_step(s, 1.0, g)
        assert np.all(s.f == 0.0) and np.all(s.g_half == 0.0)

    def test_ends_never_updated(self):
        g = mode_grid(4, 1.0, 1)
        rng = np.random.default_rng(3)
        u0 = rng.standard_normal(g.nx)
        s = core.SystemState(f=u0.copy(), g_half=rng.standard_normal(g.nx - 1), dt=g.dt)
        for _ in range(20):
            s = w1.cmp_step(s, 0.5, g)
        assert s.f[0] == u0[0] and s.f[-1] == u0[-1]

    def test_unit_materials_reduce_to_constant(self):
        g = mode_grid(5, 1.0, 1)
        mats = unit_materials(g.nx)
        u0 = np.sin(np.pi * g.primal_points())
        v0 = w1.standing_mode_v(g.dual_points(), g.dt / 2)
        sc = core.SystemState(f=u0.copy(), g_half=v0.copy(), dt=g.dt)
        sv = core.SystemState(f=u0.copy(), g_half=v0.copy(), dt=g.dt)
        for _ in range(50):
            sc = w1.cmp_step(sc, 1.0, g)
            sv = w1.vmp_step(sv, mats, g)
        assert np.array_equal(sc.f, sv.f) and np.array_equal(sc.g_half, sv.g_half)

    def test_speed_split_matches_constant_form(self):
        # rho = 1/c, tau = c: the two forms follow the same dynamics.
        # oracle: max|u diff| = max|v diff| = 0.0 after 200 steps with c = 2.
        c = 2.0
        g = w1.Grid1D(a=0.0, b=1.0, nx=33, t_final=200 * 0.25 / (32 * c), nt=200)
        mats = w1.Materials1D(rho=np.full(g.nx, 1 / c), tau=np.full(g.nx - 1, c))
        u0 = w1.standing_mode_u(g.primal_points(), 0.0, 1, c)
        v0 = (g.dt / 2) * c * w1.grad1(u0, g.dx)
        sc, _ = w1.run_cmp(g, c, u0, v0, record_every=0)
        sv, _ = w1.run_vmp(g, mats, u0, v0, record_every=0)
        assert np.max(np.abs(sc.f - sv.f)) <= 1e-14
        assert np.max(np.abs(sc.g_half - sv.g_half)) <= 1e-14

    def test_step_matches_generic_integrator(self):
        g = mode_grid(4, 1.0, 2)
        mats = w1.Materials1D.from_profiles(g, w1.linear_profile(0.5), w1.bump_profile(2))
        rng = np.random.default_rng(7)
        u0 = rng.standard_normal(g.nx)
        u0[0] = u0[-1] = 0.0
        v0 = rng.standard_normal(g.nx - 1)
        sw = w1.vmp_step(core.SystemState(f=u0, g_half=v0, dt=g.dt), mats, g)
        ops = w1.vmp_operator_pair(mats, g)
        sg = core.system_step(core.SystemState(f=u0, g_half=v0, dt=g.dt), ops)
        np.testing.assert_allclose(sw.f, sg.f, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(sw.g_half, sg.g_half, rtol=1e-13, atol=1e-15)

    def test_courant_warning(self):
        g = w1.Grid1D(a=0.0, b=1.0, nx=17, t_final=2.0, nt=16)  # nu = 2
        with pytest.warns(RuntimeWarning):
            w1.run_cmp(g, 1.0, np.zeros(17), np.zeros(16), record_every=0)


class TestInnerProducts:
    def test_uniform_weight_all_points(self):
        g = w1.Grid1D(a=0.0, b=1.0, nx=11, t_final=1.0, nt=10)
        mats = unit_materials(11)
        ones = np.ones(11)
        assert w1.weighted_inner_rho(ones, ones, mats, g) == pytest.approx(1.1)

    def test_stiffness_weight_is_inverse(self):
        g = w1.Grid1D(a=0.0, b=1.0, nx=11, t_final=1.0, nt=10)
        mats = w1.Materials1D(rho=np.ones(11), tau=np.full(10, 2.0))
        ones = np.ones(10)
        assert w1.weighted_inner_tau(ones, ones, mats, g) == pytest.approx(0.5)

    def test_length_mismatch(self):
        g = w1.Grid1D(a=0.0, b=1.0, nx=11, t_final=1.0, nt=10)
        mats = unit_materials(11)
        with pytest.raises(ValueError):
            w1.weighted_inner_rho(np.ones(10), np.ones(10), mats, g)
        with pytest.raises(ValueError):
            w1.weighted_inner_tau(np.ones(11), np.ones(11), mats, g)

    def test_summation_by_parts(self):
        # oracle: max normalized residual 1.36e-14 over 100 random trials
        rng = np.random.default_rng(0)
        for _ in range(100):
            nx = int(rng.integers(5, 40))
            dx = float(rng.uniform(0.01, 1.0))
            g = w1.Grid1D(a=0.0, b=dx * (nx - 1), nx=nx, t_final=1.0, nt=1)
            mats = w1.Materials1D(rho=rng.uniform(0.5, 2.0, nx),
                                  tau=rng.uniform(0.5, 2.0, nx - 1))
            u = rng.standard_normal(nx)
            u[0] = u[-1] = 0.0
            v = rng.standard_normal(nx - 1)
            au = mats.tau * w1.grad1(u, g.dx)
            asv = -w1.div1(v, g.dx) / mats.rho
            lhs = w1.weighted_inner_tau(au, v, mats, g)
            rhs = w1.weighted_inner_rho(u, asv, mats, g)
            assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs), 1.0)

    def test_adjointness_via_generic_checker(self):
        g = mode_grid(5, 1.0, 1)
        mats = w1.Materials1D.from_profiles(g, w1.bump_profile(2), w1.piecewise_linear_profile())
        ops = w1.vmp_operator_pair(mats, g)

        def sample_u(rng):
            u = rng.standard_normal(g.nx)
            u[0] = u[-1] = 0.0
            return u

        resid = core.check_adjointness(
            ops,
            inner_X=lambda a, b: w1.weighted_inner_rho(a, b, mats, g),
            inner_Y=lambda a, b: w1.weighted_inner_tau(a, b, mats, g),
            trials=20,
            sample_X=sample_u,
            sample_Y=lambda rng: rng.standard_normal(g.nx - 1),
            seed=11,
        )
        assert resid <= 1e-13


class TestConserved:
    def test_zero_state_gives_zero(self):
        g = mode_grid(4, 1.0, 1)
        s = core.SystemState(f=np.zeros(g.nx), g_half=np.zeros(g.nx - 1), dt=g.dt)
        s = w1.cmp_step(s, 1.0, g)
        assert core.conserved_full(s, *w1.cmp_system(1.0, g)) == 0.0
        assert core.conserved_half_step(s, *w1.cmp_system(1.0, g)) == 0.0
        assert core.conserved_full(s, *w1.vmp_system(unit_materials(g.nx), g)) == 0.0

    def test_history_required(self):
        g = mode_grid(4, 1.0, 1)
        s = core.SystemState(f=np.zeros(g.nx), g_half=np.zeros(g.nx - 1), dt=g.dt)
        with pytest.raises(ValueError):
            core.conserved_full(s, *w1.cmp_system(1.0, g))
        with pytest.raises(ValueError):
            core.conserved_half_step(s, *w1.cmp_system(1.0, g))

    def test_invariants_reject_materials_off_the_grid(self):
        g = mode_grid(4, 1.0, 1)
        s = core.SystemState(f=np.zeros(g.nx), g_half=np.zeros(g.nx - 1), dt=g.dt)
        s = w1.cmp_step(s, 1.0, g)
        with pytest.raises(ValueError):
            core.conserved_full(s, *w1.vmp_system(unit_materials(g.nx + 2), g))
        with pytest.raises(ValueError):
            core.conserved_half_step(s, *w1.vmp_system(unit_materials(g.nx + 2), g))

    def test_constant_mode_value_and_drift(self):
        # oracle: C_1 = 0.499078326597769, |C-0.5| <= 9.216734e-04 (O(dx^2)),
        # drift 2.2e-16, all values positive at nu = 0.875
        g = mode_grid(5, 1.75, 1)
        u0 = w1.standing_mode_u(g.primal_points(), 0.0)
        v0 = w1.standing_mode_v(g.dual_points(), g.dt / 2)
        _, records = w1.run_cmp(g, 1.0, u0, v0)
        cn = np.array([r[1] for r in records])
        ch = np.array([r[2] for r in records])
        assert cn[0] == pytest.approx(0.499078326597769, rel=1e-12)
        assert np.max(np.abs(cn - 0.5)) == pytest.approx(9.216734e-04, rel=1e-5)
        assert np.max(np.abs(cn - cn[0])) <= 1e-12
        assert np.max(np.abs(ch - ch[0])) <= 1e-12
        assert cn.min() > 0 and ch.min() > 0

    def test_variable_material_drift(self):
        # oracle: relative drift 4.4e-16 for tau = 1 - x/2 over 1000 steps
        g = w1.Grid1D(a=0.0, b=1.0, nx=65, t_final=2.0, nt=1000)
        mats = w1.Materials1D.from_profiles(g, w1.constant_profile(1.0), w1.linear_profile(-0.5))
        u0 = np.sin(np.pi * g.primal_points())
        v0 = w1.taylor_v_half_vmp(u0, np.zeros(g.nx - 1), mats, g)
        _, records = w1.run_vmp(g, mats, u0, v0)
        cn = np.array([r[1] for r in records])
        ch = np.array([r[2] for r in records])
        assert np.max(np.abs(cn - cn[0])) / abs(cn[0]) <= 1e-12
        assert np.max(np.abs(ch - ch[0])) / abs(ch[0]) <= 1e-12
        assert cn.min() > 0 and ch.min() > 0

    @pytest.mark.parametrize("preset", ["rho-jump-down", "bump-p2-q2", "tau-piecewise"])
    def test_positive_below_stability_bound(self, preset):
        rho_fn, tau_fn = w1.MATERIAL_PRESETS[preset]
        nx = 65
        probe = w1.Grid1D(a=0.0, b=1.0, nx=nx, t_final=1.0, nt=1)
        mats = w1.Materials1D.from_profiles(probe, rho_fn, tau_fn)
        s = w1.cfl_speed(mats)
        dx = 1.0 / (nx - 1)
        dt = 0.95 * dx / s
        g = w1.Grid1D(a=0.0, b=1.0, nx=nx, t_final=200 * dt, nt=200)
        x = g.primal_points()
        u0 = np.sin(np.pi * x) + 0.3 * np.sin(3 * np.pi * x)
        v0 = w1.taylor_v_half_vmp(u0, np.zeros(nx - 1), mats, g)
        _, records = w1.run_vmp(g, mats, u0, v0)
        assert min(r[1] for r in records) > 0
        assert min(r[2] for r in records) > 0


class TestCFL:
    def test_speed_estimates(self):
        assert w1.cfl_speed(unit_materials(9)) == 1.0
        c = 3.0
        mats = w1.Materials1D(rho=np.full(9, 1 / c), tau=np.full(8, c))
        assert w1.cfl_speed(mats) == pytest.approx(c)
        mats = w1.Materials1D(rho=np.ones(9), tau=1.0 + w1.heaviside(np.linspace(0, 1, 8) - 0.5))
        assert w1.cfl_speed(mats) == pytest.approx(np.sqrt(2.0))

    def test_unstable_above_one(self):
        # oracle: first exceeds 1e3 at step 73 with nu = 1.05
        k = 6
        nx = 2**k + 1
        dx = 1.0 / (nx - 1)
        dt = 1.05 * dx
        g = w1.Grid1D(a=0.0, b=1.0, nx=nx, t_final=150 * dt, nt=150)
        u0 = w1.standing_mode_u(g.primal_points(), 0.0)
        v0 = w1.standing_mode_v(g.dual_points(), g.dt / 2)
        with pytest.warns(RuntimeWarning):
            state, _ = w1.run_cmp(g, 1.0, u0, v0, record_every=0)
        assert np.max(np.abs(state.f)) > 1e3

    def test_stable_below_one(self):
        # oracle: max|u| = 8.817060e-01 after 1000 steps at nu = 0.95
        k = 6
        nx = 2**k + 1
        dx = 1.0 / (nx - 1)
        dt = 0.95 * dx
        g = w1.Grid1D(a=0.0, b=1.0, nx=nx, t_final=1000 * dt, nt=1000)
        u0 = w1.standing_mode_u(g.primal_points(), 0.0)
        v0 = w1.standing_mode_v(g.dual_points(), g.dt / 2)
        state, _ = w1.run_cmp(g, 1.0, u0, v0, record_every=0)
        assert np.max(np.abs(state.f)) == pytest.approx(8.817060e-01, rel=1e-5)

    def test_refinement_exponent(self):
        assert w1.refinement_exponent(1.0, 1.0, 0.5) == 0
        assert w1.refinement_exponent(1.0, 1.0, 1.0) == 1
        assert w1.refinement_exponent(1.0, 1.0, 1.75) == 1
        assert w1.refinement_exponent(1.0, 1.0, 2.0) == 2
        assert w1.refinement_exponent(np.sqrt(2.0), 1.0, 2.0) == 2


class TestModeConvergence:
    def test_second_order_at_generic_final_time(self):
        # oracle (T=1.75, f=1): errors then orders 1.9928, 1.9954, 1.9974
        rows = w1.cmp_mode_errors(range(4, 8), 1.75)
        ers = [er for _, er in rows]
        assert ers == pytest.approx(
            [1.446341e-03, 3.634012e-04, 9.114189e-05, 2.282601e-05], rel=1e-5)
        ps = w1.estimate_order(rows)
        assert ps == pytest.approx([1.9928, 1.9954, 1.9974], abs=2e-3)
        assert all(1.9 <= p <= 2.1 for p in ps)

    def test_fourth_order_at_half_period(self):
        # oracle (T=1.0, f=1): 6.947410e-06, 4.408194e-07, 2.776360e-08
        rows = w1.cmp_mode_errors(range(4, 7), 1.0)
        ers = [er for _, er in rows]
        assert ers == pytest.approx([6.947410e-06, 4.408194e-07, 2.776360e-08], rel=1e-5)
        assert all(p >= 3.5 for p in w1.estimate_order(rows))

    def test_full_period_is_superconvergent_too(self):
        # One full period is also a multiple of the half period: order 4,
        # not 2 (generic endpoints are what give order 2).
        # oracle (T=2.0, f=2): 2.823776e-05, 1.777271e-06, 1.114916e-07
        rows = w1.cmp_mode_errors(range(4, 7), 2.0)
        ers = [er for _, er in rows]
        assert ers == pytest.approx([2.823776e-05, 1.777271e-06, 1.114916e-07], rel=1e-5)
        assert all(p >= 3.5 for p in w1.estimate_order(rows))

    def test_unit_courant_number_is_exact(self):
        # oracle: 1.9e-15 / 2.6e-15 - the mode is advanced without error
        rows = w1.cmp_mode_errors([5, 6], 2.0, f=1)
        assert all(er < 1e-12 for _, er in rows)

    def test_taylor_init_keeps_superconvergence(self):
        # oracle (T=1.0, taylor): orders 4.0013, 4.0003
        rows = w1.cmp_mode_errors(range(4, 7), 1.0, init="taylor")
        assert all(p >= 3.5 for p in w1.estimate_order(rows))

    def test_unknown_init_rejected(self):
        with pytest.raises(ValueError):
            w1.cmp_mode_errors([4], 1.0, init="nope")


class TestEstimateOrder:
    def test_log_arithmetic(self):
        assert w1.estimate_order([(1 / 8, 4e-4), (1 / 16, 1e-4)]) == pytest.approx([2.0])

    def test_equal_errors_give_zero(self):
        assert w1.estimate_order([(1 / 8, 1e-3), (1 / 16, 1e-3)]) == pytest.approx([0.0])

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            w1.estimate_order([(1 / 8, 1e-3)])
        with pytest.raises(ValueError):
            w1.estimate_order([(1 / 8, 1e-3), (1 / 16, -1e-3)])
        with pytest.raises(ValueError):
            w1.estimate_order([(0.0, 1e-3), (1 / 16, 1e-3)])


# frozen from tests/oracles/wave1d_oracle.py: max|Er| per k = 4, 5, 6
# (T = 2, f = 2, refine-compare against the doubled grid)
PRESET_ERRORS = {
    "rho-linear-up": [4.047142e-03, 9.864379e-04, 2.419853e-04],
    "rho-linear-down": [5.836175e-03, 1.503057e-03, 3.825053e-04],
    "tau-linear-up": [5.134200e-03, 1.553908e-03, 5.103027e-04],
    "tau-linear-down": [8.666731e-03, 2.701438e-03, 8.552595e-04],
    "bump-p1-q1": [5.537922e-03, 2.740129e-03, 1.006849e-03],
    "bump-p1-q2": [5.880775e-03, 1.472099e-03, 3.652307e-04],
    "bump-p2-q1": [1.172161e-02, 2.811048e-03, 1.202235e-03],
    "bump-p2-q2": [2.063130e-03, 4.651385e-04, 1.151767e-04],
    "rho-piecewise": [8.649047e-03, 2.191026e-03, 5.109882e-04],
    "tau-piecewise": [7.271491e-03, 2.536934e-03, 7.861866e-04],
    "rho-jump-up": [2.492468e-02, 1.087176e-02, 5.248762e-03],
    "rho-jump-down": [5.949987e-02, 3.030203e-02, 1.478309e-02],
    "tau-jump-up": [6.891456e-03, 2.085055e-03, 6.313127e-04],
    "tau-jump-down": [7.327329e-03, 2.827776e-03, 1.186010e-03],
}


class TestRefineCompare:
    def test_injected_solution_gives_zero(self):
        gc = w1.Grid1D(a=0.0, b=1.0, nx=9, t_final=1.0, nt=8)
        gf = w1.Grid1D(a=0.0, b=1.0, nx=17, t_final=1.0, nt=16)
        uc = np.arange(9.0)
        uf = np.zeros(17)
        uf[::2] = uc
        er, er_scaled = w1.refine_compare(uc, uf, gc, gf)
        assert np.all(er == 0.0) and np.all(er_scaled == 0.0)

    def test_non_nested_grids_rejected(self):
        gc = w1.Grid1D(a=0.0, b=1.0, nx=9, t_final=1.0, nt=8)
        with pytest.raises(ValueError):
            w1.refine_compare(np.zeros(9), np.zeros(15),
                              gc, w1.Grid1D(a=0.0, b=1.0, nx=15, t_final=1.0, nt=16))
        with pytest.raises(ValueError):
            w1.refine_compare(np.zeros(9), np.zeros(17),
                              gc, w1.Grid1D(a=0.0, b=1.0, nx=17, t_final=1.0, nt=24))

    def test_tracks_true_error(self):
        # oracle: estimate 2.722593e-04 vs true 3.634012e-04 (ratio 0.7492)
        f = 1
        sols = {}
        for k in (5, 6):
            g = mode_grid(k, 1.75, f)
            u0 = w1.standing_mode_u(g.primal_points(), 0.0)
            v0 = w1.standing_mode_v(g.dual_points(), g.dt / 2)
            state, _ = w1.run_cmp(g, 1.0, u0, v0, record_every=0)
            sols[k] = (g, state.f)
        (gc, uc), (gf, uf) = sols[5], sols[6]
        er, _ = w1.refine_compare(uc, uf, gc, gf)
        estimate = np.max(np.abs(er))
        true = np.max(np.abs(uc - w1.standing_mode_u(gc.primal_points(), 1.75)))
        assert estimate == pytest.approx(2.722593e-04, rel=1e-5)
        assert 0.5 <= estimate / true <= 1.0  # within a factor of two

    @pytest.mark.parametrize("preset", sorted(PRESET_ERRORS))
    def test_material_suite_converges(self, preset):
        rho_fn, tau_fn = w1.MATERIAL_PRESETS[preset]
        rows, _ = w1.vmp_refine_errors(range(4, 7), 2.0, rho_fn, tau_fn)
        ers = [er for _, er in rows]
        assert ers == pytest.approx(PRESET_ERRORS[preset], rel=1e-5)
        (d1, e1), (d2, e2) = rows[0], rows[-1]
        fit = (np.log(e1) - np.log(e2)) / (np.log(d1) - np.log(d2))
        assert fit >= 1.0  # every material case is at least first order

    def test_constant_and_smooth_bump_are_second_order(self):
        for preset in ("constant", "bump-p2-q2"):
            rho_fn, tau_fn = w1.MATERIAL_PRESETS[preset]
            rows, _ = w1.vmp_refine_errors(range(4, 7), 2.0, rho_fn, tau_fn)
            (d1, e1), (d2, e2) = rows[0], rows[-1]
            fit = (np.log(e1) - np.log(e2)) / (np.log(d1) - np.log(d2))
            assert fit >= 1.9

    def test_scaled_error_profiles_overlap(self):
        # oracle: max|Er|/dx^2 = 0.528161, 0.476302, 0.471764, 0.468987
        # for bump p = q = 2, successive ratios 0.9018, 0.9905, 0.9941
        rho_fn, tau_fn = w1.MATERIAL_PRESETS["bump-p2-q2"]
        _, profiles = w1.vmp_refine_errors(range(4, 8), 2.0, rho_fn, tau_fn)
        ms = [np.max(np.abs(profiles[k])) for k in range(4, 8)]
        assert ms == pytest.approx([0.528161, 0.476302, 0.471764, 0.468987], rel=1e-5)
        for a, b in zip(ms, ms[1:]):
            assert 0.85 <= b / a <= 1.15


class TestSecondDifference:
    def test_update_satisfies_three_level_stencil(self):
        # rho * (u2 - 2 u1 + u0) / dt^2 equals the flux difference of u1
        g = mode_grid(5, 2.0, 2)
        mats = w1.Materials1D.from_profiles(
            g, w1.constant_profile(1.0), w1.piecewise_linear_profile())
        u0 = np.sin(np.pi * g.primal_points())
        v0 = w1.taylor_v_half_vmp(u0, np.zeros(g.nx - 1), mats, g)
        s0 = core.SystemState(f=u0, g_half=v0, dt=g.dt)
        s1 = w1.vmp_step(s0, mats, g)
        s2 = w1.vmp_step(s1, mats, g)
        lhs = mats.rho * (s2.f - 2 * s1.f + s0.f) / g.dt**2
        tg = mats.tau * w1.grad1(s1.f, g.dx)
        rhs = w1.div1(tg, g.dx)
        np.testing.assert_allclose(lhs[1:-1], rhs[1:-1], rtol=1e-12, atol=1e-11)


class TestVAtFinalTime:
    def test_mean_of_halves(self):
        assert np.all(w1.v_at_final_time(np.array([2.0]), np.array([2.0])) == 2.0)
        assert w1.v_at_final_time(np.array([0.0]), np.array([2.0]))[0] == 1.0

    def test_second_order_in_time(self):
        # oracle: 1.161718e-03 (k=4), 2.887942e-04 (k=5) at T = 1.75
        ers = {}
        for k in (4, 5):
            g = mode_grid(k, 1.75, 1)
            u0 = w1.standing_mode_u(g.primal_points(), 0.0)
            v0 = w1.standing_mode_v(g.dual_points(), g.dt / 2)
            state, _ = w1.run_cmp(g, 1.0, u0, v0, record_every=0)
            v_final = w1.v_at_final_time(state.g_half, state.g_prev_half)
            ers[k] = np.max(np.abs(v_final - w1.standing_mode_v(g.dual_points(), 1.75)))
        assert ers[4] == pytest.approx(1.161718e-03, rel=1e-5)
        assert ers[5] == pytest.approx(2.887942e-04, rel=1e-5)
        assert 3.8 < ers[4] / ers[5] < 4.2


def test_in_place_vmp_drift_grows_like_sqrt_of_steps():
    """10^5 in-place steps over rough materials: both invariants drift by
    less than c * sqrt(m) * eps over the m steps after the first record.

    The bound follows Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 4: rounding errors that behave as independent random
    variables accumulate like sqrt(m), not like m.  Write u = eps/2 for the
    unit roundoff and s = dt * bound / 2 for the fraction of the CFL limit;
    the analytic bound is at least ||A|| in the weighted norms, so s bounds
    the true fraction.  All estimates are to first order in u.

    * The whole-step invariant of z = (u_n, v_{n-1/2}) is
      C = ||u||^2 + ||v||^2 + dt <v, A u>, a quadratic form H whose
      eigenvalues in the weighted norm N lie in [1 - s, 1 + s]; the exact
      step M keeps it.  The half-step invariant is the same with u and v
      exchanged, so everything below holds for both.
    * Each entry of an update term t = dt W (y[1:] - y[:-1]) / dx takes four
      roundings (difference, spacing, material, dt) and the add one more.
      So the computed u_{n+1} is the exact one plus e_u, with
      |e_u| <= u |u_{n+1}| + 4u |t| entrywise, and ||t|| <= 2 s ||v||.  Every
      field is a part of some state, of norm at most R = sqrt(C / (1 - s)),
      so ||e_u||, ||e_v|| <= (1 + 8s) u R.  The v update reads the computed
      u_{n+1}, so the step is M z + e with e = (e_u, dt A e_u + e_v) and
      ||e||_N <= (2 + 2s)(1 + 8s) u R.
    * C(M z + e) - C(M z) = 2 <M z, e>_H + ||e||_H^2 with
      ||e||_H <= sqrt(1 + s) ||e||_N, so one step moves C by a relative
      delta <= 2 sqrt((1 + s)/(1 - s)) (2 + 2s)(1 + 8s) u.
    * Treating the m per-step changes as independent, of mean zero and at
      most delta each, Hoeffding's inequality puts their sum above
      6 delta sqrt(m) with probability below 2 exp(-18) = 3e-8.
    * A recorded value adds its own evaluation error: each of the three
      weighted sums of nx terms takes at most nx + 10 roundings, relative
      to P1 + P2 + (dt/2)^2 P3 <= (1 + s^2)/(1 - s^2) C, so
      eta <= (nx + 10) u (1 + s^2)/(1 - s^2).  Two records differ by at
      most 2 eta from it, and m >= 1000 turns that into
      2 eta sqrt(m) / sqrt(1000).

    So c = (6 delta + 2 eta / sqrt(1000)) / eps; at s = 1/2 and nx = 33 it
    is about 160, where a per-step drift of delta would reach
    m delta ~ 2.6e6 eps at m = 10^5.
    """
    nx, n_steps, every = 33, 100_000, 1000
    probe = w1.Grid1D(a=0.0, b=1.0, nx=nx, t_final=1.0, nt=1)
    mats = w1.Materials1D.from_profiles(probe, w1.jump_profile(0.5),
                                        w1.piecewise_linear_profile())
    bound = w1.vmp_operator_pair(mats, probe).norm_bound_A
    grid = w1.Grid1D(a=0.0, b=1.0, nx=nx, t_final=n_steps / bound, nt=n_steps)
    ops, inner_X, inner_Y = w1.vmp_system(mats, grid)
    assert ops.update is not None  # unrecorded steps run in place
    rng = np.random.default_rng(61)
    u0 = np.sin(np.pi * grid.primal_points()) + 0.1 * rng.standard_normal(nx)
    u0[0] = u0[-1] = 0.0
    _, records = core.run_system(u0, None, ops, grid.dt, n_steps, inner_X, inner_Y,
                                 g_half0=rng.standard_normal(nx - 1), record_every=every)

    eps = np.finfo(float).eps
    unit = eps / 2
    s = grid.dt * bound / 2
    delta = 2 * np.sqrt((1 + s) / (1 - s)) * (2 + 2 * s) * (1 + 8 * s) * unit
    eta = (nx + 10) * unit * (1 + s**2) / (1 - s**2)
    c = (6 * delta + 2 * eta / np.sqrt(1000)) / eps
    assert len(records) == n_steps // every
    first = records[0]
    for step, c_full, c_half in records[1:]:
        allowed = c * np.sqrt(step - first[0]) * eps
        assert abs(c_full - first[1]) / abs(first[1]) < allowed
        assert abs(c_half - first[2]) / abs(first[2]) < allowed
