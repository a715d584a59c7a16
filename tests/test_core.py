import numpy as np
import pytest

from stagwave import oscillator as osc
from stagwave.core import (
    OperatorPair,
    SystemState,
    check_adjointness,
    conserved_full,
    conserved_half_step,
    euclidean_inner,
    init_g_half,
    run_system,
    system_step,
)


def matrix_pair(A, wx=None, wy=None):
    """Operator pair from a dense matrix; adjoint under optional diagonal weights."""
    A = np.asarray(A, dtype=float)
    if wx is None and wy is None:
        Astar = A.T
        return OperatorPair(
            apply_A=lambda f: A @ f,
            apply_Astar=lambda g: Astar @ g,
            norm_bound_A=float(np.linalg.norm(A, 2)),
            norm_bound_Astar=float(np.linalg.norm(A, 2)),
        )
    wx = np.asarray(wx, dtype=float)
    wy = np.asarray(wy, dtype=float)
    Astar = (A.T * wy) / wx[:, None]  # W_X^{-1} A^T W_Y
    return OperatorPair(
        apply_A=lambda f: A @ f,
        apply_Astar=lambda g: Astar @ g,
        norm_bound_A=float(np.linalg.norm(A, 2)) * np.sqrt(wy.max() / wx.min()),
        norm_bound_Astar=float(np.linalg.norm(A, 2)) * np.sqrt(wy.max() / wx.min()),
    )


class TestSystemStep:
    def test_zero_operator_freezes_state(self):
        zero = OperatorPair(apply_A=lambda f: 0.0 * f, apply_Astar=lambda g: 0.0 * g)
        s0 = SystemState(f=np.array([1.0, 2.0]), g_half=np.array([3.0]), dt=0.5)
        s1 = system_step(s0, zero)
        assert np.all(s1.f == s0.f) and np.all(s1.g_half == s0.g_half)
        assert s1.step == 1

    def test_scalar_case_reproduces_oscillator(self):
        # X = Y = R, A = A* = omega: identical sequence to the oscillator module
        w, dt = 1.3, 0.07
        ops = OperatorPair(apply_A=lambda f: w * f, apply_Astar=lambda g: w * g)
        p = osc.OscParams(omega=w, dt=dt, n_steps=50)
        u_hist, _ = osc.simulate(0.6, -0.4, p)
        g_half = init_g_half(0.6, -0.4, osc.oscillator_system(p)[0], p.dt)
        state = SystemState(f=0.6, g_half=g_half, dt=dt)
        for n in range(1, 51):
            state = system_step(state, ops)
            # dt*(w*v) vs (dt*w)*v associate differently: agree to rounding
            assert state.f == pytest.approx(u_hist[n], rel=1e-14)

    def test_dimension_mismatch_raises(self):
        A = np.ones((2, 3))
        ops = matrix_pair(A)
        bad = SystemState(f=np.ones(4), g_half=np.ones(2), dt=0.1)
        with pytest.raises(ValueError):
            system_step(bad, ops)

    def test_second_difference_and_average_identities(self):
        # Trajectories satisfy, exactly up to rounding:
        #   f_{n+1} - 2 f_n + f_{n-1} = -dt^2 A* A f_n
        #   f_{n+1} - f_{n-1} = -dt * A* (g_{n+1/2} + g_{n-1/2})
        rng = np.random.default_rng(7)
        A = rng.standard_normal((2, 3))
        ops = matrix_pair(A)
        dt = 0.5 / np.linalg.norm(A, 2)
        state = SystemState(
            f=rng.standard_normal(3), g_half=rng.standard_normal(2), dt=dt
        )
        prev = None
        for _ in range(200):
            nxt = system_step(state, ops)
            if prev is not None:
                lhs = nxt.f - 2 * state.f + prev.f
                rhs = -(dt**2) * (A.T @ (A @ state.f))
                assert np.linalg.norm(lhs - rhs) <= 1e-13 * max(
                    1.0, np.linalg.norm(rhs)
                )
                lhs2 = nxt.f - prev.f
                rhs2 = -dt * (A.T @ (state.g_half + prev.g_half))
                assert np.linalg.norm(lhs2 - rhs2) <= 1e-13 * max(
                    1.0, np.linalg.norm(rhs2)
                )
            prev, state = state, nxt


class TestInitGHalf:
    def test_dt_zero(self):
        ops = matrix_pair(np.ones((2, 2)))
        g0 = np.array([1.0, -1.0])
        out = init_g_half(np.zeros(2), g0, ops, dt=0.0)
        assert np.all(out == g0)

    def test_no_curvature_terms(self):
        # A f0 = 0 and A A* g0 = 0 -> g0 unchanged
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        ops = matrix_pair(A)
        f0 = np.array([0.0, 5.0])  # in ker A
        g0 = np.array([0.0, 3.0])  # A* g0 = (0,0)
        out = init_g_half(f0, g0, ops, dt=0.3)
        assert np.allclose(out, g0)

    def test_variants_differ_by_documented_coefficient(self):
        # oscillator-taylor uses 1/2*(dt/2)^2 = dt^2/8; system-taylor dt^2/2.
        # Scalar case A = A* = w: difference = (dt^2/2 - dt^2/8) * w^2 * g0.
        w, dt, g0 = 2.0, 0.1, 1.5
        ops = OperatorPair(apply_A=lambda f: w * f, apply_Astar=lambda g: w * g)
        a = init_g_half(0.0, g0, ops, dt, variant="oscillator-taylor")
        b = init_g_half(0.0, g0, ops, dt, variant="system-taylor")
        assert a - b == pytest.approx((0.5 - 0.125) * dt**2 * w**2 * g0)
        # oscillator-taylor coincides with the oscillator module's initializer
        p = osc.OscParams(omega=w, dt=dt)
        assert a == pytest.approx(init_g_half(0.0, g0, osc.oscillator_system(p)[0], p.dt),
                                  abs=1e-16)

    def test_unknown_variant(self):
        ops = matrix_pair(np.eye(2))
        with pytest.raises(ValueError):
            init_g_half(np.zeros(2), np.zeros(2), ops, 0.1, variant="bogus")


class TestConservedQuantities:
    def test_zero_state(self):
        ops = matrix_pair(np.eye(3))
        s = SystemState(
            f=np.zeros(3),
            g_half=np.zeros(3),
            dt=0.1,
            f_prev=np.zeros(3),
            g_prev_half=np.zeros(3),
        )
        assert conserved_full(s, ops) == 0.0
        assert conserved_half_step(s, ops) == 0.0

    def test_dt_zero_reduces_to_norms(self):
        ops = matrix_pair(np.eye(2))
        f = np.array([3.0, 4.0])
        g = np.array([1.0, 1.0])
        s = SystemState(f=f, g_half=g, dt=0.0, f_prev=f, g_prev_half=g)
        assert conserved_full(s, ops) == pytest.approx(25.0 + 2.0)
        assert conserved_half_step(s, ops) == pytest.approx(25.0 + 2.0)

    def test_random_matrix_drift(self):
        # 3x2 random system, dt ||A|| = 0.5, 1e3 steps: relative drift <= 1e-12
        rng = np.random.default_rng(42)
        A = rng.standard_normal((2, 3))
        ops = matrix_pair(A)
        dt = 0.5 / np.linalg.norm(A, 2)
        _, rec = run_system(
            rng.standard_normal(3), rng.standard_normal(2), ops, dt, 1_000
        )
        for idx in (1, 2):
            series = [r[idx] for r in rec]
            drift = max(abs(c - series[0]) for c in series) / abs(series[0])
            assert drift <= 1e-12

    def test_weighted_inner_product_drift(self):
        # adjoint under diagonal weights: conservation must hold in those products
        rng = np.random.default_rng(3)
        A = rng.standard_normal((4, 5))
        wx = rng.uniform(0.5, 2.0, size=5)
        wy = rng.uniform(0.5, 2.0, size=4)
        ops = matrix_pair(A, wx, wy)
        inner_X = lambda a, b: float(np.sum(a * b * wx))
        inner_Y = lambda a, b: float(np.sum(a * b * wy))
        res = check_adjointness(
            ops,
            inner_X,
            inner_Y,
            trials=20,
            sample_X=lambda r: r.standard_normal(5),
            sample_Y=lambda r: r.standard_normal(4),
        )
        assert res <= 1e-14
        dt = 0.5 / ops.norm_bound_A
        _, rec = run_system(
            rng.standard_normal(5),
            rng.standard_normal(4),
            ops,
            dt,
            2_000,
            inner_X=inner_X,
            inner_Y=inner_Y,
        )
        for idx in (1, 2):
            series = [r[idx] for r in rec]
            drift = max(abs(c - series[0]) for c in series) / abs(series[0])
            assert drift <= 1e-11

    def test_positivity_lower_bound(self):
        # C_full >= (1 - (dt/2)^2 ||A||^2) ||f||^2 + ||g_bar||^2
        rng = np.random.default_rng(11)
        A = rng.standard_normal((3, 3))
        ops = matrix_pair(A)
        dt = 1.0 / ops.norm_bound_A
        state = SystemState(
            f=rng.standard_normal(3), g_half=rng.standard_normal(3), dt=dt
        )
        for _ in range(100):
            state = system_step(state, ops)
            c = conserved_full(state, ops)
            g_bar = 0.5 * (state.g_half + state.g_prev_half)
            lower = (1 - (0.5 * dt * ops.norm_bound_A) ** 2) * euclidean_inner(
                state.f, state.f
            ) + euclidean_inner(g_bar, g_bar)
            assert c >= lower - 1e-12 * abs(c)

    def test_history_required(self):
        ops = matrix_pair(np.eye(2))
        s = SystemState(f=np.ones(2), g_half=np.ones(2), dt=0.1)
        with pytest.raises(ValueError):
            conserved_full(s, ops)
        with pytest.raises(ValueError):
            conserved_half_step(s, ops)


class TestCheckAdjointness:
    def test_transpose_pair_clean(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 6))
        res = check_adjointness(
            matrix_pair(A),
            euclidean_inner,
            euclidean_inner,
            trials=50,
            sample_X=lambda r: r.standard_normal(6),
            sample_Y=lambda r: r.standard_normal(4),
        )
        assert res <= 1e-14

    def test_wrong_sign_detected(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        bad = OperatorPair(apply_A=lambda f: A @ f, apply_Astar=lambda g: -(A.T @ g))
        res = check_adjointness(
            bad,
            euclidean_inner,
            euclidean_inner,
            trials=10,
            sample_X=lambda r: r.standard_normal(2),
            sample_Y=lambda r: r.standard_normal(2),
        )
        assert res > 0.1

    def test_trials_validation(self):
        ops = matrix_pair(np.eye(2))
        with pytest.raises(ValueError):
            check_adjointness(
                ops,
                euclidean_inner,
                euclidean_inner,
                trials=0,
                sample_X=lambda r: r.standard_normal(2),
                sample_Y=lambda r: r.standard_normal(2),
            )
