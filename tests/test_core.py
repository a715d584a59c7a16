import importlib
import pkgutil
import sys
from fractions import Fraction
from operator import add

import numpy as np
import pytest

import stagwave
from stagwave import oscillator as osc
from stagwave.core import (
    OperatorPair,
    SystemState,
    check_adjointness,
    conserved_half_step,
    energy_pieces,
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
        )
    wx = np.asarray(wx, dtype=float)
    wy = np.asarray(wy, dtype=float)
    Astar = (A.T * wy) / wx[:, None]  # W_X^{-1} A^T W_Y
    return OperatorPair(
        apply_A=lambda f: A @ f,
        apply_Astar=lambda g: Astar @ g,
        norm_bound_A=float(np.linalg.norm(A, 2)) * np.sqrt(wy.max() / wx.min()),
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
        p = osc.OscParams(omega=w, dt=dt)
        _, rec = osc.oscillator_system(p, 0.6, -0.4).march(dt, 50, audit=lambda s, _: (s.f,))
        g_half = init_g_half(0.6, -0.4, osc.oscillator_system(p).ops, p.dt)
        state = SystemState(f=0.6, g_half=g_half, dt=dt)
        for n in range(1, 51):
            state = system_step(state, ops)
            # dt*(w*v) vs (dt*w)*v associate differently: agree to rounding
            assert state.f == pytest.approx(rec[n - 1][3], rel=1e-14)

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

    def test_matches_the_oscillator_start(self):
        # the curvature term carries the Taylor coefficient 1/2*(dt/2)^2 = dt^2/8,
        # and the oscillator System starts from the same half step
        w, dt, g0 = 2.0, 0.1, 1.5
        ops = OperatorPair(apply_A=lambda f: w * f, apply_Astar=lambda g: w * g)
        a = init_g_half(0.0, g0, ops, dt)
        assert a == pytest.approx(g0 - 0.125 * dt**2 * w**2 * g0)
        p = osc.OscParams(omega=w, dt=dt)
        assert a == pytest.approx(osc.oscillator_system(p, 0.0, g0).start(p.dt)[1], abs=1e-16)


class TestConservedQuantities:
    def test_zero_state(self):
        s = SystemState(
            f=np.zeros(3),
            g_half=np.zeros(3),
            dt=0.1,
            f_prev=np.zeros(3),
            g_prev_half=np.zeros(3),
        )
        assert add(*energy_pieces(s)) == 0.0
        assert conserved_half_step(s) == 0.0

    def test_dt_zero_reduces_to_norms(self):
        f = np.array([3.0, 4.0])
        g = np.array([1.0, 1.0])
        s = SystemState(f=f, g_half=g, dt=0.0, f_prev=f, g_prev_half=g)
        assert add(*energy_pieces(s)) == pytest.approx(25.0 + 2.0)
        assert conserved_half_step(s) == pytest.approx(25.0 + 2.0)

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

    def test_rational_march_past_the_cfl_edge_warns_and_conserves_exactly(self):
        # dt * ||A|| = 17/8 in exact rationals: the warning formats dt as a
        # float (a Fraction has no 'g' format), and the march runs on with
        # both forms exactly constant
        w, dt = Fraction(2), Fraction(17, 16)
        ops = OperatorPair(apply_A=lambda f: w * f, apply_Astar=lambda g: w * g, norm_bound_A=w)
        product = lambda a, b: a * b
        with pytest.warns(RuntimeWarning, match=r"^dt = 1\.062 exceeds the stability bound 1;"):
            _, rec = run_system(Fraction(1), None, ops, dt, 40, product, product,
                                g_half0=Fraction(0))
        assert [r[0] for r in rec] == list(range(1, 41))
        assert all(isinstance(c, Fraction) for r in rec for c in r[1:])
        assert len({r[1] for r in rec}) == len({r[2] for r in rec}) == 1

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
            c = add(*energy_pieces(state))
            g_bar = 0.5 * (state.g_half + state.g_prev_half)
            lower = (1 - (0.5 * dt * ops.norm_bound_A) ** 2) * euclidean_inner(
                state.f, state.f
            ) + euclidean_inner(g_bar, g_bar)
            assert c >= lower - 1e-12 * abs(c)

    def test_history_required(self):
        s = SystemState(f=np.ones(2), g_half=np.ones(2), dt=0.1)
        with pytest.raises(ValueError):
            add(*energy_pieces(s))
        with pytest.raises(ValueError):
            conserved_half_step(s)


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


# every stagwave module that declares its public names
_EXPORTING = [name for name in sorted(m.name for m in pkgutil.iter_modules(stagwave.__path__))
              if hasattr(importlib.import_module(f"stagwave.{name}"), "__all__")]


@pytest.mark.parametrize("name", _EXPORTING)
def test_every_exported_name_resolves(name):
    # a retired name must leave its module's __all__ too
    module = importlib.import_module(f"stagwave.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_grids_refuse_arrays_past_what_an_array_can_address(monkeypatch):
    # an array of 2^60 float64 entries has 2^63 bytes, one more than a signed
    # machine word holds; each grid checks its largest array, allocating none.
    # The sizes just below that limit are past any host's memory, so the host
    # here reports as much memory as an array can address
    from stagwave import core
    from stagwave.core import addressable
    from stagwave.mimetic3d import Grid3
    from stagwave.wave1d import Grid1D
    from stagwave.wave2d import Grid2

    monkeypatch.setattr(core, "_physical_memory", lambda: sys.maxsize)
    assert addressable((2**30, 2**30 - 1)) == (2**30, 2**30 - 1)
    for shape in [(2**30, 2**30), (2**60,), (2**20, 2**20, 2**20)]:
        with pytest.raises(MemoryError, match="more bytes than an array can address"):
            addressable(shape)
    # the largest arrays: pinned nodes (n + 1)^3, periodic n^3, 2D nodes
    # (nx + 1)(ny + 1), 1D primal points nx
    kept = [lambda d: Grid3.cube(2**20 - 1 - d, 1.0, boundary="pinned"),
            lambda d: Grid3.cube(2**20 - d, 1.0),
            lambda d: Grid2(2**30 - 1, 2**30 - 1 - d),
            lambda d: Grid1D(0.0, 1.0, 2**60 - d, 1.0, 1)]
    for grid in kept:
        grid(1)
        with pytest.raises(MemoryError):
            grid(0)


def test_grids_refuse_arrays_past_the_hosts_memory(monkeypatch):
    # an addressable array larger than the memory the host reports is
    # refused before anything is made; where the host reports none, only
    # the addressable limit holds
    from stagwave import core
    from stagwave.core import addressable
    from stagwave.mimetic3d import Grid3
    from stagwave.wave1d import Grid1D
    from stagwave.wave2d import Grid2

    memory = core._physical_memory()
    assert memory is None or memory > 0
    monkeypatch.setattr(core, "_physical_memory", lambda: 8 * 1000)
    assert addressable((1000,)) == (1000,)
    with pytest.raises(MemoryError, match=r"more bytes \(8008\) than this host's memory \(8000\)"):
        addressable((1001,))
    # the largest arrays: pinned nodes 10^3, periodic 10^3, 2D nodes 10 x 100,
    # 1D primal points 1000
    for grid in (lambda d: Grid3.cube(9 + d, 1.0, boundary="pinned"),
                 lambda d: Grid3.cube(10 + d, 1.0),
                 lambda d: Grid2(9, 99 + d),
                 lambda d: Grid1D(0.0, 1.0, 1000 + d, 1.0, 1)):
        grid(0)
        with pytest.raises(MemoryError, match="this host's memory"):
            grid(1)

    def unreported(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.undo()
    monkeypatch.setattr(core.os, "sysconf", unreported)
    assert core._physical_memory() is None
    assert addressable((2**30, 2**30 - 1)) == (2**30, 2**30 - 1)
