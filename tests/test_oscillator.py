import math
import warnings
from operator import add, attrgetter

import numpy as np
import pytest

from stagwave.core import SystemState, conserved_half_step, energy_pieces, init_g_half
from stagwave.oscillator import (
    OscParams,
    continuum_deviation,
    exact_solution,
    leapfrog_step,
    oscillator_system,
    second_order_step,
)

# a System's (inner_X, inner_Y), in the order the invariants take them
_products = attrgetter("inner_X", "inner_Y")


def u_history(p, u0, v0, n_steps, *, exact_init=False):
    """u at steps 0..n_steps of the oscillator System's march from (u0, v0),
    and its (step, C_n, C_half) records."""
    _, rec = oscillator_system(p, u0, v0, exact_init=exact_init).march(
        p.dt, n_steps, audit=lambda s, _: (s.f,))
    return [u0] + [r[3] for r in rec], [r[:3] for r in rec]


def final_u(dt):
    """u after an unrecorded march of 10,000 steps from u0 = 1, v0 = 0 with
    omega = 1.  The map is linear: a stable orbit stays at or below 1, a
    growing one ends far past 10 or at inf or NaN, where abs(u) <= 10 is
    false."""
    state, _ = oscillator_system(OscParams(omega=1.0, dt=dt)).march(dt, 10_000, record_every=0)
    return state.f


def test_params_validation():
    with pytest.raises(ValueError):
        OscParams(omega=0.0, dt=0.1)
    with pytest.raises(ValueError):
        OscParams(omega=1.0, dt=-0.1)
    assert OscParams(omega=2.0, dt=0.5).alpha == 0.5


class TestSecondOrderStep:
    def test_dt_zero_reduces_to_two_un_minus_unm1(self):
        p = OscParams(omega=1.0, dt=0.0)
        assert second_order_step(0.3, 0.1, p) == pytest.approx(0.5)

    def test_marginal_coefficient(self):
        # omega*dt = 2 -> coefficient 2 - 4 = -2
        p = OscParams(omega=2.0, dt=1.0)
        assert second_order_step(1.0, 0.0, p) == -2.0

    def test_tracks_cosine_long_run(self):
        # Exact two-level start u^0=1, u^1=cos(dt).  Max deviation from cos(t)
        # over 1e4 steps is set by the phase drift t*dt^2/24; frozen value from
        # tests/oracles/oscillator_oracle.py: 4.123172e-04.
        p = OscParams(omega=1.0, dt=0.01)
        u_prev, u = 1.0, math.cos(p.dt)
        err = 0.0
        for n in range(2, 10_001):
            u_prev, u = u, second_order_step(u, u_prev, p)
            err = max(err, abs(u - math.cos(n * p.dt)))
        assert err == pytest.approx(4.123172e-4, rel=1e-5)
        assert err < 5e-4  # analytic envelope t*omega^3*dt^2/24 at t=100


class TestLeapfrogStep:
    def test_zero_state_fixed_point(self):
        p = OscParams(omega=1.0, dt=0.7)
        s = leapfrog_step(SystemState(f=0.0, g_half=0.0, dt=p.dt), p)
        assert s.f == 0.0 and s.g_half == 0.0 and s.step == 1

    def test_unit_substitution(self):
        # omega=1, dt=1, u=1, v=0: u' = 1, then v' = 0 + 1*1 = 1
        p = OscParams(omega=1.0, dt=1.0)
        s = leapfrog_step(SystemState(f=1.0, g_half=0.0, dt=p.dt), p)
        assert s.f == 1.0 and s.g_half == 1.0

    def test_one_period_second_order(self):
        # Frozen from tests/oracles/oscillator_oracle.py: max error over one
        # period 1.987227e-3 at dt=0.1 and 4.990180e-4 at dt=0.05 (ratio 3.98).
        errs = {}
        for dt in (0.1, 0.05):
            p = OscParams(omega=1.0, dt=dt)
            u_hist, _ = u_history(p, 1.0, 0.0, round(2 * math.pi / dt), exact_init=True)
            errs[dt] = max(
                abs(u - math.cos(k * dt)) for k, u in enumerate(u_hist)
            )
        assert errs[0.1] == pytest.approx(1.987227e-3, rel=1e-5)
        assert errs[0.05] == pytest.approx(4.990180e-4, rel=1e-5)
        assert 3.6 < errs[0.1] / errs[0.05] < 4.4


class TestInitHalfStep:
    def test_dt_zero(self):
        p = OscParams(omega=3.7, dt=0.0)
        assert init_g_half(0.4, 0.9, oscillator_system(p).ops, p.dt) == 0.9

    def test_linear_term(self):
        # second term (dt/2)*omega*u0 with u0=1, v0=0
        p = OscParams(omega=1.0, dt=0.2)
        assert init_g_half(1.0, 0.0, oscillator_system(p).ops, p.dt) == pytest.approx(0.1)

    @pytest.mark.parametrize("dt", [0.2, 0.1, 0.05])
    def test_third_order_error(self, dt):
        # u0=1, v0=0: init = dt/2, exact = sin(dt/2); |e| = dt^3/48 + O(dt^5).
        # Oracle: e/dt^3 = 0.020823, 0.020831, 0.020833 for dt = 0.2, 0.1, 0.05.
        p = OscParams(omega=1.0, dt=dt)
        v_half = init_g_half(1.0, 0.0, oscillator_system(p).ops, p.dt)
        e = abs(v_half - exact_solution(1.0, 0.0, 1.0, dt / 2)[1])
        assert e / dt**3 == pytest.approx(1 / 48, rel=5e-3)


class TestConservedQuantities:
    def test_trivial_values(self):
        p = OscParams(omega=1.0, dt=0.0)  # alpha = 0
        s = SystemState(f=1.0, g_half=0.0, dt=p.dt, f_prev=0.0, g_prev_half=0.0)
        assert add(*energy_pieces(s, *_products(oscillator_system(p)))) == pytest.approx(0.5)
        s2 = SystemState(f=0.0, g_half=1.0, dt=p.dt, f_prev=0.0, g_prev_half=1.0)
        assert conserved_half_step(s2, *_products(oscillator_system(p))) == pytest.approx(0.5)

    def test_alpha_one_kills_u_term(self):
        # omega*dt = 2 -> alpha = 1: the u^2 coefficient vanishes.  The states
        # are leapfrog states, as the invariants assume: v_{n+1/2} - v_{n-1/2}
        # = dt omega u_n (8 + 6 = 2 * 7) and u_{n-1} - u_n = dt omega v_{n-1/2}
        # (10 + 8 = 2 * 9), with v_bar = 1 and u_bar = 1
        p = OscParams(omega=2.0, dt=1.0)
        s = SystemState(f=7.0, g_half=8.0, dt=p.dt, f_prev=0.0, g_prev_half=-6.0)
        assert add(*energy_pieces(s, *_products(oscillator_system(p)))) == pytest.approx(0.5)
        s2 = SystemState(f=-8.0, g_half=123.0, dt=p.dt, f_prev=10.0, g_prev_half=9.0)
        assert conserved_half_step(s2, *_products(oscillator_system(p))) == pytest.approx(0.5)

    def test_history_required(self):
        p = OscParams(omega=1.0, dt=0.1)
        fresh = SystemState(f=1.0, g_half=0.0, dt=p.dt)
        with pytest.raises(ValueError):
            add(*energy_pieces(fresh, *_products(oscillator_system(p))))
        with pytest.raises(ValueError):
            conserved_half_step(fresh, *_products(oscillator_system(p)))

    def test_long_run_drift(self):
        # omega=1, dt=0.01, 1e4 steps: both invariants constant to ~eps
        _, rec = u_history(OscParams(omega=1.0, dt=0.01), 1.0, 0.3, 10_000)
        c_full = [r[1] for r in rec]
        c_half = [r[2] for r in rec]
        for series in (c_full, c_half):
            c0 = series[0]
            drift = max(abs(c - c0) for c in series) / abs(c0)
            assert drift <= 1e-12

    def test_phase_radius_approaches_continuum(self):
        # sqrt(2 C_n) -> continuum radius 1 (u0=1, v0=0) as dt -> 0; the
        # radius error is alpha^2/2 = dt^2/8.  Oracle values: 2.020e-2,
        # 5.013e-3, 1.251e-3 for dt = 0.4, 0.2, 0.1 — strictly decreasing.
        errs = []
        for dt in (0.4, 0.2, 0.1):
            _, rec = u_history(OscParams(omega=1.0, dt=dt), 1.0, 0.0, 100)
            errs.append(max(abs(math.sqrt(2 * r[1]) - 1.0) for r in rec))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] == pytest.approx(1.250782e-3, rel=1e-5)


class TestEquivalenceAndStability:
    def test_leapfrog_matches_second_order_recurrence(self):
        # The u-sequences of the two formulations are algebraically identical;
        # floating point lets them differ only at rounding level.
        p = OscParams(omega=1.3, dt=0.05)
        u_hist, _ = u_history(p, 0.8, -0.2, 2_000)
        u_prev, u = u_hist[0], u_hist[1]
        for n in range(2, len(u_hist)):
            u_prev, u = u, second_order_step(u, u_prev, p)
            assert u == pytest.approx(u_hist[n], rel=1e-10, abs=1e-12)

    def test_stability_edge(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no CFL warning below the edge
            assert abs(final_u(1.99)) <= 10
            assert abs(final_u(0.1)) <= 10
        with pytest.warns(RuntimeWarning, match="exceeds the stability bound"):
            assert not abs(final_u(2.30)) <= 10

    def test_trajectory_error_halves_quadratically(self):
        # max error against the analytic solution drops ~4x per dt halving
        errs = []
        for dt in (0.1, 0.05):
            u_hist, _ = u_history(OscParams(omega=1.0, dt=dt), 1.0, 0.0, round(5.0 / dt))
            errs.append(
                max(abs(u - math.cos(k * dt)) for k, u in enumerate(u_hist))
            )
        assert 3.6 < errs[0] / errs[1] < 4.4


@pytest.mark.parametrize("u0, v0, omega, dt, steps", [
    (1.0, 0.0, 1.0, 0.01, 10_000),
    (1.2, -0.3, 0.9, 0.01, 10_000),
    (0.8, 0.2, 1.1, 2.5, 300),  # past the CFL edge: the march grows
    (1.0, 0.0, 1.0, 1e308, 3),  # step times past the float range
])
def test_continuum_deviation_has_the_bits_of_the_whole_array_form(u0, v0, omega, dt, steps):
    params = OscParams(omega=omega, dt=dt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the CFL warning of a march past the edge
        history, _ = u_history(params, u0, v0, steps)
    with np.errstate(over="ignore", invalid="ignore"):
        t = dt * np.arange(len(history))
        exact = u0 * np.cos(omega * t) - v0 * np.sin(omega * t)
    want = float(np.max(np.abs(np.asarray(history) - exact)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # NaN, where it is NaN, comes without a warning
        got = continuum_deviation(history, u0, v0, omega, dt)
    assert math.isnan(got) == (dt == 1e308)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
